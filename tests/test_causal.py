import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import model_zoo as zoo
import scmkit
from scmkit import (
    GaussianBlock,
    LinearScm,
    MixedGraph,
    ScmError,
    canonicalize,
    counterfactually_equivalent,
    direct_causal_graph,
    direct_causal_graph_wrt,
    functional_graph,
    intervene,
    interventionally_equivalent,
    is_direct_cause,
    is_indirect_cause,
    observational_distribution,
    observationally_equivalent,
    parse,
    structurally_uniquely_solvable,
)
from scmkit.causal import _achievable_marginals, _first_outside, _hull_contains, _lp_feasible, _phase1

F = Fraction
CORPUS = Path(__file__).parent / "corpus"


def fraction_lp_feasible(rows, rhs):
    """Reference oracle: feasibility of ``rows @ x = rhs, x >= 0`` by a
    phase-1 simplex with Bland's rule, all arithmetic in Fractions."""
    return -fraction_phase1(rows, rhs)[1][-1] == 0


def fraction_phase1(rows, rhs):
    """The oracle's final ``(tableau, obj, basis)``."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    tableau = []
    for r in range(nrows):
        row = [Fraction(x) for x in rows[r]]
        b = Fraction(rhs[r])
        if b < 0:
            row = [-x for x in row]
            b = -b
        art = [Fraction(0)] * nrows
        art[r] = Fraction(1)
        tableau.append(row + art + [b])
    total = ncols + nrows
    basis = [ncols + r for r in range(nrows)]
    # reduced costs for minimizing the artificial sum
    obj = [Fraction(0)] * (total + 1)
    for j in range(ncols, total):
        obj[j] = Fraction(1)
    for row in tableau:
        for j in range(total + 1):
            obj[j] -= row[j]
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for r in range(nrows):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][total] / coef
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        r = best[1]
        pivot = tableau[r][enter]
        tableau[r] = [x / pivot for x in tableau[r]]
        for rr in range(nrows):
            if rr != r and tableau[rr][enter]:
                factor = tableau[rr][enter]
                tableau[rr] = [a - factor * b for a, b in zip(tableau[rr], tableau[r])]
        if obj[enter]:
            factor = obj[enter]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
        basis[r] = enter
    return tableau, obj, basis


def integer_rows(rows, rhs):
    """Each row of ``rows | rhs`` times the lcm of its denominators, negated
    where the right-hand side is negative: the problem the integer kernel
    pivots on."""
    out = []
    for row, b in zip(rows, rhs):
        scale = math.lcm(*(F(x).denominator for x in [*row, b])) * (-1 if b < 0 else 1)
        out.append([x * scale for x in [*row, b]])
    return [r[:-1] for r in out], [r[-1] for r in out]


def random_lp(rng):
    """A random ``(rows, rhs, known)`` with 1-6 rows and 1-10 columns of small
    rationals; ``known`` is True when the LP was built feasible from an
    ``x >= 0``.  Some rows are zero, and some repeat another row times a
    positive factor, which ties every ratio test where both are eligible."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 10)

    def entry():
        return 0 if rng.random() < 0.3 else F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    known = rng.random() < 0.4
    if known:
        x = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0 for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(nrows)]
    if rng.random() < 0.2:
        r = rng.randrange(nrows)
        rows[r] = [0] * ncols
        if known or rng.random() < 0.5:
            rhs[r] = 0
    if nrows > 1 and rng.random() < 0.4:
        src, dst = rng.sample(range(nrows), 2)
        c = F(rng.randint(1, 3), rng.randint(1, 3))
        rows[dst] = [c * a for a in rows[src]]
        rhs[dst] = c * rhs[src]
    return rows, rhs, known


def hull_cells(*sides):
    return sorted({c for vs in sides for v in vs for c in v.probs})


class TestObservationalEquivalence:
    def test_model_equivalent_to_itself(self):
        m = zoo.interventional_equiv_m()
        assert observationally_equivalent(m, m.replace(), ["X1", "X2"])

    def test_lin_gauss_pair(self):
        rep = observationally_equivalent(zoo.lin_gauss_anm(), zoo.lin_gauss_anm_tilde(), ["X1", "X2"])
        assert rep.verdict

    def test_two_unsolvable_models_vacuously_equivalent(self):
        m = zoo.unsolvable_selfloop()
        left = intervene(m, {"X2": 1})
        right = intervene(m.replace(), {"X2": 1})
        rep = observationally_equivalent(left, right, ["X1", "X2"])
        assert rep.verdict

    def test_empty_vs_nonempty_solution_sets_differ(self):
        m = zoo.intervention_unique()
        m_tilde = zoo.interventional_equivalence_tilde()
        rep = observationally_equivalent(
            intervene(m, {"X2": 2}), intervene(m_tilde, {"X2": 2}), ["X1", "X2"]
        )
        assert not rep.verdict
        assert rep.witness["right"] == "no solution"

    def test_unique_laws_are_compared_directly(self):
        # uniquely solvable on both sides: one law each, and the witness is
        # the pair of laws, not two vertex lists
        m, other = zoo.direct_cause_example(), zoo.direct_cause_example(F(1, 3))
        rep = observationally_equivalent(m, other, m.endogenous_names)
        assert not rep.verdict
        assert rep.witness["left"]["vars"] == list(m.endogenous_names)
        assert rep.witness["left"]["probs"] != rep.witness["right"]["probs"]

    def test_polytope_hull_comparison(self):
        # a fair mixture over two fixed points is reachable from either side
        m = zoo.intervention_unique()
        mi = intervene(m, {"X2": 2})
        rep = observationally_equivalent(mi, intervene(m.replace(), {"X2": 2}), ["X1"])
        assert rep.verdict

    def test_subset_inheritance(self):
        m1 = zoo.lin_gauss_anm()
        m2 = zoo.lin_gauss_anm_tilde()
        assert observationally_equivalent(m1, m2, ["X1"]).verdict
        assert observationally_equivalent(m1, m2, ["X2"]).verdict

    def test_coarse_and_fine_noise_models_agree(self):
        # one noise of variance 2 versus the sum of two unit noises: same
        # observational and interventional behavior, different augmented graphs
        from pathlib import Path

        from scmkit import augmented_graph, parse

        corpus = Path(__file__).parent / "corpus"
        coarse = parse((corpus / "ex_cf_equal_coarse.scm").read_text())
        fine = parse((corpus / "ex_cf_equal_fine.scm").read_text())
        assert observationally_equivalent(coarse, fine, ["X"]).verdict
        assert interventionally_equivalent(coarse, fine, ["X"]).verdict
        assert augmented_graph(coarse) != augmented_graph(fine)


    def test_hull_witness_names_the_separating_vertex(self):
        for q in (F(3, 8), F(5, 8)):
            base, other = zoo.gated_selfloop(4), zoo.gated_selfloop(4, q=q)
            rep = observationally_equivalent(base, other, ["X"])
            assert not rep.verdict
            side = rep.witness["outside"]["side"]
            sides = {"left": _achievable_marginals(base, ("X",)), "right": _achievable_marginals(other, ("X",))}
            own, rest = sides[side], sides["right" if side == "left" else "left"]
            # a vertex of its side, outside the other side's hull
            (law,) = [v for v in own if v.to_json_obj() == rep.witness["outside"]["law"]]
            assert [v.to_json_obj() for v in own] == rep.witness[side]
            cells = hull_cells(own, rest)
            rows = [[v.probs.get(c, 0) for v in rest] for c in cells] + [[1] * len(rest)]
            assert not fraction_lp_feasible(rows, [law.probs.get(c, 0) for c in cells] + [1])

    @pytest.mark.parametrize("variance", [1e-12, 1.0, 1e12])
    def test_gaussian_verdicts_do_not_depend_on_the_noise_scale(self, variance):
        # X = E1 with Y = X + E2 or Y = 2X + E2: never equivalent, each
        # equivalent to itself, at any noise variance
        blocks = tuple(GaussianBlock(e, (e,), [0.0], [[variance]]) for e in ("E1", "E2"))
        one, two = (LinearScm(("X", "Y"), blocks, [[0, 0], [b, 0]], np.eye(2)) for b in (1.0, 2.0))
        for check in (observationally_equivalent, interventionally_equivalent):
            assert not check(one, two, ["X", "Y"]).verdict
            assert check(one, one.replace(), ["X", "Y"]).verdict
            assert check(two, two.replace(), ["X", "Y"]).verdict

    @pytest.mark.parametrize("big", [1e10, 1e12])
    def test_a_large_variable_hides_no_difference_in_a_small_one(self, big):
        # X = E1 with mean and variance of order big beside Y = E2: a change of
        # Y's variance from 1 to 2, or of its mean by 1e-3, shows on either
        # margin, observationally and interventionally alike
        def model(var_y=1.0, mean_y=0.0):
            blocks = (GaussianBlock("E1", ("E1",), [big], [[big]]),
                      GaussianBlock("E2", ("E2",), [mean_y], [[var_y]]))
            return LinearScm(("X", "Y"), blocks, np.zeros((2, 2)), np.eye(2))

        base = model()
        for other in (model(var_y=2.0), model(mean_y=1e-3)):
            assert not observational_distribution(base).close_to(observational_distribution(other))
            for margin in (["X", "Y"], ["Y"]):
                for check in (observationally_equivalent, interventionally_equivalent):
                    assert not check(base, other, margin).verdict
                    assert check(base, model(), margin).verdict

    def test_noise_terms_that_cancel_leave_a_constant(self):
        # Y = a Ea + b Eb on a rank-one noise (Ea = 3 Eb): with b = -a/3 the
        # terms cancel and Y is 0, though its computed variance is a rounding
        # residue, not 0 as in the model where Y has no noise at all
        block = GaussianBlock("E", ("Ea", "Eb"), [0.0, 0.0], [[9.0, 3.0], [3.0, 1.0]])

        def model(a, b):
            return LinearScm(("Y",), (block,), np.zeros((1, 1)), [[a, b]])

        for (a, b), same in (((0.1, -0.3), True), ((0.7, -2.1), True), ((0.1, -0.2), False)):
            for check in (observationally_equivalent, interventionally_equivalent):
                assert check(model(a, b), model(0.0, 0.0), ["Y"]).verdict == same


class TestExactLp:
    def test_integer_kernel_matches_fraction_oracle(self):
        rng = random.Random(67)
        seen = {"feasible": 0, "infeasible": 0, "known": 0, "negative": 0, "zero_row": 0}
        for _ in range(2000):
            rows, rhs, known = random_lp(rng)
            verdict = _lp_feasible(rows, rhs)
            assert verdict == fraction_lp_feasible(rows, rhs), (rows, rhs)
            # on the scaled problem both kernels take the same pivots, and
            # the integer tableau is the rational one times det
            tableau, obj, basis, det = _phase1(rows, rhs)
            ftableau, fobj, fbasis = fraction_phase1(*integer_rows(rows, rhs))
            assert basis == fbasis
            assert [obj, *tableau] == [[det * x for x in row] for row in [fobj, *ftableau]], (rows, rhs)
            assert verdict or not known, (rows, rhs)
            seen["feasible" if verdict else "infeasible"] += 1
            seen["known"] += known
            seen["negative"] += any(b < 0 for b in rhs)
            seen["zero_row"] += any(not any(row) for row in rows)
        assert min(seen.values()) >= 200, seen

    def test_gated_selfloop_hulls(self):
        for k, noise in ((3, (F(1, 3), F(2, 3))), (4, (F(2, 3), F(1, 3))), (3, (F(1, 6), F(1, 3), F(1, 2)))):
            vs = _achievable_marginals(zoo.gated_selfloop(k, noise), ("X",))
            for q in (F(3, 8), F(5, 8)):
                ws = _achievable_marginals(zoo.gated_selfloop(k, noise, q), ("X",))
                cells = hull_cells(vs, ws)
                for own, other in ((vs, ws), (ws, vs)):
                    rows = [[v.probs.get(c, 0) for v in other] for c in cells] + [[1] * len(other)]
                    for v in own:
                        assert _hull_contains(own, v, cells)
                        rhs = [v.probs.get(c, 0) for c in cells] + [1]
                        assert _hull_contains(other, v, cells) == fraction_lp_feasible(rows, rhs)
                # the smaller gate's polytope lies inside the larger one's
                small, large = (ws, vs) if q < F(1, 2) else (vs, ws)
                assert all(_hull_contains(large, v, cells) for v in small)
                side, law = _first_outside(vs, ws)
                assert law in (vs if side == "left" else ws)
                assert not _hull_contains(small, law, cells)
            assert _first_outside(vs, vs) is None


class TestInterventionalEquivalence:
    def test_lin_gauss_not_interventionally_equivalent(self):
        m, m_tilde = zoo.lin_gauss_anm(), zoo.lin_gauss_anm_tilde()
        rep = interventionally_equivalent(m, m_tilde, ["X1", "X2"])
        assert not rep.verdict
        assert rep.witness["intervention_targets"]
        # intervening on X2 is a distinguishing witness: it moves X1 in one
        # model but not in the other
        split = observationally_equivalent(
            intervene(m, {"X2": 1.0}), intervene(m_tilde, {"X2": 1.0}), ["X1", "X2"]
        )
        assert not split.verdict

    def test_empty_do_special_case(self):
        m = zoo.interventional_equiv_m()
        assert interventionally_equivalent(m, intervene(m, {}), ["X1", "X2"]).verdict

    def test_product_noise_trio_interventionally_equivalent(self):
        m = zoo.interventional_equiv_m()
        m_tilde = zoo.interventional_equiv_tilde()
        m_hat = zoo.interventional_equiv_hat()
        margin = ["X1", "X2"]
        assert interventionally_equivalent(m, m_tilde, margin).verdict
        assert interventionally_equivalent(m, m_hat, margin).verdict
        assert interventionally_equivalent(m_tilde, m_hat, margin).verdict

    def test_different_augmented_graphs_yet_equivalent(self):
        from scmkit import augmented_graph

        m = zoo.interventional_equiv_m()
        m_tilde = zoo.interventional_equiv_tilde()
        assert augmented_graph(m) != augmented_graph(m_tilde)
        assert interventionally_equivalent(m, m_tilde, ["X1", "X2"]).verdict

    def test_square_root_pair_equivalent_wrt_x1_only(self):
        m = zoo.intervention_unique()
        m_tilde = zoo.interventional_equivalence_tilde()
        assert observationally_equivalent(m, m_tilde, ["X1", "X2"]).verdict
        assert interventionally_equivalent(m, m_tilde, ["X1"]).verdict
        rep = interventionally_equivalent(m, m_tilde, ["X1", "X2"])
        assert not rep.verdict
        assert rep.witness["intervention"] == {"X2": 2}

    def test_evaluation_cap(self):
        m = zoo.interventional_equiv_m()
        with pytest.raises(ScmError):
            interventionally_equivalent(m, m.replace(), ["X1", "X2"], max_evaluations=3)

    def test_cap_is_checked_before_the_first_intervention(self):
        # 2 * 720**2 evaluations of the twin model against a cap of 10**5
        env = dict(os.environ, PYTHONPATH=str(Path(scmkit.__file__).parents[1]))
        path = str(CORPUS / "ex_augmented.scm")
        proc = subprocess.run([sys.executable, "-m", "scmkit.cli", "equiv", path, path, "--level", "cf"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "max_evaluations=100000" in proc.stderr
        assert str(2 * 720**2) in proc.stderr


class TestCounterfactualEquivalence:
    def test_model_equivalent_to_itself(self):
        m = zoo.interventional_equiv_m()
        assert counterfactually_equivalent(m, m.replace(), ["X1", "X2"]).verdict

    def test_trio_counterfactual_structure(self):
        m = zoo.interventional_equiv_m()
        m_tilde = zoo.interventional_equiv_tilde()
        m_hat = zoo.interventional_equiv_hat()
        margin = ["X1", "X2"]
        assert counterfactually_equivalent(m_tilde, m_hat, margin).verdict
        assert not counterfactually_equivalent(m, m_tilde, margin).verdict
        assert not counterfactually_equivalent(m, m_hat, margin).verdict

    def test_ladder_on_constructed_pairs(self):
        # equivalent pairs (model vs canonicalized model) walk down the ladder
        rng = random.Random(59)
        checked = 0
        for _ in range(10):
            m = zoo.random_finite_scm(rng, max_endo=2, max_exo=2, max_card=2, self_arg_p=0.2)
            cm = canonicalize(m)
            margin = list(m.endogenous_names)
            cf = counterfactually_equivalent(m, cm, margin)
            assert cf.verdict
            assert interventionally_equivalent(m, cm, margin).verdict
            assert observationally_equivalent(m, cm, margin).verdict
            checked += 1
        assert checked == 10

    def test_cf_implies_int_on_trio(self):
        m_tilde = zoo.interventional_equiv_tilde()
        m_hat = zoo.interventional_equiv_hat()
        assert counterfactually_equivalent(m_tilde, m_hat, ["X1", "X2"]).verdict
        assert interventionally_equivalent(m_tilde, m_hat, ["X1", "X2"]).verdict

    def test_equivalences_inherit_to_subsets(self):
        m = zoo.interventional_equiv_m()
        m_tilde = zoo.interventional_equiv_tilde()
        m_hat = zoo.interventional_equiv_hat()
        for margin in (["X1"], ["X2"]):
            assert observationally_equivalent(m, m_tilde, margin).verdict
            assert interventionally_equivalent(m, m_tilde, margin).verdict
            assert counterfactually_equivalent(m_tilde, m_hat, margin).verdict


class TestDirectCause:
    def test_constant_target_has_no_causes(self):
        m = zoo.chain_substitution()
        verdict, _ = is_direct_cause(m, "X2", "X1")
        assert not verdict

    def test_symmetric_noise_hides_the_edge(self):
        m = zoo.direct_cause_example(F(1, 2))
        verdict, _ = is_direct_cause(m, "X1", "X2")
        assert not verdict
        assert ("X1", "X2") in functional_graph(m).directed

    def test_biased_noise_reveals_the_edge(self):
        m = zoo.direct_cause_example(F(2, 3))
        verdict, witness = is_direct_cause(m, "X1", "X2")
        assert verdict
        assert witness[0]["X1"] != witness[1]["X1"]

    def test_requires_no_self_loops(self):
        _, m_tilde = zoo.nonunique_selfloop_pair()
        with pytest.raises(ScmError):
            is_direct_cause(m_tilde, "X1", "X2")

    def test_linear_direct_cause(self):
        m = zoo.lin_gauss_anm()
        assert is_direct_cause(m, "X1", "X2")[0]
        assert is_direct_cause(m, "X2", "X1")[0]
        m_tilde = zoo.lin_gauss_anm_tilde()
        assert is_direct_cause(m_tilde, "X1", "X2")[0]
        assert not is_direct_cause(m_tilde, "X2", "X1")[0]

    def test_matches_the_full_context_oracle(self):
        models = [parse(path.read_text()) for path in sorted(CORPUS.glob("*.scm"))]
        models = [m for m in models if isinstance(m, scmkit.FiniteScm) and structurally_uniquely_solvable(m)]
        corpus_count = len(models)
        rng = random.Random(83)
        while len(models) < corpus_count + 60:
            m = zoo.random_finite_scm(rng, max_endo=5, max_card=3, self_arg_p=0.0)
            if structurally_uniquely_solvable(m):
                models.append(m)
        verdicts = Counter()
        for m in models:
            for i in m.endogenous_names:
                for j in m.endogenous_names:
                    if i == j:
                        continue
                    got = is_direct_cause(m, i, j)
                    assert got == zoo.exhaustive_direct_cause(m, i, j), (m, i, j)
                    if got[0]:
                        # a witness whose context moves a variable off its
                        # first value, or holds one that j does not read
                        ctx = {v: x for v, x in got[1][0].items() if v != i}
                        moved = any(x != m.endogenous[v].first() for v, x in ctx.items())
                        unread = set(ctx) - set(m.mechanisms[j].args)
                        verdicts["moved"] += moved
                        verdicts["unread"] += bool(unread)
                    verdicts[got[0]] += 1
        assert corpus_count >= 10
        assert verdicts[True] > 30 and verdicts[False] > 30, verdicts
        assert verdicts["moved"] and verdicts["unread"], verdicts


class TestDirectCausalGraph:
    def test_chain_example(self):
        m = zoo.chain_substitution()
        g = direct_causal_graph(m)
        assert g == MixedGraph(["X1", "X2", "X3"], [("X1", "X2"), ("X2", "X3")])

    def test_all_constant_model(self):
        import model_zoo

        dom = model_zoo.fd(0, 1)
        endo = {"X1": dom, "X2": dom}
        m = model_zoo.no_noise(endo, {
            "X1": model_zoo.tab(endo, (), lambda: 0),
            "X2": model_zoo.tab(endo, (), lambda: 1),
        })
        assert direct_causal_graph(m).directed == frozenset()

    def test_interventionally_equivalent_pairs_same_graph(self):
        m_tilde = zoo.interventional_equiv_tilde()
        m_hat = zoo.interventional_equiv_hat()
        assert direct_causal_graph(m_tilde) == direct_causal_graph(m_hat)

    def test_subgraph_of_functional_graph(self):
        m = zoo.direct_cause_example(F(1, 2))
        g = direct_causal_graph(m)
        assert g.directed <= functional_graph(m).directed
        assert g.directed == frozenset()  # the symmetric edge vanished

    def test_linear_causal_graph(self):
        g = direct_causal_graph(zoo.lin_gauss_anm())
        assert g.directed == {("X1", "X2"), ("X2", "X1")}


class TestContextCausalGraph:
    def test_context_graph_of_chain(self):
        m = zoo.chain_substitution()
        g = direct_causal_graph_wrt(m, ["X1", "X3"])
        assert g == MixedGraph(["X1", "X3"], [("X1", "X3")])

    def test_full_context_recovers_plain_graph(self):
        m = zoo.chain_substitution()
        assert direct_causal_graph_wrt(m, m.endogenous_names) == direct_causal_graph(m)

    def test_spurious_relation_appears_in_context_graph(self):
        m = zoo.spurious_relations()
        full = direct_causal_graph(m)
        assert ("X3", "X4") not in full.directed
        assert "X4" not in full.ancestors_of(["X3"])  # X3 not reachable from X4
        assert "X3" not in full.ancestors_of(["X4"])  # and X3 is no ancestor of X4
        ctx = direct_causal_graph_wrt(m, ["X3", "X4"])
        assert ctx.directed == {("X3", "X4")}

    def test_indirect_cause_chain(self):
        m = zoo.chain_substitution()
        assert is_indirect_cause(m, "X1", "X3")
        assert not is_indirect_cause(m, "X3", "X1")

    def test_independent_variables_no_indirect_cause(self):
        import model_zoo

        dom = model_zoo.fd(0, 1)
        endo = {"X1": dom, "X2": dom}
        exo = {"E1": dom, "E2": dom}
        measure = {"E1": zoo.uniform(0, 1), "E2": zoo.uniform(0, 1)}
        domains = {**endo, **exo}
        m = model_zoo.FiniteScm(endo, exo, measure, {
            "X1": model_zoo.tab(domains, ("E1",), lambda E1: E1),
            "X2": model_zoo.tab(domains, ("E2",), lambda E2: E2),
        })
        assert not is_indirect_cause(m, "X1", "X2")

    def test_marginalization_breaks_causal_latent_projection(self):
        from scmkit import latent_projection, marginalize

        m = zoo.causal_graph_marginalization()
        full = direct_causal_graph(m)
        assert full.directed == {("X2", "X3")}
        marg_graph = direct_causal_graph(marginalize(m, ["X2"]))
        projected = latent_projection(full, ["X2"])
        assert ("X1", "X3") in marg_graph.directed
        assert ("X1", "X3") not in projected.directed
        assert is_indirect_cause(m, "X1", "X3")

    def test_precondition_failures_report_cause(self):
        m = zoo.unique_ancestral()
        with pytest.raises(ScmError, match="not uniquely solvable"):
            direct_causal_graph_wrt(m, ["X1", "X3"])
