import itertools
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
    NotSolvable,
    ScmError,
    SolvabilityError,
    TabularMechanism,
    UnknownNameError,
    UnsupportedModelError,
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
    observational_polytope,
    observationally_equivalent,
    parse,
    solvable_wrt,
    structurally_uniquely_solvable,
    uniquely_solvable_wrt,
)
from scmkit.causal import _gamma_law

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


# --- the selector-hull oracle: an integer simplex over the selector laws -----

def lp_feasible(rows, rhs) -> bool:
    """Exact feasibility of ``rows @ x = rhs, x >= 0`` (entries ``int`` or
    ``Fraction``): is the artificial sum 0 at the phase-1 optimum?"""
    return phase1(rows, rhs)[1][-1] == 0


def phase1(rows, rhs):
    """Phase-1 simplex with Bland's rule for ``rows @ x = rhs, x >= 0``,
    pivoting fraction-free on integers; returns the final ``(tableau, obj,
    basis, det)``.

    Each row of ``rows | rhs`` is scaled to integers by the lcm of its
    denominators, its sign making the right-hand side non-negative; its
    artificial column stays 1, since scaling a row only rescales its
    artificial variable.  Every tableau and objective entry is then an
    ``int`` over ``det``, the determinant of the current basis.  A pivot on
    ``p`` maps each other row's entry ``a`` to ``(a*p - f*b) // det``, which
    divides exactly (Bareiss), and sets ``det = p > 0``; so reduced costs have
    the signs of their integers and ratios compare by cross-multiplication.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    total = ncols + nrows
    tableau = []
    for r in range(nrows):
        vals = [*rows[r], rhs[r]]
        scale = math.lcm(*(x.denominator for x in vals))
        if vals[-1] < 0:
            scale = -scale
        ints = [x.numerator * (scale // x.denominator) for x in vals]
        art = [0] * nrows
        art[r] = 1
        tableau.append(ints[:-1] + art + ints[-1:])
    # reduced costs for minimizing the artificial sum: 1 on the artificial
    # columns minus the sum of the rows, which cancels there
    obj = [-sum(col) for col in zip(*tableau)] if tableau else [0]
    obj[ncols:total] = [0] * nrows
    basis = list(range(ncols, total))
    det = 1
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        r = None
        for i, row in enumerate(tableau):
            c = row[enter]
            if c > 0 and (r is None or row[-1] * pc < pb * c
                          or (row[-1] * pc == pb * c and basis[i] < basis[r])):
                r, pb, pc = i, row[-1], c
        if r is None:  # pragma: no cover - phase-1 objective is bounded
            raise AssertionError("unbounded phase-1 simplex")
        prow = tableau[r]
        for i, row in enumerate(tableau):
            if i != r:
                f = row[enter]
                tableau[i] = [(a * pc - f * b) // det for a, b in zip(row, prow)]
        f = obj[enter]
        obj = [(a * pc - f * b) // det for a, b in zip(obj, prow)]
        det = pc
        basis[r] = enter
    return tableau, obj, basis, det


def hull_rows(vertices, target, cells):
    """The LP ``target`` in the convex hull of ``vertices``, distributions
    over the shared cell list: ``(rows, rhs)``."""
    rows = [[v.probs.get(cell, 0) for v in vertices] for cell in cells] + [[1] * len(vertices)]
    return rows, [target.probs.get(cell, 0) for cell in cells] + [1]


def hull_contains(vertices, target, cells) -> bool:
    return bool(vertices) and lp_feasible(*hull_rows(vertices, target, cells))


def hull_cells(*sides):
    return sorted({c for vs in sides for v in vs for c in v.probs}, key=lambda cell: tuple(map(str, cell)))


def first_outside(vs1, vs2):
    """``None`` when the two vertex tuples span the same hull; otherwise
    ``(side, vertex)`` for the first vertex, left side first, outside the
    other side's hull.  A vertex the other side also lists needs no LP."""
    cells = hull_cells(vs1, vs2)
    for side, vs, other in (("left", vs1, vs2), ("right", vs2, vs1)):
        shared = set(other)
        for v in vs:
            if v not in shared and not hull_contains(other, v, cells):
                return side, v
    return None


def achievable_marginals(m, margin, max_selectors=10**6):
    """The selector laws of the oracle projected to the margin, whose hull is
    the achievable set there; ``()`` when the model has no solution at all."""
    try:
        laws = zoo.exhaustive_selector_laws(m, max_selectors)
    except NotSolvable:
        return ()
    return tuple(dict.fromkeys(v.marginal(margin) for v in laws))


def hull_verdict(vs1, vs2) -> bool:
    """Are the achievable sets with these vertex tuples equal?"""
    if not vs1 or not vs2:
        return bool(vs1) == bool(vs2)
    return first_outside(vs1, vs2) is None


def assert_event_witness(rep, vs1, vs2, domains):
    """Check a Γ-law witness against the vertex oracle: ``bel`` on each side
    is the least probability of the event over that side's vertices; the
    event comes first, by size and then domain order, among the events whose
    least probabilities differ; and ``outside.law`` is a vertex of its side
    that reaches its belief and lies outside the other side's hull."""
    cells = hull_cells(vs1, vs2)
    rank = [{x: r for r, x in enumerate(domains[v].values)} for v in rep.margin]
    cells.sort(key=lambda c: tuple(r[x] for r, x in zip(rank, c)))
    text = {",".join(map(str, c)): c for c in cells}
    event = tuple(text[c] for c in rep.witness["event"])

    def bel(vs, event):
        return min(sum(v.probs.get(c, 0) for c in event) for v in vs)

    assert rep.witness["bel"] == {"left": str(bel(vs1, event)), "right": str(bel(vs2, event))}
    # an event's belief is that of its part on these cells, so no other
    # event can come first
    first = next(t for size in range(1, len(event) + 1) for t in itertools.combinations(cells, size)
                 if bel(vs1, t) != bel(vs2, t))
    assert first == event
    side = rep.witness["outside"]["side"]
    own, other = (vs1, vs2) if side == "left" else (vs2, vs1)
    (law,) = [v for v in own if v.to_json_obj() == rep.witness["outside"]["law"]]
    assert sum(law.probs.get(c, 0) for c in event) == bel(own, event) < bel(other, event)
    assert not fraction_lp_feasible(*hull_rows(other, law, cells))


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


class TestObservationalEquivalence:
    def test_model_equivalent_to_itself(self):
        m = zoo.interventional_equiv_m()
        assert observationally_equivalent(m, m.replace(), ["X1", "X2"])

    def test_lin_gauss_pair(self):
        rep = observationally_equivalent(zoo.lin_gauss_anm(), zoo.lin_gauss_anm_tilde(), ["X1", "X2"])
        assert rep.verdict and rep.rule == "linear_per_variable"

    def test_two_unsolvable_models_vacuously_equivalent(self):
        m = zoo.unsolvable_selfloop()
        left = intervene(m, {"X2": 1})
        right = intervene(m.replace(), {"X2": 1})
        rep = observationally_equivalent(left, right, ["X1", "X2"])
        assert rep.verdict and rep.rule == "no_solution"
        assert rep.to_json_obj()["rule"] == "no_solution"

    def test_empty_vs_nonempty_solution_sets_differ(self):
        m = zoo.intervention_unique()
        m_tilde = zoo.interventional_equivalence_tilde()
        rep = observationally_equivalent(
            intervene(m, {"X2": 2}), intervene(m_tilde, {"X2": 2}), ["X1", "X2"]
        )
        assert not rep.verdict and rep.rule == "no_solution"
        assert rep.witness["right"] == "no solution"

    def test_unique_laws_are_compared_directly(self):
        # uniquely solvable on both sides: one law each, and the witness is
        # the pair of laws, not two vertex lists
        m, other = zoo.direct_cause_example(), zoo.direct_cause_example(F(1, 3))
        rep = observationally_equivalent(m, other, m.endogenous_names)
        assert not rep.verdict and rep.rule == "single_law"
        assert rep.witness["left"]["vars"] == list(m.endogenous_names)
        assert rep.witness["left"]["probs"] != rep.witness["right"]["probs"]

    def test_polytope_hull_comparison(self):
        # a fair mixture over two fixed points is reachable from either side
        m = zoo.intervention_unique()
        mi = intervene(m, {"X2": 2})
        rep = observationally_equivalent(mi, intervene(m.replace(), {"X2": 2}), ["X1"])
        assert rep.verdict and rep.rule == "gamma_law"
        # an interventional verdict names the most general rule it needed
        assert interventionally_equivalent(mi, mi.replace(), ["X1"]).rule == "gamma_law"

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
            assert not rep.verdict and rep.rule == "gamma_law"
            # the smaller gate leaves less to choose: the least P(X = 0) is
            # 1/6 at q = 1/2, and (1 - q)/3 otherwise
            assert rep.witness["event"] == ["0"]
            assert rep.witness["bel"] == {"left": "1/6", "right": str((1 - q) / 3)}
            assert rep.witness["outside"]["side"] == ("left" if q < F(1, 2) else "right")
            assert_event_witness(rep, achievable_marginals(base, ("X",)), achievable_marginals(other, ("X",)),
                                 base.endogenous)

    def test_a_ladder_of_six_pairs_is_interventionally_equivalent_to_its_copy(self):
        # 6**6 noise points in each of 6 laws per model; the pass carries at
        # most 4 states of (A_i, B_i) from one pair to the next
        m = zoo.ladder_scm(6)
        rep = interventionally_equivalent(m, m.replace(), ["B6"])
        assert rep.verdict and rep.rule == "single_law"

    def test_a_ladder_of_twenty_pairs_is_observationally_equivalent_to_its_copy(self):
        # 6**20 noise points, which no per-point walk reaches
        m = zoo.ladder_scm(20)
        rep = observationally_equivalent(m, m.replace(), ["B20"])
        assert rep.verdict and rep.rule == "single_law"

    def test_selector_overflow_pair_gets_a_verdict(self):
        # 3**16 selectors: the selector enumeration gives up, while the law of
        # the projected fiber set needs one pass over 16 support points and
        # its core has 223 vertices
        base, other = zoo.two_gated_selfloops(), zoo.two_gated_selfloops(q=F(3, 8))
        with pytest.raises(ScmError, match="overflow"):
            zoo.exhaustive_selector_laws(base)
        assert len(observational_polytope(base).vertices) == 223
        assert observationally_equivalent(base, other, ["X1"]).verdict
        rep = observationally_equivalent(base, other, ["X1", "X2"])
        assert not rep.verdict and rep.rule == "gamma_law"
        assert rep.witness["event"] == ["0,0"]
        assert rep.witness["bel"] == {"left": "1/36", "right": "5/144"}

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
            verdict = lp_feasible(rows, rhs)
            assert verdict == fraction_lp_feasible(rows, rhs), (rows, rhs)
            # on the scaled problem both kernels take the same pivots, and
            # the integer tableau is the rational one times det
            tableau, obj, basis, det = phase1(rows, rhs)
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
            vs = achievable_marginals(zoo.gated_selfloop(k, noise), ("X",))
            for q in (F(3, 8), F(5, 8)):
                ws = achievable_marginals(zoo.gated_selfloop(k, noise, q), ("X",))
                cells = hull_cells(vs, ws)
                for own, other in ((vs, ws), (ws, vs)):
                    for v in own:
                        assert hull_contains(own, v, cells)
                        assert hull_contains(other, v, cells) == fraction_lp_feasible(*hull_rows(other, v, cells))
                # the smaller gate's polytope lies inside the larger one's
                small, large = (ws, vs) if q < F(1, 2) else (vs, ws)
                assert all(hull_contains(large, v, cells) for v in small)
                side, law = first_outside(vs, ws)
                assert law in (vs if side == "left" else ws)
                assert not hull_contains(small, law, cells)
            assert first_outside(vs, vs) is None


def finite_corpus():
    models = {path.name: parse(path.read_text()) for path in sorted(CORPUS.glob("*.scm"))}
    return {name: m for name, m in models.items() if isinstance(m, scmkit.FiniteScm)}


def checked_against_hull(m1, m2, margin, max_selectors=10**6):
    """The report on the pair, after checking its verdict against the selector
    hull and, for a Γ-law difference, its witness against the vertices."""
    rep = observationally_equivalent(m1, m2, margin)
    vs1 = achievable_marginals(m1, rep.margin, max_selectors)
    vs2 = achievable_marginals(m2, rep.margin, max_selectors)
    assert rep.verdict == hull_verdict(vs1, vs2), (m1, m2, margin)
    if not rep.verdict and rep.rule == "gamma_law":
        assert_event_witness(rep, vs1, vs2, m1.endogenous)
    return rep


def one_entry_changed(rng, m):
    """``m`` with one table entry of one loop variable set to a random value
    of its domain, which may be the value it had."""
    v = rng.choice([v for v in m.endogenous_names if v != "Z"])
    mech = m.mechanisms[v]
    table = dict(mech.table)
    table[rng.choice(sorted(table))] = rng.choice(m.endogenous[v].values)
    return m.replace(mechanisms={**m.mechanisms, v: TabularMechanism(mech.args, table)})


class TestGammaLaw:
    """The law of the projected fiber set decides as the selector hull does."""

    def test_gated_selfloop_pairs_match_the_hull(self):
        noises = ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)), (F(1, 6), F(1, 3), F(1, 2)))
        seen = Counter()
        for k in (2, 3, 4):
            models = [zoo.gated_selfloop(k, noise, q) for noise in noises if len(noise) <= k
                      for q in (F(1, 2), F(3, 8), F(5, 8))]
            for i, m1 in enumerate(models):
                for m2 in models[i:]:
                    seen[checked_against_hull(m1, m2, ["X"]).verdict] += 1
        assert seen[True] >= 24 and seen[False] >= 80, seen

    def test_corpus_pairs_match_the_hull(self):
        models = list(finite_corpus().values())
        seen = Counter()
        for i, m1 in enumerate(models):
            for m2 in models[i:]:
                margin = [v for v in m1.endogenous_names if m2.endogenous.get(v) == m1.endogenous[v]]
                if margin:
                    rep = checked_against_hull(m1, m2, margin)
                    seen[rep.verdict, rep.rule] += 1
        assert seen[True, "gamma_law"] and seen[False, "gamma_law"] and seen[False, "single_law"], seen

    def test_random_component_pairs_match_the_hull(self):
        # pairs that differ in one table entry, each side solvable and one
        # not uniquely solvable; a pair past 2000 selectors is left out, as
        # its vertex enumeration would dominate the suite
        rng = random.Random(97)
        seen = Counter()
        while seen["pairs"] < 1000:
            m1 = zoo.random_component_scm(rng, rng.randint(1, 3))
            m2 = one_entry_changed(rng, m1)
            names = m1.endogenous_names
            if (not (solvable_wrt(m1, names) and solvable_wrt(m2, names))
                    or uniquely_solvable_wrt(m1, names) and uniquely_solvable_wrt(m2, names)):
                continue
            margin = rng.sample(names, rng.randint(1, len(names)))
            try:
                rep = checked_against_hull(m1, m2, margin, max_selectors=2000)
            except ScmError:
                seen["overflow"] += 1
                continue
            seen["pairs"] += 1
            seen[rep.verdict, rep.rule] += 1
        assert seen["overflow"] < 10, seen
        assert seen[True, "gamma_law"] > 300 and seen[False, "gamma_law"] > 100, seen
        assert seen[True, "single_law"] and seen[False, "single_law"], seen

    def test_do_law_of_the_model_is_the_law_of_the_intervened_model(self):
        rng = random.Random(101)
        models = list(finite_corpus().values())
        models += [zoo.random_finite_scm(rng, max_endo=3, self_arg_p=0.4) for _ in range(30)]
        models += [zoo.random_component_scm(rng, rng.randint(1, 3)) for _ in range(30)]
        seen = Counter()
        for m in models:
            names = m.endogenous_names
            for size in range(len(names) + 1):
                for targets in itertools.combinations(names, size):
                    for values in itertools.product(*(m.endogenous[t].values for t in targets)):
                        iv = dict(zip(targets, values))
                        law = _gamma_law(m, names, iv)
                        assert law == _gamma_law(intervene(m, iv), names, {}), (m, iv)
                        seen[law is None] += 1
        assert seen[True] > 100 and seen[False] > 1000, seen

    def test_an_unread_noise_changes_no_law_and_no_verdict(self):
        def law_or_error(m, iv):
            try:
                return observational_distribution(intervene(m, iv))
            except SolvabilityError as exc:
                return type(exc), exc.witness

        models = finite_corpus()
        for m in models.values():
            u = zoo.with_unread_noise(m)
            ivs = [{}] + [{t: x} for t in m.endogenous_names for x in m.endogenous[t].values]
            for iv in ivs:
                assert law_or_error(u, iv) == law_or_error(m, iv), (m, iv)
        seen = Counter()
        names = list(models)
        for i, n1 in enumerate(names):
            for n2 in names[i:]:
                m1, m2 = models[n1], models[n2]
                margin = [v for v in m1.endogenous_names if m2.endogenous.get(v) == m1.endogenous[v]]
                if not margin:
                    continue
                # the cf margin stays within the evaluation cap
                for fn, wrt in ((observationally_equivalent, margin),
                                (interventionally_equivalent, margin),
                                (counterfactually_equivalent, margin[:2])):
                    rep = fn(m1, m2, wrt).to_json_obj()
                    assert fn(zoo.with_unread_noise(m1), m2, wrt).to_json_obj() == rep, (n1, n2)
                    seen[rep["level"], rep["verdict"]] += 1
        assert all(seen[level, verdict] for level in ("observational", "interventional", "counterfactual")
                   for verdict in (True, False)), seen


class TestPolytopeVertices:
    """The vertices of ``observational_polytope``, the marginal vectors of the
    Γ-law's core, against the selector laws of ``zoo.exhaustive_selector_laws``."""

    @staticmethod
    def check(m, max_selectors=2000):
        """``None`` if the oracle overflows; otherwise the numbers of oracle
        laws and of vertices, after checking that the vertices are oracle
        laws, that they span every oracle law and that none lies in the hull
        of the others.  An unsolvable model raises on both sides: ``(0, 0)``."""
        try:
            laws = zoo.exhaustive_selector_laws(m, max_selectors)
        except NotSolvable:
            with pytest.raises(NotSolvable):
                observational_polytope(m)
            return 0, 0
        except ScmError:
            return None
        vertices = observational_polytope(m).vertices
        assert set(vertices) <= set(laws), m
        cells = hull_cells(vertices, laws)
        assert all(law in vertices or hull_contains(vertices, law, cells) for law in laws), m
        for i, v in enumerate(vertices):
            assert not hull_contains(vertices[:i] + vertices[i + 1:], v, cells), (m, v)
        return len(laws), len(vertices)

    @staticmethod
    def tally(counts):
        seen = Counter()
        for c in counts:
            seen["overflow" if c is None else "unsolvable" if c == (0, 0)
                 else "interior" if c[0] > c[1] else "several" if c[1] > 1 else "one"] += 1
        return seen

    def test_corpus_vertices_are_the_extreme_selector_laws(self):
        seen = self.tally(self.check(m) for m in finite_corpus().values())
        assert not seen["overflow"] and seen["several"] >= 2 and seen["one"] >= 10, seen

    def test_random_vertices_are_the_extreme_selector_laws(self):
        rng = random.Random(113)
        models = [zoo.random_finite_scm(rng, self_arg_p=0.4) for _ in range(250)]
        models += [zoo.random_component_scm(rng, rng.randint(1, 3)) for _ in range(150)]
        seen = self.tally(self.check(m) for m in models)
        assert seen["one"] + seen["several"] + seen["interior"] >= 200, seen
        assert seen["interior"] >= 20 and seen["several"] >= 40 and seen["overflow"] < 10, seen


class TestInterventionalEquivalence:
    def test_lin_gauss_not_interventionally_equivalent(self):
        m, m_tilde = zoo.lin_gauss_anm(), zoo.lin_gauss_anm_tilde()
        rep = interventionally_equivalent(m, m_tilde, ["X1", "X2"])
        assert not rep.verdict
        assert rep.witness["intervention"] == ["X1"]
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
        assert interventionally_equivalent(m, m_tilde, margin).rule == "single_law"
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
        # do(X2 = 2) leaves one model without a solution
        assert rep.witness["intervention"] == {"X2": 2}
        assert rep.rule == "no_solution"

    def test_evaluation_cap(self):
        m = zoo.interventional_equiv_m()
        with pytest.raises(ScmError):
            interventionally_equivalent(m, m.replace(), ["X1", "X2"], max_evaluations=3)
        # a linear pair: 2 * 2**2 evaluations on {X1, X2}, 2 * 4**2 on its doubled cf margin
        m = zoo.lin_gauss_anm()
        assert interventionally_equivalent(m, m.replace(), ["X1", "X2"], max_evaluations=8).verdict
        with pytest.raises(ScmError, match=r"needs 8 evaluations, over the cap max_evaluations=7"):
            interventionally_equivalent(m, m.replace(), ["X1", "X2"], max_evaluations=7)
        with pytest.raises(ScmError, match=r"needs 32 evaluations, over the cap max_evaluations=31"):
            counterfactually_equivalent(m, m.replace(), ["X1", "X2"], max_evaluations=31)

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


LEVELS = (observationally_equivalent, interventionally_equivalent, counterfactually_equivalent)


class TestLinearEquivalenceChain:
    """The linear family on the one chain: each level is the per-intervention
    check run by one loop, and its verdicts and no-solution witnesses match
    those of the finite analogs."""

    def test_a_singular_part_the_margin_does_not_read_changes_no_verdict(self):
        for level in LEVELS:
            rep = level(zoo.x1_beside("X2"), zoo.x1_beside("E2"), ["X1"])
            assert rep.verdict and rep.rule == "linear_per_variable", rep
            assert level(zoo.finite_x1_beside("X2"), zoo.finite_x1_beside("0"), ["X1"]).verdict

    def test_a_side_without_solution_differs_as_a_finite_one_does(self):
        for level in LEVELS:
            rep = level(zoo.x1_beside("X2 + 1"), zoo.x1_beside("E2"), ["X1"])
            finite = level(zoo.finite_x1_beside("1 - X2"), zoo.finite_x1_beside("0"), ["X1"])
            assert not rep.verdict and rep.rule == finite.rule == "no_solution"
            words = rep.witness if level is observationally_equivalent else rep.witness["observational"]
            assert words == {"left": "no solution", "right": "solvable"}
            assert finite.to_json_obj()["witness"] == (
                words if level is observationally_equivalent else {"intervention": {}, "observational": words})

    def test_one_singular_side_differs_and_two_are_not_compared(self):
        singular, unique = zoo.x1_beside("X2"), zoo.x1_beside("E2")
        for level in LEVELS:
            rep = level(singular, unique, ["X1", "X2"])
            assert not rep.verdict and rep.rule == "linear_per_variable"
            words = rep.witness if level is observationally_equivalent else rep.witness["observational"]
            assert words == {"left": "singular", "right": "unique"}
            with pytest.raises(UnsupportedModelError):
                level(singular, singular.replace(), ["X1", "X2"])

    def test_gains_alone_are_a_witness(self):
        m1, m2 = zoo.gain_only_pair()
        assert observationally_equivalent(m1, m2, ["X1", "X2"]).verdict
        rep = interventionally_equivalent(m1, m2, ["X1", "X2"])
        assert not rep.verdict and rep.witness["intervention"] == ["X1"]
        obs = rep.witness["observational"]
        assert obs["left"] == obs["right"] and obs["gains"] == {"left": [[1.0]], "right": [[-1.0]]}

    def test_linear_counterfactual_equivalence(self):
        models = {p.stem: parse(p.read_text()) for p in sorted(CORPUS.glob("*.scm"))}
        linear = {name: m for name, m in models.items() if isinstance(m, LinearScm)}
        assert len(linear) >= 8
        # the twin of ex_treatment_twin would declare its X2' twice
        twin_collision = linear.pop("ex_treatment_twin")
        with pytest.raises(ScmError, match="twin naming collision"):
            counterfactually_equivalent(twin_collision, twin_collision, twin_collision.endogenous_names)
        # under do(X3) neither copy of ex_interventions has a solution: two
        # empty sets of laws, equal as for finite models
        flip_flop = linear["ex_interventions"]
        assert not solvable_wrt(intervene(flip_flop, {"X3": 0.0}), flip_flop.endogenous_names)
        for name, m in linear.items():
            names = m.endogenous_names
            assert counterfactually_equivalent(m, m.replace(), names).verdict, name
            assert counterfactually_equivalent(m, canonicalize(m), names).verdict, name
        m, m_tilde = linear["ex_lingauss"], linear["ex_lingauss_tilde"]
        assert observationally_equivalent(m, m_tilde, ["X1", "X2"]).verdict
        rep = counterfactually_equivalent(m, m_tilde, ["X1", "X2"])
        assert not rep.verdict and rep.witness["intervention"] == ["X1"]


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
            laws = {}
            for i in m.endogenous_names:
                for j in m.endogenous_names:
                    if i == j:
                        continue
                    got = is_direct_cause(m, i, j)
                    assert got == zoo.exhaustive_direct_cause(m, i, j, laws), (m, i, j)
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
        assert direct_causal_graph(zoo.direct_cause_example(F(1, 2))).directed == frozenset()  # the symmetric edge vanished
        models = [parse(path.read_text()) for path in sorted(CORPUS.glob("*.scm"))]
        rng = random.Random(89)
        models += [zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.2) for _ in range(60)]
        models = [m for m in models if structurally_uniquely_solvable(m)]
        dropped = 0
        for m in models:
            g, fg = direct_causal_graph(m), functional_graph(m)
            assert g.directed <= fg.directed, m
            dropped += len(fg.directed - g.directed)
        assert len(models) > 40 and dropped, (len(models), dropped)

    def test_a_variable_is_no_cause_of_itself(self):
        m = zoo.chain_substitution()
        for check in (is_direct_cause, is_indirect_cause):
            with pytest.raises(ScmError, match="distinct variables"):
                check(m, "X1", "X1")

    def test_linear_causal_graph(self):
        g = direct_causal_graph(zoo.lin_gauss_anm())
        assert g.directed == {("X1", "X2"), ("X2", "X1")}


    def test_premise_is_checked_once_per_model(self, monkeypatch):
        from scmkit import analysis

        calls = Counter()
        scan = analysis.uniquely_solvable_wrt

        def counted(m, subset):
            calls["scan"] += 1
            return scan(m, subset)

        monkeypatch.setattr(analysis, "uniquely_solvable_wrt", counted)
        m = zoo.ternary_ring_scm(6)
        assert len(direct_causal_graph(m).directed) == 6
        assert calls["scan"] <= len(m.endogenous_names), calls


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

    def test_unknown_context_names_raise(self):
        m = zoo.chain_substitution()
        with pytest.raises(UnknownNameError, match="Nope"):
            direct_causal_graph_wrt(m, ["X1", "Nope"])
        with pytest.raises(UnknownNameError, match="Nope"):
            is_indirect_cause(m, "X1", "Nope")

    def test_precondition_failures_report_cause(self):
        m = zoo.unique_ancestral()
        with pytest.raises(ScmError, match="not uniquely solvable"):
            direct_causal_graph_wrt(m, ["X1", "X3"])
