import copy
import itertools
import math
import pickle
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import model_zoo as zoo
from scmkit import (
    DiscreteDistribution,
    EvidenceError,
    FiniteDomain,
    FiniteScm,
    GaussianBlock,
    GaussianDistribution,
    LinearScm,
    NotSolvable,
    NotUniquelySolvable,
    ScmError,
    SolvabilityError,
    TabularMechanism,
    UnknownNameError,
    augmented_graph,
    canonicalize,
    counterfactual_distribution,
    counterfactually_equivalent,
    fiber,
    functional_graph,
    gaussian_condition,
    intervene,
    interventional_distribution,
    interventionally_equivalent,
    marginalize,
    observational_distribution,
    observational_polytope,
    solvable_wrt,
    solve_map,
    structurally_uniquely_solvable,
    uniquely_solvable_all_subsets,
    uniquely_solvable_wrt,
)
from scmkit import analysis
from scmkit.analysis import _cutset, _fibers, _finite_scan, _gamma_law
from scmkit.dsl import parse

F = Fraction
CORPUS = Path(__file__).parent / "corpus"


class TestFiber:
    def test_identity_self_loop_not_singleton(self):
        dom = FiniteDomain((0, 1))
        m = FiniteScm(
            {"X1": dom, "X2": dom}, {}, {},
            {"X1": TabularMechanism.constant(0),
             "X2": TabularMechanism(("X2",), {(0,): 0, (1,): 1})},
        )
        assert fiber(m, ["X2"], {}, {"X1": 0}) == {(0,), (1,)}

    def test_copy_mechanism(self):
        m, _ = zoo.nonunique_selfloop_pair()
        assert fiber(m, ["X2"], {}, {"X1": 1}) == {(1,)}

    def test_negation_has_empty_fiber(self):
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X1": dom}, {}, {},
                      {"X1": TabularMechanism(("X1",), {(0,): 1, (1,): 0})})
        assert fiber(m, ["X1"], {}, {}) == frozenset()

    def test_fiber_rejects_bad_values(self):
        m, _ = zoo.nonunique_selfloop_pair()
        with pytest.raises(ScmError):
            fiber(m, ["X2"], {}, {"X1": 7})
        from scmkit import UnknownNameError

        with pytest.raises(UnknownNameError):
            fiber(m, ["Y"], {}, {})

    def test_scc_solver_matches_exhaustive_enumeration(self):
        rng = random.Random(7)
        for _ in range(40):
            m = zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.4)
            exo_assign = {j: m.exogenous[j].values[0] for j in m.exogenous_names}
            names = list(m.endogenous_names)
            subset = tuple(rng.sample(names, rng.randint(1, len(names))))
            ctx = {i: rng.choice(m.endogenous[i].values)
                   for i in names if i not in subset}
            assign = {**exo_assign, **ctx}
            subset_sorted = tuple(n for n in m.endogenous_names if n in subset)
            oracle = sorted(zoo.exhaustive_fiber(m, subset, assign))
            assert sorted(_fibers(m, subset_sorted, assign)) == oracle
            assert fiber(m, subset, exo_assign, ctx) == frozenset(oracle)


def first_failure_in_a_later_component() -> FiniteScm:
    """X = 1 - X if E2 = 1 else 0, then Y = 1 - Y if E1 = 0 else X: the pass
    meets its first empty fiber in X's stage, at E2 = 1, but the first in
    product order is E1 = 0, E2 = 0, where Y has none."""
    b = zoo.fd(0, 1)
    domains = {"X": b, "Y": b, "E1": b, "E2": b}
    mechanisms = {"X": zoo.postab(domains, ("X", "E2"), lambda x, e2: 1 - x if e2 == 1 else 0),
                  "Y": zoo.postab(domains, ("Y", "E1", "X"), lambda y, e1, x: 1 - y if e1 == 0 else x)}
    return FiniteScm({"X": b, "Y": b}, {"E1": b, "E2": b}, {"E1": zoo.uniform(0, 1), "E2": zoo.uniform(0, 1)},
                     mechanisms)


def identity_beside_ternary_noises(k: int) -> FiniteScm:
    """X1 = X1 beside k ternary noises, each read only by Yi = Ei: every
    fiber holds two solutions, which differ in X1 alone."""
    lines = ["model finite", "var X1 : {0, 1}"] + [f"var Y{i} : {{0, 1, 2}}" for i in range(1, k + 1)]
    lines += [f"noise E{i} : {{0, 1, 2}} ~ {{0: 1/6, 1: 1/3, 2: 1/2}}" for i in range(1, k + 1)]
    lines += ["eq X1 = X1"] + [f"eq Y{i} = E{i}" for i in range(1, k + 1)]
    return parse("\n".join(lines) + "\n")


def brute_force_solver(m, comp):
    """The exhaustive component solve, in the form of ``_component_solver``."""
    inputs = tuple(dict.fromkeys(a for o in comp for a in m.mechanisms[o].args if a not in comp))
    return inputs, lambda key: tuple(zoo.exhaustive_fiber(m, comp, dict(zip(inputs, key))))


def is_feedback_set(m, comp, cut) -> bool:
    """Does removing ``cut`` leave the declared dependency graph on ``comp``
    acyclic, self-loops included?  Depth-first search for a back edge."""
    left = [o for o in comp if o not in cut]
    preds = {o: [a for a in m.mechanisms[o].args if a in left] for o in left}
    state = {}

    def cyclic(o):
        state[o] = "open"
        for a in preds[o]:
            if state.get(a) == "open" or (a not in state and cyclic(a)):
                return True
        state[o] = "closed"
        return False

    return not any(o not in state and cyclic(o) for o in left)


class TestCutsetSolver:
    """The cutset solve of ``_component_solver`` against the exhaustive
    scan of each component's product of domains."""

    def test_component_fibers_match_the_exhaustive_scan_in_order(self):
        rng = random.Random(61)
        seen = Counter()
        for trial in range(180):
            k = 1 + trial % 6
            m = zoo.random_component_scm(rng, k, outside_p=0.2 if trial % 3 == 0 else 0.0)
            comp = tuple(n for n in m.endogenous_names if n != "Z")
            assert analysis._dependency_components(m, comp) == [comp]
            cut, _ = _cutset(m, comp)
            inputs = ("Z",) + m.exogenous_names
            for combo in itertools.product(*(m.domain_of(a).values for a in inputs)):
                assign = dict(zip(inputs, combo))
                got = list(_fibers(m, comp, assign))
                assert got == zoo.exhaustive_fiber(m, comp, assign), (trial, assign)
                seen[k, min(len(got), 2)] += 1
                if len(got) > 1 and cut != comp[:len(cut)]:
                    seen["reordered"] += 1
        # every size meets empty, singleton and multiple fibers
        assert all(seen[k, n] for k in range(1, 7) for n in range(3)), seen
        assert seen["reordered"]

    def test_scan_witness_matches_the_brute_force(self, monkeypatch):
        rng = random.Random(67)
        cases = []
        for trial in range(60):
            m = zoo.random_component_scm(rng, 1 + trial % 6, outside_p=0.2 if trial % 2 else 0.0)
            cases.append((m, tuple(n for n in m.endogenous_names if n != "Z")))
            r = zoo.random_finite_scm(rng, max_endo=5, self_arg_p=0.3)
            names = list(r.endogenous_names)
            cases.append((r, tuple(rng.sample(names, rng.randint(1, len(names))))))
        runs = [(m, subset, unique) for m, subset in cases for unique in (False, True)]
        got = [_finite_scan(m.replace(), subset, unique) for m, subset, unique in runs]
        monkeypatch.setattr(analysis, "_component_solver", brute_force_solver)
        expected = [_finite_scan(m.replace(), subset, unique) for m, subset, unique in runs]
        assert got == expected
        assert sum(not r.ok for r in got) > 20 and sum(r.ok for r in got) > 20

    def test_scan_matches_the_per_point_oracle(self):
        """The verdict pass and its witness against ``zoo.exhaustive_scan``,
        on subsets that are one dependency component and on subsets of
        several, whose fibers ``_fibers`` gives in component order, so they
        are compared sorted."""
        rng = random.Random(89)
        cases = [(first_failure_in_a_later_component(), ("X", "Y"))]
        for trial in range(60):
            m = zoo.random_component_scm(rng, 1 + trial % 5, outside_p=0.2 if trial % 2 else 0.0)
            cases.append((m, tuple(n for n in m.endogenous_names if n != "Z")))
            r = zoo.random_finite_scm(rng, max_endo=5, self_arg_p=0.3)
            names = list(r.endogenous_names)
            cases.append((r, tuple(rng.sample(names, rng.randint(1, len(names))))))
            cases += [(r, comp) for comp in functional_graph(r).components()]
        seen = Counter()
        for m, subset in cases:
            one = len(analysis._dependency_components(m, analysis._subset_names(m, subset))) == 1
            for unique, solver in ((False, solvable_wrt), (True, uniquely_solvable_wrt)):
                got = solver(m.replace(), subset)
                want = zoo.exhaustive_scan(m, subset, unique)
                assert got.ok == (want is None), (subset, unique)
                if want is not None:
                    witness = dict(got.witness)
                    if not one:
                        witness["fiber"], want["fiber"] = sorted(witness["fiber"]), sorted(want["fiber"])
                    assert witness == want, (subset, unique)
                    seen[one, len(want["fiber"]) > 1] += 1
                seen[one, "ok"] += got.ok
        assert all(seen[one, case] for one in (True, False) for case in ("ok", False, True)), seen

    def test_a_missing_row_is_reported_as_the_mechanism_reports_it(self):
        # X <-> Y, cut at X; a table of Y without the row (1, 0) is not a model
        b = FiniteDomain((0, 1))
        mechs = {"X": TabularMechanism(("Y", "E"), {(y, e): y ^ e for y in (0, 1) for e in (0, 1)}),
                 "Y": TabularMechanism(("X", "E"), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})}
        m = FiniteScm({"X": b, "Y": b}, {"E": b}, {"E": {0: F(1, 2), 1: F(1, 2)}}, mechs)
        assert _cutset(m, ("X", "Y")) == (("X",), ("Y",))
        assert fiber(m, ("X", "Y"), {"E": 1}) == {(0, 1), (1, 0)}
        partial = TabularMechanism(("X", "E"), {(0, 0): 0, (0, 1): 1, (1, 1): 0})
        with pytest.raises(ScmError, match="invalid model: mechanism table of Y is not total: 3 rows, expected 4"):
            m.replace(mechanisms={**mechs, "Y": partial})

    def test_cutset_is_a_smallest_feedback_set(self):
        rng = random.Random(73)
        for trial in range(120):
            m = zoo.random_component_scm(rng, 1 + trial % 6)
            comp = tuple(n for n in m.endogenous_names if n != "Z")
            cut, rest = _cutset(m, comp)
            assert is_feedback_set(m, comp, cut)
            assert sorted(cut + rest) == sorted(comp)
            for pos, o in enumerate(rest):
                inside = set(m.mechanisms[o].args) & set(comp)
                assert inside <= set(cut) | set(rest[:pos]), (cut, rest)
            cost = math.prod(len(m.endogenous[o]) for o in cut)
            for size in range(len(comp) + 1):
                for other in itertools.combinations(comp, size):
                    if is_feedback_set(m, comp, other):
                        assert cost <= math.prod(len(m.endogenous[o]) for o in other)

    def test_one_variable_cuts_a_loop(self):
        ring = zoo.ternary_ring_scm(5)
        assert _cutset(ring, ring.endogenous_names) == (("X1",), ("X2", "X3", "X4", "X5"))
        pair = zoo.ladder_scm(1)
        assert _cutset(pair, ("A1", "B1")) == (("A1",), ("B1",))
        gated = zoo.gated_selfloop(4)
        assert _cutset(gated, ("X",)) == (("X",), ())

    def test_cutset_cost_on_the_benchmark_shapes(self):
        for m, comp, cost in ((zoo.ternary_ring_scm(4), ("X1", "X2", "X3", "X4"), 3),
                              (zoo.ladder_scm(3), ("A2", "B2"), 2)):
            cut, _ = _cutset(m, comp)
            assert math.prod(len(m.endogenous[o]) for o in cut) == cost

    def test_integer_weights_match_the_fraction_oracle(self):
        corpus = sorted((Path(__file__).parent / "corpus").glob("*.scm"))
        models = [parse(path.read_text()) for path in corpus]
        models = [m for m in models if isinstance(m, FiniteScm)]
        rng = random.Random(79)
        models += [zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.2) for _ in range(60)]
        models += [zoo.big_denominator_scm(), zoo.ternary_ring_scm(4), zoo.ladder_scm(2)]
        compared = 0
        for m in models:
            oracle = zoo.fraction_distribution(m)
            if oracle is None:
                with pytest.raises((NotSolvable, NotUniquelySolvable)):
                    observational_distribution(m)
                continue
            assert dict(observational_distribution(m).probs) == {c: p for c, p in oracle.items() if p}
            compared += 1
        assert compared > 30


class TestSolvability:
    def test_interventions_flip_flop(self):
        m = zoo.interventions_linear()
        assert solvable_wrt(m, m.endogenous_names)
        m_do3 = intervene(m, {"X3": 1.0})
        assert not solvable_wrt(m_do3, m.endogenous_names)
        m_do32 = intervene(m_do3, {"X2": 1.0})
        assert solvable_wrt(m_do32, m.endogenous_names)

    def test_flip_flop_determinants(self):
        m = zoo.interventions_linear()
        dets = [
            np.linalg.det(np.eye(3) - model.B)
            for model in (m, intervene(m, {"X3": 1.0}), intervene(intervene(m, {"X3": 1.0}), {"X2": 1.0}))
        ]
        assert dets[0] == pytest.approx(1.0, abs=1e-12)
        assert dets[1] == pytest.approx(0.0, abs=1e-12)
        assert abs(dets[2]) > 1e-9

    @pytest.mark.parametrize("check", [uniquely_solvable_wrt, solvable_wrt, solve_map])
    def test_linear_path_rejects_unknown_names(self, check):
        with pytest.raises(UnknownNameError):
            check(zoo.interventions_linear(), ["nope"])

    def test_noise_scale_changes_neither_graph_nor_solvability(self):
        # zero variance is judged relative to the noise block, so a model and
        # its rescaled copy get the same parents and the same verdicts
        answers = []
        for var in (1e-10, 1.0, 1e10):
            blocks = tuple(GaussianBlock(e, (e,), [0.0], [[var]]) for e in ("E1", "E2"))
            chain = LinearScm(("X", "Y"), blocks, [[0, 0], [1, 0]], [[1, 0], [0, 1]])
            cycle = LinearScm(("X", "Y"), blocks, [[0, 1], [1, 0]], [[1, 0], [0, 1]])
            answers.append((
                augmented_graph(chain),
                bool(solvable_wrt(cycle, ["X", "Y"])),
                bool(uniquely_solvable_wrt(cycle, ["X", "Y"])),
            ))
        assert answers[0] == answers[1] == answers[2]
        assert answers[1][0].directed == {("E1", "X"), ("E2", "Y"), ("X", "Y")}
        assert answers[1][1:] == (False, False)

    def test_solvability_properties_example(self):
        m = zoo.solvability_props()
        assert solvable_wrt(m, ["X1", "X2"])
        assert solvable_wrt(m, ["X2", "X3"])
        assert solvable_wrt(m, ["X2"])
        assert not solvable_wrt(m, ["X1"])
        assert not solvable_wrt(m, ["X3"])
        assert not solvable_wrt(m, ["X1", "X2", "X3"])

    def test_solvability_not_closed_under_intersection(self):
        m = zoo.solvability_props2()
        assert solvable_wrt(m, ["X1", "X2"])
        assert solvable_wrt(m, ["X2", "X3"])
        assert not solvable_wrt(m, ["X2"])

    def test_ancestral_subsets_inherit_solvability(self):
        # solvable w.r.t. O implies solvable w.r.t. ancestral subsets of O
        from scmkit import augmented_graph

        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            m = zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.35)
            names = list(m.endogenous_names)
            subset = tuple(rng.sample(names, rng.randint(1, len(names))))
            if not solvable_wrt(m, subset):
                continue
            sub = augmented_graph(m).induced(subset)
            for v in subset:
                ancestral = sub.ancestors_of([v])
                assert solvable_wrt(m, sorted(ancestral)), (m, subset, v)
                checked += 1
        assert checked > 20

    def test_unique_does_not_inherit_to_ancestral_subsets(self):
        m = zoo.unique_ancestral()
        assert uniquely_solvable_wrt(m, ["X1", "X2"])
        assert solvable_wrt(m, ["X2"])
        assert not uniquely_solvable_wrt(m, ["X2"])

    def test_unique_implies_solvable_random(self):
        rng = random.Random(13)
        for _ in range(40):
            m = zoo.random_finite_scm(rng, self_arg_p=0.4)
            names = list(m.endogenous_names)
            subset = rng.sample(names, rng.randint(1, len(names)))
            if uniquely_solvable_wrt(m, subset):
                assert solvable_wrt(m, subset)

    def test_acyclic_uniquely_solvable_any_subset(self):
        m = zoo.chain_substitution()
        for r in range(1, 4):
            for subset in itertools.combinations(m.endogenous_names, r):
                assert uniquely_solvable_wrt(m, subset)

    def test_a_ladder_of_twenty_pairs_is_decided_one_pair_at_a_time(self):
        # 6**20 noise points; the verdict pass holds the states of one pair
        m = zoo.ladder_scm(20)
        start = time.perf_counter()
        assert uniquely_solvable_wrt(m, m.endogenous_names)
        assert time.perf_counter() - start < 2.0

    def test_linear_two_cycle_alpha_beta_one(self):
        m = zoo.lin_gauss_anm(alpha=2.0, beta=0.5)
        assert not uniquely_solvable_wrt(m, ["X1", "X2"])
        assert uniquely_solvable_wrt(m, ["X1"])

    def test_unique_solvability_witness(self):
        m, m_tilde = zoo.nonunique_selfloop_pair()
        res = uniquely_solvable_wrt(m_tilde, ["X2"])
        assert not res
        assert len(res.witness["fiber"]) == 2

    def test_intervening_the_complement_preserves_uniqueness(self):
        # if m is uniquely solvable w.r.t. O, then do(I \ O) keeps it uniquely solvable
        rng = random.Random(17)
        checked = 0
        for _ in range(60):
            m = zoo.random_finite_scm(rng, max_endo=3, self_arg_p=0.3)
            names = list(m.endogenous_names)
            subset = tuple(rng.sample(names, rng.randint(1, len(names))))
            if not uniquely_solvable_wrt(m, subset):
                continue
            rest = [i for i in names if i not in subset]
            for iv in zoo.random_interventions(rng, m, count=1):
                iv = {k: v for k, v in iv.items() if k in rest}
                mi = intervene(m, iv)
                assert uniquely_solvable_wrt(mi, list(subset) + list(iv)), (m, subset, iv)
                checked += 1
        assert checked > 15


class TestStructuralAndAllSubsets:
    def test_acyclic(self):
        assert structurally_uniquely_solvable(zoo.chain_substitution())

    def test_identity_self_loop(self):
        _, m_tilde = zoo.nonunique_selfloop_pair()
        assert not structurally_uniquely_solvable(m_tilde)

    def test_linear_unit_diagonal(self):
        m = LinearScm(("X",), zoo.std_blocks("E1"), [[1.0]], [[1.0]])
        assert not structurally_uniquely_solvable(m)

    def test_self_loops_are_the_singletons_not_uniquely_solvable(self):
        models = [parse(path.read_text()) for path in sorted(CORPUS.glob("*.scm"))]
        models.append(LinearScm(("X", "Y"), zoo.std_blocks("E1"), [[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]]))
        rng = random.Random(31)
        models += [zoo.random_component_scm(rng, rng.randint(1, 3)) for _ in range(60)]
        seen = Counter()
        for m in models:
            loops = augmented_graph(m).directed
            for k in m.endogenous_names:
                looped = (k, k) in loops
                assert looped == (not uniquely_solvable_wrt(m, [k])), (m, k)
                seen[type(m).__name__, looped] += 1
        assert all(seen[family, looped] for family in ("FiniteScm", "LinearScm") for looped in (True, False)), seen

    def test_all_subsets_via_loops_matches_brute_force(self):
        rng = random.Random(19)
        for _ in range(25):
            m = zoo.random_finite_scm(rng, max_endo=3, self_arg_p=0.3)
            by_loops = uniquely_solvable_all_subsets(m)
            names = list(m.endogenous_names)
            brute = all(
                uniquely_solvable_wrt(m, subset)
                for r in range(1, len(names) + 1)
                for subset in itertools.combinations(names, r)
            )
            assert by_loops == brute

    def test_all_subsets_cap_names_its_knob(self):
        m = zoo.cycle4_scm()
        with pytest.raises(ScmError, match=r"4 variables, over the cap max_nodes=3$"):
            uniquely_solvable_all_subsets(m, max_nodes=3)
        assert uniquely_solvable_all_subsets(m, max_nodes=4)

    def test_all_subsets_preserved_under_intervention(self):
        rng = random.Random(23)
        m = zoo.cycle4_scm()
        assert uniquely_solvable_all_subsets(m)
        for iv in zoo.random_interventions(rng, m, count=5):
            assert uniquely_solvable_all_subsets(intervene(m, iv))


class TestSolveMap:
    def test_marginalization_example_solve_map(self):
        m = zoo.marginalization_linear()
        sm = solve_map(m, ["X3", "X4", "X5"])
        assert sm.targets == ("X3", "X4", "X5")
        # g3 = 2 e2, g4 = x1 + e1 + e2, g5 = e2
        coords = sm.exo_args
        expected_G = {
            "X3": {"E2": 2.0},
            "X4": {"E1": 1.0, "E2": 1.0},
            "X5": {"E2": 1.0},
        }
        for r, target in enumerate(sm.targets):
            for c, coord in enumerate(coords):
                assert sm.G[r, c] == pytest.approx(expected_G[target].get(coord, 0.0), abs=1e-12)
        x1 = sm.endo_args.index("X1")
        assert sm.A[:, x1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_source_node_identity(self):
        m, _ = zoo.equivalence_pair()
        sm = solve_map(m, ["X"])
        assert sm.exo_args == ("E",)
        assert sm({"E": 1}) == {"X": 1}
        assert sm({"E": -1}) == {"X": -1}

    def test_substitution_satisfies_equations(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(50):
            m = zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.25)
            names = list(m.endogenous_names)
            subset = tuple(rng.sample(names, rng.randint(1, len(names))))
            if not uniquely_solvable_wrt(m, subset):
                continue
            sm = solve_map(m, subset)
            from scmkit.analysis import _inputs, _support_assignments

            _, ctx_names = _inputs(m, subset)
            for e_values, _ in _support_assignments(m, m.exogenous_names):
                for ctx in itertools.product(
                    *(m.endogenous[i].values for i in ctx_names)
                ):
                    assign = dict(zip(m.exogenous_names, e_values))
                    assign.update(zip(ctx_names, ctx))
                    fiber = zoo.exhaustive_fiber(m, subset, assign)
                    assign.update(sm(assign))
                    # on the support the fiber is the one point the map gives
                    assert fiber == [tuple(assign[o] for o in m.endogenous_names if o in subset)]
                    for o in subset:
                        assert assign[o] == m.mechanisms[o](assign)
            checked += 1
        assert checked > 15

    def test_solve_map_requires_uniqueness(self):
        _, m_tilde = zoo.nonunique_selfloop_pair()
        with pytest.raises(NotUniquelySolvable):
            solve_map(m_tilde, ["X2"])

    def test_linear_finite_lattice_cross_check(self):
        # an integer-coefficient linear model whose solutions stay on a small
        # lattice must agree with its finite-domain encoding table for table
        # inputs, row by row
        blocks = zoo.std_blocks("E1", "E2")
        lin = LinearScm(("X1", "X2"), blocks, [[0, 0], [1, 0]], [[1, 0], [0, 1]])
        sm_lin = solve_map(lin, ["X2"])
        dom = FiniteDomain((0, 1))
        out = FiniteDomain((0, 1, 2))
        fin = FiniteScm(
            {"X1": dom, "X2": out},
            {"E1": dom, "E2": dom},
            {"E1": zoo.uniform(0, 1), "E2": zoo.uniform(0, 1)},
            {
                "X1": TabularMechanism(("E1",), {(0,): 0, (1,): 1}),
                "X2": TabularMechanism(("X1", "E2"), {(a, b): a + b for a in (0, 1) for b in (0, 1)}),
            },
        )
        sm_fin = solve_map(fin, ["X2"])
        for x1 in (0, 1):
            for e2 in (0, 1):
                assign = {"X1": x1, "E2": e2}
                got = sm_fin(assign)["X2"]
                coords = sm_lin.exo_args
                lin_value = (
                    sm_lin.A[0, sm_lin.endo_args.index("X1")] * x1
                    + sm_lin.G[0, coords.index("E2")] * e2
                    + sm_lin.d[0]
                )
                assert got == lin_value


def _solve_oracle(m, subset):
    """(A, G, d) of the solve map of ``subset`` by np.linalg.solve."""
    idx = [m.endogenous.index(o) for o in subset]
    rest = [k for k in range(len(m.endogenous)) if k not in idx]
    rhs = np.hstack([m.B[np.ix_(idx, rest)], m.Gamma[idx, :], m.c[idx].reshape(-1, 1)])
    sol = np.linalg.solve(np.eye(len(idx)) - m.B[np.ix_(idx, idx)], rhs)
    return sol[:, : len(rest)], sol[:, len(rest) : -1], sol[:, -1]


class TestLinearBattery:
    """Seeded linear models on 3-5 variables, each with a self-loop
    coefficient, a 2-cycle (singular in every other model) and a correlated
    two-coordinate noise block; see ``zoo.random_linear_scm``."""

    @pytest.fixture(scope="class")
    def battery(self):
        rng = random.Random(41)
        return [(*zoo.random_linear_scm(rng, k % 2 == 0), k % 2 == 0) for k in range(12)]

    def test_solve_map_matches_solve_oracle_on_every_subset(self, battery):
        for m, cycle, singular_cycle in battery:
            for r in range(len(m.endogenous) + 1):
                for subset in itertools.combinations(m.endogenous, r):
                    singular = singular_cycle and set(cycle) <= set(subset)
                    assert bool(uniquely_solvable_wrt(m, subset)) != singular
                    if singular:
                        with pytest.raises(NotUniquelySolvable):
                            solve_map(m, subset)
                        continue
                    sm = solve_map(m, subset)
                    assert sm.targets == subset
                    assert sm.endo_args == tuple(v for v in m.endogenous if v not in subset)
                    for got, want in zip((sm.A, sm.G, sm.d), _solve_oracle(m, subset)):
                        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_observational_distribution_solves_the_moment_equations(self, battery):
        for m, _, singular in battery:
            if singular:
                with pytest.raises(SolvabilityError):
                    observational_distribution(m)
                continue
            dist = observational_distribution(m)
            lhs = np.eye(len(m.endogenous)) - m.B
            np.testing.assert_allclose(
                lhs @ dist.mean, m.Gamma @ m.noise_mean() + m.c, rtol=1e-9, atol=1e-9
            )
            np.testing.assert_allclose(
                lhs @ dist.cov @ lhs.T, m.Gamma @ m.noise_cov() @ m.Gamma.T, rtol=1e-9, atol=1e-9
            )

    def test_marginalization_keeps_the_law_and_the_interventions(self, battery):
        for m, _, singular in battery:
            if singular:
                continue
            full = observational_distribution(m)
            for r in range(1, len(m.endogenous)):
                for latent in itertools.combinations(m.endogenous, r):
                    rest = tuple(v for v in m.endogenous if v not in latent)
                    marg = marginalize(m, latent)
                    assert marg.endogenous == rest
                    assert observational_distribution(marg).close_to(full.marginal(rest))
                    assert interventionally_equivalent(m, marg, rest).verdict

    def test_marginalization_keeps_the_counterfactuals(self, battery):
        # margins of one and two variables: the 116 pairs of every margin take about 10 s
        checked = 0
        for m, _, singular in battery:
            if singular:
                continue
            for r in range(len(m.endogenous) - 2, len(m.endogenous)):
                for latent in itertools.combinations(m.endogenous, r):
                    rest = tuple(v for v in m.endogenous if v not in latent)
                    assert counterfactually_equivalent(m, marginalize(m, latent), rest).verdict, (m, latent)
                    checked += 1
        assert checked == 70

    def test_interventional_equivalence_of_the_canonical_form(self, battery):
        rng = random.Random(43)
        for m, _, singular in battery:
            names = m.endogenous
            # a singular model and its canonical form lack a solution under the same do()
            assert interventionally_equivalent(m, canonicalize(m), names).verdict
            if singular:
                continue
            r, col = rng.sample(range(len(names)), 2)
            B = m.B.copy()
            B[r, col] += 0.25
            assert not interventionally_equivalent(m, m.replace(B=B), names).verdict


class TestObservationalDistribution:
    def test_fair_coin(self):
        m, _ = zoo.equivalence_pair()
        dist = observational_distribution(m)
        assert dist.probs == {(-1,): F(1, 2), (1,): F(1, 2)}
        assert sum(dist.probs.values()) == 1

    def test_x2_uniform_in_product_example(self):
        m = zoo.interventional_equiv_m()
        dist = observational_distribution(m).marginal(["X2"])
        assert dist.probs == {(-1,): F(1, 2), (1,): F(1, 2)}

    def test_lin_gauss_pair_identical(self):
        d1 = observational_distribution(zoo.lin_gauss_anm())
        d2 = observational_distribution(zoo.lin_gauss_anm_tilde())
        assert d1.close_to(d2)

    def test_unsolvable_raises(self):
        m = zoo.unsolvable_selfloop()
        with pytest.raises(NotSolvable):
            observational_distribution(intervene(m, {"X2": 1}))

    def test_multiple_solutions_raise(self):
        _, m_tilde = zoo.nonunique_selfloop_pair()
        with pytest.raises(NotUniquelySolvable):
            observational_distribution(m_tilde)

    def test_error_witnesses_name_the_noise_value_and_the_fiber(self):
        _, m_tilde = zoo.nonunique_selfloop_pair()
        unsolvable = intervene(zoo.unsolvable_selfloop(), {"X2": 1})
        # a noise that no variable reads is not part of the witness
        for m in (m_tilde, zoo.with_unread_noise(m_tilde)):
            with pytest.raises(NotUniquelySolvable) as err:
                observational_distribution(m)
            assert err.value.witness == {"e": {}, "fiber": ((0, 0), (0, 1))}
        for m in (unsolvable, zoo.with_unread_noise(unsolvable)):
            with pytest.raises(NotSolvable) as err:
                observational_distribution(m)
            assert err.value.witness == {"e": {}}

    def test_the_pass_stops_at_the_first_fiber_that_is_not_a_singleton(self, monkeypatch):
        # X1 = X1 beside six unread-by-X1 ternary noises: 729 support points,
        # every fiber of size 2.  The Γ pass stops at X1's two solutions; the
        # verdict pass then merges the states of the Yi, whose values nothing
        # reads, and fails at the first point of the last stage.  Each distinct
        # component input is solved at most once: X1 once, each Yi before the
        # last once per value of Ei, Y6 at E6 = 0 only
        m = identity_beside_ternary_noises(6)
        solver, calls = analysis._component_solver, []

        def counted(m, comp):
            inputs, solve = solver(m, comp)

            def counted_solve(key):
                calls.append((comp, key))
                return solve(key)

            return inputs, counted_solve

        monkeypatch.setattr(analysis, "_component_solver", counted)
        with pytest.raises(NotUniquelySolvable) as err:
            observational_distribution(m)
        assert err.value.witness == {"e": {f"E{i}": 0 for i in range(1, 7)},
                                     "fiber": ((0,) + (0,) * 6, (1,) + (0,) * 6)}
        assert sorted(calls) == sorted([(("X1",), ()), (("Y6",), (0,))]
                                       + [((f"Y{i}",), (v,)) for i in range(1, 6) for v in range(3)])

    def test_the_early_stop_keeps_the_witness_of_eleven_noises(self):
        # the same shape with eleven noises: a Γ pass that cannot stop early
        # builds all 3**11 states, which takes seconds
        k = 11
        m = identity_beside_ternary_noises(k)
        start = time.perf_counter()
        with pytest.raises(NotUniquelySolvable) as err:
            observational_distribution(m)
        assert time.perf_counter() - start < 0.5
        assert err.value.witness == {"e": {f"E{i}": 0 for i in range(1, k + 1)},
                                     "fiber": ((0,) + (0,) * k, (1,) + (0,) * k)}

    def test_two_partial_solutions_that_a_later_component_cuts_to_one(self):
        # X1 = X1, and X2 = 1 - X2 if X1 = 1 else 0: X1's stage holds two
        # solutions, X1 = 1 leaves X2 none, so (0, 0) is the unique solution
        b = zoo.fd(0, 1)
        domains = {"X1": b, "X2": b}
        m = zoo.no_noise(domains, {"X1": zoo.postab(domains, ("X1",), lambda x1: x1),
                                   "X2": zoo.postab(domains, ("X2", "X1"), lambda x2, x1: 1 - x2 if x1 == 1 else 0)})
        names = m.endogenous_names
        assert _gamma_law(m, names, {}, unique=True) is None  # the early stop fires
        assert uniquely_solvable_wrt(m, names)
        den, law = zoo.exhaustive_gamma_law(m, names, {}, unique=True)
        assert law == {frozenset({(0, 0)}): 1}
        assert dict(observational_distribution(m).probs) == {(0, 0): F(1)}
        assert observational_polytope(m).vertices == (observational_distribution(m),)

    def test_a_long_chain_needs_no_recursion(self):
        # X0 = E, Xi = X(i-1): one component per variable, 1,200 deep
        n = 1200
        endo = {f"X{i}": zoo.fd(0, 1) for i in range(n)}
        domains = {**endo, "E": zoo.fd(0, 1)}
        mechanisms = {"X0": zoo.postab(domains, ("E",), lambda e: e)}
        for i in range(1, n):
            mechanisms[f"X{i}"] = zoo.postab(domains, (f"X{i - 1}",), lambda x: x)
        m = FiniteScm(endo, {"E": domains["E"]}, {"E": zoo.uniform(0, 1)}, mechanisms)
        dist = observational_distribution(m)
        assert dict(dist.probs) == {(0,) * n: Fraction(1, 2), (1,) * n: Fraction(1, 2)}

    def test_cycle4_distribution_normalizes(self):
        dist = observational_distribution(zoo.cycle4_scm())
        assert sum(dist.probs.values()) == 1


class TestGammaPass:
    """The component-at-a-time Γ pass against the per-point oracle.  Without
    ``unique`` the laws are equal.  With it the pass stops at the first
    partial set of two solutions, so it may give ``None`` where the oracle,
    whose later components cut that set to one, gives a law; the oracle's
    ``None`` is the pass's, and a law the pass gives is the oracle's.  The
    public results over all variables, which decide that case by the verdict
    pass, are checked against the oracles too."""

    @staticmethod
    def compare(m, margin, iv, seen):
        law = _gamma_law(m, margin, iv)
        assert law == zoo.exhaustive_gamma_law(m, margin, iv), (m, margin, iv)
        seen["none", False] += law is None
        seen["several"] += law is not None and any(len(a) > 1 for a in law[1])
        early, oracle = _gamma_law(m, margin, iv, True), zoo.exhaustive_gamma_law(m, margin, iv, True)
        assert early is None if oracle is None else early in (None, oracle), (m, margin, iv)
        seen["none", True] += early is None
        seen["stopped early"] += early is None and oracle is not None
        if margin == m.endogenous_names:
            TestGammaPass.compare_public(intervene(m, iv) if iv else m, law, oracle, seen)

    @staticmethod
    def compare_public(m, law, unique_law, seen):
        """``observational_distribution`` and ``observational_polytope`` of
        ``m`` against its oracle laws: the law, or the error with the witness
        of ``zoo.exhaustive_scan``."""
        names = m.endogenous_names
        for unique, oracle in ((True, unique_law), (False, law)):
            if oracle is None:
                want = zoo.exhaustive_scan(m, names, unique)
                error = NotSolvable if not want["fiber"] else NotUniquelySolvable
                with pytest.raises(error) as err:
                    (observational_distribution if unique else observational_polytope)(m)
                witness = dict(err.value.witness)
                assert witness.pop("e") == want["e"]
                assert sorted(witness.pop("fiber", ())) == sorted(want["fiber"])
                continue
            den, counts = oracle
            if unique:
                assert dict(observational_distribution(m).probs) == {c: F(n, den) for (c,), n in counts.items()}
                continue
            poly = observational_polytope(m)
            assert poly.unique == all(len(a) == 1 for a in counts)
            try:
                selectors = set(zoo.exhaustive_selector_laws(m, max_selectors=256))
            except ScmError:
                continue
            # every vertex gives each focal set's mass to one of its cells
            assert set(poly.vertices) <= selectors
            seen["polytopes"] += 1

    def test_corpus_laws_match_the_per_point_oracle(self):
        rng, seen = random.Random(14), Counter()
        for path in sorted(CORPUS.glob("*.scm")):
            m = parse(path.read_text())
            if not isinstance(m, FiniteScm):
                continue
            seen["models"] += 1
            names = m.endogenous_names
            for iv in [{}] + zoo.random_interventions(rng, m, 3):
                for margin in [names] + [(v,) for v in names]:
                    self.compare(m, margin, iv, seen)
        assert seen["models"] >= 20 and seen["several"] and seen["none", False] and seen["none", True], seen
        assert seen["polytopes"], seen

    def test_random_laws_match_the_per_point_oracle(self):
        rng, seen = random.Random(1401), Counter()
        for _ in range(400):
            m = zoo.random_finite_scm(rng, max_endo=5, max_exo=3, self_arg_p=0.3)
            names = m.endogenous_names
            readers = Counter(j for comp in analysis._dependency_components(m, names)
                              for j in {a for o in comp for a in m.mechanisms[o].args} if j in m.exogenous)
            seen["shared noise"] += any(k > 1 for k in readers.values())
            seen["zero mass"] += any(p == 0 for j in m.exogenous_names for p in m.measure[j].values())
            for iv in [{}] + zoo.random_interventions(rng, m, 1):
                margins = [names, (rng.choice(names),), tuple(rng.sample(names, 2))[::-1]]
                for margin in margins:
                    self.compare(m, margin, iv, seen)
        assert seen["shared noise"] > 100 and seen["zero mass"] > 100, seen
        assert seen["several"] > 100 and seen["none", False] > 100 and seen["none", True] > seen["none", False], seen
        assert seen["stopped early"] > 10 and seen["polytopes"] > 100, seen


class TestPolytope:
    def test_uniquely_solvable_single_vertex(self):
        m, _ = zoo.equivalence_pair()
        poly = observational_polytope(m)
        assert poly.unique
        assert poly.vertices[0] == observational_distribution(m)

    def test_identity_two_vertices(self):
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X": dom}, {}, {},
                      {"X": TabularMechanism(("X",), {(0,): 0, (1,): 1})})
        poly = observational_polytope(m)
        verts = {tuple(sorted(v.probs.items())) for v in poly.vertices}
        assert verts == {(((0,), F(1)),), (((1,), F(1)),)}

    def test_square_root_intervention_two_vertices(self):
        m = zoo.intervention_unique()
        assert uniquely_solvable_wrt(m, m.endogenous_names)
        mi = intervene(m, {"X2": 2})
        sols = fiber(mi, ["X1"], {}, {"X2": 2})
        assert sols == {(-1,), (1,)}
        poly = observational_polytope(mi)
        assert len(poly.vertices) == 2
        cells = {cell for v in poly.vertices for cell in v.probs}
        assert cells == {(-1, 2), (1, 2)}

    def test_unsolvable_polytope_raises(self):
        m = zoo.unsolvable_selfloop()
        with pytest.raises(NotSolvable):
            observational_polytope(intervene(m, {"X2": 1}))

    def test_unsolvable_witness_reads_only_the_noises_read(self):
        m = zoo.with_unread_noise(intervene(zoo.unsolvable_selfloop(), {"X2": 1}))
        with pytest.raises(NotSolvable) as poly_err:
            observational_polytope(m)
        with pytest.raises(NotSolvable) as dist_err:
            observational_distribution(m)
        assert poly_err.value.witness == dist_err.value.witness == {"e": {}}

    @pytest.mark.parametrize("build, count", [
        (zoo.identity_with_unread_noises, 2),
        (lambda: zoo.gated_selfloop(3), 3),
        (lambda: zoo.two_gated_selfloops(2), 16),
        (lambda: zoo.two_gated_selfloops(3), 223),
    ])
    def test_vertex_counts(self, build, count):
        # the selectors' laws number 5, 9, 2,529 and over 10**6; the marginal
        # vectors of the core are the true vertices among them
        assert len(observational_polytope(build()).vertices) == count

    def test_selector_cap_overflows_loudly(self):
        mi = intervene(zoo.intervention_unique(), {"X2": 2})
        with pytest.raises(ScmError, match=r"overflow: at least 2 candidate selectors, over the cap max_selectors=1$"):
            observational_polytope(mi, max_selectors=1)


class TestInterventionalDistribution:
    def test_empty_do_equals_observational(self):
        m = zoo.interventional_equiv_m()
        assert interventional_distribution(m, {}) == observational_distribution(m)

    def test_do_x3_has_no_solution(self):
        m = zoo.interventions_linear()
        with pytest.raises(NotSolvable):
            interventional_distribution(m, {"X3": 1.0})

    def test_linear_chain_total_effect(self):
        blocks = zoo.std_blocks("E1", "E2", "E3")
        B = [[0, 0, 0], [2, 0, 0], [0, 3, 0]]
        m = LinearScm(("X1", "X2", "X3"), blocks, B, np.eye(3))
        dist = interventional_distribution(m, {"X1": 1.0})
        # independent oracle: (I - B_do)^(-1) applied to the intervened intercept
        B_do = np.array(B, dtype=float)
        B_do[0, :] = 0.0
        expected = np.linalg.inv(np.eye(3) - B_do) @ np.array([1.0, 0.0, 0.0])
        assert dist.mean == pytest.approx(expected, abs=1e-12)


class TestCounterfactual:
    def test_reduces_to_interventional_without_evidence(self):
        m = zoo.interventional_equiv_m()
        cf = counterfactual_distribution(m, {"X1": 1}, {}, {"X1": 1}, ["X2'"])
        iv = interventional_distribution(m, {"X1": 1}).marginal(["X2"])
        assert {k[0]: v for k, v in cf.probs.items()} == {k[0]: v for k, v in iv.probs.items()}

    def test_product_example_counterfactual_split(self):
        m = zoo.interventional_equiv_m()
        m_tilde = zoo.interventional_equiv_tilde()
        q = lambda model: counterfactual_distribution(
            model, {"X1": -1}, {"X2": 1}, {"X1": 1}, ["X2'"]
        ).prob({"X2'": 1})
        assert q(m) == 0
        assert q(m_tilde) == 1

    def test_treatment_twin_gaussian(self):
        # the model already is the (hand-built) twin: query it directly
        m = zoo.treatment_twin(rho=0.6)
        joint = observational_distribution(m)
        dist = gaussian_condition(joint, {"X2": 1.5}).marginal(["X2'"])
        assert dist.mean[0] == pytest.approx(0.9, abs=1e-12)
        assert dist.cov[0, 0] == pytest.approx(0.64, abs=1e-12)

    def test_zero_probability_evidence(self):
        m = zoo.interventional_equiv_m()
        with pytest.raises(EvidenceError):
            counterfactual_distribution(m, {"X1": 1}, {"X1": -1}, {}, ["X2'"])

    def test_linear_gaussian_counterfactual_flow(self):
        # twin + condition on a genuine linear model: observing the factual
        # outcome pins the shared noise, so the counterfactual is a point mass
        m = zoo.lin_gauss_anm(alpha=0.5, beta=1 / 3)
        dist = counterfactual_distribution(m, {"X1": 0.0}, {"X2": 1.0}, {"X1": 1.0}, ["X2'"])
        assert dist.vars == ("X2'",)
        # factual do(X1=0): X2 = E2, so E2 = 1; counterfactual do(X1=1): X2' = 1/3 + E2
        assert dist.mean[0] == pytest.approx(1 / 3 + 1.0, abs=1e-9)
        assert dist.cov[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_query_must_be_primed(self):
        m = zoo.interventional_equiv_m()
        with pytest.raises(ScmError):
            counterfactual_distribution(m, {}, {}, {}, ["X2"])

    def test_query_is_checked_before_the_twin_is_solved(self):
        # the twin of this model has no solution, so the query is read first
        m = intervene(zoo.unsolvable_selfloop(), {"X2": 1})
        with pytest.raises(NotSolvable):
            counterfactual_distribution(m, {}, {}, {}, ["X1'"])
        for query in (["X1"], ["ZZ'"], ["X1'", "X3'"], "X2"):
            with pytest.raises(UnknownNameError):
                counterfactual_distribution(m, {}, {}, {}, query)


class TestGaussianCondition:
    def test_independent_coordinates_unchanged(self):
        d = GaussianDistribution(("A", "B"), [1.0, 2.0], [[2.0, 0.0], [0.0, 3.0]])
        c = gaussian_condition(d, {"B": 5.0})
        assert c.mean[0] == pytest.approx(1.0)
        assert c.cov[0, 0] == pytest.approx(2.0)

    def test_correlated_pair_textbook_identity(self):
        rho = 0.6
        d = GaussianDistribution(("A", "B"), [0.0, 0.0], [[1.0, rho], [rho, 1.0]])
        c = gaussian_condition(d, {"B": 1.5})
        assert c.mean[0] == pytest.approx(rho * 1.5, abs=1e-12)
        assert c.cov[0, 0] == pytest.approx(1 - rho**2, abs=1e-12)

    def test_condition_everything_gives_point_mass(self):
        d = GaussianDistribution(("A", "B"), [0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
        c = gaussian_condition(d, {"A": 1.0, "B": 2.0})
        assert c.vars == ()

    def test_condition_on_nothing_is_the_same_law(self):
        d = GaussianDistribution(("A", "B"), [1.0, 2.0], [[1.0, 0.3], [0.3, 1.0]])
        c = gaussian_condition(d, {})
        assert c.vars == d.vars and np.array_equal(c.mean, d.mean) and np.array_equal(c.cov, d.cov)

    def test_singular_block_rejected(self):
        cov = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        d = GaussianDistribution(("A", "B", "C"), [0.0, 0.0, 0.0], cov)
        with pytest.raises(EvidenceError):
            gaussian_condition(d, {"B": 1.0, "C": 1.0})

    def test_result_does_not_depend_on_the_noise_scale(self):
        # X = E1, Y = X + E2: the counterfactual Y' given X = 0, and X' given
        # Y = 2 sd, are the same laws in units of sd at every variance
        answers = []
        for var in (1e-12, 1.0, 1e12):
            sd = var ** 0.5
            blocks = tuple(GaussianBlock(e, (e,), [0.0], [[var]]) for e in ("E1", "E2"))
            m = LinearScm(("X", "Y"), blocks, [[0, 0], [1, 0]], [[1, 0], [0, 1]])
            given_x = counterfactual_distribution(m, {}, {"X": 0.0}, {}, ["Y'"])
            given_y = counterfactual_distribution(m, {}, {"Y": 2 * sd}, {}, ["X'"])
            answers.append([(d.mean / sd, d.cov / var) for d in (given_x, given_y)])
        for other in answers[1:]:
            for (mean, cov), (mean0, cov0) in zip(other, answers[0]):
                assert np.allclose(mean, mean0, rtol=0, atol=1e-9)
                assert np.allclose(cov, cov0, rtol=0, atol=1e-9)
        (mean_y, cov_y), (mean_x, cov_x) = answers[0]
        assert np.allclose([mean_y[0], cov_y[0, 0], mean_x[0], cov_x[0, 0]], [0.0, 1.0, 1.0, 0.5])

    def test_conditioning_in_other_units_gives_the_rescaled_answer(self):
        # B in units 1e8 times smaller: the observed block diag(1e16, 1) has
        # the identity as its correlations, and A given B = 1e8, C = 0.5 is
        # A given B = 1, C = 0.5 in the identity-block model
        big = GaussianDistribution(("A", "B", "C"), [0.0, 0.0, 0.0],
                                   [[1.0, 0.5e8, 0.0], [0.5e8, 1e16, 0.0], [0.0, 0.0, 1.0]])
        unit = GaussianDistribution(("A", "B", "C"), [0.0, 0.0, 0.0],
                                    [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        c = gaussian_condition(big, {"B": 1e8, "C": 0.5})
        want = gaussian_condition(unit, {"B": 1.0, "C": 0.5})
        assert c.close_to(want)
        assert c.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert c.cov[0, 0] == pytest.approx(0.75, abs=1e-12)


class TestDistributionPlumbing:
    def test_marginal_and_condition(self):
        m = zoo.causal_graph_marginalization()
        dist = observational_distribution(m)
        marg = dist.marginal(["X3"])
        assert sum(marg.probs.values()) == 1
        cond = dist.condition({"X1": 1})
        assert sum(cond.probs.values()) == 1

    def test_unknown_names_raise_unknown_name_error(self):
        d = observational_distribution(zoo.causal_graph_marginalization())
        g = observational_distribution(zoo.lin_gauss_anm())
        calls = (
            lambda: d.prob({"ZZ": 0}),
            lambda: d.marginal(["ZZ"]),
            lambda: d.condition({"ZZ": 0}),
            lambda: g.marginal(["ZZ"]),
            lambda: gaussian_condition(g, {"ZZ": 0.0}),
        )
        for call in calls:
            with pytest.raises(UnknownNameError, match="ZZ"):
                call()

    def test_an_integer_law_keeps_the_counts_of_its_fractions(self):
        # the law built from the Γ-law's integer counts equals the one built
        # from its Fractions, with the same den, counts and dtype for the CI kernel
        rng = random.Random(1402)
        models = [zoo.big_denominator_scm(), zoo.ladder_scm(2)] + [zoo.random_finite_scm(rng) for _ in range(100)]
        checked = 0
        for m in models:
            try:
                dist = observational_distribution(m)
            except ScmError:
                continue
            rebuilt = DiscreteDistribution(dist.vars, dist.domains, dict(dist.probs))
            assert dist == rebuilt
            for copied in (rebuilt, pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist)):
                assert copied == dist and hash(copied) == hash(dist)
                (den, n, codes), (den2, n2, codes2) = dist._cell_codes(), copied._cell_codes()
                assert den == den2 and n.dtype == n2.dtype and n.tolist() == n2.tolist()
                assert codes.tolist() == codes2.tolist()
            # marginals, conditionals and probabilities against Fraction sums of probs
            pos = {v: i for i, v in enumerate(dist.vars)}
            for names in [(v,) for v in dist.vars] + list(itertools.permutations(dist.vars, 2)):
                want = Counter()
                for cell, p in dist.probs.items():
                    want[tuple(cell[pos[v]] for v in names)] += p
                assert dict(dist.marginal(names).probs) == dict(want)
                for key in itertools.product(*(dist.domains[v].values for v in names)):
                    assert dist.prob(dict(zip(names, key))) == want[key]
            for v in dist.vars:
                for x in {cell[pos[v]] for cell in dist.probs}:
                    rows = {c: p for c, p in dist.probs.items() if c[pos[v]] == x}
                    total = sum(rows.values(), Fraction(0))
                    keep = tuple(u for u in dist.vars if u != v)
                    want = {tuple(c[pos[u]] for u in keep): p / total for c, p in rows.items()}
                    cond = dist.condition({v: x})
                    assert cond.vars == keep and dict(cond.probs) == want
            checked += 1
        assert checked > 40
        dom = FiniteDomain((0, 1))
        with pytest.raises(ScmError, match="not normalized: sums to 3/4"):
            DiscreteDistribution._from_counts(("A",), {"A": dom}, 4, {(0,): 1, (1,): 2})

    def test_probs_is_built_once_and_stays_read_only(self):
        d = observational_distribution(zoo.causal_graph_marginalization())
        assert d.probs is d.probs
        cell = next(iter(d.probs))
        with pytest.raises(TypeError):
            d.probs[cell] = F(0)
        with pytest.raises(AttributeError):
            d.probs = {}
        assert sum(d.probs.values()) == 1
        assert pickle.loads(pickle.dumps(d)).probs == d.probs

    def test_a_repeated_name_is_rejected(self):
        # a law over two copies of one coordinate is not a marginal of it
        d = observational_distribution(zoo.causal_graph_marginalization())
        g = observational_distribution(zoo.lin_gauss_anm())
        calls = (
            lambda: d.marginal(["X1", "X1"]),
            lambda: g.marginal([g.vars[0], g.vars[1], g.vars[0]]),
            lambda: counterfactual_distribution(zoo.causal_graph_marginalization(), {}, {}, {}, ["X1'", "X1'"]),
            lambda: DiscreteDistribution(("A", "A"), {"A": FiniteDomain((0, 1))}, {(0, 1): F(1, 2), (1, 1): F(1, 2)}),
        )
        for call in calls:
            with pytest.raises(ScmError, match="named twice"):
                call()

    def test_json_shapes(self):
        m, _ = zoo.equivalence_pair()
        obj = observational_distribution(m).to_json_obj()
        assert obj["vars"] == ["X"]
        assert ["-1", "1/2"] in obj["probs"]
        g = observational_distribution(zoo.lin_gauss_anm()).to_json_obj()
        assert set(g) == {"vars", "mean", "cov"}
