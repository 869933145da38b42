import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import model_zoo as zoo
import scmkit
from scmkit import (
    DomainMismatchError,
    FiniteDomain,
    FiniteScm,
    GaussianBlock,
    LinearScm,
    MixedGraph,
    ScmError,
    TabularMechanism,
    augmented_graph,
    canonicalize,
    functional_graph,
    functional_parents,
    mechanisms_equivalent,
    parse,
    serialize,
)

F = Fraction


class TestValidate:
    """A model that breaks Definition 2.1 raises ``ScmError`` when it is built."""

    def test_unnormalized_measure(self):
        m, _ = zoo.equivalence_pair()
        with pytest.raises(ScmError, match="invalid model: measure of E not normalized: sums to 3/4"):
            m.replace(measure={"E": {-1: F(1, 2), 0: F(0), 1: F(1, 4)}})

    def test_partial_table(self):
        dom = FiniteDomain((0, 1))
        with pytest.raises(ScmError, match="invalid model: mechanism table of X is not total: 1 rows, expected 2"):
            FiniteScm({"X": dom}, {"E": dom}, {"E": zoo.uniform(0, 1)},
                          {"X": TabularMechanism(("E",), {(0,): 0})})

    def test_linear_shape_violation(self):
        m = zoo.interventions_linear()
        with pytest.raises(ScmError, match=r"invalid model: Gamma has shape \(3, 2\), expected \(3, 3\)"):
            LinearScm(m.endogenous, m.blocks, m.B, [[1, 0], [0, 1], [0, 0]])

    def test_linear_non_psd(self):
        with pytest.raises(ScmError, match="invalid model: block W covariance is not positive semi-definite"):
            GaussianBlock("W", ("E1", "E2"), [0, 0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("measure, mechanisms, message", [
        ({"E": {0: F(3, 2), 1: F(-1, 2)}}, None, "measure of E has a negative entry at 1"),
        ({"E": {0: F(1, 2), 2: F(1, 2)}}, None, "measure of E assigns probability to 2 outside its domain"),
        ({}, None, "exogenous index E has no probability table"),
        ({"E": {0: F(1)}, "U": {0: F(1)}}, None, "measure declared for unknown exogenous index U"),
        (None, {}, "endogenous index X has no mechanism"),
        (None, {"X": TabularMechanism(("Y",), {(0,): 0, (1,): 1})},
         r"mechanism of X references undeclared indices \['Y'\]"),
        (None, {"X": TabularMechanism(("E",), {(0,): 0, (1,): 1}), "Y": TabularMechanism.constant(0)},
         "mechanism declared for unknown endogenous index Y"),
    ])
    def test_each_finite_invariant(self, measure, mechanisms, message):
        dom = FiniteDomain((0, 1))
        measure = {"E": zoo.uniform(0, 1)} if measure is None else measure
        mechanisms = {"X": TabularMechanism(("E",), {(0,): 0, (1,): 1})} if mechanisms is None else mechanisms
        with pytest.raises(ScmError, match=f"^invalid model: {message}$"):
            FiniteScm({"X": dom}, {"E": dom}, measure, mechanisms)

    @pytest.mark.parametrize("build, message", [
        (lambda b: LinearScm(("X", "X"), b, [[0.0, 0.0], [0.0, 0.0]], [[0.0], [0.0]]), "duplicate endogenous names"),
        (lambda b: LinearScm(("X",), b + b[:1], [[0.0]], [[1.0, 1.0]]), "duplicate exogenous coordinate names"),
        (lambda b: LinearScm(("X",), b + (GaussianBlock("E", ("F",), [0.0], [[1.0]]),), [[0.0]], [[1.0, 1.0]]),
         "duplicate block names"),
        (lambda b: LinearScm(("E",), b, [[0.0]], [[1.0]]), "endogenous names collide with exogenous names"),
        (lambda b: LinearScm(("X", "Y"), b, [[0.0, 0.0, 0.0]], [[1.0], [1.0]]),
         r"B has shape \(1, 3\), expected \(2, 2\)"),
        (lambda b: LinearScm(("X",), b, [[0.0]], [[1.0]], [0.0, 1.0]), r"c has shape \(2,\), expected \(1,\)"),
        (lambda b: GaussianBlock("E", ("E",), [0.0, 1.0], [[1.0]]), r"block E mean has shape \(2,\), expected \(1,\)"),
        (lambda b: GaussianBlock("E", ("E",), [0.0], [[1.0, 0.0]]),
         r"block E covariance has shape \(1, 2\), expected \(1, 1\)"),
        (lambda b: GaussianBlock("W", ("E1", "E2"), [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]),
         "block W covariance is not symmetric"),
    ])
    def test_each_linear_invariant(self, build, message):
        with pytest.raises(ScmError, match=f"^invalid model: {message}$"):
            build(zoo.std_blocks("E"))

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    @pytest.mark.parametrize("build, what", [
        (lambda b, x: LinearScm(("X",), b, [[x]], [[1.0]]), "B"),
        (lambda b, x: LinearScm(("X",), b, [[0.0]], [[x]]), "Gamma"),
        (lambda b, x: LinearScm(("X",), b, [[0.0]], [[1.0]], [x]), "c"),
        (lambda b, x: GaussianBlock("W", ("E1", "E2"), [0.0, x], [[1.0, 0.0], [0.0, 1.0]]), "block W mean"),
        (lambda b, x: GaussianBlock("W", ("E1", "E2"), [0.0, 0.0], [[1.0, x], [x, 1.0]]), "block W covariance"),
    ])
    def test_a_non_finite_linear_entry(self, build, what, bad):
        # an inf mean once gave mean 0, and a NaN covariance read "not symmetric"
        with pytest.raises(ScmError, match=f"^invalid model: {what} has a non-finite entry$"):
            build(zoo.std_blocks("E"), bad)

    def test_an_output_outside_the_domain_is_legal(self):
        # x = 7 holds for no x in {0, 1}: the model builds, and has no solution at E = 1
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X": dom}, {"E": dom}, {"E": zoo.uniform(0, 1)},
                      {"X": TabularMechanism(("E",), {(0,): 0, (1,): 7})})
        with pytest.raises(scmkit.NotSolvable) as caught:
            scmkit.observational_distribution(m)
        assert caught.value.witness == {"e": {"E": 1}}


class TestNotAModel:
    @pytest.mark.parametrize("call", [
        lambda x: scmkit.solvable_wrt(x, ["X"]),
        lambda x: scmkit.uniquely_solvable_wrt(x, ["X"]),
        lambda x: scmkit.solve_map(x, ["X"]),
        lambda x: scmkit.observational_distribution(x),
        lambda x: scmkit.functional_parents(x, "X"),
        lambda x: scmkit.canonicalize(x),
        lambda x: scmkit.serialize(x),
        lambda x: scmkit.intervene(x, {}),
        lambda x: scmkit.twin(x),
        lambda x: scmkit.marginalize(x, []),
        lambda x: scmkit.marginalize(x, ["X"]),
        lambda x: scmkit.extend(x),
    ], ids=["solvable_wrt", "uniquely_solvable_wrt", "solve_map", "observational_distribution",
            "functional_parents", "canonicalize", "serialize", "intervene", "twin",
            "marginalize_none", "marginalize_some", "extend"])
    @pytest.mark.parametrize("x", [object(), MixedGraph(["X"], [("X", "X")])], ids=["object", "graph"])
    def test_every_family_operation_rejects_a_non_model(self, call, x):
        with pytest.raises(ScmError, match="^not an SCM: "):
            call(x)


class TestTabularMechanism:
    @pytest.mark.parametrize("args", [(), ("E",), ("X", "E"), ("Y", "X", "E")])
    def test_lookup_by_argument_names_survives_copy_and_pickle(self, args):
        table = {combo: sum(combo) % 2 for combo in itertools.product((0, 1), repeat=len(args))}
        mech = TabularMechanism(args, table)
        for m in (mech, copy.copy(mech), copy.deepcopy(mech), pickle.loads(pickle.dumps(mech))):
            for combo, out in table.items():
                assert m({"Z": 5, **dict(zip(args, combo))}) == out
        if args:
            with pytest.raises(ScmError, match="no entry"):
                mech({**dict.fromkeys(args, 0), args[0]: 9})


class TestMechanismsEquivalent:
    def test_quadratic_equals_identity_off_null_set(self):
        m1, m2 = zoo.equivalence_pair()
        assert mechanisms_equivalent(m1, m2)

    def test_identical_tables(self):
        m1, _ = zoo.equivalence_pair()
        assert mechanisms_equivalent(m1, m1.replace())

    def test_full_support_breaks_equivalence(self):
        m1, m2 = zoo.equivalence_pair_full_support()
        assert not mechanisms_equivalent(m1, m2)

    def test_signature_mismatch(self):
        m1, _ = zoo.equivalence_pair()
        other = m1.replace(measure={"E": zoo.uniform(-1, 0, 1)})
        with pytest.raises(DomainMismatchError):
            mechanisms_equivalent(m1, other)

    def test_rows_match_the_walk_oracle(self):
        # pairs that differ in one table row, half of them against the
        # canonical model, whose mechanisms read other arguments in another order
        rng = random.Random(131)
        seen = Counter()
        for _ in range(400):
            m1 = zoo.random_finite_scm(rng, self_arg_p=0.4)
            base = canonicalize(m1) if rng.random() < 0.5 else m1
            k = rng.choice(m1.endogenous_names)
            mech = base.mechanisms[k]
            table = dict(mech.table)
            table[rng.choice(sorted(table))] = rng.choice(m1.endogenous[k].values)
            m2 = base.replace(mechanisms={**base.mechanisms, k: TabularMechanism(mech.args, table)})
            verdict = mechanisms_equivalent(m1, m2)
            assert verdict == zoo.exhaustive_mechanisms_equivalent(m1, m2), (m1, m2)
            assert mechanisms_equivalent(m2, m1) == verdict, (m1, m2)
            seen[verdict, base is m1, mech.args != m1.mechanisms[k].args] += 1
        assert all(seen[v, True, False] >= 40 for v in (True, False)), seen
        assert all(seen[v, False, True] >= 20 for v in (True, False)), seen

    def test_a_missing_row_fails_loudly(self):
        # a partial table never reaches the comparison: the model is not built
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X": dom}, {"E": dom}, {"E": zoo.uniform(0, 1)},
                      {"X": TabularMechanism(("E",), {(0,): 0, (1,): 0})})
        with pytest.raises(ScmError, match="invalid model: mechanism table of X is not total: 1 rows, expected 2"):
            m.replace(mechanisms={"X": TabularMechanism(("E",), {(0,): 0})})


class TestFunctionalParents:
    def test_constant_in_x(self):
        m, _ = zoo.equivalence_pair()
        assert functional_parents(m, "X") == {"E"}

    def test_quadratic_self_dependence(self):
        m = zoo.augmented_example()
        assert functional_parents(m, "X4") == {"X2", "X4", "E3"}

    def test_all_parents_of_example(self):
        m = zoo.augmented_example()
        assert functional_parents(m, "X1") == {"E1", "E2"}
        assert functional_parents(m, "X2") == {"E2"}
        assert functional_parents(m, "X3") == {"X1", "X2", "X5"}
        assert functional_parents(m, "X5") == {"X3", "X4"}

    def test_zero_probability_noise_is_invisible(self):
        dom = FiniteDomain((0, 1))
        m = FiniteScm(
            {"X": dom}, {"E": dom}, {"E": {0: F(1), 1: F(0)}},
            {"X": TabularMechanism(("E",), {(0,): 0, (1,): 1})},
        )
        assert functional_parents(m, "X") == set()

    def test_linear_self_loop(self):
        m = LinearScm(("X1", "X2"), zoo.std_blocks("E1"),
                      [[1.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
        assert "X1" in functional_parents(m, "X1")

    def test_linear_self_loop_iff_not_uniquely_solvable_singleton(self):
        from scmkit import uniquely_solvable_wrt

        # B_kk = 1 after the canonicalization attempt <=> singleton not uniquely solvable
        for bkk in (0.0, 0.5, 1.0, -1.0, 2.0):
            m = LinearScm(("X1",), zoo.std_blocks("E1"), [[bkk]], [[1.0]])
            cm = canonicalize(m)
            has_loop = cm.B[0, 0] == 1.0
            assert has_loop == ("X1" in functional_parents(m, "X1"))
            assert has_loop == (not uniquely_solvable_wrt(m, ["X1"]))

    def test_finite_analogue_of_unit_diagonal(self):
        # x = x + r over a finite domain: the relation [0 = r] keeps the
        # variable as its own parent, mirroring the B_kk = 1 linear case
        dom = FiniteDomain((0, 1))
        m = FiniteScm(
            {"X": dom, "R": dom}, {}, {},
            {
                "X": TabularMechanism(("X", "R"), {
                    (x, r): x if r == 0 else 1 - x for x in (0, 1) for r in (0, 1)
                }),
                "R": TabularMechanism.constant(0),
            },
        )
        assert "X" in functional_parents(m, "X")

    def test_finite_parents_match_the_exhaustive_oracle(self):
        """The one pass per table argument against ``zoo.depends_on``, which
        evaluates the relation at every combination of the coordinates."""
        rng = random.Random(83)
        models = [zoo.random_finite_scm(rng, max_endo=5, max_card=4, self_arg_p=0.4) for _ in range(200)]
        models += [zoo.random_component_scm(rng, 1 + trial % 4, outside_p=0.3) for trial in range(120)]
        seen = Counter()
        for m in models:
            endo = set(m.endogenous_names)
            parents = {k: zoo.exhaustive_parents(m, k) for k in m.endogenous_names}
            edges = {(v, k) for k, pa in parents.items() for v in pa}
            shared = {}
            for k, pa in parents.items():
                for j in pa - endo:
                    shared.setdefault(j, []).append(k)
            bidirected = {(u, v) for ks in shared.values() for u, v in itertools.combinations(sorted(ks), 2)}
            for k in m.endogenous_names:
                assert functional_parents(m, k) == parents[k], (m.mechanisms[k], k)
            assert augmented_graph(m) == MixedGraph(m.endogenous_names + m.exogenous_names, edges)
            assert functional_graph(m) == MixedGraph(
                m.endogenous_names, {e for e in edges if e[0] in endo}, bidirected)
            for k, pa in parents.items():
                reads = set(m.mechanisms[k].args)
                seen[k in pa, k in reads] += 1  # every self-loop case, read or not
                seen["noise dropped"] += any(j in m.exogenous for j in reads - pa)
                seen["variable dropped"] += any(v in endo for v in reads - pa - {k})
        assert all(seen[case] for case in [(True, True), (True, False), (False, True), (False, False),
                                           "noise dropped", "variable dropped"]), seen

    def test_a_missing_table_row_fails_loudly(self):
        # a row keyed outside the argument domains leaves one missing
        dom = FiniteDomain((0, 1))
        with pytest.raises(ScmError, match=r"invalid model: mechanism table of X misses entry for \(1,\)"):
            FiniteScm({"X": dom}, {"E": dom}, {"E": zoo.uniform(0, 1)},
                      {"X": TabularMechanism(("E",), {(0,): 0, (2,): 1})})

    def test_outputs_outside_the_domain_are_one_value(self):
        # x = 7 or x = 8: no fixed point either way, so E changes nothing
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X": dom}, {"E": dom}, {"E": zoo.uniform(0, 1)},
                      {"X": TabularMechanism(("E",), {(0,): 7, (1,): 8})})
        assert functional_parents(m, "X") == zoo.exhaustive_parents(m, "X") == {"X"}

    def test_linear_zero_variance_coordinate(self):
        blocks = (GaussianBlock("E1", ("E1",), [3.0], [[0.0]]),)
        m = LinearScm(("X",), blocks, [[0.0]], [[1.0]])
        assert functional_parents(m, "X") == set()


class TestGraphs:
    def test_augmented_graph_matches_figure(self):
        m = zoo.augmented_example()
        expected = MixedGraph(
            ["X1", "X2", "X3", "X4", "X5", "E1", "E2", "E3"],
            [("X1", "X3"), ("X2", "X3"), ("X2", "X4"), ("X3", "X5"),
             ("X5", "X3"), ("X4", "X5"), ("X4", "X4"),
             ("E1", "X1"), ("E2", "X1"), ("E2", "X2"), ("E3", "X4")],
        )
        assert augmented_graph(m) == expected

    def test_functional_graph_matches_figure(self):
        m = zoo.augmented_example()
        expected = MixedGraph(
            ["X1", "X2", "X3", "X4", "X5"],
            [("X1", "X3"), ("X2", "X3"), ("X2", "X4"), ("X3", "X5"),
             ("X5", "X3"), ("X4", "X5"), ("X4", "X4")],
            [("X1", "X2")],
        )
        assert functional_graph(m) == expected

    def test_constant_mechanisms_give_edgeless_graph(self):
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X": dom}, {"E": dom}, {"E": zoo.uniform(0, 1)},
                      {"X": TabularMechanism.constant(0)})
        g = augmented_graph(m)
        assert set(g.nodes) == {"X", "E"}
        assert not g.directed

    def test_interventions_example_augmented_graph(self):
        m = zoo.interventions_linear()
        g = augmented_graph(m)
        assert g == MixedGraph(
            ["X1", "X2", "X3", "E1", "E2", "E3"],
            [("X1", "X2"), ("X2", "X1"), ("X3", "X2"), ("X1", "X3"),
             ("E1", "X1"), ("E2", "X2"), ("E3", "X3")],
        )

    def test_latent_confounder_functional_graph(self):
        m = zoo.latent_confounder()
        g = functional_graph(m)
        assert g.directed == {("X1", "X2")}
        assert g.bidirected == {("X1", "X2")}

    def test_no_edges_into_exogenous(self):
        g = augmented_graph(zoo.augmented_example())
        for _, head in g.directed:
            assert head.startswith("X")

    def test_singleton_with_private_noise(self):
        m, _ = zoo.equivalence_pair()
        fg = functional_graph(m)
        assert fg.nodes == ("X",)
        assert not fg.directed and not fg.bidirected

    def test_linear_shared_block_gives_bidirected_edge(self):
        m = zoo.treatment_twin()
        fg = functional_graph(m)
        assert fg.directed == frozenset()
        assert fg.bidirected == {("X2", "X2'")}

    def test_equivalent_models_same_graph(self):
        m1, m2 = zoo.equivalence_pair()
        assert augmented_graph(m1) == augmented_graph(m2)

    def test_models_are_frozen_so_cached_graphs_stay_valid(self):
        m = parse((Path(__file__).parent / "corpus" / "ex_chain.scm").read_text())
        assert ("X2", "X3") in functional_graph(m).directed
        with pytest.raises(TypeError):
            m.mechanisms["X3"] = TabularMechanism.constant(0)
        for mapping in (m.endogenous, m.exogenous, m.expressions, m.mechanisms["X3"].table):
            with pytest.raises(TypeError):
                mapping["X9"] = 0
        m2 = zoo.equivalence_pair()[0]
        with pytest.raises(TypeError):
            m2.measure["E"][0] = F(1)
        with pytest.raises(TypeError):
            m2.measure["E2"] = {}
        # replace() still builds the changed model, with its own caches
        changed = m.replace(mechanisms={**m.mechanisms, "X3": TabularMechanism.constant(0)})
        assert ("X2", "X3") not in functional_graph(changed).directed
        assert ("X2", "X3") in functional_graph(m).directed

    def test_noise_support_is_kept_per_model(self):
        t = FiniteDomain((0, 1, 2))
        m = FiniteScm({"X": t}, {"E": t}, {"E": {0: F(1, 2), 1: F(0), 2: F(1, 2)}},
                      {"X": TabularMechanism(("E",), {(e,): e for e in range(3)})})
        support = m.support("E")
        assert support == (0, 2) and m.support("E") is support
        assert m.replace().support("E") == support

    def test_attributes_cannot_be_rebound(self):
        corpus = Path(__file__).parent / "corpus"
        m = parse((corpus / "ex_chain.scm").read_text())
        lm = parse((corpus / "ex_lingauss.scm").read_text())
        assert ("X2", "X3") in functional_graph(m).directed
        assert ("X2", "X1") in functional_graph(lm).directed
        rebindings = [
            (m, "mechanisms", {**m.mechanisms, "X3": TabularMechanism.constant(0)}),
            (m, "_cache", {}),
            (lm, "B", lm.B * 0),
            (lm, "_cache", {}),
            (m.mechanisms["X3"], "table", {(0,): 0, (1,): 0}),
        ]
        for obj, name, value in rebindings:
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
        assert ("X2", "X3") in functional_graph(m).directed
        assert ("X2", "X1") in functional_graph(lm).directed
        mech = m.mechanisms["X3"]
        assert copy.copy(mech) == pickle.loads(pickle.dumps(mech)) == mech

    def test_copies_of_a_linear_model_stay_read_only(self):
        lm = parse((Path(__file__).parent / "corpus" / "ex_lingauss.scm").read_text())
        functional_graph(lm)
        for copied in (copy.copy(lm), copy.deepcopy(lm), pickle.loads(pickle.dumps(lm))):
            arrays = (copied.B, copied.Gamma, copied.c, *(a for b in copied.blocks for a in (b.mean, b.cov)))
            assert not any(a.flags.writeable for a in arrays)
            assert copied._cache == {}
            assert serialize(copied) == serialize(lm)

    def test_functional_graph_directed_part_is_induced(self):
        m = zoo.augmented_example()
        aug = augmented_graph(m)
        fun = functional_graph(m)
        induced = aug.induced(m.endogenous_names)
        assert fun.directed == induced.directed


class TestCanonicalize:
    def test_linear_self_feedback_normalized(self):
        m = zoo.not_canonical_linear()
        cm = canonicalize(m)
        assert cm.B[0, 0] == 0.0
        assert cm.Gamma[0, 0] == pytest.approx(0.5)
        assert cm.Gamma[0, 1] == pytest.approx(0.5)

    def test_already_canonical_unchanged(self):
        m = zoo.interventions_linear()
        cm = canonicalize(m)
        assert (cm.B == m.B).all()
        assert (cm.Gamma == m.Gamma).all()

    def test_genuine_self_loop_untouched(self):
        m = LinearScm(("X",), zoo.std_blocks("E1"), [[1.0]], [[1.0]])
        cm = canonicalize(m)
        assert cm.B[0, 0] == 1.0

    def test_finite_arguments_shrink_to_parents(self):
        m = zoo.augmented_example()
        cm = canonicalize(m)
        for k in m.endogenous_names:
            assert set(cm.mechanisms[k].args) == functional_parents(m, k)

    def test_finite_equivalence_random(self):
        rng = random.Random(20240911)
        for _ in range(25):
            m = zoo.random_finite_scm(rng)
            cm = canonicalize(m)
            assert mechanisms_equivalent(m, cm)
            # idempotent up to mechanism equivalence
            assert mechanisms_equivalent(cm, canonicalize(cm))

    def test_a_dropped_noise_is_pinned_at_its_first_support_value(self):
        # X = X on {0, 1} whatever E is, so E is no functional parent, but the
        # self-loop stays and its table row at X = 2 reads E: 1 at E = 0 (no
        # mass), 0 at E = 1 (the first support value) and 1 at E = 2
        x, e = zoo.fd(0, 1, 2), zoo.fd(0, 1, 2)
        mech = zoo.postab({"X": x, "E": e}, ("X", "E"), lambda X, E: X if X < 2 else (1, 0, 1)[E])
        m = FiniteScm({"X": x}, {"E": e}, {"E": {0: F(0), 1: F(1, 2), 2: F(1, 2)}}, {"X": mech})
        cm = canonicalize(m)
        assert dict(cm.mechanisms["X"].table) == {(0,): 0, (1,): 1, (2,): 0}
        assert mechanisms_equivalent(m, cm)

    def test_zero_variance_coordinate_folded_into_intercept(self):
        blocks = (GaussianBlock("E1", ("E1",), [3.0], [[0.0]]),)
        m = LinearScm(("X",), blocks, [[0.0]], [[2.0]])
        cm = canonicalize(m)
        assert cm.Gamma[0, 0] == 0.0
        assert cm.c[0] == pytest.approx(6.0)


class TestJsonExport:
    def test_finite_json(self):
        m, _ = zoo.equivalence_pair()
        obj = m.to_json_obj()
        assert obj["family"] == "finite"
        assert obj["measure"]["E"] == ["1/2", "0", "1/2"]
        assert obj["mechanisms"]["X"]["args"] == ["E"]

    def test_linear_json(self):
        m = zoo.interventions_linear()
        obj = m.to_json_obj()
        assert obj["family"] == "linear"
        assert obj["B"][1] == [1.0, 0.0, 1.0]
