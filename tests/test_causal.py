import random
from fractions import Fraction

import pytest

import model_zoo as zoo
from scmkit import (
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
    observationally_equivalent,
)

F = Fraction


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
