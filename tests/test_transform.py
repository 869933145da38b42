import random
from fractions import Fraction

import numpy as np
import pytest

import model_zoo as zoo
from scmkit import (
    FiniteDomain,
    FiniteScm,
    NotUniquelySolvable,
    ScmError,
    TabularMechanism,
    UnknownNameError,
    augmented_graph,
    extend,
    functional_graph,
    intervene,
    intervene_graph,
    latent_projection,
    marginalize,
    mechanisms_equivalent,
    observational_distribution,
    solvable_wrt,
    twin,
    uniquely_solvable_wrt,
)

F = Fraction


class TestIntervene:
    def test_empty_intervention_is_identity(self):
        m = zoo.interventional_equiv_m()
        assert mechanisms_equivalent(m, intervene(m, {}))

    def test_constant_mechanism_installed(self):
        m = zoo.interventional_equiv_m()
        mi = intervene(m, {"X2": 1})
        assert mi.mechanisms["X2"].args == ()
        assert mi.mechanisms["X2"].table == {(): 1}

    def test_linear_row_replaced(self):
        m = zoo.interventions_linear()
        mi = intervene(m, {"X3": 1.0})
        assert (mi.B[2, :] == 0).all()
        assert (mi.Gamma[2, :] == 0).all()
        assert mi.c[2] == 1.0
        assert not solvable_wrt(mi, mi.endogenous_names)

    def test_value_outside_domain(self):
        m = zoo.interventional_equiv_m()
        with pytest.raises(ScmError):
            intervene(m, {"X2": 7})

    def test_unknown_target(self):
        m = zoo.interventional_equiv_m()
        with pytest.raises(UnknownNameError):
            intervene(m, {"Y": 1})

    def test_graph_commutation_random(self):
        rng = random.Random(31)
        for _ in range(30):
            m = zoo.random_finite_scm(rng, self_arg_p=0.3)
            for iv in zoo.random_interventions(rng, m, count=1):
                lhs = augmented_graph(intervene(m, iv))
                rhs = intervene_graph(augmented_graph(m), list(iv))
                assert lhs == rhs

    def test_disjoint_interventions_commute(self):
        rng = random.Random(37)
        for _ in range(20):
            m = zoo.random_finite_scm(rng)
            names = list(m.endogenous_names)
            if len(names) < 2:
                continue
            a, b = rng.sample(names, 2)
            iva = {a: rng.choice(m.endogenous[a].values)}
            ivb = {b: rng.choice(m.endogenous[b].values)}
            ab = intervene(intervene(m, iva), ivb)
            ba = intervene(intervene(m, ivb), iva)
            assert mechanisms_equivalent(ab, ba)

    def test_preserves_acyclicity(self):
        m = zoo.chain_substitution()
        for iv in ({"X1": 1}, {"X2": 0}, {"X1": 0, "X3": 1}):
            assert augmented_graph(intervene(m, iv)).is_acyclic()


class TestTwin:
    def test_structure_of_twin(self):
        m = zoo.causal_graph_marginalization()
        tw = twin(m)
        assert set(tw.endogenous_names) == {"X1", "X2", "X3", "X1'", "X2'", "X3'"}
        assert tw.exogenous_names == m.exogenous_names
        g = augmented_graph(tw)
        assert ("E2", "X2") in g.directed and ("E2", "X2'") in g.directed

    def test_single_variable_twin(self):
        m, _ = zoo.equivalence_pair()
        tw = twin(m)
        assert set(tw.endogenous_names) == {"X", "X'"}
        dist = observational_distribution(tw)
        # both copies read the same noise, so they are perfectly coupled
        assert all(cell[0] == cell[1] for cell in dist.probs)

    def test_solutions_lift_and_project(self):
        rng = random.Random(41)
        lifted = 0
        for _ in range(30):
            m = zoo.random_finite_scm(rng, max_endo=3, self_arg_p=0.35)
            tw = twin(m)
            from scmkit.analysis import _fibers, _support_assignments

            for e_values, _ in _support_assignments(m, m.exogenous_names):
                e_assign = dict(zip(m.exogenous_names, e_values))
                base = sorted(_fibers(m, m.endogenous_names, e_assign))
                doubled = sorted(_fibers(tw, tw.endogenous_names, e_assign))
                # twin fibers are exactly the pairs of base fiber elements
                expected = sorted(x + y for x in base for y in base)
                assert doubled == expected
                lifted += 1
        assert lifted > 20

    def test_twin_commutes_with_intervention(self):
        m = zoo.interventional_equiv_m()
        iv = {"X1": 1}
        lhs = twin(intervene(m, iv))
        rhs = intervene(twin(m), {"X1": 1, "X1'": 1})
        assert mechanisms_equivalent(lhs, rhs)

    def test_name_collision(self):
        dom = FiniteDomain((0, 1))
        m = FiniteScm({"X": dom, "X'": dom}, {}, {}, {
            "X": TabularMechanism.constant(0),
            "X'": TabularMechanism.constant(0),
        })
        with pytest.raises(ScmError):
            twin(m)

    def test_linear_twin_blocks_shared(self):
        m = zoo.lin_gauss_anm()
        tw = twin(m)
        assert tw.endogenous_names == ("X1", "X2", "X1'", "X2'")
        assert tw.blocks == m.blocks
        assert tw.B.shape == (4, 4)
        assert (tw.B[:2, 2:] == 0).all()


class TestMarginalize:
    def test_empty_latent_identity(self):
        m = zoo.interventional_equiv_m()
        assert mechanisms_equivalent(m, marginalize(m, []))

    def test_linear_marginalization_example(self):
        m = zoo.marginalization_linear()
        marg = marginalize(m, ["X3", "X4", "X5"])
        assert marg.endogenous_names == ("X1", "X2")
        coords = marg.coord_names
        # f1 = e2 + e3, f2 = x1 + e2 + e4, exactly
        expected_rows = {
            "X1": ({}, {"E2": 1.0, "E3": 1.0}),
            "X2": ({"X1": 1.0}, {"E2": 1.0, "E4": 1.0}),
        }
        for name, (brow, grow) in expected_rows.items():
            i = marg.endo_index(name)
            for other in marg.endogenous_names:
                assert marg.B[i, marg.endo_index(other)] == pytest.approx(
                    brow.get(other, 0.0), abs=1e-12
                )
            for coord in coords:
                assert marg.Gamma[i, coords.index(coord)] == pytest.approx(
                    grow.get(coord, 0.0), abs=1e-12
                )
            assert marg.c[i] == pytest.approx(0.0, abs=1e-12)

    def test_requires_unique_solvability(self):
        m = zoo.unique_ancestral()
        with pytest.raises(NotUniquelySolvable) as err:
            marginalize(m, ["X2"])
        assert err.value.witness is not None

    def test_marginal_interventionally_equivalent_finite(self):
        from scmkit import interventionally_equivalent

        m = zoo.no_latent_projection()
        marg = marginalize(m, ["X1", "X2"])
        rep = interventionally_equivalent(m, marg, ["X3", "X4"])
        assert rep.verdict

    def test_marginal_interventionally_equivalent_random(self):
        from scmkit import interventionally_equivalent

        rng = random.Random(67)
        checked = 0
        while checked < 12:
            m = zoo.random_finite_scm(rng, max_endo=3, max_exo=2, max_card=3, self_arg_p=0.3)
            names = list(m.endogenous_names)
            latent = [rng.choice(names)]
            if not uniquely_solvable_wrt(m, latent):
                continue
            margin = [n for n in names if n not in latent]
            marg = marginalize(m, latent)
            assert interventionally_equivalent(m, marg, margin).verdict, (m, latent)
            checked += 1

    def test_marginal_law_equals_projected_law(self):
        from scmkit import NotSolvable, NotUniquelySolvable

        rng = random.Random(73)
        checked = 0
        for _ in range(80):
            m = zoo.random_finite_scm(rng, max_endo=4, max_exo=2, max_card=3, self_arg_p=0.3)
            names = list(m.endogenous_names)
            latent = [rng.choice(names)]
            if not uniquely_solvable_wrt(m, latent):
                continue
            marg = marginalize(m, latent)
            keep = [n for n in names if n not in latent]
            try:
                full = observational_distribution(m).marginal(keep)
            except (NotSolvable, NotUniquelySolvable):
                continue
            assert observational_distribution(marg).probs == full.probs
            checked += 1
        assert checked > 20

    def test_marginal_counterfactually_equivalent(self):
        from scmkit import counterfactually_equivalent

        rng = random.Random(71)
        checked = 0
        while checked < 5:
            m = zoo.random_finite_scm(rng, max_endo=3, max_exo=2, max_card=2, self_arg_p=0.3)
            names = list(m.endogenous_names)
            latent = [names[-1]]
            if not uniquely_solvable_wrt(m, latent):
                continue
            margin = [n for n in names if n not in latent]
            marg = marginalize(m, latent)
            assert counterfactually_equivalent(m, marg, margin).verdict, (m, latent)
            checked += 1

    def test_composition_equals_union(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(60):
            m = zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.25)
            names = list(m.endogenous_names)
            if len(names) < 3:
                continue
            l1 = [names[0]]
            l2 = [names[1]]
            if not uniquely_solvable_wrt(m, l1):
                continue
            step1 = marginalize(m, l1)
            if not uniquely_solvable_wrt(step1, l2):
                continue
            if not uniquely_solvable_wrt(m, l1 + l2):
                continue
            assert mechanisms_equivalent(marginalize(step1, l2), marginalize(m, l1 + l2))
            checked += 1
        assert checked > 10

    def test_commutes_with_intervention(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(60):
            m = zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.25)
            names = list(m.endogenous_names)
            latent = [names[-1]]
            if not uniquely_solvable_wrt(m, latent):
                continue
            target = names[0]
            value = rng.choice(m.endogenous[target].values)
            lhs = marginalize(intervene(m, {target: value}), latent)
            rhs = intervene(marginalize(m, latent), {target: value})
            assert mechanisms_equivalent(lhs, rhs)
            checked += 1
        assert checked > 10

    def test_latent_projection_inclusion_under_conditions(self):
        m = zoo.marginalization_linear()
        latent = ["X3", "X4", "X5"]
        # condition (ii): unique solvability w.r.t. ancestral subsets inside the latent set
        sub = augmented_graph(m).induced(latent)
        for v in latent:
            assert uniquely_solvable_wrt(m, sorted(sub.ancestors_of([v])))
        marg_graph = augmented_graph(marginalize(m, latent))
        projected = latent_projection(augmented_graph(m), latent)
        assert marg_graph.is_subgraph_of(projected)

    def test_no_latent_projection_counterexample(self):
        m = zoo.no_latent_projection()
        latent = ["X1", "X2"]
        assert uniquely_solvable_wrt(m, latent)
        # condition (ii) fails: {X2} is ancestral inside the latent set but not uniquely solvable
        assert not uniquely_solvable_wrt(m, ["X2"])
        marg_graph = augmented_graph(marginalize(m, latent))
        projected = latent_projection(augmented_graph(m), latent)
        assert not marg_graph.is_subgraph_of(projected)
        assert ("X3", "X4") in marg_graph.directed

    def test_latent_projection_strict_subgraph_example(self):
        m = zoo.latent_projection_scm()
        marg = marginalize(m, ["X3"])
        g = augmented_graph(marg)
        # the marginal mechanism of X2 is the constant 0: edge X1 -> X2 vanishes
        assert ("X1", "X2") not in g.directed
        projected = latent_projection(augmented_graph(m), ["X3"])
        assert ("X1", "X2") in projected.directed
        assert g.is_subgraph_of(projected)

    def test_marginalize_can_create_self_loop(self):
        dom = FiniteDomain((0, 1))
        endo = {"X1": dom, "X2": dom}
        domains = dict(endo)
        m = FiniteScm(endo, {}, {}, {
            "X1": zoo.tab(domains, ("X2",), lambda X2: X2),
            "X2": zoo.tab(domains, ("X1",), lambda X1: 1 - X1),
        })
        assert uniquely_solvable_wrt(m, ["X2"])
        marg = marginalize(m, ["X2"])
        assert ("X1", "X1") in augmented_graph(marg).directed


class TestExtend:
    def test_latent_confounder_extension(self):
        m = zoo.latent_confounder()
        ext = extend(m)
        assert set(ext.endogenous_names) == {"X1", "X2", "E1'"}
        g = augmented_graph(ext)
        assert ("E1", "E1'") in g.directed
        assert ("E1'", "X1") in g.directed and ("E1'", "X2") in g.directed
        assert functional_graph(ext).bidirected == frozenset()

    def test_single_noise_chain(self):
        m, _ = zoo.equivalence_pair()
        ext = extend(m)
        assert set(ext.endogenous_names) == {"X", "E'"}
        g = augmented_graph(ext)
        assert ("E", "E'") in g.directed and ("E'", "X") in g.directed

    def test_marginalizing_copies_recovers_model(self):
        rng = random.Random(53)
        for _ in range(20):
            m = zoo.random_finite_scm(rng, max_endo=3, self_arg_p=0.3)
            ext = extend(m)
            copies = [j + "'" for j in m.exogenous_names]
            back = marginalize(ext, copies)
            assert mechanisms_equivalent(back, m)

    def test_linear_extend_and_marginalize_back(self):
        m = zoo.lin_gauss_anm()
        ext = extend(m)
        back = marginalize(ext, [c + "'" for c in m.coord_names])
        assert np.allclose(back.B, m.B)
        assert np.allclose(back.Gamma, m.Gamma)
        assert np.allclose(back.c, m.c)
