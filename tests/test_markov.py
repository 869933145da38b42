import itertools
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
import scmkit as sk
from scmkit import (
    DiscreteDistribution,
    FiniteDomain,
    GaussianBlock,
    GaussianDistribution,
    LinearScm,
    ScmError,
    SolvabilityError,
    UnknownNameError,
    conditional_independent,
    d_separated,
    functional_graph,
    observational_distribution,
    sigma_separated,
    verify_markov,
)
from scmkit import markov
from scmkit.analysis import _fibers, _support_assignments

F = Fraction


def check_against_oracles(m, report):
    """Every CI verdict of ``report`` equals the ``Fraction`` oracle's, and the
    memoized component solver equals the exhaustive fiber at every support
    point.  Returns the verdict counts (independent, dependent)."""
    dist = observational_distribution(m)
    verdicts = [0, 0]
    for e in report.entries:
        assert zoo.oracle_ci(dist, e.a, e.b, e.s) == e.independent, (e.a, e.b, e.s)
        verdicts[not e.independent] += 1
    endo = m.endogenous_names
    for e_assign, _ in _support_assignments(m, m.exogenous_names):
        assert sorted(_fibers(m, endo, e_assign)) == sorted(zoo.exhaustive_fiber(m, endo, e_assign)), e_assign
    return verdicts


def product_distribution():
    dom = FiniteDomain((0, 1))
    probs = {}
    for a in (0, 1):
        for b in (0, 1):
            probs[(a, b)] = F(1, 4)
    return DiscreteDistribution(("A", "B"), {"A": dom, "B": dom}, probs)


class TestConditionalIndependence:
    def test_product_distribution(self):
        assert conditional_independent(product_distribution(), ["A"], ["B"])

    def test_copy_dependence(self):
        dom = FiniteDomain((0, 1))
        probs = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        dist = DiscreteDistribution(("A", "B"), {"A": dom, "B": dom}, probs)
        assert not conditional_independent(dist, ["A"], ["B"])

    def test_deterministic_chain_screens_off(self):
        # X2 = X1, X3 = X2: X1 and X3 are independent given X2 (exact tables)
        dom = FiniteDomain((0, 1))
        probs = {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)}
        dist = DiscreteDistribution(("X1", "X2", "X3"), {v: dom for v in ("X1", "X2", "X3")}, probs)
        assert conditional_independent(dist, ["X1"], ["X3"], ["X2"])
        assert not conditional_independent(dist, ["X1"], ["X3"])

    def test_counts_are_the_law_times_the_common_denominator(self):
        dom = FiniteDomain((0, 1, 2))
        dist = DiscreteDistribution(("A", "B"), {"A": dom, "B": dom},
                                    {(0, 2): F(1, 6), (2, 1): F(1, 4), (1, 1): F(7, 12)})
        den, n = dist.counts()
        assert den == 12 and n.dtype == np.int64
        assert n.tolist() == [[0, 0, 2], [0, 7, 0], [0, 3, 0]]
        assert dist.counts() is dist.counts()
        with pytest.raises(TypeError):
            dist.probs[(0, 0)] = F(0)

    def test_counts_reject_a_cell_outside_the_domain(self):
        dom = FiniteDomain((0, 1))
        dist = DiscreteDistribution(("A",), {"A": dom}, {(0,): F(1, 2), (5,): F(1, 2)})
        with pytest.raises(ScmError):
            dist.counts()

    def test_overlap_rejected(self):
        with pytest.raises(ScmError):
            conditional_independent(product_distribution(), ["A"], ["A"])

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(UnknownNameError):
            conditional_independent(product_distribution(), ["A"], ["Q"])

    def test_gaussian_partial_covariance(self):
        cov = [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        dist = GaussianDistribution(("A", "B", "C"), [0, 0, 0], cov)
        # cov(A,C) = 0.25 = 0.5 * 0.5: conditioning on B removes it
        assert conditional_independent(dist, ["A"], ["C"], ["B"])
        assert not conditional_independent(dist, ["A"], ["C"])

    def test_gaussian_verdicts_do_not_depend_on_the_noise_scale(self):
        # X = E1, Y = X + E2, Z = Y + E3: X and Y are correlated (0.71) at any
        # noise variance; X and Z are independent given Y
        def verdicts(var):
            blocks = tuple(GaussianBlock(n, (n,), [0.0], [[var]]) for n in ("E1", "E2", "E3"))
            m = LinearScm(("X", "Y", "Z"), blocks, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], np.eye(3))
            return [(e.a, e.b, e.s, e.separated, e.independent) for e in verify_markov(m, kind="d").entries]

        small, unit, large = verdicts(1e-10), verdicts(1.0), verdicts(1e10)
        assert small == unit == large
        found = {(a, b, s): ci for a, b, s, _, ci in unit}
        assert found[(("X",), ("Y",), ())] is False
        assert found[(("X",), ("Z",), ("Y",))] is True


class TestVerifyMarkov:
    def test_acyclic_chain_no_violations(self):
        m = zoo.chain_substitution()
        for kind in ("sigma", "d"):
            report = verify_markov(m, kind=kind)
            assert report.ok, [e for e in report.violations]

    def test_cycle4_sigma_holds(self):
        m = zoo.cycle4_scm()
        report = verify_markov(m, kind="sigma")
        assert report.ok

    def test_sigma_violations_subset_of_d_violations(self):
        m = zoo.cycle4_scm()
        sig = verify_markov(m, kind="sigma")
        dee = verify_markov(m, kind="d")
        sig_triples = {(e.a, e.b, e.s) for e in sig.violations}
        d_triples = {(e.a, e.b, e.s) for e in dee.violations}
        assert sig_triples <= d_triples

    def test_separation_contrast_is_visible_in_the_graph(self):
        g = functional_graph(zoo.cycle4_scm())
        assert d_separated(g, ["X1"], ["X3"], ["X2", "X4"])
        assert not sigma_separated(g, ["X1"], ["X3"], ["X2", "X4"])

    def test_precondition_failure_names_component(self):
        _, m_tilde = zoo.nonunique_selfloop_pair()
        for kind in ("sigma", "d"):
            with pytest.raises(SolvabilityError, match=r"component \['X2'\]"):
                verify_markov(m_tilde, kind=kind)

    def test_premise_names_the_first_failing_component_under_any_hash_seed(self, tmp_path):
        # three unrelated self-loops: the first in node order is named
        path = tmp_path / "loops.scm"
        path.write_text("model finite\nvar A : {0, 1}\nvar B : {0, 1}\nvar C : {0, 1}\n"
                        "eq A = A\neq B = B\neq C = C\n")
        script = ("import sys, scmkit as sk\n"
                  "try:\n    sk.verify_markov(sk.parse(open(sys.argv[1]).read()))\n"
                  "except sk.SolvabilityError as exc:\n    print(exc)\n")
        src = str(Path(sk.__file__).resolve().parents[1])
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                 capture_output=True, text=True, check=True).stdout
            assert out.strip().endswith("component ['A']"), (seed, out)

    def test_premise_matches_a_scan_of_every_component(self):
        """The premise skips singletons without a self-loop; on random models
        it still names the same first failing component, with the same
        witness, as a scan of every component in topological order."""
        rng = random.Random(97)
        models = [zoo.random_finite_scm(rng, max_endo=5, self_arg_p=0.3) for _ in range(150)]
        models += [zoo.random_component_scm(rng, 1 + trial % 3, outside_p=0.2) for trial in range(30)]
        models += [zoo.random_linear_scm(rng, singular)[0] for singular in (False, True) * 10]
        models.append(LinearScm(("X1", "X2"), zoo.std_blocks("E1"), [[0.0, 0.5], [0.0, 1.0]], [[1.0], [0.0]]))
        seen = Counter()
        for m in models:
            graph = functional_graph(m)
            failing = None
            for comp in graph.components():
                if isinstance(m, LinearScm):
                    res = sk.uniquely_solvable_wrt(m, comp)
                    witness = None if res else res.witness
                else:
                    witness = zoo.exhaustive_scan(m, comp, True)
                if witness is not None:
                    failing = comp, witness
                    break
            if failing is None:
                assert markov._premise(m.replace(), graph, "sigma") == "scc_unique"
            else:
                with pytest.raises(SolvabilityError) as err:
                    markov._premise(m.replace(), graph, "sigma")
                assert (err.value.subset, err.value.witness) == (tuple(sorted(failing[0])), failing[1])
            skipped = [c for c in graph.components() if len(c) == 1 and (c[0], c[0]) not in graph.directed]
            seen[isinstance(m, LinearScm), failing is None, bool(skipped)] += 1
        # every finite case, and linear models that pass and fail (each skips a singleton)
        cases = [(False, ok, skip) for ok, skip in itertools.product((True, False), repeat=2)]
        assert all(seen[case] for case in cases + [(True, True, True), (True, False, True)]), seen

    def test_negative_max_conditioning_is_rejected(self):
        with pytest.raises(ScmError, match="max_conditioning"):
            verify_markov(zoo.cycle4_scm(), max_conditioning=-1)
        assert verify_markov(zoo.chain_substitution(), max_conditioning=0).entries

    @pytest.mark.parametrize("build, premise", [
        (zoo.chain_substitution, "acyclic"),
        (zoo.lin_gauss_anm, "linear"),
        (zoo.cycle4_scm, "scc_unique"),
        (zoo.ladder_scm, "scc_unique"),
        (zoo.ternary_ring_scm, "scc_unique"),
    ])
    def test_d_premise_is_recorded(self, build, premise):
        report = verify_markov(build(), kind="d", max_conditioning=2)
        assert report.premise == premise
        assert report.to_json_obj()["premise"] == premise
        assert report.ok
        assert verify_markov(build(), kind="sigma", max_conditioning=0).premise == "scc_unique"

    def test_unknown_kind(self):
        with pytest.raises(ScmError):
            verify_markov(zoo.chain_substitution(), kind="m")

    def test_max_conditioning_limits_triples(self):
        m = zoo.chain_substitution()
        small = verify_markov(m, kind="sigma", max_conditioning=0)
        full = verify_markov(m, kind="sigma")
        assert len(small.entries) < len(full.entries)

    def test_full_subsets_flag(self):
        m = zoo.chain_substitution()
        singles = verify_markov(m, kind="sigma")
        full = verify_markov(m, kind="sigma", full_subsets=True)
        assert len(full.entries) > len(singles.entries)
        assert full.ok

    def test_report_serialization(self):
        report = verify_markov(zoo.chain_substitution(), kind="sigma", max_conditioning=1)
        obj = report.to_json_obj()
        assert obj["kind"] == "sigma"
        assert obj["violations"] == 0
        table = report.to_table()
        assert "violations: 0" in table

    def test_gaussian_markov(self):
        m = zoo.lin_gauss_anm()
        report = verify_markov(m, kind="sigma")
        assert report.ok

    def test_random_models_sigma_markov(self):
        rng = random.Random(61)
        from scmkit import functional_graph as fg
        from scmkit import uniquely_solvable_wrt

        accepted = 0
        attempts = 0
        while accepted < 25 and attempts < 400:
            attempts += 1
            m = zoo.random_finite_scm(rng, max_endo=4, self_arg_p=0.15)
            graph = fg(m)
            comps = {graph.scc_map()[n] for n in graph.nodes}
            if not all(uniquely_solvable_wrt(m, sorted(c)) for c in comps):
                continue
            report = verify_markov(m, kind="sigma", max_conditioning=2)
            assert report.ok, (m, report.violations)
            check_against_oracles(m, report)
            accepted += 1
        assert accepted == 25

    @pytest.mark.parametrize("build", [zoo.cycle4_scm, zoo.ladder_scm, zoo.ternary_ring_scm,
                                       zoo.big_denominator_scm])
    def test_integer_ci_matches_fraction_oracle(self, build):
        m = build()
        report = verify_markov(m, kind="sigma", max_conditioning=2)
        assert report.ok
        independent, dependent = check_against_oracles(m, report)
        assert independent and dependent
        wide = build is zoo.big_denominator_scm
        assert (observational_distribution(m).counts()[1].dtype == object) == wide
