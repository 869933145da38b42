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
    for e_values, _ in _support_assignments(m, m.exogenous_names):
        e_assign = dict(zip(m.exogenous_names, e_values))
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
        den, n, codes = dist._cell_codes()
        assert den == 12 and n.dtype == np.int64
        assert sorted(zip(map(tuple, codes.tolist()), n.tolist())) == [((0, 2), 2), ((1, 1), 7), ((2, 1), 3)]
        assert dist._cell_codes() is dist._cell_codes()
        assert not n.flags.writeable and not codes.flags.writeable
        with pytest.raises(TypeError):
            dist.probs[(0, 0)] = F(0)

    def test_counts_reject_a_cell_outside_the_domain(self):
        dom = FiniteDomain((0, 1))
        with pytest.raises(ScmError, match="not in the domains"):
            DiscreteDistribution(("A",), {"A": dom}, {(0,): F(1, 2), (5,): F(1, 2)})
        # a cell shorter or longer than the variables is outside them too
        for cell in ((0,), (0, 0, 1)):
            with pytest.raises(ScmError, match="not in the domains"):
                DiscreteDistribution(("A", "B"), {"A": dom, "B": dom}, {cell: 1})

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
        assert (observational_distribution(m)._cell_codes()[1].dtype == object) == wide


def factored_law(rng, names) -> DiscreteDistribution:
    """A seeded law over ``names`` with 2 to 4 values each: P is a product of
    one table per variable on it and on at most one earlier variable, weights
    0 to 3, so the law has independences, dependences and empty cells."""
    domains = {v: FiniteDomain(tuple(range(rng.randint(2, 4)))) for v in names}
    parent = {v: rng.choice((None,) + tuple(names[:i])) for i, v in enumerate(names)}
    while True:
        tables = {v: {(x, y): rng.randint(0, 3) for x in domains[v].values
                      for y in (domains[parent[v]].values if parent[v] else (None,))} for v in names}
        law = {}
        for cell in itertools.product(*(domains[v].values for v in names)):
            at = dict(zip(names, cell))
            weight = 1
            for v in names:
                weight *= tables[v][at[v], at[parent[v]] if parent[v] else None]
            if weight:
                law[cell] = weight
        if law:
            total = sum(law.values())
            return DiscreteDistribution(names, domains, {c: F(w, total) for c, w in law.items()})


class TestPairKernel:
    """``markov._finite_ci`` against ``zoo.oracle_ci`` on every pair it is
    asked for and every set, in one run and with one slot per piece."""

    @staticmethod
    def check(dist, sets, blocks, pairs) -> set:
        """Every meaningful verdict of the kernel; returns the verdicts seen."""
        verdict = markov._finite_ci(dist, sets, blocks, pairs)
        assert verdict.shape == (len(sets), len(pairs))
        seen = set()
        for t, s in enumerate(sets):
            for r, (p, q) in enumerate(pairs):
                a, b = blocks[p], blocks[q]
                if not set(s) & set(a + b):
                    expected = zoo.oracle_ci(dist, a, b, s)
                    assert verdict[t, r] == expected, (a, b, s)
                    seen.add(expected)
        return seen

    @staticmethod
    def subsets(names, most):
        return [s for size in range(most + 1) for s in itertools.combinations(names, size)]

    @pytest.mark.parametrize("budget", [1, None])
    def test_seeded_laws_with_mixed_domains(self, monkeypatch, budget):
        if budget:
            monkeypatch.setattr(markov, "_CI_BUDGET", budget)
        rng = random.Random(41)
        seen = set()
        for _ in range(12):
            names = tuple(f"X{i}" for i in range(1, rng.randint(3, 5) + 1))
            dist = factored_law(rng, names)
            assert {len(dist.domains[v]) for v in names} <= {2, 3, 4}
            blocks = [(v,) for v in names]
            # some of the pairs, in either order
            every = [(p, q) for p in range(len(names)) for q in range(len(names)) if p != q]
            pairs = rng.sample(every, rng.randint(1, len(every)))
            seen |= self.check(dist, self.subsets(names, len(names) - 2), blocks, pairs)
        assert seen == {True, False}

    @pytest.mark.parametrize("budget", [1, None])
    def test_two_variable_blocks(self, monkeypatch, budget):
        if budget:
            monkeypatch.setattr(markov, "_CI_BUDGET", budget)
        rng = random.Random(43)
        seen = set()
        for _ in range(6):
            names = ("A", "B", "C", "D", "E")
            dist = factored_law(rng, names)
            blocks = [("A", "B"), ("C",), ("D", "E"), ("A",), ("B", "C")]
            pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (2, 4)]
            seen |= self.check(dist, self.subsets(names, 3), blocks, pairs)
            # the one pair and one set of ``conditional_independent``
            for a, b in ((("A", "B"), ("C",)), (("C",), ("D", "E")), (("B",), ("A", "E"))):
                for s in self.subsets(sorted(set(names) - set(a + b)), 2):
                    seen |= self.check(dist, [s], [a, b], [(0, 1)])
        assert seen == {True, False}

    @pytest.mark.parametrize("budget", [1, None])
    def test_wide_denominator_model(self, monkeypatch, budget):
        if budget:
            monkeypatch.setattr(markov, "_CI_BUDGET", budget)
        dist = observational_distribution(zoo.big_denominator_scm())
        assert dist._cell_codes()[1].dtype == object
        names = dist.vars
        blocks = [(v,) for v in names] + [("X", "Y")]
        pairs = [(0, 1), (0, 2), (1, 2), (2, 1), (3, 2)]
        assert self.check(dist, self.subsets(names, len(names)), blocks, pairs) == {True, False}


class TestChunkedKernel:
    """``markov._finite_ci`` decides every conditioning set of a table in runs
    that keep each array within ``markov._CI_BUDGET`` entries."""

    @staticmethod
    def runs(monkeypatch):
        """Record the runs that every kernel call takes."""
        seen, chunks = [], markov._ci_chunks

        def recorded(*args):
            seen.append(chunks(*args))
            return seen[-1]

        monkeypatch.setattr(markov, "_ci_chunks", recorded)
        return seen

    @pytest.mark.parametrize("budget", [1, 10**12])
    @pytest.mark.parametrize("build", [zoo.ladder_scm, zoo.ternary_ring_scm, zoo.big_denominator_scm,
                                       zoo.cycle4_scm])
    def test_one_set_per_run_and_one_run_give_the_oracle_reports(self, monkeypatch, budget, build):
        from test_markov_oracle import rebuilt_entries

        monkeypatch.setattr(markov, "_CI_BUDGET", budget)
        seen = self.runs(monkeypatch)
        m = build()
        for kind in ("sigma", "d"):
            for max_conditioning in (None, 1):
                report = verify_markov(m, kind=kind, max_conditioning=max_conditioning)
                assert report.to_json_obj()["entries"] == rebuilt_entries(m, kind, max_conditioning)
                sets = seen[-1][-1][1]
                assert seen[-1] == ([(t, t + 1) for t in range(sets)] if budget == 1 else [(0, sets)])
        wide = observational_distribution(m)._cell_codes()[1].dtype == object
        assert wide == (build is zoo.big_denominator_scm)

    def test_no_kernel_array_goes_over_the_budget(self, monkeypatch):
        # every array that the kernel hands to numpy or gets from it is
        # recorded; the products of the Gram tensor have its shape
        sizes = []

        def record(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                for x in args + (out if isinstance(out, tuple) else (out,)):
                    if isinstance(x, np.ndarray):
                        sizes.append(x.size)
                return out
            return call

        class Recording:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if isinstance(attr, np.ufunc):
                    return type("Ufunc", (), {m: staticmethod(record(getattr(attr, m))) for m in ("at", "reduceat")})
                return record(attr) if callable(attr) and not isinstance(attr, type) else attr

        seen = self.runs(monkeypatch)
        monkeypatch.setattr(markov, "np", Recording())
        m = zoo.ladder_scm(4)
        report = verify_markov(m)
        monkeypatch.undo()
        assert report.to_json_obj() == verify_markov(m).to_json_obj()
        (runs,) = seen
        assert len(runs) > 5 and max(sizes) <= markov._CI_BUDGET
        # one run would need a scatter index of sets x cells x pairs entries
        cells, names = len(observational_distribution(m).probs), len(m.endogenous_names)
        assert runs[-1][1] * cells * names**2 > 8 * markov._CI_BUDGET

    def test_a_set_over_the_budget_is_split_across_runs(self, monkeypatch):
        # with full conditioning on ladder_scm(5), each |S| = 8 set takes 192
        # values on the 256 support cells: 192 slots x 45 pairs x 2^2 =
        # 34,560 grid entries on its own, over a budget of 2^15, so its slots
        # are split and the partial verdicts ANDed
        monkeypatch.setattr(markov, "_CI_BUDGET", 1 << 15)
        tensors, indices = [], []

        def add_at(gram, index, values):
            tensors.append(gram.size)
            indices.append(index.size)
            np.add.at(gram, index, values)

        class Recorded:
            def __getattr__(self, name):
                return type("Add", (), {"at": staticmethod(add_at)}) if name == "add" else getattr(np, name)

        seen = self.runs(monkeypatch)
        monkeypatch.setattr(markov, "np", Recorded())
        m = zoo.ladder_scm(5)
        report = verify_markov(m)
        budget = markov._CI_BUDGET
        monkeypatch.undo()
        assert len(report.entries) == 11520 and report.ok
        (runs,) = seen
        # more scatter-adds than runs: some run was split
        assert len(tensors) > len(runs) and max(tensors + indices) <= budget
        dist = observational_distribution(m)
        widest = [e for e in report.entries if len(e.s) == 8]
        assert len(widest) == 45
        for e in widest:
            assert e.independent == zoo.oracle_ci(dist, e.a, e.b, e.s), e

    def test_conditional_independent_goes_through_the_one_kernel(self, monkeypatch):
        calls, kernel = [], markov._finite_ci

        def recorded(dist, sets, blocks, pairs):
            calls.append((sets, blocks, pairs))
            return kernel(dist, sets, blocks, pairs)

        monkeypatch.setattr(markov, "_finite_ci", recorded)
        for m in (zoo.ladder_scm(2), zoo.big_denominator_scm(), zoo.ternary_ring_scm()):
            dist = observational_distribution(m)
            names = dist.vars
            for a, b in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (a, b)]
                for size in range(min(2, len(rest)) + 1):
                    for s in itertools.combinations(rest, size):
                        calls.clear()
                        got = conditional_independent(dist, [a], [b], s)
                        assert got == zoo.oracle_ci(dist, (a,), (b,), s), (a, b, s)
                        assert calls == [([tuple(sorted(s))], [(a,), (b,)], [(0, 1)])]

    def test_a_table_without_pairs_is_empty(self):
        b = FiniteDomain((0, 1))
        for endo in ({}, {"X": b}):
            mechs = {v: sk.TabularMechanism(("E",), {(0,): 0, (1,): 1}) for v in endo}
            m = sk.FiniteScm(endo, {"E": b}, {"E": {0: F(1, 2), 1: F(1, 2)}}, mechs)
            assert verify_markov(m).entries == []
