"""Oracles for the batched ``verify_markov``: every report is rebuilt one
statement at a time from the public ``sigma_separated`` / ``d_separated``
and ``model_zoo.oracle_ci``, a conditional-independence test in
``Fraction``s that sums ``dist.probs`` directly, and ``graph._open_sinks``
is checked against one public separation call per candidate."""

import inspect
import itertools
import random
from fractions import Fraction

import pytest

import model_zoo as zoo
from scmkit import (
    DiscreteDistribution,
    FiniteDomain,
    FiniteScm,
    MixedGraph,
    SolvabilityError,
    conditional_independent,
    d_separated,
    functional_graph,
    observational_distribution,
    sigma_separated,
    verify_markov,
)
from scmkit.graph import _open_sinks

F = Fraction
TERNARY = (F(1, 6), F(1, 3), F(1, 2))


def statements(names, max_conditioning, full_subsets):
    """The (A, B, S) of a report in its order: A and B singletons in name
    order, or every pair of disjoint nonempty subsets with A < B; S every
    subset of the rest with at most ``max_conditioning`` names."""
    if full_subsets:
        subsets = [c for r in range(1, len(names) + 1) for c in itertools.combinations(names, r)]
        pairs = [(a, b) for a in subsets for b in subsets if a < b and not set(a) & set(b)]
        pairs.sort(key=lambda ab: (len(ab[0]), subsets.index(ab[0]), len(ab[1]), subsets.index(ab[1])))
    else:
        pairs = [((x,), (y,)) for x, y in itertools.combinations(names, 2)]
    for a, b in pairs:
        rest = [n for n in names if n not in a + b]
        for size in range(min(max_conditioning, len(rest)) + 1):
            for s in itertools.combinations(rest, size):
                yield a, b, s


def rebuilt_entries(m, kind, max_conditioning=None, full_subsets=False) -> list:
    """The entries of ``verify_markov(m, ...).to_json_obj()``, one statement
    at a time from the public separation calls and ``oracle_ci``."""
    graph, dist = functional_graph(m), observational_distribution(m)
    separated = sigma_separated if kind == "sigma" else d_separated
    names = m.endogenous_names
    entries = []
    for a, b, s in statements(names, len(names) if max_conditioning is None else max_conditioning, full_subsets):
        sep, ci = separated(graph, a, b, s), zoo.oracle_ci(dist, a, b, s)
        entries.append({"a": list(a), "b": list(b), "s": list(s), "separated": sep,
                        "independent": ci, "violation": sep and not ci})
    return entries


def check_reports(m, max_conditioning=None) -> int:
    """Both kinds, and ``full_subsets`` on at most 4 variables, against the
    rebuild; returns the number of statements checked."""
    checked = 0
    for kind in ("sigma", "d"):
        for full in (False, True) if len(m.endogenous_names) <= 4 else (False,):
            report = verify_markov(m, kind=kind, max_conditioning=max_conditioning, full_subsets=full)
            obj = report.to_json_obj()
            assert obj["entries"] == rebuilt_entries(m, kind, max_conditioning, full), (m, kind, full)
            assert obj["violations"] == sum(e["violation"] for e in obj["entries"])
            checked += len(obj["entries"])
    return checked


def tabulated(endo, exo, measure, fns) -> FiniteScm:
    """A finite model from ``{name: (args, fn)}`` with ``fn`` positional."""
    domains = {**endo, **exo}
    return FiniteScm(endo, exo, measure, {o: zoo.postab(domains, args, fn) for o, (args, fn) in fns.items()})


def gf3_model(nodes, edges, rng) -> FiniteScm:
    """X_j = sum of c_ij X_i over the edges i -> j, plus E_j, mod 3, with a
    self-loop's c_jj = 2 (so X_j = -(rest) is its one solution) and other
    gains 1 or 2; each E_j ternary with a seeded permutation of 1/6, 1/3,
    1/2."""
    dom = FiniteDomain((0, 1, 2))
    gains = {(i, j): 2 if i == j else rng.choice((1, 2)) for i, j in edges}
    fns = {}
    for j in nodes:
        args = tuple(i for i in nodes if (i, j) in gains) + (f"E{j}",)
        c = [gains[i, j] for i in args[:-1]]
        fns[j] = (args, lambda *v, c=c: (sum(ci * x for ci, x in zip(c, v)) + v[-1]) % 3)
    exo = {f"E{j}": dom for j in nodes}
    measure = {e: dict(zip((0, 1, 2), rng.sample(TERNARY, 3))) for e in exo}
    return tabulated({j: dom for j in nodes}, exo, measure, fns)


def seeded_ladder(rng, pairs, tail) -> FiniteScm:
    """Binary 2-cycles A_i <-> B_i, pair i reading pair i - 1, with a
    ternary gate U_i that cuts A_i's link unless U_i == g_a and B_i's unless
    U_i == g_b, for seeded g_a != g_b; a tail T reads the last B."""
    binary, ternary = FiniteDomain((0, 1)), FiniteDomain((0, 1, 2))
    g_a, g_b = rng.sample((0, 1, 2), 2)
    endo = {f"{x}{i}": binary for i in range(1, pairs + 1) for x in "AB"}
    exo, measure, fns = {}, {}, {}
    for i in range(1, pairs + 1):
        u, v = f"U{i}", f"V{i}"
        exo[u], exo[v] = ternary, binary
        measure[u] = dict(zip((0, 1, 2), rng.sample(TERNARY, 3)))
        measure[v] = dict(zip((0, 1), rng.sample((F(1, 3), F(2, 3)), 2)))
        prev = (f"A{i - 1}", f"B{i - 1}") if i > 1 else ()
        fns[f"A{i}"] = ((f"B{i}", u, v) + prev[:1],
                        lambda b, u, v, p=0: b if u == g_a else int(v != p))
        fns[f"B{i}"] = ((f"A{i}", u, v) + prev[1:],
                        lambda a, u, v, p=1: a if u == g_b else int(v == p))
    if tail:
        endo["T"], exo["W"], measure["W"] = binary, binary, {0: F(1, 3), 1: F(2, 3)}
        fns["T"] = ((f"B{pairs}", "W"), lambda b, w: int(w != b))
    return tabulated(endo, exo, measure, fns)


def seeded_ring(rng, n) -> FiniteScm:
    """A ternary loop X1 -> ... -> Xn -> X1: with E_i == 1 link i applies a
    seeded non-constant map h_i, any other value sets X_i to a constant.
    The maps are drawn until their composition has exactly one fixed point,
    so every fiber is a singleton."""
    dom = FiniteDomain((0, 1, 2))

    def fixed_points(maps):
        count = 0
        for x in range(3):
            y = x
            for h in maps:
                y = h[y]
            count += y == x
        return count

    while True:
        maps = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(n)]
        if all(len(set(h)) > 1 for h in maps) and fixed_points(maps) == 1:
            break
    exo = {f"E{i}": dom if i <= 2 else FiniteDomain((0, 1)) for i in range(1, n + 1)}
    measure = {e: dict(zip(d.values, rng.sample(TERNARY, 3) if len(d) == 3 else (F(1, 3), F(2, 3))))
               for e, d in exo.items()}
    fns = {f"X{i}": ((f"X{n if i == 1 else i - 1}", f"E{i}"),
                     lambda p, e, h=maps[i - 1], c=rng.randrange(3): h[p] if e == 1 else c)
           for i in range(1, n + 1)}
    return tabulated({f"X{i}": dom for i in range(1, n + 1)}, exo, measure, fns)


def zoo_models():
    """Every finite model that a zoo function builds from no arguments."""
    for name, build in sorted(vars(zoo).items()):
        if not inspect.isfunction(build) or any(
            p.default is p.empty or p.kind is p.VAR_POSITIONAL for p in inspect.signature(build).parameters.values()
        ):
            continue
        built = build()
        for m in built if isinstance(built, tuple) else (built,):
            if isinstance(m, FiniteScm):
                yield name, m


class TestOracleCi:
    def test_oracle_matches_the_kernel_on_a_wide_denominator(self):
        # object dtype: den * den does not fit an int64
        dist = observational_distribution(zoo.big_denominator_scm())
        assert dist._cell_codes()[1].dtype == object
        names = dist.vars
        verdicts = set()
        for a, b, s in statements(names, len(names), full_subsets=True):
            got = conditional_independent(dist, a, b, s)
            assert got == zoo.oracle_ci(dist, a, b, s), (a, b, s)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_oracle_matches_the_kernel_on_a_sparse_table(self):
        # P(p, q, r, t) proportional to f(p, r) g(q, r) h(t) on sparse factors
        # with wide denominators: P and Q independent given R, T of everything
        rng = random.Random(3)
        dom = FiniteDomain((0, 1, 2))
        names = ("P", "Q", "R", "T")

        def factor(arity):
            keys = rng.sample(list(itertools.product(range(3), repeat=arity)), 2 * arity + 1)
            return {k: F(rng.randrange(1, 10**6), 7**rng.randrange(1, 14)) for k in keys}

        f, g, h = factor(2), factor(2), factor(1)
        law = {(p, q, r, t): f[p, r] * g[q, r] * h[t,]
               for (p, r), (q, r2), (t,) in itertools.product(f, g, h) if r == r2}
        total = sum(law.values())
        dist = DiscreteDistribution(names, {v: dom for v in names}, {c: w / total for c, w in law.items()})
        verdicts = set()
        for a, b, s in statements(names, 2, full_subsets=True):
            got = conditional_independent(dist, a, b, s)
            assert got == zoo.oracle_ci(dist, a, b, s), (a, b, s)
            verdicts.add(got)
        assert verdicts == {True, False}
        assert conditional_independent(dist, ["P"], ["Q"], ["R"])


class TestReportsRebuiltPerStatement:
    def test_every_three_node_graph(self):
        # every directed graph on 3 nodes, self-loops included, one per
        # isomorphism class (verdicts do not depend on the labels), as a GF(3) model
        rng = random.Random(11)
        nodes = ("X", "Y", "Z")
        classes = {}
        for mask in range(1 << 9):
            edges = frozenset((u, v) for k, (u, v) in enumerate(itertools.product(nodes, nodes)) if mask >> k & 1)
            relabeled = (frozenset((p[u], p[v]) for u, v in edges)
                         for p in (dict(zip(nodes, q)) for q in itertools.permutations(nodes)))
            classes.setdefault(min(tuple(sorted(e)) for e in relabeled), sorted(edges))
        assert len(classes) == 104
        accepted = 0
        for edges in classes.values():
            m = gf3_model(nodes, edges, rng)
            # a self-loop X = 2X + r solves to X = -r, so it leaves the functional graph
            assert functional_graph(m) == MixedGraph(nodes, [(u, v) for u, v in edges if u != v])
            try:
                check_reports(m)
            except SolvabilityError:
                continue
            accepted += 1
        assert accepted > 60

    def test_model_zoo(self):
        checked = {}
        for name, m in zoo_models():
            try:
                checked[name] = check_reports(m, max_conditioning=2)
            except SolvabilityError:
                continue
        assert len(checked) >= 15 and sum(checked.values()) > 500, checked

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_ladders_and_rings(self, seed):
        rng = random.Random(seed)
        models = [seeded_ladder(rng, 1, True), seeded_ladder(rng, 2, False), seeded_ladder(rng, 2, True),
                  seeded_ring(rng, 3), seeded_ring(rng, 4), seeded_ring(rng, 5)]
        for m in models:
            check_reports(m, max_conditioning=2)

    def test_wide_denominator_model(self):
        m = zoo.big_denominator_scm()
        assert observational_distribution(m)._cell_codes()[1].dtype == object
        assert check_reports(m)


def test_open_sinks_match_one_call_per_candidate():
    # one many-sets call per A and candidate set, against one public
    # separation call per (candidate, S)
    rng = random.Random(29)
    found = [0, 0]
    for trial in range(150):
        g = zoo.random_mixed_graph(rng, 5 + trial % 3)
        nodes = list(g.nodes)
        a = frozenset(rng.sample(nodes, rng.randint(1, 2)))
        sets = [frozenset(rng.sample([v for v in nodes if v not in a], rng.randint(0, 2))) for _ in range(3)]
        for sigma, separated in ((True, sigma_separated), (False, d_separated)):
            every = frozenset(nodes) - a
            some = frozenset(rng.sample(sorted(every), rng.randint(1, len(every))))
            for candidates in (every, some):
                got = zoo.open_sets(_open_sinks(g, a, candidates, sets, sigma), sets)
                assert len(got) == len(sets)
                for s, opened in zip(sets, got):
                    expected = {b for b in candidates - s if not separated(g, a, [b], s)}
                    assert opened == expected, (g, a, s, sigma)
                    found[bool(expected)] += 1
    assert all(found), found
