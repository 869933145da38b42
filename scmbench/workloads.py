"""The four benchmark workloads.

``build`` turns a seed into one round of distinct queries, which the
benchmark repeats.  A query is one call into a public scmkit function, or one
CLI process for ``cli_corpus``.  Each query has an untimed ``prepare`` (a
fresh copy of its inputs, so caches never carry over from an earlier query),
the timed ``run``, and an untimed ``check`` against a value known by
construction or documented in the README.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen

import scmkit as sk
from scmkit.errors import ScmError


@dataclass
class Query:
    kind: str
    size: int
    prepare: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object], bool]


def _no_prep():
    return None


# --- markov_cyclic ------------------------------------------------------------

def markov_statements(n: int, max_cond: int = 2) -> int:
    """Statements verify_markov tests on n variables: every pair, S up to max_cond."""
    return comb(n, 2) * sum(comb(n - 2, s) for s in range(max_cond + 1))


def _markov_query(kind, text):
    model = sk.parse(text)
    n = len(model.endogenous)
    expected = markov_statements(n)
    return Query(
        kind, n, model.replace,
        lambda m: sk.verify_markov(m, kind="sigma", max_conditioning=2),
        # sigma-Markov holds when every strongly connected component is
        # uniquely solvable, which the generators guarantee.
        lambda rep: not rep.violations and len(rep.entries) == expected,
    )


def markov_cyclic(root, seed, smoke):
    # Six seeded sets of ladders with 4, 5, 6 variables and rings with 4, 5:
    # 6-variable ladders and 5-variable rings make up the tail, 5-variable
    # ladders sit at the median.
    ladders, rings, sets = ((4,), (3,), 1) if smoke else ((4, 5, 6), (4, 5), 6)
    queries = []
    for r in range(sets):
        queries += [_markov_query("ladder", gen.ladder(gen.rng_for("markov_cyclic", seed, f"l{n}.{r}"), n))
                    for n in ladders]
        queries += [_markov_query("ring", gen.ring(gen.rng_for("markov_cyclic", seed, f"r{n}.{r}"), n))
                    for n in rings]
    return queries


# --- separation_dense ---------------------------------------------------------

def _sep_queries(text, a, b, middle):
    obj = json.loads(text)
    graph = sk.MixedGraph.from_json(text)
    n = len(graph.nodes)
    # Dropping the largest middle label opens source -> v -> sink on the first
    # branch a search in sorted order explores, so these queries exit early.
    opened = middle[:-1]
    loops = []

    def fresh():
        return sk.MixedGraph(graph.nodes, graph.directed, graph.bidirected)

    def loops_ok(found):
        if not loops:
            loops.append(gen.strongly_connected_subsets(obj))
        return found == loops[0]

    return [
        Query("sigma.separated", n, fresh, lambda g: sk.sigma_separated(g, [a], [b], middle), lambda r: r is True),
        Query("sigma.open", n, fresh, lambda g: sk.sigma_separated(g, [a], [b], opened), lambda r: r is False),
        Query("d.separated", n, fresh, lambda g: sk.d_separated(g, [a], [b], middle), lambda r: r is True),
        Query("d.open", n, fresh, lambda g: sk.d_separated(g, [a], [b], opened), lambda r: r is False),
        Query("loops", n, fresh, lambda g: sk.enumerate_loops(g), loops_ok),
    ]


def separation_dense(root, seed, smoke):
    sizes, sets = ((5,), 1) if smoke else ((6, 7, 8), 12)
    queries = []
    for r in range(sets):
        for n in sizes:
            queries += _sep_queries(*gen.dense_graph(gen.rng_for("separation_dense", seed, f"{n}.{r}"), n))
    return queries


# --- equiv_lp -----------------------------------------------------------------

def _pair_query(kind, size, fname, m1, m2, margin, verdict):
    return Query(
        kind, size, lambda: (m1.replace(), m2.replace()),
        lambda pair: getattr(sk, fname)(pair[0], pair[1], margin).verdict,
        lambda v: v is verdict,
    )


def equiv_lp(root, seed, smoke):
    # Four sets use each order of the 2-value noise table twice.  Each set
    # holds the trio too, which puts the median inside the cluster of
    # perturbed 3-value queries rather than at the edge of one.
    shapes, sets = (((3, 2),), 1) if smoke else (((3, 2), (4, 2)), 4)
    corpus = root / "tests" / "corpus"
    m, tilde, hat = (sk.parse((corpus / f"ex_product_{x}.scm").read_text()) for x in ("m", "tilde", "hat"))
    # The product trio: M and its tilde rewrite are interventionally but not
    # counterfactually equivalent; tilde and hat give (X1, X2, X1', X2') the
    # same law under every intervention.
    trio = [(m, tilde, False)] if smoke else [(m, tilde, False), (m, hat, False), (tilde, hat, True)]
    queries = []
    for r in range(sets):
        for k, n_noise in shapes:
            text, rewrite, perturbed = gen.gated_selfloop(
                gen.rng_for("equiv_lp", seed, f"{k}.{n_noise}.{r}"), k, n_noise, r)
            base = sk.parse(text)
            pairs = [("rewrite", sk.parse(rewrite), True)]
            pairs += [(f"perturbed{j}", sk.parse(t), False) for j, t in enumerate(perturbed)]
            for level in ("observationally", "interventionally"):
                for label, other, verdict in pairs:
                    queries.append(_pair_query(f"{level[:3]}.{label}", k, f"{level}_equivalent",
                                               base, other, ["X"], verdict))
        queries += [_pair_query("cf.trio", 2, "counterfactually_equivalent", m1, m2, ["X1", "X2"], verdict)
                    for m1, m2, verdict in trio]
    return queries


# --- cli_corpus ---------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str
    maxrss_kb: int
    spans: list


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_process(root: Path, cmd: list, out_dir: Path) -> CliResult:
    """Run one process to completion; also return its peak resident memory."""
    with tempfile.TemporaryFile(dir=out_dir) as fo, tempfile.TemporaryFile(dir=out_dir) as fe:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return CliResult(proc.returncode, fo.read().decode(), fe.read().decode(), usage.ru_maxrss, [])


class CliRunner:
    """Runs ``python -m scmkit.cli``, or, when tracing, the same entry point
    under ``cli_child.py`` which records spans in the child."""

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.traced = False

    def __call__(self, argv) -> CliResult:
        if not self.traced:
            return run_process(self.root, [sys.executable, "-m", "scmkit.cli", *argv], self.out_dir)
        spans_path = self.out_dir / f"child-{os.getpid()}.spans.json"
        spans_path.unlink(missing_ok=True)
        child = str(Path(__file__).with_name("cli_child.py"))
        res = run_process(self.root, [sys.executable, child, str(spans_path), *argv], self.out_dir)
        if spans_path.exists():
            res.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        return res


def _value_text(m, name):
    return str(m.endogenous[name].values[0]) if isinstance(m, sk.FiniteScm) else "1"


def _value(m, name):
    return m.endogenous[name].values[0] if isinstance(m, sk.FiniteScm) else 1.0


def _expect_text(text):
    return lambda r: r.code == 0 and r.out == text


def _expect_json(obj):
    want = json.loads(json.dumps(obj))
    return lambda r: r.code == 0 and json.loads(r.out) == want


def _cli_expectations(rel: str, m):
    """(argv, check) for every command that is valid on the model, with the
    expected result computed by the library in process, or known outright:
    a model is equivalent to itself, and the sigma-Markov property holds
    whenever its precondition does."""
    names = list(m.endogenous_names)
    first, last = names[0], names[-1]
    out = [
        (["parse", rel], _expect_text(sk.serialize(m))),
        (["graph", rel, "--kind", "functional", "--format", "json"],
         _expect_json(sk.functional_graph(m).to_json_obj())),
    ]
    unique = bool(sk.uniquely_solvable_wrt(m, names))
    out.append((["check", rel, "--unique", ",".join(names)],
                (lambda r: r.code == 0 and r.out == "ok\n") if unique else (lambda r: r.code == 1)))

    def attempt(argv, compute, make_check):
        try:
            expected = compute()
        except ScmError:
            return
        out.append((argv, make_check(expected)))

    attempt(["dist", rel], lambda: sk.observational_distribution(m).to_json_obj(), _expect_json)

    def markov_check(n_entries):
        def check(r):
            rep = json.loads(r.out) if r.code == 0 else None
            return rep is not None and rep["violations"] == 0 and len(rep["entries"]) == n_entries
        return check

    attempt(["markov", rel, "--kind", "sigma", "--max-cond", "2", "--format", "json"],
            lambda: len(sk.verify_markov(m, kind="sigma", max_conditioning=2).entries), markov_check)
    attempt(["equiv", rel, rel, "--level", "obs"], lambda: sk.observationally_equivalent(m, m, names),
            lambda _rep: lambda r: r.code == 0 and json.loads(r.out)["verdict"] is True)
    attempt(["intervene", rel, "--set", f"{first}={_value_text(m, first)}"],
            lambda: sk.serialize(sk.intervene(m, {first: _value(m, first)})), _expect_text)
    attempt(["twin", rel], lambda: sk.serialize(sk.twin(m)), _expect_text)
    if len(names) > 1:
        middle = names[1:-1]
        sep = sk.sigma_separated(sk.functional_graph(m), [first], [last], middle)
        out.append((["sep", rel, "--a", first, "--b", last, "--given", ",".join(middle), "--kind", "sigma"],
                    lambda r, code=0 if sep else 1: r.code == code))
        attempt(["counterfactual", rel, "--cf-do", f"{first}={_value_text(m, first)}", "--query", f"{last}'"],
                lambda: sk.counterfactual_distribution(m, {}, {}, {first: _value(m, first)}, [f"{last}'"]).to_json_obj(),
                _expect_json)
        attempt(["marginalize", rel, "--over", last],
                lambda: sk.serialize(sk.marginalize(m, [last])), _expect_text)
    return out


# Exit codes the README and the CLI tests document for two corpus files.
def _documented(rel: str, out_rel: str):
    """(argv, check, size) for the documented calls on the file ``rel``."""
    name = Path(rel).name
    if name == "ex_interventions.scm":
        return [
            (["check", rel, "--solvable", "X1,X2,X3"], lambda r: r.code == 0, 3),
            (["intervene", rel, "--set", "X3=1", "-o", out_rel], lambda r: r.code == 0, 3),
            (["check", out_rel, "--solvable", "X1,X2,X3"], lambda r: r.code == 1, 3),
        ]
    if name == "ex_product_m.scm":
        tilde = str(Path(rel).with_name("ex_product_tilde.scm"))
        return [
            (["equiv", rel, tilde, "--level", "int"], lambda r: r.code == 0, 2),
            (["equiv", rel, tilde, "--level", "cf"], lambda r: r.code == 1, 2),
        ]
    return []


SMOKE_FILES = ("ex_chain.scm", "ex_interventions.scm", "ex_product_m.scm")
# Calls per cli_corpus round: few enough (about 0.3 s each) that a run
# repeats the round, enough that query_tail_ms lies above the median.
CLI_CALLS = 25


def cli_corpus(root, seed, smoke, runner=None):
    """One round: the README's documented calls, then every valid command on
    whole corpus files in a seeded order until the round holds CLI_CALLS
    calls (10 in smoke mode).  Without a runner (the set-up probe) the files
    are only parsed."""
    paths = sorted((root / "tests" / "corpus").glob("*.scm"))
    if smoke:
        paths = [p for p in paths if p.name in SMOKE_FILES]
    if not paths:
        raise ScmError("no corpus files under tests/corpus")
    models = [(str(p.relative_to(root)), sk.parse(p.read_text())) for p in paths]
    gen.rng_for("cli_corpus", seed).shuffle(models)
    if runner is None:
        return []
    out_rel = str((runner.out_dir / f"do_x3-{os.getpid()}.scm").relative_to(root))
    calls = [c for rel, _m in models for c in _documented(rel, out_rel)]
    for rel, m in models:
        if len(calls) >= (10 if smoke else CLI_CALLS):
            break
        calls += [(argv, check, len(m.endogenous_names)) for argv, check in _cli_expectations(rel, m)]
    return [Query(argv[0], size, _no_prep, lambda _x, a=argv: runner(a), check) for argv, check, size in calls]


def build(root, workload, seed, smoke, runner=None):
    """The workload's round of distinct queries; ``cli_corpus`` needs a CliRunner."""
    if workload == "cli_corpus":
        return cli_corpus(root, seed, smoke, runner)
    in_process = {"markov_cyclic": markov_cyclic, "separation_dense": separation_dense, "equiv_lp": equiv_lp}
    return in_process[workload](root, seed, smoke)


def timed_setup(root, workload, seed, smoke) -> float:
    """Build the workload's inputs as the set-up probe does; return the
    clock reading when done (CLOCK_MONOTONIC is shared across processes)."""
    build(root, workload, seed, smoke)
    return perf_counter()
