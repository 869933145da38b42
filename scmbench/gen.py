"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns `.scm` text or graph
JSON text; its docstring states the answers the construction guarantees.
This module does not import scmkit: the library only ever sees the text.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction


def rng_for(workload: str, seed: int, tag: str = "") -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{tag}")


def _probs(rng: random.Random, values, table) -> dict:
    """The probabilities in ``table`` put on ``values`` in a seeded order.

    The seed permutes a fixed table rather than drawing new numbers, so every
    seed does about the same amount of exact rational arithmetic.
    """
    return dict(zip(values, rng.sample(list(table), len(table))))


_BINARY = (Fraction(1, 3), Fraction(2, 3))
_TERNARY = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))


def _noise(name: str, probs: dict) -> str:
    dom = ", ".join(str(v) for v in probs)
    table = ", ".join(f"{v}: {p}" for v, p in probs.items())
    return f"noise {name} : {{{dom}}} ~ {{{table}}}"


def _lookup(var: str, fn: dict) -> str:
    """Expression for ``fn[var]`` written as a sum of indicator terms."""
    terms = [f"ind({var} == {x})*{y}" for x, y in fn.items() if y != 0]
    return " + ".join(terms) if terms else "0"


# --- markov_cyclic ------------------------------------------------------------

def ladder(rng: random.Random, n: int) -> str:
    """Chained binary 2-cycles: pairs (A_i, B_i), plus a tail T when ``n`` is odd.

    The gate U_i in {0, 1, 2} cuts one side of pair i for every value, so
    each pair, and hence the model, is uniquely solvable with respect to every
    strongly connected component.  Pair i reads pair i-1, so the pairs form
    one chain.
    """
    pairs = n // 2
    g_a, g_b, _ = rng.sample([0, 1, 2], 3)
    lines = ["model finite"]
    lines += [f"var {x}{i} : {{0, 1}}" for i in range(1, pairs + 1) for x in "AB"]
    if n % 2:
        lines.append("var T : {0, 1}")
    for i in range(1, pairs + 1):
        lines.append(_noise(f"U{i}", _probs(rng, [0, 1, 2], _TERNARY)))
        lines.append(_noise(f"V{i}", _probs(rng, [0, 1], _BINARY)))
    if n % 2:
        lines.append(_noise("W", _probs(rng, [0, 1], _BINARY)))
    for i in range(1, pairs + 1):
        pa = f"A{i - 1}" if i > 1 else "0"
        pb = f"B{i - 1}" if i > 1 else "1"
        lines.append(f"eq A{i} = ind(U{i} == {g_a})*B{i} + ind(U{i} != {g_a})*ind(V{i} != {pa})")
        lines.append(f"eq B{i} = ind(U{i} == {g_b})*A{i} + ind(U{i} != {g_b})*ind(V{i} == {pb})")
    if n % 2:
        lines.append(f"eq T = ind(W != B{pairs})")
    return "\n".join(lines) + "\n"


def _fixed_points(fns) -> int:
    count = 0
    for x in (0, 1, 2):
        y = x
        for fn in fns:
            y = fn[y]
        count += y == x
    return count


def ring(rng: random.Random, n: int) -> str:
    """One ternary feedback loop X1 -> X2 -> ... -> Xn -> X1.

    With E_i = 1 link i applies a non-constant map h_i, so X_i keeps X_{i-1}
    as a functional parent; any other value of E_i cuts the link and sets X_i
    to a constant.  The maps are redrawn until their composition around the
    loop has exactly one fixed point, so every fiber is a singleton.  The
    first two noises are ternary, the rest binary.
    """
    while True:
        maps = [{x: rng.randrange(3) for x in (0, 1, 2)} for _ in range(n)]
        if all(len(set(h.values())) > 1 for h in maps) and _fixed_points(maps) == 1:
            break
    lines = ["model finite"]
    lines += [f"var X{i} : {{0, 1, 2}}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        values, table = ([0, 1, 2], _TERNARY) if i <= 2 else ([0, 1], _BINARY)
        lines.append(_noise(f"E{i}", _probs(rng, values, table)))
    for i in range(1, n + 1):
        prev = f"X{n if i == 1 else i - 1}"
        cut = f"ind(E{i} == 0)*{rng.randrange(3)}"
        if i <= 2:
            cut += f" + ind(E{i} == 2)*{rng.randrange(3)}"
        lines.append(f"eq X{i} = {cut} + ind(E{i} == 1)*({_lookup(prev, maps[i - 1])})")
    return "\n".join(lines) + "\n"


# --- separation_dense ---------------------------------------------------------

def dense_graph(rng: random.Random, n: int):
    """Source -> dense cyclic middle -> sink, as graph JSON.

    Every pair of the n-2 middle nodes carries exactly one edge: a directed
    Hamiltonian cycle makes the middle strongly connected, the other pairs get
    ->, <- or <-> at random.  The source points into every middle node and
    every middle node points into the sink.  Every path from source to sink
    ends with a middle node in S = middle that points out of its strongly
    connected component, so source and sink are d- and sigma-separated by the
    middle; dropping one middle node v from S opens source -> v -> sink.

    Returns (graph JSON text, source, sink, middle nodes).
    """
    k = n - 2
    labels = rng.sample(range(10, 100), k)
    middle = [f"M{x}" for x in labels]
    order = rng.sample(middle, k)
    directed = [("S", m) for m in middle] + [(m, "T") for m in middle]
    bidirected = []
    cycle = {frozenset((order[i], order[(i + 1) % k])): (order[i], order[(i + 1) % k]) for i in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            u, v = middle[i], middle[j]
            if frozenset((u, v)) in cycle:
                directed.append(cycle[frozenset((u, v))])
                continue
            kind = rng.randrange(3)
            if kind == 0:
                directed.append((u, v))
            elif kind == 1:
                directed.append((v, u))
            else:
                bidirected.append(tuple(sorted((u, v))))
    obj = {
        "nodes": sorted(["S", "T"] + middle),
        "directed": sorted([list(e) for e in directed]),
        "bidirected": sorted([list(e) for e in bidirected]),
    }
    return json.dumps(obj), "S", "T", sorted(middle)


def strongly_connected_subsets(obj: dict) -> frozenset:
    """Reference answer for enumerate_loops: every node subset whose induced
    directed subgraph is strongly connected, by plain reachability."""
    nodes = obj["nodes"]
    succ = {u: set() for u in nodes}
    for u, v in obj["directed"]:
        succ[u].add(v)
    out = set()
    for mask in range(1, 1 << len(nodes)):
        sub = {nodes[i] for i in range(len(nodes)) if mask >> i & 1}
        start = next(iter(sub))
        fwd = _reach(start, sub, lambda u: succ[u])
        if fwd != sub:
            continue
        bwd = _reach(start, sub, lambda u: [w for w in sub if u in succ[w]])
        if bwd == sub:
            out.add(frozenset(sub))
    return frozenset(out)


def _reach(start, sub, step) -> set:
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for w in step(u):
            if w in sub and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


# --- equiv_lp -----------------------------------------------------------------

def gated_selfloop(rng: random.Random, k: int, m: int, variant: int):
    """A gated self-loop X = ind(G == 1)*X + ind(G == 0)*E with X on k values
    and E on the first m (2 or 3) of them, an equivalent rewrite with
    relabelled noises, and two copies whose gate probability is perturbed,
    one down and one up.

    With G = 1 every value of X solves the equation, so fibers are not
    singletons and the achievable laws form the polytope (1 - q) p + q s,
    where q = P(G = 1), p is the law of E and s ranges over the selector laws.
    The rewrite relabels E by a seeded permutation and swaps the gate values,
    which keeps that polytope; changing q changes it.  ``variant`` picks the
    order of E's probability table, so a run that cycles through every
    variant does the same simplex work whatever the seed.

    Returns (model text, rewrite text, [perturbed texts]).
    """
    values = list(range(k))
    noise_values = values[:m]
    q = Fraction(1, 2)
    orders = list(itertools.permutations({2: _BINARY, 3: _TERNARY}[m]))
    p = dict(zip(noise_values, orders[variant % len(orders)]))
    perm = rng.sample(noise_values, m)  # F = perm[E]
    inverse = {perm[v]: v for v in noise_values}

    def model(gate_q, relabel):
        lines = ["model finite", f"var X : {{{', '.join(map(str, values))}}}"]
        if relabel:
            lines.append(_noise("H", {0: gate_q, 1: 1 - gate_q}))
            lines.append(_noise("F", {v: p[inverse[v]] for v in noise_values}))
            lines.append(f"eq X = ind(H == 0)*X + ind(H == 1)*({_lookup('F', inverse)})")
        else:
            lines.append(_noise("G", {0: 1 - gate_q, 1: gate_q}))
            lines.append(_noise("E", p))
            lines.append("eq X = ind(G == 1)*X + ind(G == 0)*E")
        return "\n".join(lines) + "\n"

    return model(q, False), model(q, True), [model(Fraction(3, 8), False), model(Fraction(5, 8), False)]
