"""Directed mixed graphs and the graph algorithms used throughout the library.

Graphs are immutable value objects: nodes keep their construction order for
display, but equality, hashing and serialization are order-insensitive
(canonically sorted).  Directed edges may be self-loops; bidirected edges
connect distinct nodes.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ScmError, UnknownNameError

__all__ = [
    "MixedGraph",
    "relatives",
    "intervene_graph",
    "latent_projection",
    "enumerate_loops",
    "strong_components",
    "d_separated",
    "sigma_separated",
]


def _as_node_set(seed) -> frozenset:
    if isinstance(seed, str):
        return frozenset([seed])
    return frozenset(seed)


def _edge(edge, kind: str) -> tuple:
    try:
        u, v = () if isinstance(edge, str) else edge
    except (TypeError, ValueError):
        raise ScmError(f"{kind} edge {edge!r} is not a pair of nodes") from None
    return u, v


def strong_components(nodes, step) -> list:
    """The strongly connected components of the graph on ``nodes`` with an
    edge from each node v to every node of ``step[v]`` that is in ``nodes``;
    the others are ignored, so a subgraph needs no copy.

    Tarjan's algorithm (1972), iterative, in O(n + e log e): each component
    is a tuple in the order of ``nodes`` and comes after every component it
    has an edge to, so over predecessor sets the list is a topological
    order.  Roots and the nodes of each ``step[v]`` are taken in the order
    of ``nodes``, so the list does not depend on the iteration order of
    ``step``'s values.
    """
    rank = {v: i for i, v in enumerate(nodes)}
    index, low, stack, out = {}, {}, [], []
    for root in nodes:
        work = [] if root in index else [(root, None)]
        while work:
            v, it = work.pop()
            if it is None:
                index[v] = low[v] = len(index)
                stack.append(v)
                it = iter(sorted((w for w in step[v] if w in rank), key=rank.__getitem__))
            for w in it:
                if w not in index:
                    work += [(v, it), (w, None)]
                    break
                low[v] = min(low[v], low[w])  # a finished node's low is len(rank)
            else:
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    low.update(dict.fromkeys(comp, len(rank)))
                    out.append(tuple(sorted(comp, key=rank.__getitem__)))
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
    return out


class MixedGraph:
    """A directed mixed graph (nodes, directed edges, bidirected edges).

    Immutable: attribute assignment raises, so the structures derived on
    first use (components, SCC map, neighbour lists) can never go stale.
    """

    __slots__ = ("_nodes", "_directed", "_bidirected", "_pa", "_ch", "_scc", "_scc_of", "_adj")

    def __init__(self, nodes: Iterable[str], directed=(), bidirected=()):
        ordered = []
        seen = set()
        for n in nodes:
            if not isinstance(n, str) or not n:
                raise ScmError(f"node names must be non-empty strings, got {n!r}")
            if n not in seen:
                seen.add(n)
                ordered.append(n)
        node_set = seen

        d = set()
        for edge in directed:
            tail, head = _edge(edge, "directed")
            if tail not in node_set or head not in node_set:
                raise UnknownNameError(f"directed edge ({tail}, {head}) has an endpoint outside the node set")
            d.add((tail, head))

        b = set()
        for pair in bidirected:
            u, v = _edge(pair, "bidirected")
            if u not in node_set or v not in node_set:
                raise UnknownNameError(f"bidirected edge ({u}, {v}) has an endpoint outside the node set")
            if u == v:
                raise ScmError(f"bidirected edge endpoints must be distinct, got ({u}, {v})")
            b.add((u, v) if u < v else (v, u))

        pa = {n: set() for n in ordered}
        ch = {n: set() for n in ordered}
        for tail, head in d:
            pa[head].add(tail)
            ch[tail].add(head)
        fields = (tuple(ordered), frozenset(d), frozenset(b), pa, ch, None, None, None)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MixedGraph is immutable; build a new graph")

    def __reduce__(self):
        # copy and pickle rebuild through __init__; the derived structures do not travel
        return MixedGraph, (self._nodes, sorted(self._directed), sorted(self._bidirected))

    # --- basic structure -------------------------------------------------

    @property
    def nodes(self) -> tuple:
        return self._nodes

    @property
    def directed(self) -> frozenset:
        return self._directed

    @property
    def bidirected(self) -> frozenset:
        return self._bidirected

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return (
            set(self._nodes) == set(other._nodes)
            and self._directed == other._directed
            and self._bidirected == other._bidirected
        )

    def __hash__(self):
        return hash((frozenset(self._nodes), self._directed, self._bidirected))

    def __repr__(self):
        return (
            f"MixedGraph(nodes={sorted(self._nodes)}, "
            f"directed={sorted(self._directed)}, bidirected={sorted(self._bidirected)})"
        )

    def _check_known(self, nodes):
        unknown = _as_node_set(nodes) - set(self._nodes)
        if unknown:
            raise UnknownNameError(f"unknown node(s): {', '.join(sorted(unknown))}")

    def is_subgraph_of(self, other: "MixedGraph") -> bool:
        return (
            set(self._nodes) <= set(other._nodes)
            and self._directed <= other._directed
            and self._bidirected <= other._bidirected
        )

    def induced(self, nodes) -> "MixedGraph":
        keep = _as_node_set(nodes)
        self._check_known(keep)
        return MixedGraph(
            [n for n in self._nodes if n in keep],
            [e for e in self._directed if e[0] in keep and e[1] in keep],
            [e for e in self._bidirected if e[0] in keep and e[1] in keep],
        )

    # --- relatives -------------------------------------------------------

    def parents_of(self, seed) -> frozenset:
        seed = _as_node_set(seed)
        self._check_known(seed)
        out = set()
        for n in seed:
            out |= self._pa[n]
        return frozenset(out)

    def children_of(self, seed) -> frozenset:
        seed = _as_node_set(seed)
        self._check_known(seed)
        out = set()
        for n in seed:
            out |= self._ch[n]
        return frozenset(out)

    def _closure(self, seed, step):
        """Reflexive-transitive closure of ``step`` starting from ``seed``."""
        seen = set(seed)
        queue = deque(seed)
        while queue:
            for nxt in step[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(seen)

    def ancestors_of(self, seed) -> frozenset:
        seed = _as_node_set(seed)
        self._check_known(seed)
        return self._closure(seed, self._pa)

    def descendants_of(self, seed) -> frozenset:
        seed = _as_node_set(seed)
        self._check_known(seed)
        return self._closure(seed, self._ch)

    def components(self) -> list:
        """The strongly connected components in a topological order
        (``strong_components`` over the parent sets): each is a tuple in
        node order and comes after every component with an edge into it."""
        if self._scc is None:
            object.__setattr__(self, "_scc", strong_components(self._nodes, self._pa))
        return self._scc

    def scc_of(self, node: str) -> frozenset:
        self._check_known([node])
        return self.scc_map()[node]

    def scc_map(self) -> Mapping:
        """Map every node to its strongly connected component (as a frozenset);
        built once, read-only."""
        if self._scc_of is None:
            scc_of = {n: frozenset(c) for c in self.components() for n in c}
            object.__setattr__(self, "_scc_of", MappingProxyType(scc_of))
        return self._scc_of

    def _neighbours(self) -> dict:
        """Each node's neighbours other than itself in sorted order, each as
        ``(neighbour, kinds)`` with ``kinds`` the edges between them seen from
        the node, in the order 'out', 'in', 'bi'; built once."""
        if self._adj is None:
            bi = {n: set() for n in self._nodes}
            for u, v in self._bidirected:
                bi[u].add(v)
                bi[v].add(u)
            adj = {}
            for n in self._nodes:
                ch, pa = self._ch[n], self._pa[n]
                adj[n] = tuple(
                    (v, tuple(k for k, edge in (("out", v in ch), ("in", v in pa), ("bi", v in bi[n])) if edge))
                    for v in sorted((ch | pa | bi[n]) - {n})
                )
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def is_acyclic(self) -> bool:
        """True iff there is no directed cycle; a self-loop counts as a cycle."""
        return len(self.components()) == len(self._nodes) and not any(t == h for t, h in self._directed)

    # --- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "nodes": sorted(self._nodes),
            "directed": sorted([list(e) for e in self._directed]),
            "bidirected": sorted([list(e) for e in self._bidirected]),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "MixedGraph":
        try:
            parts = [obj["nodes"], obj.get("directed", []), obj.get("bidirected", [])]
            # JSON arrays only: a string iterates as its characters, an object as its keys
            if not (all(isinstance(x, list) for x in parts) and all(isinstance(e, list) for e in parts[1] + parts[2])):
                raise TypeError("nodes, directed, bidirected and each edge must be arrays")
            return cls(*parts)
        except (KeyError, TypeError) as exc:
            raise ScmError(f"malformed graph JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "MixedGraph":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScmError(f"malformed graph JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    def to_dot(self) -> str:
        lines = ["digraph G {"]
        for n in sorted(self._nodes):
            lines.append(f'  "{n}";')
        for tail, head in sorted(self._directed):
            lines.append(f'  "{tail}" -> "{head}";')
        for u, v in sorted(self._bidirected):
            lines.append(f'  "{u}" -> "{v}" [dir=both];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def relatives(g: MixedGraph, seed, kind: str) -> frozenset:
    """One of parents/children/ancestors/descendants of a node set.

    Ancestors and descendants are reflexive-transitive (a node is its own
    ancestor via the length-0 path), parents and children are one-step.
    """
    dispatch = {
        "parents": g.parents_of,
        "children": g.children_of,
        "ancestors": g.ancestors_of,
        "descendants": g.descendants_of,
    }
    if kind not in dispatch:
        raise ScmError(f"unknown relative kind {kind!r}")
    return dispatch[kind](seed)


def intervene_graph(g: MixedGraph, targets) -> MixedGraph:
    """Remove all edges incoming on ``targets`` (and bidirected edges touching them)."""
    targets = _as_node_set(targets)
    g._check_known(targets)
    return MixedGraph(
        g.nodes,
        [e for e in g.directed if e[1] not in targets],
        [e for e in g.bidirected if e[0] not in targets and e[1] not in targets],
    )


def latent_projection(g: MixedGraph, latent) -> MixedGraph:
    """Project a directed graph onto the complement of ``latent``.

    An edge i -> j survives iff there is a directed path from i to j whose
    intermediate nodes all lie in ``latent`` (of any length >= 1 edges).
    Defined for directed graphs only.
    """
    latent = _as_node_set(latent)
    g._check_known(latent)
    if g.bidirected:
        raise ScmError("latent_projection is defined for directed graphs (no bidirected edges)")
    keep = [n for n in g.nodes if n not in latent]
    keep_set = set(keep)
    edges = set()
    for i in keep:
        # nodes in `latent` reachable from i by edges whose heads stay latent,
        # plus i itself for the n = 0 (direct edge) case
        reach = {i}
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in g._ch[u]:
                if v in keep_set:
                    edges.add((i, v))
                elif v not in reach:
                    reach.add(v)
                    queue.append(v)
    return MixedGraph(keep, edges, ())


def enumerate_loops(g: MixedGraph, max_nodes: int = 16) -> frozenset:
    """All node subsets whose induced subgraph is strongly connected: those
    that ``strong_components`` finds to be one component.

    Singletons always qualify (length-0 connectivity).  Enumeration is
    exponential, hence the node-count bound.
    """
    if len(g.nodes) > max_nodes:
        raise ScmError(f"enumerate_loops: {len(g.nodes)} nodes, over the cap max_nodes={max_nodes}")
    return frozenset(
        frozenset(subset)
        for r in range(1, len(g.nodes) + 1)
        for subset in itertools.combinations(g.nodes, r)
        if len(strong_components(subset, g._pa)) == 1
    )


# --- separation --------------------------------------------------------

def _paths_between(g: MixedGraph, sources: frozenset, sinks: frozenset):
    """Yield all simple paths from a source to a sink as (nodes, steps).

    ``steps[k]`` describes the edge between nodes[k] and nodes[k+1]:
    'out' for nodes[k] -> nodes[k+1], 'in' for nodes[k] <- nodes[k+1],
    'bi' for nodes[k] <-> nodes[k+1].  A single node in both sets yields
    the length-0 path.  Parallel directed/bidirected edges yield distinct
    paths because their collider status differs.  Paths are extended
    depth first from each source in sorted order, neighbours in sorted
    order and edge kinds in the order above (``MixedGraph._neighbours``).
    """
    neighbours = g._neighbours()
    for start in sorted(sources):
        if start in sinks:
            yield (start,), ()
        stack = [((start,), ())]
        while stack:
            nodes, steps = stack.pop()
            for nxt, kinds in neighbours[nodes[-1]]:
                if nxt in nodes:
                    continue
                new_nodes = nodes + (nxt,)
                for kind in kinds:
                    new_steps = steps + (kind,)
                    if nxt in sinks:
                        yield new_nodes, new_steps
                    stack.append((new_nodes, new_steps))


def _path_blocked(nodes, steps, cond, an_cond, scc):
    """``scc`` maps each node to its component for sigma-blocking; ``None`` d-blocks."""
    if nodes[0] in cond or nodes[-1] in cond:
        return True
    for k in range(1, len(nodes) - 1):
        node = nodes[k]
        into_left = steps[k - 1] in ("out", "bi")
        into_right = steps[k] in ("in", "bi")
        if into_left and into_right:
            # collider: blocks unless it has a descendant in (or is in) cond
            if node not in an_cond:
                return True
        else:
            # non-collider
            if node not in cond:
                continue
            if scc is None:
                return True
            children_on_path = []
            if steps[k - 1] == "in":
                children_on_path.append(nodes[k - 1])
            if steps[k] == "out":
                children_on_path.append(nodes[k + 1])
            if any(child not in scc[node] for child in children_on_path):
                return True
    return False


def _open_sinks(g: MixedGraph, a: frozenset, candidates: frozenset, s: frozenset, sigma: bool) -> frozenset:
    """The nodes of ``candidates`` that some path not blocked by ``s`` joins
    to a node of ``a``: sigma-blocked if ``sigma``, else d-blocked.  One
    search over the paths from ``a`` answers every candidate; it stops once
    all of them are found.  ``a`` is d- (sigma-) separated from B given
    ``s`` iff no node of B is returned for ``candidates`` = B."""
    an_cond = g.ancestors_of(s) if s else frozenset()
    scc = g.scc_map() if sigma else None
    found = set()
    for nodes, steps in _paths_between(g, a, candidates):
        if nodes[-1] not in found and not _path_blocked(nodes, steps, s, an_cond, scc):
            found.add(nodes[-1])
            if len(found) == len(candidates):
                break
    return frozenset(found)


def _separated(g, a, b, s, sigma):
    a = _as_node_set(a)
    b = _as_node_set(b)
    s = _as_node_set(s)
    if not a or not b:
        raise ScmError("separation needs nonempty node sets on both sides")
    for group in (a, b, s):
        g._check_known(group)
    return not _open_sinks(g, a, b, s, sigma)


def d_separated(g: MixedGraph, a, b, s) -> bool:
    """True iff every path between ``a`` and ``b`` is d-blocked by ``s``."""
    return _separated(g, a, b, s, sigma=False)


def sigma_separated(g: MixedGraph, a, b, s) -> bool:
    """True iff every path between ``a`` and ``b`` is sigma-blocked by ``s``.

    Sigma-blocking differs from d-blocking only at a non-collider in the
    conditioning set: it blocks only if at least one of its children on the
    path leaves its strongly connected component.  On acyclic graphs the two
    notions coincide.
    """
    return _separated(g, a, b, s, sigma=True)
