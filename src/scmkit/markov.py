"""Conditional-independence testing on exact distributions and verification
of the (general) directed global Markov property against the functional graph.

Conditional independence of finite distributions is an exact cross-product
check on integer counts; one kernel (``_finite_ci``) decides the block pairs
it is given under a whole family of conditioning sets, filling only those
pairs' value grids, within a fixed entry budget (``_CI_BUDGET``).  A
Gaussian law is tested on its noise factor projected off the conditioning
set (``analysis._project``).  ``verify_markov`` gives each conditioning set
of its table one bit, so a statement's separation verdict is one bit test
on the masks that ``graph._open_sinks`` returns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .analysis import (
    DiscreteDistribution,
    GaussianDistribution,
    _project,
    observational_distribution,
    uniquely_solvable_wrt,
)
from .config import negligible, np
from .errors import ScmError, SolvabilityError, UnknownNameError
from .graph import _open_sinks
from .scm import functional_graph, is_finite

__all__ = ["MarkovReport", "conditional_independent", "verify_markov"]


def _disjoint(a, b, s):
    a, b, s = set(a), set(b), set(s)
    if (a & b) or (a & s) or (b & s):
        raise ScmError("A, B and S must be pairwise disjoint")
    return tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(s))


def _group_codes(dist: DiscreteDistribution, codes, groups) -> tuple:
    """``(code, count)``: ``code[g, c]`` numbers the value of the group
    ``groups[g]`` (a tuple of variables) at support cell c, densely over the
    ``count`` pairs of a group and a value that occur, ordered by group, then
    by the mixed-radix value; so the codes of each group are a run, and the
    runs follow the order of ``groups``.  The codes are renumbered densely
    whenever their range outgrows the number of (group, cell) pairs, so the
    mixed radix cannot overflow."""
    cells = len(codes)
    wide = max(map(len, groups), default=0)
    # the columns of each group, padded with an all-zero column
    padded = np.zeros((len(dist.vars) + 1, cells), dtype=np.intp)
    padded[:-1] = codes.T
    at = {v: i for i, v in enumerate(dist.vars)}
    members = np.array([[at[v] for v in g] + [len(at)] * (wide - len(g)) for g in groups],
                       dtype=np.intp).reshape(len(groups), wide)
    radix = max((len(dist.domains[v]) for v in dist.vars), default=1)
    code, bound = np.repeat(np.arange(len(groups))[:, None], cells, axis=1), len(groups)
    for i in range(wide):
        if bound > len(groups) * cells:
            values, code = np.unique(code, return_inverse=True)
            bound = len(values)
        code, bound = code.reshape(len(groups), cells) * radix + padded[members[:, i]], bound * radix
    values, code = np.unique(code, return_inverse=True)
    return code.reshape(len(groups), cells), len(values)


# The most entries that one array of ``_finite_ci`` may hold: the value
# grids of a run of conditioning sets, or their scatter index.  A set that
# needs more on its own runs alone and is split further: its slots in
# pieces, the cells of a piece in batches.  Only a single slot's grids, or
# one cell's pairs, can go over it.
_CI_BUDGET = 1 << 16


def _ci_chunks(dist: DiscreteDistribution, sets, cells: int, pairs: int, width: int):
    """Split ``sets`` into runs ``(start, stop)`` whose arrays in
    ``_finite_ci`` stay within ``_CI_BUDGET`` entries: a set of S costs
    ``cells * pairs`` scatter indices and at most min(cells, prod |D_v| over
    S) slots of ``width`` grid entries each.  A run holds at least one set,
    so a run over the budget is a single set, which ``_finite_ci`` splits."""
    runs, start, index, tensor = [], 0, 0, 0
    size = {v: len(dist.domains[v]) for v in dist.vars}
    for t, s in enumerate(sets):
        slots = min(cells, math.prod([size[v] for v in s])) * width
        if t > start and (index + cells * pairs > _CI_BUDGET or tensor + slots > _CI_BUDGET):
            runs.append((start, t))
            start, index, tensor = t, 0, 0
        index, tensor = index + cells * pairs, tensor + slots
    if sets:
        runs.append((start, len(sets)))
    return runs


def _finite_ci(dist: DiscreteDistribution, sets, blocks, pairs):
    """Exact tests of the block pairs ``pairs`` (index pairs (p, q) into
    ``blocks``, tuples of variables) for independence given each set of
    ``sets``, on the integer weights n of the support cells
    (``DiscreteDistribution._cell_codes``): ``verdict[t, r]`` is true iff
    the blocks of ``pairs[r]`` are independent given ``sets[t]``.  It means
    nothing where the two blocks meet each other or the set.

    The slots are every pair of a set and a value k of it on the support.
    Each slot holds one value grid per requested pair, every grid padded to
    the largest: entry (i, j) of pair (p, q)'s grid is n(i, j, k), the
    weight of the cells where p has its i-th value, q its j-th and S = k.
    One scatter-add of the cell weights fills the grids, cells x pairs
    indices per set; a grid's row, column and total sums are then n(i, k),
    n(j, k) and n(k), and one cross-product comparison n(i, j, k) * n(k) ==
    n(i, k) * n(j, k) tests every entry (a padding row or column is 0 on
    both sides).  ``reduceat`` gathers the verdicts per set.  The sets are
    taken in runs (``_ci_chunks``) so that neither the grids nor their
    scatter index go over ``_CI_BUDGET`` entries.  A set too wide for that
    on its own is taken in pieces of its slots, each filled from the cells
    that hold one of them, and its verdict is the AND of the pieces'; the
    cells of a piece are scattered in batches."""
    verdict = np.ones((len(sets), len(pairs)), dtype=bool)
    if not pairs:
        return verdict
    _, n, codes = dist._cell_codes()
    cells = len(codes)
    cols = _group_codes(dist, codes, blocks)[0]
    cols -= cols.min(axis=1, keepdims=True)  # each block's values numbered from 0
    size = cols.max(axis=1) + 1  # the values of each block
    p, q = np.array(pairs, dtype=np.intp).T
    rows, wide = int(size[p].max()), int(size[q].max())
    width = len(pairs) * rows * wide
    step = max(1, _CI_BUDGET // width)
    for start, stop in _ci_chunks(dist, sets, cells, len(pairs), width):
        slot, slots = _group_codes(dist, codes, sets[start:stop])
        batch = max(1, _CI_BUDGET // (len(pairs) * (stop - start)))
        # a run over the budget is one set (``_ci_chunks``): its slots go in
        # pieces of ``step``, each over the cells that hold one of them
        for lo in range(0, slots, step):
            hi = min(lo + step, slots)
            whole = hi - lo == slots
            keep = slice(None) if whole else (slot[0] >= lo) & (slot[0] < hi)
            at, value, weight = slot[:, keep] - lo, cols[:, keep], n[keep]
            # laid out (i, j, slot, pair), so every sum below runs over whole rows
            gram = np.zeros((rows, wide, hi - lo, len(pairs)), dtype=n.dtype)
            for e in range(0, len(weight), batch):
                part = slice(e, e + batch)
                cell = (value[p, part] * wide + value[q, part]) * (hi - lo)
                index = (cell + at[:, None, part]) * len(pairs) + np.arange(len(pairs))[:, None]
                # flat and with the weights laid out in full, add.at takes its
                # fast loop (numpy 2.4 also misreads values it has to broadcast itself)
                np.add.at(gram.reshape(-1), index.ravel(), np.broadcast_to(weight[part], index.shape).ravel())
            n_i, n_j = gram.sum(axis=1), gram.sum(axis=0)
            equal = (gram * n_i.sum(axis=0) == n_i[:, None] * n_j[None]).all(axis=(0, 1))
            # the slots of each set of the run (a piece's slots are all its one set's)
            verdict[start:stop] &= np.logical_and.reduceat(equal, slot.min(axis=1) if whole else [0])
    return verdict


def _gaussian_ci(dist: GaussianDistribution, a, b, s) -> bool:
    """Vanishing partial correlations: the noise factor rows of A and B projected
    off those of S (``analysis._project``) are independent when one is 0 or
    their cosine is at most the tolerance, so no change of units moves a verdict."""
    rows = _project(dist, [dist.vars.index(v) for v in a + b], [dist.vars.index(v) for v in s])[0]
    norm = np.linalg.norm(rows, axis=1)
    return bool(np.all(negligible(rows[:len(a)] @ rows[len(a):].T, np.outer(norm[:len(a)], norm[len(a):]))))


def conditional_independent(dist, a, b, s=()) -> bool:
    """Exact conditional independence A independent of B given S."""
    a, b, s = _disjoint(a, b, s)
    if not isinstance(dist, (DiscreteDistribution, GaussianDistribution)):
        raise ScmError(f"not a distribution: {dist!r}")
    unknown = set(a + b + s) - set(dist.vars)
    if unknown:
        raise UnknownNameError(f"unknown coordinates {sorted(unknown)}")
    if isinstance(dist, DiscreteDistribution):
        return bool(_finite_ci(dist, [s], [a, b], [(0, 1)])[0, 0])
    return _gaussian_ci(dist, a, b, s)


@dataclass
class MarkovEntry:
    a: tuple
    b: tuple
    s: tuple
    separated: bool
    independent: bool

    @property
    def violation(self) -> bool:
        return self.separated and not self.independent


@dataclass
class MarkovReport:
    """``premise`` names the case that licenses the property checked:
    ``"acyclic"`` or ``"linear"`` (d only), or ``"scc_unique"``, unique
    solvability w.r.t. each strongly connected component."""

    kind: str
    premise: str
    entries: list = field(default_factory=list)

    @property
    def violations(self) -> list:
        return [e for e in self.entries if e.violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "premise": self.premise,
            "violations": len(self.violations),
            "entries": [
                {
                    "a": list(e.a),
                    "b": list(e.b),
                    "s": list(e.s),
                    "separated": e.separated,
                    "independent": e.independent,
                    "violation": e.violation,
                }
                for e in self.entries
            ],
        }

    def to_table(self) -> str:
        lines = [f"{'A':<12} {'B':<12} {'S':<18} {'sep':<5} {'ci':<5} violation"]
        for e in self.entries:
            lines.append(
                f"{','.join(e.a):<12} {','.join(e.b):<12} {','.join(e.s) or '-':<18} "
                f"{str(e.separated):<5} {str(e.independent):<5} {'YES' if e.violation else ''}"
            )
        lines.append(
            f"violations: {len(self.violations)} / {len(self.entries)} triples "
            f"({self.kind}, premise: {self.premise})"
        )
        return "\n".join(lines)


def _premise(m, graph, kind: str) -> str:
    """The case of the Markov theorem that applies to ``m``: the d-case
    accepts an acyclic graph outright; otherwise every strongly connected
    component must be uniquely solvable, and the first that is not, in the
    graph's topological order, is named.  A cyclic linear model then meets
    the d-case as ``"linear"``: I - B is block-triangular over the
    components, so the scan is exactly its invertibility.  A single
    variable without a self-loop is not scanned: the functional graph has
    no self-loop at k exactly when every section of k's equation over its
    noises' support and its context has one solution, which is unique
    solvability w.r.t. {k}."""
    if kind == "d" and graph.is_acyclic():
        return "acyclic"
    for comp in graph.components():
        if len(comp) == 1 and (comp[0], comp[0]) not in graph.directed:
            continue
        res = uniquely_solvable_wrt(m, comp)
        if not res:
            raise SolvabilityError(
                comp, res.witness,
                f"not uniquely solvable w.r.t. the strongly connected component {sorted(comp)}",
            )
    return "linear" if kind == "d" and not is_finite(m) else "scc_unique"


def verify_markov(m, kind: str = "sigma", max_conditioning: int = None, full_subsets: bool = False) -> MarkovReport:
    """Test every separation statement readable from the functional graph
    against exact conditional independence in the observational distribution.

    kind="sigma" checks the general directed global Markov property and
    requires unique solvability with respect to each strongly connected
    component.  kind="d" checks the stronger directed global Markov property
    and requires an acyclic functional graph, or a model uniquely solvable
    w.r.t. each strongly connected component (for a linear model, an
    invertible I - B; the premise then reads "linear").  The
    premise is checked here, recorded as ``MarkovReport.premise``, and a
    model meeting none raises ``SolvabilityError`` naming the first failing
    component in topological order.  A negative ``max_conditioning`` is an
    ``ScmError``.  The discrete d-case would in fact hold under a weaker
    premise (unique solvability w.r.t. each ancestral subgraph); only the
    stronger per-component condition is implemented and relied on here.

    By default A and B range over singletons, which suffices at desk scale;
    ``full_subsets=True`` enumerates all disjoint subset pairs (exponential).

    Cost: the statements are answered in bulk, not one by one.  Each
    conditioning set that the table reads gets one bit.  The separation half
    is one walk per A (``graph._open_sinks``) for every set at once: each
    path reduces to the mask of the sets it is open under in O(path length)
    integer operations, and the walk looks only for the B that the table
    pairs with A and stops once each of them holds every set outside it.  On
    a finite law in singletons one ``_finite_ci`` call decides every pair
    of the table under every set exactly, filling only those pairs' value
    grids, its memory held within ``_CI_BUDGET`` entries however many sets
    the table holds; ``full_subsets`` tests each (A, B) pair with the same
    kernel, one S at a time.  A linear law tests each statement on its noise
    factor projected off S (``_gaussian_ci``), the projection that conditions
    it.  Each entry is then one bit test and one list lookup.  The
    functional graph costs one pass over each mechanism's table per argument
    (``functional_parents``).  The premise (``_premise``, one verdict pass
    per cyclic component) and the law (``_gamma_law``) go one strongly
    connected component at a time and share its solves, one per distinct
    component input, and its support points, cached on the model; the cache
    is sound because models are frozen.
    """
    if kind not in ("sigma", "d"):
        raise ScmError(f"unknown Markov kind {kind!r}")
    if max_conditioning is not None and max_conditioning < 0:
        raise ScmError(f"max_conditioning must be at least 0, got {max_conditioning}")
    graph = functional_graph(m)
    premise = _premise(m, graph, kind)
    dist = observational_distribution(m)
    names = m.endogenous_names
    if max_conditioning is None:
        max_conditioning = len(names)
    report = MarkovReport(kind=kind, premise=premise)
    if full_subsets:
        pairs = []
        for ra in range(1, len(names)):
            for a in itertools.combinations(names, ra):
                rest = [n for n in names if n not in a]
                for rb in range(1, len(rest) + 1):
                    for b in itertools.combinations(rest, rb):
                        if a < b:
                            pairs.append((a, b))
    else:
        pairs = [((x,), (y,)) for x, y in itertools.combinations(names, 2)]
    # every S that the table reads, one bit each: the subsets of the names
    # with at most ``max_conditioning`` of them that leave two names out,
    # in the order of each pair's statements
    sets = [s for size in range(min(max_conditioning, len(names) - 2) + 1)
            for s in itertools.combinations(names, size)]
    member = dict.fromkeys(names, 0)
    for t, s in enumerate(sets):
        for v in s:
            member[v] |= 1 << t
    # one walk per A decides every set for all the B that its pairs join to it
    partners = {}
    for a, b in pairs:
        partners.setdefault(a, set()).update(b)
    opened = {a: _open_sinks(graph, frozenset(a), frozenset(b), sets, kind == "sigma") for a, b in partners.items()}
    bulk = not full_subsets and is_finite(m)
    if bulk:
        # every pair of the singleton table over every set, by one kernel
        # call: one list per pair, in the order of the table
        verdict = _finite_ci(dist, sets, [(v,) for v in names],
                             list(itertools.combinations(range(len(names)), 2))).T.tolist()
    for k, (a, b) in enumerate(pairs):
        meets, joined = 0, 0
        for v in a + b:
            meets |= member[v]
        for v in b:
            joined |= opened[a][v]
        for t, s in enumerate(sets):
            if not meets >> t & 1:
                independent = verdict[k][t] if bulk else conditional_independent(dist, a, b, s)
                report.entries.append(MarkovEntry(a, b, s, not joined >> t & 1, independent))
    return report
