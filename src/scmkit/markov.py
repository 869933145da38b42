"""Conditional-independence testing on exact distributions and verification
of the (general) directed global Markov property against the functional graph.

Conditional independence of finite distributions is an exact cross-product
check on integer counts, one Gram matrix per value of the conditioning set;
Gaussian distributions use vanishing partial correlation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .analysis import (
    DiscreteDistribution,
    GaussianDistribution,
    observational_distribution,
    uniquely_solvable_wrt,
)
from .config import negligible, np, tolerance
from .errors import ScmError, SolvabilityError, UnknownNameError
from .graph import _open_sinks
from .scm import LinearScm, functional_graph

__all__ = ["MarkovReport", "conditional_independent", "verify_markov"]


def _disjoint(a, b, s):
    a, b, s = set(a), set(b), set(s)
    if (a & b) or (a & s) or (b & s):
        raise ScmError("A, B and S must be pairwise disjoint")
    return tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(s))


def _joint_code(dist: DiscreteDistribution, codes, names) -> tuple:
    """``(code, size)``: each support cell's value of ``names`` as an integer
    below ``size``, by mixed radix over their domains, renumbered in sorted
    order whenever the radix would exceed the number of cells."""
    code, size = None, 1
    for v in names:
        k, column = len(dist.domains[v]), codes[:, dist.vars.index(v)]
        code, size = column if code is None else code * k + column, size * k
        if size > len(codes):
            values, code = np.unique(code, return_inverse=True)
            size = len(values)
    return np.zeros(len(codes), dtype=np.intp) if code is None else code, size


def _finite_ci(dist: DiscreteDistribution, s, blocks):
    """Exact test of every pair of ``blocks`` (disjoint tuples of variables
    outside ``s``) for independence given ``s``, on the integer weights n
    of the support cells (``DiscreteDistribution._cell_codes``).

    The values of the blocks are the columns of one Gram matrix per value k
    of S on the support: entry (i, j) of matrix k is n(i, j, k), the weight
    of the cells with values i and j and S = k, so its diagonal holds n(i, k)
    and one block's share of the diagonal sums to n(k).  Blocks p and q are
    independent given S iff n(p, q, k) * n(k) == n(p, k) * n(q, k) in every
    cell.  Returns the boolean matrix of those verdicts over pairs of blocks
    (its diagonal means nothing).  The Gram matrices hold K * D**2 integers,
    for K values of S and D block values on the support."""
    _, n, codes = dist._cell_codes()
    k, nk = _joint_code(dist, codes, s)
    cols, offsets = [], [0]
    for block in blocks:
        code, size = _joint_code(dist, codes, block)
        cols.append(code + offsets[-1])
        offsets.append(offsets[-1] + size)
    d, starts, cols = offsets[-1], offsets[:-1], np.array(cols)
    gram = np.zeros((nk, d, d), dtype=n.dtype)
    np.add.at(gram, (k, cols[:, None], cols[None, :]), n)
    n_ik = gram.diagonal(0, 1, 2)
    n_k = n_ik[:, :offsets[1]].sum(axis=1)
    equal = (gram * n_k[:, None, None] == n_ik[:, :, None] * n_ik[:, None, :]).all(axis=0)
    return np.logical_and.reduceat(np.logical_and.reduceat(equal, starts, axis=0), starts, axis=1)


def _gaussian_ci(dist: GaussianDistribution, a, b, s, tol) -> bool:
    """Vanishing partial correlation on unit variances, so no change of units
    moves a verdict.  A (partial) variance zero by rule (ii) of ``config`` marks
    a constant or a function of S, independent of everything; a partial
    covariance is zero by that rule or when its correlation is at most ``tol``."""
    u = [dist.vars.index(v) for v in a + b]
    i_s = [dist.vars.index(v) for v in s]
    var = np.diag(dist.cov)
    sd = np.sqrt(np.where(negligible(var, dist.scale, tol), np.inf, var))
    corr = dist.cov / np.outer(sd, sd)
    cuu, cus, inv = corr[np.ix_(u, u)], corr[np.ix_(u, i_s)], np.linalg.pinv(corr[np.ix_(i_s, i_s)], tol)
    partial = cuu - cus @ inv @ cus.T
    size = np.abs(cuu) + np.abs(cus) @ np.abs(inv) @ np.abs(cus).T
    var = np.diag(partial)
    sd = np.sqrt(np.where(negligible(var, np.diag(size), tol), np.inf, var))
    zero = negligible(partial, size, tol) | (np.abs(partial / np.outer(sd, sd)) <= tol)
    return bool(np.all(zero[: len(a), len(a):]))


def conditional_independent(dist, a, b, s=()) -> bool:
    """Exact conditional independence A independent of B given S."""
    a, b, s = _disjoint(a, b, s)
    if not isinstance(dist, (DiscreteDistribution, GaussianDistribution)):
        raise ScmError(f"not a distribution: {dist!r}")
    unknown = set(a + b + s) - set(dist.vars)
    if unknown:
        raise UnknownNameError(f"unknown coordinates {sorted(unknown)}")
    if isinstance(dist, DiscreteDistribution):
        return bool(_finite_ci(dist, s, [a, b])[0, 1])
    return _gaussian_ci(dist, a, b, s, tolerance())


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
    accepts an acyclic graph or a linear model outright; otherwise every
    strongly connected component must be uniquely solvable, and the first
    that is not, in the graph's topological order, is named.  A single
    variable without a self-loop is not scanned: the functional graph has
    no self-loop at k exactly when every section of k's equation over its
    noises' support and its context has one solution, which is unique
    solvability w.r.t. {k}."""
    if kind == "d":
        if graph.is_acyclic():
            return "acyclic"
        if isinstance(m, LinearScm):
            return "linear"
    for comp in graph.components():
        if len(comp) == 1 and (comp[0], comp[0]) not in graph.directed:
            continue
        res = uniquely_solvable_wrt(m, comp)
        if not res:
            raise SolvabilityError(
                comp, res.witness,
                f"not uniquely solvable w.r.t. the strongly connected component {sorted(comp)}",
            )
    return "scc_unique"


def verify_markov(m, kind: str = "sigma", max_conditioning: int = None, full_subsets: bool = False) -> MarkovReport:
    """Test every separation statement readable from the functional graph
    against exact conditional independence in the observational distribution.

    kind="sigma" checks the general directed global Markov property and
    requires unique solvability with respect to each strongly connected
    component.  kind="d" checks the stronger directed global Markov property
    and requires an acyclic functional graph, a linear model, or a finite
    model uniquely solvable w.r.t. each strongly connected component.  The
    premise is checked here, recorded as ``MarkovReport.premise``, and a
    model meeting none raises ``SolvabilityError`` naming the first failing
    component in topological order.  A negative ``max_conditioning`` is an
    ``ScmError``.  The discrete d-case would in fact hold under a weaker
    premise (unique solvability w.r.t. each ancestral subgraph); only the
    stronger per-component condition is implemented and relied on here.

    By default A and B range over singletons, which suffices at desk scale;
    ``full_subsets=True`` enumerates all disjoint subset pairs (exponential).

    Cost: the statements are answered per conditioning set, not one by one.
    One search over the paths from A (``graph._open_sinks``) finds every B
    that an unblocked path reaches given S, so there is one path search per
    (A, S).  On a finite law in singletons there is one integer Gram matrix
    per value of S (``_finite_ci`` over the support cells of
    ``DiscreteDistribution``, weights over one denominator), which decides
    every pair outside S at once by exact cross products, with no
    tolerance; ``full_subsets`` tests each (A, B) pair with the same kernel.
    Linear models test each statement on partial correlations.  The
    functional graph costs one pass over each mechanism's table per
    argument (``functional_parents``).  The precondition scan is one loop
    per strongly connected component of the functional graph with more than
    one variable or a self-loop, over every support point of the noises it
    reads times every context (values of the endogenous variables outside
    it that it reads), reading the component's memo.  Each fiber there is
    solved per component of the declared dependencies on a cycle cutset, so
    it costs support x context x prod |D_f| over the cutset, per component.
    The distribution is built one component at a time (``_gamma_law``): per
    component, its live states (distinct partial solutions) x the support
    of the noises it is the first to read x one memo lookup, not the whole
    support x every component.  The scan and the distribution share the
    component solves, cached on the model per distinct component input;
    the cache is sound because models are frozen.
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
    every = frozenset(names)
    # one path search per (A, S) and, on a finite law in singletons, one
    # Gram matrix per S: every B is read off them
    joined, pairwise = {}, {}

    def independent(a, b, s):
        if full_subsets or not isinstance(dist, DiscreteDistribution):
            return conditional_independent(dist, a, b, s)
        if s not in pairwise:
            free = [v for v in names if v not in s]
            pairwise[s] = {v: i for i, v in enumerate(free)}, _finite_ci(dist, s, [(v,) for v in free])
        pos, table = pairwise[s]
        return bool(table[pos[a[0]], pos[b[0]]])

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
    for a, b in pairs:
        rest = [n for n in names if n not in a and n not in b]
        for size in range(0, min(max_conditioning, len(rest)) + 1):
            for s in itertools.combinations(rest, size):
                if (a, s) not in joined:
                    joined[a, s] = _open_sinks(graph, frozenset(a), every.difference(a, s), frozenset(s), kind == "sigma")
                sep = joined[a, s].isdisjoint(b)
                report.entries.append(MarkovEntry(a, b, s, sep, independent(a, b, s)))
    return report
