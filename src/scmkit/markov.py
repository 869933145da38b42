"""Conditional-independence testing on exact distributions and verification
of the (general) directed global Markov property against the functional graph.

Conditional independence of finite distributions is an exact cross-product
check on integer counts; Gaussian distributions use vanishing partial
correlation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .analysis import (
    DiscreteDistribution,
    GaussianDistribution,
    observational_distribution,
    uniquely_solvable_wrt,
)
from .config import negligible, np, tolerance
from .errors import ScmError, SolvabilityError, UnknownNameError
from .graph import d_separated, sigma_separated
from .scm import LinearScm, functional_graph

__all__ = ["MarkovReport", "conditional_independent", "verify_markov"]


def _disjoint(a, b, s):
    a, b, s = set(a), set(b), set(s)
    if (a & b) or (a & s) or (b & s):
        raise ScmError("A, B and S must be pairwise disjoint")
    return tuple(sorted(a)), tuple(sorted(b)), tuple(sorted(s))


def _finite_ci(dist: DiscreteDistribution, a, b, s) -> bool:
    """Exact test on the integer counts n = p * den of the joint law: A is
    independent of B given S iff n(a, b, s) * n(s) == n(a, s) * n(b, s) for
    every cell, which holds trivially where n(s) == 0."""
    _, joint = dist.counts()
    axes = [dist.vars.index(v) for v in a + b + s]
    rest = [i for i in range(joint.ndim) if i not in axes]
    table = joint.transpose(axes + rest).sum(axis=tuple(range(len(axes), joint.ndim)))
    size = [math.prod(table.shape[:len(a)]), math.prod(table.shape[len(a):len(a) + len(b)])]
    n_abs = table.reshape(size + [-1])
    n_as = n_abs.sum(axis=1, keepdims=True)
    n_bs = n_abs.sum(axis=0, keepdims=True)
    n_s = n_as.sum(axis=0, keepdims=True)
    return bool(np.array_equal(n_abs * n_s, n_as * n_bs))


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
        return _finite_ci(dist, a, b, s)
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
    that is not, in the graph's topological order, is named."""
    if kind == "d":
        if graph.is_acyclic():
            return "acyclic"
        if isinstance(m, LinearScm):
            return "linear"
    for comp in graph.components():
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

    Finite models: the observational law is tabulated once as an integer
    tensor (``DiscreteDistribution.counts``), and each statement is an exact
    integer cross-product test on sums of it, with no tolerance.  The
    precondition scan enumerates, for each strongly connected component of
    the functional graph, every support point of the noises it reads times
    every context (values of the endogenous variables outside it that it
    reads).  Each fiber there, and in the distribution, is solved per
    component of the declared dependencies on a cycle cutset, so it costs
    support x context x prod |D_f| over the cutset, per component.  The
    scan and the distribution share these solves, cached on the model per
    distinct component input; the cache is sound because models are frozen.
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
    separated = sigma_separated if kind == "sigma" else d_separated

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
                sep = separated(graph, a, b, s)
                ci = conditional_independent(dist, a, b, s)
                report.entries.append(MarkovEntry(a, b, s, sep, ci))
    return report
