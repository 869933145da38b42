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

import numpy as np

from .analysis import (
    DiscreteDistribution,
    GaussianDistribution,
    observational_distribution,
    uniquely_solvable_wrt,
)
from .config import tolerance
from .errors import ScmError, SolvabilityError, UnknownNameError
from .graph import d_separated, sigma_separated
from .scm import functional_graph

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
    """Vanishing partial correlation.  The covariance is first rescaled to
    unit variances, so the verdict does not depend on the units of any
    variable; a variable left with at most ``tol`` of its variance after
    conditioning on S is a function of S and independent of everything."""
    u = [dist.vars.index(v) for v in a + b]
    i_s = [dist.vars.index(v) for v in s]
    sd = np.sqrt(np.diag(dist.cov))
    sd = np.where(sd > 0, sd, 1.0)
    corr = dist.cov / np.outer(sd, sd)
    partial = corr[np.ix_(u, u)]
    if i_s:
        partial = partial - corr[np.ix_(u, i_s)] @ np.linalg.pinv(corr[np.ix_(i_s, i_s)]) @ corr[np.ix_(i_s, u)]
    var = np.diag(partial)
    sd = np.sqrt(np.where(var > tol, var, np.inf))
    rho = partial / np.outer(sd, sd)
    return bool(np.all(np.abs(rho[: len(a), len(a):]) <= tol))


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
    kind: str
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
        lines.append(f"violations: {len(self.violations)} / {len(self.entries)} triples ({self.kind})")
        return "\n".join(lines)


def verify_markov(m, kind: str = "sigma", max_conditioning: int = None, full_subsets: bool = False) -> MarkovReport:
    """Test every separation statement readable from the functional graph
    against exact conditional independence in the observational distribution.

    kind="sigma" checks the general directed global Markov property and
    requires unique solvability with respect to each strongly connected
    component (checked here).  kind="d" checks the stronger directed global
    Markov property; its extra preconditions (linear with density, discrete,
    or acyclic) are asserted by the caller.  The discrete d-case would in
    fact hold under a weaker premise (unique solvability w.r.t. each
    ancestral subgraph); only the stronger per-component condition is
    implemented and relied on here.

    By default A and B range over singletons, which suffices at desk scale;
    ``full_subsets=True`` enumerates all disjoint subset pairs (exponential).

    Finite models: the observational law is tabulated once as an integer
    tensor (``DiscreteDistribution.counts``), and each statement is an exact
    integer cross-product test on sums of it, with no tolerance.  The
    precondition scan and the distribution share one brute-force solve per
    component and distinct component input, cached on the model; the cache
    is sound because models are frozen.
    """
    if kind not in ("sigma", "d"):
        raise ScmError(f"unknown Markov kind {kind!r}")
    graph = functional_graph(m)
    if kind == "sigma":
        for comp in {graph.scc_map()[n] for n in graph.nodes}:
            res = uniquely_solvable_wrt(m, sorted(comp))
            if not res:
                raise SolvabilityError(
                    comp, res.witness,
                    f"not uniquely solvable w.r.t. the strongly connected component {sorted(comp)}",
                )
    dist = observational_distribution(m)
    names = m.endogenous_names
    if max_conditioning is None:
        max_conditioning = len(names)
    separated = sigma_separated if kind == "sigma" else d_separated

    report = MarkovReport(kind=kind)
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
