"""Solvability analysis and exact distribution computation.

Finite SCMs: all quantifiers over exogenous values range over the support of
the product measure; everything is computed in exact rational arithmetic.
One pass over the support solves the whole model per noise value; the
distribution and the selector polytope both read their fibers from it.
Linear SCMs: every verdict comes from one core, the block ``I - B_OO`` of the
subset and its inverse, with the global tolerance for the singularity test.
``solve_map`` is the one linear solve: the observational distribution,
interventional equivalence and marginalization are read off its matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .config import REGULARIZATION_CONDITION, np, tolerance
from .errors import (
    EvidenceError,
    NotSolvable,
    NotUniquelySolvable,
    ScmError,
    UnknownNameError,
)
from .graph import MixedGraph, enumerate_loops
from .scm import (
    FiniteScm,
    FiniteDomain,
    LinearScm,
    _zero_variance_coords,
    _zero_variance_level,
    augmented_graph,
    functional_graph,
    functional_parents,
)

__all__ = [
    "DiscreteDistribution",
    "GaussianDistribution",
    "SelectorPolytope",
    "SolvabilityResult",
    "SolveMap",
    "fiber",
    "solvable_wrt",
    "uniquely_solvable_wrt",
    "solve_map",
    "structurally_uniquely_solvable",
    "uniquely_solvable_all_subsets",
    "observational_distribution",
    "observational_polytope",
    "interventional_distribution",
    "counterfactual_distribution",
    "gaussian_condition",
]


# --- distributions --------------------------------------------------------

class DiscreteDistribution:
    """Exact distribution over a finite product of named domains.

    Only cells with positive probability are stored, in the read-only
    mapping ``probs``; probabilities are ``Fraction`` instances summing to
    exactly 1.
    """

    __slots__ = ("vars", "domains", "probs", "_counts")

    def __init__(self, vars, domains: Mapping[str, FiniteDomain], probs: Mapping[tuple, Fraction]):
        self.vars = tuple(vars)
        self.domains = {v: domains[v] for v in self.vars}
        cleaned = {}
        total = Fraction(0)
        for cell, p in probs.items():
            p = Fraction(p)
            if p < 0:
                raise ScmError(f"negative probability {p} at {cell!r}")
            if p:
                cleaned[tuple(cell)] = cleaned.get(tuple(cell), Fraction(0)) + p
                total += p
        if total != 1:
            raise ScmError(f"distribution not normalized: sums to {total}")
        self.probs = MappingProxyType(cleaned)
        self._counts = None

    def __reduce__(self):
        # copy and pickle rebuild through __init__; ``probs`` is a read-only view
        return DiscreteDistribution, (self.vars, self.domains, dict(self.probs))

    def __eq__(self, other):
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.vars == other.vars and self.probs == other.probs

    def __hash__(self):
        return hash((self.vars, frozenset(self.probs.items())))

    def __repr__(self):
        return f"DiscreteDistribution(vars={self.vars!r}, {len(self.probs)} cells)"

    def counts(self) -> tuple:
        """The law as exact integers: ``(den, n)`` with ``n[cell] == p * den``.

        ``den`` is the lcm of the cell denominators; ``n`` has one axis per
        variable, indexed in domain order.  Its dtype is ``int64`` while
        ``den * den < 2**62``, so sums of cells and products of two such sums
        cannot overflow, and ``object`` (Python ints) beyond.  Computed once
        and cached; the array is read-only.
        """
        if self._counts is None:
            den = math.lcm(*(p.denominator for p in self.probs.values()))
            index = [{v: i for i, v in enumerate(self.domains[x].values)} for x in self.vars]
            n = np.zeros(
                tuple(len(ix) for ix in index),
                dtype=np.int64 if den * den < 2**62 else object,
            )
            for cell, p in self.probs.items():
                pos = tuple(ix.get(v) for ix, v in zip(index, cell))
                if len(cell) != len(index) or None in pos:
                    raise ScmError(f"cell {cell!r} is not in the domains of {self.vars!r}")
                n[pos] = p.numerator * (den // p.denominator)
            n.setflags(write=False)
            self._counts = (den, n)
        return self._counts

    def prob(self, assignment: Mapping[str, object]) -> Fraction:
        """Probability of a (possibly partial) assignment."""
        idx = [self.vars.index(v) for v in assignment]
        want = [assignment[v] for v in assignment]
        return sum(
            (p for cell, p in self.probs.items() if all(cell[i] == w for i, w in zip(idx, want))),
            Fraction(0),
        )

    def marginal(self, names) -> "DiscreteDistribution":
        names = tuple(names)
        unknown = set(names) - set(self.vars)
        if unknown:
            raise UnknownNameError(f"unknown coordinates {sorted(unknown)}")
        idx = [self.vars.index(v) for v in names]
        out = {}
        for cell, p in self.probs.items():
            key = tuple(cell[i] for i in idx)
            out[key] = out.get(key, Fraction(0)) + p
        return DiscreteDistribution(names, self.domains, out)

    def condition(self, evidence: Mapping[str, object]) -> "DiscreteDistribution":
        """Exact Bayes conditioning; raises on zero-probability evidence."""
        for v in evidence:
            if v not in self.vars:
                raise UnknownNameError(f"unknown coordinate {v!r}")
        keep_vars = tuple(v for v in self.vars if v not in evidence)
        idx_e = [(self.vars.index(v), evidence[v]) for v in evidence]
        idx_k = [self.vars.index(v) for v in keep_vars]
        total = Fraction(0)
        cells = {}
        for cell, p in self.probs.items():
            if all(cell[i] == want for i, want in idx_e):
                total += p
                key = tuple(cell[i] for i in idx_k)
                cells[key] = cells.get(key, Fraction(0)) + p
        if total == 0:
            raise EvidenceError(f"evidence {dict(evidence)!r} has probability zero")
        return DiscreteDistribution(keep_vars, self.domains, {k: p / total for k, p in cells.items()})

    def to_json_obj(self) -> dict:
        def render(v):
            return str(v) if isinstance(v, Fraction) else v

        cells = sorted(self.probs.items(), key=lambda kv: tuple(map(str, kv[0])))
        return {
            "vars": list(self.vars),
            "probs": [[",".join(str(render(v)) for v in cell), str(p)] for cell, p in cells],
        }


class GaussianDistribution:
    """A Gaussian law over named real coordinates."""

    __slots__ = ("vars", "mean", "cov", "regularized")

    def __init__(self, vars, mean, cov, regularized=False, tol=None):
        tol = tolerance(tol)
        self.vars = tuple(vars)
        n = len(self.vars)
        self.mean = np.asarray(mean, dtype=float).reshape(n)
        self.cov = np.asarray(cov, dtype=float).reshape(n, n)
        if not np.allclose(self.cov, self.cov.T, atol=max(tol, 1e-8 * (1 + np.abs(self.cov).max(initial=0.0)))):
            raise ScmError("covariance is not symmetric")
        self.cov = (self.cov + self.cov.T) / 2
        if n and np.linalg.eigvalsh(self.cov).min() < -max(tol, 1e-8 * (1 + np.abs(self.cov).max(initial=0.0))):
            raise ScmError("covariance is not positive semi-definite")
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)
        self.regularized = bool(regularized)

    def __repr__(self):
        return f"GaussianDistribution(vars={self.vars!r})"

    def marginal(self, names) -> "GaussianDistribution":
        idx = [self.vars.index(v) for v in names]
        return GaussianDistribution(
            tuple(names), self.mean[idx], self.cov[np.ix_(idx, idx)], self.regularized
        )

    def close_to(self, other: "GaussianDistribution", tol=None) -> bool:
        """Equal up to ``tol`` in each variable's own units: the scale of a
        variable is the larger of its two variances (see ``_gaussians_agree``)."""
        return self.vars == other.vars and _gaussians_agree(
            self.mean, self.cov, other.mean, other.cov, tolerance(tol),
            np.maximum(np.diag(self.cov), np.diag(other.cov)),
        )

    def to_json_obj(self) -> dict:
        return {"vars": list(self.vars), "mean": self.mean.tolist(), "cov": self.cov.tolist()}


def _gaussians_agree(mean1, cov1, mean2, cov2, tol, scale) -> bool:
    """Do two Gaussian laws agree up to ``tol`` in the units of each
    variable, ``scale[i]`` being the variance that sets variable i's unit?
    Covariance ``(i, j)`` must agree within ``tol * sqrt(scale[i] *
    scale[j])`` and mean ``i`` within ``tol`` times the largest of its two
    values and ``sqrt(scale[i])``, so that a variable of large variance hides
    no difference in one of small variance, and rescaling the noise leaves
    the verdict unchanged."""
    sd = np.sqrt(np.maximum(scale, 0.0))
    top = np.maximum(np.maximum(np.abs(mean1), np.abs(mean2)), sd)
    return bool(np.all(np.abs(cov1 - cov2) <= tol * np.outer(sd, sd))
                and np.all(np.abs(mean1 - mean2) <= tol * top))


@dataclass
class SelectorPolytope:
    """Achievable observational distributions of a solvable finite SCM.

    ``vertices`` are the distributions induced by deterministic selectors
    (one fiber element per support point); the achievable set is exactly
    their convex hull.
    """

    vars: tuple
    vertices: tuple

    @property
    def unique(self) -> bool:
        return len(self.vertices) == 1


@dataclass
class SolvabilityResult:
    ok: bool
    subset: tuple
    witness: object = None

    def __bool__(self):
        return self.ok


@dataclass
class SolveMap:
    """The mapping assigning the unique solution of a subsystem to its inputs.

    Finite: a total table keyed by (endogenous-argument values, exogenous-
    argument values).  Linear: matrices (A, G, d) with
    x_targets = A x_args + G e + d.
    """

    targets: tuple
    endo_args: tuple
    exo_args: tuple
    table: dict = None
    A: np.ndarray = None
    G: np.ndarray = None
    d: np.ndarray = None

    def __call__(self, assignment: Mapping[str, object]) -> dict:
        if self.table is None:
            raise ScmError("linear solve maps are evaluated through their matrices")
        key = (
            tuple(assignment[a] for a in self.endo_args),
            tuple(assignment[a] for a in self.exo_args),
        )
        values = self.table[key]
        return dict(zip(self.targets, values))


# --- finite fibers ---------------------------------------------------------

_OUTSIDE = object()  # a mechanism value outside its variable's domain


def _subset_names(m, subset) -> tuple:
    names = set([subset]) if isinstance(subset, str) else set(subset)
    unknown = names - set(m.endogenous_names)
    if unknown:
        raise UnknownNameError(f"unknown endogenous index(es): {sorted(unknown)}")
    return tuple(n for n in m.endogenous_names if n in names)


def _dependency_components(m: FiniteScm, subset: tuple):
    """Strongly connected components of the declared-argument dependency graph
    on ``subset``, in topological order.  Declared arguments are a superset of
    the functional parents, so this is a sound decomposition for fiber
    enumeration."""
    cache = m._cache.setdefault("components", {})
    if subset in cache:
        return cache[subset]
    inside = set(subset)
    edges = []
    for o in subset:
        for a in m.mechanisms[o].args:
            if a in inside and a != o:
                edges.append((a, o))
    g = MixedGraph(subset, edges, ())
    comps = []
    seen = set()
    for n in subset:
        c = g.scc_map()[n]
        if c not in seen:
            seen.add(c)
            comps.append(c)
    comp_parents = {
        c: set(g.scc_map()[a] for o in c for a in m.mechanisms[o].args if a in inside) - {c}
        for c in comps
    }
    ordered = []
    placed = set()
    while comps:
        progress = False
        for c in list(comps):
            if comp_parents[c] <= placed:
                ordered.append(tuple(o for o in subset if o in c))
                placed.add(c)
                comps.remove(c)
                progress = True
        if not progress:  # pragma: no cover - SCC condensation is acyclic
            raise AssertionError("cyclic component order")
    cache[subset] = ordered
    return ordered


def _acyclic_order(preds: dict, removed) -> tuple:
    """The variables of ``preds`` outside ``removed`` in a topological order
    of the graph ``preds`` (variable -> its predecessors) with ``removed``
    taken out, or ``None`` if that graph has a cycle; a self-loop is one."""
    done = set(removed)
    left = [o for o in preds if o not in done]
    order = []
    while left:
        ready = [o for o in left if preds[o] <= done]
        if not ready:
            return None
        order += ready
        done.update(ready)
        left = [o for o in left if o not in done]
    return tuple(order)


def _cutset(m: FiniteScm, comp: tuple) -> tuple:
    """A cycle cutset of the component ``comp`` (Dechter 1990): ``(cut,
    rest)``, where removing ``cut`` leaves the declared dependency graph on
    ``comp`` acyclic, self-loops included, and ``rest`` lists the other
    variables in a topological order of what is left.  Of all such subsets,
    ``cut`` has the smallest product of domain sizes; ties go to the first
    in order of size, then of position in ``comp``.  The search over the
    subsets costs O(2**k * k**2) once per component, never more than one
    brute-force solve of the component, which tries prod |D_o| values."""
    inside = set(comp)
    preds = {o: {a for a in m.mechanisms[o].args if a in inside} for o in comp}
    best = None
    for size in range(len(comp) + 1):
        for cut in itertools.combinations(comp, size):
            cost = math.prod(len(m.endogenous[o]) for o in cut)
            if best is not None and cost >= best[0]:
                continue
            rest = _acyclic_order(preds, cut)
            if rest is not None:
                best = (cost, cut, rest)
    return best[1], best[2]


def _component_solutions(m, comp, assign):
    """Local solutions of the component ``comp`` given the values in
    ``assign`` of its mechanisms' arguments outside it, in the product order
    of the component's domains.

    Solved on a cycle cutset (``_cutset``): for each value of the cut, the
    other mechanisms are evaluated in topological order, a branch whose value
    falls outside its variable's domain is dropped, and the assignment is a
    solution iff every mechanism of the cut reproduces the cut's value.  A
    solve costs prod |D_f| over the cut, not prod |D_o| over the component:
    3 instead of 3**5 on a ternary 5-ring.  The cutset and the solutions are
    memoized per model and per distinct input, which is sound because models
    are frozen."""
    memo = m._cache.setdefault("component_solutions", {})
    if comp not in memo:
        inputs = tuple(dict.fromkeys(a for o in comp for a in m.mechanisms[o].args if a not in comp))
        cut, rest = _cutset(m, comp)
        # each domain as a dict, which maps a computed value to the domain's own
        evaluate = tuple((o, m.mechanisms[o], {v: v for v in m.endogenous[o].values}) for o in rest)
        # a cut that is not a prefix of ``comp`` enumerates in another order
        rank = None if cut == comp[:len(cut)] else [
            {v: r for r, v in enumerate(m.endogenous[o].values)} for o in comp
        ]
        memo[comp] = (inputs, cut, evaluate, rank, {})
    inputs, cut, evaluate, rank, solved = memo[comp]
    key = tuple(assign[a] for a in inputs)
    if key not in solved:
        local = dict(zip(inputs, key))
        out = []
        for combo in itertools.product(*(m.endogenous[o].values for o in cut)):
            local.update(zip(cut, combo))
            for o, mech, domain in evaluate:
                value = domain.get(mech(local), _OUTSIDE)
                if value is _OUTSIDE:
                    break
                local[o] = value
            else:
                if all(local[o] == m.mechanisms[o](local) for o in cut):
                    out.append(tuple(local[o] for o in comp))
        if rank is not None and len(out) > 1:
            out.sort(key=lambda sol: tuple(r[v] for r, v in zip(rank, sol)))
        solved[key] = tuple(out)
    return solved[key]


def _fibers(m: FiniteScm, subset: tuple, base_assign: dict, first_only=False):
    """All solutions of the structural equations of ``subset`` given the
    context/noise values in ``base_assign``; solved per strongly connected
    component of the declared dependency graph, branching where a component
    has several local solutions."""
    comps = _dependency_components(m, subset)
    solutions = []
    assign = dict(base_assign)

    def rec(level):
        if level == len(comps):
            solutions.append(tuple(assign[o] for o in subset))
            return first_only
        for combo in _component_solutions(m, comps[level], assign):
            assign.update(zip(comps[level], combo))
            stop = rec(level + 1)
            for o in comps[level]:
                del assign[o]
            if stop:
                return True
        return False

    rec(0)
    return solutions


def _relevant_exo(m: FiniteScm, subset) -> tuple:
    names = set()
    for o in subset:
        names.update(a for a in m.mechanisms[o].args if a in m.exogenous)
    return tuple(j for j in m.exogenous_names if j in names)


def _relevant_ctx(m: FiniteScm, subset) -> tuple:
    inside = set(subset)
    names = set()
    for o in subset:
        names.update(a for a in m.mechanisms[o].args if a in m.endogenous and a not in inside)
    return tuple(i for i in m.endogenous_names if i in names)


def _noise_weights(m: FiniteScm, j: str) -> tuple:
    """The support of noise ``j`` with integer weights: ``(den, [(v, n),
    ...])`` with P(j = v) = n / den, ``den`` the lcm of the denominators."""
    probs = [(v, Fraction(m.measure[j][v])) for v in m.support(j)]
    den = math.lcm(*(p.denominator for _, p in probs))
    return den, [(v, p.numerator * (den // p.denominator)) for v, p in probs]


def _support_denominator(m: FiniteScm, exo_names) -> int:
    """The one denominator of the weights ``_support_assignments`` yields."""
    return math.prod(_noise_weights(m, j)[0] for j in exo_names)


def _support_assignments(m: FiniteScm, exo_names):
    """Yield ``(assignment dict, n)`` over the support of the product measure
    restricted to ``exo_names``, in product order: the point has probability
    ``n / _support_denominator(m, exo_names)``, with ``n`` an integer."""
    weighted = [_noise_weights(m, j)[1] for j in exo_names]
    for combo in itertools.product(*weighted):
        n = 1
        for _, w in combo:
            n *= w
        yield {j: v for j, (v, _) in zip(exo_names, combo)}, n


def _support_fibers(m: FiniteScm):
    """Yield ``(e, n, fiber)`` for each noise assignment ``e`` in the support:
    its integer weight ``n`` (see ``_support_assignments``) and the solutions
    of the whole model; raises NotSolvable at the first empty fiber."""
    endo = m.endogenous_names
    for e_assign, n in _support_assignments(m, m.exogenous_names):
        sols = _fibers(m, endo, e_assign)
        if not sols:
            raise NotSolvable(endo, {"e": e_assign})
        yield e_assign, n, sols


def fiber(m: FiniteScm, subset, e: Mapping[str, object], ctx: Mapping[str, object] = None) -> frozenset:
    """The set of solutions x_subset of the structural equations of ``subset``
    for fixed exogenous values ``e`` and context ``ctx`` on the remaining
    endogenous variables, solved per strongly connected component.

    Tuples follow the endogenous declaration order restricted to ``subset``.
    """
    if not isinstance(m, FiniteScm):
        raise ScmError("fibers are defined for finite SCMs")
    subset = _subset_names(m, subset)
    ctx = dict(ctx or {})
    for name, value in list(e.items()) + list(ctx.items()):
        if value not in m.domain_of(name):
            raise ScmError(f"value {value!r} outside the domain of {name}")
    assign = {**ctx, **dict(e)}
    needed = set(_relevant_exo(m, subset)) - set(e)
    if needed:
        raise ScmError(f"missing exogenous values for {sorted(needed)}")
    needed_ctx = set(_relevant_ctx(m, subset)) - set(assign)
    if needed_ctx:
        raise ScmError(f"missing context values for {sorted(needed_ctx)}")
    return frozenset(_fibers(m, subset, assign))


# --- solvability ------------------------------------------------------------

def _finite_scan(m: FiniteScm, subset, need_unique: bool):
    subset = _subset_names(m, subset)
    exo = _relevant_exo(m, subset)
    ctx_names = _relevant_ctx(m, subset)
    for e_assign, _ in _support_assignments(m, exo):
        for ctx_combo in itertools.product(*(m.endogenous[i].values for i in ctx_names)):
            assign = dict(e_assign)
            assign.update(zip(ctx_names, ctx_combo))
            sols = _fibers(m, subset, assign, first_only=not need_unique)
            bad = (len(sols) == 0) if not need_unique else (len(sols) != 1)
            if bad:
                witness = {
                    "e": dict(e_assign),
                    "ctx": dict(zip(ctx_names, ctx_combo)),
                    "fiber": tuple(sols),
                }
                return SolvabilityResult(False, subset, witness)
    return SolvabilityResult(True, subset)


def _linear_subsystem(m: LinearScm, subset):
    """The subsystem on ``subset`` as ``(subset, idx, rest, block, inv)``:
    its names, the indices of its variables and of all others, the block
    ``I - B_OO`` and its inverse.  ``inv`` is ``None`` when the block is
    singular, i.e. its smallest singular value is at most the tolerance times
    max(1, the largest)."""
    subset = _subset_names(m, subset)
    idx = [m.endo_index(o) for o in subset]
    rest = [i for i, n in enumerate(m.endogenous_names) if n not in subset]
    block = np.eye(len(idx)) - m.B[np.ix_(idx, idx)]
    s = np.linalg.svd(block, compute_uv=False)
    singular = s.size and s.min() <= tolerance() * max(1.0, s.max())
    return subset, idx, rest, block, None if singular else np.linalg.inv(block)


def _linear_support_directions(m: LinearScm):
    """Columns spanning the support directions of the noise, block by block:
    the eigenvectors of each block covariance whose eigenvalue is not zero."""
    coords = m.coord_names
    cols = [np.zeros((len(coords), 0))]
    for b in m.blocks:
        w, v = np.linalg.eigh((b.cov + b.cov.T) / 2)
        block = np.zeros((len(coords), len(b.coords)))
        block[[coords.index(c) for c in b.coords], :] = v
        cols.append(block[:, w > _zero_variance_level(b.cov)])
    return np.hstack(cols)


def _linear_solvable(m: LinearScm, subset):
    tol = tolerance()
    subset, idx, rest, A, inv = _linear_subsystem(m, subset)
    if inv is not None:
        return SolvabilityResult(True, subset)
    # singular restriction: the system is consistent for almost every noise
    # value and every context iff the possible right-hand sides stay in the
    # column space of A
    if np.any(_zero_variance_coords(m)):
        raise ScmError(
            "linear solvability with singular I - B_OO requires all noise "
            "coordinates to have positive variance"
        )
    S = _linear_support_directions(m)
    rhs_cols = [m.B[np.ix_(idx, rest)], m.Gamma[idx, :] @ S]
    offset = (m.Gamma[idx, :] @ m.noise_mean() + m.c[idx]).reshape(-1, 1)
    stacked = np.hstack([c for c in rhs_cols if c.size] + [offset])
    rank_a = np.linalg.matrix_rank(A, tol=tol * max(1.0, float(np.abs(A).max(initial=0.0))))
    rank_full = np.linalg.matrix_rank(
        np.hstack([A, stacked]), tol=tol * max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(stacked).max(initial=0.0)))
    )
    if rank_a == rank_full:
        return SolvabilityResult(True, subset)
    return SolvabilityResult(False, subset, witness={"inconsistent": "I - B_OO rank test"})


def solvable_wrt(m, subset) -> SolvabilityResult:
    """Is the subsystem on ``subset`` solvable: does every positive-probability
    input admit at least one solution?"""
    if isinstance(m, FiniteScm):
        return _finite_scan(m, subset, need_unique=False)
    if isinstance(m, LinearScm):
        return _linear_solvable(m, subset)
    raise ScmError(f"not an SCM: {m!r}")


def uniquely_solvable_wrt(m, subset) -> SolvabilityResult:
    """Is the subsystem on ``subset`` uniquely solvable: is every fiber over a
    positive-probability input a singleton?"""
    if isinstance(m, FiniteScm):
        return _finite_scan(m, subset, need_unique=True)
    if isinstance(m, LinearScm):
        subset, _, _, _, inv = _linear_subsystem(m, subset)
        if inv is not None:
            return SolvabilityResult(True, subset)
        return SolvabilityResult(False, subset, witness={"singular": "I - B_OO"})
    raise ScmError(f"not an SCM: {m!r}")


def structurally_uniquely_solvable(m) -> bool:
    """Uniquely solvable with respect to every singleton; equivalently the
    augmented graph has no self-loops (both are computed and cross-checked).
    The verdict is memoized per model, which is sound because models are
    frozen."""
    if "structurally_unique" not in m._cache:
        by_singletons = all(bool(uniquely_solvable_wrt(m, [i])) for i in m.endogenous_names)
        no_self_loops = all((i, i) not in augmented_graph(m).directed for i in m.endogenous_names)
        if by_singletons != no_self_loops:  # pragma: no cover - consistency guard
            raise AssertionError("self-loop detection disagrees with singleton solvability")
        m._cache["structurally_unique"] = by_singletons
    return m._cache["structurally_unique"]


def uniquely_solvable_all_subsets(m, max_nodes: int = 16) -> bool:
    """Uniquely solvable with respect to every subset, decided through the
    loops of the functional graph only."""
    g = functional_graph(m)
    if len(g.nodes) > max_nodes:
        raise ScmError(f"uniquely_solvable_all_subsets bound exceeded ({len(g.nodes)} > {max_nodes})")
    loops = enumerate_loops(MixedGraph(g.nodes, g.directed, ()), max_nodes=max_nodes)
    return all(bool(uniquely_solvable_wrt(m, sorted(loop))) for loop in loops)


# --- solve maps --------------------------------------------------------------

def _canonical_args(m, subset):
    pa = set()
    for o in subset:
        pa |= functional_parents(m, o)
    if isinstance(m, FiniteScm):
        endo_all, exo_all = m.endogenous_names, m.exogenous_names
    else:
        endo_all, exo_all = m.endogenous_names, m.block_names
    inside = set(subset)
    endo_args = tuple(i for i in endo_all if i in pa and i not in inside)
    exo_args = tuple(j for j in exo_all if j in pa)
    return endo_args, exo_args


def solve_map(m, subset) -> SolveMap:
    """The mapping g assigning to each input of the subsystem its unique
    solution; requires unique solvability with respect to ``subset``."""
    if isinstance(m, LinearScm):
        subset_t, idx, rest, _, inv = _linear_subsystem(m, subset)
        if inv is None:
            raise NotUniquelySolvable(subset_t, {"singular": "I - B_OO"})
        return SolveMap(
            targets=subset_t,
            endo_args=tuple(m.endogenous_names[i] for i in rest),
            exo_args=m.coord_names,
            A=inv @ m.B[np.ix_(idx, rest)],
            G=inv @ m.Gamma[idx, :],
            d=inv @ m.c[idx],
        )
    if not isinstance(m, FiniteScm):
        raise ScmError(f"not an SCM: {m!r}")

    subset_t = _subset_names(m, subset)
    res = _finite_scan(m, subset_t, need_unique=True)
    if not res:
        raise NotUniquelySolvable(res.subset, res.witness)
    endo_args, exo_args = _canonical_args(m, subset_t)
    # non-parent declared arguments are pinned; the relation does not depend
    # on them on the support
    pin = {}
    for i in _relevant_ctx(m, subset_t):
        if i not in endo_args:
            pin[i] = m.endogenous[i].first()
    for j in _relevant_exo(m, subset_t):
        if j not in exo_args:
            sup = m.support(j)
            pin[j] = sup[0] if sup else m.exogenous[j].first()

    supports = {j: set(m.support(j)) for j in exo_args}
    table = {}
    for e_combo in itertools.product(*(m.exogenous[j].values for j in exo_args)):
        on_support = all(v in supports[j] for j, v in zip(exo_args, e_combo))
        for ctx_combo in itertools.product(*(m.endogenous[i].values for i in endo_args)):
            assign = dict(pin)
            assign.update(zip(exo_args, e_combo))
            assign.update(zip(endo_args, ctx_combo))
            sols = _fibers(m, subset_t, assign)
            if on_support and len(sols) != 1:  # pragma: no cover - guarded by the scan
                raise NotUniquelySolvable(subset_t, {"e": e_combo, "ctx": ctx_combo})
            if sols:
                value = sorted(sols)[0] if len(sols) > 1 else sols[0]
            else:
                value = tuple(m.endogenous[o].first() for o in subset_t)
            table[(ctx_combo, e_combo)] = value
    return SolveMap(targets=subset_t, endo_args=endo_args, exo_args=exo_args, table=table)


# --- distributions of solutions ----------------------------------------------

def observational_distribution(m):
    """The law of the unique solution: exact pushforward for finite SCMs,
    closed-form Gaussian for linear SCMs."""
    if isinstance(m, FiniteScm):
        endo = m.endogenous_names
        weights = {}
        for e_assign, n, sols in _support_fibers(m):
            if len(sols) > 1:
                raise NotUniquelySolvable(endo, {"e": e_assign, "fiber": tuple(sols)})
            cell = sols[0]
            weights[cell] = weights.get(cell, 0) + n
        den = _support_denominator(m, m.exogenous_names)
        return DiscreteDistribution(endo, m.endogenous, {c: Fraction(n, den) for c, n in weights.items()})
    if isinstance(m, LinearScm):
        try:
            sm = solve_map(m, m.endogenous_names)
        except NotUniquelySolvable:
            res = _linear_solvable(m, m.endogenous_names)
            if not res:
                raise NotSolvable(m.endogenous_names, res.witness) from None
            raise NotUniquelySolvable(m.endogenous_names, {"singular": "I - B"}) from None
        mean = sm.G @ m.noise_mean() + sm.d
        cov = sm.G @ m.noise_cov() @ sm.G.T
        return GaussianDistribution(m.endogenous_names, mean, cov)
    raise ScmError(f"not an SCM: {m!r}")


def observational_polytope(m: FiniteScm, max_selectors: int = 10**6) -> SelectorPolytope:
    """All achievable observational distributions of a solvable finite SCM,
    represented by the vertex distributions of deterministic selectors."""
    if not isinstance(m, FiniteScm):
        raise ScmError("the selector polytope is defined for finite SCMs")
    endo = m.endogenous_names
    points = []
    count = 1
    for _, n, sols in _support_fibers(m):
        points.append((n, sols))
        count *= len(sols)
        if count > max_selectors:
            raise ScmError(f"selector polytope overflow: more than {max_selectors} candidate selectors")
    den = _support_denominator(m, m.exogenous_names)
    vertices = []
    seen = set()
    for choice in itertools.product(*(sols for _, sols in points)):
        weights = {}
        for (n, _), cell in zip(points, choice):
            weights[cell] = weights.get(cell, 0) + n
        dist = DiscreteDistribution(endo, m.endogenous, {c: Fraction(n, den) for c, n in weights.items()})
        key = frozenset(dist.probs.items())
        if key not in seen:
            seen.add(key)
            vertices.append(dist)
    vertices.sort(key=lambda d: sorted((tuple(map(str, c)), str(p)) for c, p in d.probs.items()))
    return SelectorPolytope(vars=endo, vertices=tuple(vertices))


def interventional_distribution(m, intervention: Mapping[str, object]):
    """Observational distribution of the intervened model; solvability errors
    propagate."""
    from .transform import intervene

    return observational_distribution(intervene(m, intervention))


def counterfactual_distribution(m, factual_do, observed, cf_do, query):
    """Distribution of the counterfactual query variables (primed copies)
    given a factual intervention, factual observations, and a counterfactual
    intervention, computed on the intervened twin model.

    ``factual_do`` and ``cf_do`` use original variable names; ``query`` names
    the primed copies explicitly.
    """
    from .transform import intervene, twin

    tw = twin(m)
    iv = dict(factual_do)
    for k, v in dict(cf_do).items():
        iv[k + "'"] = v
    intervened = intervene(tw, iv)
    dist = observational_distribution(intervened)
    query = tuple([query] if isinstance(query, str) else query)
    for q in query:
        if not q.endswith("'"):
            raise UnknownNameError(f"counterfactual query variables are primed copies, got {q!r}")
    observed = dict(observed)
    if isinstance(dist, DiscreteDistribution):
        if observed:
            dist = dist.condition(observed)
        return dist.marginal(query)
    if observed:
        dist = gaussian_condition(dist, observed)
    return dist.marginal(query)


def gaussian_condition(d: GaussianDistribution, observed: Mapping[str, float], tol=None) -> GaussianDistribution:
    """Condition a Gaussian on exact values of some coordinates (Schur
    complement).  A singular observed block is an error, judged on its
    correlations relative to their largest singular value, so the verdict is
    the same at every scale of the noise.  A badly conditioned observed block
    is regularized and the result flagged."""
    tol = tolerance(tol)
    names = list(observed)
    for v in names:
        if v not in d.vars:
            raise UnknownNameError(f"unknown coordinate {v!r}")
    if not names:
        return d
    keep = [v for v in d.vars if v not in observed]
    ia = [d.vars.index(v) for v in keep]
    ib = [d.vars.index(v) for v in names]
    saa = d.cov[np.ix_(ia, ia)]
    sab = d.cov[np.ix_(ia, ib)]
    sbb = d.cov[np.ix_(ib, ib)]
    values = np.array([float(observed[v]) for v in names])
    # singular is judged on the correlations of the observed block, relative
    # to their largest singular value, so neither the overall scale nor the
    # unit of any one variable changes the verdict
    var = np.diag(sbb)
    if np.any(var <= 0):
        raise EvidenceError("observed block covariance is singular")
    sd = np.sqrt(var)
    corr = sbb / np.outer(sd, sd)
    s = np.linalg.svd(corr, compute_uv=False)
    if s.min() <= tol * s.max():
        raise EvidenceError("observed block covariance is singular")
    # a badly conditioned covariance gets a ridge of tol * s.max() in
    # correlation units instead of being trusted, and the result is flagged
    regularized = d.regularized
    if np.linalg.cond(sbb) > REGULARIZATION_CONDITION:
        corr = corr + tol * s.max() * np.eye(len(names))
        regularized = True
    k = (sab / sd) @ np.linalg.inv(corr) / sd
    mean = d.mean[ia] + k @ (values - d.mean[ib])
    cov = saa - k @ sab.T
    return GaussianDistribution(tuple(keep), mean, cov, regularized=regularized)
