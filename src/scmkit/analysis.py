"""Solvability analysis and exact distribution computation.

Finite SCMs: all quantifiers over exogenous values range over the support of
the product measure; everything is computed in exact rational arithmetic.
Every finite law is one push-forward, ``_gamma_law``: one forward pass over
the strongly connected components in topological order, each enumerating the
noises it is the first to read and merging the noise values that lead to the
same partial solutions, as in variable elimination.  Its integer law goes
straight to ``DiscreteDistribution._from_counts``: a finite law is integer
counts over one denominator, its ``Fraction``s derived from them, and its
marginals, conditionals and probabilities sum counts.  The selector polytope
is read off the Γ-law too: its vertices are the marginal vectors of the core
of the belief function with mass P(Γ = A), found by one memo entry per
family of unplaced focal sets.  Every finite verdict, (unique) solvability
w.r.t. a subset, is one pass over the same plan, ``_solves``, the context
held as columns and each partial row counted up to two.
Linear SCMs: every verdict comes from one core, the block ``I - B_OO`` of the
subset and its inverse or left null vectors, and every zero test is the one
unit-free rule of ``config``.  ``solve_map`` is the one linear solve: the
observational distribution, interventional equivalence and marginalization
are read off its matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .config import covariance_root, negligible, np, perron_balance, snap, tolerance, unit_eigenvectors
from .errors import (
    EvidenceError,
    NotSolvable,
    NotUniquelySolvable,
    ScmError,
    UnknownNameError,
    UnsupportedModelError,
)
from .graph import enumerate_loops, strong_components
from .scm import (
    _OUTSIDE,
    FiniteScm,
    FiniteDomain,
    LinearScm,
    _canonical_arg_order,
    _items_at,
    _pins,
    augmented_graph,
    functional_graph,
    functional_parents,
    is_finite,
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

def _coordinates(vars: tuple, names) -> list:
    """The positions of ``names`` among the coordinates ``vars`` of a law;
    a name that is not one of them raises ``UnknownNameError``, and one named
    twice ``ScmError``."""
    names = list(names)
    unknown = [v for v in names if v not in vars]
    if unknown:
        raise UnknownNameError(f"unknown coordinates {unknown}")
    repeated = [v for k, v in enumerate(names) if v in names[:k]]
    if repeated:
        raise ScmError(f"coordinate {repeated[0]!r} named twice")
    return [vars.index(v) for v in names]


def _integer_weights(probs) -> tuple:
    """``(den, ns)``: the lcm ``den`` of the denominators of the rationals
    ``probs`` and each of them times ``den``, an integer."""
    probs = [Fraction(p) for p in probs]
    den = math.lcm(*(p.denominator for p in probs))
    return den, [p.numerator * (den // p.denominator) for p in probs]


class DiscreteDistribution:
    """Exact distribution over a finite product of named domains.

    The law is held as positive integer counts over one denominator, both
    divided by their gcd, for the cells of positive probability only.  The
    read-only mapping ``probs`` is derived from them on first access and
    kept: cell to ``Fraction``, summing to exactly 1.
    """

    __slots__ = ("vars", "domains", "_den", "_counts", "_codes", "_probs")

    def __init__(self, vars, domains: Mapping[str, FiniteDomain], probs: Mapping[tuple, Fraction]):
        vars = tuple(vars)
        _coordinates(vars, vars)  # a name repeated in vars raises ScmError
        den, ns = _integer_weights(probs.values())
        counts = {}
        for cell, n in zip(probs, ns):
            if n < 0:
                raise ScmError(f"negative probability {Fraction(n, den)} at {cell!r}")
            if n:
                counts[tuple(cell)] = counts.get(tuple(cell), 0) + n
        self._set(vars, domains, den, counts)
        for cell in counts:
            if len(cell) != len(self.vars) or not all(v in self.domains[x] for x, v in zip(self.vars, cell)):
                raise ScmError(f"cell {cell!r} is not in the domains of {self.vars!r}")

    @classmethod
    def _from_counts(cls, vars, domains: Mapping[str, FiniteDomain], den: int, counts: Mapping[tuple, int]):
        """The law with P(cell) = counts[cell] / den, from positive integer
        counts over one denominator whose cells are in the domains."""
        return object.__new__(cls)._set(vars, domains, den, counts)

    def _set(self, vars, domains, den, counts):
        # normalization is checked in integers; den and counts are kept divided by their gcd
        total = sum(counts.values())
        if total != den:
            raise ScmError(f"distribution not normalized: sums to {Fraction(total, den)}")
        g = math.gcd(den, *counts.values())
        self.vars = tuple(vars)
        self.domains = {v: domains[v] for v in self.vars}
        self._den = den // g
        self._counts = MappingProxyType({cell: n // g for cell, n in counts.items()})
        self._codes = self._probs = None
        return self

    @property
    def probs(self) -> Mapping[tuple, Fraction]:
        if self._probs is None:
            self._probs = MappingProxyType({cell: Fraction(n, self._den) for cell, n in self._counts.items()})
        return self._probs

    def __reduce__(self):
        # copy and pickle rebuild from the counts; ``_counts`` is a read-only view
        return DiscreteDistribution._from_counts, (self.vars, self.domains, self._den, dict(self._counts))

    def __eq__(self, other):
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        # the gcd-reduced counts are canonical: equal laws have equal counts
        return self.vars == other.vars and self._den == other._den and self._counts == other._counts

    def __hash__(self):
        return hash((self.vars, self._den, frozenset(self._counts.items())))

    def __repr__(self):
        return f"DiscreteDistribution(vars={self.vars!r}, {len(self._counts)} cells)"

    def _cell_codes(self) -> tuple:
        """The cells of positive probability as exact integers: ``(den, n,
        codes)`` with ``n[c] == p * den`` for the ``c``-th cell of ``probs``
        and ``codes[c]`` its position in each variable's domain.

        The dtype of ``n`` is ``int64`` while ``den * den < 2**62``, so sums
        of cells and products of two such sums cannot overflow, and
        ``object`` (Python ints) beyond.  Computed once and cached; the
        arrays are read-only.
        """
        if self._codes is None:
            den = self._den
            index = [{v: i for i, v in enumerate(self.domains[x].values)} for x in self.vars]
            codes = [tuple(ix[v] for ix, v in zip(index, cell)) for cell in self._counts]
            n = np.array(list(self._counts.values()), dtype=np.int64 if den * den < 2**62 else object)
            codes = np.array(codes, dtype=np.intp).reshape(len(codes), len(index))
            for a in (n, codes):
                a.setflags(write=False)
            self._codes = (den, n, codes)
        return self._codes

    def prob(self, assignment: Mapping[str, object]) -> Fraction:
        """Probability of a (possibly partial) assignment."""
        idx = _coordinates(self.vars, assignment)
        want = [assignment[v] for v in assignment]
        n = sum(n for cell, n in self._counts.items() if all(cell[i] == w for i, w in zip(idx, want)))
        return Fraction(n, self._den)

    def marginal(self, names) -> "DiscreteDistribution":
        names = tuple(names)
        key = _items_at(_coordinates(self.vars, names))
        out = {}
        for cell, n in self._counts.items():
            k = key(cell)
            out[k] = out.get(k, 0) + n
        return DiscreteDistribution._from_counts(names, self.domains, self._den, out)

    def condition(self, evidence: Mapping[str, object]) -> "DiscreteDistribution":
        """Exact Bayes conditioning; raises on zero-probability evidence."""
        idx_e = [(i, evidence[v]) for i, v in zip(_coordinates(self.vars, evidence), evidence)]
        keep_vars = tuple(v for v in self.vars if v not in evidence)
        key = _items_at([self.vars.index(v) for v in keep_vars])
        cells = {}
        for cell, n in self._counts.items():
            if all(cell[i] == want for i, want in idx_e):
                k = key(cell)
                cells[k] = cells.get(k, 0) + n
        if not cells:
            raise EvidenceError(f"evidence {dict(evidence)!r} has probability zero")
        return DiscreteDistribution._from_counts(keep_vars, self.domains, sum(cells.values()), cells)

    def to_json_obj(self) -> dict:
        cells = sorted(self.probs.items(), key=lambda kv: tuple(map(str, kv[0])))
        return {"vars": list(self.vars), "probs": [[",".join(map(str, cell)), str(p)] for cell, p in cells]}


class GaussianDistribution:
    """A Gaussian law over named real coordinates, ``mean + factor @ z`` for z
    standard normal (``covariance_root`` if given by ``cov``); ``scale``, each
    variable's uncancelled variance (by default ``diag(cov)``), is its unit
    for ``config``."""

    __slots__ = ("vars", "mean", "cov", "scale", "factor")

    def __init__(self, vars, mean, cov, scale=None):
        vars = tuple(vars)
        cov = np.asarray(cov, dtype=float).reshape(len(vars), len(vars))
        scale = np.maximum(np.diag(cov) if scale is None else np.asarray(scale, dtype=float), 0.0)
        factor, problem = covariance_root(cov, scale)
        if problem:
            raise ScmError(f"covariance is {problem}")
        self._set(vars, mean, cov, scale, factor)

    @classmethod
    def _from_factor(cls, vars, mean, cov, scale, factor) -> "GaussianDistribution":
        """The law ``mean + factor @ z``, with its covariance ``cov`` as given."""
        return object.__new__(cls)._set(vars, mean, cov, scale, factor)

    def _set(self, vars, mean, cov, scale, factor):
        self.vars = tuple(vars)
        self.mean = np.asarray(mean, dtype=float).reshape(len(self.vars))
        self.cov, self.scale, self.factor = (cov + cov.T) / 2, scale, factor
        for a in (self.mean, self.cov, self.scale, self.factor):
            a.setflags(write=False)
        return self

    def __repr__(self):
        return f"GaussianDistribution(vars={self.vars!r})"

    def marginal(self, names) -> "GaussianDistribution":
        idx = _coordinates(self.vars, names)
        return GaussianDistribution._from_factor(names, self.mean[idx], self.cov[np.ix_(idx, idx)],
                                                 self.scale[idx], self.factor[idx])

    def close_to(self, other: "GaussianDistribution") -> bool:
        """The one comparison of Gaussian laws, rule (ii) of ``config`` with
        ``sd = sqrt(scale)``: covariance ``(i, j)`` may differ by the tolerance times
        the sum of ``sd[i] * sd[j]``, mean ``i`` by that of ``|mean[i]|, sd[i]``."""
        sd1, sd2 = np.sqrt(self.scale), np.sqrt(other.scale)
        return self.vars == other.vars and bool(
            np.all(negligible(self.cov - other.cov, np.outer(sd1, sd1) + np.outer(sd2, sd2)))
            and np.all(negligible(self.mean - other.mean, np.abs(self.mean) + np.abs(other.mean) + sd1 + sd2)))

    def to_json_obj(self) -> dict:
        return {"vars": list(self.vars), "mean": self.mean.tolist(), "cov": self.cov.tolist()}


@dataclass
class SelectorPolytope:
    """Achievable observational distributions of a solvable finite SCM.

    The achievable set is the core of the belief function with mass
    P(Γ = A), Γ the fiber; ``vertices`` are its marginal vectors, each a
    true vertex: the law that gives each focal set's mass to its first cell
    in some order of the cells.  ``unique`` iff every focal set is a
    singleton.
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

def _subset_names(m, subset) -> tuple:
    names = set([subset]) if isinstance(subset, str) else set(subset)
    unknown = names - set(m.endogenous_names)
    if unknown:
        raise UnknownNameError(f"unknown endogenous index(es): {sorted(unknown)}")
    return tuple(n for n in m.endogenous_names if n in names)


def _dependency_components(m: FiniteScm, subset: tuple) -> list:
    """Strongly connected components of the declared-argument dependency graph
    on ``subset``, in topological order (``strong_components``).  Declared
    arguments are a superset of the functional parents, so this is a sound
    decomposition for fiber enumeration."""
    return strong_components(subset, {o: m.mechanisms[o].args for o in subset})


def _cutset(m: FiniteScm, comp: tuple) -> tuple:
    """A cycle cutset of the component ``comp`` (Dechter 1990): ``(cut,
    rest)``, where removing ``cut`` leaves the declared dependency graph on
    ``comp`` acyclic, self-loops included, and ``rest`` lists the other
    variables in a topological order of what is left.  Of all such subsets,
    ``cut`` has the smallest product of domain sizes; ties go to the first
    in order of size, then of position in ``comp``.  The search over the
    subsets costs O(2**k * k**2) once per component, never more than one
    brute-force solve of the component, which tries prod |D_o| values."""
    preds = {o: m.mechanisms[o].args for o in comp}
    best = None
    for size in range(len(comp) + 1):
        for cut in itertools.combinations(comp, size):
            cost = math.prod(len(m.endogenous[o]) for o in cut)
            if best is not None and cost >= best[0]:
                continue
            # acyclic without ``cut`` iff every component left is one
            # variable that is not its own argument
            left = strong_components([o for o in comp if o not in cut], preds)
            if all(len(c) == 1 and c[0] not in preds[c[0]] for c in left):
                best = (cost, cut, tuple(c[0] for c in left))
    return best[1], best[2]


def _component_solver(m, comp) -> tuple:
    """``(inputs, solve)`` for the component ``comp``: the arguments of its
    mechanisms outside it, and the function from their values to the local
    solutions of the component, in the product order of its domains.

    Solved on a cycle cutset (``_cutset``): for each value of the cut, the
    other mechanisms are evaluated in topological order, a branch whose value
    falls outside its variable's domain is dropped, and the assignment is a
    solution iff every mechanism of the cut reproduces the cut's value.  A
    solve costs prod |D_f| over the cut, not prod |D_o| over the component:
    3 instead of 3**5 on a ternary 5-ring.  The values live in one row over
    ``inputs + comp``, and each table is read at its arguments' positions."""
    inputs = tuple(dict.fromkeys(a for o in comp for a in m.mechanisms[o].args if a not in comp))
    cut, rest = _cutset(m, comp)
    at = {v: i for i, v in enumerate(inputs + comp)}

    def reader(o):
        mech = m.mechanisms[o]
        return at[o], mech.table, _items_at([at[a] for a in mech.args])

    cut_values = [m.endogenous[o].values for o in cut]
    cut_at = [at[o] for o in cut]
    cut_readers = [reader(o) for o in cut]
    # each domain as a dict, which maps a computed value to the domain's own
    evaluate = [reader(o) + ({v: v for v in m.endogenous[o].values},) for o in rest]
    # a cut that is not a prefix of ``comp`` enumerates in another order
    rank = None if cut == comp[:len(cut)] else [
        {v: r for r, v in enumerate(m.endogenous[o].values)} for o in comp
    ]

    def solve(key):
        row = list(key) + [None] * len(comp)
        out = []
        for combo in itertools.product(*cut_values):
            for i, v in zip(cut_at, combo):
                row[i] = v
            for i, table, get, domain in evaluate:
                value = domain.get(table[get(row)], _OUTSIDE)
                if value is _OUTSIDE:
                    break
                row[i] = value
            else:
                for i, table, get in cut_readers:
                    if row[i] != table[get(row)]:
                        break
                else:
                    out.append(tuple(row[len(inputs):]))
        if rank is not None and len(out) > 1:
            out.sort(key=lambda sol: tuple(r[v] for r, v in zip(rank, sol)))
        return tuple(out)

    return inputs, solve


def _fibers(m: FiniteScm, subset: tuple, assign: Mapping) -> list:
    """Every solution of the structural equations of ``subset`` at the
    context/noise values in ``assign``: a pass over the verdict plan,
    ``_gamma_plan(m, subset, ())``, at that point, each row carrying the
    local solutions found so far; the first component's vary slowest, and a
    chain of components has no depth limit."""
    targets, stages, _ = _gamma_plan(m, subset, ())
    rows, order = [(tuple(assign[v] for v in targets), ())], ()
    for comp, noises, key, solved, solve, project in stages:
        values, out, order = tuple(assign[j] for j in noises), [], order + comp
        for row, found in rows:
            read = row + values
            k = key(read)
            sols = solved.get(k)
            if sols is None:
                sols = solved[k] = solve(k)
            out += [(project(read + sol), found + sol) for sol in sols]
        rows = out
    return list(map(_items_at([order.index(v) for v in subset]), (found for _, found in rows)))


def _inputs(m: FiniteScm, subset) -> tuple:
    """``(noises, context)``: the noises and the endogenous variables outside
    ``subset`` that its mechanisms read, each in declaration order."""
    read = {a for o in subset for a in m.mechanisms[o].args} - set(subset)
    return tuple(j for j in m.exogenous_names if j in read), tuple(i for i in m.endogenous_names if i in read)


def _support_assignments(m: FiniteScm, exo_names):
    """Yield ``(values, n)`` over the support of the product measure
    restricted to ``exo_names``, in product order: ``values`` is the tuple
    of the noises' values in the order of ``exo_names``, and the point has
    probability ``n / den``, with ``n`` an integer and ``den`` the sum of all
    the weights, the product of the lcms of each noise's denominators."""
    weighted = []
    for j in exo_names:
        support = m.support(j)
        weighted.append(list(zip(support, _integer_weights(m.measure[j][v] for v in support)[1])))
    for combo in itertools.product(*weighted):
        yield tuple(v for v, _ in combo), math.prod(w for _, w in combo)


def _support_points(m: FiniteScm, noises: tuple) -> list:
    """``_support_assignments(m, noises)`` as a list, kept per model and noises."""
    cache = m._cache.setdefault("support_points", {})
    if noises not in cache:
        cache[noises] = list(_support_assignments(m, noises))
    return cache[noises]


def _gamma_plan(m: FiniteScm, free: tuple, margin: tuple) -> tuple:
    """The column plan of every finite pass (``_gamma_law``, ``_solves``,
    ``_fibers``) for the solved variables ``free`` and ``margin``:
    ``(targets, stages, final)``.  ``targets``, the columns of the first
    state, are the other variables that a component or the margin reads.
    Each stage is one component ``comp`` of ``free`` in topological order
    (``_dependency_components``): ``(comp, noises, key, solved, solve,
    project)``, ``noises`` those it reads first (``_support_points``),
    ``key`` picking its inputs from a row of the live columns and those
    noises, ``solved`` the memo of its ``_component_solver``, and
    ``project`` keeping the columns that a later stage or the margin reads.
    ``final`` puts the margin's columns in margin order, or is ``None``
    where they already are.  Plans, solvers and memos are kept per model,
    so each distinct component input is solved once (models are frozen)."""
    plans, solvers = m._cache.setdefault("gamma_plans", {}), m._cache.setdefault("component_solvers", {})
    if (free, margin) not in plans:
        comps = _dependency_components(m, free)
        for comp in comps:
            if comp not in solvers:
                inputs, solve = _component_solver(m, comp)
                solvers[comp] = inputs, {}, solve
        last = {a: k for k, comp in enumerate(comps) for a in solvers[comp][0]}
        last.update((v, len(comps)) for v in margin)
        cols = targets = tuple(v for v in m.endogenous_names if v not in free and v in last)
        stages = []
        for k, comp in enumerate(comps):
            inputs, solved, solve = solvers[comp]
            new = tuple(j for j in m.exogenous_names if j in inputs and j not in cols)
            at = {c: i for i, c in enumerate(cols + new + comp)}
            cols = tuple(c for c in at if last.get(c, -1) > k)
            stages.append((comp, new, _items_at([at[a] for a in inputs]), solved, solve, _items_at([at[c] for c in cols])))
        plans[free, margin] = targets, stages, None if cols == margin else _items_at([cols.index(v) for v in margin])
    return plans[free, margin]


def _gamma_law(m: FiniteScm, margin, iv, unique=False):
    """The law of Γ, the fiber of ``m`` under do(iv) projected to ``margin``:
    ``(den, law)`` with P(Γ = A) = law[A] / den for each set A of margin
    cells, ``den`` the product of the denominators of the noises that the
    variables outside ``iv`` read; ``None`` when some fiber is empty, and
    with ``unique`` as soon as a partial set holds two solutions.  This is
    the one finite push-forward of the noise law, built one component at a
    time in topological order, as in variable elimination (Zhang & Poole
    1994): a state is the set of partial solutions of a noise value over the
    live columns (``_gamma_plan``), with its integer weight; each component
    enumerates the noises it is the first to read, extends every partial
    solution from its memo, drops the columns that nothing later reads, and
    merges equal states.  A partial set that is empty ends the pass, and so
    does one of two solutions with ``unique``, though a later component may
    cut it to one (``_finite_law``).  The targets of ``iv`` are held as
    columns, so every intervention shares the component memo of ``m`` and
    none builds a model."""
    free = tuple(v for v in m.endogenous_names if v not in iv)
    targets, stages, final = _gamma_plan(m, free, tuple(margin))
    state = {frozenset([tuple(iv[v] for v in targets)]): 1}
    for _, noises, key, solved, solve, project in stages:
        merged, points = {}, _support_points(m, noises)
        for rows, n in state.items():
            for values, w in points:
                out = set()
                for row in rows:
                    read = row + values
                    k = key(read)
                    sols = solved.get(k)
                    if sols is None:
                        sols = solved[k] = solve(k)
                    out.update(project(read + sol) for sol in sols)
                if len(out) != 1 and (unique or not out):
                    return None
                out = frozenset(out)
                merged[out] = merged.get(out, 0) + n * w
        state = merged
    law = {}
    for rows, n in state.items():
        cells = rows if final is None else frozenset(map(final, rows))
        law[cells] = law.get(cells, 0) + n
    return sum(law.values()), law


def fiber(m: FiniteScm, subset, e: Mapping[str, object], ctx: Mapping[str, object] = None) -> frozenset:
    """The set of solutions x_subset of the structural equations of ``subset``
    for fixed exogenous values ``e`` and context ``ctx`` on the remaining
    endogenous variables, solved per strongly connected component.

    Tuples follow the endogenous declaration order restricted to ``subset``.
    """
    if not is_finite(m):
        raise UnsupportedModelError("fibers are defined for finite SCMs")
    subset = _subset_names(m, subset)
    ctx = dict(ctx or {})
    for name, value in list(e.items()) + list(ctx.items()):
        if value not in m.domain_of(name):
            raise ScmError(f"value {value!r} outside the domain of {name}")
    assign = {**ctx, **dict(e)}
    exo, ctx_names = _inputs(m, subset)
    needed = set(exo) - set(e)
    if needed:
        raise ScmError(f"missing exogenous values for {sorted(needed)}")
    needed_ctx = set(ctx_names) - set(assign)
    if needed_ctx:
        raise ScmError(f"missing context values for {sorted(needed_ctx)}")
    return frozenset(_fibers(m, subset, assign))


# --- solvability ------------------------------------------------------------

def _solves(m: FiniteScm, subset: tuple, unique: bool, pins: Mapping) -> bool:
    """Is the fiber of ``subset`` non-empty (a singleton, with ``unique``) at
    every support point of the noises it reads times every context, where
    they agree with ``pins``?  One pass over ``_gamma_plan(m, subset, ())``,
    the context its first columns: a state is a set of (row, count) pairs
    over the live columns, the count of partial solutions behind the row
    capped at 2 (1 without ``unique``), and equal states merge.  The last
    stage builds no states: it sums count × local solutions per point."""
    targets, stages, _ = _gamma_plan(m, subset, ())
    states = {frozenset([(row, 1)]) for row in itertools.product(
        *([pins[v]] if v in pins else m.endogenous[v].values for v in targets))}
    for later, (_, noises, key, solved, solve, project) in zip(reversed(range(len(stages))), stages):
        points, merged = [values for values, _ in _support_points(m, noises)], set()
        for i, j in enumerate(noises):
            if j in pins:
                points = [values for values in points if values[i] == pins[j]]
        for state in states:
            for values in points:
                counts, total = {}, 0
                for row, c in state:
                    read = row + values
                    k = key(read)
                    sols = solved.get(k)
                    if sols is None:
                        sols = solved[k] = solve(k)
                    total += c * len(sols)
                    for sol in sols if later else ():
                        r = project(read + sol)
                        counts[r] = min(1 + unique, counts.get(r, 0) + c)
                if not total or unique and not later and total > 1:
                    return False
                if later:
                    merged.add(frozenset(counts.items()))
        states = merged
    return True


def _finite_scan(m: FiniteScm, subset, need_unique: bool):
    """Is every fiber of ``subset`` non-empty (a singleton, with
    ``need_unique``)?  One verdict pass, ``_solves``.  A failing verdict's
    witness is the first failing point in product order, noises then context
    (``_inputs``), with its fiber (``_fibers``): the first point itself where
    a pass over it alone fails, else found by pinning each coordinate in turn
    to the first value whose pinned pass still fails (the last, if none)."""
    subset = _subset_names(m, subset)
    if _solves(m, subset, need_unique, {}):
        return SolvabilityResult(True, subset)
    (exo, ctx_names), pins = _inputs(m, subset), {}
    values = {n: m.support(n) if n in m.exogenous else m.endogenous[n].values for n in exo + ctx_names}
    first = {n: vs[0] for n, vs in values.items()}
    if first and not _solves(m, subset, need_unique, first):
        pins = first
    else:
        for name, vs in values.items():
            pins[name] = next((v for v in vs[:-1] if not _solves(m, subset, need_unique, {**pins, name: v})), vs[-1])
    witness = {"e": {j: pins[j] for j in exo}, "ctx": {i: pins[i] for i in ctx_names},
               "fiber": tuple(_fibers(m, subset, pins))}
    return SolvabilityResult(False, subset, witness)


def _linear_subsystem(m: LinearScm, subset):
    """``(subset, idx, rest, inv, comps)``, kept per model, subset and tolerance:
    the names, the indices of the subset and of all others, the inverse of
    ``I - B_OO`` (``None`` if a component is singular by rule (i) of ``config``;
    exactly 0 where no chain of nonzero coefficients leads), and the strongly
    connected components of ``B_OO``, each after the components it reads."""
    subset = _subset_names(m, subset)
    cache, key = m._cache.setdefault("subsystems", {}), (subset, tolerance())
    if key in cache:
        return cache[key]
    idx = [m.endo_index(o) for o in subset]
    rest = [i for i, n in enumerate(m.endogenous_names) if n not in subset]
    n, b_oo = len(idx), m.B[np.ix_(idx, idx)]
    nonzero = (b_oo != 0).tolist()
    comps = [list(c) for c in strong_components(range(n), {a: [b for b in range(n) if nonzero[a][b]] for a in range(n)})]
    singular = any(unit_eigenvectors(b_oo[c][:, c]).size for c in comps if len(c) > 1 or nonzero[c[0]][c[0]])
    eye, inv = np.eye(n), None if singular else np.zeros((n, n))
    for c in () if singular else comps:
        if len(c) == 1:  # one step of forward substitution
            inv[c[0]] = (eye[c[0]] + b_oo[c[0]] @ inv) / (1 - b_oo[c[0], c[0]])
        else:
            inv[c] = np.linalg.solve(eye[c][:, c] - b_oo[c][:, c], eye[c] + b_oo[c] @ inv)
    cache[key] = subset, idx, rest, inv, comps
    return cache[key]


def _left_null(b_oo, comps):
    """The left null vectors y of ``M = I - B_OO`` as columns, built over the
    components from the last to the first: ``M_UU^T y_U = -(M^T y)_U``; on a
    singular U that right-hand side, snapped by rule (ii), must be orthogonal
    to U's right null vectors, which constrains y, and U's own join y.

    The work is done in Perron-balanced coordinates, P B_OO P^-1 with p per
    component from ``perron_balance``, which no change of units moves but for
    one scale per component, and y is returned as P y~.  There each vector's
    entries on U are also snapped against its largest entry on U, so an entry
    whose every term is rounding noise is judged against the vector, not
    against that noise."""
    p = np.ones(len(b_oo))
    for c in comps:
        p[c] = perron_balance(b_oo[c][:, c])
    b_oo = p[:, None] * b_oo / p[None, :]
    mat = np.eye(len(b_oo)) - b_oo

    def null(a, vectors):
        # each vector sharpened by a bordered least-squares solve (those of a k-fold
        # eigenvalue are k-th-root exact), 0 where rule (ii) says so; parallel ones once
        out = np.zeros((len(a), 0), dtype=complex)
        for v in vectors.T:
            x = np.linalg.lstsq(np.vstack([a, v.conj()]), np.eye(len(a) + 1)[-1], rcond=None)[0]
            x = np.where(negligible(np.diag(a) * x, np.abs(a) @ np.abs(x)) & (np.diag(a) != 0), 0, x)
            if not out.size or np.linalg.matrix_rank(np.column_stack([out, x])) > out.shape[1]:
                out = np.column_stack([out, x])
        return out

    y = np.zeros((len(b_oo), 0), dtype=complex)
    for c in reversed(comps):
        block, b_cc = mat[c][:, c], b_oo[c][:, c]
        left = unit_eigenvectors(b_cc.T)
        if not (left.size or y.size):  # y_U = 0 below the first singular component
            continue
        size = np.abs(mat[:, c].T) @ np.abs(y)
        rhs = snap(-(mat[:, c].T @ y), size)
        if not left.shape[1]:
            y[c] = np.linalg.solve(block.T, rhs)
        else:
            # with no vectors built yet there is nothing for the right null vectors to constrain
            left, right = null(block.T, left), null(block, unit_eigenvectors(b_cc) if y.size else b_cc[:, :0])
            k = snap(right.T @ rhs, np.abs(right.T) @ size)
            if np.any(k):
                _, s, vh = np.linalg.svd(k)
                basis = vh[np.count_nonzero(s > tolerance() * s[0]):].conj().T
                y, rhs = y @ basis, rhs @ basis
            y[c] = np.linalg.lstsq(block.T, rhs, rcond=None)[0]
            y = np.hstack([y, np.zeros((len(b_oo), left.shape[1]))])
            y[c, -left.shape[1]:] = left
        # rule (ii) against each vector's largest entry on U
        y[c] = np.where(negligible(y[c], np.abs(y[c]).max(axis=0)), 0, y[c])
    return y * p[:, None]


def _linear_solvable(m: LinearScm, subset):
    """A singular subsystem has a solution for almost every noise value and
    every context iff each left null vector y of ``I - B_OO`` annihilates
    each column r of ``[B_OR | Gamma_O Sigma | Gamma_O mu + c_O]`` (the noise
    lies in mu plus the span of Sigma), y^T r zero by rule (ii) of ``config``."""
    subset, idx, rest, inv, comps = _linear_subsystem(m, subset)
    if inv is not None:
        return SolvabilityResult(True, subset)
    null = _left_null(m.B[np.ix_(idx, idx)], comps)
    b_or, gamma, c, mean, cov = m.B[np.ix_(idx, rest)], m.Gamma[idx, :], m.c[idx], m.noise_mean(), m.noise_cov()
    r = np.hstack([b_or, gamma @ cov, (gamma @ mean + c)[:, None]])
    size = np.hstack([np.abs(b_or), np.abs(gamma) @ np.abs(cov), (np.abs(gamma) @ np.abs(mean) + np.abs(c))[:, None]])
    if np.all(negligible(null.T @ r, np.abs(null.T) @ size)):
        return SolvabilityResult(True, subset)
    return SolvabilityResult(False, subset, witness={"inconsistent": "I - B_OO left null vector"})


def solvable_wrt(m, subset) -> SolvabilityResult:
    """Is the subsystem on ``subset`` solvable: does every positive-probability
    input admit at least one solution?"""
    return _finite_scan(m, subset, need_unique=False) if is_finite(m) else _linear_solvable(m, subset)


def uniquely_solvable_wrt(m, subset) -> SolvabilityResult:
    """Is the subsystem on ``subset`` uniquely solvable: is every fiber over a
    positive-probability input a singleton?"""
    if is_finite(m):
        return _finite_scan(m, subset, need_unique=True)
    subset, _, _, inv, _ = _linear_subsystem(m, subset)
    if inv is not None:
        return SolvabilityResult(True, subset)
    return SolvabilityResult(False, subset, witness={"singular": "I - B_OO"})


def structurally_uniquely_solvable(m) -> bool:
    """Uniquely solvable with respect to every singleton; equivalently the
    augmented graph, which is cached per model, has no self-loops."""
    directed = augmented_graph(m).directed
    return all((i, i) not in directed for i in m.endogenous_names)


def uniquely_solvable_all_subsets(m, max_nodes: int = 16) -> bool:
    """Uniquely solvable with respect to every subset, decided through the
    loops of the functional graph only.  A singleton loop {k} without a
    self-loop is skipped: it is uniquely solvable by the rule that
    ``structurally_uniquely_solvable`` reads."""
    g = functional_graph(m)
    if len(g.nodes) > max_nodes:
        raise ScmError(
            f"uniquely_solvable_all_subsets: {len(g.nodes)} variables, over the cap max_nodes={max_nodes}"
        )
    loops = enumerate_loops(g, max_nodes=max_nodes)
    return all(
        bool(uniquely_solvable_wrt(m, sorted(loop)))
        for loop in loops
        if len(loop) > 1 or (*loop, *loop) in g.directed
    )


# --- solve maps --------------------------------------------------------------

def solve_map(m, subset) -> SolveMap:
    """The mapping g assigning to each input of the subsystem its unique
    solution; requires unique solvability with respect to ``subset``."""
    if not is_finite(m):
        subset_t, idx, rest, inv, _ = _linear_subsystem(m, subset)
        if inv is None:
            raise NotUniquelySolvable(subset_t, {"singular": "I - B_OO"})
        r = np.hstack([m.B[np.ix_(idx, rest)], m.Gamma[idx, :], m.c[idx, None]])
        # snapped here by rule (ii); inv = inv (I - B_OO) inv has that magnitude
        size = np.abs(inv) @ np.abs(np.eye(len(idx)) - m.B[np.ix_(idx, idx)]) @ np.abs(inv)
        x = snap(inv @ r, size @ np.abs(r))
        return SolveMap(
            targets=subset_t,
            endo_args=tuple(m.endogenous_names[i] for i in rest),
            exo_args=m.coord_names,
            A=x[:, :len(rest)], G=x[:, len(rest):-1], d=x[:, -1],
        )
    subset_t = _subset_names(m, subset)
    res = _finite_scan(m, subset_t, need_unique=True)
    if not res:
        raise NotUniquelySolvable(res.subset, res.witness)
    args = _canonical_arg_order(m, set().union(*(functional_parents(m, o) for o in subset_t)) - set(subset_t))
    endo_args = tuple(a for a in args if a in m.endogenous)
    exo_args = tuple(a for a in args if a in m.exogenous)
    # declared arguments that are no functional parents are pinned
    pin = _pins(m, [a for names in _inputs(m, subset_t) for a in names if a not in args])

    table = {}
    for e_combo in itertools.product(*(m.exogenous[j].values for j in exo_args)):
        for ctx_combo in itertools.product(*(m.endogenous[i].values for i in endo_args)):
            sols = _fibers(m, subset_t, {**pin, **dict(zip(exo_args, e_combo)), **dict(zip(endo_args, ctx_combo))})
            table[(ctx_combo, e_combo)] = min(sols) if sols else tuple(m.endogenous[o].first() for o in subset_t)
    return SolveMap(targets=subset_t, endo_args=endo_args, exo_args=exo_args, table=table)


# --- distributions of solutions ----------------------------------------------

def _finite_law(m: FiniteScm, unique: bool):
    """The Γ-law of all variables of ``m`` (``_gamma_law``).  Where there is
    none, the verdict pass (``_finite_scan``) decides: ``NotSolvable`` or,
    with ``unique``, ``NotUniquelySolvable`` names the first noise value in
    product order, over the noises that are read, whose fiber is empty or
    larger, with that fiber; where it finds the model uniquely solvable, a
    later component cut two partial solutions to one, and the law is built
    again without ``unique``."""
    endo = m.endogenous_names
    g = _gamma_law(m, endo, {}, unique=unique)
    if g is not None:
        return g
    res = _finite_scan(m, endo, need_unique=unique)
    if res:
        return _gamma_law(m, endo, {})
    if not res.witness["fiber"]:
        raise NotSolvable(endo, {"e": res.witness["e"]})
    raise NotUniquelySolvable(endo, {"e": res.witness["e"], "fiber": res.witness["fiber"]})


def observational_distribution(m):
    """The law of the unique solution.  Finite SCMs: the Γ-law of all
    variables, one exact pass over the components of the model, whose focal
    sets must all be singletons (``_finite_law``).  Linear SCMs: the
    closed-form Gaussian."""
    if is_finite(m):
        den, law = _finite_law(m, unique=True)
        return DiscreteDistribution._from_counts(m.endogenous_names, m.endogenous, den,
                                                 {cell: n for (cell,), n in law.items()})
    try:
        sm = solve_map(m, m.endogenous_names)
    except NotUniquelySolvable:
        res = _linear_solvable(m, m.endogenous_names)
        if not res:
            raise NotSolvable(m.endogenous_names, res.witness) from None
        raise NotUniquelySolvable(m.endogenous_names, {"singular": "I - B"}) from None
    return _solution_law(m, sm, sm.targets)


def _solution_law(m: LinearScm, sm: SolveMap, names) -> GaussianDistribution:
    """The law of ``G e + d`` over ``names`` for the linear solve map ``sm``: its
    noise factor ``G root(Sigma)`` (``covariance_root``), the uncancelled
    variances ``|G| |Sigma| |G|^T`` its scale, its mean snapped by rule (ii)."""
    rows = [sm.targets.index(v) for v in names]
    mean, cov, g, d = m.noise_mean(), m.noise_cov(), sm.G[rows], sm.d[rows]
    scale = np.diag(np.abs(g) @ np.abs(cov) @ np.abs(g).T)
    mean = snap(g @ mean + d, np.abs(g) @ np.abs(mean) + np.abs(d))
    # block-diagonal over blocks whose constructor found a root, so it has one
    root = covariance_root(cov)[0]
    return GaussianDistribution._from_factor(names, mean, g @ cov @ g.T, scale, g @ root)


def observational_polytope(m: FiniteScm, max_selectors: int = 10**6) -> SelectorPolytope:
    """The achievable observational laws of a solvable finite SCM: the core
    of the Γ-law of all variables (``_gamma_law``), whose vertices are its
    marginal vectors (Shapley 1971).  A singleton focal set goes to its cell
    in every order; the others are placed by a search over the families
    ``rest`` still unplaced, where each cell c of their union gets the mass
    of the sets holding it and the search moves on to those that do not.
    Cost: one Γ-law pass plus one memo entry per family, at most 2**cells;
    ``max_selectors`` caps the partial vectors held.  ``NotSolvable`` names
    the first noise value, over the noises that are read, with no solution."""
    if not is_finite(m):
        raise UnsupportedModelError("the selector polytope is defined for finite SCMs")
    endo = m.endogenous_names
    den, law = _finite_law(m, unique=False)
    rank = [{x: r for r, x in enumerate(m.endogenous[v].values)} for v in endo]
    singles = [(next(iter(a)), n) for a, n in law.items() if len(a) == 1]
    # every family reachable from the non-singleton focal sets, with its moves,
    # cells in domain order so that the count at an overflow is deterministic
    root = frozenset(a for a in law if len(a) > 1)
    moves, stack = {}, [root]
    while stack:
        rest = stack.pop()
        if rest in moves:
            continue
        cells = sorted(set().union(*rest), key=lambda c: tuple(r[x] for r, x in zip(rank, c)))
        moves[rest] = [(c, sum(law[a] for a in rest if c in a), frozenset(a for a in rest if c not in a))
                       for c in cells]
        stack.extend(child for _, _, child in moves[rest])
    # each family after the smaller ones it moves to: a vector is a frozenset of (cell, n)
    vectors, held = {}, 0
    for rest in sorted(moves, key=len):
        out = set() if rest else {frozenset()}
        for c, n, child in moves[rest]:
            out.update(v | {(c, n)} for v in vectors[child])
            if held + len(out) > max_selectors:
                raise ScmError(
                    f"selector polytope overflow: at least {held + len(out)} candidate selectors, "
                    f"over the cap max_selectors={max_selectors}"
                )
        vectors[rest] = out
        held += len(out)
    vertices = []
    for vector in vectors[root]:
        weights = {}
        for c, n in itertools.chain(singles, vector):
            weights[c] = weights.get(c, 0) + n
        vertices.append(DiscreteDistribution._from_counts(endo, m.endogenous, den, weights))
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

    finite = is_finite(m)
    query = tuple([query] if isinstance(query, str) else query)
    _coordinates(tuple(v + "'" for v in m.endogenous_names), query)  # before any solve
    iv = dict(factual_do)
    iv.update((k + "'", v) for k, v in dict(cf_do).items())
    dist = observational_distribution(intervene(twin(m), iv))
    if observed:
        dist = dist.condition(observed) if finite else gaussian_condition(dist, observed)
    return dist.marginal(query)


def _project(d: GaussianDistribution, ia, ib) -> tuple:
    """Condition ``d`` on its coordinates ``ib``: ``(rows, gain, rank)``.  With
    ``x = mean + F z``, x_S fixes z in the row space of F_S, so the rows of
    ``ia`` become F_A (I - Q Q^T) and their mean moves by ``gain @ (x_S -
    mean_S)``; Q holds the ``rank`` right singular vectors of F_S's normalized
    rows over the tolerance times the largest singular value.  A row is 0 where
    its variance is by rule (ii) of ``config`` or at most the tolerance of its
    norm is left."""
    f, norm = d.factor, np.linalg.norm(d.factor, axis=1)
    live = ~negligible(norm**2, d.scale)
    seen = [i for i in ib if live[i]]
    u, s, vh = np.linalg.svd(f[seen] / norm[seen, None], full_matrices=False)
    rank = np.count_nonzero(s > tolerance() * s.max(initial=0.0))
    along = f[ia] @ vh[:rank].T
    rows = f[ia] - along @ vh[:rank]
    rows[~live[ia] | negligible(np.linalg.norm(rows, axis=1), norm[ia])] = 0.0
    gain = np.zeros((len(ia), len(ib)))
    gain[:, live[ib]] = (along / s[:rank]) @ u[:, :rank].T / norm[seen]
    return rows, gain, rank


def gaussian_condition(d: GaussianDistribution, observed: Mapping[str, float]) -> GaussianDistribution:
    """Condition a Gaussian on exact values of some coordinates, the Schur
    complement taken on its noise factor (``_project``).  An observed block
    whose rank there is below its size is singular, an error; no change of
    units moves that verdict."""
    names = list(observed)
    ib = _coordinates(d.vars, names)
    if not names:
        return d
    ia = [i for i, v in enumerate(d.vars) if v not in observed]
    rows, gain, rank = _project(d, ia, ib)
    if rank < len(ib):
        raise EvidenceError("observed block covariance is singular")
    mean = d.mean[ia] + gain @ (np.array([float(observed[v]) for v in names]) - d.mean[ib])
    return GaussianDistribution._from_factor([d.vars[i] for i in ia], mean, rows @ rows.T, d.scale[ia], rows)
