"""Solvability analysis and exact distribution computation.

Finite SCMs: all quantifiers over exogenous values range over the support of
the product measure; everything is computed in exact rational arithmetic.
Every finite law is one push-forward, ``_gamma_law``: one pass over the
support of the noises that the non-intervened variables read, solving their
fiber per noise value.  The selector polytope makes its own pass, as the
hull that the equivalence tests compare against.
Linear SCMs: every verdict comes from one core, the block ``I - B_OO`` of the
subset and its inverse or left null vectors, and every zero test is the one
unit-free rule of ``config``.  ``solve_map`` is the one linear solve: the
observational distribution, interventional equivalence and marginalization
are read off its matrices.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .config import covariance_problem, negligible, np, snap, tolerance, unit_eigenvectors
from .errors import (
    EvidenceError,
    NotSolvable,
    NotUniquelySolvable,
    ScmError,
    UnknownNameError,
)
from .graph import enumerate_loops, strong_components
from .scm import (
    _OUTSIDE,
    FiniteScm,
    FiniteDomain,
    LinearScm,
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

def _coordinates(vars: tuple, names) -> list:
    """The positions of ``names`` among the coordinates ``vars`` of a law;
    a name that is not one of them raises ``UnknownNameError``."""
    unknown = [v for v in names if v not in vars]
    if unknown:
        raise UnknownNameError(f"unknown coordinates {unknown}")
    return [vars.index(v) for v in names]


class DiscreteDistribution:
    """Exact distribution over a finite product of named domains.

    Only cells with positive probability are stored, in the read-only
    mapping ``probs``; probabilities are ``Fraction`` instances summing to
    exactly 1.
    """

    __slots__ = ("vars", "domains", "probs", "_codes", "_counts")

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
        self._codes = self._counts = None

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

    def _cell_codes(self) -> tuple:
        """The cells of positive probability as exact integers: ``(den, n,
        codes)`` with ``n[c] == p * den`` for the ``c``-th cell of ``probs``
        and ``codes[c]`` its position in each variable's domain.

        ``den`` is the lcm of the cell denominators.  The dtype of ``n`` is
        ``int64`` while ``den * den < 2**62``, so sums of cells and products
        of two such sums cannot overflow, and ``object`` (Python ints)
        beyond.  Computed once and cached; the arrays are read-only.
        """
        if self._codes is None:
            den = math.lcm(*(p.denominator for p in self.probs.values()))
            index = [{v: i for i, v in enumerate(self.domains[x].values)} for x in self.vars]
            codes = []
            for cell in self.probs:
                pos = tuple(ix.get(v) for ix, v in zip(index, cell))
                if len(cell) != len(index) or None in pos:
                    raise ScmError(f"cell {cell!r} is not in the domains of {self.vars!r}")
                codes.append(pos)
            n = np.array([p.numerator * (den // p.denominator) for p in self.probs.values()],
                         dtype=np.int64 if den * den < 2**62 else object)
            codes = np.array(codes, dtype=np.intp).reshape(len(codes), len(index))
            for a in (n, codes):
                a.setflags(write=False)
            self._codes = (den, n, codes)
        return self._codes

    def counts(self) -> tuple:
        """The law as a dense integer tensor: ``(den, n)`` with one axis per
        variable, indexed in domain order, and ``n[cell] == p * den``; zero
        off the support.  Same ``den`` and dtype as ``_cell_codes``; computed once
        and cached; the array is read-only."""
        if self._counts is None:
            den, weights, codes = self._cell_codes()
            n = np.zeros(tuple(len(self.domains[x]) for x in self.vars), dtype=weights.dtype)
            for pos, w in zip(codes.tolist(), weights):
                n[tuple(pos)] = w
            n.setflags(write=False)
            self._counts = (den, n)
        return self._counts

    def prob(self, assignment: Mapping[str, object]) -> Fraction:
        """Probability of a (possibly partial) assignment."""
        idx = _coordinates(self.vars, assignment)
        want = [assignment[v] for v in assignment]
        return sum(
            (p for cell, p in self.probs.items() if all(cell[i] == w for i, w in zip(idx, want))),
            Fraction(0),
        )

    def marginal(self, names) -> "DiscreteDistribution":
        names = tuple(names)
        idx = _coordinates(self.vars, names)
        out = {}
        for cell, p in self.probs.items():
            key = tuple(cell[i] for i in idx)
            out[key] = out.get(key, Fraction(0)) + p
        return DiscreteDistribution(names, self.domains, out)

    def condition(self, evidence: Mapping[str, object]) -> "DiscreteDistribution":
        """Exact Bayes conditioning; raises on zero-probability evidence."""
        idx_e = [(i, evidence[v]) for i, v in zip(_coordinates(self.vars, evidence), evidence)]
        keep_vars = tuple(v for v in self.vars if v not in evidence)
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
    """A Gaussian law over named real coordinates; ``scale``, each variable's
    uncancelled variance (by default ``diag(cov)``), is its unit for ``config``."""

    __slots__ = ("vars", "mean", "cov", "scale")

    def __init__(self, vars, mean, cov, scale=None):
        self.vars = tuple(vars)
        n = len(self.vars)
        self.mean = np.asarray(mean, dtype=float).reshape(n)
        self.cov = np.asarray(cov, dtype=float).reshape(n, n)
        self.scale = np.maximum(np.diag(self.cov) if scale is None else np.asarray(scale, dtype=float), 0.0)
        if problem := covariance_problem(self.cov, self.scale):
            raise ScmError(f"covariance is {problem}")
        self.cov = (self.cov + self.cov.T) / 2
        for a in (self.mean, self.cov, self.scale):
            a.setflags(write=False)

    def __repr__(self):
        return f"GaussianDistribution(vars={self.vars!r})"

    def marginal(self, names) -> "GaussianDistribution":
        idx = _coordinates(self.vars, names)
        return GaussianDistribution(tuple(names), self.mean[idx], self.cov[np.ix_(idx, idx)], self.scale[idx])

    def close_to(self, other: "GaussianDistribution", tol=None) -> bool:
        """The one comparison of Gaussian laws, rule (ii) of ``config`` with
        ``sd = sqrt(scale)``: covariance ``(i, j)`` may differ by ``tol`` times
        the sum of ``sd[i] * sd[j]``, mean ``i`` by that of ``|mean[i]|, sd[i]``."""
        sd1, sd2 = np.sqrt(self.scale), np.sqrt(other.scale)
        return self.vars == other.vars and bool(
            np.all(negligible(self.cov - other.cov, np.outer(sd1, sd1) + np.outer(sd2, sd2), tol))
            and np.all(negligible(self.mean - other.mean, np.abs(self.mean) + np.abs(other.mean) + sd1 + sd2, tol)))

    def to_json_obj(self) -> dict:
        return {"vars": list(self.vars), "mean": self.mean.tolist(), "cov": self.cov.tolist()}


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

def _subset_names(m, subset) -> tuple:
    names = set([subset]) if isinstance(subset, str) else set(subset)
    unknown = names - set(m.endogenous_names)
    if unknown:
        raise UnknownNameError(f"unknown endogenous index(es): {sorted(unknown)}")
    return tuple(n for n in m.endogenous_names if n in names)


def _dependency_components(m: FiniteScm, subset: tuple) -> list:
    """Strongly connected components of the declared-argument dependency graph
    on ``subset``, in topological order (``strong_components`` over each
    variable's arguments).  Declared arguments are a superset of the
    functional parents, so this is a sound decomposition for fiber
    enumeration."""
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
    3 instead of 3**5 on a ternary 5-ring."""
    inputs = tuple(dict.fromkeys(a for o in comp for a in m.mechanisms[o].args if a not in comp))
    cut, rest = _cutset(m, comp)
    cut_values = [m.endogenous[o].values for o in cut]
    cut_mechs = [(o, m.mechanisms[o]) for o in cut]
    # each domain as a dict, which maps a computed value to the domain's own
    evaluate = tuple((o, m.mechanisms[o], {v: v for v in m.endogenous[o].values}) for o in rest)
    # a cut that is not a prefix of ``comp`` enumerates in another order
    rank = None if cut == comp[:len(cut)] else [
        {v: r for r, v in enumerate(m.endogenous[o].values)} for o in comp
    ]

    def solve(key):
        local = dict(zip(inputs, key))
        out = []
        for combo in itertools.product(*cut_values):
            local.update(zip(cut, combo))
            for o, mech, domain in evaluate:
                value = domain.get(mech(local), _OUTSIDE)
                if value is _OUTSIDE:
                    break
                local[o] = value
            else:
                if all(local[o] == mech(local) for o, mech in cut_mechs):
                    out.append(tuple(local[o] for o in comp))
        if rank is not None and len(out) > 1:
            out.sort(key=lambda sol: tuple(r[v] for r, v in zip(rank, sol)))
        return tuple(out)

    return inputs, solve


def _fiber_plan(m: FiniteScm, subset: tuple) -> list:
    """The components of ``subset`` (``_dependency_components``), each as
    ``(comp, inputs, solved, solve)`` from ``_component_solver`` with
    ``solved`` its memo from input values to solutions.  Plans are kept per
    model and subset, and a component's memo is shared by every plan that
    holds it, so each distinct component input is solved once per model;
    this is sound because models are frozen."""
    plans = m._cache.setdefault("fiber_plans", {})
    if subset not in plans:
        solvers = m._cache.setdefault("component_solvers", {})
        comps = _dependency_components(m, subset)
        for comp in comps:
            if comp not in solvers:
                inputs, solve = _component_solver(m, comp)
                solvers[comp] = comp, inputs, {}, solve
        plans[subset] = [solvers[comp] for comp in comps]
    return plans[subset]


def _fibers(m: FiniteScm, subset: tuple, base_assign: dict):
    """Yield every solution of the structural equations of ``subset`` given
    the context/noise values in ``base_assign``, solved per strongly
    connected component of the declared dependency graph in topological
    order (``_fiber_plan``), the first component's local solutions varying
    slowest.  The iterators of the components entered are kept on a list,
    not on the call stack, so a chain of components has no depth limit."""
    plan = _fiber_plan(m, subset)
    assign = dict(base_assign)
    levels = [((), iter([()]))]  # an empty root level, then one per component
    while levels:
        comp, it = levels[-1]
        combo = next(it, None)
        if combo is None:
            levels.pop()
            continue
        assign.update(zip(comp, combo))
        if len(levels) > len(plan):
            yield tuple(assign[o] for o in subset)
        else:
            comp, inputs, solved, solve = plan[len(levels) - 1]
            key = tuple([assign[a] for a in inputs])
            sols = solved.get(key)
            if sols is None:
                sols = solved[key] = solve(key)
            levels.append((comp, iter(sols)))


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
    ...])`` with P(j = v) = n / den, ``den`` the lcm of the denominators;
    kept per model."""
    cache = m._cache.setdefault("noise_weights", {})
    if j not in cache:
        probs = [(v, Fraction(m.measure[j][v])) for v in m.support(j)]
        den = math.lcm(*(p.denominator for _, p in probs))
        cache[j] = den, [(v, p.numerator * (den // p.denominator)) for v, p in probs]
    return cache[j]


def _support_assignments(m: FiniteScm, exo_names):
    """Yield ``(assignment dict, n)`` over the support of the product measure
    restricted to ``exo_names``, in product order: the point has probability
    ``n / den``, with ``n`` an integer and ``den`` the sum of all the weights,
    the product of the noises' ``_noise_weights`` denominators."""
    weighted = [_noise_weights(m, j)[1] for j in exo_names]
    for combo in itertools.product(*weighted):
        n = 1
        for _, w in combo:
            n *= w
        yield {j: v for j, (v, _) in zip(exo_names, combo)}, n


def _gamma_law(m: FiniteScm, margin, iv, unique=False):
    """The law of Γ, the fiber of ``m`` under do(iv) projected to ``margin``:
    ``(den, law)`` with P(Γ = A) = law[A] / den for each set A of margin
    cells, ``den`` the sum of the integer weights of the support points,
    which is their one denominator; ``None`` at the first empty fiber, and
    with ``unique`` at the first that is not a singleton.  This
    is the one finite push-forward of the noise law: one pass over the
    support of the noises that the variables outside ``iv`` read.  The
    targets of ``iv`` are held as context and read as their values, so every
    intervention shares the component memo of ``m`` and none builds a
    model."""
    free = tuple(v for v in m.endogenous_names if v not in iv)
    # the margin in the order of the solved variables is the fiber itself
    pick = None if tuple(margin) == free else [
        (iv[v], None) if v in iv else (None, free.index(v)) for v in margin
    ]
    law = {}
    for assign, n in _support_assignments(m, _relevant_exo(m, free)):
        assign.update(iv)
        sols = _fibers(m, free, assign)
        cells = frozenset(sols) if pick is None else frozenset(
            tuple(x if i is None else sol[i] for x, i in pick) for sol in sols
        )
        if not cells or unique and len(cells) > 1:
            return None
        law[cells] = law.get(cells, 0) + n
    return sum(law.values()), law


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
    """Every support point of the noises that ``subset`` reads, times every
    context (values of the endogenous variables outside it that it reads), in
    product order; the first point whose fiber is empty, or with
    ``need_unique`` not a singleton, is the witness.  A subset that is one
    dependency component is one loop over its solver's inputs, read from the
    component memo; a subset of several walks the components per point
    (``_fibers``)."""
    subset = _subset_names(m, subset)
    exo = _relevant_exo(m, subset)
    ctx_names = _relevant_ctx(m, subset)
    order = exo + ctx_names
    plan = _fiber_plan(m, subset)
    if len(plan) == 1:
        # the inputs of one component are exactly the noises and context it reads
        _, inputs, solved, solve = plan[0]
        key = operator.itemgetter(*map(order.index, inputs)) if len(inputs) > 1 else tuple

        def fibers(point):
            k = key(point)
            sols = solved.get(k)
            if sols is None:
                sols = solved[k] = solve(k)
            return sols
    else:
        def fibers(point):
            sols = _fibers(m, subset, dict(zip(order, point)))
            return tuple(sols if need_unique else itertools.islice(sols, 1))

    for point in itertools.product(*(m.support(j) for j in exo), *(m.endogenous[i].values for i in ctx_names)):
        sols = fibers(point)
        if not sols or need_unique and len(sols) > 1:
            witness = {"e": dict(zip(exo, point)), "ctx": dict(zip(ctx_names, point[len(exo):])), "fiber": sols}
            return SolvabilityResult(False, subset, witness)
    return SolvabilityResult(True, subset)


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
    to U's right null vectors, which constrains y, and U's own join y."""
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
            continue
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
    return y


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
        subset, _, _, inv, _ = _linear_subsystem(m, subset)
        if inv is not None:
            return SolvabilityResult(True, subset)
        return SolvabilityResult(False, subset, witness={"singular": "I - B_OO"})
    raise ScmError(f"not an SCM: {m!r}")


def structurally_uniquely_solvable(m) -> bool:
    """Uniquely solvable with respect to every singleton; equivalently the
    augmented graph, which is cached per model, has no self-loops."""
    directed = augmented_graph(m).directed
    return all((i, i) not in directed for i in m.endogenous_names)


def uniquely_solvable_all_subsets(m, max_nodes: int = 16) -> bool:
    """Uniquely solvable with respect to every subset, decided through the
    loops of the functional graph only."""
    g = functional_graph(m)
    if len(g.nodes) > max_nodes:
        raise ScmError(
            f"uniquely_solvable_all_subsets: {len(g.nodes)} variables, over the cap max_nodes={max_nodes}"
        )
    loops = enumerate_loops(g, max_nodes=max_nodes)
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
            sols = tuple(_fibers(m, subset_t, assign))
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
    """The law of the unique solution.  Finite SCMs: the Γ-law of all
    variables (``_gamma_law``), one exact pass over the noises the model
    reads, whose focal sets must all be singletons; the pass stops at the
    first that is not, and ``NotSolvable`` or ``NotUniquelySolvable`` names
    that noise value, restricted to those noises, with its empty or larger
    fiber.  Linear SCMs: the
    closed-form Gaussian."""
    if isinstance(m, FiniteScm):
        endo = m.endogenous_names
        g = _gamma_law(m, endo, {}, unique=True)
        if g is None:
            witness = _finite_scan(m, endo, need_unique=True).witness
            if not witness["fiber"]:
                raise NotSolvable(endo, {"e": witness["e"]})
            raise NotUniquelySolvable(endo, {"e": witness["e"], "fiber": witness["fiber"]})
        den, law = g
        return DiscreteDistribution(endo, m.endogenous, {cell: Fraction(n, den) for (cell,), n in law.items()})
    if isinstance(m, LinearScm):
        try:
            sm = solve_map(m, m.endogenous_names)
        except NotUniquelySolvable:
            res = _linear_solvable(m, m.endogenous_names)
            if not res:
                raise NotSolvable(m.endogenous_names, res.witness) from None
            raise NotUniquelySolvable(m.endogenous_names, {"singular": "I - B"}) from None
        return _solution_law(m, sm, sm.targets)
    raise ScmError(f"not an SCM: {m!r}")


def _solution_law(m: LinearScm, sm: SolveMap, names) -> GaussianDistribution:
    """The law of ``G e + d`` over ``names`` for the linear solve map ``sm``: the
    uncancelled variances ``|G| |Sigma| |G|^T`` are its scale, its mean snapped by rule (ii)."""
    rows = [sm.targets.index(v) for v in names]
    mean, cov, g, d = m.noise_mean(), m.noise_cov(), sm.G[rows], sm.d[rows]
    scale = np.diag(np.abs(g) @ np.abs(cov) @ np.abs(g).T)
    mean = snap(g @ mean + d, np.abs(g) @ np.abs(mean) + np.abs(d))
    return GaussianDistribution(names, mean, g @ cov @ g.T, scale)


def observational_polytope(m: FiniteScm, max_selectors: int = 10**6) -> SelectorPolytope:
    """All achievable observational distributions of a solvable finite SCM,
    represented by the vertex distributions of deterministic selectors."""
    if not isinstance(m, FiniteScm):
        raise ScmError("the selector polytope is defined for finite SCMs")
    endo = m.endogenous_names
    points = []
    count = 1
    for e_assign, n in _support_assignments(m, m.exogenous_names):
        sols = tuple(_fibers(m, endo, e_assign))
        if not sols:
            raise NotSolvable(endo, {"e": e_assign})
        points.append((n, sols))
        count *= len(sols)
        if count > max_selectors:
            raise ScmError(
                f"selector polytope overflow: at least {count} candidate selectors, "
                f"over the cap max_selectors={max_selectors}"
            )
    den = sum(n for n, _ in points)
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

    query = tuple([query] if isinstance(query, str) else query)
    _coordinates(tuple(v + "'" for v in m.endogenous_names), query)  # before any solve
    iv = dict(factual_do)
    iv.update((k + "'", v) for k, v in dict(cf_do).items())
    dist = observational_distribution(intervene(twin(m), iv))
    if observed:
        dist = dist.condition(observed) if isinstance(dist, DiscreteDistribution) else gaussian_condition(dist, observed)
    return dist.marginal(query)


def gaussian_condition(d: GaussianDistribution, observed: Mapping[str, float], tol=None) -> GaussianDistribution:
    """Condition a Gaussian on exact values of some coordinates (Schur
    complement).  A singular observed block is an error: a variance zero by
    rule (ii) of ``config``, or correlations whose smallest singular value is
    at most ``tol`` times the largest; so no change of units moves a verdict."""
    tol = tolerance(tol)
    names = list(observed)
    ib = _coordinates(d.vars, names)
    if not names:
        return d
    keep = [v for v in d.vars if v not in observed]
    ia = [d.vars.index(v) for v in keep]
    sab = d.cov[np.ix_(ia, ib)]
    sbb = d.cov[np.ix_(ib, ib)]
    values = np.array([float(observed[v]) for v in names])
    var = np.diag(sbb)
    sd = np.sqrt(np.where(negligible(var, d.scale[ib], tol), np.inf, var))  # a zero row if so
    corr = sbb / np.outer(sd, sd)
    s = np.linalg.svd(corr, compute_uv=False)
    if s.min() <= tol * s.max():
        raise EvidenceError("observed block covariance is singular")
    k = (sab / sd) @ np.linalg.inv(corr) / sd
    mean = d.mean[ia] + k @ (values - d.mean[ib])
    return GaussianDistribution(tuple(keep), mean, d.cov[np.ix_(ia, ia)] - k @ sab.T, d.scale[ia])
