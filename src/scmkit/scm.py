"""SCM data model for the two mechanism families, and the operations defined
directly on mechanisms: validation, equivalence, functional parents, graph
extraction and canonicalization.

Finite models are exact throughout (``fractions.Fraction`` probabilities,
tabular mechanisms).  Linear models are real-valued with independent Gaussian
noise blocks; by the one unit-free zero rule of ``config``, parents and
canonicalization compare coefficients with exactly 0 and judge only loop gains.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .config import covariance_problem, np, unit_eigenvectors
from .errors import DomainMismatchError, ScmError, UnknownNameError
from .graph import MixedGraph

__all__ = [
    "FiniteDomain",
    "TabularMechanism",
    "FiniteScm",
    "GaussianBlock",
    "LinearScm",
    "ValidationReport",
    "validate",
    "mechanisms_equivalent",
    "functional_parents",
    "augmented_graph",
    "functional_graph",
    "canonicalize",
]


@dataclass(frozen=True)
class FiniteDomain:
    """An ordered finite set of atoms; the order is the canonical iteration order."""

    values: tuple

    def __init__(self, values):
        values = tuple(values)
        if not values:
            raise ScmError("a finite domain needs at least one value")
        if len(set(values)) != len(values):
            raise ScmError(f"domain values must be distinct, got {values!r}")
        object.__setattr__(self, "values", values)

    def __contains__(self, value):
        return value in self.values

    def __len__(self):
        return len(self.values)

    def first(self):
        return self.values[0]


class _Frozen:
    """Attribute assignment raises once an instance exists; ``__init__`` sets
    its fields with ``object.__setattr__``.  The per-model caches rely on it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; use replace() or a new instance")


class TabularMechanism(_Frozen):
    """A total lookup table from argument tuples to one output value.

    ``args`` names the argument indices (endogenous and exogenous) in the
    order used by the table keys.
    """

    __slots__ = ("args", "table", "_key")

    def __init__(self, args, table: Mapping[tuple, object]):
        args = tuple(args)
        if len(set(args)) != len(args):
            raise ScmError(f"duplicate mechanism arguments: {args!r}")
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "table", MappingProxyType({tuple(k): v for k, v in table.items()}))
        # the table key of an assignment (itemgetter of one name returns the bare value)
        if len(args) > 1:
            key = operator.itemgetter(*args)
        else:
            key = (lambda a, n=args[0]: (a[n],)) if args else (lambda a: ())
        object.__setattr__(self, "_key", key)

    def __call__(self, assignment: Mapping[str, object]):
        key = self._key(assignment)
        try:
            return self.table[key]
        except KeyError:
            raise ScmError(f"mechanism table has no entry for {dict(zip(self.args, key))!r}") from None

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the slots are closed to setattr
        return TabularMechanism, (self.args, dict(self.table))

    def __eq__(self, other):
        if not isinstance(other, TabularMechanism):
            return NotImplemented
        return self.args == other.args and self.table == other.table

    def __repr__(self):
        return f"TabularMechanism(args={self.args!r}, {len(self.table)} rows)"

    @classmethod
    def constant(cls, value):
        return cls((), {(): value})

    @classmethod
    def from_function(cls, args, domains, fn):
        """Tabulate ``fn`` over the product of the argument domains."""
        args = tuple(args)
        table = {}
        for combo in itertools.product(*(domains[a].values for a in args)):
            table[combo] = fn(**dict(zip(args, combo)))
        return cls(args, table)


class FiniteScm(_Frozen):
    """An SCM over finite domains with exact rational exogenous probabilities."""

    def __init__(self, endogenous, exogenous, measure, mechanisms, expressions=None):
        # read-only views: the per-model caches in ``_cache`` rely on it
        object.__setattr__(self, "endogenous", MappingProxyType(dict(endogenous)))
        object.__setattr__(self, "exogenous", MappingProxyType(dict(exogenous)))
        measure = {j: MappingProxyType(dict(t)) for j, t in measure.items()}
        object.__setattr__(self, "measure", MappingProxyType(measure))
        object.__setattr__(self, "mechanisms", MappingProxyType(dict(mechanisms)))
        object.__setattr__(self, "expressions", MappingProxyType(dict(expressions or {})))
        overlap = set(self.endogenous) & set(self.exogenous)
        if overlap:
            raise ScmError(f"endogenous and exogenous names overlap: {sorted(overlap)}")
        object.__setattr__(self, "_cache", {})

    @property
    def endogenous_names(self) -> tuple:
        return tuple(self.endogenous)

    @property
    def exogenous_names(self) -> tuple:
        return tuple(self.exogenous)

    def domain_of(self, name: str) -> FiniteDomain:
        if name in self.endogenous:
            return self.endogenous[name]
        if name in self.exogenous:
            return self.exogenous[name]
        raise UnknownNameError(f"unknown index {name!r}")

    def support(self, j: str) -> tuple:
        """Values of exogenous index ``j`` with positive probability, in domain order."""
        table = self.measure[j]
        return tuple(v for v in self.exogenous[j].values if table.get(v, 0) > 0)

    def __reduce__(self):
        # copy and pickle rebuild through __init__ from plain dicts; the
        # derived ``_cache`` does not travel
        measure = {j: dict(t) for j, t in self.measure.items()}
        return FiniteScm, (dict(self.endogenous), dict(self.exogenous), measure,
                           dict(self.mechanisms), dict(self.expressions))

    def replace(self, **kwargs) -> "FiniteScm":
        base = dict(
            endogenous=self.endogenous,
            exogenous=self.exogenous,
            measure=self.measure,
            mechanisms=self.mechanisms,
            expressions=self.expressions,
        )
        base.update(kwargs)
        return FiniteScm(**base)

    def __repr__(self):
        return (
            f"FiniteScm(endogenous={list(self.endogenous)}, "
            f"exogenous={list(self.exogenous)})"
        )

    def to_json_obj(self) -> dict:
        def render_value(v):
            return str(v) if isinstance(v, Fraction) else v

        def nested_table(mech):
            doms = [self.domain_of(a).values for a in mech.args]

            def rec(prefix, rest):
                if not rest:
                    return render_value(mech.table[tuple(prefix)])
                return [rec(prefix + [v], rest[1:]) for v in rest[0]]

            return rec([], doms)

        return {
            "family": "finite",
            "endogenous": {i: [render_value(v) for v in d.values] for i, d in self.endogenous.items()},
            "exogenous": {j: [render_value(v) for v in d.values] for j, d in self.exogenous.items()},
            "measure": {
                j: [str(Fraction(self.measure[j].get(v, 0))) for v in d.values]
                for j, d in self.exogenous.items()
            },
            "mechanisms": {
                i: {"args": list(m.args), "table": nested_table(m)}
                for i, m in self.mechanisms.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


@dataclass(frozen=True)
class GaussianBlock:
    """A named group of jointly Gaussian exogenous coordinates; blocks are
    mutually independent, arbitrary covariance is allowed within a block."""

    name: str
    coords: tuple
    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, name, coords, mean, cov):
        coords = tuple(coords)
        mean = np.asarray(mean, dtype=float).reshape(len(coords))
        cov = np.asarray(cov, dtype=float).reshape(len(coords), len(coords))
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


class LinearScm(_Frozen):
    """A linear SCM x = B x + Gamma e + c with Gaussian exogenous blocks.

    Intercepts ``c`` extend the textbook definition so that the family is
    closed under perfect intervention (an intervened mechanism is a constant).
    """

    def __init__(self, endogenous, blocks, B, Gamma, c=None):
        object.__setattr__(self, "endogenous", tuple(endogenous))
        object.__setattr__(self, "blocks", tuple(blocks))
        n = len(self.endogenous)
        m = sum(len(b.coords) for b in self.blocks)

        def shaped(a, shape):
            a = np.array(a, dtype=float)
            # misshapen input is kept as-is so validate() can report it
            return a.reshape(shape) if a.size == np.prod(shape) else a

        object.__setattr__(self, "B", shaped(B, (n, n)))
        object.__setattr__(self, "Gamma", shaped(Gamma, (n, m)))
        object.__setattr__(self, "c", np.zeros(n) if c is None else shaped(c, (n,)))
        for a in (self.B, self.Gamma, self.c):
            a.setflags(write=False)
        object.__setattr__(self, "_cache", {})

    @property
    def endogenous_names(self) -> tuple:
        return self.endogenous

    @property
    def coord_names(self) -> tuple:
        return tuple(c for b in self.blocks for c in b.coords)

    @property
    def block_names(self) -> tuple:
        return tuple(b.name for b in self.blocks)

    def endo_index(self, name: str) -> int:
        try:
            return self.endogenous.index(name)
        except ValueError:
            raise UnknownNameError(f"unknown endogenous variable {name!r}") from None

    def block_of_coord(self, coord: str) -> GaussianBlock:
        for b in self.blocks:
            if coord in b.coords:
                return b
        raise UnknownNameError(f"unknown exogenous coordinate {coord!r}")

    def noise_mean(self) -> np.ndarray:
        return np.concatenate([b.mean for b in self.blocks]) if self.blocks else np.zeros(0)

    def noise_cov(self) -> np.ndarray:
        m = len(self.coord_names)
        out = np.zeros((m, m))
        pos = 0
        for b in self.blocks:
            k = len(b.coords)
            out[pos : pos + k, pos : pos + k] = b.cov
            pos += k
        return out

    def replace(self, **kwargs) -> "LinearScm":
        base = dict(endogenous=self.endogenous, blocks=self.blocks, B=self.B, Gamma=self.Gamma, c=self.c)
        base.update(kwargs)
        return LinearScm(**base)

    def __repr__(self):
        return f"LinearScm(endogenous={list(self.endogenous)}, blocks={[b.name for b in self.blocks]})"

    def to_json_obj(self) -> dict:
        return {
            "family": "linear",
            "endogenous": list(self.endogenous),
            "blocks": [
                {
                    "name": b.name,
                    "coords": list(b.coords),
                    "mean": b.mean.tolist(),
                    "cov": b.cov.tolist(),
                }
                for b in self.blocks
            ],
            "B": self.B.tolist(),
            "Gamma": self.Gamma.tolist(),
            "c": self.c.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


# --- validation ---------------------------------------------------------

@dataclass
class ValidationReport:
    problems: list

    @property
    def ok(self) -> bool:
        return not self.problems

    def __iter__(self):
        return iter(self.problems)

    def to_json_obj(self):
        return {"ok": self.ok, "problems": list(self.problems)}


def _validate_finite(m: FiniteScm) -> list:
    problems = []
    for j in m.exogenous:
        if j not in m.measure:
            problems.append(f"exogenous index {j} has no probability table")
            continue
        table = m.measure[j]
        dom = m.exogenous[j]
        for v, p in table.items():
            if v not in dom:
                problems.append(f"measure of {j} assigns probability to {v!r} outside its domain")
            if p < 0:
                problems.append(f"measure of {j} has a negative entry at {v!r}")
        total = sum(Fraction(p) for p in table.values())
        if total != 1:
            problems.append(f"measure of {j} not normalized: sums to {total}")
    for j in m.measure:
        if j not in m.exogenous:
            problems.append(f"measure declared for unknown exogenous index {j}")

    declared = set(m.endogenous) | set(m.exogenous)
    for i in m.endogenous:
        mech = m.mechanisms.get(i)
        if mech is None:
            problems.append(f"endogenous index {i} has no mechanism")
            continue
        bad_args = [a for a in mech.args if a not in declared]
        if bad_args:
            problems.append(f"mechanism of {i} references undeclared indices {bad_args}")
            continue
        doms = [m.domain_of(a).values for a in mech.args]
        expected = 1
        for d in doms:
            expected *= len(d)
        if len(mech.table) != expected:
            problems.append(
                f"mechanism table of {i} is not total: {len(mech.table)} rows, expected {expected}"
            )
            continue
        codomain = m.endogenous[i]
        for key in itertools.product(*doms):
            if key not in mech.table:
                problems.append(f"mechanism table of {i} misses entry for {key!r}")
                break
            if mech.table[key] not in codomain:
                problems.append(f"mechanism of {i} outputs {mech.table[key]!r} outside its codomain at {key!r}")
                break
    for i in m.mechanisms:
        if i not in m.endogenous:
            problems.append(f"mechanism declared for unknown endogenous index {i}")
    return problems


def _validate_linear(m: LinearScm) -> list:
    problems = []
    n = len(m.endogenous)
    coords = m.coord_names
    if len(set(m.endogenous)) != n:
        problems.append("duplicate endogenous names")
    if len(set(coords)) != len(coords):
        problems.append("duplicate exogenous coordinate names")
    if len(set(b.name for b in m.blocks)) != len(m.blocks):
        problems.append("duplicate block names")
    if set(m.endogenous) & (set(coords) | set(b.name for b in m.blocks)):
        problems.append("endogenous names collide with exogenous names")
    if m.B.shape != (n, n):
        problems.append(f"B has shape {m.B.shape}, expected {(n, n)}")
    if m.Gamma.shape != (n, len(coords)):
        problems.append(f"Gamma has shape {m.Gamma.shape}, expected {(n, len(coords))}")
    if m.c.shape != (n,):
        problems.append(f"c has shape {m.c.shape}, expected {(n,)}")
    for b in m.blocks:
        if b.cov.shape != (len(b.coords), len(b.coords)):
            problems.append(f"block {b.name} covariance has shape {b.cov.shape}")
            continue
        if problem := covariance_problem(b.cov):
            problems.append(f"block {b.name} covariance is {problem}")
    return problems


def validate(m) -> ValidationReport:
    """Check every type invariant; reports violations, never raises."""
    if isinstance(m, FiniteScm):
        return ValidationReport(_validate_finite(m))
    if isinstance(m, LinearScm):
        return ValidationReport(_validate_linear(m))
    raise ScmError(f"not an SCM: {m!r}")


# --- relation-level machinery for finite SCMs ----------------------------

_OUTSIDE = object()  # a mechanism value outside its variable's domain


def _relation_holds(mech: TabularMechanism, k: str, assign: dict) -> bool:
    return assign[k] == mech(assign)


def _finite_parents(m: FiniteScm, k: str) -> frozenset:
    """One pass over the rows of ``k``'s table per argument, exogenous values
    over their support only.  The relation [x_k = f_k] at a row is read as
    ``out == row[k]`` when k reads itself, and as the output otherwise (any
    output outside D_k is one value: it holds for no x_k).  An argument v
    is a parent iff two rows that differ only in v differ in that reading;
    k is its own parent iff some section over x_k does not hold exactly one
    fixed point, which, when k does not read itself, means some output lies
    outside D_k."""
    if k not in m.endogenous:
        raise UnknownNameError(f"unknown endogenous index {k!r}")
    cache = m._cache.setdefault("parents", {})
    if k in cache:
        return cache[k]
    mech = m.mechanisms[k]
    args = mech.args
    values = [m.support(a) if a in m.exogenous else m.domain_of(a).values for a in args]
    try:
        rows = [(row, mech.table[row]) for row in itertools.product(*values)]
    except KeyError as exc:
        raise ScmError(f"mechanism table of {k} has no entry for {exc.args[0]!r}") from None
    if k in args:
        at = args.index(k)
        reading = [(row, out == row[at]) for row, out in rows]
        fixed = {}
        for row, holds in reading:
            key = row[:at] + row[at + 1:]
            fixed[key] = fixed.get(key, 0) + holds
        parents = {k} if any(n != 1 for n in fixed.values()) else set()
    else:
        domain = frozenset(m.endogenous[k].values)
        reading = [(row, out if out in domain else _OUTSIDE) for row, out in rows]
        parents = {k} if any(out is _OUTSIDE for _, out in reading) else set()
    for p, v in enumerate(args):
        if v == k:
            continue
        seen = {}
        for row, value in reading:
            if seen.setdefault(row[:p] + row[p + 1:], value) != value:
                parents.add(v)
                break
    cache[k] = frozenset(parents)
    return cache[k]


def _linear_parents(m: LinearScm, k: str) -> frozenset:
    """Rule (iii) of ``config``: a variable is a parent iff its coefficient is
    not 0, a noise block iff a coordinate's gain and variance are not 0, and
    k itself iff B_kk is within the tolerance of 1 (rule (i), 1x1)."""
    if k not in m.endogenous:
        raise UnknownNameError(f"unknown endogenous index {k!r}")
    cache = m._cache.setdefault("parents", {})
    if k not in cache:
        ki = m.endo_index(k)
        parents = {n for j, n in enumerate(m.endogenous) if j != ki and m.B[ki, j] != 0}
        if unit_eigenvectors(m.B[ki:ki + 1, ki:ki + 1]).size:
            parents.add(k)
        moving = dict(zip(m.coord_names, (m.Gamma[ki] != 0) & (np.diag(m.noise_cov()) != 0)))
        parents.update(b.name for b in m.blocks if any(moving[c] for c in b.coords))
        cache[k] = frozenset(parents)
    return cache[k]


def functional_parents(m, k: str) -> frozenset:
    """Indices (endogenous names; exogenous names or block names) on which the
    fixed-point relation of ``k`` genuinely depends.

    A coordinate v is removable exactly when the predicate
    [x_k = f_k(x, e)] is invariant under changes of v for every x and every
    e in the support: pinning v to a fixed value then yields an equivalent
    mechanism without v, so removability at the relation level coincides with
    the existence of an equivalent mechanism omitting v.  For v = k the same
    argument needs the sections over x_k to be singletons, i.e. unique
    solvability with respect to {k}.

    Cost: finite, one pass over the rows of the mechanism's table per
    argument; linear, one row of B and Gamma.  Kept per model.
    """
    if isinstance(m, FiniteScm):
        return _finite_parents(m, k)
    if isinstance(m, LinearScm):
        return _linear_parents(m, k)
    raise ScmError(f"not an SCM: {m!r}")


def augmented_graph(m) -> MixedGraph:
    """Directed graph on endogenous plus exogenous indices (blocks, for the
    linear family) with an edge v -> k iff v is a functional parent of k."""
    if "augmented_graph" in m._cache:
        return m._cache["augmented_graph"]
    if isinstance(m, FiniteScm):
        exo_nodes = list(m.exogenous_names)
    else:
        exo_nodes = list(m.block_names)
    nodes = list(m.endogenous_names) + exo_nodes
    edges = []
    for k in m.endogenous_names:
        for v in sorted(functional_parents(m, k)):
            edges.append((v, k))
    g = MixedGraph(nodes, edges, ())
    m._cache["augmented_graph"] = g
    return g


def functional_graph(m) -> MixedGraph:
    """Directed mixed graph on the endogenous indices: directed edges from the
    augmented graph, bidirected edges between variables sharing an exogenous
    functional parent."""
    if "functional_graph" in m._cache:
        return m._cache["functional_graph"]
    endo = set(m.endogenous_names)
    aug = augmented_graph(m)
    directed = [e for e in aug.directed if e[0] in endo and e[1] in endo]
    shared = {}
    for k in m.endogenous_names:
        for v in functional_parents(m, k):
            if v not in endo:
                shared.setdefault(v, set()).add(k)
    bidirected = set()
    for children in shared.values():
        for u, v in itertools.combinations(sorted(children), 2):
            bidirected.add((u, v))
    g = MixedGraph(list(m.endogenous_names), directed, bidirected)
    m._cache["functional_graph"] = g
    return g


# --- mechanism equivalence ----------------------------------------------

def _check_shared_signature(m1: FiniteScm, m2: FiniteScm):
    if (
        m1.endogenous_names != m2.endogenous_names
        or m1.exogenous_names != m2.exogenous_names
        or m1.endogenous != m2.endogenous
        or m1.exogenous != m2.exogenous
        or m1.measure != m2.measure
    ):
        raise DomainMismatchError("mechanism equivalence needs shared indices, domains and measure")


def mechanisms_equivalent(m1: FiniteScm, m2: FiniteScm) -> bool:
    """Componentwise equivalence: for every k and every exogenous assignment
    in the support, the fixed-point relations of the two mechanisms agree on
    all endogenous values."""
    if not isinstance(m1, FiniteScm) or not isinstance(m2, FiniteScm):
        raise ScmError("mechanisms_equivalent is defined for finite SCMs")
    _check_shared_signature(m1, m2)
    for k in m1.endogenous_names:
        f1 = m1.mechanisms[k]
        f2 = m2.mechanisms[k]
        coords = list(dict.fromkeys(list(f1.args) + list(f2.args)))
        if k not in coords:
            coords.append(k)
        values = [
            m1.support(c) if c in m1.exogenous else m1.domain_of(c).values
            for c in coords
        ]
        for combo in itertools.product(*values):
            assign = dict(zip(coords, combo))
            if _relation_holds(f1, k, assign) != _relation_holds(f2, k, assign):
                return False
    return True


# --- canonicalization -----------------------------------------------------

def _canonical_arg_order(m, names) -> tuple:
    """Deterministic argument order: endogenous in declaration order, then
    exogenous in declaration order."""
    if isinstance(m, FiniteScm):
        endo, exo = m.endogenous_names, m.exogenous_names
    else:
        endo, exo = m.endogenous_names, m.block_names
    names = set(names)
    return tuple([n for n in endo if n in names] + [n for n in exo if n in names])


def _canonicalize_finite(m: FiniteScm) -> FiniteScm:
    mechanisms = {}
    expressions = {}
    for k in m.endogenous_names:
        mech = m.mechanisms[k]
        parents = functional_parents(m, k)
        if set(mech.args) == parents:
            mechanisms[k] = mech
            if k in m.expressions:
                expressions[k] = m.expressions[k]
            continue
        new_args = _canonical_arg_order(m, parents)
        # pin removed arguments: endogenous to the first domain value,
        # exogenous to the first support value (the relation is invariant in
        # them there, so the relation on the support is unchanged).  A removed
        # self-argument is different: no self-loop means each section over x_k
        # is a singleton, and the canonical value is that fixed point.
        pinned = {}
        solve_self = k in mech.args and k not in new_args
        for a in mech.args:
            if a in new_args or a == k:
                continue
            if a in m.exogenous:
                sup = m.support(a)
                pinned[a] = sup[0] if sup else m.exogenous[a].first()
            else:
                pinned[a] = m.domain_of(a).first()
        table = {}
        for combo in itertools.product(*(m.domain_of(a).values for a in new_args)):
            assign = dict(zip(new_args, combo))
            assign.update(pinned)
            if solve_self:
                fixed = [x for x in m.endogenous[k].values
                         if mech({**assign, k: x}) == x]
                table[combo] = fixed[0] if fixed else m.endogenous[k].first()
            else:
                table[combo] = mech(assign)
        mechanisms[k] = TabularMechanism(new_args, table)
    return FiniteScm(m.endogenous, m.exogenous, m.measure, mechanisms, expressions)


def _canonicalize_linear(m: LinearScm) -> LinearScm:
    B = m.B.copy()
    Gamma = m.Gamma.copy()
    c = m.c.copy()
    mean = m.noise_mean()
    # a zero-variance coordinate is a.s. constant: fold its contribution into
    # the intercept so the coefficient can be dropped
    for ci in np.flatnonzero(np.diag(m.noise_cov()) == 0):
        c += Gamma[:, ci] * mean[ci]
        Gamma[:, ci] = 0.0
    for ki, k in enumerate(m.endogenous):
        if k in functional_parents(m, k):
            continue  # genuine self-loop, left untouched
        scale = 1.0 / (1.0 - B[ki, ki])
        B[ki, :] *= scale
        Gamma[ki, :] *= scale
        c[ki] *= scale
        B[ki, ki] = 0.0
    return LinearScm(m.endogenous, m.blocks, B, Gamma, c)


def canonicalize(m):
    """An equivalent SCM whose declared mechanism arguments are exactly the
    functional parents (for the linear family: rows normalized so that the
    diagonal of B is 0 except at genuine self-loops, where it is 1)."""
    if isinstance(m, FiniteScm):
        return _canonicalize_finite(m)
    if isinstance(m, LinearScm):
        return _canonicalize_linear(m)
    raise ScmError(f"not an SCM: {m!r}")
