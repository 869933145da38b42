"""SCM data model for the two mechanism families, and the operations defined
directly on mechanisms: equivalence, functional parents, graph extraction and
canonicalization.  A model is checked when it is built: its constructor
raises ``ScmError`` at the first violated invariant of Definition 2.1.

Finite models are exact throughout (``fractions.Fraction`` probabilities,
tabular mechanisms).  Linear models are real-valued with independent Gaussian
noise blocks; by the one unit-free zero rule of ``config``, parents and
canonicalization compare coefficients with exactly 0 and judge only loop gains.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .config import covariance_root, np, unit_eigenvectors
from .errors import DomainMismatchError, ScmError, UnknownNameError
from .graph import MixedGraph

__all__ = [
    "FiniteDomain",
    "TabularMechanism",
    "FiniteScm",
    "GaussianBlock",
    "LinearScm",
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


def _items_at(keys):
    """The function from a mapping or a row to its items at ``keys``, as a
    tuple (``itemgetter`` of one key returns the bare item)."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return (lambda a, k=keys[0]: (a[k],)) if keys else (lambda a: ())


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
        object.__setattr__(self, "_key", _items_at(args))

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


def _invalid(problem: str) -> ScmError:
    return ScmError(f"invalid model: {problem}")


class FiniteScm(_Frozen):
    """An SCM over finite domains with exact rational exogenous probabilities,
    checked when built (``_check_finite``).  A table value outside its
    variable's domain is legal: [x_k = f_k] holds for no x_k at that input."""

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
        _check_finite(self)
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
        """Values of exogenous index ``j`` with positive probability, in domain
        order; kept in ``_cache``, which is sound because models are frozen."""
        supports = self._cache.setdefault("supports", {})
        if j not in supports:
            table = self.measure[j]
            supports[j] = tuple(v for v in self.exogenous[j].values if table.get(v, 0) > 0)
        return supports[j]

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


def _check_finite(m: FiniteScm):
    """Raise at the first violated invariant: every noise has a probability
    table over its domain, with entries >= 0 that sum to exactly 1, and no
    table names an unknown noise; every variable has a mechanism whose
    arguments are declared and whose table is total over the product of
    their domains, and no mechanism names an unknown variable."""
    for j, dom in m.exogenous.items():
        table = m.measure.get(j)
        if table is None:
            raise _invalid(f"exogenous index {j} has no probability table")
        for v, p in table.items():
            if v not in dom:
                raise _invalid(f"measure of {j} assigns probability to {v!r} outside its domain")
            if p < 0:
                raise _invalid(f"measure of {j} has a negative entry at {v!r}")
        total = sum(table.values())  # exact: the entries are ints and Fractions
        if total != 1:
            raise _invalid(f"measure of {j} not normalized: sums to {total}")
    for j in m.measure:
        if j not in m.exogenous:
            raise _invalid(f"measure declared for unknown exogenous index {j}")
    domains = {**m.endogenous, **m.exogenous}
    for i in m.endogenous:
        mech = m.mechanisms.get(i)
        if mech is None:
            raise _invalid(f"endogenous index {i} has no mechanism")
        bad_args = [a for a in mech.args if a not in domains]
        if bad_args:
            raise _invalid(f"mechanism of {i} references undeclared indices {bad_args}")
        doms = [domains[a].values for a in mech.args]
        expected = math.prod(map(len, doms))
        if len(mech.table) != expected:
            raise _invalid(f"mechanism table of {i} is not total: {len(mech.table)} rows, expected {expected}")
        for key in itertools.product(*doms):
            if key not in mech.table:
                raise _invalid(f"mechanism table of {i} misses entry for {key!r}")
    for i in m.mechanisms:
        if i not in m.endogenous:
            raise _invalid(f"mechanism declared for unknown endogenous index {i}")


def _array(what: str, a, shape: tuple):
    """``a`` as a read-only float array of ``shape``; an array of another
    size, or with an infinite or NaN entry, raises ``ScmError``."""
    a = np.array(a, dtype=float)
    if a.size != math.prod(shape):
        raise _invalid(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise _invalid(f"{what} has a non-finite entry")
    a = a.reshape(shape)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianBlock:
    """A named group of jointly Gaussian exogenous coordinates; blocks are
    mutually independent, arbitrary covariance is allowed within a block.
    A mean or covariance of the wrong size or with a non-finite entry, or a
    covariance that is not symmetric positive semi-definite, raises
    ``ScmError``."""

    name: str
    coords: tuple
    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, name, coords, mean, cov):
        coords = tuple(coords)
        mean = _array(f"block {name} mean", mean, (len(coords),))
        cov = _array(f"block {name} covariance", cov, (len(coords), len(coords)))
        if problem := covariance_root(cov)[1]:
            raise _invalid(f"block {name} covariance is {problem}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which keeps the arrays read-only
        return GaussianBlock, (self.name, self.coords, self.mean, self.cov)


class LinearScm(_Frozen):
    """A linear SCM x = B x + Gamma e + c with Gaussian exogenous blocks.

    Intercepts ``c`` extend the textbook definition so that the family is
    closed under perfect intervention (an intervened mechanism is a constant).
    A repeated or colliding name, or ``B``, ``Gamma`` or ``c`` of the wrong
    size or with a non-finite entry, raises ``ScmError``; each block checks
    its own parameters.
    """

    def __init__(self, endogenous, blocks, B, Gamma, c=None):
        object.__setattr__(self, "endogenous", tuple(endogenous))
        object.__setattr__(self, "blocks", tuple(blocks))
        n, coords, block_names = len(self.endogenous), self.coord_names, self.block_names
        if len(set(self.endogenous)) != n:
            raise _invalid("duplicate endogenous names")
        if len(set(coords)) != len(coords):
            raise _invalid("duplicate exogenous coordinate names")
        if len(set(block_names)) != len(block_names):
            raise _invalid("duplicate block names")
        if set(self.endogenous) & (set(coords) | set(block_names)):
            raise _invalid("endogenous names collide with exogenous names")
        object.__setattr__(self, "B", _array("B", B, (n, n)))
        object.__setattr__(self, "Gamma", _array("Gamma", Gamma, (n, len(coords))))
        object.__setattr__(self, "c", _array("c", np.zeros(n) if c is None else c, (n,)))
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

    def __reduce__(self):
        # copy and pickle rebuild through __init__; the derived ``_cache`` does not travel
        return LinearScm, (self.endogenous, self.blocks, self.B, self.Gamma, self.c)

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


# --- relation-level machinery for finite SCMs ----------------------------

_OUTSIDE = object()  # a mechanism value outside its variable's domain


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
    rows = [(row, mech.table[row]) for row in itertools.product(*values)]
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
    all endogenous values.  One pass per k over the rows of the joint
    coordinates (both sides' arguments and k), comparing the readings
    ``row[k] == table[key]``, each side's key read off the row by position."""
    if not isinstance(m1, FiniteScm) or not isinstance(m2, FiniteScm):
        raise ScmError("mechanisms_equivalent is defined for finite SCMs")
    _check_shared_signature(m1, m2)
    for k in m1.endogenous_names:
        f1, f2 = m1.mechanisms[k], m2.mechanisms[k]
        coords = tuple(dict.fromkeys((*f1.args, *f2.args, k)))
        at = coords.index(k)
        (t1, key1), (t2, key2) = ((f.table, _items_at([coords.index(a) for a in f.args])) for f in (f1, f2))
        values = [m1.support(c) if c in m1.exogenous else m1.domain_of(c).values for c in coords]
        for row in itertools.product(*values):
            if (row[at] == t1[key1(row)]) != (row[at] == t2[key2(row)]):
                return False
    return True


# --- canonicalization -----------------------------------------------------

def _canonical_arg_order(m: FiniteScm, names) -> tuple:
    """Deterministic argument order of the set ``names``: endogenous in
    declaration order, then exogenous in declaration order."""
    return tuple(n for n in (*m.endogenous_names, *m.exogenous_names) if n in names)


def _pins(m: FiniteScm, names) -> dict:
    """A value for each dropped argument in ``names``: an endogenous one at
    its first domain value, a noise at its first support value, or at its
    first domain value when the support is empty.  A relation that does not
    depend on an argument on the support is unchanged there by pinning it."""
    pins = {}
    for a in names:
        sup = m.support(a) if a in m.exogenous else ()
        pins[a] = sup[0] if sup else m.domain_of(a).first()
    return pins


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
        # removed arguments are pinned (``_pins``).  A removed self-argument
        # is different: no self-loop means each section over x_k is a
        # singleton, and the canonical value is that fixed point.
        pinned = _pins(m, [a for a in mech.args if a not in new_args and a != k])
        solve_self = k in mech.args and k not in new_args
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
