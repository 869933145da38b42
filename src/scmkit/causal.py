"""Equivalence relations between SCMs and causal-graph extraction.

Observational equivalence of finite SCMs compares the full sets of achievable
marginal distributions: the convex hulls of the selector-polytope vertices,
decided by an exact phase-1 simplex on integers.  Interventional equivalence
quantifies over all perfect interventions inside the margin; counterfactual
equivalence is interventional equivalence of the twin models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    DiscreteDistribution,
    _gaussians_agree,
    observational_polytope,
    solve_map,
    structurally_uniquely_solvable,
)
from .config import np, tolerance
from .errors import (
    DomainMismatchError,
    NotSolvable,
    NotUniquelySolvable,
    ScmError,
    SolvabilityError,
    UnsupportedModelError,
)
from .graph import MixedGraph
from .scm import FiniteScm, LinearScm, canonicalize, functional_graph, functional_parents
from .transform import intervene, marginalize, twin

__all__ = [
    "EquivalenceReport",
    "observationally_equivalent",
    "interventionally_equivalent",
    "counterfactually_equivalent",
    "is_direct_cause",
    "direct_causal_graph",
    "direct_causal_graph_wrt",
    "is_indirect_cause",
]


@dataclass
class EquivalenceReport:
    level: str
    margin: tuple
    verdict: bool
    witness: object = None

    def __bool__(self):
        return self.verdict

    def to_json_obj(self):
        return {
            "level": self.level,
            "margin": list(self.margin),
            "verdict": self.verdict,
            "witness": self.witness,
        }


# --- exact convex-hull membership ------------------------------------------

def _lp_feasible(rows, rhs) -> bool:
    """Exact feasibility of ``rows @ x = rhs, x >= 0`` (entries ``int`` or
    ``Fraction``): is the artificial sum 0 at the phase-1 optimum?"""
    return _phase1(rows, rhs)[1][-1] == 0


def _phase1(rows, rhs):
    """Phase-1 simplex with Bland's rule for ``rows @ x = rhs, x >= 0``,
    pivoting fraction-free on integers; returns the final ``(tableau, obj,
    basis, det)``.  ``_lp_feasible`` reads only the verdict off ``obj``; the
    rest is returned so that the tests can compare each tableau with the
    rational oracle's.

    Each row of ``rows | rhs`` is scaled to integers by the lcm of its
    denominators, its sign making the right-hand side non-negative; its
    artificial column stays 1, since scaling a row only rescales its
    artificial variable.  Every tableau and objective entry is then an
    ``int`` over ``det``, the determinant of the current basis.  A pivot on
    ``p`` maps each other row's entry ``a`` to ``(a*p - f*b) // det``, which
    divides exactly (Bareiss), and sets ``det = p > 0``; so reduced costs have
    the signs of their integers and ratios compare by cross-multiplication.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    total = ncols + nrows
    tableau = []
    for r in range(nrows):
        vals = [*rows[r], rhs[r]]
        scale = math.lcm(*(x.denominator for x in vals))
        if vals[-1] < 0:
            scale = -scale
        ints = [x.numerator * (scale // x.denominator) for x in vals]
        art = [0] * nrows
        art[r] = 1
        tableau.append(ints[:-1] + art + ints[-1:])
    # reduced costs for minimizing the artificial sum: 1 on the artificial
    # columns minus the sum of the rows, which cancels there
    obj = [-sum(col) for col in zip(*tableau)] if tableau else [0]
    obj[ncols:total] = [0] * nrows
    basis = list(range(ncols, total))
    det = 1
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        r = None
        for i, row in enumerate(tableau):
            c = row[enter]
            if c > 0 and (r is None or row[-1] * pc < pb * c
                          or (row[-1] * pc == pb * c and basis[i] < basis[r])):
                r, pb, pc = i, row[-1], c
        if r is None:  # pragma: no cover - phase-1 objective is bounded
            raise AssertionError("unbounded phase-1 simplex")
        prow = tableau[r]
        for i, row in enumerate(tableau):
            if i != r:
                f = row[enter]
                tableau[i] = [(a * pc - f * b) // det for a, b in zip(row, prow)]
        f = obj[enter]
        obj = [(a * pc - f * b) // det for a, b in zip(obj, prow)]
        det = pc
        basis[r] = enter
    return tableau, obj, basis, det


def _hull_contains(vertices, target, cells) -> bool:
    """Is ``target`` in the convex hull of ``vertices`` (distributions over the
    shared cell list)?  Exact."""
    if not vertices:
        return False
    vecs = [[v.probs.get(cell, 0) for v in vertices] for cell in cells]
    rhs = [target.probs.get(cell, 0) for cell in cells]
    vecs.append([1] * len(vertices))
    rhs.append(1)
    return _lp_feasible(vecs, rhs)


def _first_outside(vs1, vs2):
    """``None`` when the two vertex tuples span the same hull; otherwise
    ``(side, vertex)`` for the first vertex, left side first, outside the
    other side's hull.  A vertex the other side also lists needs no LP."""
    cells = sorted(
        {c for v in vs1 for c in v.probs} | {c for v in vs2 for c in v.probs},
        key=lambda cell: tuple(map(str, cell)),
    )
    for side, vs, other in (("left", vs1, vs2), ("right", vs2, vs1)):
        shared = set(other)
        for v in vs:
            if v not in shared and not _hull_contains(other, v, cells):
                return side, v
    return None


# --- observational equivalence ----------------------------------------------

def _margin_names(m1, m2, margin) -> tuple:
    margin = tuple(sorted(set([margin]) if isinstance(margin, str) else set(margin)))
    for m in (m1, m2):
        missing = set(margin) - set(m.endogenous_names)
        if missing:
            raise DomainMismatchError(f"margin variables {sorted(missing)} missing from a model")
    if isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm):
        for v in margin:
            if m1.endogenous[v] != m2.endogenous[v]:
                raise DomainMismatchError(f"margin variable {v} has different domains")
    return margin


def _achievable_marginals(m: FiniteScm, margin):
    """Vertex distributions of the achievable set projected to the margin;
    ``()`` when the model has no solution at all."""
    try:
        poly = observational_polytope(m)
    except NotSolvable:
        return ()
    return tuple(dict.fromkeys(v.marginal(margin) for v in poly.vertices))


def observationally_equivalent(m1, m2, margin) -> EquivalenceReport:
    """Do the two models have the same set of achievable distributions on the
    margin?  Models without any solution have the empty set and are vacuously
    equivalent to each other."""
    margin = _margin_names(m1, m2, margin)
    if isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm):
        vs1 = _achievable_marginals(m1, margin)
        vs2 = _achievable_marginals(m2, margin)
        if not vs1 and not vs2:
            return EquivalenceReport("observational", margin, True)
        if bool(vs1) != bool(vs2):
            return EquivalenceReport(
                "observational", margin, False,
                witness={"left": "no solution" if not vs1 else "solvable",
                         "right": "no solution" if not vs2 else "solvable"},
            )
        if len(vs1) == len(vs2) == 1:
            (d1,), (d2,) = vs1, vs2
            if d1 == d2:
                return EquivalenceReport("observational", margin, True)
            return EquivalenceReport(
                "observational", margin, False,
                witness={"left": d1.to_json_obj(), "right": d2.to_json_obj()},
            )
        outside = _first_outside(vs1, vs2)
        if outside is None:
            return EquivalenceReport("observational", margin, True)
        side, law = outside
        return EquivalenceReport(
            "observational", margin, False,
            witness={"left": [v.to_json_obj() for v in vs1],
                     "right": [v.to_json_obj() for v in vs2],
                     "outside": {"side": side, "law": law.to_json_obj()}},
        )
    if isinstance(m1, LinearScm) and isinstance(m2, LinearScm):
        # the observational law is the law under do(), compared as every
        # interventional one is
        f1, f2 = _linear_do_law(m1, (), margin), _linear_do_law(m2, (), margin)
        if f1 is None or f2 is None:
            raise UnsupportedModelError(
                "linear observational equivalence needs both models uniquely solvable"
            )
        if _do_laws_agree(f1, f2, tolerance()):
            return EquivalenceReport("observational", margin, True)
        return EquivalenceReport(
            "observational", margin, False,
            witness={side: {"vars": list(margin), "mean": f[1].tolist(), "cov": f[2].tolist()}
                     for side, f in (("left", f1), ("right", f2))},
        )
    raise DomainMismatchError("cannot compare models from different families")


# --- interventional equivalence ----------------------------------------------

def _intervention_patterns(margin):
    for size in range(len(margin) + 1):
        for subset in itertools.combinations(margin, size):
            yield subset


def _linear_do_law(m: LinearScm, targets, margin):
    """The law of the margin outside ``targets`` under do(targets = t), read
    off the solve map of the other variables: ``(A, mean, cov, scale)`` with
    mean ``A t + mean``, covariance ``cov`` and, per variable, ``scale`` the
    variance its noise terms would give without cancelling, which bounds the
    rounding in ``cov``; columns of ``A`` in the order of ``targets``.
    ``None`` when that subsystem is singular.  The targets themselves equal
    the intervention values in every model."""
    try:
        sm = solve_map(m, [v for v in m.endogenous_names if v not in targets])
    except NotUniquelySolvable:
        return None
    rows = [sm.targets.index(v) for v in margin if v not in targets]
    cols = [sm.endo_args.index(t) for t in targets]
    G, cov = sm.G[rows, :], m.noise_cov()
    # a noise gain at or below the tolerance times max(1, the row's largest)
    # is the rounding of a zero, as for the singular values of I - B_OO
    level = tolerance() * np.maximum(1.0, np.abs(G).max(axis=1, initial=0.0))
    G = np.where(np.abs(G) <= level[:, None], 0.0, G)
    scale = np.diag(np.abs(G) @ np.abs(cov) @ np.abs(G).T)
    return sm.A[np.ix_(rows, cols)], G @ m.noise_mean() + sm.d[rows], G @ cov @ G.T, scale


def _do_laws_agree(f1, f2, tol) -> bool:
    """Do two ``_linear_do_law`` results agree up to ``tol``?  Coefficients
    within ``tol`` times max(1, their size); the Gaussian part per variable,
    in the units of the larger of its two scales."""
    (a1, mean1, cov1, scale1), (a2, mean2, cov2, scale2) = f1, f2
    top = np.maximum(1.0, np.maximum(np.abs(a1), np.abs(a2)))
    return bool(np.all(np.abs(a1 - a2) <= tol * top)) and _gaussians_agree(
        mean1, cov1, mean2, cov2, tol, np.maximum(scale1, scale2)
    )


def interventionally_equivalent(m1, m2, margin, max_evaluations: int = 10**5) -> EquivalenceReport:
    """Observational equivalence of the intervened pairs for every perfect
    intervention inside the margin (all target subsets, all values).  Finite
    models raise ``ScmError`` before the first intervention when the count
    of evaluations this needs exceeds ``max_evaluations``."""
    margin = _margin_names(m1, m2, margin)
    if isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm):
        # every target subset, every value combination, both models
        needed = 2 * math.prod(len(m1.endogenous[v].values) + 1 for v in margin)
        if needed > max_evaluations:
            raise ScmError(
                f"interventional equivalence needs {needed} evaluations, "
                f"over the cap max_evaluations={max_evaluations}"
            )
        for targets in _intervention_patterns(margin):
            values = [m1.endogenous[t].values for t in targets]
            for combo in itertools.product(*values):
                iv = dict(zip(targets, combo))
                rep = observationally_equivalent(intervene(m1, iv), intervene(m2, iv), margin)
                if not rep:
                    shown = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in iv.items()}
                    return EquivalenceReport(
                        "interventional", margin, False,
                        witness={"intervention": shown, "observational": rep.witness},
                    )
        return EquivalenceReport("interventional", margin, True)
    if isinstance(m1, LinearScm) and isinstance(m2, LinearScm):
        tol = tolerance()
        for targets in _intervention_patterns(margin):
            f1 = _linear_do_law(m1, targets, margin)
            f2 = _linear_do_law(m2, targets, margin)
            if f1 is None and f2 is None:
                raise UnsupportedModelError(
                    "both intervened linear models are non-uniquely-solvable; comparison unsupported"
                )
            if (f1 is None) != (f2 is None):
                return EquivalenceReport(
                    "interventional", margin, False,
                    witness={"intervention_targets": list(targets),
                             "left": "singular" if f1 is None else "unique",
                             "right": "singular" if f2 is None else "unique"},
                )
            if not _do_laws_agree(f1, f2, tol):
                return EquivalenceReport(
                    "interventional", margin, False,
                    witness={"intervention_targets": list(targets)},
                )
        return EquivalenceReport("interventional", margin, True)
    raise DomainMismatchError("cannot compare models from different families")


def counterfactually_equivalent(m1, m2, margin, max_evaluations: int = 10**5) -> EquivalenceReport:
    """Interventional equivalence of the twin models on the margin plus its
    primed copy."""
    margin = _margin_names(m1, m2, margin)
    if not (isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm)):
        raise UnsupportedModelError("counterfactual equivalence is implemented for finite SCMs")
    doubled = tuple(margin) + tuple(v + "'" for v in margin)
    rep = interventionally_equivalent(twin(m1), twin(m2), doubled, max_evaluations)
    return EquivalenceReport("counterfactual", margin, rep.verdict, rep.witness)


# --- direct causes -----------------------------------------------------------

def _pointwise_distribution(m: FiniteScm, j: str, ctx: dict) -> DiscreteDistribution:
    """Law of X_j when every other endogenous variable is clamped to ctx.

    The table of j may formally take x_j as an argument even without a
    self-loop, so the unique fixed point is solved for rather than read off.
    """
    from .analysis import _support_assignments, _support_denominator

    mech = m.mechanisms[j]
    exo = tuple(a for a in mech.args if a in m.exogenous)
    weights = {}
    for e_assign, n in _support_assignments(m, exo):
        assign = dict(ctx)
        assign.update(e_assign)
        if j in mech.args:
            fixed = []
            for x in m.endogenous[j].values:
                assign[j] = x
                if mech(assign) == x:
                    fixed.append(x)
            if len(fixed) != 1:  # pragma: no cover - excluded by the no-self-loop precondition
                raise ScmError(f"variable {j} has no unique fixed point under full intervention")
            value = fixed[0]
        else:
            value = mech(assign)
        weights[(value,)] = weights.get((value,), 0) + n
    den = _support_denominator(m, exo)
    return DiscreteDistribution((j,), {j: m.endogenous[j]}, {c: Fraction(n, den) for c, n in weights.items()})


def is_direct_cause(m, i: str, j: str):
    """Is there an intervention contrast on i, all other variables held fixed,
    that changes the law of j?  Requires a model without self-loops.

    Finite models return (verdict, witness) with the lexicographically first
    contrast found; linear models decide from the canonicalized coefficient.
    The law of j under do(V minus j) reads only j's arguments: i outside j's
    functional parents is no direct cause, and otherwise the contrasts range
    over j's other declared arguments, every remaining variable held at its
    first value, which is where the lexicographically first contrast has it.
    """
    if i == j:
        raise ScmError("direct causes are defined for distinct variables")
    if not structurally_uniquely_solvable(m):
        raise ScmError("direct causes need a structurally uniquely solvable model (no self-loops)")
    if isinstance(m, LinearScm):
        tol = tolerance()
        cm = canonicalize(m)
        return abs(cm.B[cm.endo_index(j), cm.endo_index(i)]) > tol, None
    if not isinstance(m, FiniteScm):
        raise ScmError(f"not an SCM: {m!r}")
    if i not in m.endogenous or j not in m.endogenous:
        raise ScmError(f"unknown variable in ({i}, {j})")
    if i not in functional_parents(m, j):
        return False, None
    args = set(m.mechanisms[j].args)
    others = [v for v in m.endogenous_names if v not in (i, j)]
    ranged = [v for v in others if v in args]
    ctx = {v: m.endogenous[v].first() for v in others}
    dom = m.endogenous[i].values
    for ctx_combo in itertools.product(*(m.endogenous[v].values for v in ranged)):
        ctx.update(zip(ranged, ctx_combo))
        laws = [_pointwise_distribution(m, j, {**ctx, i: x}) for x in dom]
        for a_idx, b_idx in itertools.combinations(range(len(dom)), 2):
            if laws[a_idx] != laws[b_idx]:
                return True, ({**ctx, i: dom[a_idx]}, {**ctx, i: dom[b_idx]})
    return False, None


def direct_causal_graph(m) -> MixedGraph:
    """Directed graph of the direct causes; always a subgraph of the directed
    part of the functional graph."""
    edges = []
    for i in m.endogenous_names:
        for j in m.endogenous_names:
            if i == j:
                continue
            verdict, _ = is_direct_cause(m, i, j)
            if verdict:
                edges.append((i, j))
    g = MixedGraph(m.endogenous_names, edges, ())
    fg = functional_graph(m)
    if not all(e in fg.directed for e in g.directed):  # pragma: no cover - theory guard
        raise AssertionError("direct causal graph escapes the functional graph")
    return g


def direct_causal_graph_wrt(m, context) -> MixedGraph:
    """Direct causal graph after marginalizing everything outside ``context``."""
    context = set([context]) if isinstance(context, str) else set(context)
    latent = [v for v in m.endogenous_names if v not in context]
    try:
        marg = marginalize(m, latent)
    except NotUniquelySolvable as exc:
        raise SolvabilityError(
            latent, exc.witness,
            f"model is not uniquely solvable w.r.t. the non-context variables {sorted(latent)}",
        ) from None
    if not structurally_uniquely_solvable(marg):
        raise ScmError("the marginal model has self-loops; no direct causal graph w.r.t. this context")
    return direct_causal_graph(marg)


def is_indirect_cause(m, i: str, j: str) -> bool:
    """Is i a cause of j in the two-variable context {i, j}?"""
    g = direct_causal_graph_wrt(m, {i, j})
    return (i, j) in g.directed
