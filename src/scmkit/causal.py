"""Equivalence relations between SCMs and causal-graph extraction.

Observational equivalence of finite SCMs compares the full sets of achievable
marginal distributions: the convex hulls of the selector-polytope vertices,
decided by exact rational linear feasibility.  Interventional equivalence
quantifies over all perfect interventions inside the margin; counterfactual
equivalence is interventional equivalence of the twin models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import (
    DiscreteDistribution,
    observational_distribution,
    observational_polytope,
    solve_map,
    structurally_uniquely_solvable,
)
from .config import tolerance
from .errors import (
    DomainMismatchError,
    NotSolvable,
    NotUniquelySolvable,
    ScmError,
    SolvabilityError,
    UnsupportedModelError,
)
from .graph import MixedGraph
from .scm import FiniteScm, LinearScm, canonicalize, functional_graph
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

def _lp_feasible(rows, rhs):
    """Exact feasibility of ``rows @ x = rhs, x >= 0`` via a phase-1 simplex
    with Bland's rule (all arithmetic in Fractions)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    tableau = []
    for r in range(nrows):
        row = [Fraction(x) for x in rows[r]]
        b = Fraction(rhs[r])
        if b < 0:
            row = [-x for x in row]
            b = -b
        art = [Fraction(0)] * nrows
        art[r] = Fraction(1)
        tableau.append(row + art + [b])
    total = ncols + nrows
    basis = [ncols + r for r in range(nrows)]
    # reduced costs for minimizing the artificial sum
    obj = [Fraction(0)] * (total + 1)
    for j in range(ncols, total):
        obj[j] = Fraction(1)
    for row in tableau:
        for j in range(total + 1):
            obj[j] -= row[j]
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for r in range(nrows):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][total] / coef
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:  # pragma: no cover - phase-1 objective is bounded
            raise AssertionError("unbounded phase-1 simplex")
        r = best[1]
        pivot = tableau[r][enter]
        tableau[r] = [x / pivot for x in tableau[r]]
        for rr in range(nrows):
            if rr != r and tableau[rr][enter]:
                factor = tableau[rr][enter]
                tableau[rr] = [a - factor * b for a, b in zip(tableau[rr], tableau[r])]
        if obj[enter]:
            factor = obj[enter]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
        basis[r] = enter
    return -obj[total] == 0


def _hull_contains(vertices, target, cells) -> bool:
    """Is ``target`` in the convex hull of ``vertices`` (distributions over the
    shared cell list)?  Exact."""
    if not vertices:
        return False
    vecs = [[v.probs.get(cell, Fraction(0)) for v in vertices] for cell in cells]
    rhs = [target.probs.get(cell, Fraction(0)) for cell in cells]
    vecs.append([Fraction(1)] * len(vertices))
    rhs.append(Fraction(1))
    return _lp_feasible(vecs, rhs)


def _hulls_equal(vs1, vs2) -> bool:
    cells = sorted(
        {c for v in vs1 for c in v.probs} | {c for v in vs2 for c in v.probs},
        key=lambda cell: tuple(map(str, cell)),
    )
    return all(_hull_contains(vs2, v, cells) for v in vs1) and all(
        _hull_contains(vs1, v, cells) for v in vs2
    )


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
        if _hulls_equal(vs1, vs2):
            return EquivalenceReport("observational", margin, True)
        return EquivalenceReport(
            "observational", margin, False,
            witness={"left": [v.to_json_obj() for v in vs1],
                     "right": [v.to_json_obj() for v in vs2]},
        )
    if isinstance(m1, LinearScm) and isinstance(m2, LinearScm):
        try:
            d1 = observational_distribution(m1).marginal(margin)
            d2 = observational_distribution(m2).marginal(margin)
        except SolvabilityError:
            raise UnsupportedModelError(
                "linear observational equivalence needs both models uniquely solvable"
            ) from None
        if d1.close_to(d2):
            return EquivalenceReport("observational", margin, True)
        return EquivalenceReport(
            "observational", margin, False,
            witness={"left": d1.to_json_obj(), "right": d2.to_json_obj()},
        )
    raise DomainMismatchError("cannot compare models from different families")


# --- interventional equivalence ----------------------------------------------

def _intervention_patterns(margin):
    for size in range(len(margin) + 1):
        for subset in itertools.combinations(margin, size):
            yield subset


def _linear_do_law(m: LinearScm, targets, margin):
    """The law of the margin outside ``targets`` under do(targets = t), read
    off the solve map of the other variables: ``(A, mean, cov)`` with mean
    ``A t + mean`` and covariance ``cov``, columns of ``A`` in the order of
    ``targets``; ``None`` when that subsystem is singular.  The targets
    themselves equal the intervention values in every model."""
    try:
        sm = solve_map(m, [v for v in m.endogenous_names if v not in targets])
    except NotUniquelySolvable:
        return None
    rows = [sm.targets.index(v) for v in margin if v not in targets]
    cols = [sm.endo_args.index(t) for t in targets]
    G = sm.G[rows, :]
    return sm.A[np.ix_(rows, cols)], G @ m.noise_mean() + sm.d[rows], G @ m.noise_cov() @ G.T


def interventionally_equivalent(m1, m2, margin, max_evaluations: int = 10**5) -> EquivalenceReport:
    """Observational equivalence of the intervened pairs for every perfect
    intervention inside the margin (all target subsets, all values)."""
    margin = _margin_names(m1, m2, margin)
    if isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm):
        evaluations = 0
        for targets in _intervention_patterns(margin):
            values = [m1.endogenous[t].values for t in targets]
            for combo in itertools.product(*values):
                iv = dict(zip(targets, combo))
                evaluations += 2
                if evaluations > max_evaluations:
                    raise ScmError(f"interventional equivalence cap exceeded ({max_evaluations} evaluations)")
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
            if not all(np.allclose(a, b, atol=tol) for a, b in zip(f1, f2)):
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
    from .analysis import _support_assignments

    mech = m.mechanisms[j]
    exo = tuple(a for a in mech.args if a in m.exogenous)
    probs = {}
    for e_assign, p in _support_assignments(m, exo):
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
        probs[(value,)] = probs.get((value,), Fraction(0)) + p
    return DiscreteDistribution((j,), {j: m.endogenous[j]}, probs)


def is_direct_cause(m, i: str, j: str):
    """Is there an intervention contrast on i, all other variables held fixed,
    that changes the law of j?  Requires a model without self-loops.

    Finite models return (verdict, witness) with the lexicographically first
    contrast found; linear models decide from the canonicalized coefficient.
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
    others = [v for v in m.endogenous_names if v not in (i, j)]
    # the mechanism of j with all other variables fixed only involves j's
    # declared arguments, so the clamped law is a direct pushforward
    for ctx_combo in itertools.product(*(m.endogenous[v].values for v in others)):
        ctx = dict(zip(others, ctx_combo))
        dom = m.endogenous[i].values
        for a_idx in range(len(dom)):
            for b_idx in range(a_idx + 1, len(dom)):
                left = _pointwise_distribution(m, j, {**ctx, i: dom[a_idx]})
                right = _pointwise_distribution(m, j, {**ctx, i: dom[b_idx]})
                if left != right:
                    witness = ({**ctx, i: dom[a_idx]}, {**ctx, i: dom[b_idx]})
                    return True, witness
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
