"""Equivalence relations between SCMs and causal-graph extraction.

Observational equivalence of finite SCMs compares the full sets of achievable
marginal distributions.  With Γ(e) the fiber at noise value e projected to
the margin, that set is the Minkowski sum of p(e) times the simplex on Γ(e):
the core of the belief function with mass m(A) = P(Γ = A) (Dempster 1967;
Shafer 1976).  The core determines the belief function, its lower envelope,
and the belief function its mass, so two sets are equal iff the two laws of
Γ are equal.  Each law takes one exact pass over the noise support, per
model and per intervention, at a cost of the support size times the product
of the cycle-cutset domains of each component; no selector is enumerated and
no LP is solved.  A difference is witnessed by the smallest differing focal
set S, its beliefs (the least achievable probabilities of S) on both sides,
and the selector law that reaches the smaller one, which lies outside the
other side's set.  Interventional equivalence quantifies over all perfect
interventions inside the margin; counterfactual equivalence is
interventional equivalence of the twin models.  Each report names the rule
that decided it in ``rule``: ``"no_solution"``, ``"single_law"``,
``"gamma_law"`` or ``"linear_per_variable"``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    DiscreteDistribution,
    _fibers,
    _gaussians_agree,
    _support_assignments,
    _support_denominator,
    solve_map,
    structurally_uniquely_solvable,
)
from .config import np, tolerance
from .errors import (
    DomainMismatchError,
    NotUniquelySolvable,
    ScmError,
    SolvabilityError,
    UnsupportedModelError,
)
from .graph import MixedGraph
from .scm import FiniteScm, LinearScm, canonicalize, functional_graph, functional_parents
from .transform import marginalize, twin

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

# the deciding rules, from the least to the most general
_RULES = ("no_solution", "single_law", "gamma_law", "linear_per_variable")


@dataclass
class EquivalenceReport:
    """A verdict with the rule that decided it (one of ``_RULES``: no
    solution on some side, one law per side, the law of the projected fiber
    set, or linear laws compared per variable) and a witness of a
    difference."""

    level: str
    margin: tuple
    verdict: bool
    rule: str
    witness: object = None

    def __bool__(self):
        return self.verdict

    def to_json_obj(self):
        return {
            "level": self.level,
            "margin": list(self.margin),
            "verdict": self.verdict,
            "rule": self.rule,
            "witness": self.witness,
        }


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


def _gamma_law(m: FiniteScm, margin, iv):
    """The law of Γ, the fiber of ``m`` under do(iv) projected to ``margin``:
    ``(den, law)`` with P(Γ = A) = law[A] / den for each set A of margin
    cells, ``den`` the sum of the integer weights of the support points,
    which is their one denominator; ``None`` at the first empty fiber.  One
    pass over the noise support of ``m``: the targets of ``iv`` are held as
    context and read as their values, so every intervention shares the
    component memo of ``m`` and none builds a model."""
    free = tuple(v for v in m.endogenous_names if v not in iv)
    pick = [(iv[v], None) if v in iv else (None, free.index(v)) for v in margin]
    law = {}
    for assign, n in _support_assignments(m, m.exogenous_names):
        assign.update(iv)
        sols = _fibers(m, free, assign)
        if not sols:
            return None
        cells = frozenset(tuple(x if i is None else sol[i] for x, i in pick) for sol in sols)
        law[cells] = law.get(cells, 0) + n
    return sum(law.values()), law


def _selector_law(margin, domains, den, law, order, event) -> DiscreteDistribution:
    """The selector law that takes, from each set of ``law``, its first cell
    in domain order outside ``event``, or its first cell when it has none:
    its probability of ``event`` is the belief in ``event``, the least of any
    achievable law."""
    weights = {}
    for cells, n in law.items():
        ranked = sorted(cells, key=order)
        cell = next((c for c in ranked if c not in event), ranked[0])
        weights[cell] = weights.get(cell, 0) + n
    return DiscreteDistribution(margin, domains, {c: Fraction(n, den) for c, n in weights.items()})


def _finite_equivalent(m1, m2, margin, iv) -> EquivalenceReport:
    """Observational equivalence of the finite models under do(iv) on the
    margin, by comparing the laws of their projected fiber sets Γ."""
    g1, g2 = _gamma_law(m1, margin, iv), _gamma_law(m2, margin, iv)
    if g1 is None or g2 is None:
        witness = None if g1 is g2 else {
            side: "no solution" if g is None else "solvable" for side, g in (("left", g1), ("right", g2))
        }
        return EquivalenceReport("observational", margin, g1 is g2, "no_solution", witness)
    (den1, law1), (den2, law2) = g1, g2
    rule = "single_law" if all(len(a) == 1 for a in (*law1, *law2)) else "gamma_law"
    differ = [a for a in law1.keys() | law2.keys() if law1.get(a, 0) * den2 != law2.get(a, 0) * den1]
    if not differ:
        return EquivalenceReport("observational", margin, True, rule)
    domains = {v: m1.endogenous[v] for v in margin}
    rank = [{x: r for r, x in enumerate(domains[v].values)} for v in margin]

    def order(cell):
        return tuple(r[x] for r, x in zip(rank, cell))

    if rule == "single_law":
        witness = {side: _selector_law(margin, domains, den, law, order, frozenset()).to_json_obj()
                   for side, den, law in (("left", den1, law1), ("right", den2, law2))}
        return EquivalenceReport("observational", margin, False, rule, witness)
    # the first differing set of the fewest cells: every smaller set has the
    # same mass on both sides, so its belief differs and no smaller event's does
    event = min(differ, key=lambda a: (len(a), sorted(map(order, a))))
    bel1, bel2 = (Fraction(sum(n for a, n in law.items() if a <= event), den)
                  for den, law in ((den1, law1), (den2, law2)))
    side, den, law = ("left", den1, law1) if bel1 < bel2 else ("right", den2, law2)
    outside = _selector_law(margin, domains, den, law, order, event)
    return EquivalenceReport(
        "observational", margin, False, rule,
        witness={"event": [",".join(map(str, c)) for c in sorted(event, key=order)],
                 "bel": {"left": str(bel1), "right": str(bel2)},
                 "outside": {"side": side, "law": outside.to_json_obj()}},
    )


def observationally_equivalent(m1, m2, margin) -> EquivalenceReport:
    """Do the two models have the same set of achievable distributions on the
    margin?  Models without any solution have the empty set and are vacuously
    equivalent to each other."""
    margin = _margin_names(m1, m2, margin)
    if isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm):
        return _finite_equivalent(m1, m2, margin, {})
    if isinstance(m1, LinearScm) and isinstance(m2, LinearScm):
        # the observational law is the law under do(), compared as every
        # interventional one is
        f1, f2 = _linear_do_law(m1, (), margin), _linear_do_law(m2, (), margin)
        if f1 is None or f2 is None:
            raise UnsupportedModelError(
                "linear observational equivalence needs both models uniquely solvable"
            )
        if _do_laws_agree(f1, f2, tolerance()):
            return EquivalenceReport("observational", margin, True, "linear_per_variable")
        return EquivalenceReport(
            "observational", margin, False, "linear_per_variable",
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
        rules = {"no_solution"}
        for targets in _intervention_patterns(margin):
            values = [m1.endogenous[t].values for t in targets]
            for combo in itertools.product(*values):
                iv = dict(zip(targets, combo))
                rep = _finite_equivalent(m1, m2, margin, iv)
                if not rep:
                    shown = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in iv.items()}
                    return EquivalenceReport(
                        "interventional", margin, False, rep.rule,
                        witness={"intervention": shown, "observational": rep.witness},
                    )
                rules.add(rep.rule)
        return EquivalenceReport("interventional", margin, True, max(rules, key=_RULES.index))
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
                    "interventional", margin, False, "linear_per_variable",
                    witness={"intervention_targets": list(targets),
                             "left": "singular" if f1 is None else "unique",
                             "right": "singular" if f2 is None else "unique"},
                )
            if not _do_laws_agree(f1, f2, tol):
                return EquivalenceReport(
                    "interventional", margin, False, "linear_per_variable",
                    witness={"intervention_targets": list(targets)},
                )
        return EquivalenceReport("interventional", margin, True, "linear_per_variable")
    raise DomainMismatchError("cannot compare models from different families")


def counterfactually_equivalent(m1, m2, margin, max_evaluations: int = 10**5) -> EquivalenceReport:
    """Interventional equivalence of the twin models on the margin plus its
    primed copy."""
    margin = _margin_names(m1, m2, margin)
    if not (isinstance(m1, FiniteScm) and isinstance(m2, FiniteScm)):
        raise UnsupportedModelError("counterfactual equivalence is implemented for finite SCMs")
    doubled = tuple(margin) + tuple(v + "'" for v in margin)
    rep = interventionally_equivalent(twin(m1), twin(m2), doubled, max_evaluations)
    return EquivalenceReport("counterfactual", margin, rep.verdict, rep.rule, rep.witness)


# --- direct causes -----------------------------------------------------------

def _pointwise_distribution(m: FiniteScm, j: str, ctx: dict) -> DiscreteDistribution:
    """Law of X_j when every other endogenous variable is clamped to ctx.

    The table of j may formally take x_j as an argument even without a
    self-loop, so the unique fixed point is solved for rather than read off.
    """
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
