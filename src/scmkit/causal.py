"""Equivalence relations between SCMs and causal-graph extraction.

Equivalence is one chain.  Each family has one check of observational
equivalence under a perfect intervention (``_finite_equivalent``,
``_linear_equivalent``), and ``interventionally_equivalent`` runs it over
every intervention inside the margin; observational equivalence is the do()
case, counterfactual equivalence the same loop on the twin models.

Finite models compare the sets of achievable laws on the margin.  With Γ(e)
the fiber at noise value e projected to the margin, that set is the
Minkowski sum of p(e) times the simplex on Γ(e): the core of the belief
function with mass m(A) = P(Γ = A) (Dempster 1967; Shafer 1976).  The core
determines the belief function, its lower envelope, and that its mass, so
two sets are equal iff the two laws of Γ are equal: one exact pass of
``analysis._gamma_law`` per model and intervention, with no selector
enumerated and no LP solved.  A difference is witnessed by the smallest
differing focal set S, its beliefs (the least achievable probabilities of
S) on both sides, and the selector law that reaches the smaller one, which
lies outside the other side's set.  Linear models read the law of the
margin under do(T = t), for every t at once, off the solve map of its
ancestors outside T.  Each report names the rule that decided it in
``rule``: ``"no_solution"``, ``"single_law"``, ``"gamma_law"`` or
``"linear_per_variable"``.  A direct cause i of j is read off the same law:
the Γ-laws of j under do(V minus j) differ between two values of i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    DiscreteDistribution,
    _gamma_law,
    _solution_law,
    _subset_names,
    solvable_wrt,
    solve_map,
    structurally_uniquely_solvable,
)
from .config import negligible, np
from .errors import (
    DomainMismatchError,
    NotUniquelySolvable,
    ScmError,
    SolvabilityError,
    UnsupportedModelError,
)
from .graph import MixedGraph, intervene_graph
from .scm import LinearScm, functional_graph, functional_parents, is_finite
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

def _margin_and_check(m1, m2, margin) -> tuple:
    """The margin, sorted and checked against both models, and the
    per-intervention check of their family; models of two families raise
    before the margin is read."""
    finite = is_finite(m1)
    if finite != is_finite(m2):
        raise DomainMismatchError("cannot compare models from different families")
    margin = tuple(sorted(set([margin]) if isinstance(margin, str) else set(margin)))
    for m in (m1, m2):
        missing = set(margin) - set(m.endogenous_names)
        if missing:
            raise DomainMismatchError(f"margin variables {sorted(missing)} missing from a model")
    if not finite:
        return margin, _linear_equivalent
    for v in margin:
        if m1.endogenous[v] != m2.endogenous[v]:
            raise DomainMismatchError(f"margin variable {v} has different domains")
    return margin, _finite_equivalent


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
    return DiscreteDistribution._from_counts(margin, domains, den, weights)


def _unsolved(margin, g1, g2) -> EquivalenceReport:
    """The report where a side has no solution (``None``): the empty set of
    laws, equal only to another empty set."""
    sides = (("left", g1), ("right", g2))
    witness = None if g1 is g2 else {s: "no solution" if g is None else "solvable" for s, g in sides}
    return EquivalenceReport("observational", margin, g1 is g2, "no_solution", witness)


def _finite_equivalent(m1, m2, margin, iv) -> EquivalenceReport:
    """Observational equivalence of the finite models under do(iv) on the
    margin, by comparing the laws of their projected fiber sets Γ."""
    g1, g2 = _gamma_law(m1, margin, iv), _gamma_law(m2, margin, iv)
    if g1 is None or g2 is None:
        return _unsolved(margin, g1, g2)
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


def _linear_do_law(m: LinearScm, targets, margin):
    """The law of the margin outside ``targets`` under do(targets = t), read
    off the solve map of its ancestors outside the targets: ``(A, law)``,
    ``law`` the one at t = 0 plus mean ``A t``; ``None`` when the variables
    outside the targets have no solution, ``"singular"`` when those
    ancestors are not uniquely solvable."""
    if not solvable_wrt(m, [v for v in m.endogenous_names if v not in targets]):
        return None
    rest = [v for v in margin if v not in targets]
    try:
        sm = solve_map(m, intervene_graph(functional_graph(m), targets).ancestors_of(rest) - set(targets))
    except NotUniquelySolvable:
        return "singular"
    rows = [sm.targets.index(v) for v in rest]
    cols = [sm.endo_args.index(t) for t in targets]
    return sm.A[np.ix_(rows, cols)], _solution_law(m, sm, rest)


def _linear_equivalent(m1, m2, margin, targets) -> EquivalenceReport:
    """Observational equivalence of the linear models under do(targets = t)
    on the margin, for every t at once: the gains ``A`` agree by rule (ii)
    of ``config`` and the laws at t = 0 by ``GaussianDistribution.close_to``.
    Two sides without a solution are equivalent, as finite ones are (rule
    ``no_solution``).  A side without a unique law differs from one with it;
    two singular sides raise ``UnsupportedModelError``, as neither law is known."""
    targets = tuple(targets)
    f1, f2 = _linear_do_law(m1, targets, margin), _linear_do_law(m2, targets, margin)
    if f1 is None or f2 is None:
        return _unsolved(margin, f1, f2)
    if not (isinstance(f1, tuple) or isinstance(f2, tuple)):
        raise UnsupportedModelError(f"neither model has a unique law of the margin under do({', '.join(targets)})")
    if "singular" in (f1, f2):
        witness = {s: "singular" if f == "singular" else "unique" for s, f in (("left", f1), ("right", f2))}
        return EquivalenceReport("observational", margin, False, "linear_per_variable", witness)
    (a1, law1), (a2, law2) = f1, f2
    gains, laws = bool(np.all(negligible(a1 - a2, np.abs(a1) + np.abs(a2)))), law1.close_to(law2)
    if gains and laws:
        return EquivalenceReport("observational", margin, True, "linear_per_variable")
    witness = {"left": law1.to_json_obj(), "right": law2.to_json_obj()}
    if laws:
        witness["gains"] = {"left": a1.tolist(), "right": a2.tolist()}
    return EquivalenceReport("observational", margin, False, "linear_per_variable", witness)


def observationally_equivalent(m1, m2, margin) -> EquivalenceReport:
    """Do the two models have the same set of achievable distributions on the
    margin?  The do() case of the interventional check; finite models without
    any solution have the empty set and are vacuously equivalent."""
    margin, check = _margin_and_check(m1, m2, margin)
    return check(m1, m2, margin, {})


# --- interventional and counterfactual equivalence ----------------------------

def _interventions(m, margin):
    """Every perfect intervention inside the margin as the family's check
    takes it: per target subset, each of its values (finite) or the targets
    alone, which stand for all their values (linear)."""
    for size in range(len(margin) + 1):
        for targets in itertools.combinations(margin, size):
            if not is_finite(m):
                yield targets
            else:
                values = itertools.product(*(m.endogenous[t].values for t in targets))
                yield from (dict(zip(targets, c)) for c in values)


def interventionally_equivalent(m1, m2, margin, max_evaluations: int = 10**5) -> EquivalenceReport:
    """Observational equivalence of the intervened pairs for every perfect
    intervention inside the margin (all target subsets, all values), the
    first difference witnessed by its ``"intervention"`` (the values set;
    for linear models the targets) and its ``"observational"`` witness.
    Raises ``ScmError`` before the first intervention when the evaluations
    this needs, 2·∏(|D_v| + 1) over a finite margin and 2·2^k over a linear
    one of k variables, exceed ``max_evaluations``."""
    margin, check = _margin_and_check(m1, m2, margin)
    linear = check is _linear_equivalent
    needed = 2 * math.prod((1 if linear else len(m1.endogenous[v].values)) + 1 for v in margin)
    if needed > max_evaluations:
        raise ScmError(
            f"interventional equivalence needs {needed} evaluations, "
            f"over the cap max_evaluations={max_evaluations}"
        )
    rules = {"no_solution"}
    for iv in _interventions(m1, margin):
        rep = check(m1, m2, margin, iv)
        if not rep:
            shown = list(iv) if linear else {k: (str(v) if isinstance(v, Fraction) else v) for k, v in iv.items()}
            return EquivalenceReport(
                "interventional", margin, False, rep.rule,
                witness={"intervention": shown, "observational": rep.witness},
            )
        rules.add(rep.rule)
    return EquivalenceReport("interventional", margin, True, max(rules, key=_RULES.index))


def counterfactually_equivalent(m1, m2, margin, max_evaluations: int = 10**5) -> EquivalenceReport:
    """Interventional equivalence of the twin models on the margin plus its
    primed copy."""
    margin, _ = _margin_and_check(m1, m2, margin)
    rep = interventionally_equivalent(twin(m1), twin(m2), margin + tuple(v + "'" for v in margin), max_evaluations)
    return EquivalenceReport("counterfactual", margin, rep.verdict, rep.rule, rep.witness)


# --- direct causes -----------------------------------------------------------

def is_direct_cause(m, i: str, j: str):
    """Is there an intervention contrast on i, all other variables held fixed,
    that changes the law of j?  Requires a model without self-loops.

    Finite models return (verdict, witness) with the lexicographically first
    contrast found, each law of j being its Γ-law under do(V minus j), one
    stage over the noises j reads.  The law of j under do(V minus j) reads
    only j's arguments: i outside j's functional parents is no direct cause.
    In a linear model every parent is one, since its coefficient is not 0.
    In a finite one the contrasts range over j's other declared arguments,
    every remaining variable held at its first value, which is where the
    lexicographically first contrast has it.
    """
    if i == j:
        raise ScmError("direct causes are defined for distinct variables")
    if not structurally_uniquely_solvable(m):
        raise ScmError("direct causes need a structurally uniquely solvable model (no self-loops)")
    if i not in m.endogenous or j not in m.endogenous:
        raise ScmError(f"unknown variable in ({i}, {j})")
    if i not in functional_parents(m, j):
        return False, None
    if not is_finite(m):
        return True, None
    args = set(m.mechanisms[j].args)
    others = [v for v in m.endogenous_names if v not in (i, j)]
    ranged = [v for v in others if v in args]
    ctx = {v: m.endogenous[v].first() for v in others}
    dom = m.endogenous[i].values
    for ctx_combo in itertools.product(*(m.endogenous[v].values for v in ranged)):
        ctx.update(zip(ranged, ctx_combo))
        laws = [_gamma_law(m, (j,), {**ctx, i: x}) for x in dom]
        for a_idx, b_idx in itertools.combinations(range(len(dom)), 2):
            if laws[a_idx] != laws[b_idx]:
                return True, ({**ctx, i: dom[a_idx]}, {**ctx, i: dom[b_idx]})
    return False, None


def direct_causal_graph(m) -> MixedGraph:
    """Directed graph of the direct causes; always a subgraph of the directed
    part of the functional graph."""
    is_finite(m)  # a non-model raises before the first read
    edges = []
    for i in m.endogenous_names:
        for j in m.endogenous_names:
            if i == j:
                continue
            verdict, _ = is_direct_cause(m, i, j)
            if verdict:
                edges.append((i, j))
    return MixedGraph(m.endogenous_names, edges, ())


def direct_causal_graph_wrt(m, context) -> MixedGraph:
    """Direct causal graph after marginalizing everything outside ``context``."""
    is_finite(m)  # a non-model raises before the first read
    context = _subset_names(m, context)
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
    if i == j:
        raise ScmError("direct causes are defined for distinct variables")
    g = direct_causal_graph_wrt(m, {i, j})
    return (i, j) in g.directed
