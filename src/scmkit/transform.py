"""Model-to-model operations: perfect intervention, twin construction,
marginalization, and the extended SCM (exogenous variables made endogenous)."""

from __future__ import annotations

import itertools
from typing import Mapping

from .analysis import solve_map
from .config import np, snap
from .errors import ScmError, UnknownNameError
from .scm import FiniteScm, LinearScm, TabularMechanism, is_finite

__all__ = ["intervene", "twin", "marginalize", "extend"]

PRIME = "'"


def intervene(m, assignment: Mapping[str, object]):
    """Perfect intervention do(targets, values): replace each target's
    mechanism by the constant value; everything else is untouched."""
    finite = is_finite(m)
    assignment = dict(assignment)
    unknown = set(assignment) - set(m.endogenous_names)
    if unknown:
        raise UnknownNameError(f"unknown intervention target(s): {sorted(unknown)}")
    if finite:
        mechanisms = dict(m.mechanisms)
        expressions = dict(m.expressions)
        for name, value in assignment.items():
            if value not in m.endogenous[name]:
                raise ScmError(f"intervention value {value!r} outside the domain of {name}")
            mechanisms[name] = TabularMechanism.constant(value)
            expressions.pop(name, None)
        return m.replace(mechanisms=mechanisms, expressions=expressions)
    B = m.B.copy()
    Gamma = m.Gamma.copy()
    c = m.c.copy()
    for name, value in assignment.items():
        i = m.endo_index(name)
        B[i, :] = 0.0
        Gamma[i, :] = 0.0
        c[i] = float(value)
    return m.replace(B=B, Gamma=Gamma, c=c)


def _primed(name: str) -> str:
    return name + PRIME


def twin(m):
    """Two copies of the endogenous system driven by one shared noise
    realization; the copy of variable X is named X'."""
    if is_finite(m):
        collisions = [i for i in m.endogenous_names if _primed(i) in m.endogenous or _primed(i) in m.exogenous]
        if collisions:
            raise ScmError(f"twin naming collision for {collisions}")
        endogenous = dict(m.endogenous)
        for i in m.endogenous_names:
            endogenous[_primed(i)] = m.endogenous[i]
        mechanisms = dict(m.mechanisms)
        for i in m.endogenous_names:
            mech = m.mechanisms[i]
            args = tuple(_primed(a) if a in m.endogenous else a for a in mech.args)
            mechanisms[_primed(i)] = TabularMechanism(args, mech.table)
        return FiniteScm(endogenous, m.exogenous, m.measure, mechanisms)
    names = set(m.endogenous) | set(m.coord_names) | set(m.block_names)
    collisions = [i for i in m.endogenous if _primed(i) in names]
    if collisions:
        raise ScmError(f"twin naming collision for {collisions}")
    endo = tuple(m.endogenous) + tuple(_primed(i) for i in m.endogenous)
    n = len(m.endogenous)
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = m.B
    B[n:, n:] = m.B
    Gamma = np.vstack([m.Gamma, m.Gamma])
    c = np.concatenate([m.c, m.c])
    return LinearScm(endo, m.blocks, B, Gamma, c)


def marginalize(m, latent):
    """Remove the subsystem ``latent`` by substituting its solve map; the
    result is interventionally (indeed counterfactually) equivalent to the
    original on the remaining variables.

    Requires unique solvability with respect to ``latent``; raises
    NotUniquelySolvable with a witness otherwise.
    """
    finite = is_finite(m)
    latent = set([latent]) if isinstance(latent, str) else set(latent)
    if not latent:
        return m.replace()
    sm = solve_map(m, latent)  # raises NotUniquelySolvable on failure
    if finite:
        keep = [i for i in m.endogenous_names if i not in latent]
        mechanisms = {}
        for o in keep:
            mech = m.mechanisms[o]
            uses_latent = any(a in latent for a in mech.args)
            if not uses_latent:
                mechanisms[o] = mech
                continue
            arg_names = [a for a in mech.args if a not in latent]
            arg_names += [a for a in sm.endo_args + sm.exo_args if a not in arg_names]
            ordered = [a for a in m.endogenous_names if a in arg_names and a not in latent]
            ordered += [a for a in m.exogenous_names if a in arg_names]
            table = {}
            for combo in itertools.product(*(m.domain_of(a).values for a in ordered)):
                assign = dict(zip(ordered, combo))
                assign.update(sm(assign))
                table[combo] = mech(assign)
            mechanisms[o] = TabularMechanism(tuple(ordered), table)
        endogenous = {i: m.endogenous[i] for i in keep}
        expressions = {i: x for i, x in m.expressions.items() if i in keep and mechanisms[i] is m.mechanisms[i]}
        return FiniteScm(endogenous, m.exogenous, m.measure, mechanisms, expressions)
    oi = [m.endo_index(i) for i in sm.endo_args]
    li = [m.endo_index(i) for i in sm.targets]
    bol = m.B[np.ix_(oi, li)]

    def substitute(own, solved):  # own + bol @ solved, snapped once by rule (ii) of ``config``
        return snap(own + bol @ solved, np.abs(own) + np.abs(bol) @ np.abs(solved))

    return LinearScm(sm.endo_args, m.blocks, substitute(m.B[np.ix_(oi, oi)], sm.A),
                     substitute(m.Gamma[oi, :], sm.G), substitute(m.c[oi], sm.d))


def extend(m):
    """Make every exogenous variable visible as an endogenous copy feeding the
    original mechanisms; the copy of noise E is named E'.  Marginalizing the
    copies away recovers the original model."""
    if is_finite(m):
        collisions = [j for j in m.exogenous_names if _primed(j) in m.endogenous or _primed(j) in m.exogenous]
        if collisions:
            raise ScmError(f"extension naming collision for {collisions}")
        copies = {_primed(j): j for j in m.exogenous_names}
        endogenous = dict(m.endogenous)
        for cp, j in copies.items():
            endogenous[cp] = m.exogenous[j]
        mechanisms = {}
        for i in m.endogenous_names:
            mech = m.mechanisms[i]
            args = tuple(_primed(a) if a in m.exogenous else a for a in mech.args)
            mechanisms[i] = TabularMechanism(args, mech.table)
        for cp, j in copies.items():
            mechanisms[cp] = TabularMechanism((j,), {(v,): v for v in m.exogenous[j].values})
        return FiniteScm(endogenous, m.exogenous, m.measure, mechanisms)
    names = set(m.endogenous) | set(m.coord_names) | set(m.block_names)
    collisions = [c for c in m.coord_names if _primed(c) in names]
    if collisions:
        raise ScmError(f"extension naming collision for {collisions}")
    coords = m.coord_names
    endo = tuple(m.endogenous) + tuple(_primed(c) for c in coords)
    n, k = len(m.endogenous), len(coords)
    B = np.zeros((n + k, n + k))
    B[:n, :n] = m.B
    B[:n, n:] = m.Gamma
    Gamma = np.vstack([np.zeros((n, k)), np.eye(k)])
    c = np.concatenate([m.c, np.zeros(k)])
    return LinearScm(endo, m.blocks, B, Gamma, c)
