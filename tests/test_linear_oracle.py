"""An exact oracle for the linear solvability verdicts.

Each model is drawn over dyadic rationals (±2, ±1, ±1/2, ±1/4 and 0), so the
float model is exactly the rational one, with exact unit loops forced in:
a self-loop of gain 1, or a 2- or 3-cycle whose gains multiply to 1.  The
oracle decides every subset O by Gaussian elimination in ``Fraction``s:
unique solvability iff det(I - B_OO) != 0, solvability iff
rank [I - B_OO | B_OR | Gamma_O Sigma | Gamma_O mu + c_O] == rank(I - B_OO).
A subset is kept only when every strongly connected component of B_OO is
either exactly singular or has |det(I - B_cc)| / (1 + rho)^(k - 1) > 1e-6,
a lower bound on every |1 - lambda| of the component (rho its spectral
radius, k its size), so the tolerance band of ``config`` is never sampled.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from scmkit import (
    GaussianBlock,
    LinearScm,
    NotUniquelySolvable,
    observational_distribution,
    parse,
    solvable_wrt,
    uniquely_solvable_wrt,
)
from test_units import FACTORS, rescale

F = Fraction
DYADIC = tuple(F(sign * 2**k) for sign in (1, -1) for k in (-2, -1, 0, 1))


def eliminate(rows) -> tuple:
    """``(rank, det)`` of a matrix of ``Fraction``s by Gaussian elimination;
    ``det`` is the product of the pivots (with the sign of the row swaps),
    meaningful for a square matrix only."""
    rows = [list(r) for r in rows]
    rank, det = 0, F(1)
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            det = F(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot], det = rows[pivot], rows[rank], -det
        det *= rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, det


def components(nonzero, idx) -> list:
    """The strongly connected components of the graph i -> j iff
    ``nonzero[i][j]`` on ``idx``, by mutual reachability."""
    reach = {i: {j for j in idx if nonzero[i][j]} for i in idx}
    for k in idx:
        for i in idx:
            if k in reach[i]:
                reach[i] |= reach[k]
    comps = []
    for i in idx:
        if not any(i in c for c in comps):
            comps.append([j for j in idx if j == i or (j in reach[i] and i in reach[j])])
    return comps


def dyadic_model(rng) -> tuple:
    """``(model, B, Gamma, c, mean, cov)``: the float model and its exact
    coefficients, the noise as one correlated pair and one single coordinate."""
    n = rng.randint(2, 5)
    B = [[rng.choice(DYADIC) if rng.random() < 0.5 else F(0) for _ in range(n)] for _ in range(n)]
    gamma = [[rng.choice((F(0), F(0), F(1), F(-1, 2), F(2))) for _ in range(3)] for _ in range(n)]
    c = [rng.choice((F(0), F(1), F(-2))) for _ in range(n)]
    quiet = []
    if rng.random() < 0.5:
        i = rng.randrange(n)
        B[i][i] = F(1)
        quiet.append(i)
    if rng.random() < 0.6:
        loop = rng.sample(range(n), rng.randint(2, min(3, n)))
        for u, v in itertools.product(loop, loop):
            B[u][v] = F(0)
        gains = [rng.choice(DYADIC) for _ in loop[1:]]
        gains.append(1 / math.prod(gains))
        for k, u in enumerate(loop):
            B[loop[(k + 1) % len(loop)]][u] = gains[k]
        quiet += loop
    # with probability 1/2 the unit loops take no noise and no intercept,
    # so that singular subsets are solvable as well as not
    if rng.random() < 0.5:
        for i in quiet:
            gamma[i], c[i] = [F(0)] * 3, F(0)
    scale, var = rng.choice((F(1, 2), F(1), F(4))), rng.choice((F(1, 4), F(1), F(4)))
    mean = [F(1, 2), F(-1), F(2)]
    cov = [[scale, scale / 2, F(0)], [scale / 2, scale, F(0)], [F(0), F(0), var]]
    blocks = (GaussianBlock("W", ("W1", "W2"), [float(x) for x in mean[:2]],
                            [[float(x) for x in row[:2]] for row in cov[:2]]),
              GaussianBlock("E", ("E",), [float(mean[2])], [[float(var)]]))
    as_float = lambda rows: [[float(x) for x in row] for row in rows]
    m = LinearScm(tuple(f"X{k}" for k in range(n)), blocks, as_float(B), as_float(gamma), [float(x) for x in c])
    return m, B, gamma, c, mean, cov


def oracle(B, gamma, c, mean, cov, subset) -> tuple:
    """``(unique, solvable)`` for the subsystem on the indices ``subset``, or
    ``None`` where a component sits in the tolerance band."""
    n, rest = len(B), [j for j in range(len(B)) if j not in subset]
    for comp in components([[B[i][j] != 0 for j in range(n)] for i in range(n)], subset):
        _, det = eliminate([[F(i == j) - B[i][j] for j in comp] for i in comp])
        rho = max(abs(np.linalg.eigvals(np.array([[float(B[i][j]) for j in comp] for i in comp]))))
        if det and abs(det) / (1 + rho) ** (len(comp) - 1) <= 1e-6:
            return None
    mat = [[F(i == j) - B[i][j] for j in subset] for i in subset]
    noise = [[sum(gamma[i][k] * cov[k][col] for k in range(3)) for col in range(3)] for i in subset]
    shift = [sum(gamma[i][k] * mean[k] for k in range(3)) + c[i] for i in subset]
    augmented = [row + [B[i][j] for j in rest] + noise_row + [s]
                 for i, row, noise_row, s in zip(subset, mat, noise, shift)]
    rank, det = eliminate(mat)
    return det != 0, eliminate(augmented)[0] == rank


@pytest.mark.parametrize("seed", range(4))
def test_solvability_verdicts_match_exact_elimination(seed):
    rng = random.Random(seed)
    kinds = {}
    for _ in range(60):
        m, B, gamma, c, mean, cov = dyadic_model(rng)
        names = m.endogenous_names
        # and in other units: each variable and noise coordinate by 1e-6, 1 or 1e6
        other = rescale(m, [rng.choice(FACTORS) for _ in names], [rng.choice(FACTORS) for _ in m.coord_names])
        for r in range(1, len(names) + 1):
            for subset in itertools.combinations(range(len(names)), r):
                exact = oracle(B, gamma, c, mean, cov, list(subset))
                if exact is None:
                    continue
                for model in (m, other):
                    sub = [names[i] for i in subset]
                    got = (bool(uniquely_solvable_wrt(model, sub)), bool(solvable_wrt(model, sub)))
                    assert got == exact, (model.B, model.Gamma, model.c, subset)
                kinds[exact] = kinds.get(exact, 0) + 1
    # uniquely solvable, solvable but singular, and not solvable all occur
    assert set(kinds) == {(True, True), (False, True), (False, False)}, kinds


# Both are solvable but not uniquely.  In the first, rows X1 and X3 both say
# X4 = 0; the left null vector (2, 0, 1, 0) of I - B is computed with about
# 1e-17 for its 0, in an entry whose every term is rounding noise.  In the
# second, the unit self-loop of X2 makes y_X2 = 1, and solving the component
# {X0, X1, X3} for the rest of y leaves about 3e-16 where y_X1 = 0 exactly,
# against X1's noise.
SOLVABLE_NOT_UNIQUELY = (
    """model linear
var X1 X2 X3 X4
noise E0 : Normal(0, 1)
noise E1 : Normal(0, 1)
eq X1 = X1 - 0.5*X4
eq X2 = X1 + 2*X3 - 2*X4 + E0
eq X3 = X3 + X4
eq X4 = 0.5*X2 + E1
""",
    """model linear
var X0 X1 X2 X3
noise E : Normal(2, 4)
noise W1 W2 : Normal(mean=[0.5, -1], cov=[[4, 2], [2, 4]])
eq X0 = -0.25*X1 + 2*X3
eq X1 = -0.5*X0 + 0.25*X1 + 0.5*X3 - 0.5*E - 0.5*W2 - 2
eq X2 = 0.25*X1 + 1*X2
eq X3 = 0.5*X0 + 0.25*X1
""",
)


@pytest.mark.parametrize("text", SOLVABLE_NOT_UNIQUELY)
@pytest.mark.parametrize("units", [(1.0, 1.0), (1e-6, 1e6)])
def test_a_left_null_vector_with_a_noise_entry_is_still_consistent(text, units):
    m = parse(text)
    # every other variable, and every other noise coordinate, in the other unit
    d = [units[k % 2] for k in range(len(m.endogenous_names))]
    s = [units[k % 2] for k in range(len(m.coord_names))]
    m = rescale(m, d, s)
    assert solvable_wrt(m, m.endogenous_names)
    assert not uniquely_solvable_wrt(m, m.endogenous_names)
    # not NotSolvable: the law is not unique, but there is a solution
    with pytest.raises(NotUniquelySolvable):
        observational_distribution(m)
