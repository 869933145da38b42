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
    conditional_independent,
    observational_distribution,
    parse,
    solvable_wrt,
    uniquely_solvable_wrt,
)
from test_units import FACTORS, rescale, unscale

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


def battery(seed):
    """The 60 seeded models of ``seed``: ``(m, d, s, exact)``, with ``d`` and
    ``s`` the factors that put ``m`` in other units (``rescale``) and
    ``exact`` its coefficients ``(B, Gamma, c, mean, cov)``."""
    rng = random.Random(seed)
    for _ in range(60):
        m, *exact = dyadic_model(rng)
        # and in other units: each variable and noise coordinate by 1e-6, 1 or 1e6
        d = [rng.choice(FACTORS) for _ in m.endogenous_names]
        s = [rng.choice(FACTORS) for _ in m.coord_names]
        yield m, d, s, exact


@pytest.mark.parametrize("seed", range(4))
def test_solvability_verdicts_match_exact_elimination(seed):
    kinds = {}
    for m, d, s, (B, gamma, c, mean, cov) in battery(seed):
        names = m.endogenous_names
        other = rescale(m, d, s)
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


def solve(mat, rhs) -> list:
    """``X`` with ``mat X = rhs``, ``mat`` square and invertible, by
    Gauss-Jordan elimination in ``Fraction``s."""
    n = len(mat)
    rows = [list(a) + list(r) for a, r in zip(mat, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def exact_law(B, gamma, c, mean, cov) -> tuple:
    """``(mu, sigma, mu_size, sigma_size)``: the mean and covariance of the
    unique solution ``(I - B)^-1 (Gamma e + c)``, and their uncancelled
    magnitudes, the same products on absolute values (``cov`` is nonnegative)."""
    n = len(B)
    inv = solve([[F(i == j) - B[i][j] for j in range(n)] for i in range(n)],
                [[F(i == j) for j in range(n)] for i in range(n)])
    absolute = lambda rows: [[abs(x) for x in row] for row in rows]
    g, k = matmul(inv, gamma), matmul(absolute(inv), absolute(gamma))
    mu = matmul(inv, [[sum(x * y for x, y in zip(row, mean)) + ci] for row, ci in zip(gamma, c)])
    mu_size = matmul(absolute(inv), [[sum(abs(x * y) for x, y in zip(row, mean)) + abs(ci)]
                                     for row, ci in zip(gamma, c)])
    transpose = lambda rows: [list(col) for col in zip(*rows)]
    return ([r[0] for r in mu], matmul(matmul(g, cov), transpose(g)),
            [r[0] for r in mu_size], matmul(matmul(k, cov), transpose(k)))


def exact_ci(cov, a, b, s) -> bool:
    """a independent of b given S, for the Gaussian with covariance ``cov``:
    the Schur complement cov_ab - cov_aS cov_SS^-1 cov_Sb is exactly 0, with
    S cut to a basis of its span (the rest of S is an affine function of it)."""
    basis = []
    for k in s:
        if eliminate([[cov[i][j] for j in basis + [k]] for i in basis + [k]])[0] > len(basis):
            basis.append(k)
    x = solve([[cov[i][j] for j in basis] for i in basis], [[cov[i][b]] for i in basis])
    return cov[a][b] == sum(cov[a][k] * row[0] for k, row in zip(basis, x))


# (seed, draw): the units, "model" or "other", in which the Gaussian law or a
# CI verdict of that uniquely solvable model is known to be wrong, by one of
# two faults of the library.  Seed 3, draw 25, in other units: X0 is exactly
# constant (X1 = X1 - 2 X0), but the solve of its 3-cycle leaves X0 a noise
# row of about 1e-17 of its terms, which rule (ii) does not snap because the
# row's uncancelled magnitude is made of the same rounding residue; X0 then
# reads as dependent on X1 and X2.  Seed 3, draw 43, in both units: given
# S = {X2, X4}, whose correlation is -0.999995, X0 and X1 have exact partial
# correlation 1, yet their partial variances lie within the tolerance of
# their magnitude through |corr_SS^-1|, so each reads as a function of S.
KNOWN_WRONG = {3: {(25, "other"), (43, "model"), (43, "other")}}


@pytest.mark.parametrize("seed", range(4))
def test_gaussian_law_and_ci_match_exact_partial_covariances(seed):
    """Every uniquely solvable model of the battery, in both units: the mean
    and covariance against the exact law within the tolerance of their
    uncancelled magnitude, and every CI statement a, b given S, |S| <= 2,
    against an exact zero test of the partial covariance."""
    wrong, statements = set(), 0
    as_float = lambda rows: np.array(rows, dtype=float)
    for draw, (m, d, s, (B, gamma, c, mean, cov)) in enumerate(battery(seed)):
        n = len(B)
        if oracle(B, gamma, c, mean, cov, list(range(n))) != (True, True):
            continue
        mu, sigma, mu_size, sigma_size = exact_law(B, gamma, c, mean, cov)
        for units, model, scale in (("model", m, np.ones(n)), ("other", rescale(m, d, s), np.array(d))):
            law = observational_distribution(model)
            back = unscale(law, scale)  # in the units of the exact law
            ok = (np.all(abs(back.mean - as_float(mu)) <= 1e-9 * as_float(mu_size))
                  and np.all(abs(back.cov - as_float(sigma)) <= 1e-9 * as_float(sigma_size)))
            names = model.endogenous_names
            for a, b in itertools.combinations(range(n), 2):
                rest = [k for k in range(n) if k not in (a, b)]
                for given in itertools.chain.from_iterable(itertools.combinations(rest, r) for r in range(3)):
                    got = conditional_independent(law, [names[a]], [names[b]], [names[k] for k in given])
                    ok = ok and got == exact_ci(sigma, a, b, given)
                    statements += 1
            if not ok:
                wrong.add((draw, units))
    assert statements > 1000
    assert wrong == KNOWN_WRONG.get(seed, set()), wrong


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
