"""A change of units moves no verdict of the linear path.

Every linear corpus model and a seeded battery of ``zoo.random_linear_scm``
models are rescaled: endogenous variable k by d[k] and noise coordinate j by
s[j], each factor one of 1e-6, 1 and 1e6, so that B' = D B D^-1,
Gamma' = D Gamma S^-1, c' = D c and the noise has mean S mu and covariance
S Sigma S.  Solvability on every subset, the graphs, the Markov reports,
the direct causes and the equivalence verdicts must not change, and every
law must be the old one after unscaling.  The probes below are models whose
variables are in different units.
"""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

import model_zoo as zoo
from scmkit import (
    GaussianBlock,
    GaussianDistribution,
    LinearScm,
    ScmError,
    augmented_graph,
    canonicalize,
    counterfactual_distribution,
    counterfactually_equivalent,
    direct_causal_graph,
    functional_graph,
    functional_parents,
    interventional_distribution,
    interventionally_equivalent,
    is_direct_cause,
    observational_distribution,
    observationally_equivalent,
    parse,
    solvable_wrt,
    uniquely_solvable_wrt,
    verify_markov,
)

CORPUS = Path(__file__).parent / "corpus"
FACTORS = (1e-6, 1.0, 1e6)


def rescale(m: LinearScm, d, s) -> LinearScm:
    d, s = np.asarray(d), np.asarray(s)
    blocks, pos = [], 0
    for b in m.blocks:
        sb = s[pos:pos + len(b.coords)]
        blocks.append(GaussianBlock(b.name, b.coords, sb * b.mean, np.outer(sb, sb) * b.cov))
        pos += len(b.coords)
    return LinearScm(m.endogenous, blocks, d[:, None] * m.B / d[None, :],
                     d[:, None] * m.Gamma / s[None, :], d * m.c)


def unscale(law: GaussianDistribution, d) -> GaussianDistribution:
    return GaussianDistribution(law.vars, law.mean / d, law.cov / np.outer(d, d), law.scale / d**2)


def outcome(fn, *args, **kwargs):
    """The result, or the class of the model error raised."""
    try:
        return fn(*args, **kwargs)
    except ScmError as exc:
        return type(exc)


def perturbed(m: LinearScm) -> LinearScm:
    c = m.c.copy()
    c[0] += 1.0
    return m.replace(c=c)


def verdicts(m: LinearScm, partner: LinearScm) -> dict:
    """Every unit-free answer about ``m``, and about its pairs with
    ``canonicalize(m)`` and with ``partner``."""
    names = m.endogenous_names
    subsets = [s for r in range(len(names) + 1) for s in itertools.combinations(names, r)]
    out = {
        "solvable": [bool(solvable_wrt(m, s)) for s in subsets],
        "unique": [bool(uniquely_solvable_wrt(m, s)) for s in subsets],
        "augmented": augmented_graph(m),
        "functional": functional_graph(m),
        "causal": outcome(direct_causal_graph, m),
    }
    for kind in ("sigma", "d"):
        rep = outcome(verify_markov, m, kind=kind)
        out[kind] = rep if isinstance(rep, type) else (
            rep.premise, [(e.a, e.b, e.s, e.separated, e.independent) for e in rep.entries])
    for other in (canonicalize(m), partner):
        for check in (observationally_equivalent, interventionally_equivalent):
            rep = outcome(check, m, other, names)
            out[check.__name__, other is partner] = rep if isinstance(rep, type) else rep.verdict
    return out


def laws(m: LinearScm):
    """The observational law, the law under do(first = 1), and the
    counterfactual law of last' given last = 1 under do(first' = 1)."""
    first, last = m.endogenous_names[0], m.endogenous_names[-1]
    return [
        outcome(observational_distribution, m),
        outcome(interventional_distribution, m, {first: 1.0}),
        outcome(counterfactual_distribution, m, {}, {last: 1.0}, {first: 1.0}, [last + "'"]),
    ]


def rescaled_laws(m: LinearScm, d, s):
    first, last = m.endogenous_names[0], m.endogenous_names[-1]
    k = m.endo_index(last)
    mr = rescale(m, d, s)
    return [
        outcome(observational_distribution, mr),
        outcome(interventional_distribution, mr, {first: d[0]}),
        outcome(counterfactual_distribution, mr, {}, {last: d[k]}, {first: d[0]}, [last + "'"]),
    ], [d, d, d[[k]]]


def linear_models():
    corpus = [parse(p.read_text()) for p in sorted(CORPUS.glob("*.scm"))]
    corpus = [m for m in corpus if isinstance(m, LinearScm)]
    rng = random.Random(20261018)
    battery = [zoo.random_linear_scm(rng, k % 2 == 0)[0] for k in range(100)]
    return corpus + battery


MODELS = linear_models()


def test_the_suite_covers_the_corpus_and_both_kinds_of_cycle():
    assert len(MODELS) >= 108
    singular = [m for m in MODELS if not uniquely_solvable_wrt(m, m.endogenous_names)]
    assert 40 <= len(singular) <= len(MODELS) - 40


@pytest.mark.parametrize("k", range(len(MODELS)))
def test_a_change_of_units_changes_no_verdict(k):
    m = MODELS[k]
    rng = random.Random(k)
    d = np.array([rng.choice(FACTORS) for _ in m.endogenous_names])
    s = np.array([rng.choice(FACTORS) for _ in m.coord_names])
    partner = perturbed(m)
    assert verdicts(rescale(m, d, s), rescale(partner, d, s)) == verdicts(m, partner)
    got, units = rescaled_laws(m, d, s)
    for law, want, unit in zip(got, laws(m), units):
        if isinstance(want, type):
            assert law is want
        else:
            assert unscale(law, unit).close_to(want)


def cf_pairs():
    """``(m1, m2, margin, verdict)``: linear counterfactual checks that hold
    and that fail, the first two beside a singular or unsolvable X2 that the
    margin does not read."""
    lingauss, tilde = (parse((CORPUS / f"{n}.scm").read_text()) for n in ("ex_lingauss", "ex_lingauss_tilde"))
    return [
        (zoo.x1_beside("X2"), zoo.x1_beside("E2"), ["X1"], True),
        (zoo.x1_beside("X2 + 1"), zoo.x1_beside("E2"), ["X1"], False),
        (lingauss, lingauss.replace(), ["X1", "X2"], True),
        (lingauss, canonicalize(lingauss), ["X1", "X2"], True),
        (lingauss, tilde, ["X1", "X2"], False),
    ]


@pytest.mark.parametrize("shift", list(itertools.product(range(3), repeat=2)))
def test_a_change_of_units_changes_no_counterfactual_verdict(shift):
    # variable k in units FACTORS[(i + k) % 3], noise coordinate j in FACTORS[(i' + j) % 3]
    def scaled(m):
        d = [FACTORS[(shift[0] + k) % 3] for k in range(len(m.endogenous_names))]
        return rescale(m, d, [FACTORS[(shift[1] + j) % 3] for j in range(len(m.coord_names))])

    for m1, m2, margin, verdict in cf_pairs():
        assert counterfactually_equivalent(m1, m2, margin).verdict is verdict
        assert counterfactually_equivalent(scaled(m1), scaled(m2), margin).verdict is verdict, (m1, m2)


# --- models whose variables are in different units ---------------------------

def _model(B, Gamma, variances):
    blocks = tuple(GaussianBlock(f"E{k + 1}", (f"E{k + 1}",), [0.0], [[v]]) for k, v in enumerate(variances))
    return LinearScm(("X1", "X2"), blocks, B, Gamma)


def test_acyclic_chain_with_a_large_gain_is_uniquely_solvable():
    # X1 = 1e5 X2 + E1, X2 = E2: every acyclic model is uniquely solvable
    m = _model([[0.0, 1e5], [0.0, 0.0]], np.eye(2), [1.0, 1.0])
    assert uniquely_solvable_wrt(m, ["X1", "X2"])
    assert observational_distribution(m).cov[0, 0] == pytest.approx(1e10 + 1.0)
    for kind in ("sigma", "d"):
        assert verify_markov(m, kind=kind).ok


def test_two_cycle_with_loop_gain_one_half_is_uniquely_solvable():
    # gains 1e6 and 5e-7 make a loop gain of 0.5: I - B_OO is invertible
    m = _model([[0.0, 1e6], [5e-7, 0.0]], np.eye(2), [1.0, 1.0])
    assert uniquely_solvable_wrt(m, ["X1", "X2"])
    assert solvable_wrt(m, ["X1", "X2"])
    for kind in ("sigma", "d"):
        assert verify_markov(m, kind=kind).ok


def test_a_small_gain_on_a_large_noise_is_an_edge():
    # X1 = 1e-10 X2 + E1 with Var E2 = 1e24: cov(X1, X2) = 1e14
    m = _model([[0.0, 1e-10], [0.0, 0.0]], np.eye(2), [1.0, 1e24])
    assert "X2" in functional_parents(m, "X1")
    assert is_direct_cause(m, "X2", "X1")[0]
    assert not verify_markov(m, kind="d").violations
    no_edge = m.replace(B=np.zeros((2, 2)))
    assert not observationally_equivalent(m, no_edge, ["X1", "X2"]).verdict
    assert observationally_equivalent(m, canonicalize(m), ["X1", "X2"]).verdict


def test_a_cancelled_variance_is_zero():
    # Y = 0.1 Ea - 0.3 Eb on the rank-one noise Ea = 3 Eb is 0, though its
    # computed variance is a rounding residue
    block = GaussianBlock("E", ("Ea", "Eb"), [0.0, 0.0], [[9.0, 3.0], [3.0, 1.0]])
    cancelled = LinearScm(("Y",), (block,), [[0.0]], [[0.1, -0.3]])
    zero = LinearScm(("Y",), (block,), [[0.0]], [[0.0, 0.0]])
    assert observational_distribution(cancelled).close_to(observational_distribution(zero))
    # with no variance at all, the mean 0.1 * 3 - 0.3 * 1 cancels the same way
    point = GaussianBlock("E", ("Ea", "Eb"), [3.0, 1.0], np.zeros((2, 2)))
    cancelled, zero = cancelled.replace(blocks=(point,)), zero.replace(blocks=(point,))
    assert observational_distribution(cancelled).close_to(observational_distribution(zero))
    assert observationally_equivalent(cancelled, zero, ["Y"]).verdict


def test_a_double_unit_eigenvalue_is_singular():
    # B = P J P^-1 with J the 2x2 Jordan block of eigenvalue 1: rounding moves
    # the eigenvalues to 1 +- 1e-8, the square root of the rounding error
    P = np.array([[1.0, 2.0], [0.5, 3.0]])
    B = P @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ np.linalg.inv(P)
    m = _model(B, np.eye(2), [1.0, 1.0])
    assert not uniquely_solvable_wrt(m, ["X1", "X2"])
    assert not solvable_wrt(m, ["X1", "X2"])
    assert solvable_wrt(m.replace(Gamma=np.zeros((2, 2))), ["X1", "X2"])


def test_a_singular_cycle_fed_by_another_is_solvable_through_it():
    # A = 2B + E1, B = A/2 - E1/2 is singular but consistent, and its free
    # direction feeds the singular cycle C = 2D + E2, D = C/2 + A, which is
    # solvable through it: one left null vector, not two.  Without the edge
    # A -> D, C and D alone are inconsistent.
    blocks = tuple(GaussianBlock(e, (e,), [0.0], [[1.0]]) for e in ("E1", "E2"))
    B = np.array([[0.0, 2.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0], [1.0, 0.0, 0.5, 0.0]])
    m = LinearScm(("A", "B", "C", "D"), blocks, B, [[1.0, 0.0], [-0.5, 0.0], [0.0, 1.0], [0.0, 0.0]])
    cut = m.replace(B=B * (B != 1.0))
    for d in ([1.0] * 4, [1e6, 1e-6, 1.0, 1e6]):
        for model, solvable in ((m, True), (cut, False)):
            scaled = rescale(model, d, [1e-6, 1e6])
            assert bool(solvable_wrt(scaled, model.endogenous_names)) is solvable
            assert not uniquely_solvable_wrt(scaled, model.endogenous_names)


def test_a_double_unit_eigenvalue_inside_a_component_has_one_null_vector():
    # X2, X3, X5 form one component whose eigenvalue 1 is double but has one
    # eigenvector; fed by the singular cycle X0 <-> X1, the system is solvable
    B = np.array([[0, 2, 0, 0, 0, 0], [0.5, 0, 0, 0, 0, 0], [1, 0, 0.5, 0, 0, 0.5],
                  [0.5, 0, 0.5, 2, 0, 0], [0, 2, 2, 0, 0, 0], [2, 0, 0, 2, 0, 2]], dtype=float)
    Gamma = np.diag([1.0, 0.0, 1.0, -2.0, -2.0, 0.5])
    Gamma[1, 0] = -0.5
    blocks = tuple(GaussianBlock(f"E{k}", (f"E{k}",), [0.0], [[1.0]]) for k in range(6))
    m = LinearScm(tuple(f"X{k}" for k in range(6)), blocks, B, Gamma)
    assert solvable_wrt(m, m.endogenous_names)
    assert not uniquely_solvable_wrt(m, m.endogenous_names)


def _ring(n, loop, gain):
    # X_k = loop X_k + gain X_(k+1) + E_k around a cycle: eigenvalues loop + gain w^j
    blocks = tuple(GaussianBlock(f"E{k}", (f"E{k}",), [0.0], [[1.0]]) for k in range(n))
    B = loop * np.eye(n) + gain * np.roll(np.eye(n), 1, axis=1)
    return LinearScm(tuple(f"X{k}" for k in range(n)), blocks, B, np.eye(n))


NEAR_UNIT_LOOPS = [
    # two self-loops linked by small gains: eigenvalues 1 - 1.9e-5 and 1 - 2.1e-5
    _model([[1 - 2e-5, 1e-6], [1e-6, 1 - 2e-5]], np.eye(2), [1.0, 1.0]),
    _ring(3, 0.9995, 1e-4),  # eigenvalues 4e-4 to 6e-4 from 1
    _ring(5, 0.99, 1e-3),  # eigenvalues 9e-3 to 1.1e-2 from 1
]


@pytest.mark.parametrize("k", range(len(NEAR_UNIT_LOOPS)))
def test_distinct_eigenvalues_near_one_are_not_a_singular_loop(k):
    # each eigenvalue is farther from 1 than the tolerance and they are simple,
    # so I - B is invertible in every unit and the verdict is that of the
    # canonical form, although the n of them lie within the n-th root of the
    # tolerance, which only bounds the rounding of an n-fold eigenvalue
    m = NEAR_UNIT_LOOPS[k]
    names = m.endogenous_names
    for d in ([1.0] * len(names), [(1e6, 1e-6, 1.0)[v % 3] for v in range(len(names))]):
        scaled = rescale(m, d, [1e-6] * len(names))
        for model in (scaled, canonicalize(scaled)):
            assert uniquely_solvable_wrt(model, names)
            assert solvable_wrt(model, names)
            assert observational_distribution(model)
        assert all(v not in functional_parents(scaled, v) for v in names)
        assert is_direct_cause(scaled, names[1], names[0])[0]


@pytest.mark.parametrize("fold", [2, 3, 4])
def test_a_defective_unit_eigenvalue_is_singular_in_any_units(fold):
    # B = P J P^-1, J a Jordan block of eigenvalue 1 beside other eigenvalues:
    # rounding splits the k-fold eigenvalue by about its k-th root of eps, and
    # the block is still singular with every variable in other units
    rng = np.random.default_rng(fold)
    for _ in range(20):
        n = fold + 1
        J = np.diag(rng.uniform(-2.0, 0.5, n))
        J[:fold, :fold] = np.eye(fold) + rng.uniform(0.3, 3.0) * np.eye(fold, k=1)
        P = rng.normal(size=(n, n))
        d = rng.choice(FACTORS, size=n)
        B = d[:, None] * (P @ J @ np.linalg.inv(P)) / d[None, :]
        blocks = tuple(GaussianBlock(f"E{k}", (f"E{k}",), [0.0], [[1.0]]) for k in range(n))
        m = LinearScm(tuple(f"X{k}" for k in range(n)), blocks, B, np.eye(n))
        assert not uniquely_solvable_wrt(m, m.endogenous_names)
