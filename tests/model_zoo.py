"""Model zoo for the test suite.

Finite encodings of real-line examples keep the fixed-point relation of every
mechanism intact: a branch of the form "x + 1" (no fixed point) becomes the
domain's fixed-point-free successor map, a branch "x" stays the identity, and
quadratic relations like x^2 = t are encoded directly as relations.
"""

import itertools
import random
from fractions import Fraction

from scmkit import (
    DiscreteDistribution,
    FiniteDomain,
    FiniteScm,
    GaussianBlock,
    LinearScm,
    MixedGraph,
    NotSolvable,
    ScmError,
    TabularMechanism,
)
from scmkit.analysis import _fibers, _inputs, _support_assignments

F = Fraction


def fd(*values):
    return FiniteDomain(values)


def uniform(*values):
    return {v: F(1, len(values)) for v in values}


def point(value, *values):
    return {v: (F(1) if v == value else F(0)) for v in values}


def tab(model_domains, args, fn):
    return TabularMechanism.from_function(args, model_domains, fn)


def postab(model_domains, args, fn):
    """Like ``tab``, with ``fn`` taking the arguments by position."""
    return TabularMechanism(
        args, {combo: fn(*combo) for combo in itertools.product(*(model_domains[a].values for a in args))}
    )


def cyc(domain: FiniteDomain):
    """Fixed-point-free successor on a domain (cyclic shift by one)."""
    vals = domain.values

    def step(x):
        return vals[(vals.index(x) + 1) % len(vals)]

    return step


# --- mechanism equivalence (the quadratic noise example) --------------------

def equivalence_pair():
    dom = fd(-1, 0, 1)
    domains = {"X": dom, "E": dom}
    measure = {"E": {-1: F(1, 2), 0: F(0), 1: F(1, 2)}}
    quad = tab(domains, ("E",), lambda E: E * E + E - 1)
    plain = tab(domains, ("E",), lambda E: E)
    m1 = FiniteScm({"X": dom}, {"E": dom}, measure, {"X": quad})
    m2 = FiniteScm({"X": dom}, {"E": dom}, measure, {"X": plain})
    return m1, m2


def equivalence_pair_full_support():
    m1, m2 = equivalence_pair()
    measure = {"E": uniform(-1, 0, 1)}
    return m1.replace(measure=measure), m2.replace(measure=measure)


# --- the five-variable graph-extraction example -----------------------------

def augmented_example() -> FiniteScm:
    endo = {"X1": fd(0, 1, 2), "X2": fd(0, 1), "X3": fd(0, 1, 2, 3),
            "X4": fd(-1, 0, 1), "X5": fd(0, 1)}
    exo = {"E1": fd(0, 1), "E2": fd(0, 1), "E3": fd(0, 1)}
    measure = {j: uniform(0, 1) for j in exo}
    domains = {**endo, **exo}
    step4 = cyc(endo["X4"])
    mechanisms = {
        "X1": tab(domains, ("E1", "E2"), lambda E1, E2: E1 + E2),
        "X2": tab(domains, ("E2",), lambda E2: E2),
        "X3": tab(domains, ("X1", "X2", "X5"), lambda X1, X2, X5: X1 * X2 + X5),
        # fixed points of X4 are exactly the solutions of x^2 = E3 * X2
        "X4": tab(domains, ("X2", "X4", "E3"),
                  lambda X2, X4, E3: X4 if X4 * X4 == E3 * X2 else step4(X4)),
        "X5": tab(domains, ("X3", "X4"), lambda X3, X4: 1 if (X3 >= 2 and X4 == 1) else 0),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


# --- linear models ------------------------------------------------------------

def std_blocks(*names):
    return tuple(GaussianBlock(n, (n,), [0.0], [[1.0]]) for n in names)


def not_canonical_linear() -> LinearScm:
    return LinearScm(("X",), std_blocks("E1", "E2"), [[-1.0]], [[1.0, 1.0]])


def interventions_linear() -> LinearScm:
    B = [[0, 1, 0], [1, 0, 1], [-1, 0, 0]]
    Gamma = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return LinearScm(("X1", "X2", "X3"), std_blocks("E1", "E2", "E3"), B, Gamma)


def marginalization_linear() -> LinearScm:
    names = ("X1", "X2", "X3", "X4", "X5")
    B = [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1],
        [0, 0, 0, 0, 1],
        [1, 0, 0, 0, 1],
        [0, 0, 0.5, 0, 0],
    ]
    Gamma = [
        [0, 1, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    return LinearScm(names, std_blocks("E1", "E2", "E3", "E4"), B, Gamma)


def lin_gauss_anm(alpha=0.5, beta=1 / 3, mu=(0.0, 0.0), sigma_sq=(1.0, 1.0)) -> LinearScm:
    blocks = (
        GaussianBlock("E1", ("E1",), [mu[0]], [[sigma_sq[0]]]),
        GaussianBlock("E2", ("E2",), [mu[1]], [[sigma_sq[1]]]),
    )
    B = [[0.0, alpha], [beta, 0.0]]
    Gamma = [[1.0, 0.0], [0.0, 1.0]]
    return LinearScm(("X1", "X2"), blocks, B, Gamma)


def lin_gauss_anm_tilde(alpha=0.5, beta=1 / 3, mu=(0.0, 0.0), sigma_sq=(1.0, 1.0)) -> LinearScm:
    """The observationally equivalent rewriting X1 -> X2 with the regression
    coefficient gamma and the matching noise moments."""
    s1, s2 = sigma_sq
    gamma = (beta * s1 + alpha * s2) / (s1 + alpha**2 * s2)
    c = 1.0 / (1.0 - alpha * beta)
    mu1t = c * (mu[0] + alpha * mu[1])
    s1t = c**2 * (s1 + alpha**2 * s2)
    mu2t = c * ((beta - gamma) * mu[0] + (1 - alpha * gamma) * mu[1])
    s2t = c**2 * ((beta - gamma) ** 2 * s1 + (1 - alpha * gamma) ** 2 * s2)
    blocks = (
        GaussianBlock("E1", ("E1",), [mu1t], [[s1t]]),
        GaussianBlock("E2", ("E2",), [mu2t], [[s2t]]),
    )
    B = [[0.0, 0.0], [gamma, 0.0]]
    Gamma = [[1.0, 0.0], [0.0, 1.0]]
    return LinearScm(("X1", "X2"), blocks, B, Gamma)


def treatment_twin(rho=0.6) -> LinearScm:
    """Hand-built twin of the treated/untreated outcome pair: the factual
    outcome reads one coordinate of a correlated Gaussian pair, the
    counterfactual outcome the other."""
    block = GaussianBlock("W", ("E2", "E3"), [0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    B = [[0.0, 0.0], [0.0, 0.0]]
    Gamma = [[1.0, 0.0], [0.0, 1.0]]
    return LinearScm(("X2", "X2'"), (block,), B, Gamma)


# --- equivalence-ladder finite trio -------------------------------------------

def _pm_domains():
    return fd(-1, 1)


def interventional_equiv_m() -> FiniteScm:
    dom = _pm_domains()
    endo = {"X1": dom, "X2": dom}
    exo = {"E1": dom, "E2": dom}
    measure = {"E1": uniform(-1, 1), "E2": uniform(-1, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("E1",), lambda E1: E1),
        "X2": tab(domains, ("X1", "E2"), lambda X1, E2: X1 * E2),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def interventional_equiv_tilde() -> FiniteScm:
    m = interventional_equiv_m()
    domains = {**m.endogenous, **m.exogenous}
    mechs = dict(m.mechanisms)
    mechs["X2"] = tab(domains, ("E2",), lambda E2: E2)
    return m.replace(mechanisms=mechs)


def interventional_equiv_hat() -> FiniteScm:
    m = interventional_equiv_m()
    domains = {**m.endogenous, **m.exogenous}
    mechs = {
        "X1": tab(domains, ("E2",), lambda E2: E2),
        "X2": tab(domains, ("E1",), lambda E1: -E1),
    }
    return m.replace(mechanisms=mechs)


def gated_selfloop(k=3, noise=(F(1, 3), F(2, 3)), q=F(1, 2)) -> FiniteScm:
    """X = X when the gate G is 1 (probability ``q``), else E, with X on k
    values and E on the first ``len(noise)`` of them.  With G = 1 every value
    solves the equation, so the achievable laws form a polytope that moves
    with ``q``."""
    values = tuple(range(k))
    endo = {"X": fd(*values)}
    exo = {"G": fd(0, 1), "E": fd(*values[:len(noise)])}
    measure = {"G": {0: 1 - q, 1: q}, "E": dict(zip(values, noise))}
    mechanisms = {"X": tab({**endo, **exo}, ("X", "G", "E"), lambda X, G, E: X if G == 1 else E)}
    return FiniteScm(endo, exo, measure, mechanisms)


def two_gated_selfloops(k=3, q=F(1, 2)) -> FiniteScm:
    """Two independent gated self-loops on k values each (see
    ``gated_selfloop``), X1 gated by G1 with probability 1/2 and X2 by G2 with
    probability ``q``.  Each of the 16 support points has (k if G1 else 1) *
    (k if G2 else 1) solutions, so there are k**16 selectors: 3**16 > 10**6
    at k = 3."""
    values = tuple(range(k))
    endo = {"X1": fd(*values), "X2": fd(*values)}
    exo = {"G1": fd(0, 1), "E1": fd(0, 1), "G2": fd(0, 1), "E2": fd(0, 1)}
    measure = {"G1": uniform(0, 1), "E1": {0: F(1, 3), 1: F(2, 3)},
               "G2": {0: 1 - q, 1: q}, "E2": {0: F(1, 3), 1: F(2, 3)}}
    domains = {**endo, **exo}
    mechanisms = {
        x: postab(domains, (x, g, e), lambda X, G, E: X if G == 1 else E)
        for x, g, e in (("X1", "G1", "E1"), ("X2", "G2", "E2"))
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def direct_cause_example(p_plus=F(1, 2)) -> FiniteScm:
    dom = _pm_domains()
    endo = {"X1": dom, "X2": dom}
    exo = {"E1": dom, "E2": dom}
    measure = {"E1": uniform(-1, 1), "E2": {1: p_plus, -1: 1 - p_plus}}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("E1",), lambda E1: E1),
        "X2": tab(domains, ("X1", "E2"), lambda X1, E2: X1 * E2),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


# --- solvability menagerie -----------------------------------------------------

def no_noise(endo, mechanisms):
    return FiniteScm(endo, {}, {}, mechanisms)


def unsolvable_selfloop() -> FiniteScm:
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom}
    domains = dict(endo)
    mechanisms = {
        "X1": tab(domains, ("X1", "X2"), lambda X1, X2: 1 if X2 == 0 else 1 - X1),
        "X2": tab(domains, (), lambda: 0),
    }
    return no_noise(endo, mechanisms)


def nonunique_selfloop_pair():
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom}
    domains = dict(endo)
    m = no_noise(endo, {
        "X1": tab(domains, (), lambda: 0),
        "X2": tab(domains, ("X1",), lambda X1: X1),
    })
    m_tilde = no_noise(endo, {
        "X1": tab(domains, (), lambda: 0),
        "X2": tab(domains, ("X2",), lambda X2: X2),
    })
    return m, m_tilde


def with_unread_noise(m: FiniteScm) -> FiniteScm:
    """``m`` with one more noise, ``U``, on three values, that no mechanism
    reads: every law and every verdict of ``m`` stays the same."""
    measure = {j: dict(t) for j, t in m.measure.items()}
    measure["U"] = {0: F(1, 6), 1: F(1, 3), 2: F(1, 2)}
    return FiniteScm(m.endogenous, {**m.exogenous, "U": fd(0, 1, 2)}, measure, m.mechanisms)


def identity_with_unread_noises() -> FiniteScm:
    """X = X beside two fair noises that nothing reads: the achievable laws
    are the whole simplex on {0, 1}, with 2 vertices, though the 4 support
    points give 5 selector laws."""
    dom = fd(0, 1)
    return FiniteScm({"X": dom}, {"E1": dom, "E2": dom}, {"E1": uniform(0, 1), "E2": uniform(0, 1)},
                     {"X": TabularMechanism(("X",), {(0,): 0, (1,): 1})})


def unique_ancestral() -> FiniteScm:
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom, "X3": dom}
    exo = {"E": dom}
    measure = {"E": uniform(0, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("X1", "X2", "X3"), lambda X1, X2, X3: 1 if X2 == X3 else 1 - X1),
        "X2": tab(domains, ("X2",), lambda X2: X2),
        "X3": tab(domains, ("E",), lambda E: E),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def solvability_props() -> FiniteScm:
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom, "X3": dom}
    domains = dict(endo)
    mechanisms = {
        "X1": tab(domains, ("X1", "X2"), lambda X1, X2: 1 if X2 == 1 else 1 - X1),
        "X2": tab(domains, ("X2",), lambda X2: X2),
        "X3": tab(domains, ("X2", "X3"), lambda X2, X3: 1 if X2 == 0 else 1 - X3),
    }
    return no_noise(endo, mechanisms)


def solvability_props2() -> FiniteScm:
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom, "X3": dom}
    domains = dict(endo)
    mechanisms = {
        "X1": tab(domains, (), lambda: 0),
        "X2": tab(domains, ("X1", "X2", "X3"), lambda X1, X2, X3: 1 if X1 * X3 == 0 else 1 - X2),
        "X3": tab(domains, (), lambda: 0),
    }
    return no_noise(endo, mechanisms)


def intervention_unique() -> FiniteScm:
    """Uniquely solvable two-variable cycle whose intervention do(X2=2)
    leaves the square-root relation x1^2 = x2 - 1 with two solutions."""
    d1 = fd(-1, 0, 1)
    d2 = fd(1, 2)
    endo = {"X1": d1, "X2": d2}
    domains = dict(endo)
    step1 = cyc(d1)
    mechanisms = {
        "X1": tab(domains, ("X1", "X2"), lambda X1, X2: X1 if X1 * X1 == X2 - 1 else step1(X1)),
        "X2": tab(domains, ("X1", "X2"), lambda X1, X2: 1 if X1 == 0 else 3 - X2),
    }
    return no_noise(endo, mechanisms)


def interventional_equivalence_tilde() -> FiniteScm:
    """Companion of intervention_unique: observationally equivalent, agrees
    under interventions on X1, splits on do(X2=2)."""
    d1 = fd(-1, 0, 1)
    d2 = fd(1, 2)
    endo = {"X1": d1, "X2": d2}
    domains = dict(endo)
    step1 = cyc(d1)
    mechanisms = {
        "X1": tab(domains, ("X1", "X2"), lambda X1, X2: 0 if X2 == 1 else step1(X1)),
        "X2": tab(domains, ("X1", "X2"), lambda X1, X2: 1 if X1 == 0 else 3 - X2),
    }
    return no_noise(endo, mechanisms)


def no_latent_projection() -> FiniteScm:
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom, "X3": dom, "X4": dom}
    exo = {"E": dom}
    measure = {"E": uniform(0, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("X1", "X2", "X3"), lambda X1, X2, X3: 1 if X2 == X3 else 1 - X1),
        "X2": tab(domains, ("X2",), lambda X2: X2),
        "X3": tab(domains, ("E",), lambda E: E),
        "X4": tab(domains, ("X2",), lambda X2: X2),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def chain_substitution() -> FiniteScm:
    dom = fd(0, 1)
    endo = {"X1": dom, "X2": dom, "X3": dom}
    domains = dict(endo)
    mechanisms = {
        "X1": tab(domains, (), lambda: 0),
        "X2": tab(domains, ("X1",), lambda X1: X1),
        "X3": tab(domains, ("X2",), lambda X2: X2),
    }
    return no_noise(endo, mechanisms)


def spurious_relations() -> FiniteScm:
    dom = fd(0, 1)
    endo = {f"X{i}": dom for i in range(1, 7)}
    exo = {"E": dom}
    measure = {"E": uniform(0, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("X2",), lambda X2: X2),
        "X2": tab(domains, ("X1", "X3", "X5"), lambda X1, X3, X5: 1 if X3 == X5 else 1 - X1),
        "X3": tab(domains, ("E",), lambda E: E),
        "X4": tab(domains, ("X5",), lambda X5: X5),
        "X5": tab(domains, ("X6",), lambda X6: X6),
        "X6": tab(domains, ("X5",), lambda X5: X5),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def causal_graph_marginalization() -> FiniteScm:
    pm = fd(-1, 1)
    endo = {"X1": pm, "X2": pm, "X3": fd(-2, 0, 2)}
    exo = {"E1": pm, "E2": pm}
    measure = {"E1": uniform(-1, 1), "E2": uniform(-1, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("E1",), lambda E1: E1),
        "X2": tab(domains, ("X1", "E2"), lambda X1, E2: X1 * E2),
        "X3": tab(domains, ("X2", "E2"), lambda X2, E2: X2 + E2),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def latent_confounder() -> FiniteScm:
    endo = {"X1": fd(0, 1), "X2": fd(0, 1, 2)}
    exo = {"E1": fd(0, 1)}
    measure = {"E1": uniform(0, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("E1",), lambda E1: E1),
        "X2": tab(domains, ("X1", "E1"), lambda X1, E1: X1 + E1),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def latent_projection_scm() -> FiniteScm:
    endo = {"X1": fd(0, 1), "X2": fd(-1, 0, 1), "X3": fd(0, 1)}
    exo = {"E1": fd(0, 1)}
    measure = {"E1": uniform(0, 1)}
    domains = {**endo, **exo}
    mechanisms = {
        "X1": tab(domains, ("E1",), lambda E1: E1),
        "X2": tab(domains, ("X1", "X3"), lambda X1, X3: X1 - X3),
        "X3": tab(domains, ("X1",), lambda X1: X1),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def cycle4_scm() -> FiniteScm:
    """A genuine four-variable feedback loop, uniquely solvable w.r.t. its
    single strongly connected component: every mechanism either cuts the loop
    (constant 2) or applies the compressing map [0,0,1], whose compositions
    around the cycle are constant; the equilibrium varies with the noise."""
    dom = fd(0, 1, 2)
    noise = fd(0, 1)
    endo = {f"X{i}": dom for i in range(1, 5)}
    exo = {f"E{i}": noise for i in range(1, 5)}
    measure = {j: uniform(0, 1) for j in exo}
    domains = {**endo, **exo}

    def gate(prev, e):
        if e == 0:
            return 2
        return 1 if prev == 2 else 0

    mechanisms = {
        "X1": tab(domains, ("X4", "E1"), lambda X4, E1: gate(X4, E1)),
        "X2": tab(domains, ("X1", "E2"), lambda X1, E2: gate(X1, E2)),
        "X3": tab(domains, ("X2", "E3"), lambda X2, E3: gate(X2, E3)),
        "X4": tab(domains, ("X3", "E4"), lambda X3, E4: gate(X3, E4)),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def ladder_scm(pairs=3) -> FiniteScm:
    """Chained binary 2-cycles A_i <-> B_i, pair i reading pair i-1.  The
    ternary gate U_i cuts A_i's link to B_i unless U_i == 0 and B_i's link to
    A_i unless U_i == 1, so every pair is uniquely solvable."""
    binary = fd(0, 1)
    endo = {f"{x}{i}": binary for i in range(1, pairs + 1) for x in "AB"}
    exo = {}
    measure = {}
    for i in range(1, pairs + 1):
        exo[f"U{i}"] = fd(0, 1, 2)
        exo[f"V{i}"] = binary
        measure[f"U{i}"] = {0: F(1, 6), 1: F(1, 3), 2: F(1, 2)}
        measure[f"V{i}"] = {0: F(1, 3), 1: F(2, 3)}
    domains = {**endo, **exo}
    mechanisms = {}
    for i in range(1, pairs + 1):
        a, b, u, v = f"A{i}", f"B{i}", f"U{i}", f"V{i}"
        if i == 1:
            mechanisms[a] = postab(domains, (b, u, v), lambda B, U, V: B if U == 0 else int(V != 0))
            mechanisms[b] = postab(domains, (a, u, v), lambda A, U, V: A if U == 1 else int(V == 1))
        else:
            pa, pb = f"A{i - 1}", f"B{i - 1}"
            mechanisms[a] = postab(domains, (b, u, v, pa), lambda B, U, V, P: B if U == 0 else int(V != P))
            mechanisms[b] = postab(domains, (a, u, v, pb), lambda A, U, V, P: A if U == 1 else int(V == P))
    return FiniteScm(endo, exo, measure, mechanisms)


def ternary_ring_scm(n=4) -> FiniteScm:
    """One ternary feedback loop X1 -> ... -> Xn -> X1.  With E_i == 1 link i
    applies h = [1, 2, 2]; any other value cuts it to a constant.  The loop
    composition of h has the single fixed point 2, so every fiber is a
    singleton.  E1 and E2 are ternary, the rest binary."""
    dom = fd(0, 1, 2)
    endo = {f"X{i}": dom for i in range(1, n + 1)}
    exo = {f"E{i}": (dom if i <= 2 else fd(0, 1)) for i in range(1, n + 1)}
    measure = {
        j: ({0: F(1, 6), 1: F(1, 3), 2: F(1, 2)} if len(d) == 3 else {0: F(1, 3), 1: F(2, 3)})
        for j, d in exo.items()
    }
    domains = {**endo, **exo}
    h = (1, 2, 2)
    mechanisms = {
        f"X{i}": postab(domains, (f"X{n if i == 1 else i - 1}", f"E{i}"),
                        lambda P, E, c=i % 3: h[P] if E == 1 else (c if E == 0 else 0))
        for i in range(1, n + 1)
    }
    return FiniteScm(endo, exo, measure, mechanisms)


def big_denominator_scm() -> FiniteScm:
    """X = E1, Y = X xor E2, Z = Y and E3, with probabilities whose common
    denominator 3**20 * 7**12 * 2**8 exceeds 2**31, so the squared
    denominator does not fit an int64."""
    binary = fd(0, 1)
    endo = {"X": binary, "Y": binary, "Z": binary}
    exo = {"E1": binary, "E2": binary, "E3": binary}
    measure = {
        "E1": {0: F(1, 3**20), 1: 1 - F(1, 3**20)},
        "E2": {0: F(2, 7**12), 1: 1 - F(2, 7**12)},
        "E3": {0: F(1, 2**8), 1: 1 - F(1, 2**8)},
    }
    domains = {**endo, **exo}
    mechanisms = {
        "X": tab(domains, ("E1",), lambda E1: E1),
        "Y": tab(domains, ("X", "E2"), lambda X, E2: X ^ E2),
        "Z": tab(domains, ("Y", "E3"), lambda Y, E3: Y & E3),
    }
    return FiniteScm(endo, exo, measure, mechanisms)


# --- exhaustive oracles --------------------------------------------------------

def exhaustive_fiber(m, subset, assign):
    """Reference oracle: scan the full product of the subset domains.  The
    solutions come in that product's order, the subset in declaration order.
    A variable whose mechanism has no arguments ranges only over its one
    constant value (none, if the domain lacks it): no other value can solve
    its equation.  Every equation is still checked on every candidate."""
    subset = tuple(n for n in m.endogenous_names if n in set(subset))
    ranges = [
        [v for v in m.endogenous[o].values if m.mechanisms[o].args or v == m.mechanisms[o]({})]
        for o in subset
    ]
    out = []
    for combo in itertools.product(*ranges):
        full = dict(assign)
        full.update(zip(subset, combo))
        if all(full[o] == m.mechanisms[o](full) for o in subset):
            out.append(combo)
    return out


def _relation_coords(m, k):
    """Coordinates the fixed-point relation of ``k`` can possibly involve:
    declared arguments plus ``k`` itself."""
    coords = list(m.mechanisms[k].args)
    if k not in coords:
        coords.append(k)
    return coords


def _coord_values(m, name, support_only):
    if name in m.exogenous and support_only:
        return m.support(name)
    return m.domain_of(name).values


def _relation_holds(mech, k, assign):
    return assign[k] == mech(assign)


def depends_on(m, k, v) -> bool:
    """Reference oracle for finite functional parents: does the fixed-point
    relation [x_k = f_k] genuinely depend on coordinate ``v``?  Every
    combination of the other coordinates, each value of ``v`` (for v = k:
    does some section over x_k hold other than one fixed point), through a
    dict and a mechanism call per combination.  Exogenous coordinates range
    over their support only."""
    mech = m.mechanisms[k]
    coords = _relation_coords(m, k)
    if v == k:
        others = [c for c in coords if c != k]
        for combo in itertools.product(*(_coord_values(m, c, True) for c in others)):
            assign = dict(zip(others, combo))
            hits = 0
            for xk in m.endogenous[k].values:
                assign[k] = xk
                hits += _relation_holds(mech, k, assign)
            if hits != 1:
                return True
        return False
    if v not in mech.args:
        return False
    others = [c for c in coords if c != v]
    v_values = _coord_values(m, v, True)
    for combo in itertools.product(*(_coord_values(m, c, True) for c in others)):
        assign = dict(zip(others, combo))
        truths = set()
        for val in v_values:
            assign[v] = val
            truths.add(_relation_holds(mech, k, assign))
            if len(truths) > 1:
                return True
    return False


def exhaustive_mechanisms_equivalent(m1, m2) -> bool:
    """Reference oracle for ``mechanisms_equivalent`` (signatures assumed
    shared): every combination of each k's joint coordinates, noises over
    their support, through a dict and a mechanism call per side."""
    for k in m1.endogenous_names:
        f1, f2 = m1.mechanisms[k], m2.mechanisms[k]
        coords = list(dict.fromkeys(list(f1.args) + list(f2.args) + [k]))
        for combo in itertools.product(*(_coord_values(m1, c, True) for c in coords)):
            assign = dict(zip(coords, combo))
            if _relation_holds(f1, k, assign) != _relation_holds(f2, k, assign):
                return False
    return True


def exhaustive_parents(m, k) -> frozenset:
    return frozenset(v for v in set(m.mechanisms[k].args) | {k} if depends_on(m, k, v))


def exhaustive_scan(m, subset, need_unique):
    """Reference oracle for finite (unique) solvability: ``None`` if every
    fiber is non-empty (a singleton, with ``need_unique``), else the witness
    of the first point that fails.  The points are the support of the noises
    that ``subset`` reads times the domains of the other variables it reads,
    each in declaration order, in product order; each fiber is
    ``exhaustive_fiber``, in its product order."""
    subset = tuple(n for n in m.endogenous_names if n in set(subset))
    read = {a for o in subset for a in m.mechanisms[o].args}
    exo = [j for j in m.exogenous_names if j in read]
    ctx = [i for i in m.endogenous_names if i in read and i not in subset]
    for combo in itertools.product(*(m.support(j) for j in exo), *(m.endogenous[i].values for i in ctx)):
        sols = exhaustive_fiber(m, subset, dict(zip(exo + ctx, combo)))
        if not sols or need_unique and len(sols) > 1:
            return {"e": dict(zip(exo, combo)), "ctx": dict(zip(ctx, combo[len(exo):])),
                    "fiber": tuple(sols) if need_unique else ()}
    return None


def exhaustive_direct_cause(m, i, j, laws=None):
    """Reference oracle for ``is_direct_cause`` on finite models: every
    context of all other variables, in product order, each contrast of two
    values of i.  The law of j under a full intervention is the j-marginal of
    ``fraction_distribution`` of the intervened model, found by brute force;
    a caller checking several pairs of one model passes one dict as ``laws``
    to share those laws between the pairs."""
    from scmkit import intervene

    laws = {} if laws is None else laws
    others = [v for v in m.endogenous_names if v not in (i, j)]
    dom = m.endogenous[i].values
    at = m.endogenous_names.index(j)

    def law_of_j(assign):
        key = (j, tuple(assign.get(v) for v in m.endogenous_names))
        if key not in laws:
            law = {}
            for cell, p in fraction_distribution(intervene(m, assign)).items():
                law[cell[at]] = law.get(cell[at], F(0)) + p
            laws[key] = law
        return laws[key]

    for ctx_combo in itertools.product(*(m.endogenous[v].values for v in others)):
        ctx = dict(zip(others, ctx_combo))
        contrast = [law_of_j({**ctx, i: x}) for x in dom]
        for a_idx, b_idx in itertools.combinations(range(len(dom)), 2):
            if contrast[a_idx] != contrast[b_idx]:
                return True, ({**ctx, i: dom[a_idx]}, {**ctx, i: dom[b_idx]})
    return False, None


def fraction_distribution(m):
    """Reference oracle for the finite observational law: a ``Fraction``
    product per support point, summed per cell, each cell solved by
    ``exhaustive_fiber``.  ``None`` where some fiber is not a singleton."""
    names = m.exogenous_names
    probs = {}
    for combo in itertools.product(*(m.support(j) for j in names)):
        p = F(1)
        for j, v in zip(names, combo):
            p *= F(m.measure[j][v])
        sols = exhaustive_fiber(m, m.endogenous_names, dict(zip(names, combo)))
        if len(sols) != 1:
            return None
        probs[sols[0]] = probs.get(sols[0], F(0)) + p
    return probs


def exhaustive_selector_laws(m, max_selectors=10**6):
    """Reference oracle for the selector polytope: the distinct laws of every
    selector, one fiber element per support point of all the noises, each
    fiber by ``exhaustive_fiber``; their hull is the achievable set.  Raises
    ``NotSolvable`` at an empty fiber and ``ScmError`` once the product of
    the fiber sizes so far exceeds ``max_selectors``."""
    endo, names = m.endogenous_names, m.exogenous_names
    points = []
    count = 1
    for combo in itertools.product(*(m.support(j) for j in names)):
        p = F(1)
        for j, v in zip(names, combo):
            p *= F(m.measure[j][v])
        sols = exhaustive_fiber(m, endo, dict(zip(names, combo)))
        if not sols:
            raise NotSolvable(endo, {"e": dict(zip(names, combo))})
        points.append((p, sols))
        count *= len(sols)
        if count > max_selectors:
            raise ScmError(f"selector polytope overflow: at least {count} candidate selectors, "
                           f"over the cap max_selectors={max_selectors}")
    laws = {}
    for choice in itertools.product(*(sols for _, sols in points)):
        probs = {}
        for (p, _), cell in zip(points, choice):
            probs[cell] = probs.get(cell, F(0)) + p
        dist = DiscreteDistribution(endo, m.endogenous, probs)
        laws.setdefault(dist, None)
    return tuple(laws)


def exhaustive_gamma_law(m, margin, iv, unique=False):
    """Reference oracle for ``analysis._gamma_law``: one pass over every
    support point of the noises that the variables outside ``iv`` read, in
    product order, each fiber solved whole by ``_fibers`` and projected to
    ``margin``.  ``(den, law)`` with ``den`` the sum of the points' integer
    weights; ``None`` at the first empty fiber, and with ``unique`` at the
    first whose projection is not a singleton."""
    free = tuple(v for v in m.endogenous_names if v not in iv)
    exo, _ = _inputs(m, free)
    law = {}
    for values, n in _support_assignments(m, exo):
        assign = dict(zip(exo, values), **iv)
        cells = frozenset(
            tuple(iv[v] if v in iv else sol[free.index(v)] for v in margin) for sol in _fibers(m, free, assign)
        )
        if not cells or unique and len(cells) > 1:
            return None
        law[cells] = law.get(cells, 0) + n
    return sum(law.values()), law


def oracle_ci(dist, a, b, s) -> bool:
    """Reference oracle for conditional independence: P(a, b, s) P(s) ==
    P(a, s) P(b, s) for every value of A, B and S with P(s) > 0, each
    probability a ``Fraction`` sum of the cells of ``dist.probs``."""
    pos = {v: i for i, v in enumerate(dist.vars)}
    p_abs, p_as, p_bs, p_s = {}, {}, {}, {}
    for cell, p in dist.probs.items():
        va, vb, vs = (tuple(cell[pos[v]] for v in names) for names in (a, b, s))
        for table, key in ((p_abs, (va, vb, vs)), (p_as, (va, vs)), (p_bs, (vb, vs)), (p_s, vs)):
            table[key] = table.get(key, F(0)) + p
    return all(
        p_abs.get((va, vb, vs), F(0)) * p_s[vs] == pa * pb
        for (va, vs), pa in p_as.items()
        for (vb, vs2), pb in p_bs.items()
        if vs2 == vs
    )


# --- separation oracle ----------------------------------------------------------

def simple_paths(g, a, b):
    """Reference enumerator: every simple path from a node of ``a`` to a
    node of ``b`` as ``(nodes, steps)``, read off ``g.directed`` and
    ``g.bidirected`` by recursion; ``steps[k]`` is 'out' for nodes[k] ->
    nodes[k+1], 'in' for nodes[k] <- nodes[k+1] and 'bi' for <->.  A node in
    both sets is the length-0 path.  Self-loops lie on no simple path."""
    moves = {v: [] for v in g.nodes}
    for u, v in g.directed:
        if u != v:
            moves[u].append((v, "out"))
            moves[v].append((u, "in"))
    for u, v in g.bidirected:
        moves[u].append((v, "bi"))
        moves[v].append((u, "bi"))

    def extend(nodes, steps):
        if nodes[-1] in b:
            yield nodes, steps
        for nxt, kind in moves[nodes[-1]]:
            if nxt not in nodes:
                yield from extend(nodes + (nxt,), steps + (kind,))

    for start in a:
        yield from extend((start,), ())


def path_blocked(nodes, steps, cond, an_cond, scc) -> bool:
    """Reference oracle: is the path blocked by ``cond``?  ``scc`` maps each
    node to its strongly connected component for sigma-blocking; ``None``
    d-blocks.  An end in ``cond`` blocks; a collider blocks unless it is in
    an(cond); a non-collider in ``cond`` blocks, under sigma-blocking only
    if a child of it on the path lies outside its component."""
    if nodes[0] in cond or nodes[-1] in cond:
        return True
    for k in range(1, len(nodes) - 1):
        node = nodes[k]
        into_left = steps[k - 1] in ("out", "bi")
        into_right = steps[k] in ("in", "bi")
        if into_left and into_right:
            if node not in an_cond:
                return True
        elif node in cond:
            if scc is None:
                return True
            children_on_path = []
            if steps[k - 1] == "in":
                children_on_path.append(nodes[k - 1])
            if steps[k] == "out":
                children_on_path.append(nodes[k + 1])
            if any(child not in scc[node] for child in children_on_path):
                return True
    return False


def oracle_open_sinks(g, a, sets, sigma) -> list:
    """Reference oracle: for each set S of ``sets``, the nodes that a path
    not blocked by S joins to a node of ``a`` (sigma- or d-blocking), by
    checking every simple path from ``a``; components come from
    reachability, as ancestors ∩ descendants."""
    scc = {v: g.ancestors_of(v) & g.descendants_of(v) for v in g.nodes} if sigma else None
    paths = list(simple_paths(g, a, frozenset(g.nodes)))
    out = []
    for s in sets:
        an_cond = g.ancestors_of(s) if s else frozenset()
        out.append(frozenset(nodes[-1] for nodes, steps in paths if not path_blocked(nodes, steps, s, an_cond, scc)))
    return out


def random_mixed_graph(rng: random.Random, n: int, directed_p=0.25, bidirected_p=0.15):
    """Nodes v0 .. v(n-1); each ordered pair, self-loops included, carries a
    directed edge with probability ``directed_p`` and each unordered pair a
    bidirected edge with probability ``bidirected_p``."""
    nodes = [f"v{i}" for i in range(n)]
    directed = [(u, v) for u in nodes for v in nodes if rng.random() < directed_p]
    bidirected = [(u, v) for u, v in itertools.combinations(nodes, 2) if rng.random() < bidirected_p]
    return MixedGraph(nodes, directed, bidirected)


# --- random model generation ---------------------------------------------------

def random_finite_scm(rng: random.Random, max_endo=4, max_exo=2, max_card=3,
                      self_arg_p=0.2, allow_zero_prob=True) -> FiniteScm:
    n = rng.randint(2, max_endo)
    k = rng.randint(1, max_exo)
    endo = {f"X{i}": fd(*range(rng.randint(2, max_card))) for i in range(1, n + 1)}
    exo = {f"E{j}": fd(*range(rng.randint(2, max_card))) for j in range(1, k + 1)}
    measure = {}
    for j, dom in exo.items():
        weights = [rng.randint(0, 3) if allow_zero_prob else rng.randint(1, 3) for _ in dom.values]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        measure[j] = {v: F(w, total) for v, w in zip(dom.values, weights)}
    domains = {**endo, **exo}
    mechanisms = {}
    endo_names = list(endo)
    exo_names = list(exo)
    for i in endo_names:
        others = [x for x in endo_names if x != i]
        args = rng.sample(others, min(len(others), rng.randint(0, 2)))
        if rng.random() < self_arg_p:
            args.append(i)
        args += rng.sample(exo_names, min(len(exo_names), rng.randint(0, 2)))
        args = tuple(args)
        codomain = endo[i].values
        table = {}
        for combo in itertools.product(*(domains[a].values for a in args)):
            table[combo] = rng.choice(codomain)
        mechanisms[i] = TabularMechanism(args, table)
    return FiniteScm(endo, exo, measure, mechanisms)


def random_component_scm(rng: random.Random, k: int, outside_p=0.0) -> FiniteScm:
    """One strongly connected component of ``k`` variables for the fiber
    solver: a ring in a shuffled declaration order plus random chords and
    self-loops, domains of 2 to 4 values, random tables (so fibers may be
    empty or hold several solutions), an endogenous input ``Z`` outside the
    loop and one or two noises.  With ``outside_p`` each table entry of a
    loop variable is, with that probability, a value outside its domain; the
    tables are built directly, without the DSL's checks."""
    names = [f"X{i}" for i in range(1, k + 1)]
    endo = {"Z": fd(0, 1)}
    for name in rng.sample(names, k):
        endo[name] = fd(*range(rng.randint(2, 4)))
    exo = {f"E{j}": fd(*range(rng.randint(2, 3))) for j in range(1, rng.randint(1, 2) + 1)}
    measure = {}
    for j, dom in exo.items():
        weights = [rng.randint(1, 3) for _ in dom.values]
        measure[j] = {v: F(w, sum(weights)) for v, w in zip(dom.values, weights)}
    domains = {**endo, **exo}
    mechanisms = {"Z": TabularMechanism(("E1",), {(v,): rng.choice((0, 1)) for v in exo["E1"].values})}
    for pos, name in enumerate(names):
        args = {names[pos - 1]} if k > 1 else set()
        args |= {x for x in names if x != name and rng.random() < 0.25}
        if rng.random() < (0.5 if k == 1 else 0.2):
            args.add(name)
        args |= {a for a in ("Z", *exo) if rng.random() < 0.5}
        args = tuple(a for a in domains if a in args)
        codomain = endo[name].values
        table = {}
        for combo in itertools.product(*(domains[a].values for a in args)):
            table[combo] = len(codomain) + 5 if rng.random() < outside_p else rng.choice(codomain)
        mechanisms[name] = TabularMechanism(args, table)
    return FiniteScm(endo, exo, measure, mechanisms)


def random_linear_scm(rng: random.Random, singular_cycle: bool) -> tuple:
    """A linear model on 3-5 variables for the linear battery, and the one
    pair ``(i, j)`` whose 2-cycle is the model's only cycle.

    B is strictly lower triangular except for the upper entry B[i, j] with
    j = i + 1, and one other variable carries a self-loop coefficient that is
    neither 0 nor 1.  The only cycle of the coefficient graph is i <-> j, so
    det(I - B_OO) = prod_{k in O} (1 - B[k, k]) * (1 - B[i, j] B[j, i]) if O
    holds both i and j, and the same product without the last factor
    otherwise.  With ``singular_cycle`` that factor is 0: a subset is singular
    exactly when it holds both.  The noise is one correlated two-coordinate
    block and one single coordinate, all with positive variance.
    """
    n = rng.randint(3, 5)
    names = tuple(f"X{k}" for k in range(n))
    B = [[0.0] * n for _ in range(n)]
    for r in range(n):
        for col in range(r):
            if rng.random() < 0.6:
                B[r][col] = rng.choice([-1.5, -1.0, -0.5, 0.5, 1.0, 2.0])
    i = rng.randrange(n - 1)
    j = i + 1
    B[i][j] = rng.choice([-2.0, -0.5, 0.5, 2.0])
    B[j][i] = 1.0 / B[i][j] if singular_cycle else rng.choice([-1.0, 0.25, 1.5])
    k = rng.choice([v for v in range(n) if v not in (i, j)])
    B[k][k] = rng.choice([-1.0, 0.5, 2.0])
    rho = rng.choice([-0.6, 0.3, 0.8])
    scale = rng.choice([0.5, 1.0, 3.0])
    blocks = (
        GaussianBlock("W", ("W1", "W2"), [0.5, -1.0], [[scale, rho * scale], [rho * scale, scale]]),
        GaussianBlock("E", ("E",), [2.0], [[rng.choice([0.25, 1.0, 4.0])]]),
    )
    Gamma = [[rng.choice([0.0, 0.0, 1.0, -0.5, 2.0]) for _ in range(3)] for _ in range(n)]
    c = [rng.choice([0.0, 1.0, -2.0]) for _ in range(n)]
    return LinearScm(names, blocks, B, Gamma, c), (names[i], names[j])


def random_interventions(rng: random.Random, m: FiniteScm, count=1):
    out = []
    for _ in range(count):
        names = rng.sample(list(m.endogenous_names), rng.randint(1, len(m.endogenous_names)))
        out.append({i: rng.choice(m.endogenous[i].values) for i in names})
    return out
