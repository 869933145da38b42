"""Exact structural causal models, cycles included.

Two mechanism families are implemented end to end: finite-discrete SCMs with
exact rational probabilities, and linear SCMs with Gaussian noise blocks.
On top of them: graph extraction, d-/sigma-separation, perfect interventions,
twin-model counterfactuals, solvability analysis, marginalization,
equivalence checking and Markov-property verification.
"""

from .analysis import (
    DiscreteDistribution,
    GaussianDistribution,
    SelectorPolytope,
    SolvabilityResult,
    SolveMap,
    counterfactual_distribution,
    fiber,
    gaussian_condition,
    interventional_distribution,
    observational_distribution,
    observational_polytope,
    solvable_wrt,
    solve_map,
    structurally_uniquely_solvable,
    uniquely_solvable_all_subsets,
    uniquely_solvable_wrt,
)
from .causal import (
    EquivalenceReport,
    counterfactually_equivalent,
    direct_causal_graph,
    direct_causal_graph_wrt,
    interventionally_equivalent,
    is_direct_cause,
    is_indirect_cause,
    observationally_equivalent,
)
from .dsl import ModelSource, parse, parse_source, serialize
from .errors import (
    DomainMismatchError,
    EvidenceError,
    NotSolvable,
    NotUniquelySolvable,
    ParseError,
    ScmError,
    SolvabilityError,
    TabulationError,
    UnknownNameError,
    UnsupportedModelError,
)
from .graph import (
    MixedGraph,
    d_separated,
    enumerate_loops,
    intervene_graph,
    latent_projection,
    relatives,
    sigma_separated,
)
from .markov import MarkovReport, conditional_independent, verify_markov
from .scm import (
    FiniteDomain,
    FiniteScm,
    GaussianBlock,
    LinearScm,
    TabularMechanism,
    augmented_graph,
    canonicalize,
    functional_graph,
    functional_parents,
    mechanisms_equivalent,
)
from .transform import extend, intervene, marginalize, twin

__version__ = "0.1.0"
