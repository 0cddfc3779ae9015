"""Dynamic bipartite matching queues as Markov decision processes.

The package models a discrete-time system where paired demand and supply
items arrive on a bipartite compatibility graph, a control policy matches
items across edges, and unmatched items queue at linear holding cost.  It
provides exact dynamic programming on truncated state spaces, a catalog
of structured matching policies, structural-property and policy-shape
verification, closed-form results for the two-by-two "N" graph, and a
seeded Monte Carlo simulator with common random numbers.

Submodules hold the full API; the names below cover the common workflow
of building a model, solving it, checking the solution's shape, and
simulating policies.
"""

from __future__ import annotations

from matchdp.errors import (
    Inadmissible,
    MatchDPError,
    MissingDecision,
    NoConvergence,
    ParseError,
    Unstable,
    WrongGraphClass,
)
from matchdp.graphs import (
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    check_stability,
    classify,
    load_graph,
)
from matchdp.nshaped import (
    NModelParams,
    average_cost,
    level_probability,
    optimal_threshold,
    threshold_location,
)
from matchdp.policies import (
    AcyclicHeuristic,
    FullMatch,
    MatchLongest,
    MaxWeight,
    Policy,
    PriorityExtreme,
    Tabular,
    ThresholdCMO,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
    policy_from_spec,
)
from matchdp.simulate import CompareResult, SimConfig, SimResult, compare, simulate
from matchdp.solver import (
    DPConfig,
    TruncatedStateSpace,
    ValueFunction,
    evaluate_policy,
    extract_policy,
    relative_value_iteration,
    value_iteration,
)
from matchdp.states import admissible_matchings, transition
from matchdp.structure import (
    PropertyReport,
    ShapeReport,
    check_boundary,
    check_convex,
    check_exchangeable,
    check_increasing,
    check_modular,
    check_undesirable,
    verify_policy_shape,
)

__version__ = "0.1.0"

__all__ = [
    "AcyclicHeuristic",
    "ArrivalDistribution",
    "CompareResult",
    "CostVector",
    "DPConfig",
    "FullMatch",
    "Inadmissible",
    "MatchDPError",
    "MatchLongest",
    "MatchingGraph",
    "MaxWeight",
    "MissingDecision",
    "NModelParams",
    "NoConvergence",
    "ParseError",
    "Policy",
    "PriorityExtreme",
    "PropertyReport",
    "ShapeReport",
    "SimConfig",
    "SimResult",
    "Tabular",
    "ThresholdCMO",
    "ThresholdN",
    "ThresholdW",
    "ThresholdWWorkload",
    "TruncatedStateSpace",
    "Unstable",
    "ValueFunction",
    "WrongGraphClass",
    "admissible_matchings",
    "average_cost",
    "check_boundary",
    "check_convex",
    "check_exchangeable",
    "check_increasing",
    "check_modular",
    "check_stability",
    "check_undesirable",
    "classify",
    "compare",
    "evaluate_policy",
    "extract_policy",
    "level_probability",
    "load_graph",
    "optimal_threshold",
    "policy_from_spec",
    "relative_value_iteration",
    "simulate",
    "threshold_location",
    "transition",
    "value_iteration",
    "verify_policy_shape",
]
