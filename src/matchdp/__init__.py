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
simulating policies.  ``import matchdp`` loads the modules a simulation
needs; the solver, the shape checks and the N closed form load on first
use of one of their names (PEP 562), so a simulation-only run never pays
for them.
"""

from __future__ import annotations

import importlib

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
from matchdp.states import admissible_matchings, transition

_LAZY = {
    name: module
    for module, names in {
        "nshaped": (
            "NModelParams",
            "average_cost",
            "level_probability",
            "optimal_threshold",
            "threshold_location",
        ),
        "solver": (
            "DPConfig",
            "TruncatedStateSpace",
            "ValueFunction",
            "evaluate_policy",
            "extract_policy",
            "relative_value_iteration",
            "value_iteration",
        ),
        "structure": (
            "PropertyReport",
            "ShapeReport",
            "check_boundary",
            "check_convex",
            "check_exchangeable",
            "check_increasing",
            "check_modular",
            "check_undesirable",
            "verify_policy_shape",
        ),
    }.items()
    for name in names
}
"""Public name -> the submodule that defines it, imported on first access."""


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


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
