"""Shared graph fixtures for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from matchdp.cli import RECIPES
from matchdp.graphs import ArrivalDistribution, CostVector, MatchingGraph, load_graph
from matchdp.policies import Policy
from matchdp.solver import TruncatedStateSpace, relative_value_iteration


def make_n_graph() -> MatchingGraph:
    return MatchingGraph(
        demand_nodes=("d1", "d2"),
        supply_nodes=("s1", "s2"),
        edges=(("d1", "s1"), ("d1", "s2"), ("d2", "s2")),
    )


def make_w_graph() -> MatchingGraph:
    return MatchingGraph(
        demand_nodes=("d1", "d2", "d3"),
        supply_nodes=("s1", "s2"),
        edges=(("d1", "s1"), ("d2", "s1"), ("d2", "s2"), ("d3", "s2")),
    )


def make_complete22() -> MatchingGraph:
    return MatchingGraph(
        demand_nodes=("d1", "d2"),
        supply_nodes=("s1", "s2"),
        edges=(("d1", "s1"), ("d1", "s2"), ("d2", "s1"), ("d2", "s2")),
    )


def make_nn_graph() -> MatchingGraph:
    """Three-by-three zigzag path: s1-d1-s2-d2-s3-d3."""
    return MatchingGraph(
        demand_nodes=("d1", "d2", "d3"),
        supply_nodes=("s1", "s2", "s3"),
        edges=(
            ("d1", "s1"), ("d1", "s2"), ("d2", "s2"), ("d2", "s3"), ("d3", "s3"),
        ),
    )


def make_path23() -> MatchingGraph:
    """Two-by-three acyclic path s1-d1-s2-d2-s3 (criterion 9's graph)."""
    return MatchingGraph(
        demand_nodes=("d1", "d2"),
        supply_nodes=("s1", "s2", "s3"),
        edges=(("d1", "s1"), ("d1", "s2"), ("d2", "s2"), ("d2", "s3")),
    )


def make_cmo33() -> MatchingGraph:
    """Three-by-three complete graph with the single edge (d3, s1) removed."""
    edges = [
        (f"d{i}", f"s{j}")
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if (i, j) != (3, 1)
    ]
    return MatchingGraph(
        demand_nodes=("d1", "d2", "d3"),
        supply_nodes=("s1", "s2", "s3"),
        edges=tuple(edges),
    )


def make_long_acyclic() -> MatchingGraph:
    """Eleven-node alternating chain with three extreme edges."""
    pairs = [
        (1, 1), (1, 2), (2, 2), (2, 3), (3, 3),
        (4, 3), (4, 4), (5, 4), (5, 5), (6, 5),
    ]
    return MatchingGraph(
        demand_nodes=tuple(f"d{i}" for i in range(1, 7)),
        supply_nodes=tuple(f"s{j}" for j in range(1, 6)),
        edges=tuple((f"d{i}", f"s{j}") for i, j in pairs),
    )


def make_fork() -> MatchingGraph:
    """A tree whose node d1 has degree three, so that an extreme edge
    (d1, s1) has two neighbors and ties between them are possible."""
    return MatchingGraph(
        demand_nodes=("d1", "d2"),
        supply_nodes=("s1", "s2", "s3"),
        edges=(("d1", "s1"), ("d1", "s2"), ("d1", "s3"), ("d2", "s3")),
    )


def make_one_edge() -> MatchingGraph:
    return MatchingGraph(
        demand_nodes=("d1",), supply_nodes=("s1",), edges=(("d1", "s1"),)
    )


class Fractional(Policy):
    """On the N graph, both priority edges saturated plus 0.9 on (d1, s1):
    an int64 cast would truncate every decision to an admissible one."""

    label = "Fractional"

    def decide(self, x):
        return np.array([min(x[0], x[2]) + 0.9, 0, min(x[1], x[3])])


class ZeroOfLength(Policy):
    """Matches nothing, with a decision of ``length(x)`` zero counts."""

    label = "ZeroOfLength"

    def __init__(self, graph: MatchingGraph, length):
        super().__init__(graph)
        self.length = length

    def decide(self, x):
        return np.zeros(self.length(x), dtype=np.int64)


# Decision lengths on the N graph (3 edges), and the wrong length that the
# readers report: too long, too short, and a mix of the right length (at
# x with no d1 item) and one entry short.
WRONG_LENGTHS = [
    pytest.param(lambda x: 4, 4, id="long"),
    pytest.param(lambda x: 1, 1, id="short"),
    pytest.param(lambda x: 3 if x[0] == 0 else 2, 2, id="mixed"),
]


# Arrival pairs that no entry point accepts, and what each raises.
BAD_ATOMS = [
    pytest.param((0, 0, 1), "must have 2 entries", id="three-entries"),
    pytest.param((True, 0), "must be an integer, got True", id="bool"),
    pytest.param((0.5, 0), "must be an integer, got 0.5", id="float"),
]

# One field of the N graph's arrivals or costs (2 demand and 2 supply
# classes) sized for another graph, and the message every reader raises.
OTHER_SIZES = [
    pytest.param("alpha", [1.0], "alpha has 1 entries, but the graph has 2 demand", id="alpha"),
    pytest.param("beta", [0.2, 0.3, 0.5], "beta has 3 entries, but the graph has 2 supply", id="beta"),
    pytest.param("demand", [1.0], "demand costs has 1 entries, but the graph has 2 demand", id="demand"),
    pytest.param("supply", [5.0, 2.0, 1.0], "supply costs has 3 entries, but the graph has 2 supply",
                 id="supply"),
]
OTHER_ARRIVALS = OTHER_SIZES[:2]
OTHER_COSTS = OTHER_SIZES[2:]


def n_inputs(field: str | None = None, entries=None) -> tuple[ArrivalDistribution, CostVector]:
    """Stable arrivals and costs of the N graph, with ``field`` (alpha,
    beta, demand or supply) replaced by ``entries``."""
    arrivals = {"alpha": [0.6, 0.4], "beta": [0.4, 0.6]}
    costs = {"demand": [1.0, 5.0], "supply": [5.0, 1.0]}
    for table in (arrivals, costs):
        if field in table:
            table[field] = entries
    return ArrivalDistribution(**arrivals), CostVector(**costs)


@functools.cache
def recipe_solve(recipe: str, cap: int, margin: int):
    """(space, RVI value function, arrivals) on a recipe's graph, solved
    once per test run."""
    graph, arrivals, costs = load_graph(RECIPES[recipe]["graph"])
    space = TruncatedStateSpace(graph, cap=cap, margin=margin)
    _, vf, _ = relative_value_iteration(space, costs, arrivals, extract=False)
    return space, vf, arrivals


def unit_costs(graph: MatchingGraph) -> CostVector:
    return CostVector(
        demand=np.ones(graph.n_d), supply=np.ones(graph.n_s)
    )


@pytest.fixture
def n_graph() -> MatchingGraph:
    return make_n_graph()


@pytest.fixture
def w_graph() -> MatchingGraph:
    return make_w_graph()


@pytest.fixture
def complete22() -> MatchingGraph:
    return make_complete22()


@pytest.fixture
def nn_graph() -> MatchingGraph:
    return make_nn_graph()


@pytest.fixture
def cmo33() -> MatchingGraph:
    return make_cmo33()


@pytest.fixture
def long_acyclic() -> MatchingGraph:
    return make_long_acyclic()


@pytest.fixture
def n_arrivals() -> ArrivalDistribution:
    return ArrivalDistribution(alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6]))
