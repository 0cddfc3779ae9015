"""Shared graph fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from matchdp.graphs import ArrivalDistribution, CostVector, MatchingGraph


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
