"""The memoized simulation kernel against the step-by-step reference.

Integer costs keep every partial sum exact, so the kernel must equal
``oracles.reference_simulate`` bit for bit, whatever the piece size of the
arrival stream and however often the transition memo restarts.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from matchdp.errors import MatchDPError, MissingDecision
from matchdp.graphs import ArrivalDistribution, CostVector
from matchdp.policies import (
    AcyclicHeuristic,
    FullMatch,
    MaxWeight,
    Policy,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
)
from matchdp.simulate import SimConfig, compare, simulate
from matchdp.solver import TruncatedStateSpace, relative_value_iteration

from conftest import make_complete22, make_nn_graph
from oracles import reference_simulate
from test_simulate import n_setup, w_setup

# The package re-exports the function ``simulate`` over the module's name.
simmod = importlib.import_module("matchdp.simulate")

CFG = SimConfig(horizon=2500, burn_in=100, replications=2, seed=7)


def nn_setup():
    graph = make_nn_graph()
    arrivals = ArrivalDistribution(
        alpha=np.array([0.5, 1 / 3, 1 / 6]),
        beta=np.array([0.91 / 3, 0.47, 0.68 / 3]),
    )
    costs = CostVector(
        demand=np.array([1.0, 2.0, 3.0]), supply=np.array([1.0, 2.0, 3.0])
    )
    return graph, arrivals, costs


def assert_matches_reference(setup, policies, cfg=CFG):
    graph, arrivals, costs = setup
    refs = {p.label: reference_simulate(graph, arrivals, costs, p, cfg) for p in policies}
    for p in policies:
        assert simulate(graph, arrivals, costs, p, cfg) == refs[p.label]
    if len(policies) > 1:
        result = compare(graph, arrivals, costs, policies, cfg)
        for entry in result.results:
            assert entry == refs[entry.label]


class Idle(Policy):
    """Never matches: on the N graph every step reaches a new queue vector."""

    label = "Idle"

    def decide(self, x):
        return np.zeros(len(self.graph.edges), dtype=np.int64)


class TestAgainstStepByStepReference:
    @pytest.mark.parametrize("t", [0, 2, math.inf])
    def test_threshold_n(self, t):
        graph, _, _ = setup = n_setup()
        assert_matches_reference(setup, [ThresholdN(graph, t)])

    def test_threshold_n_off_track_start(self):
        graph, _, _ = setup = n_setup()
        cfg = SimConfig(horizon=1500, burn_in=40, replications=2, seed=4, q0=(1, 1, 1, 1))
        assert_matches_reference(setup, [ThresholdN(graph, 2)], cfg)

    def test_threshold_n_with_pinned_first_arrival(self):
        graph, _, _ = setup = n_setup()
        cfg = SimConfig(
            horizon=2500, burn_in=1, replications=2, seed=1, q0=(2, 0, 0, 2), a0=(1, 0)
        )
        assert_matches_reference(setup, [ThresholdN(graph, 3), ThresholdN(graph, 0)], cfg)

    def test_both_w_rules(self):
        graph, _, _ = setup = w_setup()
        assert_matches_reference(
            setup, [ThresholdWWorkload(graph, 14, 0), ThresholdW(graph, 11, 0)]
        )

    def test_full_match_on_complete_graph(self):
        graph = make_complete22()
        _, arrivals, costs = n_setup()
        assert_matches_reference((graph, arrivals, costs), [FullMatch(graph)])

    def test_acyclic_heuristic_and_max_weight(self):
        graph, _, costs = setup = nn_setup()
        cfg = SimConfig(horizon=2000, burn_in=300, replications=2, seed=11)
        assert_matches_reference(
            setup, [AcyclicHeuristic(graph, {"s3": 1}), MaxWeight(graph, costs)], cfg
        )


class TestChunkInvariance:
    # 5003 and 333 are multiples of none of the piece sizes.
    CFG = SimConfig(horizon=5003, burn_in=333, replications=2, seed=5)

    def run_both(self):
        graph, arrivals, costs = n_setup()
        single = simulate(graph, arrivals, costs, ThresholdN(graph, 1), self.CFG)
        paired = compare(
            graph, arrivals, costs, [ThresholdN(graph, 0), ThresholdN(graph, 3)], self.CFG
        )
        return single, paired

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_results_do_not_depend_on_the_piece_size(self, chunk, monkeypatch):
        expected = self.run_both()
        monkeypatch.setattr(simmod, "CHUNK_STEPS", chunk)
        assert self.run_both() == expected


class TestMemoBound:
    @pytest.fixture
    def table_sizes(self, monkeypatch):
        monkeypatch.setattr(simmod, "MEMO_LIMIT", 8)
        sizes: list[int] = []
        locate = simmod._Chain._locate

        def spy(chain, key):
            offset = locate(chain, key)
            sizes.append(len(chain.next))
            return offset

        monkeypatch.setattr(simmod._Chain, "_locate", spy)
        return sizes

    def test_every_state_new_matches_reference(self, table_sizes):
        graph, _, _ = setup = n_setup()
        cfg = SimConfig(horizon=600, burn_in=50, replications=2, seed=3)
        assert_matches_reference(setup, [Idle(graph)], cfg)
        assert max(table_sizes) <= 8

    def test_recurrent_chains_match_reference(self, table_sizes):
        graph, _, _ = setup = n_setup()
        assert_matches_reference(setup, [ThresholdN(graph, 2), ThresholdN(graph, math.inf)])
        assert max(table_sizes) <= 8


class TestDPPolicies:
    def test_table_policy_off_its_interior_raises_a_domain_error(self):
        graph, arrivals, costs = n_setup()
        space = TruncatedStateSpace(graph, cap=6, margin=2)
        _, _, policy = relative_value_iteration(space, costs, arrivals)
        cfg = SimConfig(horizon=50, q0=(0, 9, 9, 0))
        with pytest.raises(MatchDPError, match=r"x=\[") as info:
            simulate(graph, arrivals, costs, policy, cfg)
        assert isinstance(info.value, MissingDecision)
        assert isinstance(info.value, KeyError)
