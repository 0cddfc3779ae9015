"""Monte Carlo runs: determinism, pairing, and agreement with references."""

from __future__ import annotations

import concurrent.futures
import importlib
import io
import itertools
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdp.errors import Inadmissible
from matchdp.graphs import ArrivalDistribution, CostVector, MatchingGraph
from matchdp.nshaped import NModelParams, average_cost, level_probability
from matchdp.policies import (
    FullMatch,
    Policy,
    Tabular,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
)
from matchdp.simulate import (
    SimConfig,
    SimResult,
    _thread_width,
    compare,
    simulate,
    write_comparison_csv,
    write_replication_csv,
)

from conftest import (
    OTHER_SIZES,
    Fractional,
    make_complete22,
    make_n_graph,
    make_w_graph,
    n_inputs,
)
from oracles import reference_simulate, reference_threshold_n

# The package re-exports the function ``simulate`` over the module's name.
simmod = importlib.import_module("matchdp.simulate")


class PlainN(ThresholdN):
    """The N rule as first written, one numpy formula per step."""

    def decide(self, x):
        return reference_threshold_n(self.graph, self.t, x)


def n_setup():
    graph = make_n_graph()
    arrivals = ArrivalDistribution(
        alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6])
    )
    costs = CostVector(demand=np.array([1.0, 3.0]), supply=np.array([2.0, 1.0]))
    return graph, arrivals, costs


def w_setup():
    graph = make_w_graph()
    arrivals = ArrivalDistribution(
        alpha=np.array([0.4, 0.35, 0.25]), beta=np.array([0.5, 0.5])
    )
    costs = CostVector(
        demand=np.array([10.0, 10.0, 1.0]), supply=np.array([1.0, 1000.0])
    )
    return graph, arrivals, costs


class TestConfigValidation:
    def test_horizon_must_exceed_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(horizon=10, burn_in=10)

    def test_replications_positive(self):
        with pytest.raises(ValueError, match="replications"):
            SimConfig(horizon=10, replications=0)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(horizon=10, seed=-1)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("horizon", {"horizon": 100.0}),
            ("burn_in", {"horizon": 100, "burn_in": 2.5}),
            ("replications", {"horizon": 100, "replications": 2.0}),
            ("seed", {"horizon": 100, "seed": 2.5}),
            ("q0", {"horizon": 100, "q0": (1.5, 0.5, 0.5, 1.5)}),
            ("a0", {"horizon": 100, "a0": (1.7, 0.2)}),
        ],
    )
    def test_non_integer_fields_are_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"{field} must be an integer, got .*\d\.\d"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("horizon", {"horizon": True}),
            ("replications", {"horizon": 100, "replications": True}),
            ("seed", {"horizon": 100, "seed": False}),
            ("q0", {"horizon": 100, "q0": (True, 0, 0, 1)}),
            ("a0", {"horizon": 100, "a0": (True, 0)}),
        ],
    )
    def test_bools_are_rejected(self, field, kwargs):
        # bool is an int subclass, so True would pass as 1.
        with pytest.raises(ValueError, match=rf"{field} must be an integer, got (True|False)"):
            SimConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        graph, arrivals, costs = n_setup()
        plain = SimConfig(horizon=300, burn_in=10, replications=2, seed=3,
                          q0=(1, 0, 0, 1), a0=(1, 0))
        numpy = SimConfig(
            horizon=np.int64(300), burn_in=np.int32(10), replications=np.int64(2),
            seed=np.uint64(3), q0=np.array([1, 0, 0, 1]), a0=(np.int64(1), np.int8(0)),
        )
        assert numpy == plain
        policy = ThresholdN(graph, 1)
        assert simulate(graph, arrivals, costs, policy, numpy) == simulate(
            graph, arrivals, costs, policy, plain
        )

    def test_seed_message_names_the_value(self):
        with pytest.raises(ValueError, match=r"seed must be an unsigned 64-bit integer, got -1"):
            SimConfig(horizon=10, seed=-1)
        with pytest.raises(ValueError, match=r"got 18446744073709551616"):
            SimConfig(horizon=10, seed=2**64)

    def test_q0_must_be_balanced(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=10, q0=(1, 0, 0, 0))
        with pytest.raises(ValueError, match="balanced"):
            simulate(graph, arrivals, costs, ThresholdN(graph, 0), cfg)

    @pytest.mark.parametrize(
        "q0, message",
        [
            ((1, 0, 0), "q0: state must have length 4, got 3 entries"),
            ((1, -1, 0, 0), r"q0: state entries must be nonnegative, got \[1, -1, 0, 0\]"),
            ((2, 0, 1, 0), "q0: queue state must be balanced, got demand sum 2 vs supply sum 1"),
        ],
        ids=["length", "sign", "balance"],
    )
    def test_q0_is_checked_as_a_queue_state(self, q0, message):
        graph, arrivals, costs = n_setup()
        with pytest.raises(ValueError, match=message):
            simulate(graph, arrivals, costs, ThresholdN(graph, 0), SimConfig(horizon=10, q0=q0))

    def test_a0_range(self, monkeypatch):
        def no_workers(*args, **kwargs):
            raise AssertionError("a worker started before a0 was checked")

        # The kernel imports its pool from concurrent.futures when it starts
        # one, so that is where it is replaced; a stream of several pieces
        # would start a helper thread.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_workers)
        monkeypatch.setattr(threading.Thread, "start", no_workers)
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 4)
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=10, replications=2, a0=(5, 0))
        for threads in (1, 2):
            with pytest.raises(ValueError, match=r"a0 out of range: \(5, 0\)"):
                simulate(graph, arrivals, costs, ThresholdN(graph, 0), cfg, threads=threads)

    @pytest.mark.parametrize("a0", [(1, 0, 0), (1,)])
    def test_a0_needs_two_entries(self, a0):
        with pytest.raises(ValueError, match=rf"a0 must have 2 entries .*got {re.escape(str(a0))}"):
            SimConfig(horizon=10, a0=a0)

    def test_policy_of_another_graph_is_rejected(self):
        graph, arrivals, costs = n_setup()
        with pytest.raises(ValueError, match="FullMatch is bound to another graph"):
            simulate(
                graph, arrivals, costs, FullMatch(make_complete22()), SimConfig(horizon=10)
            )

    def test_policy_of_reordered_edges_is_rejected(self):
        graph, arrivals, costs = n_setup()
        reordered = MatchingGraph(graph.demand_nodes, graph.supply_nodes, graph.edges[::-1])
        policies = [ThresholdN(graph, 0), ThresholdN(reordered, 1)]
        with pytest.raises(ValueError, match=r"ThresholdN\(t=1\) is bound to another graph"):
            compare(graph, arrivals, costs, policies, SimConfig(horizon=2000, seed=3))

    def test_compare_needs_two_policies(self):
        graph, arrivals, costs = n_setup()
        with pytest.raises(ValueError, match="at least 2"):
            compare(
                graph, arrivals, costs, [ThresholdN(graph, 0)],
                SimConfig(horizon=10),
            )


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=4000, burn_in=200, replications=3, seed=9)
        policy = ThresholdN(graph, 1)
        assert simulate(graph, arrivals, costs, policy, cfg) == simulate(
            graph, arrivals, costs, policy, cfg
        )

    def test_different_seed_differs(self):
        graph, arrivals, costs = n_setup()
        policy = ThresholdN(graph, 1)
        a = simulate(graph, arrivals, costs, policy, SimConfig(horizon=4000, seed=0))
        b = simulate(graph, arrivals, costs, policy, SimConfig(horizon=4000, seed=1))
        assert a.mean != b.mean

    def test_thread_width_does_not_change_results(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=2000, replications=4, seed=3)
        policy = ThresholdN(graph, 1)
        serial = simulate(graph, arrivals, costs, policy, cfg, threads=1)
        pooled = simulate(graph, arrivals, costs, policy, cfg, threads=2)
        assert serial == pooled

    def test_pool_width_is_clamped_to_replications_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delenv("MATCHDP_THREADS", raising=False)
        assert _thread_width(64, 2) == 2
        assert _thread_width(64, 100) == 8
        assert _thread_width(0, 3) == 3
        assert _thread_width(0, 100) == 8
        assert _thread_width(None, 100) == 1
        monkeypatch.setenv("MATCHDP_THREADS", "64")
        assert _thread_width(None, 2) == 2
        with pytest.raises(ValueError):
            _thread_width(-1, 2)

    def test_bad_thread_variable_names_itself(self, monkeypatch):
        monkeypatch.setenv("MATCHDP_THREADS", "two")
        with pytest.raises(ValueError, match=r"MATCHDP_THREADS must be an integer, got 'two'"):
            _thread_width(None, 2)

    def test_single_replication_has_nan_se(self):
        graph, arrivals, costs = n_setup()
        result = simulate(
            graph, arrivals, costs, ThresholdN(graph, 0), SimConfig(horizon=500)
        )
        assert math.isnan(result.se)
        assert len(result.rep_means) == 1


class TestFastPathsMatchGeneric:
    """The memoized kernel on the package's rules against the step-by-step
    reference calling ``decide`` every step (for ThresholdN, the rule as first
    written). Integer costs keep every partial sum exact, so results must be
    equal."""

    CFG = SimConfig(horizon=2500, burn_in=100, replications=2, seed=7)

    def assert_same(self, graph, arrivals, costs, fast, plain, cfg=CFG):
        a = simulate(graph, arrivals, costs, fast, cfg)
        b = reference_simulate(graph, arrivals, costs, plain, cfg)
        assert a == b

    @pytest.mark.parametrize("t", [0, 2, math.inf])
    def test_threshold_n(self, t):
        graph, arrivals, costs = n_setup()
        self.assert_same(graph, arrivals, costs, ThresholdN(graph, t), PlainN(graph, t))

    def test_threshold_n_from_flex_track_state(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=2500, replications=2, seed=1, q0=(2, 0, 0, 2), a0=(1, 0))
        self.assert_same(
            graph, arrivals, costs, ThresholdN(graph, 3), PlainN(graph, 3), cfg
        )

    def test_threshold_n_from_unmatchable_pairs(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=2500, replications=2, seed=2, q0=(0, 3, 3, 0))
        self.assert_same(
            graph, arrivals, costs, ThresholdN(graph, 1), PlainN(graph, 1), cfg
        )

    def test_threshold_n_off_track_start_falls_back(self):
        graph, arrivals, costs = n_setup()
        # Holding both pair kinds at once is off the level track.
        cfg = SimConfig(horizon=1500, replications=2, seed=4, q0=(1, 1, 1, 1))
        self.assert_same(
            graph, arrivals, costs, ThresholdN(graph, 2), PlainN(graph, 2), cfg
        )

    @pytest.mark.parametrize("t21,t22", [(11, 0), (0, 0), (math.inf, 1)])
    def test_threshold_w(self, t21, t22):
        graph, arrivals, costs = w_setup()
        policy = ThresholdW(graph, t21, t22)
        self.assert_same(graph, arrivals, costs, policy, policy)

    @pytest.mark.parametrize("t21,t32", [(14, 0), (3, 1)])
    def test_threshold_w_workload(self, t21, t32):
        graph, arrivals, costs = w_setup()
        policy = ThresholdWWorkload(graph, t21, t32)
        self.assert_same(graph, arrivals, costs, policy, policy)

    def test_full_match(self):
        graph = make_complete22()
        _, arrivals, costs = n_setup()
        policy = FullMatch(graph)
        self.assert_same(graph, arrivals, costs, policy, policy)


class TestAgainstReferences:
    def test_full_match_cost_is_the_arrival_expectation(self):
        graph = make_complete22()
        arrivals = ArrivalDistribution(
            alpha=np.array([0.3, 0.7]), beta=np.array([0.8, 0.2])
        )
        costs = CostVector(demand=np.array([2.0, 5.0]), supply=np.array([1.0, 4.0]))
        expected = sum(
            float(arrivals.alpha[i] * arrivals.beta[j])
            * float(costs.demand[i] + costs.supply[j])
            for i in range(2)
            for j in range(2)
        )
        cfg = SimConfig(horizon=40000, replications=4, seed=5)
        result = simulate(graph, arrivals, costs, FullMatch(graph), cfg)
        assert result.mean == pytest.approx(expected, abs=3 * result.se)
        assert result.node_means == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_threshold_n_matches_closed_form(self, t):
        graph, arrivals, costs = n_setup()
        params = NModelParams(alpha=0.6, beta=0.4, costs=(1.0, 3.0, 2.0, 1.0))
        cfg = SimConfig(horizon=10**5, burn_in=10**4, replications=5, seed=11)
        result = simulate(graph, arrivals, costs, ThresholdN(graph, t), cfg)
        assert result.mean == pytest.approx(
            average_cost(params, t), abs=3 * result.se
        )

    def test_level_frequencies_are_geometric(self):
        graph, arrivals, costs = n_setup()
        params = NModelParams(alpha=0.6, beta=0.4, costs=(1.0, 3.0, 2.0, 1.0))
        cfg = SimConfig(horizon=2 * 10**5, burn_in=10**4, replications=3, seed=17)
        result = simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg)
        assert result.level_freqs is not None
        worst = max(
            abs(freq - level_probability(params, i))
            for i, freq in enumerate(result.level_freqs)
        )
        assert worst < 0.01

    def test_level_freqs_absent_off_the_n_threshold_family(self):
        graph = make_complete22()
        _, arrivals, costs = n_setup()
        result = simulate(
            graph, arrivals, costs, FullMatch(graph), SimConfig(horizon=500)
        )
        assert result.level_freqs is None

    def test_burn_in_changes_little_in_steady_state(self):
        graph, arrivals, costs = n_setup()
        policy = ThresholdN(graph, 1)
        with_burn = simulate(
            graph, arrivals, costs, policy,
            SimConfig(horizon=50000, burn_in=5000, replications=4, seed=23),
        )
        without = simulate(
            graph, arrivals, costs, policy,
            SimConfig(horizon=50000, replications=4, seed=23),
        )
        assert abs(with_burn.mean - without.mean) < 2 * with_burn.se

    def test_first_step_cost_is_exact(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=1, seed=0, q0=(0, 1, 1, 0), a0=(0, 1))
        result = simulate(graph, arrivals, costs, ThresholdN(graph, 0), cfg)
        # x = q0 + e_(d1, s2); holding cost 3 + 2 from q0 plus 1 + 1 arriving.
        assert result.mean == 7.0


class TestInadmissiblePolicies:
    def test_overmatching_is_surfaced_with_state_and_decision(self):
        graph, arrivals, costs = n_setup()

        class Greedy(Policy):
            def __init__(self, g):
                super().__init__(g)
                self.label = "Greedy"

            def decide(self, x):
                u = np.zeros(3, dtype=np.int64)
                u[0] = 2
                return u

        with pytest.raises(Inadmissible, match="x="):
            simulate(
                graph, arrivals, costs, Greedy(graph), SimConfig(horizon=50)
            )


    @pytest.mark.parametrize("u", [[0, 0, 0, 5], [0]], ids=["long", "short"])
    def test_decision_of_the_wrong_length_is_rejected(self, u):
        graph, arrivals, costs = n_setup()

        class Fixed(Policy):
            label = "Fixed"

            def decide(self, x):
                return np.array(u)

        shape = re.escape(f"({len(u)},)")
        with pytest.raises(ValueError, match=rf"one entry per edge \(3\), got shape {shape}"):
            simulate(graph, arrivals, costs, Fixed(graph), SimConfig(horizon=50))

    def test_fractional_counts_are_rejected(self):
        graph, arrivals, costs = n_setup()
        with pytest.raises(ValueError, match="Fractional returned match counts of dtype float64"):
            simulate(graph, arrivals, costs, Fractional(graph), SimConfig(horizon=50))


class TestCompare:
    def test_self_comparison_is_exactly_zero(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=3000, replications=3, seed=7)
        result = compare(
            graph, arrivals, costs,
            [ThresholdN(graph, 1), ThresholdN(graph, 1)], cfg,
        )
        assert result.pairs[0].mean == 0.0
        assert result.pairs[0].se == 0.0

    def test_results_match_standalone_runs(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=3000, burn_in=100, replications=3, seed=7)
        policies = [ThresholdN(graph, 0), ThresholdN(graph, 2)]
        result = compare(graph, arrivals, costs, policies, cfg)
        standalone = {
            p.label: simulate(graph, arrivals, costs, p, cfg) for p in policies
        }
        for entry in result.results:
            assert entry == standalone[entry.label]

    def test_table_is_sorted_with_all_pairs(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=20000, burn_in=2000, replications=3, seed=13)
        policies = [ThresholdN(graph, t) for t in (5, 0, 1)]
        result = compare(graph, arrivals, costs, policies, cfg)
        means = [r.mean for r in result.results]
        assert means == sorted(means)
        assert len(result.pairs) == 3
        first = result.pairs[0]
        assert first.mean == pytest.approx(
            result.results[0].mean - result.results[1].mean, rel=1e-12
        )

    def test_thread_width_does_not_change_comparison(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=1500, replications=4, seed=3)
        policies = [ThresholdN(graph, 0), ThresholdN(graph, 2)]
        serial = compare(graph, arrivals, costs, policies, cfg, threads=1)
        pooled = compare(graph, arrivals, costs, policies, cfg, threads=2)
        assert serial == pooled


class TestCsvOutput:
    def test_replication_rows(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=800, replications=2, seed=1)
        results = [
            simulate(graph, arrivals, costs, ThresholdN(graph, t), cfg)
            for t in (0, 1)
        ]
        buffer = io.StringIO()
        write_replication_csv(buffer, results)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "policy,replication,mean_cost"
        assert len(lines) == 5
        label, rep, value = lines[1].split(",")
        assert label == "ThresholdN(t=0)"
        assert rep == "0"
        assert float(value) == results[0].rep_means[0]

    def test_comparison_rows(self, tmp_path):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=800, replications=2, seed=1)
        result = compare(
            graph, arrivals, costs,
            [ThresholdN(graph, 0), ThresholdN(graph, 1)], cfg,
        )
        out = tmp_path / "pairs.csv"
        write_comparison_csv(out, result)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "first,second,first_mean,second_mean,diff_mean,diff_se"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == result.pairs[0].first
        assert float(row[4]) == result.pairs[0].mean

    def test_policies_that_share_a_label_keep_their_own_means(self):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=800, replications=2, seed=1)
        policies = [
            Tabular(graph, {}, fallback=ThresholdN(graph, 0)),
            Tabular(graph, {}, fallback=ThresholdN(graph, 3)),
            ThresholdN(graph, 1),
        ]
        assert policies[0].label == policies[1].label
        result = compare(graph, arrivals, costs, policies, cfg)
        buffer = io.StringIO()
        write_comparison_csv(buffer, result)
        rows = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
        pairs = list(itertools.combinations(result.results, 2))
        assert len(rows) == len(pairs) == 3
        assert len({r.mean for r in result.results}) == 3
        for row, (first, second) in zip(rows, pairs):
            assert row[:2] == [first.label, second.label]
            assert [float(row[2]), float(row[3])] == [first.mean, second.mean]


@given(seed=st.integers(0, 2**32), reps=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_aggregate_shape_invariants(seed, reps):
    graph, arrivals, costs = n_setup()
    cfg = SimConfig(horizon=300, burn_in=50, replications=reps, seed=seed)
    result = simulate(graph, arrivals, costs, ThresholdN(graph, 1), cfg)
    assert len(result.rep_means) == reps
    assert result.mean == pytest.approx(
        sum(result.rep_means) / reps, rel=1e-12
    )
    assert len(result.node_means) == graph.n_nodes
    assert result.level_freqs is not None
    assert 0.0 <= sum(result.level_freqs) <= 1.0 + 1e-9


# ---- inputs that do not fit the graph ----


@pytest.mark.parametrize("run", ["simulate", "compare"])
@pytest.mark.parametrize("field, entries, message", OTHER_SIZES)
def test_inputs_sized_for_another_graph_are_rejected(run, field, entries, message):
    graph = make_n_graph()
    arrivals, costs = n_inputs(field, entries)
    policies = [ThresholdN(graph, 0), ThresholdN(graph, 1)]
    cfg = SimConfig(horizon=200, seed=1)
    with pytest.raises(ValueError, match=message):
        if run == "simulate":
            simulate(graph, arrivals, costs, policies[0], cfg)
        else:
            compare(graph, arrivals, costs, policies, cfg)


@pytest.mark.parametrize("threads", [True, 1.5])
def test_non_integer_thread_widths_are_rejected(threads):
    graph, arrivals, costs = n_setup()
    with pytest.raises(ValueError, match=f"threads must be an integer, got {threads}"):
        simulate(graph, arrivals, costs, ThresholdN(graph, 0), SimConfig(horizon=10), threads=threads)
