"""The memoized simulation kernel against the step-by-step reference.

Integer costs keep every partial sum exact, so the kernel must equal
``oracles.reference_simulate`` bit for bit, whatever the piece size of the
arrival stream, the number of arrivals walked per multi-step lookup, and
however often either transition table restarts.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdp.cli import RECIPES
from matchdp.errors import Inadmissible, MatchDPError, MissingDecision
from matchdp.graphs import ArrivalDistribution, CostVector, MatchingGraph, load_graph
from matchdp.policies import (
    AcyclicHeuristic,
    FullMatch,
    MaxWeight,
    Policy,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
    policy_from_spec,
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

    def test_threshold_n_on_a_relabelled_graph(self):
        # The N graph of n_setup with both sides and the edges listed in
        # another order: levels are read at the roles, not in file order.
        graph = MatchingGraph(("d2", "d1"), ("s2", "s1"),
                              (("d2", "s2"), ("d1", "s1"), ("d1", "s2")))
        arrivals = ArrivalDistribution(alpha=np.array([0.4, 0.6]), beta=np.array([0.6, 0.4]))
        costs = CostVector(demand=np.array([3.0, 1.0]), supply=np.array([1.0, 2.0]))
        assert_matches_reference((graph, arrivals, costs), [ThresholdN(graph, 2)])

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

    def run_both(self, threads=1):
        graph, arrivals, costs = n_setup()
        single = simulate(
            graph, arrivals, costs, ThresholdN(graph, 1), self.CFG, threads=threads
        )
        paired = compare(
            graph, arrivals, costs, [ThresholdN(graph, 0), ThresholdN(graph, 3)],
            self.CFG, threads=threads,
        )
        return single, paired

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_results_do_not_depend_on_the_piece_size(self, chunk, threads, monkeypatch):
        expected = self.run_both()
        monkeypatch.setattr(simmod, "CHUNK_STEPS", chunk)
        assert self.run_both(threads) == expected


class TestHelperThread:
    """A serial run makes every draw on at most one helper thread, which
    ends with the run."""

    def test_no_helper_outlives_a_multi_piece_run(self, monkeypatch):
        graph, arrivals, costs = n_setup()
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        before = threading.active_count()
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), CFG, threads=1)
        assert threading.active_count() == before
        compare(
            graph, arrivals, costs, [ThresholdN(graph, 0), ThresholdN(graph, 3)], CFG,
            threads=1,
        )
        assert threading.active_count() == before

    def test_no_helper_outlives_a_policy_that_raises(self, monkeypatch):
        class IdleThenNegative(Policy):
            """Never matches until 40 items wait, then returns negative counts."""

            label = "IdleThenNegative"

            def decide(self, x):
                fill = -1 if sum(x) > 40 else 0
                return np.full(len(self.graph.edges), fill, dtype=np.int64)

        graph, arrivals, costs = n_setup()
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        before = threading.active_count()
        with pytest.raises(Inadmissible, match="IdleThenNegative"):
            simulate(graph, arrivals, costs, IdleThenNegative(graph), CFG, threads=1)
        assert threading.active_count() == before

    def test_no_helper_outlives_a_run_that_raises_between_replications(self, monkeypatch):
        graph, arrivals, costs = n_setup()
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        start = simmod._Chain.start
        begun = []

        def start_once(chain, q0):
            begun.append(q0)
            if len(begun) > 1:
                raise RuntimeError("second replication")
            start(chain, q0)

        monkeypatch.setattr(simmod._Chain, "start", start_once)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second replication"):
            simulate(graph, arrivals, costs, ThresholdN(graph, 2), CFG, threads=1)
        assert threading.active_count() == before

    @pytest.fixture
    def starts(self, monkeypatch):
        """The threads started."""
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    def test_a_serial_run_starts_one_helper(self, starts, monkeypatch):
        graph, arrivals, costs = n_setup()
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), CFG, threads=1)
        assert len(starts) == 1
        compare(
            graph, arrivals, costs, [ThresholdN(graph, 0), ThresholdN(graph, 3)], CFG,
            threads=1,
        )
        assert len(starts) == 2

    @pytest.fixture
    def draws(self, monkeypatch):
        """Patch the generator to log (thread id, shape) per draw, and the
        replication of its key under ``reps``; draw number ``fail_at``
        (counted from 1) raises the exception stored under ``error``."""
        log = {"calls": [], "reps": [], "fail_at": None, "error": RuntimeError("draw failed")}
        real = np.random.Generator

        class Logged:
            def __init__(self, bit_generator):
                self.inner = real(bit_generator)
                self.rep = int(bit_generator.state["state"]["key"][1])

            def random(self, size=None, out=None):
                shape = size if out is None else out.shape
                log["calls"].append((threading.get_ident(), shape))
                log["reps"].append(self.rep)
                if len(log["calls"]) == log["fail_at"]:
                    raise log["error"]
                return self.inner.random(size, out=out)

        monkeypatch.setattr(np.random, "Generator", Logged)
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        return log

    def test_one_helper_thread_draws_every_piece_in_order(self, draws):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=30, seed=2)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg, threads=1)
        helpers = {ident for ident, _ in draws["calls"]}
        assert len(helpers) == 1 and threading.get_ident() not in helpers
        assert [size for _, size in draws["calls"]] == [(7, 2)] * 4 + [(2, 2)]

    def test_one_helper_draws_every_replication_in_order(self, draws):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=30, replications=3, seed=2)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg, threads=1)
        helpers = {ident for ident, _ in draws["calls"]}
        assert len(helpers) == 1 and threading.get_ident() not in helpers
        assert [size for _, size in draws["calls"]] == ([(7, 2)] * 4 + [(2, 2)]) * 3
        assert draws["reps"] == [0] * 5 + [1] * 5 + [2] * 5

    @pytest.fixture
    def no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a helper thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_a_stream_of_one_piece_starts_no_thread(self, draws, no_thread):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=7, replications=2, seed=2)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg, threads=1)
        assert draws["calls"] == [(threading.get_ident(), (7, 2))] * 2

    def test_a_pool_job_draws_on_its_own_thread(self, draws, no_thread):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=30, seed=2)
        simmod._replication_job((graph, arrivals, costs, [ThresholdN(graph, 2)], cfg, 0))
        here = threading.get_ident()
        assert draws["calls"] == [(here, (7, 2))] * 4 + [(here, (2, 2))]

    def test_an_error_in_a_draw_reaches_the_caller_unchanged(self, draws):
        graph, arrivals, costs = n_setup()
        draws["fail_at"] = 3
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            simulate(graph, arrivals, costs, ThresholdN(graph, 2), CFG, threads=1)
        assert info.value is draws["error"]
        assert threading.active_count() == before


def stream_peak(pieces: int) -> int:
    """tracemalloc peak of a FullMatch run on the complete 2x2 graph whose
    stream is ``pieces`` pieces long (the chain never leaves the zero queue)."""
    graph = make_complete22()
    arrivals = ArrivalDistribution(alpha=np.array([0.3, 0.7]), beta=np.array([0.6, 0.4]))
    costs = CostVector(demand=np.array([1.0, 4.0]), supply=np.array([2.0, 8.0]))
    cfg = SimConfig(horizon=pieces * simmod.CHUNK_STEPS, seed=4)
    tracemalloc.start()
    try:
        simulate(graph, arrivals, costs, FullMatch(graph), cfg, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stream_memory_does_not_grow_with_the_horizon(monkeypatch):
    monkeypatch.setattr(simmod, "CHUNK_STEPS", 1024)
    stream_peak(2)  # the first helper imports its modules
    piece = simmod.CHUNK_STEPS * 2 * 8  # one piece of float64 uniforms
    assert abs(stream_peak(64) - stream_peak(4)) <= piece


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

    @pytest.fixture
    def stride_sizes(self, monkeypatch):
        """Sizes of the multi-step table under a two-row budget: the width
        and the steps per entry are patched so N walks at stride 3 after its
        first piece, in rows of 64."""
        monkeypatch.setattr(simmod, "STRIDE_WIDTH", 64)
        monkeypatch.setattr(simmod, "STEPS_PER_ENTRY", 0)
        monkeypatch.setattr(simmod, "STRIDE_LIMIT", 128)
        sizes: list[int] = []
        row = simmod._Chain._row

        def spy(chain, s):
            offset = row(chain, s)
            sizes.append(len(chain.mnext))
            return offset

        monkeypatch.setattr(simmod._Chain, "_row", spy)
        return sizes

    def test_every_state_new_matches_reference(self, table_sizes, stride_sizes):
        graph, _, _ = setup = n_setup()
        cfg = SimConfig(horizon=600, burn_in=50, replications=2, seed=3)
        assert_matches_reference(setup, [Idle(graph)], cfg)
        assert max(table_sizes) <= 8
        assert 0 < max(stride_sizes) <= 128

    def test_recurrent_chains_match_reference(self, table_sizes, stride_sizes):
        graph, _, _ = setup = n_setup()
        assert_matches_reference(setup, [ThresholdN(graph, 2), ThresholdN(graph, math.inf)])
        assert max(table_sizes) <= 8
        assert 0 < max(stride_sizes) <= 128


# ---- walking m arrivals per lookup ----

STRIDE_CFG = SimConfig(horizon=1003, burn_in=101, replications=2, seed=13)
"""1003 and 101 are multiples of none of the strides 2, 3 and 4."""


def stride_case(name):
    """Fresh (setup, policies) on graphs with 4, 6, 4 and 9 arrival atoms."""
    if name == "n":
        graph, _, _ = setup = n_setup()
        return setup, [ThresholdN(graph, 2), ThresholdN(graph, math.inf), Idle(graph)]
    if name == "w":
        graph, _, _ = setup = w_setup()
        return setup, [ThresholdWWorkload(graph, 14, 0), ThresholdW(graph, 11, 0)]
    if name == "complete":
        graph = make_complete22()
        _, arrivals, costs = n_setup()
        return (graph, arrivals, costs), [FullMatch(graph), Idle(graph)]
    graph, _, costs = setup = nn_setup()
    return setup, [AcyclicHeuristic(graph, {"s3": 1}), MaxWeight(graph, costs)]


CASES = ("n", "w", "complete", "nn")
REFERENCES: dict[tuple[str, str], object] = {}


def reference(name, setup, policy):
    """The step-by-step result, computed once per (case, policy)."""
    key = (name, policy.label)
    if key not in REFERENCES:
        REFERENCES[key] = reference_simulate(*setup, policy, STRIDE_CFG)
    return REFERENCES[key]


LIMITS = {
    "defaults": lambda n_atoms, width: {},
    "pieces of 7": lambda n_atoms, width: {"CHUNK_STEPS": 7},
    # Two states per one-step table: it restarts inside multi-step walks.
    "one-step restarts": lambda n_atoms, width: {"MEMO_LIMIT": 2 * n_atoms},
    # Two rows per multi-step table: its budget runs out.
    "multi-step drops": lambda n_atoms, width: {"STRIDE_LIMIT": 2 * width},
}
"""Module constants to patch, as a function of the atom count and the row width."""


@pytest.fixture
def events(monkeypatch):
    """Counts of restarts inside a multi-step fill and of multi-step drops."""
    seen = {"restarts inside": 0, "restarts": 0, "drops": 0}
    depth = [0]
    fill, forget, drop = (
        simmod._Chain._fill, simmod._Chain._forget, simmod._Chain._drop
    )

    def fill_spy(chain, k):
        depth[0] += 1
        try:
            return fill(chain, k)
        finally:
            depth[0] -= 1

    def forget_spy(chain):
        seen["restarts"] += 1
        seen["restarts inside"] += depth[0] > 0
        forget(chain)

    def drop_spy(chain):
        seen["drops"] += 1
        drop(chain)

    monkeypatch.setattr(simmod._Chain, "_fill", fill_spy)
    monkeypatch.setattr(simmod._Chain, "_forget", forget_spy)
    monkeypatch.setattr(simmod._Chain, "_drop", drop_spy)
    return seen


def set_limits(monkeypatch, limits, graph, m):
    """Patch the row width and the steps per entry so that every chain walks
    at stride m after its first piece, and the named limits."""
    n_atoms = graph.n_d * graph.n_s
    monkeypatch.setattr(simmod, "STRIDE_WIDTH", n_atoms**m)
    monkeypatch.setattr(simmod, "STEPS_PER_ENTRY", 0)
    assert simmod._stride(n_atoms) == m
    for name, value in LIMITS[limits](n_atoms, n_atoms**m).items():
        monkeypatch.setattr(simmod, name, value)


def decide_log(policy) -> list[tuple[int, ...]]:
    """Record every vector handed to this policy instance's ``decide``."""
    log: list[tuple[int, ...]] = []
    inner = policy.decide

    def decide(x):
        log.append(tuple(int(v) for v in x))
        return inner(x)

    policy.decide = decide
    return log


class TestStrides:
    @pytest.mark.parametrize("limits", LIMITS, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", CASES, ids=str)
    def test_matches_reference(self, name, m, limits, monkeypatch, events):
        setup, policies = stride_case(name)
        graph, arrivals, costs = setup
        refs = {p.label: reference(name, setup, p) for p in policies}
        set_limits(monkeypatch, limits, graph, m)
        for p in policies:
            assert simulate(graph, arrivals, costs, p, STRIDE_CFG, threads=1) == refs[p.label]
        if len(policies) > 1:
            result = compare(graph, arrivals, costs, policies, STRIDE_CFG, threads=1)
            for entry in result.results:
                assert entry == refs[entry.label]
        if m > 1 and limits == "one-step restarts":
            assert events["restarts inside"] > 0
        if m > 1 and limits == "multi-step drops":
            assert events["drops"] > events["restarts"]

    @pytest.mark.parametrize("limits", LIMITS, ids=str)
    @pytest.mark.parametrize("name", CASES, ids=str)
    def test_decide_calls_equal_the_stride_one_calls(self, name, limits, monkeypatch):
        logs = {}
        for m in (1, 2, 3, 4):
            (graph, arrivals, costs), policies = stride_case(name)
            set_limits(monkeypatch, limits, graph, m)
            logs[m] = [decide_log(p) for p in policies]
            for p in policies:
                simulate(graph, arrivals, costs, p, STRIDE_CFG, threads=1)
            if len(policies) > 1:
                compare(graph, arrivals, costs, policies, STRIDE_CFG, threads=1)
        assert logs[1] and all(logs[1])
        for m in (2, 3, 4):
            assert [len(log) for log in logs[m]] == [len(log) for log in logs[1]]
            assert logs[m] == logs[1]

    @pytest.mark.parametrize("name", ["w", "nn"], ids=str)
    def test_decide_sees_each_post_arrival_vector_once(self, name):
        (graph, arrivals, costs), policies = stride_case(name)
        logs = [decide_log(p) for p in policies]
        runs = [
            lambda p=p: simulate(graph, arrivals, costs, p, STRIDE_CFG, threads=1)
            for p in policies
        ]
        runs.append(lambda: compare(graph, arrivals, costs, policies, STRIDE_CFG, threads=1))
        for run in runs:
            for log in logs:
                log.clear()
            run()
            assert any(logs)
            for log in logs:
                assert len(set(log)) == len(log)

    def test_stride_is_the_largest_within_the_width(self):
        assert simmod.STRIDE_WIDTH == 256
        strides = [simmod._stride(a) for a in (1, 2, 4, 6, 8, 9, 16, 17)]
        assert strides == [1, 8, 4, 3, 2, 2, 2, 1]
        # With no states met, or steps enough for every entry, the width rules.
        assert simmod._stride(4, 0, 0) == simmod._stride(4, 10, 10**9) == 4

    @pytest.mark.parametrize(
        "n_atoms, states, steps, m",
        [
            # 9 states after ThresholdN(1)'s first piece on the N recipe
            # graph, 12 by the end of 16 x 500,000 steps.
            pytest.param(4, 12, 16 * 500_000, 4, id="n-model"),
            # ThresholdWWorkload(14, 0) meets 106 states in its first piece
            # and 132 in 4 x 500,000 steps; ThresholdW(11, 0) 79 and 93.
            pytest.param(6, 132, 4 * 500_000, 2, id="w-model"),
            pytest.param(6, 79, 4 * 500_000, 2, id="w-model two thresholds"),
            # Stride 3 on the W recipe's 20 x 10**6 steps.
            pytest.param(6, 132, 20 * 10**6, 3, id="w-counterexample"),
            # AcyclicHeuristic and MaxWeight meet 169 and 184 states in
            # 6 x 15,000 steps.
            pytest.param(9, 50, 6 * 15_000, 1, id="nn-compare"),
            # ThresholdN(inf) at rho = 0.98 meets 574 states in its first
            # piece of 1e6 steps, 9,284 by the end.
            pytest.param(4, 574, 10**6, 1, id="heavy traffic"),
        ],
    )
    def test_the_rule_on_the_bench_counts(self, n_atoms, states, steps, m):
        assert simmod.STEPS_PER_ENTRY == 200
        assert simmod._stride(n_atoms, states, steps) == m

    def test_the_stride_falls_as_states_grow(self):
        assert simmod._stride(4, 9, 1_000_000) == 4
        counts = range(0, 20_000, 7)
        strides = [simmod._stride(4, n, 1_000_000) for n in counts]
        assert strides == sorted(strides, reverse=True)
        assert strides[-1] == 1

    @pytest.mark.parametrize(
        "recipe, steps, strides",
        [
            ("n-threshold", 16 * 500_000, [4]),
            ("w-counterexample", 4 * 500_000, [2, 2]),
            ("nn-heuristic", 6 * 15_000, [1, 1]),
        ],
    )
    def test_bench_chains_take_their_stride_after_the_first_piece(
        self, recipe, steps, strides
    ):
        graph, arrivals, costs = load_graph(RECIPES[recipe]["graph"])
        if recipe == "n-threshold":
            policies = [ThresholdN(graph, 1)]
        else:
            policies = [
                policy_from_spec(graph, spec, costs) for spec in RECIPES[recipe]["policies"]
            ]
        assert first_piece_strides(graph, arrivals, costs, policies, steps) == strides

    def test_the_heavy_traffic_chain_walks_one_arrival_at_a_time(self):
        doc = dict(RECIPES["n-threshold"]["graph"], alpha=[0.5, 0.5], beta=[0.49, 0.51])
        graph, arrivals, costs = load_graph(doc)
        policies = [ThresholdN(graph, math.inf)]
        assert first_piece_strides(graph, arrivals, costs, policies, 10**6) == [1]

    def test_the_stride_never_rises_after_the_first_piece(self, monkeypatch):
        # Every step of Idle meets a new state; with one step per entry it
        # walks at stride 2 after its first piece and at 1 from 126 states,
        # and stays at 1 after each restart at 150 states empties its memo.
        monkeypatch.setattr(simmod, "STEPS_PER_ENTRY", 1)
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 64)
        monkeypatch.setattr(simmod, "MEMO_LIMIT", 150 * 4)
        strides = []
        walk = simmod._Chain.walk

        def spy(chain, piece, counted):
            strides.append(chain.stride)
            walk(chain, piece, counted)

        monkeypatch.setattr(simmod._Chain, "walk", spy)
        setup, policies = stride_case("n")
        graph, arrivals, costs = setup
        for p in policies:
            strides.clear()
            assert simulate(graph, arrivals, costs, p, STRIDE_CFG, threads=1) == \
                reference("n", setup, p)
            assert strides[0] == 1
            assert strides[1:] == sorted(strides[1:], reverse=True)
            if isinstance(p, Idle):
                assert strides[1] == 2 and strides[-1] == 1

    def test_stride_one_builds_no_multi_step_table(self):
        graph, arrivals, costs = nn_setup()
        steps = STRIDE_CFG.horizon * STRIDE_CFG.replications
        chain = simmod._Chain(graph, costs, AcyclicHeuristic(graph, {"s3": 1}), steps)
        simmod._replicate([chain], graph, arrivals, STRIDE_CFG, range(2))
        assert chain.stride == 1
        assert chain.mnext == [] and chain.rows == {}
        assert len(chain.next) > 0


def first_piece_strides(graph, arrivals, costs, policies, steps) -> list[int]:
    """Each chain's stride after the first piece (CHUNK_STEPS steps) of
    replication 0, for memos that walk ``steps`` in the call."""
    cfg = SimConfig(horizon=2 * simmod.CHUNK_STEPS, burn_in=0, seed=20260825)
    chains = [simmod._Chain(graph, costs, p, steps) for p in policies]
    for chain in chains:
        chain.start(tuple(cfg.initial_queue(graph)))
    stream = simmod._arrival_chunks(graph, arrivals, cfg, [0], overlap=False)
    for _, counted, atoms in itertools.islice(stream, 1):
        for chain in chains:
            chain.walk(simmod._encode(atoms, graph.n_d * graph.n_s, chain.stride), counted)
    return [chain.stride for chain in chains]


# ---- the uncounted block walk ----


class Scrambled(Policy):
    """Matches along the edges in an order, and by amounts, drawn from a
    generator keyed by (seed, x): a fixed but arbitrary admissible rule."""

    label = "Scrambled"

    def __init__(self, graph, seed):
        super().__init__(graph)
        self.seed = seed

    def decide(self, x):
        rng = random.Random(hash((self.seed, *map(int, x))))
        left = [int(v) for v in x]
        u = [0] * len(self.graph.edges)
        edges = list(enumerate(self.graph.edge_ends))
        rng.shuffle(edges)
        for e, (d, s) in edges:
            u[e] = rng.randint(0, min(left[d], left[s]))
            left[d] -= u[e]
            left[s] -= u[e]
        return np.array(u, dtype=np.int64)


def walk_pieces(setup, policy, m, pieces):
    """A chain walked over ``pieces`` (lists of atoms) at stride m from the
    first piece on, counted throughout; it is finished, so every count has
    reached the one-step table."""
    graph, _, costs = setup
    n_atoms = graph.n_d * graph.n_s
    # With no bound on the steps walked the rule never lowers the stride.
    chain = simmod._Chain(graph, costs, policy, math.inf)
    chain.top = m
    chain._set_stride(m)
    chain.start(tuple([0] * graph.n_nodes))
    for atoms in pieces:
        chain.walk(simmod._encode(np.array(atoms, dtype=np.uint8), n_atoms, m), True)
    return chain, chain.finish()


def assert_same_walk(setup, seed, m, pieces):
    """The chain at stride m meets the same states, counts the same
    one-step visits, ends in the same state and folds the same sums as the
    counted walk one arrival at a time."""
    graph = setup[0]
    one, one_out = walk_pieces(setup, Scrambled(graph, seed), 1, pieces)
    multi, multi_out = walk_pieces(setup, Scrambled(graph, seed), m, pieces)
    assert multi.stride == m
    assert multi.states == one.states
    assert multi.hits == one.hits
    assert multi.s == one.s
    assert multi_out == one_out


GRAPHS = {"n": n_setup, "w": w_setup}


class TestBlockWalk:
    def test_a_miss_at_the_first_step_stops_at_that_block(self):
        # Rows of width 2 at offsets 0 and 2; entry 2 + 1 is not filled.
        nxt = [2, 0, 0, None]
        heads, cols = [], []
        blocks = enumerate([[1, 0], [1, 0], [0, 0]])
        assert simmod._blocks(blocks, 0, nxt, heads, cols) == (2, [1, 0])
        assert (heads, cols) == ([0], [0])
        # The next call goes on with the block after it, from the row given.
        assert simmod._blocks(blocks, 0, nxt, heads, cols) == (0, None)
        assert (heads, cols) == ([0, 0], [0, 2])

    def test_a_miss_at_the_last_step_stops_at_that_block(self):
        nxt = [2, 0, 0, None]
        heads, cols = [], []
        blocks = enumerate([[0, 1], [0, 0]])
        assert simmod._blocks(blocks, 0, nxt, heads, cols) == (0, [0, 1])
        assert (heads, cols) == ([], [])

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        block=st.sampled_from([1, 2, 3, 5, 64]),
        rows=st.sampled_from([None, 1, 2, 5]),
        states=st.sampled_from([None, 2, 3, 12]),
        draws=st.lists(st.integers(0, 5), min_size=1, max_size=400),
        cuts=st.lists(st.integers(1, 150), min_size=1, max_size=6),
    )
    def test_counts_and_end_state_equal_the_counted_walk(
        self, name, seed, m, block, rows, states, draws, cuts
    ):
        graph, _, _ = setup = GRAPHS[name]()
        n_atoms = graph.n_d * graph.n_s
        m = min(m, simmod._stride(n_atoms))
        atoms = [a % n_atoms for a in draws]
        pieces = []
        for cut in itertools.cycle(cuts):
            if not atoms:
                break
            pieces.append(atoms[:cut])
            atoms = atoms[cut:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simmod, "BLOCK", block)
            if rows is not None:
                patch.setattr(simmod, "STRIDE_LIMIT", rows * n_atoms**m)
            if states is not None:
                patch.setattr(simmod, "MEMO_LIMIT", states * n_atoms)
            assert_same_walk(setup, seed, m, pieces)

    @pytest.mark.parametrize("limits", ["defaults", "one-step restarts", "multi-step drops"])
    def test_misses_at_both_ends_of_blocks_and_mid_piece_restarts(
        self, limits, monkeypatch, events
    ):
        """Blocks of 4 codes over pieces of 203 steps at stride 2: a spy
        finds where in its block each miss falls."""
        setup = n_setup()
        monkeypatch.setattr(simmod, "BLOCK", 4)
        for name, value in LIMITS[limits](4, 16).items():
            monkeypatch.setattr(simmod, name, value)
        where = set()
        blocks = simmod._blocks

        def spy(pairs, t, nxt, heads, cols):
            t, block = blocks(pairs, t, nxt, heads, cols)
            if block is not None:
                u = t
                for i, c in enumerate(block):
                    u = nxt[u + c]
                    if u is None:
                        where.add(i)
                        break
            return t, block

        monkeypatch.setattr(simmod, "_blocks", spy)
        rng = np.random.default_rng(5)
        pieces = [rng.integers(0, 4, 203).tolist() for _ in range(12)]
        for seed in range(6):
            assert_same_walk(setup, seed, 2, pieces)
        assert {0, 3} <= where
        if limits == "one-step restarts":
            assert events["restarts inside"] > 0
        if limits == "multi-step drops":
            assert events["drops"] > events["restarts"]


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
