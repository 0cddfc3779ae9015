"""The memoized simulation kernel against the step-by-step reference.

Integer costs keep every partial sum exact, so the kernel must equal
``oracles.reference_simulate`` bit for bit, whatever the piece size of the
arrival stream, the number of arrivals walked per multi-step lookup, and
however often either transition table restarts.
"""

from __future__ import annotations

import importlib
import math
import threading

import numpy as np
import pytest

from matchdp.errors import Inadmissible, MatchDPError, MissingDecision
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
    """Each replication draws its stream on one helper thread that ends with it."""

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

    @pytest.fixture
    def draws(self, monkeypatch):
        """Patch the generator to log (thread id, size) per draw; draw number
        ``fail_at`` (counted from 1) raises the exception stored under ``error``."""
        log = {"calls": [], "fail_at": None, "error": RuntimeError("draw failed")}
        real = np.random.Generator

        class Logged:
            def __init__(self, bit_generator):
                self.inner = real(bit_generator)

            def random(self, size):
                log["calls"].append((threading.get_ident(), size))
                if len(log["calls"]) == log["fail_at"]:
                    raise log["error"]
                return self.inner.random(size)

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
        """Sizes of the multi-step table (rows of 64 on N) under a two-row budget."""
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
    """Counts of restarts inside a multi-step miss and of multi-step drops."""
    seen = {"restarts inside": 0, "restarts": 0, "drops": 0}
    depth = [0]
    multi_miss, forget, drop = (
        simmod._Chain._multi_miss, simmod._Chain._forget, simmod._Chain._drop
    )

    def multi_miss_spy(chain, k):
        depth[0] += 1
        try:
            return multi_miss(chain, k)
        finally:
            depth[0] -= 1

    def forget_spy(chain):
        seen["restarts"] += 1
        seen["restarts inside"] += depth[0] > 0
        forget(chain)

    def drop_spy(chain):
        seen["drops"] += 1
        drop(chain)

    monkeypatch.setattr(simmod._Chain, "_multi_miss", multi_miss_spy)
    monkeypatch.setattr(simmod._Chain, "_forget", forget_spy)
    monkeypatch.setattr(simmod._Chain, "_drop", drop_spy)
    return seen


def set_limits(monkeypatch, limits, graph, m):
    """Patch the row width to give stride m, and the named limits."""
    n_atoms = graph.n_d * graph.n_s
    monkeypatch.setattr(simmod, "STRIDE_WIDTH", n_atoms**m)
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
        assert simmod.STRIDE_WIDTH == 64
        assert [simmod._stride(a) for a in (1, 2, 4, 6, 8, 9)] == [1, 6, 3, 2, 2, 1]

    def test_stride_one_builds_no_multi_step_table(self):
        graph, arrivals, costs = nn_setup()
        chain = simmod._Chain(graph, costs, AcyclicHeuristic(graph, {"s3": 1}))
        simmod._replicate([chain], graph, arrivals, STRIDE_CFG, 0)
        assert chain.stride == 1
        assert chain.mnext == [] and chain.rows == {}
        assert len(chain.next) > 0


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
