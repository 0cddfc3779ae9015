"""The memoized simulation kernel against the step-by-step reference.

Integer costs keep every partial sum exact, so the kernel must equal
``oracles.reference_simulate`` bit for bit, whatever the piece size of the
arrival stream, the number of arrivals walked per multi-step lookup, and
however often either transition table restarts.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import random
import threading
import tracemalloc
import types
import weakref
from pathlib import Path

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
from matchdp.nshaped import NModelParams, optimal_threshold
from matchdp.simulate import SimConfig, compare, simulate
from matchdp.solver import TruncatedStateSpace, relative_value_iteration

from conftest import make_complete22, make_nn_graph
from oracles import reference_simulate, reference_streams
from test_bench_golden import GRAPHS as BENCH_GRAPHS
from test_bench_golden import POLICIES as BENCH_POLICIES
from test_bench_golden import RUNS as BENCH_RUNS
from test_bench_golden import SEEDS as BENCH_SEEDS
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
        """Patch the bit generator to log (thread id, shape) per draw of raw
        words, and the replication of its key under ``reps``; draw number
        ``fail_at`` (counted from 1) raises the exception stored under
        ``error``."""
        log = {"calls": [], "reps": [], "fail_at": None, "error": RuntimeError("draw failed")}
        real = np.random.Philox

        class Logged:
            def __init__(self, *args, **kwargs):
                self.inner = real(*args, **kwargs)
                self.rep = int(self.inner.state["state"]["key"][1])

            def random_raw(self, size=None):
                log["calls"].append((threading.get_ident(), size))
                log["reps"].append(self.rep)
                if len(log["calls"]) == log["fail_at"]:
                    raise log["error"]
                return self.inner.random_raw(size)

        monkeypatch.setattr(np.random, "Philox", Logged)
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        return log

    # A stream of 30 steps in pieces of 7 is drawn in halves of 4 steps,
    # each piece's second cut to 3, and its last piece of 2 steps in one.
    HALVES = [(4, 2), (3, 2)] * 4 + [(2, 2)]

    def test_one_helper_thread_draws_every_piece_in_order(self, draws):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=30, seed=2)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg, threads=1)
        helpers = {ident for ident, _ in draws["calls"]}
        assert len(helpers) == 1 and threading.get_ident() not in helpers
        assert [size for _, size in draws["calls"]] == self.HALVES

    def test_one_helper_draws_every_replication_in_order(self, draws):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=30, replications=3, seed=2)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg, threads=1)
        helpers = {ident for ident, _ in draws["calls"]}
        assert len(helpers) == 1 and threading.get_ident() not in helpers
        assert [size for _, size in draws["calls"]] == self.HALVES * 3
        assert draws["reps"] == [0] * 9 + [1] * 9 + [2] * 9

    @pytest.fixture
    def no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a helper thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_a_stream_of_one_piece_starts_no_thread(self, draws, no_thread):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=7, replications=2, seed=2)
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), cfg, threads=1)
        here = threading.get_ident()
        assert draws["calls"] == [(here, (4, 2)), (here, (3, 2))] * 2

    def test_a_pool_job_draws_on_its_own_thread(self, draws, no_thread):
        graph, arrivals, costs = n_setup()
        cfg = SimConfig(horizon=30, seed=2)
        simmod._replication_job((graph, arrivals, costs, [ThresholdN(graph, 2)], cfg, 0))
        here = threading.get_ident()
        assert draws["calls"] == [(here, size) for size in self.HALVES]

    def test_an_error_in_a_draw_reaches_the_caller_unchanged(self, draws):
        graph, arrivals, costs = n_setup()
        draws["fail_at"] = 3
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            simulate(graph, arrivals, costs, ThresholdN(graph, 2), CFG, threads=1)
        assert info.value is draws["error"]
        assert threading.active_count() == before

    def test_at_most_two_halves_of_words_are_alive_at_once(self, monkeypatch):
        """The helper draws two halves ahead of the half being mapped, and a
        half's words are let go once mapped, before the next is asked for."""
        alive = []
        most = [0]
        real = np.random.Philox

        class Counted:
            def __init__(self, *args, **kwargs):
                self.inner = real(*args, **kwargs)

            def random_raw(self, size=None):
                words = self.inner.random_raw(size)
                alive.append(None)
                most[0] = max(most[0], len(alive))
                weakref.finalize(words, alive.pop)
                return words

        # Each request after the first two finds at most the one half asked
        # for before it alive, and each wait finds two halves asked for and
        # not yet taken, but at the end of the stream.
        asked, owed = [], []
        fill, wait = simmod._Filler.fill, simmod._Filler.wait

        def fill_spy(filler, draw):
            asked.append(len(alive))
            fill(filler, draw)

        def wait_spy(filler):
            owed.append(len(asked) - len(owed))
            return wait(filler)

        monkeypatch.setattr(np.random, "Philox", Counted)
        monkeypatch.setattr(simmod._Filler, "fill", fill_spy)
        monkeypatch.setattr(simmod._Filler, "wait", wait_spy)
        monkeypatch.setattr(simmod, "CHUNK_STEPS", 7)
        graph, arrivals, costs = n_setup()
        simulate(graph, arrivals, costs, ThresholdN(graph, 2), CFG, threads=1)
        # Each replication ends on a piece of one step, drawn in one half.
        assert CFG.horizon % 7 == 1
        halves = CFG.replications * (2 * (CFG.horizon // 7) + 1)
        assert len(asked) == len(owed) == halves
        assert max(asked[2:]) <= 1
        assert owed == [2] * (halves - 1) + [1]
        assert most[0] <= 2 and not alive


class InlineFiller:
    """Stands in for the helper thread: each draw is made on the calling
    thread as soon as it is asked for, so two halves of words are alive
    after every request."""

    def __init__(self):
        self.words = []

    def fill(self, draw):
        self.words.append(draw())

    def wait(self):
        return self.words.pop(0)

    def close(self):
        pass


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
    # Every run walks at the top stride from its second piece on, so its
    # tables are the same whatever the horizon.
    monkeypatch.setattr(simmod, "STEPS_PER_ENTRY", 0)
    # A helper thread holds two halves of words at once only if it has
    # drawn the next before this one is let go; drawing inline, every
    # request of every run leaves both, so the peaks do not hang on timing.
    monkeypatch.setattr(simmod, "_Filler", InlineFiller)
    stream_peak(2)  # the first run makes what every run reuses
    piece = simmod.CHUNK_STEPS * 2 * 8  # two halves of raw 64-bit words
    assert abs(stream_peak(64) - stream_peak(4)) <= piece


def stream_atoms(graph, arrivals, cfg, rep, overlap=False) -> list[int]:
    """The atoms of replication ``rep`` as the kernel's stream yields them."""
    atoms = []
    for _, _, part in simmod._arrival_chunks(graph, arrivals, cfg, [rep], overlap):
        atoms += part.tolist()
    return atoms


def reference_atoms(graph, arrivals, cfg, rep) -> list[int]:
    d_idx, s_idx = reference_streams(graph, arrivals, cfg, rep)
    return [d * graph.n_s + s for d, s in zip(d_idx, s_idx)]


class TestRawStream:
    """Classes read off raw Philox words equal the inverse-CDF classes of
    ``Generator.random``'s uniforms, which ``reference_streams`` computes."""

    @pytest.mark.parametrize(
        "x",
        [0.0, 0.25, 0.5, 0.75, 1 / 3, 0.1, 2**-60, 1 - 2**-53, 1 - 2**-54, 1.0],
    )
    def test_a_word_is_at_or_above_a_knot_exactly_when_its_uniform_is(self, x):
        knots = simmod._raw_knots(np.array([x]))
        ceiling = math.ceil(x * 2**53)
        assert len(knots) == (ceiling < 2**53)
        k = int(knots[0]) if knots else 2**64
        for w in {k - 2**11, k - 1, k, k + 1, k + 2**11 - 1, 0, 2**64 - 1}:
            if 0 <= w < 2**64:
                assert ((w >> 11) * 2.0**-53 >= x) == (w >= k)

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            pytest.param([0.5, 0.25, 0.25], [0.5, 0.5], id="dyadic knots"),
            pytest.param([0.0, 0.4, 0.0, 0.6], [0.3, 0.7, 0.0], id="zero-mass classes"),
            pytest.param([1.0], [0.2, 0.3, 0.5], id="one demand class"),
            pytest.param([0.31, 0.69], [0.77, 0.23], id="two by two"),
        ],
    )
    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("a0", [None, (0, 1)])
    def test_classes_equal_the_reference(self, alpha, beta, chunk, a0, monkeypatch):
        demand = tuple(f"d{i}" for i in range(len(alpha)))
        supply = tuple(f"s{j}" for j in range(len(beta)))
        graph = MatchingGraph(demand, supply, tuple(itertools.product(demand, supply)))
        # ArrivalDistribution refuses a zero-mass class; the stream reads
        # only the two vectors.
        arrivals = types.SimpleNamespace(alpha=np.array(alpha), beta=np.array(beta))
        cfg = SimConfig(horizon=1000, burn_in=13, seed=99, a0=a0)
        monkeypatch.setattr(simmod, "CHUNK_STEPS", chunk)
        for rep in (0, 1):
            expected = reference_atoms(graph, arrivals, cfg, rep)
            assert stream_atoms(graph, arrivals, cfg, rep) == expected
            assert stream_atoms(graph, arrivals, cfg, rep, overlap=True) == expected


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
            chain.walk(simmod._Piece(atoms, graph.n_d * graph.n_s, chain.stride), counted)
    return [chain.stride for chain in chains]


# ---- the multi-step walk against the counted one ----


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
        chain.walk(simmod._Piece(np.array(atoms, dtype=np.uint8), n_atoms, m), True)
    return chain, chain.finish()


def assert_same_walk(setup, seed, m, pieces, policy=Scrambled):
    """The chain of ``policy(graph, seed)`` at stride m meets the same
    states, counts the same one-step visits, ends in the same state and
    folds the same sums as the counted walk one arrival at a time."""
    graph = setup[0]
    one, one_out = walk_pieces(setup, policy(graph, seed), 1, pieces)
    multi, multi_out = walk_pieces(setup, policy(graph, seed), m, pieces)
    assert multi.stride == m
    assert multi.states == one.states
    assert multi.hits == one.hits
    assert multi.s == one.s
    assert multi_out == one_out


GRAPHS = {"n": n_setup, "w": w_setup}


def hand_made(mnext, truth):
    """A chain whose multi-step table is ``mnext``, in rows of width 2, and
    whose slow path fills each entry it meets unfilled from ``truth``,
    notes no visit and logs its calls as (row, codes)."""
    graph, _, costs = n_setup()
    chain = simmod._Chain(graph, costs, ThresholdN(graph, 2), math.inf)
    chain.width = 2
    chain.mnext = list(mnext)
    chain.filled = [k for k, row in enumerate(mnext) if row is not None]
    chain.mcount = np.zeros(len(mnext), dtype=np.int64)
    calls = []

    def slow(codes, t):
        calls.append((t, codes))
        for c in codes:
            k = t + c
            if chain.mnext[k] is None:
                chain.mnext[k] = truth[k]
                chain.filled.append(k)
            t = chain.mnext[k]
        return t

    chain._slow = slow
    return chain, calls


# Rows of width 2 at offsets 0 and 2; entry 2 + 1 is not filled yet, and
# leads to row 0 once it is.
TABLE = [2, 0, 0, None]
TRUTH = [2, 0, 0, 0]


class TestBlockWalk:
    """The uncounted walk of the lanes the scan does not accept, one table
    read per code, and the whole multi-step walk against the counted one."""

    def test_a_miss_at_the_first_code_goes_on_the_slow_path(self):
        # The lane's first entry holds None, so its second code fails on
        # ``None + code``.
        chain, calls = hand_made(TABLE, TRUTH)
        grid = np.array([[1, 0]], dtype=np.uint8).T
        assert chain._lanes(grid, 2) == (2, 2)
        assert calls == [(2, [1, 0])]
        assert (chain.heads, chain.cols) == ([], [])
        chain._flush()
        assert chain.mcount.tolist() == [0, 0, 0, 0]

    def test_a_miss_at_the_last_code_goes_on_the_slow_path(self):
        # The lane ends on None.
        chain, calls = hand_made(TABLE, TRUTH)
        grid = np.array([[0, 1]], dtype=np.uint8).T
        assert chain._lanes(grid, 0) == (0, 2)
        assert calls == [(0, [0, 1])]
        assert (chain.heads, chain.cols) == ([], [])

    def test_a_stalled_lane_filled_by_an_earlier_slow_walk_is_walked_uncounted(self):
        # Lanes of one code.  Lanes 1 and 3 stall in speculation on entry
        # 2 + 1; lane 1's slow walk fills it, so lane 3 is walked uncounted
        # from row 2 and kept, and the counting pass walks it again.
        chain, calls = hand_made(TABLE, TRUTH)
        grid = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        assert chain._lanes(grid, 0) == (0, 4)
        assert calls == [(2, [1])]
        assert (chain.heads, chain.cols) == ([2], [3])
        assert chain.accepted.tolist() == [True, False, True, False]
        chain._flush()
        # Lanes 0 and 2 are accepted, lane 3 is rebuilt; lane 1 was noted
        # by the slow path (here, not at all).
        assert chain.mcount.tolist() == [2, 0, 0, 1]
        assert chain.visits is None and (chain.heads, chain.cols) == ([], [])

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(0, 2**16),
        m=st.integers(2, 4),
        lane=st.sampled_from([1, 4, 8, 12, 20, 64]),
        wrong=st.booleans(),
        rows=st.sampled_from([None, 1, 2, 5]),
        states=st.sampled_from([None, 2, 3, 12]),
        draws=st.lists(st.integers(0, 5), min_size=1, max_size=400),
        cuts=st.lists(st.integers(1, 150), min_size=1, max_size=6),
    )
    def test_counts_and_end_state_equal_the_counted_walk(
        self, name, seed, m, lane, wrong, rows, states, draws, cuts
    ):
        """Lanes of ``lane`` arrivals; with ``wrong`` every odd lane is
        guessed from a wrong row, so wrong guesses reach the uncounted walk."""
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
            patch.setattr(simmod, "LANE", lane)
            if wrong:
                patch.setattr(simmod, "_speculate", misguessed(simmod._speculate))
            if rows is not None:
                patch.setattr(simmod, "STRIDE_LIMIT", rows * n_atoms**m)
            if states is not None:
                patch.setattr(simmod, "MEMO_LIMIT", states * n_atoms)
            assert_same_walk(setup, seed, m, pieces)


# ---- the speculative lane walk ----


@pytest.fixture
def lane_events(monkeypatch):
    """Where the unfilled entry falls in each lane that meets one in
    speculation (position in the lane), the restarts and drops made inside
    :meth:`_Chain._lanes`, and the lanes it walks uncounted.

    Every :meth:`_Chain._slow` call inside it holds one lane's codes, and
    each walk of lanes that keeps its table is checked against the rule:
    in lane order from the chain's row, a lane whose guess is that row and
    which met no unfilled entry is accepted; any other lane goes through
    one ``_slow`` call of its codes from that row if the table, as filled
    so far, has an unfilled entry on its path, and otherwise is walked
    uncounted, its row and column kept in ``heads`` and ``cols``.
    ``wrong kept`` counts the lanes walked uncounted whose guess alone was
    wrong, ``stalled kept`` those that met an unfilled entry in
    speculation that the slow path had filled by their turn."""
    seen = {"misses at": set(), "restarts": 0, "drops": 0, "checked": 0,
            "wrong kept": 0, "stalled kept": 0}
    depth, calls, guesses = [0], [], []
    lanes, slow, speculate = simmod._Chain._lanes, simmod._Chain._slow, simmod._speculate
    forget, drop = simmod._Chain._forget, simmod._Chain._drop

    def lanes_spy(chain, grid, t):
        depth[0] += 1
        calls.clear()
        guesses.clear()
        nxt, filled = chain.mnext, set(chain.filled)
        try:
            out = lanes(chain, grid, t)
        finally:
            depth[0] -= 1
        assert all(len(codes) == len(grid) for _, codes in calls)
        if chain.mnext is nxt:
            heads, _, ends = guesses[0]
            expected, kept = [], []
            for i in range(out[1] // len(grid)):
                stalled = ends[i] == -chain.width
                if heads[i] == t and not stalled:
                    t = int(ends[i])
                    continue
                codes = grid[:, i].tolist()
                path, u = [], t
                for c in codes:
                    path.append(u + c)
                    u = nxt[u + c]
                if filled.issuperset(path):
                    kept.append((t, i))
                    seen["stalled kept" if stalled else "wrong kept"] += 1
                else:
                    expected.append((t, codes))
                    filled.update(path)
                t = u
            assert calls == expected
            assert list(zip(chain.heads, chain.cols)) == kept
            assert out[0] == t
            seen["checked"] += 1
        return out

    def slow_spy(chain, codes, t):
        if depth[0]:
            calls.append((t, list(codes)))
        return slow(chain, codes, t)

    def speculate_spy(mirror, grid, t):
        heads, visits, ends = speculate(mirror, grid, t)
        for i in np.flatnonzero((ends < 0) & (heads >= 0)):
            # The entry visited last before the walk turns negative.
            seen["misses at"].add(int(np.count_nonzero(visits[:, i] >= 0)) - 1)
        guesses.append((heads, visits, ends))
        return heads, visits, ends

    def forget_spy(chain):
        seen["restarts"] += depth[0] > 0
        forget(chain)

    def drop_spy(chain):
        seen["drops"] += depth[0] > 0
        drop(chain)

    monkeypatch.setattr(simmod._Chain, "_lanes", lanes_spy)
    monkeypatch.setattr(simmod._Chain, "_slow", slow_spy)
    monkeypatch.setattr(simmod, "_speculate", speculate_spy)
    monkeypatch.setattr(simmod._Chain, "_forget", forget_spy)
    monkeypatch.setattr(simmod._Chain, "_drop", drop_spy)
    return seen


def misguessed(speculate):
    """``_speculate`` with every odd lane walked instead from a wrong row:
    row 0, or the row after it where the lane's guess is row 0."""

    def wrong(mirror, grid, t):
        heads, visits, ends = speculate(mirror, grid, t)
        width = -int(mirror[-1])
        for i in range(1, grid.shape[1], 2):
            u = heads[i] = width if heads[i] == 0 and len(mirror) > 3 * width else 0
            for j, c in enumerate(grid[:, i].tolist()):
                visits[j, i] = k = u + c
                u = mirror[k]
            ends[i] = u
        return heads, visits, ends

    return wrong


class TestLaneWalk:
    def test_lanes_stall_on_the_sentinel_row(self):
        # Rows of width 2 at offsets 0 and 2, then the sentinel row; entry
        # 2 + 1 is not filled.  Lane 1 meets it at its first code (from the
        # row where pass one ends lane 0), lane 2 at its last.
        mirror = np.array([2, 0, 0, -2, -2, -2])
        grid = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8).T
        heads, visits, ends = simmod._speculate(mirror, grid, 0)
        assert heads.tolist() == [0, 2, 0]
        assert visits.tolist() == [[1, 3, 0], [0, -1, 3]]
        assert ends.tolist() == [2, -2, -2]

    def test_a_lane_holds_lane_arrivals(self):
        atoms = np.zeros(200, dtype=np.uint8)
        shapes = [simmod._Piece(atoms, 2, m).lanes.shape for m in (2, 3, 4)]
        assert simmod.LANE == 64
        assert shapes == [(32, 3), (21, 3), (16, 3)]

    @pytest.mark.parametrize("lane", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("limits", ["defaults", "one-step restarts", "multi-step drops"])
    def test_misses_at_both_ends_of_lanes_and_mid_repair_restarts(
        self, lane, limits, monkeypatch, lane_events
    ):
        """Pieces of 203 steps at stride 2, in lanes of ``lane`` codes.
        Atoms 1 and 2 are rare, so codes that hold them are met late,
        anywhere in a lane; under the small limits the tables restart or
        drop inside the lanes' walks again."""
        setup = n_setup()
        monkeypatch.setattr(simmod, "LANE", 2 * lane)
        for name, value in LIMITS[limits](4, 16).items():
            monkeypatch.setattr(simmod, name, value)
        rng = np.random.default_rng(5)
        pieces = [rng.choice(4, 203, p=[0.47, 0.03, 0.03, 0.47]).tolist() for _ in range(24)]
        for seed in range(6):
            assert_same_walk(setup, seed, 2, pieces)
        if limits == "defaults":
            assert {0, lane - 1} <= lane_events["misses at"]
            assert lane_events["checked"] > 0
        if limits == "one-step restarts":
            assert lane_events["restarts"] > 0
        if limits == "multi-step drops":
            assert lane_events["drops"] > lane_events["restarts"]

    @pytest.mark.parametrize("lane", [1, 2, 3, 5, 16])
    @pytest.mark.parametrize("limits", ["defaults", "one-step restarts", "multi-step drops"])
    def test_wrong_guesses_are_walked_again(self, lane, limits, monkeypatch, lane_events):
        """Every odd lane, of ``lane`` codes, is guessed from a wrong row:
        the scan walks each such lane again from the chain's row, uncounted
        where the table has every entry on its path, else on the slow path.
        The threshold chains keep to few states, so with the default limits
        most guesses meet filled entries only."""
        setup = n_setup()
        monkeypatch.setattr(simmod, "LANE", 2 * lane)
        for name, value in LIMITS[limits](4, 16).items():
            monkeypatch.setattr(simmod, name, value)
        monkeypatch.setattr(simmod, "_speculate", misguessed(simmod._speculate))
        rng = np.random.default_rng(8)
        pieces = [rng.integers(0, 4, 203).tolist() for _ in range(12)]
        for t in range(4):
            assert_same_walk(setup, t, 2, pieces, policy=ThresholdN)
        # Under the small limits nearly every walk of lanes restarts or
        # drops its table, and a wrong guess meets an unfilled entry soon.
        if limits == "defaults":
            assert lane_events["checked"] > 0
            assert lane_events["wrong kept"] > 0


BENCH_DECIDES = Path(__file__).parent / "golden" / "bench_decides.json"


def run_bench(name, logs):
    """The bench's simulation run ``name`` at its first seed, with every
    vector handed to each policy's ``decide`` appended, in order, to a list
    of its own in ``logs``."""
    graph, arrivals, costs = load_graph(BENCH_GRAPHS[name])
    cfg = SimConfig(seed=BENCH_SEEDS[0], **BENCH_RUNS[name])
    if name == "n-model":
        t = optimal_threshold(NModelParams.from_graph(graph, arrivals, costs))
        policies = [ThresholdN(graph, t)]
    else:
        policies = [policy_from_spec(graph, spec, costs) for spec in BENCH_POLICIES[name]]
    logs += [decide_log(p) for p in policies]
    if len(policies) == 1:
        simulate(graph, arrivals, costs, policies[0], cfg, threads=1)
    else:
        compare(graph, arrivals, costs, policies, cfg, threads=1)


def bench_decides() -> dict[str, list]:
    out = {}
    for name in ("n-model", "w-model"):
        logs = []
        run_bench(name, logs)
        out[name] = [[list(x) for x in log] for log in logs]
    return out


def test_decide_calls_on_the_bench_runs_are_pinned():
    """The ``decide`` calls of the bench's N and W runs, vector by vector
    and in order, as ``golden/bench_decides.json`` holds them: recorded from
    the block walk, before lanes and the raw-word stream.  Regenerate it
    with ``PYTHONPATH=src python tests/test_kernel.py`` only after a change
    that is meant to move them."""
    assert bench_decides() == json.loads(BENCH_DECIDES.read_text())


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


if __name__ == "__main__":
    BENCH_DECIDES.write_text(json.dumps(bench_decides()) + "\n")
