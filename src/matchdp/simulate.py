"""Seeded Monte Carlo for the controlled matching chain.

The chain is simulated exactly as the model defines it: each step draws an
arriving pair (demand class by alpha, supply class by beta, independent),
adds it to the queue, charges the holding cost of the post-arrival vector,
and removes the policy's matching.  Replications are independent; the
standard error is computed across replication means, never within a run.

Reproducibility contract: replication r of a run with seed s consumes the
uniform stream of a Philox counter generator keyed by (s, r).  Step n uses
row n of a (horizon, 2) uniform block; the demand class is the inverse-CDF
index of column 0 under alpha, the supply class of column 1 under beta.
The same (seed, replication) therefore yields the same arrival sequence
for every policy, which is what makes comparisons paired.

The structured policies have closed per-step updates, so simulation
dispatches to integer fast paths for them (the threshold rule on an N
graph reduces to a one-dimensional level walk); any other policy runs
through its ``decide`` method.  Both paths produce identical results on
the same stream.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import Inadmissible
from .graphs import (
    COMPLETE,
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    N_SHAPED,
    W_SHAPED,
    classify,
)
from .nshaped import level_of_state
from .policies import (
    FullMatch,
    Policy,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
)
from .states import n_layout, w_layout

MAX_SEED = 2**64


@dataclass(frozen=True)
class SimConfig:
    """Run geometry: horizon, burn-in, replications, seed, initial state.

    ``q0`` is the starting queue (zero when omitted) and must be balanced;
    ``a0`` optionally pins the first step's arrival pair (class indices),
    replacing the drawn one.  Costs are charged from step ``burn_in`` on.
    """

    horizon: int
    burn_in: int = 0
    replications: int = 1
    seed: int = 0
    q0: tuple[int, ...] | None = None
    a0: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.burn_in < self.horizon:
            raise ValueError(
                f"need horizon > burn_in >= 0, got horizon={self.horizon}, "
                f"burn_in={self.burn_in}"
            )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer")

    @property
    def counted(self) -> int:
        return self.horizon - self.burn_in

    def initial_queue(self, graph: MatchingGraph) -> list[int]:
        if self.q0 is None:
            return [0] * graph.n_nodes
        q = [int(v) for v in self.q0]
        if len(q) != graph.n_nodes:
            raise ValueError(
                f"q0 must have {graph.n_nodes} coordinates, got {len(q)}"
            )
        if min(q) < 0:
            raise ValueError(f"q0 must be nonnegative, got {q}")
        if sum(q[: graph.n_d]) != sum(q[graph.n_d :]):
            raise ValueError(f"q0 must be balanced, got {q}")
        return q

    def initial_atom(self, graph: MatchingGraph) -> tuple[int, int] | None:
        if self.a0 is None:
            return None
        i, j = (int(v) for v in self.a0)
        if not (0 <= i < graph.n_d and 0 <= j < graph.n_s):
            raise ValueError(f"a0 out of range: {self.a0}")
        return i, j


@dataclass(frozen=True)
class SimResult:
    """Aggregated outcome of one policy's replications.

    ``mean`` is the average of per-replication mean cost rates and ``se``
    their standard error (NaN for a single replication).  ``node_means``
    are time-average queue contents observed at the start of each counted
    step; ``level_freqs`` holds level-group frequencies of the pre-arrival
    queue, present only for a finite threshold rule on an N graph.
    """

    label: str
    mean: float
    se: float
    rep_means: tuple[float, ...]
    node_means: tuple[float, ...]
    level_freqs: tuple[float, ...] | None

    def to_record(self) -> dict:
        return {
            "kind": "simulation",
            "policy": self.label,
            "mean": self.mean,
            "se": None if math.isnan(self.se) else self.se,
            "rep_means": list(self.rep_means),
            "node_means": list(self.node_means),
            "level_freqs": None
            if self.level_freqs is None
            else list(self.level_freqs),
        }


@dataclass(frozen=True)
class PairedDiff:
    """Common-random-number difference ``first - second`` of mean cost."""

    first: str
    second: str
    mean: float
    se: float


@dataclass(frozen=True)
class CompareResult:
    """Head-to-head table: results sorted by mean cost, best first."""

    results: tuple[SimResult, ...]
    pairs: tuple[PairedDiff, ...]

    def to_record(self) -> dict:
        return {
            "kind": "comparison",
            "results": [r.to_record() for r in self.results],
            "pairs": [
                {
                    "first": p.first,
                    "second": p.second,
                    "mean": p.mean,
                    "se": None if math.isnan(p.se) else p.se,
                }
                for p in self.pairs
            ],
        }


# ---- arrival streams ----


def _arrival_streams(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    cfg: SimConfig,
    rep: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step class indices for one replication, policy-independent."""
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, rep]))
    u = rng.random((cfg.horizon, 2))
    d_idx = np.searchsorted(np.cumsum(arrivals.alpha), u[:, 0], side="right")
    s_idx = np.searchsorted(np.cumsum(arrivals.beta), u[:, 1], side="right")
    np.minimum(d_idx, graph.n_d - 1, out=d_idx)
    np.minimum(s_idx, graph.n_s - 1, out=s_idx)
    atom = cfg.initial_atom(graph)
    if atom is not None:
        d_idx[0], s_idx[0] = atom
    return d_idx, s_idx


def _atom_costs(
    graph: MatchingGraph, costs: CostVector, d_idx: np.ndarray, s_idx: np.ndarray
) -> np.ndarray:
    vec = costs.vector
    return vec[d_idx] + vec[graph.n_d + s_idx]


# ---- per-replication kernels ----
# Each returns (total counted cost, node occupancy sums, level counts).


def _run_generic(graph, costs, policy, cfg, d_idx, s_idx, threshold):
    nd = graph.n_d
    n_nodes = graph.n_nodes
    cvec = [float(v) for v in costs.vector]
    edge_index = list(graph.edge_index)
    burn = cfg.burn_in
    q = cfg.initial_queue(graph)
    total = 0.0
    node_sums = [0] * n_nodes
    counts: list[int] | None = [] if threshold is not None else None
    for n, (i, j) in enumerate(zip(d_idx.tolist(), s_idx.tolist())):
        on = n >= burn
        if on:
            for k in range(n_nodes):
                node_sums[k] += q[k]
            if counts is not None:
                level = level_of_state(threshold, q)
                if level is not None:
                    while len(counts) <= level:
                        counts.append(0)
                    counts[level] += 1
        q[i] += 1
        q[nd + j] += 1
        if on:
            c = 0.0
            for k in range(n_nodes):
                c += cvec[k] * q[k]
            total += c
        u = [int(v) for v in policy.decide(np.asarray(q, dtype=np.int64))]
        for e, (ei, ej) in enumerate(edge_index):
            take = u[e]
            q[ei] -= take
            q[nd + ej] -= take
        if min(u) < 0 or min(q) < 0:
            x = list(q)
            for e, (ei, ej) in enumerate(edge_index):
                x[ei] += u[e]
                x[nd + ej] += u[e]
            raise Inadmissible(
                f"policy {policy.label} returned u={u} at x={x} "
                f"(step {n}, replication stream)"
            )
    return total, node_sums, counts


def _run_threshold_n(graph, costs, policy, cfg, d_idx, s_idx):
    """Level walk of the threshold rule; None when q0 is off the track."""
    lay = n_layout(graph)
    q = cfg.initial_queue(graph)
    flex, miss = q[lay.d1], q[lay.d2]
    t = policy.t
    if q[lay.s2] != flex or q[lay.s1] != miss or (flex and miss) or flex > t:
        return None
    z = flex - miss
    cap = None if t == math.inf else int(t)
    # dz: +1 for a flexible (d1, s2) arrival, -1 for the unmatchable pair.
    up = (d_idx == lay.d1) & (s_idx == lay.s2_local)
    down = (d_idx == lay.d2) & (s_idx == lay.s1_local)
    dz = (up.astype(np.int8) - down.astype(np.int8)).tolist()
    cvec = costs.vector
    flex_cost = float(cvec[lay.d1] + cvec[lay.s2])
    miss_cost = float(cvec[lay.d2] + cvec[lay.s1])
    burn = cfg.burn_in
    total = float(_atom_costs(graph, costs, d_idx, s_idx)[burn:].sum())
    flex_sum = 0
    miss_sum = 0
    counts: list[int] | None = None if cap is None else [0] * (cap + 1)
    for n, step in enumerate(dz):
        if n >= burn:
            if z > 0:
                total += flex_cost * z
                flex_sum += z
            elif z < 0:
                total -= miss_cost * z
                miss_sum -= z
            if counts is not None:
                level = cap - z
                while len(counts) <= level:
                    counts.append(0)
                counts[level] += 1
        if step:
            z += step
            if cap is not None and z > cap:
                z = cap
    node_sums = [0] * graph.n_nodes
    node_sums[lay.d1] = node_sums[lay.s2] = flex_sum
    node_sums[lay.d2] = node_sums[lay.s1] = miss_sum
    return total, node_sums, counts


def _run_threshold_w(graph, costs, policy, cfg, d_idx, s_idx):
    lay = w_layout(graph)
    role_d = {lay.d1: 0, lay.d2: 1, lay.d3: 2}
    q = cfg.initial_queue(graph)
    d1, d2, d3 = q[lay.d1], q[lay.d2], q[lay.d3]
    s1, s2 = q[lay.s1], q[lay.s2]
    workload = isinstance(policy, ThresholdWWorkload)
    t21 = policy.t21
    t22 = None if workload else policy.t22
    t32 = policy.t32 if workload else None
    cvec = costs.vector
    c1, c2, c3 = float(cvec[lay.d1]), float(cvec[lay.d2]), float(cvec[lay.d3])
    c4, c5 = float(cvec[lay.s1]), float(cvec[lay.s2])
    burn = cfg.burn_in
    total = float(_atom_costs(graph, costs, d_idx, s_idx)[burn:].sum())
    sums = [0, 0, 0, 0, 0]
    for n, (i, j) in enumerate(zip(d_idx.tolist(), s_idx.tolist())):
        if n >= burn:
            total += c1 * d1 + c2 * d2 + c3 * d3 + c4 * s1 + c5 * s2
            sums[0] += d1
            sums[1] += d2
            sums[2] += d3
            sums[3] += s1
            sums[4] += s2
        role = role_d[i]
        if role == 0:
            d1 += 1
        elif role == 1:
            d2 += 1
        else:
            d3 += 1
        if j == lay.s1_local:
            s1 += 1
        else:
            s2 += 1
        if workload:
            u11 = d1 if d1 < s1 else s1
            u22 = d2 if d2 < s2 else s2
            rem_s1 = s1 - u11
            rem_d2 = d2 - u22
            rem_s2 = s2 - u22
            u32 = d3 - t32 if d3 > t32 else 0
            if u32 > rem_s2:
                u32 = rem_s2
            load = rem_d2 + d3 - u32
            u21 = load - t21 if load > t21 else 0
            if u21 > rem_s1:
                u21 = rem_s1
            if u21 > rem_d2:
                u21 = rem_d2
            d1 -= u11
            d2 -= u22 + u21
            d3 -= u32
            s1 -= u11 + u21
            s2 -= u22 + u32
        else:
            u11 = d1 if d1 < s1 else s1
            u32 = d3 if d3 < s2 else s2
            k = s1 - d1 - t21 if s1 - d1 > t21 else 0
            if k > d2:
                k = d2
            jj = s2 - d3 - t22 if s2 - d3 > t22 else 0
            if jj > d2 - k:
                jj = d2 - k
            d1 -= u11
            d2 -= k + jj
            d3 -= u32
            s1 -= u11 + k
            s2 -= u32 + jj
    node_sums = [0] * graph.n_nodes
    for role, pos in enumerate((lay.d1, lay.d2, lay.d3, lay.s1, lay.s2)):
        node_sums[pos] = sums[role]
    return total, node_sums, None


def _run_full_match(graph, costs, cfg, d_idx, s_idx):
    """Complete graph from the empty queue: everything clears each step."""
    burn = cfg.burn_in
    total = float(_atom_costs(graph, costs, d_idx, s_idx)[burn:].sum())
    return total, [0] * graph.n_nodes, None


def _run_replication(graph, arrivals, costs, policy, cfg, rep):
    d_idx, s_idx = _arrival_streams(graph, arrivals, cfg, rep)
    return _dispatch(graph, costs, policy, cfg, d_idx, s_idx)


def _dispatch(graph, costs, policy, cfg, d_idx, s_idx):
    tag = classify(graph).tag
    if type(policy) is ThresholdN and tag == N_SHAPED:
        out = _run_threshold_n(graph, costs, policy, cfg, d_idx, s_idx)
        if out is not None:
            return out
    if type(policy) in (ThresholdW, ThresholdWWorkload) and tag == W_SHAPED:
        return _run_threshold_w(graph, costs, policy, cfg, d_idx, s_idx)
    if type(policy) is FullMatch and tag == COMPLETE and not any(
        cfg.initial_queue(graph)
    ):
        return _run_full_match(graph, costs, cfg, d_idx, s_idx)
    threshold = None
    if isinstance(policy, ThresholdN) and tag == N_SHAPED and policy.t != math.inf:
        threshold = int(policy.t)
    return _run_generic(graph, costs, policy, cfg, d_idx, s_idx, threshold)


# ---- aggregation ----


def _aggregate(label: str, outs: Sequence[tuple], cfg: SimConfig) -> SimResult:
    counted = cfg.counted
    rep_means = tuple(total / counted for total, _, _ in outs)
    mean = statistics.fmean(rep_means)
    se = (
        statistics.stdev(rep_means) / math.sqrt(len(rep_means))
        if len(rep_means) > 1
        else math.nan
    )
    node_means = tuple(
        statistics.fmean(ns[k] / counted for _, ns, _ in outs)
        for k in range(len(outs[0][1]))
    )
    level_freqs = None
    if outs[0][2] is not None:
        width = max(len(counts) for _, _, counts in outs)
        level_freqs = tuple(
            statistics.fmean(
                (counts[i] if i < len(counts) else 0) / counted
                for _, _, counts in outs
            )
            for i in range(width)
        )
    return SimResult(label, mean, se, rep_means, node_means, level_freqs)


def _thread_width(threads: int | None, replications: int) -> int:
    """Worker count: the requested width (0 = one per CPU), clamped to the
    replications and the CPU count so no worker starts without work."""
    if threads is None:
        raw = os.environ.get("MATCHDP_THREADS", "").strip()
        threads = int(raw) if raw else 1
    if threads < 0:
        raise ValueError(f"thread width must be nonnegative, got {threads}")
    cpus = os.cpu_count() or 1
    return min(threads or cpus, replications, cpus)


def simulate(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    costs: CostVector,
    policy: Policy,
    cfg: SimConfig,
    *,
    threads: int | None = None,
) -> SimResult:
    """Estimate the long-run cost rate of one policy.

    Replications run independently (in parallel when ``threads`` or the
    MATCHDP_THREADS environment variable asks for more than one worker)
    and aggregation is ordered by replication index, so the result is
    identical for every thread width.
    """
    cfg.initial_queue(graph)
    width = _thread_width(threads, cfg.replications)
    reps = range(cfg.replications)
    if width > 1:
        with ProcessPoolExecutor(max_workers=width) as pool:
            outs = list(
                pool.map(
                    _replication_job,
                    [(graph, arrivals, costs, policy, cfg, r) for r in reps],
                )
            )
    else:
        outs = [
            _run_replication(graph, arrivals, costs, policy, cfg, r) for r in reps
        ]
    return _aggregate(policy.label, outs, cfg)


def _replication_job(args):
    return _run_replication(*args)


def compare(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    costs: CostVector,
    policies: Sequence[Policy],
    cfg: SimConfig,
    *,
    threads: int | None = None,
) -> CompareResult:
    """Run several policies on common random numbers and pair the results.

    Every policy sees the same arrival stream in each replication, so the
    per-policy results equal standalone :func:`simulate` calls and the
    paired differences subtract like-for-like sample paths.  Results are
    sorted by mean cost (ascending, ties by input order); pairs cover all
    ordered combinations of the sorted table.
    """
    if len(policies) < 2:
        raise ValueError(f"compare needs at least 2 policies, got {len(policies)}")
    cfg.initial_queue(graph)
    width = _thread_width(threads, cfg.replications)
    reps = range(cfg.replications)
    if width > 1:
        with ProcessPoolExecutor(max_workers=width) as pool:
            per_rep = list(
                pool.map(
                    _compare_job,
                    [(graph, arrivals, costs, tuple(policies), cfg, r) for r in reps],
                )
            )
    else:
        per_rep = [
            _compare_rep(graph, arrivals, costs, tuple(policies), cfg, r)
            for r in reps
        ]
    by_policy = list(zip(*per_rep))
    results = [
        _aggregate(policy.label, outs, cfg)
        for policy, outs in zip(policies, by_policy)
    ]
    order = sorted(range(len(results)), key=lambda k: (results[k].mean, k))
    ordered = tuple(results[k] for k in order)
    pairs = []
    for a in range(len(ordered)):
        for b in range(a + 1, len(ordered)):
            diffs = [
                ma - mb
                for ma, mb in zip(ordered[a].rep_means, ordered[b].rep_means)
            ]
            se = (
                statistics.stdev(diffs) / math.sqrt(len(diffs))
                if len(diffs) > 1
                else math.nan
            )
            pairs.append(
                PairedDiff(
                    ordered[a].label,
                    ordered[b].label,
                    statistics.fmean(diffs),
                    se,
                )
            )
    return CompareResult(ordered, tuple(pairs))


def _compare_rep(graph, arrivals, costs, policies, cfg, rep):
    d_idx, s_idx = _arrival_streams(graph, arrivals, cfg, rep)
    return tuple(
        _dispatch(graph, costs, policy, cfg, d_idx, s_idx) for policy in policies
    )


def _compare_job(args):
    return _compare_rep(*args)


# ---- CSV output ----


def write_replication_csv(
    file: IO[str] | str | Path, results: Sequence[SimResult]
) -> None:
    """One row per (policy, replication): policy, replication, mean_cost."""
    if isinstance(file, (str, Path)):
        with open(file, "w", encoding="utf-8", newline="") as handle:
            write_replication_csv(handle, results)
        return
    writer = csv.writer(file)
    writer.writerow(["policy", "replication", "mean_cost"])
    for result in results:
        for rep, value in enumerate(result.rep_means):
            writer.writerow([result.label, rep, repr(value)])


def write_comparison_csv(file: IO[str] | str | Path, result: CompareResult) -> None:
    """One row per ordered pair with means and the paired difference."""
    if isinstance(file, (str, Path)):
        with open(file, "w", encoding="utf-8", newline="") as handle:
            write_comparison_csv(handle, result)
        return
    means = {r.label: r.mean for r in result.results}
    writer = csv.writer(file)
    writer.writerow(
        ["first", "second", "first_mean", "second_mean", "diff_mean", "diff_se"]
    )
    for pair in result.pairs:
        writer.writerow(
            [
                pair.first,
                pair.second,
                repr(means[pair.first]),
                repr(means[pair.second]),
                repr(pair.mean),
                repr(pair.se),
            ]
        )
