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
for every policy, which is what makes comparisons paired.  The block is
drawn in pieces of CHUNK_STEPS rows, which yields the same doubles.  In a
serial run one helper thread per replication makes every draw, in order,
one piece ahead: the next piece's uniforms are drawn while the chains walk
the current one (a stream of one piece is drawn on the calling thread and
starts no thread).  A pool worker draws every piece on its own thread: a
pool as wide as the CPUs leaves no core free for a helper.  At most two
pieces of uniforms are alive, so memory does not grow with the horizon,
and as no two draws overlap the results are bit-identical to drawing
every piece on the calling thread.

Every policy runs through one kernel.  A step depends only on the queue
vector and the arrival atom, so the kernel memoizes the successor of each
(state, atom) pair it meets.  A decision depends only on the post-arrival
vector x = q + a, so a pair it has not seen looks x up in a map from x to
its successor, and ``decide`` is called (and admissibility checked) once
per distinct x.  A multi-step memo, derived from the one-step one, maps a
state and m consecutive atoms to the state they lead to, with m the
largest stride whose A**m codes fit STRIDE_WIDTH (3 on the N graph, 2 on
the W graph, 1 on graphs with more than 8 atoms).  Each piece of the stream
is encoded once into codes of m atoms, shared by every policy, and the hot
loop is one table read and one visit count per m steps; the last steps of
a piece go one at a time.  Costs, queue means and level frequencies are
computed afterwards from the visit counts.  With integer costs every
partial sum is exact, so the result equals a step-by-step run bit for bit.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import Inadmissible
from .graphs import (
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    N_SHAPED,
    classify,
)
from .policies import Policy, ThresholdN
from .states import n_layout

MAX_SEED = 2**64


def _integer(name: str, value) -> int:
    """``value`` as an int; a float or other non-integer raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        for name in ("horizon", "burn_in", "replications", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("q0", "a0"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(
                    self, name, tuple(_integer(name, v) for v in values)
                )
        if self.a0 is not None and len(self.a0) != 2:
            raise ValueError(
                f"a0 must have 2 entries (demand, supply class), got {self.a0}"
            )
        if not 0 <= self.burn_in < self.horizon:
            raise ValueError(
                f"need horizon > burn_in >= 0, got horizon={self.horizon}, "
                f"burn_in={self.burn_in}"
            )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @property
    def counted(self) -> int:
        return self.horizon - self.burn_in

    def initial_queue(self, graph: MatchingGraph) -> list[int]:
        if self.q0 is None:
            return [0] * graph.n_nodes
        q = list(self.q0)
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
        i, j = self.a0
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


# ---- the simulation kernel ----

CHUNK_STEPS = 1 << 16
"""Arrival steps drawn, and walked by every policy, per piece of a stream."""

STRIDE_WIDTH = 64
"""Entries per row of the multi-step table: with A arrival atoms a chain
walks m arrivals per lookup, m the largest stride with A**m <= STRIDE_WIDTH."""

MEMO_LIMIT = 1 << 18
"""Entries a policy's one-step transition table may hold.  A full one takes
~25 MB, and ~36 MB with the post-arrival vectors it maps when every state
is new (tracemalloc, the ``Idle`` chain of the kernel tests on the N graph
at stride 1); ~41 MB with a full multi-step table beside it."""

STRIDE_LIMIT = 1 << 18
"""Entries a policy's multi-step table may hold (a full one takes ~5 MB)."""


def _stride(n_atoms: int) -> int:
    """Arrivals walked per multi-step lookup; 1 means no multi-step table."""
    m = 1
    while n_atoms > 1 and n_atoms ** (m + 1) <= STRIDE_WIDTH:
        m += 1
    return m


def _arrival_chunks(graph: MatchingGraph, arrivals: ArrivalDistribution,
                    cfg: SimConfig, rep: int,
                    overlap: bool) -> Iterator[tuple[bool, list[int], list[int]]]:
    """Yield (counted, codes, tail) pieces of one replication's arrival stream.

    A piece covers at most CHUNK_STEPS consecutive steps and never
    straddles the end of the burn-in; ``codes`` and ``tail`` are its atom
    indices i * n_s + j as encoded by :func:`_encode`.  With ``overlap``
    and more than one piece, one helper thread makes every draw, in order:
    the next piece's uniforms are requested before this piece is mapped, so
    numpy fills them (without the GIL) while this thread maps, encodes and
    walks.  No array of a piece is kept once it is encoded, so while the
    chains walk a piece only its two lists and the next piece's uniforms
    are alive.
    """
    n_atoms = graph.n_d * graph.n_s
    stride = _stride(n_atoms)
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, rep]))
    # The class is the count of CDF knots at or below the uniform, the
    # inverse-CDF index; the last knot is left out so a CDF that rounds
    # below 1 cannot yield a class past the last one.
    d_knots = np.cumsum(arrivals.alpha)[:-1]
    s_knots = np.cumsum(arrivals.beta)[:-1]
    first = cfg.initial_atom(graph)
    starts = range(0, cfg.horizon, CHUNK_STEPS)

    def shape(start: int) -> tuple[int, int]:
        return min(CHUNK_STEPS, cfg.horizon - start), 2

    # A stream drawn without overlap, or of one piece (no walk to overlap
    # its draw with), imports no executor, starts no thread and is drawn here.
    overlap = overlap and len(starts) > 1
    with contextlib.ExitStack() as stack:
        if overlap:
            from concurrent.futures import ThreadPoolExecutor

            helper = stack.enter_context(ThreadPoolExecutor(max_workers=1))
            ahead = helper.submit(rng.random, shape(0))
        for start in starts:
            u = ahead.result() if overlap else rng.random(shape(start))
            if overlap and start + CHUNK_STEPS < cfg.horizon:
                ahead = helper.submit(rng.random, shape(start + CHUNK_STEPS))
            atom = np.zeros(len(u), dtype=np.intp)
            for knot in d_knots:
                atom += u[:, 0] >= knot
            atom *= graph.n_s
            for knot in s_knots:
                atom += u[:, 1] >= knot
            if start == 0 and first is not None:
                atom[0] = first[0] * graph.n_s + first[1]
            cut = min(max(cfg.burn_in - start, 0), len(atom))
            pieces = [
                (counted, *_encode(part, n_atoms, stride))
                for counted, part in ((False, atom[:cut]), (True, atom[cut:]))
                if len(part)
            ]
            del u, atom
            yield from pieces


def _encode(atoms: np.ndarray, n_atoms: int, stride: int) -> tuple[list[int], list[int]]:
    """Split a piece into the codes of its whole strides and the atoms left.

    The code of atoms a_1 .. a_m is their Horner sum with base n_atoms,
    a_1 the most significant; with stride 1 the codes are the atoms.
    """
    body = len(atoms) - len(atoms) % stride
    codes = atoms[0:body:stride]
    for r in range(1, stride):
        codes = codes * n_atoms + atoms[r:body:stride]
    return codes.tolist(), atoms[body:].tolist()


def _walk(keys: list[int], s: int, nxt: list[int], hits: list[int], miss) -> int:
    """The hot loop: follow ``keys`` through one table from row offset s.

    A hit counts its entry; a miss leaves the count to ``miss(k)``, which
    resolves entry k and returns the successor with the (possibly new)
    table and counts to go on with.
    """
    for c in keys:
        k = s + c
        s = nxt[k]
        if s < 0:
            s, nxt, hits = miss(k)
        else:
            hits[k] += 1
    return s


class _Chain:
    """One policy's chain, memoized per (queue vector, arrival atom).

    Visited queue vectors get small integer ids; with A arrival atoms,
    ``next[id * A + a]`` holds the row offset (id * A) of the successor
    after atom a, or -1 until the pair is first met.  ``after`` maps each
    post-arrival vector x met so far to its checked successor's row
    offset, so two pairs (q, a) and (q', a') with q + a = q' + a' ask
    ``decide`` once between them.  ``hits`` counts the visits per entry;
    costs, queue sums and level counts follow from the counted ones state
    by state.  A table that would pass MEMO_LIMIT entries is folded into
    the running sums and restarted, with ``after``, from the current
    state.

    With stride m > 1 (see STRIDE_WIDTH) a second table, derived from the
    first, takes m arrivals per lookup: ``mnext[row + code]`` is the row of
    the state that the m atoms of ``code`` lead to, and ``mhits`` counts
    its visits.  Rows are made for the states a multi-step walk starts
    from.  A miss walks its m steps through the one-step table, which
    counts them and asks ``decide`` only where that table misses, so the
    one-step table and the ``decide`` calls are those of a walk one
    arrival at a time.  Before the one-step visits are folded, the hits
    of each entry in ``filled`` (the multi-step entries stored so far) are
    replayed onto the one-step entries that entry stands for.
    A multi-step table that would pass STRIDE_LIMIT entries is replayed
    and dropped; a one-step restart drops it too.
    """

    def __init__(self, graph: MatchingGraph, costs: CostVector, policy: Policy):
        self.graph = graph
        self.policy = policy
        self.n_atoms = graph.n_d * graph.n_s
        self.stride = _stride(self.n_atoms)
        self.width = self.n_atoms ** self.stride
        self.paths = list(itertools.product(range(self.n_atoms), repeat=self.stride))
        self.cvec = [float(c) for c in costs.vector]
        self.layout = None
        if (isinstance(policy, ThresholdN) and classify(graph).tag == N_SHAPED
                and policy.t != math.inf):
            from .nshaped import level_of_state

            self.layout = n_layout(graph)
            self.level_of = level_of_state
        self._forget()

    def _forget(self) -> None:
        self.ids: dict[tuple[int, ...], int] = {}
        self.states: list[tuple[int, ...]] = []
        self.levels: list[int | None] = []
        self.next: list[int] = []
        self.hits: list[int] = []
        self.after: dict[tuple[int, ...], int] = {}
        self._drop()

    def _drop(self) -> None:
        self.rows: dict[int, int] = {}
        self.starts: list[int] = []
        self.mnext: list[int] = []
        self.mhits: list[int] = []
        self.filled: list[int] = []

    def _locate(self, key: tuple[int, ...]) -> int:
        """Row offset of a queue vector, registering it when new."""
        sid = self.ids.get(key)
        if sid is None:
            if len(self.next) + self.n_atoms > MEMO_LIMIT:
                self._fold()
                self._forget()
            sid = self.ids[key] = len(self.states)
            self.states.append(key)
            if self.layout is not None:
                lay = self.layout
                self.levels.append(self.level_of(
                    self.policy.t, (key[lay.d1], key[lay.d2], key[lay.s1], key[lay.s2])
                ))
            self.next += [-1] * self.n_atoms
            self.hits += [0] * self.n_atoms
        return sid * self.n_atoms

    def _row(self, s: int) -> int:
        """Multi-step row offset of the state at one-step offset s, made when new."""
        row = self.rows.get(s)
        if row is None:
            if len(self.mnext) + self.width > STRIDE_LIMIT:
                self._replay()
                self._drop()
            row = self.rows[s] = len(self.mnext)
            self.starts.append(s)
            self.mnext += [-1] * self.width
            self.mhits += [0] * self.width
        return row

    def _replay(self) -> None:
        """Move the multi-step hits onto the one-step entries they stand for."""
        nxt, hits, mhits = self.next, self.hits, self.mhits
        for k in self.filled:
            seen = mhits[k]
            if seen:
                row, code = divmod(k, self.width)
                s = self.starts[row]
                for a in self.paths[code]:
                    hits[s + a] += seen
                    s = nxt[s + a]
                mhits[k] = 0

    def _fold(self) -> None:
        """Add the counted visits gathered so far to the running sums."""
        if not self.counting:
            return
        self._replay()
        hits, width = self.hits, self.n_atoms
        visits = [sum(hits[b:b + width]) for b in range(0, len(hits), width)]
        for a in range(width):
            self.atom_counts[a] += sum(hits[a::width])
        for k, column in enumerate(zip(*self.states)):
            self.node_sums[k] += sum(map(operator.mul, visits, column))
        if self.layout is not None:
            counts = self.level_counts
            for level, seen in zip(self.levels, visits):
                if level is not None and seen:
                    counts.extend([0] * (level + 1 - len(counts)))
                    counts[level] += seen

    def start(self, q0: tuple[int, ...]) -> None:
        """Begin a replication at q0; the memo carries over."""
        self.counting = False
        self.node_sums = [0] * self.graph.n_nodes
        self.atom_counts = [0] * self.n_atoms
        self.level_counts = None if self.layout is None else [0] * (self.policy.t + 1)
        self.s = self._locate(q0)

    def walk(self, codes: list[int], tail: list[int], counted: bool) -> None:
        """Advance the chain over a piece of the arrival stream, given as
        the codes of its whole strides and the atoms left over.

        Steps are counted in every piece; the first counted piece of a
        replication drops what the burn-in (or the last replication) left.
        """
        if counted and not self.counting:
            self.hits = [0] * len(self.next)
            self.mhits = [0] * len(self.mnext)
            self.counting = True
        s = self.s
        if self.stride == 1:
            tail = codes
        elif codes:
            row = _walk(codes, self._row(s), self.mnext, self.mhits, self._multi_miss)
            s = self.starts[row // self.width]
        self.s = _walk(tail, s, self.next, self.hits, self._miss)

    def _multi_miss(self, k: int) -> tuple[int, list[int], list[int]]:
        """Walk the steps of entry k = multi-step row + code one at a time
        and store the row they end on."""
        row, code = divmod(k, self.width)
        mnext, filled = self.mnext, self.filled
        s = _walk(self.paths[code], self.starts[row], self.next, self.hits, self._miss)
        # After a restart or a drop ``mnext`` is the discarded table, so
        # the store is moot.
        mnext[k] = end = self._row(s)
        filled.append(k)
        return end, self.mnext, self.mhits

    def _miss(self, k: int) -> tuple[int, list[int], list[int]]:
        """Count entry k = row offset + atom and store its successor, asking
        ``decide`` only for a post-arrival vector x not met before."""
        self.hits[k] += 1
        graph, nd = self.graph, self.graph.n_d
        sid, a = divmod(k, self.n_atoms)
        x = list(self.states[sid])
        i, j = divmod(a, graph.n_s)
        x[i] += 1
        x[nd + j] += 1
        key = tuple(x)
        nxt = self.next
        off = self.after.get(key)
        if off is None:
            u = np.asarray(self.policy.decide(x), dtype=np.int64).tolist()
            y = list(x)
            for e, (ei, ej) in enumerate(graph.edge_index):
                y[ei] -= u[e]
                y[nd + ej] -= u[e]
            if min(u) < 0 or min(y) < 0:
                raise Inadmissible(
                    f"policy {self.policy.label} returned u={u} at x={x}"
                )
            off = self._locate(tuple(y))
            # After a restart ``after`` is the new table's, and so is ``off``.
            self.after[key] = off
        # After a restart ``nxt`` is the discarded table, so the store is moot.
        nxt[k] = off
        return off, self.next, self.hits

    def finish(self) -> tuple[float, list[int], list[int] | None]:
        """(total counted cost, node occupancy sums, level counts)."""
        self._fold()
        nd = self.graph.n_d
        post = list(self.node_sums)
        for (i, j), seen in zip(self.graph.arrival_atoms, self.atom_counts):
            post[i] += seen
            post[nd + j] += seen
        total = float(sum(c * n for c, n in zip(self.cvec, post)))
        return total, self.node_sums, self.level_counts


def _replicate(chains: Sequence[_Chain], graph: MatchingGraph,
               arrivals: ArrivalDistribution, cfg: SimConfig, rep: int,
               overlap: bool = True) -> tuple:
    """Walk every chain over one replication's stream, piece by piece.

    Each piece is encoded once and the codes are shared by every chain.
    ``overlap`` draws the stream on a helper thread (see
    :func:`_arrival_chunks`).  The stream is closed on the way out, so its
    helper thread ends with the replication even when a chain raises.
    """
    q0 = tuple(cfg.initial_queue(graph))
    for chain in chains:
        chain.start(q0)
    stream = _arrival_chunks(graph, arrivals, cfg, rep, overlap)
    with contextlib.closing(stream):
        for counted, codes, tail in stream:
            for chain in chains:
                chain.walk(codes, tail, counted)
    return tuple(chain.finish() for chain in chains)


def _replication_job(args) -> tuple:
    """One replication in a pool worker, drawn on the worker's own thread:
    a pool as wide as the CPUs leaves no core free for a helper's fill."""
    graph, arrivals, costs, policies, cfg, rep = args
    chains = [_Chain(graph, costs, p) for p in policies]
    return _replicate(chains, graph, arrivals, cfg, rep, overlap=False)


def _run(graph, arrivals, costs, policies, cfg, threads) -> list[tuple]:
    """Per replication, one (cost, node sums, level counts) per policy.

    Serially each policy keeps one memo across its replications; in a
    pool every job builds its own.  A policy bound to another graph (one
    that differs in its nodes or in its edge order) raises ValueError, and
    so does a ``q0`` or ``a0`` that does not fit the graph, before any
    worker process or helper thread starts.
    """
    for policy in policies:
        if policy.graph != graph:
            raise ValueError(f"policy {policy.label} is bound to another graph")
    cfg.initial_queue(graph)
    cfg.initial_atom(graph)
    width = _thread_width(threads, cfg.replications)
    reps = range(cfg.replications)
    if width > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=width) as pool:
            return list(pool.map(
                _replication_job,
                [(graph, arrivals, costs, policies, cfg, r) for r in reps],
            ))
    chains = [_Chain(graph, costs, p) for p in policies]
    return [_replicate(chains, graph, arrivals, cfg, r) for r in reps]


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
        try:
            threads = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"MATCHDP_THREADS must be an integer, got {raw!r}"
            ) from None
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
    per_rep = _run(graph, arrivals, costs, (policy,), cfg, threads)
    return _aggregate(policy.label, [outs[0] for outs in per_rep], cfg)


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
    per_rep = _run(graph, arrivals, costs, tuple(policies), cfg, threads)
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


# ---- CSV output ----


def write_replication_csv(
    file: IO[str] | str | Path, results: Sequence[SimResult]
) -> None:
    """One row per (policy, replication): policy, replication, mean_cost."""
    if isinstance(file, (str, Path)):
        with open(file, "w", encoding="utf-8", newline="") as handle:
            write_replication_csv(handle, results)
        return
    import csv

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
    import csv

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
