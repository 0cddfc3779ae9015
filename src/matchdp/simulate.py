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
drawn in pieces of CHUNK_STEPS rows, which yields the same doubles, into
one buffer that every piece of the run reuses: a piece is mapped out of it
into a reused buffer of atoms before the next is drawn into it.  In a
serial run whose streams have more than one piece, one helper thread (a
plain thread fed by a queue, no executor) makes every draw of the run,
in order: the next piece's uniforms are drawn while the chains walk the
current one, the next replication's first piece during a replication's
last.  A pool worker draws every piece on its own thread: a pool as wide
as the CPUs leaves no core free for a helper.  The buffers are one piece
long, so memory grows with neither the horizon nor the replications, and
as no two draws overlap the results are bit-identical to drawing every
piece on the calling thread.

Every policy runs through one kernel.  A step depends only on the queue
vector and the arrival atom, so the kernel memoizes the successor of each
(state, atom) pair it meets.  A decision depends only on the post-arrival
vector x = q + a, so a pair it has not seen looks x up in a map from x to
its successor, and ``decide`` is called (and admissibility checked) once
per distinct x.  A multi-step memo, derived from the one-step one, maps a
state and m consecutive atoms to the state they lead to.  Each chain picks
its own stride m from its own counts: its first piece goes one arrival at
a time, and after each piece m is the largest stride with A**m <=
STRIDE_WIDTH and at least STEPS_PER_ENTRY steps in the call for each
entry of a row per state met so far; it never rises again (on the bench
runs: 4 on the N graph, 2 on the W graph, 1 on the NN graph and on an N
graph in heavy traffic).  Each piece is encoded once per stride in use
into codes of m atoms, shared by the chains at that stride, and the hot
loop is one table read and one visit count per m steps, with no test for
a miss (an entry not met yet holds None, and the step after it raises);
the last steps of a piece go one at a time.  Costs, queue means and level
frequencies are computed afterwards from the visit counts.  With integer
costs every partial sum is exact, so the result equals a step-by-step run
bit for bit.
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
    _check_sizes,
    _integer,
    _pair,
    role_positions,
)
from .policies import Policy, ThresholdN, _check_graph
from .states import _decision, _left, check_queue_state

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
        for name in ("horizon", "burn_in", "replications", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.q0 is not None:
            object.__setattr__(self, "q0", tuple(_integer("q0", v) for v in self.q0))
        if self.a0 is not None:
            object.__setattr__(self, "a0", _pair("a0", self.a0))
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
        """Zeros when ``q0`` is omitted, else ``q0`` as checked by
        :func:`~matchdp.states.check_queue_state`, whose ValueError is
        raised again under the name q0."""
        if self.q0 is None:
            return [0] * graph.n_nodes
        try:
            return check_queue_state(graph, self.q0).tolist()
        except ValueError as exc:
            raise ValueError(f"q0: {exc}") from None

    def initial_atom(self, graph: MatchingGraph) -> tuple[int, int] | None:
        if self.a0 is not None:
            graph.atom_index(self.a0, "a0")
        return self.a0


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

STRIDE_WIDTH = 256
"""Most entries per row of the multi-step table: with A arrival atoms no
chain walks more than m arrivals per lookup, m the largest stride with
A**m <= STRIDE_WIDTH (4 on the N graph, 3 on the W graph, 2 on graphs of 9
to 16 atoms, 1 above).  With 256 every code fits a uint8."""

STEPS_PER_ENTRY = 200
"""Steps a chain must walk per multi-step entry it may fill.  A row of A**m
entries is made for every state a multi-step walk starts from, and each
entry is filled by a miss that walks its m steps one at a time, so a chain
walks at stride m only while ``len(states) * A**m * STEPS_PER_ENTRY`` is
within the steps its memo walks in the call.

On two shared CPUs with Python 3.11, a filled entry costs 1.6-3.1 us and
a step at stride m saves 27-53 ns against stride 1 on the bench chains,
so a full table repays its fills from 35-115 steps per entry.  Forcing
each stride in turn, the fastest were 4 on the N bench chain, 2 on the W
bench chains and 1 on the NN bench chains and on an N chain in heavy
traffic; the rule picks exactly these for any value from 118 to 420 (the
W chains bound both ends), and 200 lies inside with room on both sides."""

MEMO_LIMIT = 1 << 18
"""Entries a policy's one-step transition table may hold.  A run of the
``Idle`` chain of the kernel tests on the N graph, where every state is
new, peaks at ~38 MiB (tracemalloc, 60,000 steps, the stream's buffers
included) at stride 1 and ~40 MiB at the top stride 4, with the
multi-step table beside it; folding the full table at a restart raises
the peaks to ~42 and ~45 MiB (70,000 steps)."""

STRIDE_LIMIT = 1 << 18
"""Entries a policy's multi-step table may hold.  A full one takes ~4-5 MiB
at stride 4 on the N graph: 4.2 MiB for ``Idle``, 5.1 MiB for
ThresholdN(inf) in heavy traffic, which fills 28,326 entries."""


def _stride(n_atoms: int, states: int = 0, steps: int = 0) -> int:
    """Arrivals walked per multi-step lookup by a chain whose memo holds
    ``states`` queue vectors and walks ``steps`` steps in the call: the
    largest m with n_atoms**m <= STRIDE_WIDTH and
    states * n_atoms**m * STEPS_PER_ENTRY <= steps.  1 means no multi-step
    table; with no states the width alone bounds m."""
    m = 1
    while n_atoms > 1:
        width = n_atoms ** (m + 1)
        if width > STRIDE_WIDTH or states * width * STEPS_PER_ENTRY > steps:
            break
        m += 1
    return m


class _Filler:
    """One helper thread that fills a buffer with uniforms, on request.

    ``fill(draw, n)`` asks for ``draw(out=buf[:n])`` and ``wait()`` returns
    once it is done, raising the draw's exception if it failed.  Requests
    are served in order on the one thread, so the doubles are those of
    drawing on the calling thread.  ``close()`` ends and joins the thread.
    """

    def __init__(self, buf: np.ndarray):
        import queue
        import threading

        self.requests = queue.SimpleQueue()
        self.done = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, args=(buf,))
        self.thread.start()

    def _serve(self, buf: np.ndarray) -> None:
        for draw, n in iter(self.requests.get, None):
            try:
                draw(out=buf[:n])
            # Whatever the draw raises is raised again by ``wait`` on the
            # calling thread, which would otherwise wait forever.
            except BaseException as error:
                self.done.put(error)
            else:
                self.done.put(None)

    def fill(self, draw, n: int) -> None:
        self.requests.put((draw, n))

    def wait(self) -> None:
        error = self.done.get()
        if error is not None:
            raise error

    def close(self) -> None:
        self.requests.put(None)
        self.thread.join()


def _arrival_chunks(graph: MatchingGraph, arrivals: ArrivalDistribution,
                    cfg: SimConfig, reps: Sequence[int],
                    overlap: bool) -> Iterator[tuple[int, bool, np.ndarray]]:
    """Yield (rep, counted, atoms) pieces of the streams of ``reps``, in order.

    A piece covers at most CHUNK_STEPS consecutive steps of one replication
    and never straddles the end of the burn-in; ``atoms`` holds its atom
    indices i * n_s + j in a buffer that the next piece reuses.  Every
    piece is drawn into one buffer of uniforms and mapped out of it, on
    this thread, into one buffer of atoms of the narrowest unsigned type
    that holds a code of the widest stride.  So while the chains walk a
    piece only its codes and the buffers are alive, whatever the horizon
    and the replications.

    With ``overlap`` and streams of more than one piece, one helper thread
    (:class:`_Filler`) makes every draw of the run, in (replication, piece)
    order: once a piece is mapped, the helper fills the next one, of this
    replication or the first of the next, into the buffer (numpy draws
    without the GIL) while this thread encodes and the chains walk.
    Otherwise every piece is drawn here and no thread starts.
    """
    n_atoms = graph.n_d * graph.n_s
    # The class is the count of CDF knots at or below the uniform, the
    # inverse-CDF index; the last knot is left out so a CDF that rounds
    # below 1 cannot yield a class past the last one.
    d_knots = np.cumsum(arrivals.alpha)[:-1]
    s_knots = np.cumsum(arrivals.beta)[:-1]
    first = None if cfg.a0 is None else graph.atom_index(cfg.a0, "a0")

    def size(start: int) -> int:
        return min(CHUNK_STEPS, cfg.horizon - start)

    def schedule() -> Iterator[tuple[int, int, object]]:
        for rep in reps:
            rng = np.random.Generator(np.random.Philox(key=[cfg.seed, rep]))
            for start in range(0, cfg.horizon, CHUNK_STEPS):
                yield rep, start, rng.random

    buf = np.empty((size(0), 2))
    flag = np.empty(size(0), dtype=bool)
    atom = np.empty(size(0), dtype=np.min_scalar_type(n_atoms ** _stride(n_atoms) - 1))
    draws = schedule()
    ahead = next(draws)
    with contextlib.ExitStack() as stack:
        # Streams of one piece each have no walk to overlap a draw with.
        filler = None
        if overlap and cfg.horizon > CHUNK_STEPS:
            filler = _Filler(buf)
            stack.callback(filler.close)
            filler.fill(ahead[2], size(ahead[1]))
        while ahead is not None:
            rep, start, draw = ahead
            n = size(start)
            if filler is None:
                draw(out=buf[:n])
            else:
                filler.wait()
            u, a, f = buf[:n], atom[:n], flag[:n]
            a.fill(0)
            for knot in d_knots:
                np.greater_equal(u[:, 0], knot, out=f)
                a += f
            # With one demand class every atom is a supply class, and n_s
            # itself may not fit the atom type.
            if len(d_knots):
                a *= graph.n_s
            for knot in s_knots:
                np.greater_equal(u[:, 1], knot, out=f)
                a += f
            ahead = next(draws, None)
            if filler is not None and ahead is not None:
                filler.fill(ahead[2], size(ahead[1]))
            if start == 0 and first is not None:
                a[0] = first
            cut = min(max(cfg.burn_in - start, 0), n)
            for counted, part in ((False, a[:cut]), (True, a[cut:])):
                if len(part):
                    yield rep, counted, part


def _encode(atoms: np.ndarray, n_atoms: int, stride: int) -> tuple[list[int], list[int]]:
    """Split a piece into the codes of its whole strides and the atoms left.

    The code of atoms a_1 .. a_m is their Horner sum with base n_atoms,
    a_1 the most significant; with stride 1 there are no codes and every
    atom is left.
    """
    if stride == 1:
        return [], atoms.tolist()
    body = len(atoms) - len(atoms) % stride
    codes = atoms[0:body:stride]
    for r in range(1, stride):
        codes = codes * n_atoms + atoms[r:body:stride]
    return codes.tolist(), atoms[body:].tolist()


def _walk(keys: list[int], s: int, nxt: list, hits: list[int], miss) -> int:
    """The hot loop: follow ``keys`` through one table from row offset s.

    Every step counts its entry.  An entry not met before holds None, so
    the step after it fails on ``None + key`` (a TypeError, which costs
    nothing until it is raised, so no step tests for a miss); ``miss(k)``
    then resolves entry k, returning the successor with the (possibly new)
    table and counts to go on with, and that step is taken again.
    """
    keys = iter(keys)
    while True:
        try:
            for c in keys:
                k = s + c
                s = nxt[k]
                hits[k] += 1
            break
        except TypeError:
            s, nxt, hits = miss(k)
            k = s + c
            s = nxt[k]
            hits[k] += 1
    if s is None:
        s, nxt, hits = miss(k)
    return s


class _Chain:
    """One policy's chain, memoized per (queue vector, arrival atom).

    Visited queue vectors get small integer ids; with A arrival atoms,
    ``next[id * A + a]`` holds the row offset (id * A) of the successor
    after atom a, or None until the pair is first met.  ``after`` maps each
    post-arrival vector x met so far to its checked successor's row
    offset, so two pairs (q, a) and (q', a') with q + a = q' + a' ask
    ``decide`` once between them.  ``hits`` counts the visits per entry;
    costs, queue sums and level counts follow from the counted ones state
    by state.  A table that would pass MEMO_LIMIT entries is folded into
    the running sums and restarted, with ``after``, from the current
    state.

    With stride m > 1 a second table, derived from the first, takes m
    arrivals per lookup: ``mnext[row + code]`` is the row of the state that
    the m atoms of ``code`` lead to, and ``mhits`` counts its visits.  Rows
    are made for the states a multi-step walk starts from.  A miss walks
    its m steps through the one-step table, which counts them and asks
    ``decide`` only where that table misses, so the one-step table and the
    ``decide`` calls are those of a walk one arrival at a time.  Before the
    one-step visits are folded, the hits of each entry in ``filled`` (the
    multi-step entries stored so far) are replayed onto the one-step
    entries that entry stands for.  A multi-step table that would pass
    STRIDE_LIMIT entries is replayed and dropped; a one-step restart drops
    it too.

    The stride follows from the chain's own counts (see :func:`_stride`):
    the first piece a chain walks in a call goes one arrival at a time, and
    after each piece the stride is the rule's for the states met so far
    and the ``steps`` its memo walks in the call, never above the last.  A
    fall replays and drops the multi-step table.
    """

    def __init__(self, graph: MatchingGraph, costs: CostVector, policy: Policy,
                 steps: int):
        self.graph = graph
        self.policy = policy
        self.steps = steps
        self.n_atoms = graph.n_d * graph.n_s
        self.top = _stride(self.n_atoms)
        self._set_stride(1)
        self.cvec = [float(c) for c in costs.vector]
        self.level_of = None
        if isinstance(policy, ThresholdN) and policy.t != math.inf:
            from .nshaped import level_of_state

            (d1,), d2, s1, (s2,) = role_positions(graph, N_SHAPED)
            roles = operator.itemgetter(d1, d2, s1, s2)
            self.level_of = lambda key: level_of_state(policy.t, roles(key))
        self._forget()

    def _set_stride(self, m: int) -> None:
        self.stride = m
        self.width = self.n_atoms**m
        self.paths = list(itertools.product(range(self.n_atoms), repeat=m))

    def _restride(self) -> None:
        """After a piece: the stride of the next, from the states met so far."""
        self.top = min(self.top, _stride(self.n_atoms, len(self.states), self.steps))
        if self.top != self.stride:
            if self.stride > 1:
                self._replay()
                self._drop()
            self._set_stride(self.top)

    def _forget(self) -> None:
        self.ids: dict[tuple[int, ...], int] = {}
        self.states: list[tuple[int, ...]] = []
        self.levels: list[int | None] = []
        self.next: list[int | None] = []
        self.hits: list[int] = []
        self.after: dict[tuple[int, ...], int] = {}
        self._drop()

    def _drop(self) -> None:
        self.rows: dict[int, int] = {}
        self.starts: list[int] = []
        self.mnext: list[int | None] = []
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
            if self.level_of is not None:
                self.levels.append(self.level_of(key))
            self.next += [None] * self.n_atoms
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
            self.mnext += [None] * self.width
            self.mhits += [0] * self.width
        return row

    def _replay(self) -> None:
        """Move the multi-step hits onto the one-step entries they stand for."""
        nxt, hits, mhits = self.next, self.hits, self.mhits
        width, starts, paths = self.width, self.starts, self.paths
        for k in self.filled:
            seen = mhits[k]
            if seen:
                row, code = divmod(k, width)
                s = starts[row]
                for a in paths[code]:
                    step = s + a
                    hits[step] += seen
                    s = nxt[step]
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
        if self.level_of is not None:
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
        self.level_counts = None if self.level_of is None else [0] * (self.policy.t + 1)
        self.s = self._locate(q0)

    def walk(self, piece: tuple[list[int], list[int]], counted: bool) -> None:
        """Advance the chain over a piece of the arrival stream, given as
        :func:`_encode`'s (codes, atoms left) at the chain's stride, then
        pick the stride of the next piece.

        Steps are counted in every piece; the first counted piece of a
        replication drops what the burn-in (or the last replication) left.
        """
        if counted and not self.counting:
            self.hits = [0] * len(self.next)
            self.mhits = [0] * len(self.mnext)
            self.counting = True
        codes, tail = piece
        s = self.s
        if codes:
            row = _walk(codes, self._row(s), self.mnext, self.mhits, self._multi_miss)
            s = self.starts[row // self.width]
        self.s = _walk(tail, s, self.next, self.hits, self._miss)
        self._restride()

    def _multi_miss(self, k: int) -> tuple[int, list, list[int]]:
        """Walk the steps of entry k = multi-step row + code one at a time
        and store the row they end on."""
        row, code = divmod(k, self.width)
        mnext, filled = self.mnext, self.filled
        # The walk counted entry k, whose steps are counted one at a time
        # below; the count it will replay must not hold this visit too.
        self.mhits[k] -= 1
        s = _walk(self.paths[code], self.starts[row], self.next, self.hits, self._miss)
        # After a restart or a drop ``mnext`` is the discarded table, so
        # the store is moot.
        mnext[k] = end = self._row(s)
        filled.append(k)
        return end, self.mnext, self.mhits

    def _miss(self, k: int) -> tuple[int, list, list[int]]:
        """Store the successor of entry k = row offset + atom, which the walk
        has counted, asking ``decide`` only for a post-arrival vector x not
        met before."""
        sid, a = divmod(k, self.n_atoms)
        x = list(self.states[sid])
        d, s = self.graph.atom_ends[a]
        x[d] += 1
        x[s] += 1
        key = tuple(x)
        nxt = self.next
        off = self.after.get(key)
        if off is None:
            decision = self.policy.decide(x)
            u = _decision(self.policy.label, decision, len(self.graph.edges)).tolist()
            y = _left(self.graph, x, u)
            if y is None:
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
        post = list(self.node_sums)
        for (d, s), seen in zip(self.graph.atom_ends, self.atom_counts):
            post[d] += seen
            post[s] += seen
        total = float(sum(c * n for c, n in zip(self.cvec, post)))
        return total, self.node_sums, self.level_counts


def _replicate(chains: Sequence[_Chain], graph: MatchingGraph,
               arrivals: ArrivalDistribution, cfg: SimConfig, reps: Sequence[int],
               overlap: bool = True) -> list[tuple]:
    """Walk every chain over the streams of ``reps``, replication by
    replication and piece by piece; per replication, one (cost, node sums,
    level counts) per chain.

    Each piece is encoded once per stride in use, when the first chain at
    that stride walks it, and the chains at one stride share its codes.
    The last piece's codes are dropped before this piece's are made, so
    no two pieces' codes are held at once.  ``overlap`` lets one helper
    thread draw the streams (see :func:`_arrival_chunks`).  The stream is
    closed on the way out, so its helper ends with the run even when a
    chain raises.
    """
    q0 = tuple(cfg.initial_queue(graph))
    n_atoms = graph.n_d * graph.n_s
    outs = []
    stream = _arrival_chunks(graph, arrivals, cfg, reps, overlap)
    with contextlib.closing(stream):
        for _, pieces in itertools.groupby(stream, operator.itemgetter(0)):
            for chain in chains:
                chain.start(q0)
            for _, counted, atoms in pieces:
                piece = {}
                for chain in chains:
                    m = chain.stride
                    if m not in piece:
                        piece[m] = _encode(atoms, n_atoms, m)
                    chain.walk(piece[m], counted)
            outs.append(tuple(chain.finish() for chain in chains))
    return outs


def _replication_job(args) -> tuple:
    """One replication in a pool worker, drawn on the worker's own thread:
    a pool as wide as the CPUs leaves no core free for a helper's fill."""
    graph, arrivals, costs, policies, cfg, rep = args
    chains = [_Chain(graph, costs, p, cfg.horizon) for p in policies]
    return _replicate(chains, graph, arrivals, cfg, [rep], overlap=False)[0]


def _run(graph, arrivals, costs, policies, cfg, threads) -> list[tuple]:
    """Per replication, one (cost, node sums, level counts) per policy.

    Serially each policy keeps one memo across its replications, and at
    most one helper thread draws the streams of the run; in a pool every
    job builds its own memo.  A policy bound to another graph (one that
    differs in its nodes or in its edge order) raises ValueError, and so
    does a ``q0`` or ``a0`` that does not fit the graph, before any worker
    process or helper thread starts, as do arrivals or costs sized for
    another graph.
    """
    for policy in policies:
        _check_graph(policy, graph)
    _check_sizes(graph, arrivals, costs)
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
    steps = cfg.horizon * cfg.replications
    chains = [_Chain(graph, costs, p, steps) for p in policies]
    return _replicate(chains, graph, arrivals, cfg, reps)


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
    threads = _integer("threads", threads)
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
    for first, second in itertools.combinations(ordered, 2):
        diffs = [ma - mb for ma, mb in zip(first.rep_means, second.rep_means)]
        se = (
            statistics.stdev(diffs) / math.sqrt(len(diffs))
            if len(diffs) > 1
            else math.nan
        )
        pairs.append(
            PairedDiff(first.label, second.label, statistics.fmean(diffs), se)
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
    """One row per ordered pair with means and the paired difference.

    The pairs are matched to their results by position, in the order
    :func:`compare` builds them, so two policies that share a label keep
    their own means.
    """
    if isinstance(file, (str, Path)):
        with open(file, "w", encoding="utf-8", newline="") as handle:
            write_comparison_csv(handle, result)
        return
    import csv

    writer = csv.writer(file)
    writer.writerow(
        ["first", "second", "first_mean", "second_mean", "diff_mean", "diff_se"]
    )
    ordered = itertools.combinations(result.results, 2)
    for pair, (first, second) in zip(result.pairs, ordered):
        writer.writerow(
            [
                pair.first,
                pair.second,
                repr(first.mean),
                repr(second.mean),
                repr(pair.mean),
                repr(pair.se),
            ]
        )
