"""Seeded Monte Carlo for the controlled matching chain.

The chain is simulated exactly as the model defines it: each step draws an
arriving pair (demand class by alpha, supply class by beta, independent),
adds it to the queue, charges the holding cost of the post-arrival vector,
and removes the policy's matching.  Replications are independent; the
standard error is computed across replication means, never within a run.

Reproducibility contract: replication r of a run with seed s consumes the
64-bit words of a Philox counter generator keyed by (s, r).  Step n reads
words 2n and 2n + 1 as the uniforms u = (w >> 11) * 2**-53 that
``Generator.random`` makes of them; the demand class is the inverse-CDF
index of the first under alpha, the supply class of the second under
beta, read off the raw words against integer knots, which is exact.  The
same (seed, replication) therefore yields the same arrival sequence for
every policy, which is what makes comparisons paired.  The stream is
walked in pieces of CHUNK_STEPS steps, each drawn in two halves, which
yields the same words, and each half is mapped into its half of a reused
buffer of atoms.  In a serial run whose streams have more than one piece,
one helper thread (a plain thread fed by a queue, no executor) makes every
draw of the run, in order, two halves ahead: the next piece is drawn while
this one is mapped and walked, the next replication's first piece during
a replication's last.  A pool worker draws every half on its own thread:
a pool as wide as the CPUs leaves no core free for a helper.  At most two
halves of words are alive at once, so memory grows with neither the
horizon nor the replications, and as no two draws overlap the results
are bit-identical to drawing every piece on the calling thread.

Every policy runs through one kernel.  A step depends only on the queue
vector and the arrival atom, so the kernel memoizes the successor of each
(state, atom) pair it meets.  A decision depends only on the post-arrival
vector x = q + a, so a pair it has not seen looks x up in a map from x to
its successor, and ``decide`` is called (and admissibility checked) once
per distinct x.  A multi-step memo, derived from the one-step one, maps a
state and m consecutive atoms to the state they lead to.  Each chain picks
its own stride m from its own counts: its first piece goes one arrival at
a time, and after each piece m is the largest stride with A**m <=
STRIDE_WIDTH and at least STEPS_PER_ENTRY steps in the call for each entry
of a row per state met so far; it never rises again (on the bench runs: 4
on the N graph, 2 on the W graph, 1 on the NN graph and on an N graph in
heavy traffic).  Each piece is encoded once per stride in use into codes
of m atoms, shared by the chains at that stride.  At stride 1 the hot loop
is one table read and one visit count per step, with no test for a miss
(an entry not met yet holds None, and the step after it raises).  At
stride m > 1 a piece's codes go in lanes of LANE codes: numpy guesses each
lane's first row (where a walk from the current row ends its predecessor)
and walks every lane from it in lockstep through a numpy mirror of the
table; one scan then accepts the lanes in order, and walks again on a slow
path a lane whose guess was wrong or that met an entry not met yet.
``np.bincount`` counts the accepted steps.  Walks of an N chain from
different rows meet within a few codes, so its guesses are almost all
right; a chain whose first judged piece has many wrong guesses walks
blocks of BLOCK codes instead, one table read per m steps with no count at
all, and after the piece one numpy pass rebuilds and counts the entries
the blocks visited.  So do the pieces before the judged one whose lanes
mostly meet entries not met yet.  Only the slow path, which notes each
entry it visits, fills the ones not met before, so ``decide`` is called on
the true path, in the order of a walk one arrival at a time; the codes
left at the end of a piece go that way too, and the atoms left one at a
time.  Costs, queue means and level frequencies are computed afterwards
from the visit counts.  With integer costs every partial sum is exact, so
the result equals a step-by-step run bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
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
"""Arrival steps walked by every policy per piece of a stream.  A piece's
raw words take 16 bytes a step; it is drawn in two halves and at most two
halves are alive at once (one mapped, the next drawn), so the stream's
words take at most 1 MiB."""

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

200 was tuned on the block walk alone, where it picked the fastest stride
on every chain measured.  Forcing each stride in turn with the lane walk
(two shared CPUs, Python 3.11, medians of 5 interleaved runs), the rule
still picks the fastest stride, or one within 5% of it, on the N and W
bench chains, the W recipe's chains and an N chain in heavy traffic; see
ROADMAP item 7."""

MEMO_LIMIT = 1 << 18
"""Entries a policy's one-step transition table may hold.  A run of the
``Idle`` chain of the kernel tests on the N graph, where every state is
new, peaks at ~37.2 MiB (tracemalloc, one replication of 60,000 steps in
pieces of 4,096, the stream's buffers included) at stride 1 and ~39.2 MiB
at the top stride 4, with the multi-step table beside it; folding the full
table at a restart raises the peaks to ~39.6 and ~43.7 MiB (70,000
steps)."""

STRIDE_LIMIT = 1 << 18
"""Entries a policy's multi-step table may hold.  The list, its numpy counts
and its numpy mirror take 8 bytes an entry each, so a full one takes
~6-7 MiB at stride 4 on the N graph: 6.2 MiB for ``Idle``, 7.0 MiB for
ThresholdN(inf) in heavy traffic, which fills 25,239 entries before its
first drop.  The mirror's sentinel row adds one row, 2 KiB at stride 4."""

BLOCK = 64
"""Codes per block of the uncounted multi-step walk.  The counting pass
makes BLOCK numpy gathers per piece, however many blocks it holds, and a
block that meets an unfilled entry is walked again whole on the slow path;
smaller blocks cost the walk more bookkeeping per block.  On two shared
CPUs with Python 3.11, in 9 interleaved runs at 16, 32, 64, 128 and 256
codes, the w-model ``compare`` of the benchmark (whose chains walk blocks)
took medians of 171, 155, 144, 154 and 166 ms."""

LANE = 16
"""Codes per lane of the speculative multi-step walk (see
:func:`_speculate`).  Each pass makes LANE numpy gathers per piece, and a
lane with a wrong guess or an unfilled entry is walked again in Python;
longer lanes also give walks from different rows more codes to meet in.
On two shared CPUs with Python 3.11, in 9 interleaved runs at 4, 8, 16, 32
and 64 codes, the n-model ``simulate`` of the benchmark took medians of
119, 106, 96, 122 and 139 ms."""

MISGUESS_SHARE = 0.1
"""Share of a chain's judged lanes that may start from a wrong guess for
the chain to keep walking lanes; above it the chain walks blocks.  With
each walk forced in turn on 6 N chains and 8 W chains (two shared CPUs,
Python 3.11, 4 replications of 500,000 steps, medians of 3 interleaved
runs), lanes took 0.53-0.88 of the blocks' time on the N chains, whose
wrong guesses are 0-4% of their judged lanes; 0.99 of it on a W chain at
12% on its first judged piece (15% overall); and 1.37-2.52 times it on
the other W chains, at 21-94% (21-56% overall), the bench W chains'
among them."""

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
    """One helper thread that makes draws on request.

    ``fill(draw)`` asks for ``draw()`` and ``wait()`` returns its result,
    raising the draw's exception if it failed.  Requests are served in
    order on the one thread, so the words are those of drawing on the
    calling thread.  ``close()`` ends and joins the thread.
    """

    def __init__(self):
        import queue
        import threading

        self.requests = queue.SimpleQueue()
        self.done = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve)
        self.thread.start()

    def _serve(self) -> None:
        for draw in iter(self.requests.get, None):
            try:
                self.done.put((draw(), None))
            # Whatever the draw raises is raised again by ``wait`` on the
            # calling thread, which would otherwise wait forever.
            except BaseException as error:
                self.done.put((None, error))

    def fill(self, draw) -> None:
        self.requests.put(draw)

    def wait(self) -> np.ndarray:
        words, error = self.done.get()
        if error is not None:
            raise error
        return words

    def close(self) -> None:
        self.requests.put(None)
        self.thread.join()


def _raw_knots(cdf: np.ndarray) -> list[np.uint64]:
    """The knots of a CDF as thresholds on raw 64-bit Philox words.

    ``Generator.random`` makes the uniform u = (w >> 11) * 2**-53 of a word
    w, so u >= x exactly when w >= ceil(x * 2**53) * 2**11: scaling by a
    power of two is exact.  A knot whose ceiling reaches 2**53 lies above
    every uniform and is left out.
    """
    knots = []
    for x in cdf.tolist():
        k = math.ceil(x * 2.0**53)
        if k < 2**53:
            knots.append(np.uint64(k << 11))
    return knots


def _arrival_chunks(graph: MatchingGraph, arrivals: ArrivalDistribution,
                    cfg: SimConfig, reps: Sequence[int],
                    overlap: bool) -> Iterator[tuple[int, bool, np.ndarray]]:
    """Yield (rep, counted, atoms) pieces of the streams of ``reps``, in order.

    A piece covers at most CHUNK_STEPS consecutive steps of one replication
    and never straddles the end of the burn-in; ``atoms`` holds its atom
    indices i * n_s + j in a buffer that the next piece reuses.  Every
    piece is drawn in halves of ceil(CHUNK_STEPS / 2) steps (a short last
    piece in one, or in a whole half and what is left), each a (steps, 2)
    block of raw Philox words, and each half is mapped out of its words, on
    this thread, into its half of one buffer of atoms of the narrowest
    unsigned type that holds a code of the widest stride; the words are let
    go once mapped.  So at most two halves of words are alive at once,
    whatever the horizon and the replications.

    With ``overlap`` and streams of more than one piece, one helper thread
    (:class:`_Filler`) makes every draw of the run, in (replication, piece,
    half) order, two halves ahead: once a half is mapped and its words let
    go, the helper is asked for the half after the next, of this piece, the
    next or the next replication's first, and draws it (without the GIL)
    while this thread maps, encodes and the chains walk.  Otherwise every
    half is drawn here and no thread starts.
    """
    n_atoms = graph.n_d * graph.n_s
    # The class is the count of CDF knots at or below the uniform, the
    # inverse-CDF index; the last knot is left out so a CDF that rounds
    # below 1 cannot yield a class past the last one.
    d_knots = _raw_knots(np.cumsum(arrivals.alpha)[:-1])
    s_knots = _raw_knots(np.cumsum(arrivals.beta)[:-1])
    first = None if cfg.a0 is None else graph.atom_index(cfg.a0, "a0")

    def size(start: int) -> int:
        return min(CHUNK_STEPS, cfg.horizon - start)

    # Every half but a stream's last is the same size: halving a short
    # last piece instead raised the peak RSS of the benchmark's n-model
    # pass by 0.67 MiB (medians of 6 passes).
    half = (CHUNK_STEPS + 1) // 2

    def schedule() -> Iterator[tuple[int, int, int, int, object]]:
        """(rep, start, lo, hi, draw) per half: steps lo .. hi - 1 of the
        piece that begins at step ``start``."""
        for rep in reps:
            bits = np.random.Philox(key=[cfg.seed, rep])
            for start in range(0, cfg.horizon, CHUNK_STEPS):
                n = size(start)
                for lo in range(0, n, half):
                    hi = min(lo + half, n)
                    draw = functools.partial(bits.random_raw, (hi - lo, 2))
                    yield rep, start, lo, hi, draw

    flag = np.empty(half, dtype=bool)
    atom = np.empty(size(0), dtype=np.min_scalar_type(n_atoms ** _stride(n_atoms) - 1))
    halves = schedule()
    with contextlib.ExitStack() as stack:
        # Streams of one piece each have no walk to overlap a draw with.
        filler = None
        if overlap and cfg.horizon > CHUNK_STEPS:
            halves, ahead = itertools.tee(halves)
            filler = _Filler()
            stack.callback(filler.close)
            for *_, draw in itertools.islice(ahead, 2):
                filler.fill(draw)
        for rep, start, lo, hi, draw in halves:
            words = draw() if filler is None else filler.wait()
            a, f = atom[lo:hi], flag[:hi - lo]
            a.fill(0)
            for knot in d_knots:
                np.greater_equal(words[:, 0], knot, out=f)
                a += f
            # Every atom is a supply class when no knot can split the
            # demand, and n_s itself may not fit the atom type.
            if d_knots:
                a *= graph.n_s
            for knot in s_knots:
                np.greater_equal(words[:, 1], knot, out=f)
                a += f
            # The helper may draw the next half only once these words are
            # let go, so no more than two halves are ever alive.
            words = None
            if filler is not None:
                for *_, draw in itertools.islice(ahead, 1):
                    filler.fill(draw)
            n = size(start)
            if hi < n:
                continue
            a = atom[:n]
            if start == 0 and first is not None:
                a[0] = first
            cut = min(max(cfg.burn_in - start, 0), n)
            for counted, part in ((False, a[:cut]), (True, a[cut:])):
                if len(part):
                    yield rep, counted, part


class _Piece:
    """A piece of the stream at one stride m: ``codes``, a numpy array of
    the codes of its consecutive runs of m atoms, and ``tail``, the list of
    atoms left after them (every atom at stride 1, which makes no codes).

    The code of atoms a_1 .. a_m is their Horner sum with base n_atoms,
    a_1 the most significant.  The lane walk and the block walk read the
    codes in shapes of their own, each made on first use and shared by the
    chains at this stride.
    """

    def __init__(self, atoms: np.ndarray, n_atoms: int, stride: int):
        body = len(atoms) - len(atoms) % stride if stride > 1 else 0
        codes = atoms[0:body:stride]
        for r in range(1, stride):
            codes = codes * n_atoms + atoms[r:body:stride]
        self.codes = codes
        self.tail = atoms[body:].tolist()

    @functools.cached_property
    def lanes(self) -> np.ndarray:
        """The whole lanes of LANE codes as a (LANE, lanes) array whose
        column i is lane i."""
        whole = len(self.codes) - len(self.codes) % LANE
        return self.codes[:whole].reshape(-1, LANE).T

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, list[list[int]]]:
        """The whole blocks of BLOCK codes, twice: as a (BLOCK, blocks)
        array whose column b is block b, which the counting pass reads, and
        as one list per block, which the walk reads."""
        whole = len(self.codes) - len(self.codes) % BLOCK
        blocks = self.codes[:whole].reshape(-1, BLOCK)
        return blocks.T, blocks.tolist()


def _speculate(mirror: np.ndarray, grid: np.ndarray,
               t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk every lane (column of ``grid``) in lockstep through the sentinel
    mirror of the multi-step table (see :meth:`_Chain._mirror`), twice.

    The first pass starts every lane at row t; the second starts each lane
    at the row where the first ended its predecessor, and lane 0 at t.
    Where walks from different rows soon reach the same row, the second
    pass starts almost every lane at the row the chain is in when it gets
    there.  Returns the second pass's first rows, the entries it visited
    (shaped as ``grid``) and its last rows.  A lane that meets an unfilled
    entry ends on the sentinel row, -width, and its later entries are
    negative.
    """
    ends = np.full(grid.shape[1], t, dtype=np.intp)
    for codes in grid:
        ends = mirror[ends + codes]
    heads = np.empty_like(ends)
    heads[0] = t
    heads[1:] = ends[:-1]
    visits = np.empty(grid.shape, dtype=np.intp)
    ends = heads
    for codes, k in zip(grid, visits):
        np.add(ends, codes, out=k)
        ends = mirror[k]
    return heads, visits, ends


def _walk(keys: list[int], s: int, nxt: list, hits: list[int], miss) -> int:
    """The counted walk: follow ``keys`` through one table from row offset s.

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


def _blocks(blocks: Iterator[tuple[int, list[int]]], t: int, nxt: list,
            heads: list[int], cols: list[int]) -> tuple[int, list[int] | None]:
    """The hot loop at stride m > 1: follow (index, block) pairs of codes
    through the multi-step table from row t, counting nothing.

    A block walked to its end appends its first row to ``heads`` and its
    index to ``cols``, from which the counting pass rebuilds its visits.
    Returns the row reached and None once ``blocks`` runs out, or the first
    row of a block that meets an entry not filled yet, and that block: an
    unfilled entry holds None, so the step after it fails on ``None +
    code`` (a TypeError), or the block ends on None.
    """
    for i, block in blocks:
        u = t
        try:
            for c in block:
                u = nxt[u + c]
        except TypeError:
            return t, block
        if u is None:
            return t, block
        heads.append(t)
        cols.append(i)
        t = u
    return t, None


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
    the m atoms of ``code`` lead to, and the numpy array ``mcount`` counts
    its visits.  Rows are made for the states a multi-step walk starts
    from.  Only the slow path (:meth:`_slow`) fills entries: it walks codes
    one lookup at a time, notes each entry it visits in ``seen`` and fills
    each entry not met before.  A fill walks its m steps through the
    one-step table, which counts them and asks ``decide`` only where that
    table misses, so the one-step table and the ``decide`` calls are those
    of a walk one arrival at a time.

    A piece's codes are walked either in lanes (:meth:`_lanes`): guessed
    in numpy and confirmed or walked again in order, their accepted steps
    kept as the grid ``visits``; or in blocks (:func:`_blocks`): walked
    without counting, a block that meets an unfilled entry walked again
    from its first row on the slow path, the blocks walked kept as
    ``heads`` and ``cols``.  A chain walks lanes until its first piece
    whose lanes mostly meet no unfilled entry is judged, and from then on
    only if few of that piece's guesses were wrong (``walk_lanes``).
    Either way the visits are counted by :meth:`_flush` after the piece,
    and before any restart or drop, on the table they were walked on.
    Before the one-step visits are folded, the counts of each entry in
    ``filled`` (the multi-step entries stored so far) are replayed onto
    the one-step entries that entry stands for.  A multi-step table that
    would pass STRIDE_LIMIT entries is replayed and dropped; a one-step
    restart drops it too.

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
        self.walk_lanes: bool | None = None
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
        """Start an empty multi-step table; what is not yet counted of the
        last one (only ever burn-in visits) is discarded with it."""
        self.rows: dict[int, int] = {}
        self.starts: list[int] = []
        self.mnext: list[int | None] = []
        self.mcount = np.zeros(0, dtype=np.int64)
        self.filled: list[int] = []
        self.mirror = np.zeros(0, dtype=np.intp)
        self.mirrored = 0
        self.heads: list[int] = []
        self.cols: list[int] = []
        self.seen: list[int] = []
        self.visits: np.ndarray | None = None

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
        return row

    def _mirror(self) -> np.ndarray:
        """The multi-step table as a numpy array with a sentinel row after
        it.  A filled entry holds its row; every other entry, the sentinel
        row's included, holds -width, which indexes the sentinel row from
        the end, so a walk that meets an unfilled entry stays there."""
        size = len(self.mnext) + self.width
        if len(self.mirror) < size:
            grown = np.full(size, -self.width, dtype=np.intp)
            # The old sentinel row lands on entries not filled yet.
            grown[:len(self.mirror)] = self.mirror
            self.mirror = grown
        new = self.filled[self.mirrored:]
        if new:
            mnext = self.mnext
            self.mirror[new] = [mnext[k] for k in new]
            self.mirrored = len(self.filled)
        return self.mirror

    def _flush(self) -> None:
        """Add the visits walked since the last flush to ``mcount``.

        The blocks in ``heads`` and ``cols`` are rebuilt in one lockstep
        pass over all of them: BLOCK gathers through a numpy mirror of the
        table, each taking every block one code further.  Each lane of
        ``visits`` is counted from step ``counted_from`` of the lane on:
        0 for a lane accepted whole, the join for a lane walked again up to
        it, and past the end for one walked again whole or not reached.
        """
        counts = np.bincount(np.array(self.seen, dtype=np.intp), minlength=len(self.mnext))
        counts[:len(self.mcount)] += self.mcount
        if self.heads:
            grid = self.grid[:, self.cols]
            mirror = self._mirror()
            t = np.array(self.heads, dtype=np.intp)
            # The entries of 16 codes of every block are counted at a time:
            # holding all 64 at once raised the w-model bench's peak RSS by
            # about 0.3 MiB.
            visited = np.empty((16, len(t)), dtype=np.intp)
            for j in range(0, len(grid), 16):
                part = grid[j:j + 16]
                for codes, k in zip(part, visited):
                    np.add(t, codes, out=k)
                    t = mirror[k]
                counts += np.bincount(visited[:len(part)].ravel(), minlength=len(counts))
        if self.visits is not None:
            visits, first = self.visits, self.counted_from
            if first.any():
                visits = visits[np.arange(len(visits))[:, None] >= first]
            counts += np.bincount(visits.ravel(), minlength=len(counts))
            self.visits = None
        self.mcount = counts
        self.heads.clear()
        self.cols.clear()
        self.seen.clear()

    def _replay(self) -> None:
        """Move the multi-step counts onto the one-step entries they stand for."""
        if not self.filled:
            return
        self._flush()
        filled = np.array(self.filled, dtype=np.intp)
        seen = self.mcount[filled]
        filled, seen = filled[seen > 0], seen[seen > 0]
        rows, codes = np.divmod(filled, self.width)
        s = np.array(self.starts, dtype=np.intp)[rows]
        nxt = np.array([-1 if v is None else v for v in self.next], dtype=np.intp)
        steps = np.array(self.paths, dtype=np.intp)[codes]
        moved = np.zeros(len(self.next), dtype=np.int64)
        for j in range(self.stride):
            step = s + steps[:, j]
            np.add.at(moved, step, seen)
            s = nxt[step]
        hits = self.hits
        landed = np.flatnonzero(moved)
        for k, count in zip(landed.tolist(), moved[landed].tolist()):
            hits[k] += count
        self.mcount[:] = 0

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

    def walk(self, piece: _Piece, counted: bool) -> None:
        """Advance the chain over a piece of the arrival stream, encoded at
        the chain's stride, then pick the stride of the next piece.

        Steps are counted in every piece; the first counted piece of a
        replication drops what the burn-in (or the last replication) left.
        """
        if counted and not self.counting:
            self.hits = [0] * len(self.next)
            self.mcount = np.zeros(len(self.mnext), dtype=np.int64)
            self.counting = True
        s = self.s
        if len(piece.codes):
            row = self._multi(piece, self._row(s))
            s = self.starts[row // self.width]
        self.s = _walk(piece.tail, s, self.next, self.hits, self._miss)
        self._restride()

    def _multi(self, piece: _Piece, t: int) -> int:
        """Walk a piece's codes from row t: its whole lanes, or its whole
        blocks if the chain walks blocks or the lanes are declined, then the
        codes left on the slow path; then count them all."""
        done = 0
        if self.walk_lanes is not False:
            t, done = self._lanes(piece.lanes, t)
        if not done:
            self.grid, blocks = piece.blocks
            done = self.grid.size
            blocks = enumerate(blocks)
            while True:
                t, block = _blocks(blocks, t, self.mnext, self.heads, self.cols)
                if block is None:
                    break
                t = self._slow(block, t)
        t = self._slow(piece.codes[done:].tolist(), t)
        self._flush()
        self.grid = None
        return t

    def _lanes(self, grid: np.ndarray, t: int) -> tuple[int, int]:
        """Walk the lanes of a piece (the columns of ``grid``) from row t;
        return the row reached and the number of codes walked.

        :func:`_speculate` walks every lane from a guessed first row.  Then,
        in lane order from the row confirmed so far, a lane whose guess is
        that row and which met no unfilled entry is accepted, and any other
        is walked again from that row: up to where it joins its speculative
        path (:meth:`_rejoin`), or whole on the slow path if that path met
        an unfilled entry.  So only the true path fills entries and asks
        ``decide``, in the order of a walk one lookup at a time.  A fill
        that restarts or drops the table ends the lanes after the one it
        falls in.

        Until the chain is judged, a piece whose lanes mostly meet an
        unfilled entry is declined (nothing is walked here, and the piece
        goes in blocks): its guesses go stale as the slow path fills the
        table, so nearly all of it would be walked again there, noting
        every entry.  The first piece whose lanes mostly meet no unfilled
        entry is judged before any walk: if more than MISGUESS_SHARE of
        its lanes that follow such a lane start from another row than that
        lane's end, the chain walks blocks from then on and nothing is
        walked here.
        """
        lanes = grid.shape[1]
        if not lanes:
            return t, 0
        stall = -self.width
        heads, visits, ends = _speculate(self._mirror(), grid, t)
        ok = ends != stall
        if self.walk_lanes is None:
            if 2 * np.count_nonzero(ok) <= lanes:
                return t, 0
            if lanes > 1:
                judged = ok[:-1]
                wrong = np.count_nonzero(judged & (heads[1:] != ends[:-1]))
                self.walk_lanes = bool(wrong <= MISGUESS_SHARE * np.count_nonzero(judged))
                if not self.walk_lanes:
                    return t, 0
        # A lane is ok when it met no unfilled entry and, past the first,
        # starts where its predecessor ended.
        ok[1:] &= heads[1:] == ends[:-1]
        self.visits = visits
        self.counted_from = first = np.full(lanes, len(grid), dtype=np.intp)
        nxt = self.mnext
        bad = iter(np.flatnonzero(~ok).tolist())
        b = next(bad, lanes)
        i = 0
        while i < lanes:
            if i < b and heads[i] == t:
                # Lanes i .. b - 1 each start where the last one ended.
                first[i:b] = 0
                t, i = int(ends[b - 1]), b
                continue
            if i == b:
                b = next(bad, lanes)
            codes = grid[:, i].tolist()
            if ends[i] == stall:
                t = self._slow(codes, t)
            else:
                t, j = self._rejoin(codes, visits[:, i].tolist(), t)
                if j is not None:
                    first[i] = j
                    t = int(ends[i])
            i += 1
            if self.mnext is not nxt:
                break
        return t, i * len(grid)

    def _rejoin(self, codes: list[int], path: list[int],
                t: int) -> tuple[int, int | None]:
        """Walk a lane's codes from row t as :meth:`_slow` does, until the
        entry visited is the one its speculative ``path`` visited at that
        step.  Returns the row reached and that step, from which the path
        is the chain's, or None if the lane never joins it (or a fill
        restarts or drops the table, after which the lane is finished on
        the slow path)."""
        nxt, note = self.mnext, self.seen.append
        for j, c in enumerate(codes):
            k = t + c
            if k == path[j]:
                return t, j
            t = nxt[k]
            if t is None:
                t = self._fill(k)
                if self.mnext is not nxt:
                    return self._slow(codes[j + 1:], t), None
            else:
                note(k)
        return t, None

    def _slow(self, codes: list[int], t: int) -> int:
        """Walk codes one lookup at a time from row t, noting each entry
        visited in ``seen`` and filling each entry not met before."""
        nxt, note = self.mnext, self.seen.append
        for c in codes:
            k = t + c
            t = nxt[k]
            if t is None:
                t = self._fill(k)
                # A fill may restart or drop the table.
                nxt, note = self.mnext, self.seen.append
            else:
                note(k)
        return t

    def _fill(self, k: int) -> int:
        """Walk the m steps of entry k = multi-step row + code one at a time
        and store the row they end on.  This visit of k is counted by those
        steps, on the one-step table, and not in ``mcount``."""
        row, code = divmod(k, self.width)
        mnext, filled = self.mnext, self.filled
        s = _walk(self.paths[code], self.starts[row], self.next, self.hits, self._miss)
        # After a restart or a drop ``mnext`` and ``filled`` are the
        # discarded table's, so the stores are moot.
        mnext[k] = end = self._row(s)
        filled.append(k)
        return end

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
        # After a restart ``nxt`` is the discarded table's, so the store is moot.
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
                        piece[m] = _Piece(atoms, n_atoms, m)
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


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    """The mean of ``values`` and its standard error, NaN for one value."""
    n = len(values)
    se = statistics.stdev(values) / math.sqrt(n) if n > 1 else math.nan
    return statistics.fmean(values), se


def _aggregate(label: str, outs: Sequence[tuple], cfg: SimConfig) -> SimResult:
    counted = cfg.counted
    rep_means = tuple(total / counted for total, _, _ in outs)
    mean, se = _mean_se(rep_means)
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
        pairs.append(PairedDiff(first.label, second.label, *_mean_se(diffs)))
    return CompareResult(ordered, tuple(pairs))


# ---- CSV output ----


@contextlib.contextmanager
def _csv_writer(file: IO[str] | str | Path, header: Sequence[str]):
    """A csv writer on ``file`` with ``header`` written: a path is opened
    here and closed on the way out, an open file is written as it is."""
    import csv

    with contextlib.ExitStack() as stack:
        if isinstance(file, (str, Path)):
            file = stack.enter_context(open(file, "w", encoding="utf-8", newline=""))
        writer = csv.writer(file)
        writer.writerow(header)
        yield writer


def write_replication_csv(
    file: IO[str] | str | Path, results: Sequence[SimResult]
) -> None:
    """One row per (policy, replication): policy, replication, mean_cost."""
    with _csv_writer(file, ["policy", "replication", "mean_cost"]) as writer:
        for result in results:
            for rep, value in enumerate(result.rep_means):
                writer.writerow([result.label, rep, repr(value)])


def write_comparison_csv(file: IO[str] | str | Path, result: CompareResult) -> None:
    """One row per ordered pair with means and the paired difference.

    The pairs are matched to their results by position, in the order
    :func:`compare` builds them, so two policies that share a label keep
    their own means.
    """
    header = ["first", "second", "first_mean", "second_mean", "diff_mean", "diff_se"]
    ordered = itertools.combinations(result.results, 2)
    with _csv_writer(file, header) as writer:
        for pair, (first, second) in zip(result.pairs, ordered):
            means = (first.mean, second.mean, pair.mean, pair.se)
            writer.writerow([pair.first, pair.second, *map(repr, means)])
