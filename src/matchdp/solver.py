"""Exact dynamic programming on the balanced sector of a truncated box.

The model's states are the balanced vectors q (equal demand and supply
totals) inside [0, cap]^nodes, paired with the arrival atom.  Every value
table, iterate and starting table has one row per balanced vector, in the
lexicographic order of ``TruncatedStateSpace.balanced_states``, and one
column per arrival atom in ``graph.arrival_atoms`` order;
``TruncatedStateSpace.rows`` maps vectors to their rows.

A matching decision acts on the post-arrival vector x = q + a, which can
reach cap + 1 on the two arriving coordinates, so the optimality operator
works on the *extended* sector: the balanced vectors in [0, cap + 1]^nodes
with at most one coordinate at cap + 1 on each side (as x has), sorted by
level (the demand total).  A successor is clipped per node at the cap.
When the clip truncates one side of a would-be overflow only,
the clipped vector is unbalanced and not a state, so that matching is not
offered; clips that truncate both sides at once (the only unavoidable kind
on the graph families treated here) land on states and stay available.

The minimization over admissible matchings is not enumerated.  The
successors of x are exactly the vectors reachable from it by removing one
matched pair at a time, and each removal lowers the level by one, so one
walk over the levels (``_greedy``) finds the lexicographically smallest
minimizing matching of every extended row at once.  Policy extraction
reads its decisions from that walk.

Every DP sweep has one form, base + theta * w[succ] (``_policy_sweep``):
the post-arrival cost plus the discounted expected value of the successor
row per (state, atom).  Solving and evaluating differ only in where succ
comes from.  An optimality backup is the first sweep of the table's greedy
policy, whose successors the walk gives, and value iteration and relative
value iteration run modified policy iteration: each backup that fails the
stopping rule is followed by more sweeps of the same greedy policy.
Fixed-policy evaluation takes its successors once, from one ``decide``
call per distinct post-arrival row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import Inadmissible, MatchDPError, NoConvergence, Unstable
from .graphs import (
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    _check_sizes,
    _integer,
    check_stability,
)
from .policies import Policy, Tabular, _check_graph, read_decisions
from .states import as_state

VI_TOL = 1e-9
RVI_SPAN_TOL = 1e-8
MAX_ITERS = 100_000
# Fixed-policy sweeps after each optimality backup that fails the stopping
# rule (modified policy iteration).
MPI_SWEEPS = 100


def _signed(top: int, floor=np.int8) -> np.dtype:
    """The narrowest signed integer dtype, no narrower than ``floor``, that
    holds every integer in [0, top]."""
    return np.promote_types(floor, np.min_scalar_type(-top - 1))


def _sector(
    graph: MatchingGraph, side: int, one_at_side: bool = False, by_level: bool = False
) -> np.ndarray:
    """Balanced vectors in [0, side]^nodes as rows, in the narrowest signed
    dtype that holds ``side``: in lexicographic order, or with ``by_level``
    sorted by level (the demand total) and lexicographically within a level.

    With ``one_at_side``, only vectors with at most one coordinate equal to
    ``side`` on each side of the graph are kept.  Each demand row is paired
    with the supply rows of its level, one level at a time.
    """
    dtype = _signed(side)

    def grid(n: int) -> np.ndarray:
        rows = np.indices((side + 1,) * n, dtype=dtype).reshape(n, -1).T
        return rows[(rows == side).sum(axis=1) <= 1] if one_at_side else rows

    demand, supply = grid(graph.n_d), grid(graph.n_s)
    d_level, s_level = demand.sum(axis=1), supply.sum(axis=1)
    if by_level:
        order = np.argsort(d_level, kind="stable")
        demand, d_level = demand[order], d_level[order]
    per_level = np.bincount(s_level, minlength=d_level.max() + 1)
    width = per_level[d_level]
    start = np.cumsum(width) - width
    out = np.empty((int(width.sum()), graph.n_nodes), dtype=dtype)
    for level, count in enumerate(per_level.tolist()):
        d = np.flatnonzero(d_level == level)
        at = (start[d, None] + np.arange(count)).ravel()
        out[at, : graph.n_d] = np.repeat(demand[d], count, axis=0)
        out[at, graph.n_d :] = np.tile(supply[s_level == level], (len(d), 1))
    return out


def _rows(codes: np.ndarray, shape: tuple[int, ...], vectors) -> np.ndarray:
    """Positions of vectors in a set given by its ascending ravel codes.

    Raises KeyError naming the first vector that is not in the set, and
    ValueError on a block that is not of an integer dtype.
    """
    vectors = np.asarray(vectors)
    if vectors.dtype.kind not in "iu":
        raise ValueError(f"state vectors must hold integers, got dtype {vectors.dtype}")
    vectors = vectors.astype(np.int64, copy=False).reshape(-1, len(shape))
    want = np.ravel_multi_index(vectors.T, shape)
    pos = np.searchsorted(codes, want)
    found = codes[np.minimum(pos, len(codes) - 1)] == want
    if not np.all(found):
        bad = tuple(int(v) for v in vectors[np.flatnonzero(~found)[0]])
        raise KeyError(f"{bad} is not a balanced state of this space")
    return pos


def _distinct(rows: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries of an array of rows in [0, n), ascending.

    Unlike ``np.unique`` this does not import ``numpy.ma``.
    """
    return np.flatnonzero(np.bincount(rows.ravel(), minlength=n))


class BackupIndex(NamedTuple):
    """Index arrays of the optimality operator on the extended sector.

    Extended rows are the balanced vectors in [0, cap + 1]^nodes with at
    most one coordinate at cap + 1 on each side, sorted by level and
    lexicographically within a level, followed by one sentinel row that
    always reads +inf.  They are closed under removing a matched pair, and
    they hold every post-arrival vector.

    - ``extended``: the vectors of the extended rows, without the sentinel,
      in the narrowest signed dtype that holds cap + 1 (int8 up to cap 126).
    - ``read``: per extended row, the state row of its clip at the cap, or
      ``len(balanced_states)`` (a +inf read) when the clip is unbalanced;
      intp.
    - ``pred``: per extended row and edge, the row one matched pair lower,
      or the sentinel row when the edge has no item at one endpoint; int32
      while the sentinel row's number fits, else int64.
    - ``levels``: (start, stop) of the rows of levels 1, 2, ... in turn.
    - ``post``: per state row and atom, the row of the post-arrival vector;
      intp.

    ``read`` and ``post`` stay intp because every backup and every sweep
    gathers through them.
    """

    extended: np.ndarray
    read: np.ndarray
    pred: np.ndarray
    levels: tuple[tuple[int, int], ...]
    post: np.ndarray


@dataclass(frozen=True)
class TruncatedStateSpace:
    """Balanced states inside the box [0, cap]^nodes, with a safety margin.

    A state is tainted when any coordinate exceeds cap - margin: its
    backups may feel the cap, so structural verdicts and policy extraction
    are restricted to the interior (untainted) states.  margin >= 1
    guarantees every state whose backup clips is tainted.
    """

    graph: MatchingGraph
    cap: int
    margin: int = 2

    def __post_init__(self) -> None:
        for name in ("cap", "margin"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")
        if not 1 <= self.margin <= self.cap:
            raise ValueError(
                f"margin must be between 1 and cap={self.cap}, got {self.margin}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        """Side lengths of the box whose ravel codes identify states."""
        return (self.cap + 1,) * self.graph.n_nodes

    @property
    def n_atoms(self) -> int:
        return self.graph.n_d * self.graph.n_s

    @cached_property
    def balanced_states(self) -> np.ndarray:
        """Balanced vectors as rows, lexicographically ordered."""
        states = _sector(self.graph, self.cap).astype(np.int64)
        states.setflags(write=False)
        return states

    @cached_property
    def balanced_codes(self) -> np.ndarray:
        """Row-major ravel codes of the balanced vectors, ascending."""
        codes = np.ravel_multi_index(self.balanced_states.T, self.shape)
        codes.setflags(write=False)
        return codes

    def rows(self, vectors) -> np.ndarray:
        """Row of each balanced vector (one per row of ``vectors``) in
        ``balanced_states`` and in every value table on this space."""
        return _rows(self.balanced_codes, self.shape, vectors)

    def state_index(self, q) -> int:
        """Position of a balanced vector in the packed state list.  q is
        read by the rule of :func:`~matchdp.states.as_state`."""
        return int(self.rows(as_state(self.graph, q))[0])

    def is_interior(self, q) -> bool:
        """Whether every entry of q, read by the rule of
        :func:`~matchdp.states.as_state`, is at most cap - margin."""
        return bool(np.all(as_state(self.graph, q) <= self.cap - self.margin))

    @cached_property
    def interior_balanced_states(self) -> np.ndarray:
        states = self.balanced_states
        keep = np.all(states <= self.cap - self.margin, axis=1)
        out = states[keep]
        out.setflags(write=False)
        return out

    @cached_property
    def interior_post_arrivals(self) -> np.ndarray:
        """Distinct post-arrival vectors q + a of the interior states, as
        rows in lexicographic order: where decisions are read and checked.

        margin >= 1 keeps each of them inside [0, cap], so they are
        balanced states and their rows order them.
        """
        graph = self.graph
        atoms = np.eye(graph.n_nodes, dtype=np.int64)[np.array(graph.atom_ends)].sum(axis=1)
        xs = self.interior_balanced_states[:, None, :] + atoms
        states = self.balanced_states
        out = states[_distinct(self.rows(xs), len(states))]
        out.setflags(write=False)
        return out

    @cached_property
    def tainted_state_count(self) -> int:
        return len(self.balanced_states) - len(self.interior_balanced_states)

    @cached_property
    def backup_index(self) -> BackupIndex:
        """Index arrays of :func:`bellman_backup`, built on its first call.

        A row's ravel code in the box [0, cap + 1]^nodes moves by a fixed
        offset when a matched pair or an arrival is removed or added, and
        the codes of one level ascend.  So each lookup adds that offset to
        the codes of a block of rows and searches the sorted codes of the
        level it lands on: the level below for ``pred``, the level above
        for ``post``, and the states for ``read``.
        """
        graph, n_d, states = self.graph, self.graph.n_d, self.balanced_states
        ext = _sector(graph, self.cap + 1, one_at_side=True, by_level=True)
        ext_shape = (self.cap + 2,) * graph.n_nodes
        codes = np.ravel_multi_index(ext.T, ext_shape)
        state_codes = np.ravel_multi_index(states.T, ext_shape)
        stride = (self.cap + 2) ** np.arange(graph.n_nodes - 1, -1, -1)
        ends = np.array(graph.edge_ends)
        edge_offset = stride[ends].sum(axis=1)
        atom_offset = stride[np.array(graph.atom_ends)].sum(axis=1)
        level = ext[:, :n_d].sum(axis=1)
        starts = np.searchsorted(level, np.arange(level[-1] + 2))

        def find(at: int, want: np.ndarray) -> np.ndarray:
            """Rows of the extended vectors of level ``at`` with codes ``want``."""
            lo, hi = starts[at], starts[at + 1]
            return lo + np.searchsorted(codes[lo:hi], want)

        read = np.full(len(ext) + 1, len(states), dtype=np.intp)
        pred = np.full(
            (len(ext), len(graph.edges)), len(ext), dtype=_signed(len(ext), np.int32)
        )
        for at in range(len(starts) - 1):
            lo, hi = starts[at], starts[at + 1]
            block, block_codes = ext[lo:hi], codes[lo:hi]
            # The clip of a row is balanced when it reaches cap + 1 on both
            # sides or on neither; it then drops one item from each such node.
            over = block == self.cap + 1
            keep = np.flatnonzero(over[:, :n_d].any(axis=1) == over[:, n_d:].any(axis=1))
            read[lo + keep] = np.searchsorted(
                state_codes, block_codes[keep] - over[keep] @ stride
            )
            if at == 0:
                continue  # the zero vector has no matched pair to remove
            row, edge = np.nonzero(np.all(block[:, ends] > 0, axis=2))
            pred[lo + row, edge] = find(at - 1, block_codes[row] - edge_offset[edge])
        post = np.empty((len(states), self.n_atoms), dtype=np.intp)
        state_level = states[:, :n_d].sum(axis=1)
        by_level = np.argsort(state_level, kind="stable")
        bounds = np.searchsorted(state_level[by_level], np.arange(state_level.max() + 2))
        for at in range(len(bounds) - 1):
            rows = by_level[bounds[at] : bounds[at + 1]]
            post[rows] = find(at + 1, state_codes[rows, None] + atom_offset)
        levels = tuple(zip(starts[1:-1].tolist(), starts[2:].tolist()))
        return BackupIndex(ext, read, pred, levels, post)


@dataclass(frozen=True)
class DPConfig:
    """Iteration controls: the discount ``theta`` (value iteration and
    discounted evaluation only), the tolerance ``tol`` on the span of
    each backup's change Tv - v (when left unset, :data:`VI_TOL` in
    discounted mode and :data:`RVI_SPAN_TOL` in average mode) and the
    backup limit ``max_iters``, an integer of at least 1.  The state-space
    geometry comes from the space passed to each solver."""

    theta: float = 0.95
    tol: float | None = None
    max_iters: int = MAX_ITERS

    def __post_init__(self) -> None:
        if self.tol is not None and not self.tol > 0:  # also rejects NaN
            raise ValueError(f"tol must be positive, got {self.tol}")
        max_iters = _integer("max_iters", self.max_iters)
        if max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {max_iters}")
        object.__setattr__(self, "max_iters", max_iters)

    def resolved_tol(self, mode: str) -> float:
        if self.tol is not None:
            return self.tol
        return VI_TOL if mode == "discounted" else RVI_SPAN_TOL


@dataclass
class ValueFunction:
    """A value table tagged with how it was produced.

    ``data`` has shape ``(len(space.balanced_states), space.n_atoms)``:
    one row per balanced state in the order of ``space.balanced_states``,
    one column per arrival atom in ``graph.arrival_atoms`` order.
    ``iterations`` counts the backups run; ``low`` and ``high`` are the
    min and the max of the last one's change Tv - v, and ``residual`` is
    their span ``high - low``, below tolerance.  In discounted mode
    ``data`` lies within theta / (1 - theta) * residual / 2 of the fixed
    point, and in average mode the gain lies in [low, high].  The
    fixed-policy sweeps between optimality backups are not counted.
    """

    space: TruncatedStateSpace
    data: np.ndarray
    theta: float | None
    iterations: int
    residual: float
    low: float
    high: float

    def value(self, q, atom: tuple[int, int]) -> float:
        """The value at state q and an atom that ``graph.atom_index`` accepts."""
        a_idx = self.space.graph.atom_index(atom)
        return float(self.data[self.space.state_index(q), a_idx])


# ---- kernels ----


def _post_arrival_costs(space: TruncatedStateSpace, costs: CostVector) -> np.ndarray:
    """Holding cost of q + a per (state row, atom), summed node by node."""
    state_cost = np.zeros(len(space.balanced_states))
    for k, c in enumerate(costs.vector):
        state_cost = state_cost + c * space.balanced_states[:, k]
    return state_cost[:, None] + costs.vector[np.array(space.graph.atom_ends)].sum(axis=1)


def _packed(
    space: TruncatedStateSpace, table, name: str = "value table"
) -> np.ndarray:
    """``table`` as a float array, checked to have one row per balanced
    state of ``space`` and one column per atom; another shape, such as
    that of a table from another space, raises ValueError naming both."""
    table = np.asarray(table, dtype=float)
    want = (len(space.balanced_states), space.n_atoms)
    if table.shape != want:
        raise ValueError(f"{name} must have shape {want}, got {table.shape}")
    return table


def _initial_table(space: TruncatedStateSpace, v0: np.ndarray | None) -> np.ndarray:
    if v0 is None:
        return np.zeros((len(space.balanced_states), space.n_atoms))
    table = _packed(space, v0, "v0")
    if not np.isfinite(table).all():
        raise ValueError(f"v0 must be finite, got {table[~np.isfinite(table)][0]}")
    return table.copy()  # a solve writes its tables in place


# ---- greedy decisions ----


def _jumps(space: TruncatedStateSpace, w: np.ndarray) -> np.ndarray:
    """jump[k] per extended row for the expected-value vector w, in the
    dtype of ``pred`` (see :func:`_greedy`)."""
    _, read, pred, levels, _ = space.backup_index
    tail = np.append(w, np.inf)[read]
    jump = np.tile(np.arange(len(read), dtype=pred.dtype), (pred.shape[1], 1))
    for k in range(pred.shape[1] - 1, -1, -1):
        # In place, level by level: the rows below already hold tail[k].
        for start, stop in levels:
            below = pred[start:stop, k]
            lower = tail[below]
            step = lower < tail[start:stop]
            np.copyto(tail[start:stop], lower, where=step)
            np.copyto(jump[k, start:stop], jump[k, below], where=step)
    return jump


def _greedy(
    space: TruncatedStateSpace, w: np.ndarray, ext_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy decisions of the expected-value vector w at extended rows.

    Returns, per row x of ``ext_rows``, the lexicographically smallest
    minimizer u of w(clip(x - usage(u))) and the extended row x - usage(u)
    it ends on.  The suffix minima tail[k](x), over the counts on edges
    k, k + 1, ..., are relaxed one edge at a time, level by level, on the
    backup's extended rows, and with them jump[k](x) = x - c e_k for the
    smallest count c with tail[k + 1](x - c e_k) == tail[k](x): x itself
    unless x - e_k is strictly lower, else jump[k](x - e_k).  Walking the
    edges in file order, x moves to jump[k](x), whose tail[k + 1] equals
    tail[0](x), and edge k takes the number of levels the jump descends.
    The test is exact because a minimum returns one of its inputs.
    """
    jump = _jumps(space, w)
    level = space.backup_index.extended[:, : space.graph.n_d].sum(axis=1)
    rows = np.asarray(ext_rows, dtype=np.int64)
    u = np.empty((len(rows), len(jump)), dtype=np.int64)
    for k, to in enumerate(jump):
        end = to[rows]
        u[:, k] = level[rows] - level[end]
        rows = end
    return u, rows


def _greedy_successors(
    space: TruncatedStateSpace, table: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Successor row per (state row, atom) under the greedy policy of a
    packed table: the clip of where the walk of :func:`_greedy` ends from
    each post-arrival row.  ``probs`` is the arrival law per atom
    (``ArrivalDistribution.atom_probs``).

    Raises :class:`MatchDPError` naming the first state that, at some atom,
    has no matching whose clipped successor stays in the sector.
    """
    _, read, _, _, post = space.backup_index
    jump = _jumps(space, table @ probs)
    end = jump[0]
    for to in jump[1:]:
        end = to[end]
    succ = read[end][post]
    if succ.max() == len(space.balanced_states):
        # The +inf sentinel is the largest row, so argmax finds its first state.
        q = tuple(int(v) for v in space.balanced_states[succ.max(axis=1).argmax()])
        raise MatchDPError(
            f"state {q} has no transition that stays balanced inside the cap; "
            "raise the cap or reconsider the graph"
        )
    return succ


def extract_policy(
    space: TruncatedStateSpace,
    table: np.ndarray,
    arrivals: ArrivalDistribution,
) -> Tabular:
    """Greedy policy of a packed value table on interior balanced states.

    Decisions depend on the state only through x = q + a, so the table is
    keyed by ``space.interior_post_arrivals``.  Interior x and all its
    successors stay inside [0, cap], and matching preserves balance, so
    every candidate read is a real state's value.  Each decision is the
    lexicographically smallest minimizer of w(x - usage(u)).  The decisions
    stay one block, which :func:`evaluate_policy` and
    :func:`~matchdp.structure.verify_policy_shape` read without calling
    ``decide``.  A table of another shape, or arrivals sized for another
    graph, raises ValueError.
    """
    _check_sizes(space.graph, arrivals)
    table = _packed(space, table)
    ext, read, _, _, _ = space.backup_index
    xs = space.interior_post_arrivals
    # Interior x lies inside the cap, where an extended row reads itself.
    inside = np.flatnonzero(np.all(ext <= space.cap, axis=1))
    ext_row = np.empty(len(space.balanced_states), dtype=np.int64)
    ext_row[read[inside]] = inside
    u, _ = _greedy(space, table @ arrivals.atom_probs(), ext_row[space.rows(xs)])
    return Tabular.from_block(space.graph, xs, u)


# ---- optimality iterations ----


def _policy_sweep(
    base: np.ndarray, probs: np.ndarray, succ: np.ndarray
) -> Callable[..., np.ndarray]:
    """``sweep(table, theta, out=None)``: one sweep base + theta * w[succ]
    of a fixed policy's operator, where w = table @ probs is the expected
    value of ``table`` over the arrival atoms, ``base`` the post-arrival
    costs and ``succ`` the successor row per (state row, atom).  The
    result is written into ``out`` when given, which may be ``table``
    itself."""

    def sweep(table: np.ndarray, theta: float, out: np.ndarray | None = None):
        # Every successor row is valid: "clip" only spares take a buffer.
        out = np.take(theta * (table @ probs), succ, out=out, mode="clip")
        out += base
        return out

    return sweep


def bellman_backup(
    space: TruncatedStateSpace,
    table: np.ndarray,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    theta: float,
) -> np.ndarray:
    """One synchronous sweep of the optimality operator (theta=1: average),
    which is the first sweep of the table's greedy policy.

    Input and output are packed tables; an input of another shape, or costs
    or arrivals sized for another graph, raises ValueError.  Raises
    :class:`MatchDPError` when a state has an atom from which every
    matching leaves the sector.
    """
    _check_sizes(space.graph, arrivals, costs)
    table = _packed(space, table)
    base = _post_arrival_costs(space, costs)
    probs = arrivals.atom_probs()
    succ = _greedy_successors(space, table, probs)
    return _policy_sweep(base, probs, succ)(table, theta)


def _iterate(
    space: TruncatedStateSpace,
    config: DPConfig | None,
    mode: str,
    v0: np.ndarray | None,
    solver: str,
    sweep_of: Callable[[np.ndarray], Callable[..., np.ndarray]],
    policy_sweeps: int = 0,
) -> tuple[float | None, ValueFunction]:
    """Run ``table = sweep_of(table)(table, theta)`` from v0 (zeros by
    default) until the span of the change Tv - v drops below tolerance;
    returns (gain, value function).  ``sweep_of`` returns a
    :func:`_policy_sweep`.  The iterates live in two tables allocated once
    per solve and swapped after each backup, and Tv - v in a third; a
    caller's v0 is copied, never written.

    ``mode="discounted"`` sweeps with ``config.theta`` (0 <= theta < 1).
    The fixed point lies between Tv + theta / (1 - theta) * min(Tv - v)
    and the same with the max (MacQueen 1966; Porteus 1971; Puterman
    1994, Markov Decision Processes, section 6.6.3), so the returned
    table is Tv shifted to the middle of those bounds, within
    theta / (1 - theta) * span / 2 of the fixed point; the gain is None.
    ``mode="average"`` sweeps with theta = 1 and renormalizes each iterate
    at row 0 (the zero queue), atom 0; the gain is the change there,
    (Tv - v)(0, 0), so a start table with any value at row 0 reports it.
    Raises :class:`NoConvergence`, naming ``solver`` and carrying the last
    span, when ``max_iters`` sweeps fail the rule.

    Each sweep that fails the rule is followed by ``policy_sweeps`` more
    sweeps of the same policy, renormalized like the iterates; with the
    greedy sweep of the table this is modified policy iteration (Puterman
    1994, sections 6.5 and 8.7).  Only the first sweep of each policy
    counts toward ``max_iters`` and ``ValueFunction.iterations``.  The
    rule is tested on that sweep, Tv of the table it starts from, so the
    bounds hold as for plain iteration.
    """
    config = config or DPConfig()
    discounted = mode == "discounted"
    theta = config.theta if discounted else 1.0
    if discounted and not 0.0 <= theta < 1.0:
        raise ValueError(f"discounted mode needs 0 <= theta < 1, got {theta}")
    tol = config.resolved_tol(mode)
    table = _initial_table(space, v0)
    new, diff = np.empty_like(table), np.empty_like(table)
    gain, residual = None, np.inf
    for n in range(1, config.max_iters + 1):
        sweep = sweep_of(table)
        sweep(table, theta, out=new)
        np.subtract(new, table, out=diff)
        low, high = float(diff.min()), float(diff.max())
        residual = high - low
        if not discounted:
            gain = float(diff[0, 0])  # row 0 is the zero queue
            new -= new[0, 0]
        if residual < tol:
            if discounted:
                new += theta / (1 - theta) * (low + high) / 2
            theta_out = theta if discounted else None
            return gain, ValueFunction(space, new, theta_out, n, residual, low, high)
        for _ in range(policy_sweeps):
            sweep(new, theta, out=new)
            if not discounted:
                new -= new[0, 0]
        table, new = new, table
    raise NoConvergence(
        f"{solver} did not reach span tol={tol:g} within {config.max_iters} "
        f"backups (last span {residual:g})",
        iterations=config.max_iters,
        residual=residual,
    )


def _optimal(
    space: TruncatedStateSpace,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None,
    mode: str,
    v0: np.ndarray | None,
    solver: str,
) -> tuple[float | None, ValueFunction]:
    """Modified policy iteration: each backup is the first sweep of the
    table's greedy policy, and :data:`MPI_SWEEPS` more follow a backup that
    fails the stopping rule.  Costs or arrivals sized for another graph
    raise ValueError."""
    _check_sizes(space.graph, arrivals, costs)
    base = _post_arrival_costs(space, costs)
    probs = arrivals.atom_probs()

    def greedy_sweep(table: np.ndarray) -> Callable[..., np.ndarray]:
        return _policy_sweep(base, probs, _greedy_successors(space, table, probs))

    return _iterate(space, config, mode, v0, solver, greedy_sweep, MPI_SWEEPS)


def value_iteration(
    space: TruncatedStateSpace,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None = None,
    *,
    v0: np.ndarray | None = None,
    extract: bool = True,
) -> tuple[ValueFunction, Tabular | None]:
    """Discounted optimal values from v = 0 (or a packed ``v0``), by
    modified policy iteration.

    Stops at the first backup Tv whose change Tv - v over all states has a
    span below tolerance, and returns Tv + theta / (1 - theta) times the
    midpoint of min(Tv - v) and max(Tv - v), the centre of the
    MacQueen-Porteus bounds on the fixed point: within
    theta / (1 - theta) * ``residual`` / 2 of it.  ``iterations`` counts
    backups.  Raises :class:`NoConvergence` with the last span when the
    backup limit is hit.
    """
    _, vf = _optimal(
        space, costs, arrivals, config, "discounted", v0, "value iteration"
    )
    policy = extract_policy(space, vf.data, arrivals) if extract else None
    return vf, policy


def _require_stable(graph: MatchingGraph, arrivals: ArrivalDistribution) -> None:
    """Raise :class:`Unstable` unless the rates are stable: an average-cost
    answer on unstable rates would only reflect the cap."""
    report = check_stability(graph, arrivals)
    if not report.stable:
        raise Unstable(
            f"average-cost iteration needs stable rates "
            f"({report.violation_count} subset violations)",
            violations=report.violations,
        )


def relative_value_iteration(
    space: TruncatedStateSpace,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None = None,
    *,
    v0: np.ndarray | None = None,
    extract: bool = True,
) -> tuple[float, ValueFunction, Tabular | None]:
    """Average-cost gain and bias by modified policy iteration, normalized
    at the zero queue and first atom.

    Requires stable arrival rates.  Stops at the first backup whose change
    over all states has a span below tolerance; the gain estimate is that
    backup's pre-normalization value at the reference state.  ``iterations``
    counts backups.
    """
    _require_stable(space.graph, arrivals)
    gain, vf = _optimal(
        space, costs, arrivals, config, "average", v0, "relative value iteration"
    )
    policy = extract_policy(space, vf.data, arrivals) if extract else None
    return gain, vf, policy


# ---- fixed-policy evaluation ----


def _sector_successors(space: TruncatedStateSpace, policy: Policy) -> np.ndarray:
    """Successor row per (state row, atom) under the policy.

    ``decide`` runs once per distinct post-arrival row of the backup index.
    Raises :class:`Inadmissible` when a decision overdraws x, or when its
    successor clipped at the cap leaves the balanced sector, because such a
    policy does not act on this state space.
    """
    n_d = space.graph.n_d
    ext, _, _, _, post = space.backup_index
    rows = _distinct(post, len(ext))
    xs = ext[rows].astype(np.int64)
    u, y, inadmissible = read_decisions(policy, xs)
    bad = np.flatnonzero(inadmissible)
    if len(bad):
        raise Inadmissible(
            f"policy {policy.label} returned u={u[bad[0]].tolist()} "
            f"at x={xs[bad[0]].tolist()}"
        )
    y = np.minimum(y, space.cap)
    bad = np.flatnonzero(y[:, :n_d].sum(axis=1) != y[:, n_d:].sum(axis=1))
    if len(bad):
        raise Inadmissible(
            f"policy {policy.label!r} leaves the balanced sector from the "
            f"post-arrival vector x={xs[bad[0]].tolist()}"
        )
    row_succ = np.empty(len(ext), dtype=np.int64)
    row_succ[rows] = space.rows(y)
    return row_succ[post]


def evaluate_policy(
    space: TruncatedStateSpace,
    policy: Policy,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None = None,
    mode: str = "discounted",
) -> ValueFunction | tuple[float, ValueFunction]:
    """Value of a fixed policy: discounted table, or (gain, bias) when
    ``mode="average"``.

    Iterates on the packed balanced-state rows with the policy's successor
    map precomputed once; stopping is that of the optimality iterations.
    Average mode, like :func:`relative_value_iteration`, requires stable
    arrival rates.  A policy bound to another graph, or costs or arrivals
    sized for another, raises ValueError.
    """
    if mode not in ("discounted", "average"):
        raise ValueError(f"mode must be 'discounted' or 'average', got {mode!r}")
    _check_graph(policy, space.graph)
    _check_sizes(space.graph, arrivals, costs)
    if mode == "average":
        _require_stable(space.graph, arrivals)
    sweep = _policy_sweep(
        _post_arrival_costs(space, costs),
        arrivals.atom_probs(),
        _sector_successors(space, policy),
    )
    gain, vf = _iterate(space, config, mode, None, "policy evaluation", lambda _: sweep)
    return vf if gain is None else (gain, vf)
