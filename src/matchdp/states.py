"""Queue states, paired arrivals, and the admissible matching sets.

A queue state stacks demand queue lengths then supply queue lengths into one
nonnegative integer vector; valid states are balanced because items arrive
and leave in demand/supply pairs.  After an arrival the post-arrival vector
x = q + e(i, j) is what a matching decision acts on: an admissible matching
assigns a count to every edge without exceeding the available items at any
node.  Enumeration is lazy and lexicographic in file edge order, so the zero
matching always comes first.  A matching vector holds one count of an
integer dtype per edge (:func:`_decision`, the rule every reader applies),
and :func:`_left` is what x keeps after one.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import ActionSpaceBudget, Inadmissible
from .graphs import MatchingGraph

ACTION_BUDGET = 10**6


def _int_list(state: Sequence[int], length: int) -> list[int]:
    """``state`` as a list of ``length`` nonnegative Python ints.

    An integer numpy vector passes through ``.tolist()``; any other entry
    must be no bool and pass ``operator.index``, so bools, floats (integral
    or not), strings and bool or float arrays raise ValueError naming the
    vector instead of being read as integers, truncated or parsed.
    """
    if isinstance(state, np.ndarray) and state.ndim == 1 and state.dtype.kind in "iu":
        vec = state.tolist()
    else:
        try:
            vec = list(state)
            if bool in map(type, vec):
                raise TypeError
            vec = list(map(operator.index, vec))
        except TypeError:
            shown = state.tolist() if isinstance(state, np.ndarray) else state
            raise ValueError(f"state entries must be integers, got {shown!r}") from None
    if len(vec) != length:
        raise ValueError(f"state must have length {length}, got {len(vec)} entries")
    if min(vec) < 0:
        raise ValueError(f"state entries must be nonnegative, got {vec}")
    return vec


def _counts(label: str | None, u) -> np.ndarray:
    """Match counts ``u`` as an int64 array.  Counts of any other dtype,
    floats (integral or not) and bools among them, raise ValueError naming
    the policy ``label`` that returned them (None for a caller's matching
    vector) instead of being truncated."""
    u = np.asarray(u)
    if u.dtype.kind not in "iu":
        shown = f": {u.tolist()}" if u.ndim == 1 else ""
        who = "matching vector holds" if label is None else f"policy {label} returned"
        raise ValueError(f"{who} match counts of dtype {u.dtype}, not integers{shown}")
    return u.astype(np.int64, copy=False)


def _decision(label: str | None, u, n_edges: int) -> np.ndarray:
    """One matching vector checked by :func:`_counts` and to hold one count
    per edge: another shape raises ValueError naming it."""
    u = _counts(label, u)
    if u.shape != (n_edges,):
        raise ValueError(
            f"matching vector must have one entry per edge ({n_edges}), "
            f"got shape {u.shape}"
        )
    return u


def _left(graph: MatchingGraph, x: list[int], u: list[int]) -> list[int] | None:
    """x minus what the matching u takes from each node, as a new list, or
    None when a count is negative or a node is overdrawn."""
    y = list(x)
    for (d, s), c in zip(graph.edge_ends, u):
        y[d] -= c
        y[s] -= c
    return None if min(u) < 0 or min(y) < 0 else y


def as_state(graph: MatchingGraph, state: Sequence[int]) -> np.ndarray:
    """``state`` as an int64 vector, validated by the rule of :func:`_int_list`."""
    return np.array(_int_list(state, graph.n_nodes), dtype=np.int64)


def is_balanced(graph: MatchingGraph, state: Sequence[int]) -> bool:
    vec = as_state(graph, state)
    return int(vec[: graph.n_d].sum()) == int(vec[graph.n_d:].sum())


def check_queue_state(graph: MatchingGraph, q: Sequence[int]) -> np.ndarray:
    """Validate a queue state (nonnegative integers, balanced sides)."""
    vec = as_state(graph, q)
    if not is_balanced(graph, vec):
        raise ValueError(
            f"queue state must be balanced, got demand sum "
            f"{int(vec[:graph.n_d].sum())} vs supply sum {int(vec[graph.n_d:].sum())}"
        )
    return vec


def arrival_vector(graph: MatchingGraph, i: int, j: int) -> np.ndarray:
    """Unit arrival vector adding one item to demand class i and supply class
    j, a pair that :meth:`~matchdp.graphs.MatchingGraph.atom_index` accepts."""
    vec = np.zeros(graph.n_nodes, dtype=np.int64)
    vec[list(graph.atom_ends[graph.atom_index((i, j))])] = 1
    return vec


def post_arrival(graph: MatchingGraph, q: Sequence[int], i: int, j: int) -> np.ndarray:
    return as_state(graph, q) + arrival_vector(graph, i, j)


def node_usage(graph: MatchingGraph, u: Sequence[int]) -> np.ndarray:
    """Total items each node contributes to a per-edge matching vector, or
    to each row of a block of them with shape (..., edges).  Counts follow
    the rule of :func:`_decision`."""
    u = _counts(None, u)
    if u.shape[-1:] != (len(graph.edges),):
        _decision(None, u, len(graph.edges))  # raises its wrong-length error
    # Row k of the incidence matrix marks the two ends of edge k.
    incidence = np.eye(graph.n_nodes, dtype=np.int64)[np.array(graph.edge_ends)].sum(axis=1)
    return u @ incidence


def is_admissible(graph: MatchingGraph, x: Sequence[int], u: Sequence[int]) -> bool:
    """Whether matching u fits inside the post-arrival vector x.  Vectors
    that :func:`_int_list` or :func:`_decision` reject raise ValueError."""
    u = _decision(None, u, len(graph.edges)).tolist()
    return _left(graph, _int_list(x, graph.n_nodes), u) is not None


def admissible_matchings(
    graph: MatchingGraph,
    x: Sequence[int],
    budget: int = ACTION_BUDGET,
) -> Iterator[np.ndarray]:
    """Yield every admissible matching vector for x, zero vector first.

    x must hold one nonnegative integer per node; anything else raises
    ValueError at the call, before iteration.  Each matching comes as a new
    int64 vector, one count per edge.  The iteration order is
    lexicographic over per-edge counts in file edge order, ascending,
    which downstream tie-breaking relies on.  Raises
    :class:`ActionSpaceBudget` once more than ``budget`` vectors would be
    produced; the raise happens mid-iteration because enumeration is lazy.
    """
    return _matchings(graph.edge_ends, _int_list(x, graph.n_nodes), budget)


def _matchings(
    ends: tuple[tuple[int, int], ...], rem: list[int], budget: int
) -> Iterator[np.ndarray]:
    """The odometer behind :func:`admissible_matchings`.

    ``counts`` is the current matching and ``rem`` what x leaves after it.
    The successor raises the last edge that both its endpoints can still
    serve, after returning the counts of every later edge to ``rem``.
    """
    shown = list(rem)
    counts = [0] * len(ends)
    yielded = 0
    while True:
        yielded += 1
        if yielded > budget:
            raise ActionSpaceBudget(
                f"more than {budget} admissible matchings at x={shown}"
            )
        yield np.array(counts, dtype=np.int64)
        k = len(ends) - 1
        while k >= 0:
            d, s = ends[k]
            if rem[d] and rem[s]:
                counts[k] += 1
                rem[d] -= 1
                rem[s] -= 1
                break
            c = counts[k]
            if c:
                counts[k] = 0
                rem[d] += c
                rem[s] += c
            k -= 1
        else:
            return


def transition(
    graph: MatchingGraph,
    q: Sequence[int],
    a: tuple[int, int],
    u: Sequence[int],
) -> np.ndarray:
    """Next queue state after arrival a = (i, j) and matching u.

    Raises :class:`Inadmissible` if u does not fit inside q + e(a), and
    ValueError on counts that :func:`_decision` rejects.
    """
    x = post_arrival(graph, check_queue_state(graph, q), *a).tolist()
    u = _decision(None, u, len(graph.edges)).tolist()
    y = _left(graph, x, u)
    if y is None:
        raise Inadmissible(f"matching {u} not admissible at x={x}")
    return np.array(y, dtype=np.int64)
