"""Queue states, paired arrivals, and the admissible matching sets.

A queue state stacks demand queue lengths then supply queue lengths into one
nonnegative integer vector; valid states are balanced because items arrive
and leave in demand/supply pairs.  After an arrival the post-arrival vector
x = q + e(i, j) is what a matching decision acts on: an admissible matching
assigns a count to every edge without exceeding the available items at any
node.  Enumeration is lazy and lexicographic in file edge order, so the zero
matching always comes first.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ActionSpaceBudget, Inadmissible, WrongGraphClass
from .graphs import MatchingGraph, N_SHAPED, W_SHAPED, classify

ACTION_BUDGET = 10**6


def _int_list(state: Sequence[int], length: int) -> list[int]:
    """``state`` as a list of ``length`` nonnegative Python ints.

    An integer numpy vector passes through ``.tolist()``; any other entry
    must pass ``operator.index``, so floats (integral or not), strings and
    float arrays raise ValueError naming the vector instead of being
    truncated or parsed.
    """
    if isinstance(state, np.ndarray) and state.ndim == 1 and state.dtype.kind in "iu":
        vec = state.tolist()
    else:
        try:
            vec = list(map(operator.index, state))
        except TypeError:
            shown = state.tolist() if isinstance(state, np.ndarray) else state
            raise ValueError(f"state entries must be integers, got {shown!r}") from None
    if len(vec) != length:
        raise ValueError(f"state must have length {length}, got {len(vec)} entries")
    if min(vec) < 0:
        raise ValueError(f"state entries must be nonnegative, got {vec}")
    return vec


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a float or other non-integer raises
    ValueError."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
    """Unit arrival vector adding one item to demand class i and supply class j."""
    if not (0 <= i < graph.n_d and 0 <= j < graph.n_s):
        raise ValueError(f"arrival atom ({i}, {j}) out of range")
    vec = np.zeros(graph.n_nodes, dtype=np.int64)
    vec[i] += 1
    vec[graph.n_d + j] += 1
    return vec


def post_arrival(graph: MatchingGraph, q: Sequence[int], i: int, j: int) -> np.ndarray:
    return as_state(graph, q) + arrival_vector(graph, i, j)


def node_usage(graph: MatchingGraph, u: Sequence[int]) -> np.ndarray:
    """Total items each node contributes to a per-edge matching vector, or
    to each row of a block of them with shape (..., edges)."""
    u_vec = np.asarray(u, dtype=np.int64)
    if u_vec.ndim == 0 or u_vec.shape[-1] != len(graph.edges):
        raise ValueError(
            f"matching vector must have one entry per edge "
            f"({len(graph.edges)}), got shape {u_vec.shape}"
        )
    usage = np.zeros(u_vec.shape[:-1] + (graph.n_nodes,), dtype=np.int64)
    for k, (i, j) in enumerate(graph.edge_index):
        usage[..., i] += u_vec[..., k]
        usage[..., graph.n_d + j] += u_vec[..., k]
    return usage


def is_admissible(graph: MatchingGraph, x: Sequence[int], u: Sequence[int]) -> bool:
    """Whether matching u fits inside the post-arrival vector x."""
    u_vec = np.asarray(u, dtype=np.int64)
    if np.any(u_vec < 0):
        return False
    return bool(np.all(node_usage(graph, u_vec) <= as_state(graph, x)))


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
    rem = _int_list(x, graph.n_nodes)
    n_d = graph.n_d
    ends = [(i, n_d + j) for i, j in graph.edge_index]
    return _matchings(ends, rem, budget)


def _matchings(
    ends: list[tuple[int, int]], rem: list[int], budget: int
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

    Raises :class:`Inadmissible` if u does not fit inside q + e(a).
    """
    x = post_arrival(graph, check_queue_state(graph, q), *a)
    u_vec = np.asarray(u, dtype=np.int64)
    if not is_admissible(graph, x, u_vec):
        raise Inadmissible(
            f"matching {u_vec.tolist()} not admissible at x={x.tolist()}"
        )
    return x - node_usage(graph, u_vec)


# ---- role layouts for the two structured graph families ----


@dataclass(frozen=True)
class NLayout:
    """Coordinate roles of an N-shaped graph.

    d1 is the flexible demand class (adjacent to both supplies), s2 the
    flexible supply class; the missing edge is (d2, s1).  Attributes are
    positions into the full state vector; ``d1``/``d2`` also index alpha and
    ``s1_local``/``s2_local`` index beta.
    """

    d1: int
    d2: int
    s1: int
    s2: int
    s1_local: int
    s2_local: int


@dataclass(frozen=True)
class WLayout:
    """Coordinate roles of a W-shaped graph.

    d2 is the flexible demand class adjacent to both supplies; s1 is the
    supply class listed first in the file, with d1 its degree-one partner
    and d3 the degree-one partner of s2.  Edge roles follow the naming
    (1,1), (2,1), (2,2), (3,2).
    """

    d1: int
    d2: int
    d3: int
    s1: int
    s2: int
    s1_local: int
    s2_local: int

    def pack(self, x: Sequence[int]) -> tuple[int, int, int, int, int]:
        return (
            int(x[self.d1]), int(x[self.d2]), int(x[self.d3]),
            int(x[self.s1]), int(x[self.s2]),
        )


def n_layout(graph: MatchingGraph) -> NLayout:
    if classify(graph).tag != N_SHAPED:
        raise WrongGraphClass(
            f"N layout needs an N-shaped graph, got {classify(graph).tag}"
        )
    d_deg = [len(js) for js in graph.supply_neighbors]
    s_deg = [len(iis) for iis in graph.demand_neighbors]
    d1 = d_deg.index(2)
    d2 = d_deg.index(1)
    s2_local = s_deg.index(2)
    s1_local = s_deg.index(1)
    return NLayout(
        d1=d1,
        d2=d2,
        s1=graph.n_d + s1_local,
        s2=graph.n_d + s2_local,
        s1_local=s1_local,
        s2_local=s2_local,
    )


def w_layout(graph: MatchingGraph) -> WLayout:
    if classify(graph).tag != W_SHAPED:
        raise WrongGraphClass(
            f"W layout needs a W-shaped graph, got {classify(graph).tag}"
        )
    d_deg = [len(js) for js in graph.supply_neighbors]
    d2 = d_deg.index(2)
    s1_local, s2_local = 0, 1
    d1 = next(
        i for i in range(graph.n_d)
        if i != d2 and graph.supply_neighbors[i] == (s1_local,)
    )
    d3 = next(
        i for i in range(graph.n_d)
        if i != d2 and graph.supply_neighbors[i] == (s2_local,)
    )
    return WLayout(
        d1=d1,
        d2=d2,
        d3=d3,
        s1=graph.n_d + s1_local,
        s2=graph.n_d + s2_local,
        s1_local=s1_local,
        s2_local=s2_local,
    )
