"""Matching policies: structured rules mapping post-arrival states to matchings.

Each policy is bound to a graph at construction (validating the graph class
it needs) and exposes ``decide(x)`` returning a per-edge count vector that
is admissible at x.  Threshold rules read the roles that
:func:`~matchdp.graphs.classify` works out; on balanced vectors they
reproduce their defining formulas exactly, and every count is additionally
capped by the running residual so that a decision is admissible even on
unbalanced vectors such as solver grid points.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

import numpy as np

from .errors import Inadmissible, MissingDecision, ParseError, WrongGraphClass
from .graphs import (
    COMPLETE,
    COMPLETE_MINUS_ONE,
    N_SHAPED,
    W_SHAPED,
    CostVector,
    MatchingGraph,
    _check_sizes,
    classify,
    role_positions,
)
from .states import (
    _counts,
    _decision,
    _find_rows,
    _int_list,
    _left,
    admissible_matchings,
    node_usage,
)


def _check_threshold(name: str, value) -> float:
    if value == math.inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a nonnegative integer or inf, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


def threshold_json(value):
    """A threshold as written in specs and reports: itself, or "inf"."""
    return "inf" if value == math.inf else value


# Entries a threshold block read takes in int64; a block with a larger one
# is read row by row in Python ints.
_BLOCK_ENTRY_LIMIT = 2**32


def _surplus_after(value: int, threshold: float) -> int:
    """Items beyond a protected threshold; zero when the threshold is inf."""
    if threshold == math.inf:
        return 0
    return max(0, value - int(threshold))


class Policy:
    """Base class; subclasses implement :meth:`decide` and declare three
    class attributes once: ``kind``, the ``type`` of their JSON spec;
    ``label``, their display name; and ``thresholds``, the names of their
    threshold parameters in constructor order.

    The constructor validates each threshold value, stores it under its
    name and appends ``(name=value, ...)`` to the label; the default
    :meth:`spec_dict` writes the kind and the thresholds.  Rules index
    plain lists through ``_ends``, the graph's ``edge_ends``.
    """

    kind: str = ""
    label: str = "Policy"
    thresholds: tuple[str, ...] = ()

    def __init__(self, graph: MatchingGraph, *values):
        self.graph = graph
        self._n = graph.n_nodes
        self._ends = graph.edge_ends
        for name, value in zip(self.thresholds, values, strict=True):
            setattr(self, name, _check_threshold(name, value))
        if self.thresholds:
            shown = ", ".join(
                f"{name}={threshold_json(getattr(self, name))}" for name in self.thresholds
            )
            self.label = f"{self.label}({shown})"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        """Per-edge match counts for the post-arrival vector x.

        x is a sequence of nonnegative integers, one per node: a list of
        ints or an integer numpy vector.  Floats (integral or not),
        strings and entries of a float array raise ValueError.  The result
        is an int64 array with one count per edge.  The rules in this
        module work on x as a list of Python ints; numpy builds only the
        returned array.

        The result must be a deterministic function of x alone: the
        simulator and the solvers call it once per distinct x, the
        simulator for the length of a :func:`~matchdp.simulate.simulate`
        or ``compare`` call (until a full transition table restarts),
        ``evaluate_policy`` on every post-arrival vector of the space and
        ``verify_policy_shape`` on the interior ones.  Those two read
        through :func:`read_decisions`, which does not call ``decide`` for
        a :class:`Tabular` (it gathers from its decision block) nor for a
        :class:`ThresholdCMO` or :class:`ThresholdN` (they apply their rule
        to the whole block in numpy), unless a subclass overrides
        ``decide`` or the block is not of nonnegative integer rows.
        """
        raise NotImplementedError

    def _decide_rows(self, xs: np.ndarray) -> np.ndarray:
        """Decisions at the rows of ``xs`` as one (rows x edges) block:
        ``decide`` once per row, each decision checked by :func:`_decision`."""
        n_edges = len(self._ends)
        u = np.empty((len(xs), n_edges), dtype=np.int64)
        for row, x in zip(u, xs):
            row[:] = _decision(self.label, self.decide(x), n_edges)
        return u

    def _counts_block(self, xs) -> bool:
        """Whether ``xs`` is an array of rows of nonnegative integers, one
        per node: the blocks that a block reader may read without the
        per-row checks of :func:`~matchdp.states._int_list`."""
        return (
            isinstance(xs, np.ndarray)
            and xs.dtype.kind in "iu"
            and xs.shape[1:] == (self._n,)
            and not np.any(xs < 0)
        )

    def spec_dict(self) -> dict:
        return {
            "type": self.kind,
            **{name: threshold_json(getattr(self, name)) for name in self.thresholds},
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


def _check_graph(policy: Policy, graph: MatchingGraph) -> None:
    """Raise ValueError unless the policy is bound to ``graph``: a graph
    with other nodes, or the same nodes or edges in another order, would
    have its vectors read in the wrong coordinates."""
    if policy.graph != graph:
        raise ValueError(f"policy {policy.label} is bound to another graph")


def read_decisions(
    policy: Policy, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decisions of a policy on a block of post-arrival vectors.

    Calls ``decide`` once per row of ``xs``, checks each decision as it
    arrives and writes it into one block, and returns the counts u (one
    row per vector, one column per edge), the residuals ``xs - usage(u)``,
    and the mask of inadmissible rows: a negative count or a negative
    residual.  A decision of the wrong shape or with non-integer counts
    raises ValueError.  Two policies read an array of nonnegative integer
    rows without calling ``decide``: a :class:`Tabular` gathers its stored
    rows from its decision block, and a :class:`ThresholdCMO` or
    :class:`ThresholdN` applies its rule to the whole block in numpy, with
    the results of ``decide`` row for row.  A subclass of those two that
    overrides ``decide``, and any other block, is read row by row, with
    the per-row errors.
    """
    u = policy._decide_rows(xs)
    residual = xs - node_usage(policy.graph, u)
    return u, residual, np.any(u < 0, axis=1) | np.any(residual < 0, axis=1)


class FullMatch(Policy):
    """Greedy exhaustive matching on a complete graph.

    Sweeps edges in file order taking as many pairs as remain available;
    on a complete graph this always empties the shorter side.
    """

    kind = "full_match"
    label = "FullMatch"

    def __init__(self, graph: MatchingGraph):
        if classify(graph).tag != COMPLETE:
            raise WrongGraphClass(
                f"FullMatch needs a complete graph, got {classify(graph).tag}"
            )
        super().__init__(graph)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = _int_list(x, self._n)
        u = []
        for i, s in self._ends:
            take = min(rem[i], rem[s])
            u.append(take)
            rem[i] -= take
            rem[s] -= take
        return np.array(u, dtype=np.int64)


class ThresholdCMO(Policy):
    """Threshold rule on a complete-minus-one graph via its N projection.

    The roles of :func:`~matchdp.graphs.classify` group the demand
    classes other than d2 into d1 and the supply classes other than s1
    into s2, where (d2, s1) is the missing edge.  Group totals are the N
    rule on the projected state: both priority totals saturate, and the
    cross total matches only the d1 surplus over s1 beyond the threshold
    t.  Within a group, totals are allocated greedily over edges in file
    order.
    """

    kind = "threshold_cmo"
    label = "ThresholdCMO"
    thresholds = ("t",)
    _graph_class = COMPLETE_MINUS_ONE

    def __init__(self, graph: MatchingGraph, t):
        d1, d2, s1, s2 = role_positions(graph, self._graph_class)
        super().__init__(graph, t)
        # Lists, which index the node rows of a block as well as a list.
        self._d1, self._d2, self._s1, self._s2 = list(d1), d2, s1, list(s2)

        def group(ds, ss) -> tuple[tuple[int, int, int], ...]:
            """(edge, demand position, supply position) of each edge from
            ``ds`` to ``ss``, in file order."""
            return tuple((e, d, s) for e, (d, s) in enumerate(self._ends) if d in ds and s in ss)

        self._groups = (group(d1, (s1,)), group((d2,), s2), group(d1, s2))

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = _int_list(x, self._n)
        sum_d = sum(rem[d] for d in self._d1)
        sum_s = sum(rem[s] for s in self._s2)
        total_11 = min(sum_d, rem[self._s1])
        total_22 = min(rem[self._d2], sum_s)
        k = min(
            _surplus_after(sum_d - rem[self._s1], self.t),
            sum_d - total_11,
            sum_s - total_22,
        )
        u = [0] * len(self._ends)
        for left, group in zip((total_11, total_22, k), self._groups):
            for e, i, s in group:
                take = min(left, rem[i], rem[s])
                u[e] = take
                rem[i] -= take
                rem[s] -= take
                left -= take
        return np.array(u, dtype=np.int64)

    def _decide_rows(self, xs: np.ndarray) -> np.ndarray:
        """The rule of :meth:`decide` on every row of ``xs`` at once, one
        numpy operation per quantity and per edge: the group totals, the
        thresholded cross total, then each group's greedy split in file
        order, on unbalanced rows and at t = inf alike.

        A subclass that overrides ``decide``, a block that
        :meth:`Policy._counts_block` rejects, and a block with an entry of
        2**32 or more (where int64 sums could wrap and Python ints do not)
        are read by ``decide`` row by row instead.
        """
        if (
            type(self).decide is not ThresholdCMO.decide
            or not self._counts_block(xs)
            or xs.max(initial=0) >= _BLOCK_ENTRY_LIMIT
        ):
            return super()._decide_rows(xs)
        rem = np.array(xs.T, dtype=np.int64, order="C")  # one row per node
        sum_d = rem[self._d1].sum(axis=0)
        sum_s = rem[self._s2].sum(axis=0)
        total_11 = np.minimum(sum_d, rem[self._s1])
        total_22 = np.minimum(rem[self._d2], sum_s)
        # Sums stay below 2**62, so a larger t (inf among them) matches none.
        t = min(self.t, 2**62)
        k = np.minimum(
            np.maximum(sum_d - rem[self._s1] - t, 0),
            np.minimum(sum_d - total_11, sum_s - total_22),
        )
        u = np.zeros((len(xs), len(self._ends)), dtype=np.int64)
        for left, group in zip((total_11, total_22, k), self._groups):
            for e, i, s in group:
                take = np.minimum(np.minimum(left, rem[i]), rem[s])
                u[:, e] = take
                rem[i] -= take
                rem[s] -= take
                left -= take
        return u


class ThresholdN(ThresholdCMO):
    """Priority-plus-threshold rule on the N-shaped graph.

    Matches both priority edges fully, then matches the flexible pair
    (d1, s2) only with the d1 surplus exceeding the threshold t.  This is
    the complete-minus-one rule on its smallest graph, where every group
    holds one edge.
    """

    kind = "threshold_n"
    label = "ThresholdN"
    _graph_class = N_SHAPED


class _WRule(Policy):
    """A rule on the W-shaped graph.  ``_pack`` reads (d1, d2, d3, s1, s2)
    off x at the positions of :func:`~matchdp.graphs.classify`'s roles,
    and ``_e11``, ``_e21``, ``_e22``, ``_e32`` are the edges (d1, s1),
    (d2, s1), (d2, s2), (d3, s2)."""

    def __init__(self, graph: MatchingGraph, *values):
        d1, d2, d3, s1, s2 = role_positions(graph, W_SHAPED)
        super().__init__(graph, *values)
        self._pack = operator.itemgetter(d1, d2, d3, s1, s2)
        self._e11, self._e21, self._e22, self._e32 = map(
            self._ends.index, ((d1, s1), (d2, s1), (d2, s2), (d3, s2))
        )


class ThresholdW(_WRule):
    """Two-threshold rule on the W-shaped graph.

    Extreme edges (d1, s1) and (d3, s2) are matched fully; the middle
    demand class matches each supply surplus only beyond its threshold.
    The two middle counts are asserted jointly feasible, which always
    holds on balanced vectors.
    """

    kind = "threshold_w"
    label = "ThresholdW"
    thresholds = ("t21", "t22")

    def __init__(self, graph: MatchingGraph, t21, t22):
        super().__init__(graph, t21, t22)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = _int_list(x, self._n)
        d1, d2, d3, s1, s2 = self._pack(vec)
        k = min(_surplus_after(s1 - d1, self.t21), d2)
        j = min(_surplus_after(s2 - d3, self.t22), d2)
        if k + j > d2:
            raise Inadmissible(
                f"threshold counts k={k}, j={j} exceed the middle class "
                f"availability {d2} at x={vec} (unbalanced input)"
            )
        u = [0] * len(self._ends)
        u[self._e11] = min(d1, s1)
        u[self._e32] = min(d3, s2)
        u[self._e21] = k
        u[self._e22] = j
        return np.array(u, dtype=np.int64)


class ThresholdWWorkload(_WRule):
    """W-graph rule thresholding the middle workload instead of each surplus.

    Pairs (d1, s1) and (d2, s2) are matched with priority.  The leaf class
    d3 matches s2 leftovers only beyond t32, and (d2, s1) matches only the
    part of the remaining d2 + d3 workload exceeding t21.  Keeping that
    buffer in the cheap leaf class protects an expensive s2 against arrival
    bursts at a low holding cost.
    """

    kind = "threshold_w_workload"
    label = "ThresholdWWorkload"
    thresholds = ("t21", "t32")

    def __init__(self, graph: MatchingGraph, t21, t32):
        super().__init__(graph, t21, t32)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        d1, d2, d3, s1, s2 = self._pack(_int_list(x, self._n))
        u11 = min(d1, s1)
        u22 = min(d2, s2)
        rem_s1 = s1 - u11
        rem_d2 = d2 - u22
        rem_s2 = s2 - u22
        u32 = min(_surplus_after(d3, self.t32), rem_s2)
        workload = rem_d2 + (d3 - u32)
        u21 = min(_surplus_after(workload, self.t21), rem_s1, rem_d2)
        u = [0] * len(self._ends)
        u[self._e11] = u11
        u[self._e21] = u21
        u[self._e22] = u22
        u[self._e32] = u32
        return np.array(u, dtype=np.int64)


class PriorityExtreme(Policy):
    """Saturate extreme edges first, then optionally apply an inner rule.

    Extreme edges (one endpoint of degree one) are matched to saturation.
    When two extreme edges share a node, the one whose extreme endpoint
    costs more goes first; at equal costs the shared order is file order,
    which makes the shared totals independent of the order.  The optional
    inner policy sees the residual vector; its decision is validated.
    """

    kind = "priority_extreme"
    label = "PriorityExtreme"

    def __init__(
        self,
        graph: MatchingGraph,
        inner: Policy | None = None,
        costs: CostVector | None = None,
    ):
        super().__init__(graph)
        _check_sizes(graph, costs=costs)
        self.inner = inner
        info = classify(graph)
        if not info.extreme_edges:
            raise WrongGraphClass("graph has no extreme edges to prioritize")
        extremes = [graph.edge_position[e] for e in info.extreme_edges]
        adjacent = any(
            set(self._ends[a]) & set(self._ends[b])
            for idx, a in enumerate(extremes)
            for b in extremes[idx + 1:]
        )
        if adjacent and costs is None:
            raise ValueError(
                "adjacent extreme edges need costs to fix their priority order"
            )

        def extreme_cost(e: int) -> float:
            if costs is None:
                return 0.0
            return max(float(costs.vector[p]) for p in self._ends[e] if graph.degrees[p] == 1)

        self._extreme_positions = sorted(extremes, key=lambda e: (-extreme_cost(e), e))
        if inner is not None:
            self.label = f"{self.label}[{inner.label}]"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = _int_list(x, self._n)
        u = [0] * len(self._ends)
        for e in self._extreme_positions:
            i, s = self._ends[e]
            take = min(rem[i], rem[s])
            u[e] = take
            rem[i] -= take
            rem[s] -= take
        if self.inner is not None:
            extra = _decision(self.inner.label, self.inner.decide(rem), len(u)).tolist()
            if _left(self.graph, rem, extra) is None:
                raise Inadmissible(
                    f"inner policy {self.inner.label} returned "
                    f"{extra} at residual {rem}"
                )
            u = [a + b for a, b in zip(u, extra)]
        return np.array(u, dtype=np.int64)

    def spec_dict(self) -> dict:
        return {
            "type": self.kind,
            "inner": self.inner.spec_dict() if self.inner else None,
        }


class MaxWeight(Policy):
    """Pick the matching maximizing the queue-weighted linear score.

    The score of u at x is sum over edges of u_ij (2 c_di x_di + 2 c_sj
    x_sj).  Enumeration is lazy and lexicographic; ties keep the first
    maximizer found, so the reported decision is the lexicographically
    smallest one.
    """

    kind = "max_weight"
    label = "MaxWeight"

    def __init__(self, graph: MatchingGraph, costs: CostVector):
        super().__init__(graph)
        _check_sizes(graph, costs=costs)
        self.costs = costs
        self._edge_costs = tuple(
            (float(costs.vector[d]), d, float(costs.vector[s]), s) for d, s in self._ends
        )

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = _int_list(x, self._n)
        weights = [
            2.0 * cd * vec[i] + 2.0 * cs * vec[s] for cd, i, cs, s in self._edge_costs
        ]
        # Scores are Python float sums; max keeps the first of equal scores.
        return max(
            admissible_matchings(self.graph, vec),
            key=lambda u: sum(map(operator.mul, weights, u.tolist())),
        )


class MatchLongest(Policy):
    """Repeatedly match one pair on the edge with the longest queues.

    Each round scores every matchable edge by the sum of its endpoint
    queue lengths, matches a single pair on the best edge (file order on
    ties), and rescores.  Greedy, so only an approximation of the longest
    queue ideal; outputs label it accordingly.
    """

    kind = "match_longest"
    label = "ML (approximation)"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = _int_list(x, self._n)
        u = [0] * len(self._ends)
        while True:
            best_e = -1
            best_sum = -1
            for e, (i, s) in enumerate(self._ends):
                if rem[i] > 0 and rem[s] > 0:
                    total = rem[i] + rem[s]
                    if total > best_sum:
                        best_sum = total
                        best_e = e
            if best_e < 0:
                return np.array(u, dtype=np.int64)
            i, s = self._ends[best_e]
            u[best_e] += 1
            rem[i] -= 1
            rem[s] -= 1


class AcyclicHeuristic(Policy):
    """Layered threshold rule for tree-structured graphs.

    Edges are layered by breadth-first distance from the extreme edges
    (layer 0).  Layer-0 edges match fully; a deeper edge matches only what
    both endpoints hold beyond their per-node thresholds.  Layers are
    processed in increasing order, file order within a layer.
    """

    kind = "acyclic_heuristic"
    label = "AcyclicHeuristic"

    def __init__(self, graph: MatchingGraph, thresholds: Mapping[str, float] | None = None):
        super().__init__(graph)
        if len(graph.edges) != graph.n_nodes - 1:
            raise WrongGraphClass("the layered heuristic needs a tree-structured graph")
        info = classify(graph)
        if not info.extreme_edges:
            raise WrongGraphClass("graph has no extreme edges to seed layers")
        thresholds = dict(thresholds or {})
        unknown = [n for n in thresholds if n not in graph.node_labels]
        if unknown:
            raise ValueError(f"thresholds for unknown nodes: {unknown}")
        self.node_thresholds = {
            name: _check_threshold(f"threshold[{name}]", val)
            for name, val in thresholds.items()
        }
        self.layers = self._layer_edges(graph, info.extreme_edges)
        # (edge, demand position, supply position, node thresholds or None
        # on layer 0), in the order decide visits the edges.
        plan = []
        for level, layer in enumerate(self.layers):
            for e in layer:
                ends = self._ends[e]
                limits = None if level == 0 else tuple(
                    self.node_thresholds.get(graph.node_labels[p], 0) for p in ends
                )
                plan.append((e, *ends, limits))
        self._plan = tuple(plan)
        shown = ", ".join(
            f"{n}:{threshold_json(v)}" for n, v in sorted(self.node_thresholds.items())
        )
        self.label = f"{self.label}({shown})"

    @staticmethod
    def _layer_edges(
        graph: MatchingGraph, seeds: Iterable[tuple[int, int]]
    ) -> tuple[tuple[int, ...], ...]:
        assigned: dict[int, int] = {}
        frontier = sorted(graph.edge_position[e] for e in seeds)
        level = 0
        while frontier:
            for e in frontier:
                assigned[e] = level
            nodes = {p for e in frontier for p in graph.edge_ends[e]}
            level += 1
            frontier = sorted(
                e
                for e, ends in enumerate(graph.edge_ends)
                if e not in assigned and not nodes.isdisjoint(ends)
            )
        layers: list[list[int]] = [[] for _ in range(level)]
        for e, lvl in assigned.items():
            layers[lvl].append(e)
        return tuple(tuple(sorted(es)) for es in layers)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = _int_list(x, self._n)
        u = [0] * len(self._ends)
        for e, i, s, limits in self._plan:
            take = min(rem[i], rem[s])
            if limits is not None:
                take = min(
                    take, _surplus_after(rem[i], limits[0]), _surplus_after(rem[s], limits[1])
                )
            u[e] = take
            rem[i] -= take
            rem[s] -= take
        return np.array(u, dtype=np.int64)

    def spec_dict(self) -> dict:
        return {
            "type": self.kind,
            "thresholds": {
                n: threshold_json(v) for n, v in sorted(self.node_thresholds.items())
            },
        }


class Tabular(Policy):
    """Table policy keyed by the post-arrival vector.

    The optimal matching of a Bellman backup depends on the state only
    through x = q + a, so solver extractions store decisions per x.  They
    are held as the ascending ravel codes of the keys in the box [0, largest
    entry] per coordinate and one (keys x edges) int64 block in the same
    order; ``table`` is a read-only view of them in key order.  Evaluation
    and the shape checks gather from the block without calling ``decide``.
    States missing from the table go to the fallback policy when one is
    given; without one they raise :class:`MissingDecision`, which names x.
    Keys follow the rule of :func:`~matchdp.states._int_list` and decisions
    that of :func:`_decision`: a key or a decision they reject, a key box
    too large for int64 codes, or a fallback bound to another graph raises
    ValueError.
    """

    kind = "tabular"
    label = "Tabular"

    def __init__(
        self,
        graph: MatchingGraph,
        table: Mapping[tuple[int, ...], Sequence[int]],
        fallback: Policy | None = None,
    ):
        super().__init__(graph)
        n_edges = len(self._ends)
        try:
            keys = np.array([_int_list(key, self._n) for key in table], dtype=np.int64)
        except OverflowError:
            raise ValueError("Tabular key box does not fit int64 ravel codes") from None
        u = np.array([_decision(self.label, d, n_edges) for d in table.values()], dtype=np.int64)
        self._store(keys.reshape(-1, self._n), u.reshape(-1, n_edges), fallback)

    @classmethod
    def from_block(
        cls, graph: MatchingGraph, xs: np.ndarray, u: np.ndarray, fallback: Policy | None = None
    ) -> Tabular:
        """The table of decisions ``u[k]`` at distinct vectors ``xs[k]``; ``u``
        is kept, not copied, when ``xs`` is ascending."""
        self = cls.__new__(cls)
        Policy.__init__(self, graph)
        xs = np.asarray(xs)
        if not self._counts_block(xs):
            raise ValueError(f"keys must be rows of {self._n} nonnegative integers")
        self._store(xs.astype(np.int64, copy=False), _counts(self.label, u), fallback)
        return self

    def _store(self, keys: np.ndarray, u: np.ndarray, fallback: Policy | None) -> None:
        if u.shape != (len(keys), len(self._ends)):
            raise ValueError(f"decision block of shape {u.shape} does not match the keys")
        self._shape = tuple(int(m) + 1 for m in keys.max(axis=0)) if len(keys) else (1,) * self._n
        if math.prod(self._shape) > np.iinfo(np.int64).max:
            raise ValueError(f"Tabular key box {self._shape} does not fit int64 ravel codes")
        codes = np.ravel_multi_index(keys.T, self._shape)
        if np.any(codes[1:] < codes[:-1]):
            order = np.argsort(codes)
            codes, u = codes[order], u[order]
        if np.any(codes[1:] == codes[:-1]):
            raise ValueError("Tabular keys must be distinct")
        if fallback is not None:
            _check_graph(fallback, self.graph)
        self._codes, self._u = codes, u
        self.fallback = fallback
        self.label = f"{self.label}[{len(codes)} states]"

    @property
    def table(self) -> Mapping[tuple[int, ...], np.ndarray]:
        return _TableView(self)

    @cached_property
    def _rows(self) -> dict[tuple[int, ...], int]:
        """Row of each key, built by the first lookup of one x (a tuple key
        costs less per call than a ravel code computed in Python)."""
        return {key: row for row, key in enumerate(self.table)}

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = _int_list(x, self._n)
        row = self._rows.get(tuple(vec))
        if row is not None:
            return self._u[row].copy()
        if self.fallback is not None:
            return self.fallback.decide(x)
        raise MissingDecision(f"no stored decision for x={vec} and no fallback policy")

    def _decide_rows(self, xs: np.ndarray) -> np.ndarray:
        """Stored rows gathered by one :func:`_find_rows`, the rest read by
        the fallback; a block other than of nonnegative integer vectors is
        read row by row, with those checks."""
        xs = np.asarray(xs)
        if not self._counts_block(xs):
            return super()._decide_rows(xs)
        pos, hit = _find_rows(self._codes, self._shape, xs)
        u = np.empty((len(xs), len(self._ends)), dtype=np.int64)
        u[hit] = self._u[pos[hit]]
        missing = np.flatnonzero(~hit)
        if len(missing) == 0:
            return u
        if self.fallback is None:
            raise MissingDecision(
                f"no stored decision for x={xs[missing[0]].tolist()} and no fallback policy"
            )
        u[missing] = self.fallback._decide_rows(xs[missing])
        return u

    def spec_dict(self) -> dict:
        return {
            "type": self.kind,
            "states": len(self._codes),
            "fallback": self.fallback.spec_dict() if self.fallback else None,
        }


class _TableView(Mapping):
    """A :class:`Tabular`'s decisions in key order; ``[x]`` is a copy."""

    def __init__(self, policy: Tabular):
        self._policy = policy

    def __len__(self) -> int:
        return len(self._policy._codes)

    def __iter__(self):
        keys = np.unravel_index(self._policy._codes, self._policy._shape)
        return map(tuple, np.column_stack(keys).tolist())

    def __getitem__(self, x) -> np.ndarray:
        try:
            row = self._policy._rows.get(tuple(_int_list(x, self._policy._n)))
        except ValueError:
            row = None
        if row is None:
            raise KeyError(x)
        return self._policy._u[row].copy()


# ---- JSON policy specs ----


def threshold_from_json(value):
    """The inverse of :func:`threshold_json`: "inf" reads as inf."""
    return math.inf if value == "inf" else value


def policy_from_spec(
    graph: MatchingGraph,
    spec: Mapping,
    costs: CostVector | None = None,
) -> Policy:
    """Build a policy from its JSON description.

    Threshold values accept the string "inf".  MaxWeight needs the cost
    vector; tabular policies are solver artifacts and cannot be loaded.
    """
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ParseError("policy spec must be an object with a 'type' field")
    kind = spec["type"]
    cls = _LOADABLE.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown policy type {kind!r}")
    try:
        if cls is PriorityExtreme:
            inner_spec = spec.get("inner")
            inner = None if inner_spec is None else policy_from_spec(graph, inner_spec, costs)
            return PriorityExtreme(graph, inner=inner, costs=costs)
        if cls is MaxWeight:
            if costs is None:
                raise ParseError(f"{kind} policy needs the graph cost vector")
            return MaxWeight(graph, costs)
        if cls is AcyclicHeuristic:
            thresholds = spec.get("thresholds", {})
            if not isinstance(thresholds, Mapping):
                raise ParseError("field 'thresholds' must map node labels to values")
            return AcyclicHeuristic(
                graph, {name: threshold_from_json(v) for name, v in thresholds.items()}
            )
        for name in cls.thresholds:
            if name not in spec:
                raise ParseError(f"policy spec missing field {name!r}")
        return cls(graph, *(threshold_from_json(spec[name]) for name in cls.thresholds))
    except (ValueError, WrongGraphClass) as exc:
        raise ParseError(f"invalid {kind} policy: {exc}") from exc


_LOADABLE: dict[str, type[Policy]] = {
    cls.kind: cls
    for cls in (
        FullMatch, ThresholdN, ThresholdCMO, ThresholdW, ThresholdWWorkload,
        PriorityExtreme, MaxWeight, MatchLongest, AcyclicHeuristic,
    )
}
