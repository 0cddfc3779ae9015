"""Matching policies: structured rules mapping post-arrival states to matchings.

Each policy is bound to a graph at construction (validating the graph class
it needs) and exposes ``decide(x)`` returning a per-edge count vector that
is admissible at x.  Threshold rules follow the role layouts of
:mod:`matchdp.states`; on balanced vectors they reproduce their defining
formulas exactly, and every count is additionally capped by the running
residual so that a decision is admissible even on unbalanced vectors such
as solver grid points.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import Inadmissible, MissingDecision, ParseError, WrongGraphClass
from .graphs import (
    COMPLETE,
    CostVector,
    MatchingGraph,
    NProjection,
    classify,
)
from .states import (
    WLayout,
    _int_list,
    admissible_matchings,
    n_layout,
    node_usage,
    w_layout,
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
    :meth:`spec_dict` writes the kind and the thresholds.  It also fixes
    ``_ends``, the state positions (demand, supply) of each edge in file
    order, so that rules index plain lists.
    """

    kind: str = ""
    label: str = "Policy"
    thresholds: tuple[str, ...] = ()

    def __init__(self, graph: MatchingGraph, *values):
        self.graph = graph
        self._n = graph.n_nodes
        self._ends = tuple((i, graph.n_d + j) for i, j in graph.edge_index)
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
        ``verify_policy_shape`` on the interior ones.
        """
        raise NotImplementedError

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


def _counts(label: str, u) -> np.ndarray:
    """Match counts ``u`` (one decision, or a block of them as rows) as an
    int64 array.  Counts of any other dtype, floats (integral or not) and
    bools among them, raise ValueError naming ``label`` instead of being
    truncated."""
    u = np.asarray(u)
    if u.dtype.kind not in "iu":
        shown = f": {u.tolist()}" if u.ndim == 1 else ""
        raise ValueError(
            f"policy {label} returned match counts of dtype {u.dtype}, "
            f"not integers{shown}"
        )
    return u.astype(np.int64, copy=False)


def read_decisions(
    policy: Policy, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decisions of a policy on a block of post-arrival vectors.

    Calls ``decide`` once per row of ``xs`` and returns the counts u (one
    row per vector, one column per edge), the residuals ``xs - usage(u)``,
    and the mask of inadmissible rows: a negative count or a negative
    residual.  A decision of the wrong length or with non-integer counts
    raises ValueError.
    """
    u = _counts(policy.label, [policy.decide(x) for x in xs])
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

    With (i*, j*) the missing edge, the demand classes other than i* form
    the flexible group and the supply classes other than j* the other.
    Group totals are the N rule on the projected state: both priority
    totals saturate, and the cross total matches only the demand-group
    surplus over x_{j*} beyond the threshold t.  Within a group, totals
    are allocated greedily over edges in file order.
    """

    kind = "threshold_cmo"
    label = "ThresholdCMO"
    thresholds = ("t",)

    def __init__(self, graph: MatchingGraph, t):
        proj = NProjection.from_graph(graph)
        super().__init__(graph, t)
        i_star, j_star = proj.missing
        nd = graph.n_d
        self._d_star, self._s_star = i_star, nd + j_star
        self._demand = proj.demand_group
        self._supply = tuple(nd + j for j in proj.supply_group)

        def group(pairs) -> tuple[tuple[int, int, int], ...]:
            """(edge, demand position, supply position), in file order."""
            return tuple(sorted((graph.edge_position[(i, j)], i, nd + j) for i, j in pairs))

        self._groups = (
            group((i, j_star) for i in proj.demand_group),
            group((i_star, j) for j in proj.supply_group),
            group((i, j) for i in proj.demand_group for j in proj.supply_group),
        )

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = _int_list(x, self._n)
        sum_d = sum(rem[i] for i in self._demand)
        sum_s = sum(rem[s] for s in self._supply)
        total_11 = min(sum_d, rem[self._s_star])
        total_22 = min(rem[self._d_star], sum_s)
        k = min(
            _surplus_after(sum_d - rem[self._s_star], self.t),
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


class ThresholdN(ThresholdCMO):
    """Priority-plus-threshold rule on the N-shaped graph.

    Matches both priority edges fully, then matches the flexible pair
    (d1, s2) only with the d1 surplus exceeding the threshold t.  This is
    the complete-minus-one rule on its smallest graph, where every group
    holds one edge.
    """

    kind = "threshold_n"
    label = "ThresholdN"

    def __init__(self, graph: MatchingGraph, t):
        n_layout(graph)  # raises WrongGraphClass unless the graph is N-shaped
        super().__init__(graph, t)


def _w_edges(graph: MatchingGraph) -> tuple[WLayout, tuple[int, int, int, int]]:
    """The W layout and the positions of edges (1,1), (2,1), (2,2), (3,2)."""
    lay = w_layout(graph)
    pos = graph.edge_position
    return lay, (
        pos[(lay.d1, lay.s1_local)], pos[(lay.d2, lay.s1_local)],
        pos[(lay.d2, lay.s2_local)], pos[(lay.d3, lay.s2_local)],
    )


class ThresholdW(Policy):
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
        self.layout, (self._e11, self._e21, self._e22, self._e32) = _w_edges(graph)
        super().__init__(graph, t21, t22)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = _int_list(x, self._n)
        d1, d2, d3, s1, s2 = self.layout.pack(vec)
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


class ThresholdWWorkload(Policy):
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
        self.layout, (self._e11, self._e21, self._e22, self._e32) = _w_edges(graph)
        super().__init__(graph, t21, t32)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        d1, d2, d3, s1, s2 = self.layout.pack(_int_list(x, self._n))
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
        self.inner = inner
        info = classify(graph)
        if not info.extreme_edges:
            raise WrongGraphClass("graph has no extreme edges to prioritize")
        d_deg = [len(js) for js in graph.supply_neighbors]
        s_deg = [len(iis) for iis in graph.demand_neighbors]

        def extreme_cost(edge: tuple[int, int]) -> float:
            if costs is None:
                return 0.0
            i, j = edge
            options = []
            if d_deg[i] == 1:
                options.append(float(costs.demand[i]))
            if s_deg[j] == 1:
                options.append(float(costs.supply[j]))
            return max(options)

        nodes_of = {
            e: {("d", e[0]), ("s", e[1])} for e in info.extreme_edges
        }
        adjacent = any(
            nodes_of[a] & nodes_of[b]
            for idx, a in enumerate(info.extreme_edges)
            for b in info.extreme_edges[idx + 1:]
        )
        if adjacent and costs is None:
            raise ValueError(
                "adjacent extreme edges need costs to fix their priority order"
            )
        order = sorted(
            info.extreme_edges,
            key=lambda e: (-extreme_cost(e), graph.edge_position[e]),
        )
        self._extreme_positions = [graph.edge_position[e] for e in order]
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
            extra = _counts(self.inner.label, self.inner.decide(rem)).tolist()
            if len(extra) != len(u):
                raise ValueError(
                    f"matching vector must have one entry per edge "
                    f"({len(u)}), got {len(extra)} entries"
                )
            left = list(rem)
            for (i, s), c in zip(self._ends, extra):
                left[i] -= c
                left[s] -= c
            if min(extra) < 0 or min(left) < 0:
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
        self.costs = costs
        self._edge_costs = tuple(
            (float(costs.demand[i]), i, float(costs.supply[j]), graph.n_d + j)
            for i, j in graph.edge_index
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
                i, j = graph.edge_index[e]
                limits = None if level == 0 else (
                    self._node_threshold("d", i), self._node_threshold("s", j)
                )
                plan.append((e, i, graph.n_d + j, limits))
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
            nodes = set()
            for e in frontier:
                i, j = graph.edge_index[e]
                nodes.add(("d", i))
                nodes.add(("s", j))
            level += 1
            frontier = sorted(
                e
                for e, (i, j) in enumerate(graph.edge_index)
                if e not in assigned and (("d", i) in nodes or ("s", j) in nodes)
            )
        layers: list[list[int]] = [[] for _ in range(level)]
        for e, lvl in assigned.items():
            layers[lvl].append(e)
        return tuple(tuple(sorted(es)) for es in layers)

    def _node_threshold(self, side: str, idx: int) -> float:
        if side == "d":
            name = self.graph.demand_nodes[idx]
        else:
            name = self.graph.supply_nodes[idx]
        return self.node_thresholds.get(name, 0)

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
    """Dictionary policy keyed by the post-arrival vector.

    The optimal matching of a Bellman backup depends on the state only
    through x = q + a, so solver extractions store decisions per x.  States
    missing from the table go to the fallback policy when one is given;
    without one they raise :class:`MissingDecision`, which names x.
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
        self.table = {
            tuple(int(v) for v in key): _counts(self.label, u)
            for key, u in table.items()
        }
        self.fallback = fallback
        self.label = f"{self.label}[{len(self.table)} states]"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        key = tuple(_int_list(x, self._n))
        hit = self.table.get(key)
        if hit is not None:
            return hit.copy()
        if self.fallback is not None:
            return self.fallback.decide(x)
        raise MissingDecision(
            f"no stored decision for x={list(key)} and no fallback policy"
        )

    def spec_dict(self) -> dict:
        return {
            "type": self.kind,
            "states": len(self.table),
            "fallback": self.fallback.spec_dict() if self.fallback else None,
        }


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
