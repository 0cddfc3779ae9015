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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import Inadmissible, MissingDecision, ParseError, WrongGraphClass
from .graphs import (
    ACYCLIC,
    COMPLETE,
    CostVector,
    MatchingGraph,
    NProjection,
    classify,
)
from .states import (
    ACTION_BUDGET,
    admissible_matchings,
    as_state,
    is_admissible,
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


def _take(
    graph: MatchingGraph, u: np.ndarray, rem: np.ndarray, e: int, limit=math.inf
) -> int:
    """Match as many pairs on edge e as both endpoints still hold in rem, at
    most ``limit``; updates u and rem in place and returns the count."""
    i, j = graph.edge_index[e]
    take = min(limit, rem[i], rem[graph.n_d + j])
    u[e] += take
    rem[i] -= take
    rem[graph.n_d + j] -= take
    return take


class Policy:
    """Base class; subclasses set ``label`` and implement :meth:`decide`."""

    label: str = "Policy"

    def __init__(self, graph: MatchingGraph):
        self.graph = graph

    def decide(self, x: Sequence[int]) -> np.ndarray:
        """Per-edge match counts for the post-arrival vector x.

        The result must be a deterministic function of x alone: the
        simulator memoizes it per (state, arrival) pair for the length of
        a :func:`~matchdp.simulate.simulate` or ``compare`` call, and the
        solvers call it once per distinct x (``evaluate_policy`` on every
        post-arrival vector of the space, ``verify_policy_shape`` on the
        interior ones).
        """
        raise NotImplementedError

    def spec_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


def read_decisions(
    policy: Policy, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decisions of a policy on a block of post-arrival vectors.

    Calls ``decide`` once per row of ``xs`` and returns the counts u (one
    row per vector, one column per edge), the residuals ``xs - usage(u)``,
    and the mask of inadmissible rows: a negative count or a negative
    residual.  A decision of the wrong length raises ValueError.
    """
    u = np.array([policy.decide(x) for x in xs], dtype=np.int64)
    residual = xs - node_usage(policy.graph, u)
    return u, residual, np.any(u < 0, axis=1) | np.any(residual < 0, axis=1)


class FullMatch(Policy):
    """Greedy exhaustive matching on a complete graph.

    Sweeps edges in file order taking as many pairs as remain available;
    on a complete graph this always empties the shorter side.
    """

    def __init__(self, graph: MatchingGraph):
        if classify(graph).tag != COMPLETE:
            raise WrongGraphClass(
                f"FullMatch needs a complete graph, got {classify(graph).tag}"
            )
        super().__init__(graph)
        self.label = "FullMatch"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        rem = as_state(self.graph, x).copy()
        u = np.zeros(len(self.graph.edges), dtype=np.int64)
        for e in range(len(u)):
            _take(self.graph, u, rem, e)
        return u

    def spec_dict(self) -> dict:
        return {"type": "full_match"}


class ThresholdN(Policy):
    """Priority-plus-threshold rule on the N-shaped graph.

    Matches both priority edges fully, then matches the flexible pair
    (d1, s2) only with the d1 surplus exceeding the threshold t.
    """

    def __init__(self, graph: MatchingGraph, t):
        super().__init__(graph)
        self.layout = n_layout(graph)
        self.t = _check_threshold("t", t)
        self.label = f"ThresholdN(t={threshold_json(self.t)})"
        pos = graph.edge_position
        lay = self.layout
        self._e11 = pos[(lay.d1, lay.s1_local)]
        self._e12 = pos[(lay.d1, lay.s2_local)]
        self._e22 = pos[(lay.d2, lay.s2_local)]

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = as_state(self.graph, x)
        d1, d2, s1, s2 = self.layout.pack(vec)
        u = np.zeros(len(self.graph.edges), dtype=np.int64)
        u[self._e11] = min(d1, s1)
        u[self._e22] = min(d2, s2)
        k = _surplus_after(d1 - s1, self.t)
        u[self._e12] = min(k, d1 - u[self._e11], s2 - u[self._e22])
        return u

    def spec_dict(self) -> dict:
        return {"type": "threshold_n", "t": threshold_json(self.t)}


class ThresholdCMO(Policy):
    """Threshold rule on a complete-minus-one graph via its N projection.

    Group totals mirror the N rule applied to the projected state; within a
    group, totals are allocated greedily over edges in file order.
    """

    def __init__(self, graph: MatchingGraph, t):
        super().__init__(graph)
        self.projection = NProjection.from_graph(graph)
        self.t = _check_threshold("t", t)
        self.label = f"ThresholdCMO(t={threshold_json(self.t)})"
        i_star, j_star = self.projection.missing
        pos = graph.edge_position
        self._grp_priority_d = [
            pos[(i, j_star)] for i in self.projection.demand_group
        ]
        self._grp_priority_s = [
            pos[(i_star, j)] for j in self.projection.supply_group
        ]
        self._grp_cross = [
            pos[(i, j)]
            for i in self.projection.demand_group
            for j in self.projection.supply_group
        ]
        # Within-group allocation follows file order, not projection order.
        for group in (self._grp_priority_d, self._grp_priority_s, self._grp_cross):
            group.sort()

    def decide(self, x: Sequence[int]) -> np.ndarray:
        graph = self.graph
        vec = as_state(graph, x)
        i_star, j_star = self.projection.missing
        sum_d = int(vec[list(self.projection.demand_group)].sum())
        sum_s = int(
            vec[[graph.n_d + j for j in self.projection.supply_group]].sum()
        )
        x_dstar = int(vec[i_star])
        x_sstar = int(vec[graph.n_d + j_star])

        total_11 = min(sum_d, x_sstar)
        total_22 = min(x_dstar, sum_s)
        k = _surplus_after(sum_d - x_sstar, self.t)
        k = min(k, sum_d - total_11, sum_s - total_22)

        rem = vec.copy()
        u = np.zeros(len(graph.edges), dtype=np.int64)
        for left, group in ((total_11, self._grp_priority_d),
                            (total_22, self._grp_priority_s),
                            (k, self._grp_cross)):
            for e in group:
                left -= _take(graph, u, rem, e, left)
        return u

    def spec_dict(self) -> dict:
        return {"type": "threshold_cmo", "t": threshold_json(self.t)}


class ThresholdW(Policy):
    """Two-threshold rule on the W-shaped graph.

    Extreme edges (d1, s1) and (d3, s2) are matched fully; the middle
    demand class matches each supply surplus only beyond its threshold.
    The two middle counts are asserted jointly feasible, which always
    holds on balanced vectors.
    """

    def __init__(self, graph: MatchingGraph, t21, t22):
        super().__init__(graph)
        self.layout = w_layout(graph)
        self.t21 = _check_threshold("t21", t21)
        self.t22 = _check_threshold("t22", t22)
        self.label = (
            f"ThresholdW(t21={threshold_json(self.t21)}, "
            f"t22={threshold_json(self.t22)})"
        )
        lay = self.layout
        pos = graph.edge_position
        self._e11 = pos[(lay.d1, lay.s1_local)]
        self._e21 = pos[(lay.d2, lay.s1_local)]
        self._e22 = pos[(lay.d2, lay.s2_local)]
        self._e32 = pos[(lay.d3, lay.s2_local)]

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = as_state(self.graph, x)
        d1, d2, d3, s1, s2 = self.layout.pack(vec)
        k = min(_surplus_after(s1 - d1, self.t21), d2)
        j = min(_surplus_after(s2 - d3, self.t22), d2)
        if k + j > d2:
            raise Inadmissible(
                f"threshold counts k={k}, j={j} exceed the middle class "
                f"availability {d2} at x={vec.tolist()} (unbalanced input)"
            )
        u = np.zeros(len(self.graph.edges), dtype=np.int64)
        u[self._e11] = min(d1, s1)
        u[self._e32] = min(d3, s2)
        u[self._e21] = k
        u[self._e22] = j
        return u

    def spec_dict(self) -> dict:
        return {
            "type": "threshold_w",
            "t21": threshold_json(self.t21),
            "t22": threshold_json(self.t22),
        }


class ThresholdWWorkload(Policy):
    """W-graph rule thresholding the middle workload instead of each surplus.

    Pairs (d1, s1) and (d2, s2) are matched with priority.  The leaf class
    d3 matches s2 leftovers only beyond t32, and (d2, s1) matches only the
    part of the remaining d2 + d3 workload exceeding t21.  Keeping that
    buffer in the cheap leaf class protects an expensive s2 against arrival
    bursts at a low holding cost.
    """

    def __init__(self, graph: MatchingGraph, t21, t32):
        super().__init__(graph)
        self.layout = w_layout(graph)
        self.t21 = _check_threshold("t21", t21)
        self.t32 = _check_threshold("t32", t32)
        self.label = (
            f"ThresholdWWorkload(t21={threshold_json(self.t21)}, "
            f"t32={threshold_json(self.t32)})"
        )
        lay = self.layout
        pos = graph.edge_position
        self._e11 = pos[(lay.d1, lay.s1_local)]
        self._e21 = pos[(lay.d2, lay.s1_local)]
        self._e22 = pos[(lay.d2, lay.s2_local)]
        self._e32 = pos[(lay.d3, lay.s2_local)]

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = as_state(self.graph, x)
        d1, d2, d3, s1, s2 = self.layout.pack(vec)
        u11 = min(d1, s1)
        u22 = min(d2, s2)
        rem_s1 = s1 - u11
        rem_d2 = d2 - u22
        rem_s2 = s2 - u22
        u32 = min(_surplus_after(d3, self.t32), rem_s2)
        workload = rem_d2 + (d3 - u32)
        u21 = min(_surplus_after(workload, self.t21), rem_s1, rem_d2)
        u = np.zeros(len(self.graph.edges), dtype=np.int64)
        u[self._e11] = u11
        u[self._e21] = u21
        u[self._e22] = u22
        u[self._e32] = u32
        return u

    def spec_dict(self) -> dict:
        return {
            "type": "threshold_w_workload",
            "t21": threshold_json(self.t21),
            "t32": threshold_json(self.t32),
        }


class PriorityExtreme(Policy):
    """Saturate extreme edges first, then optionally apply an inner rule.

    Extreme edges (one endpoint of degree one) are matched to saturation.
    When two extreme edges share a node, the one whose extreme endpoint
    costs more goes first; at equal costs the shared order is file order,
    which makes the shared totals independent of the order.  The optional
    inner policy sees the residual vector; its decision is validated.
    """

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
        self.label = "PriorityExtreme" + (f"[{inner.label}]" if inner else "")

    def decide(self, x: Sequence[int]) -> np.ndarray:
        graph = self.graph
        rem = as_state(graph, x).copy()
        u = np.zeros(len(graph.edges), dtype=np.int64)
        for e in self._extreme_positions:
            _take(graph, u, rem, e)
        if self.inner is not None:
            extra = self.inner.decide(rem)
            if not is_admissible(graph, rem, extra):
                raise Inadmissible(
                    f"inner policy {self.inner.label} returned "
                    f"{np.asarray(extra).tolist()} at residual {rem.tolist()}"
                )
            u += np.asarray(extra, dtype=np.int64)
        return u

    def spec_dict(self) -> dict:
        return {
            "type": "priority_extreme",
            "inner": self.inner.spec_dict() if self.inner else None,
        }


class MaxWeight(Policy):
    """Pick the matching maximizing the queue-weighted linear score.

    The score of u at x is sum over edges of u_ij (2 c_di x_di + 2 c_sj
    x_sj).  Enumeration is lazy and lexicographic; ties keep the first
    maximizer found, so the reported decision is the lexicographically
    smallest one.
    """

    def __init__(self, graph: MatchingGraph, costs: CostVector, budget: int = ACTION_BUDGET):
        super().__init__(graph)
        self.costs = costs
        self.budget = budget
        self.label = "MaxWeight"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        vec = as_state(self.graph, x)
        weights = np.array(
            [
                2.0 * self.costs.demand[i] * vec[i]
                + 2.0 * self.costs.supply[j] * vec[self.graph.n_d + j]
                for i, j in self.graph.edge_index
            ]
        )
        best_u: np.ndarray | None = None
        best_score = -math.inf
        for u in admissible_matchings(self.graph, vec, budget=self.budget):
            score = float(weights @ u)
            if score > best_score:
                best_score = score
                best_u = u
        assert best_u is not None
        return best_u

    def spec_dict(self) -> dict:
        return {"type": "max_weight"}


class MatchLongest(Policy):
    """Repeatedly match one pair on the edge with the longest queues.

    Each round scores every matchable edge by the sum of its endpoint
    queue lengths, matches a single pair on the best edge (file order on
    ties), and rescores.  Greedy, so only an approximation of the longest
    queue ideal; outputs label it accordingly.
    """

    def __init__(self, graph: MatchingGraph):
        super().__init__(graph)
        self.label = "ML (approximation)"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        graph = self.graph
        rem = as_state(graph, x).copy()
        u = np.zeros(len(graph.edges), dtype=np.int64)
        while True:
            best_e = -1
            best_sum = -1
            for e, (i, j) in enumerate(graph.edge_index):
                if rem[i] > 0 and rem[graph.n_d + j] > 0:
                    total = int(rem[i] + rem[graph.n_d + j])
                    if total > best_sum:
                        best_sum = total
                        best_e = e
            if best_e < 0:
                return u
            _take(graph, u, rem, best_e, 1)

    def spec_dict(self) -> dict:
        return {"type": "match_longest"}


class AcyclicHeuristic(Policy):
    """Layered threshold rule for tree-structured graphs.

    Edges are layered by breadth-first distance from the extreme edges
    (layer 0).  Layer-0 edges match fully; a deeper edge matches only what
    both endpoints hold beyond their per-node thresholds.  Layers are
    processed in increasing order, file order within a layer.
    """

    def __init__(self, graph: MatchingGraph, thresholds: Mapping[str, float] | None = None):
        super().__init__(graph)
        if len(graph.edges) != graph.n_nodes - 1:
            raise WrongGraphClass(
                "the layered heuristic needs a tree-structured graph"
            )
        info = classify(graph)
        if not info.extreme_edges:
            raise WrongGraphClass("graph has no extreme edges to seed layers")
        thresholds = dict(thresholds or {})
        unknown = [n for n in thresholds if n not in graph.node_labels]
        if unknown:
            raise ValueError(f"thresholds for unknown nodes: {unknown}")
        self.thresholds = {
            name: _check_threshold(f"threshold[{name}]", val)
            for name, val in thresholds.items()
        }
        self.layers = self._layer_edges(graph, info.extreme_edges)
        shown = ", ".join(
            f"{n}:{threshold_json(v)}" for n, v in sorted(self.thresholds.items())
        )
        self.label = f"AcyclicHeuristic({shown})"

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
        return self.thresholds.get(name, 0)

    def decide(self, x: Sequence[int]) -> np.ndarray:
        graph = self.graph
        rem = as_state(graph, x).copy()
        u = np.zeros(len(graph.edges), dtype=np.int64)
        for level, layer in enumerate(self.layers):
            for e in layer:
                i, j = graph.edge_index[e]
                avail_d = int(rem[i])
                avail_s = int(rem[graph.n_d + j])
                limit = math.inf if level == 0 else min(
                    _surplus_after(avail_d, self._node_threshold("d", i)),
                    _surplus_after(avail_s, self._node_threshold("s", j)),
                )
                _take(graph, u, rem, e, limit)
        return u

    def spec_dict(self) -> dict:
        return {
            "type": "acyclic_heuristic",
            "thresholds": {
                n: threshold_json(v) for n, v in sorted(self.thresholds.items())
            },
        }


class Tabular(Policy):
    """Dictionary policy keyed by the post-arrival vector.

    The optimal matching of a Bellman backup depends on the state only
    through x = q + a, so solver extractions store decisions per x.  States
    missing from the table go to the fallback policy when one is given;
    without one they raise :class:`MissingDecision`, which names x.
    """

    def __init__(
        self,
        graph: MatchingGraph,
        table: Mapping[tuple[int, ...], Sequence[int]],
        fallback: Policy | None = None,
    ):
        super().__init__(graph)
        self.table = {
            tuple(int(v) for v in key): np.asarray(u, dtype=np.int64)
            for key, u in table.items()
        }
        self.fallback = fallback
        self.label = f"Tabular[{len(self.table)} states]"

    def decide(self, x: Sequence[int]) -> np.ndarray:
        key = tuple(int(v) for v in as_state(self.graph, x))
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
            "type": "tabular",
            "states": len(self.table),
            "fallback": self.fallback.spec_dict() if self.fallback else None,
        }


# ---- JSON policy specs ----


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

    def threshold(field: str):
        if field not in spec:
            raise ParseError(f"policy spec missing field {field!r}")
        val = spec[field]
        if val == "inf":
            return math.inf
        if isinstance(val, bool) or not isinstance(val, int):
            raise ParseError(f"policy field {field!r} must be an integer or \"inf\"")
        return val

    kind = spec["type"]
    try:
        if kind == "full_match":
            return FullMatch(graph)
        if kind == "threshold_n":
            return ThresholdN(graph, threshold("t"))
        if kind == "threshold_cmo":
            return ThresholdCMO(graph, threshold("t"))
        if kind == "threshold_w":
            return ThresholdW(graph, threshold("t21"), threshold("t22"))
        if kind == "threshold_w_workload":
            return ThresholdWWorkload(graph, threshold("t21"), threshold("t32"))
        if kind == "priority_extreme":
            inner_spec = spec.get("inner")
            inner = (
                policy_from_spec(graph, inner_spec, costs)
                if inner_spec is not None
                else None
            )
            return PriorityExtreme(graph, inner=inner, costs=costs)
        if kind == "max_weight":
            if costs is None:
                raise ParseError("max_weight policy needs the graph cost vector")
            return MaxWeight(graph, costs)
        if kind == "match_longest":
            return MatchLongest(graph)
        if kind == "acyclic_heuristic":
            thresholds = spec.get("thresholds", {})
            if not isinstance(thresholds, Mapping):
                raise ParseError("field 'thresholds' must map node labels to values")
            parsed = {
                name: (math.inf if val == "inf" else val)
                for name, val in thresholds.items()
            }
            return AcyclicHeuristic(graph, parsed)
    except (ValueError, WrongGraphClass) as exc:
        raise ParseError(f"invalid {kind} policy: {exc}") from exc
    raise ParseError(f"unknown policy type {kind!r}")
