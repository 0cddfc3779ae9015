"""Bipartite matching graph model: topology, arrival rates, holding costs.

A matching graph pairs a set of demand classes with a set of supply classes
through an edge set describing which pairs may be matched.  The module keeps
three immutable value objects (:class:`MatchingGraph`,
:class:`ArrivalDistribution`, :class:`CostVector`), a structural classifier
that also works out the state positions of each role the paper names,
the subset-based stability test, and the projection of a complete-minus-one
graph onto the two-by-two N model.

Vector conventions used across the package: a state vector lists demand
queue lengths first (file order) then supply queue lengths, and arrival
atoms (i, j) are ordered lexicographically by demand index then supply
index, both 0-based.  Only :class:`MatchingGraph` works out positions:
``edge_ends`` (the two of each edge), ``atom_ends`` (the two each arrival
atom fills), ``degrees`` (edges per position) and the one arrival-pair
rule, :meth:`~MatchingGraph.atom_index`, which takes two in-range integers
(a bool, a float or a string raises ValueError) to the atom's column.
Only :func:`classify` works out roles (:attr:`GraphClass.roles`), and
:func:`role_positions` hands them to every reader.
"""

from __future__ import annotations

import contextlib
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import NotCompleteMinusOne, ParseError, SubsetExplosion, WrongGraphClass

PROB_TOL = 1e-12
SUBSET_NODE_CAP = 24

COMPLETE = "complete"
N_SHAPED = "n_shaped"
W_SHAPED = "w_shaped"
COMPLETE_MINUS_ONE = "complete_minus_one"
ACYCLIC = "acyclic"
GENERAL_CYCLIC = "general_cyclic"


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a float or other non-integer raises
    ValueError."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _pair(name: str, pair: Sequence[int]) -> tuple[int, int]:
    """``pair`` as two ints through :func:`_integer`; another length raises
    ValueError naming ``name``."""
    pair = tuple(pair)
    if len(pair) != 2:
        raise ValueError(f"{name} must have 2 entries (demand, supply class), got {pair}")
    return tuple(_integer(name, v) for v in pair)


def _frozen_array(values: Sequence[float], dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MatchingGraph:
    """Connected bipartite compatibility graph between demand and supply classes.

    ``edges`` uses node labels; the integer view :attr:`edge_index` follows
    the label order given in ``demand_nodes`` and ``supply_nodes``, which is
    also the coordinate order of every state vector.
    """

    demand_nodes: tuple[str, ...]
    supply_nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "demand_nodes", tuple(self.demand_nodes))
        object.__setattr__(self, "supply_nodes", tuple(self.supply_nodes))
        object.__setattr__(self, "edges", tuple((d, s) for d, s in self.edges))
        if not self.demand_nodes or not self.supply_nodes:
            raise ValueError("graph needs at least one demand and one supply node")
        labels = self.demand_nodes + self.supply_nodes
        if len(set(labels)) != len(labels):
            raise ValueError("node labels must be unique across both sides")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges are not allowed")
        for d, s in self.edges:
            if d not in self.demand_index:
                raise ValueError(f"edge endpoint {d!r} is not a demand node")
            if s not in self.supply_index:
                raise ValueError(f"edge endpoint {s!r} is not a supply node")
        covered = {d for d, _ in self.edges} | {s for _, s in self.edges}
        missing = [name for name in labels if name not in covered]
        if missing:
            raise ValueError(f"nodes without any edge: {missing}")
        if not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        adj: dict[str, set[str]] = {}
        for d, s in self.edges:
            adj.setdefault(d, set()).add(s)
            adj.setdefault(s, set()).add(d)
        start = self.demand_nodes[0]
        seen = {start}
        stack = [start]
        while stack:
            for other in adj.get(stack.pop(), ()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(self.demand_nodes) + len(self.supply_nodes)

    # ---- derived structure ----

    @property
    def n_d(self) -> int:
        return len(self.demand_nodes)

    @property
    def n_s(self) -> int:
        return len(self.supply_nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_d + self.n_s

    @cached_property
    def demand_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.demand_nodes)}

    @cached_property
    def supply_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.supply_nodes)}

    @cached_property
    def edge_index(self) -> tuple[tuple[int, int], ...]:
        """Edges as (demand index, supply index) pairs, in file order."""
        return tuple(
            (self.demand_index[d], self.supply_index[s]) for d, s in self.edges
        )

    @cached_property
    def edge_position(self) -> dict[tuple[int, int], int]:
        return {pair: k for k, pair in enumerate(self.edge_index)}

    @cached_property
    def supply_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each demand index, the sorted supply indices it can match."""
        out: list[list[int]] = [[] for _ in range(self.n_d)]
        for i, j in self.edge_index:
            out[i].append(j)
        return tuple(tuple(sorted(js)) for js in out)

    @cached_property
    def demand_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each supply index, the sorted demand indices it can match."""
        out: list[list[int]] = [[] for _ in range(self.n_s)]
        for i, j in self.edge_index:
            out[j].append(i)
        return tuple(tuple(sorted(iis)) for iis in out)

    @cached_property
    def node_labels(self) -> tuple[str, ...]:
        return self.demand_nodes + self.supply_nodes

    @cached_property
    def arrival_atoms(self) -> tuple[tuple[int, int], ...]:
        """All (i, j) demand/supply pairs, lexicographic; arrivals ignore edges."""
        return tuple((i, j) for i in range(self.n_d) for j in range(self.n_s))

    @cached_property
    def edge_ends(self) -> tuple[tuple[int, int], ...]:
        """State positions (demand, supply) of each edge, in file order."""
        return tuple((i, self.n_d + j) for i, j in self.edge_index)

    @cached_property
    def atom_ends(self) -> tuple[tuple[int, int], ...]:
        """State positions each arrival atom fills, in ``arrival_atoms`` order."""
        return tuple((i, self.n_d + j) for i, j in self.arrival_atoms)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Number of edges at each state position."""
        ends = sum(self.edge_ends, ())
        return tuple(map(ends.count, range(self.n_nodes)))

    def atom_index(self, pair: Sequence[int], name: str = "atom") -> int:
        """Column of the arrival atom ``pair`` = (demand class, supply class)
        in ``arrival_atoms`` order.  A pair that :func:`_pair` rejects or
        that lies outside the graph raises ValueError naming ``name``."""
        i, j = _pair(name, pair)
        if not (0 <= i < self.n_d and 0 <= j < self.n_s):
            raise ValueError(
                f"{name} out of range: ({i}, {j}) is not an arrival atom of this graph "
                f"({self.n_d} demand and {self.n_s} supply classes)"
            )
        return i * self.n_s + j


@dataclass(frozen=True)
class ArrivalDistribution:
    """Independent categorical laws for the demand and supply class of each arrival."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = _frozen_array(self.alpha)
        beta = _frozen_array(self.beta)
        for name, vec in (("alpha", alpha), ("beta", beta)):
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"{name} must be a nonempty vector")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} entries must be finite")
            if np.any(vec <= 0.0):
                raise ValueError(f"{name} entries must be strictly positive")
            if abs(float(vec.sum()) - 1.0) > PROB_TOL:
                raise ValueError(
                    f"{name} must sum to 1 within {PROB_TOL:g}, got {vec.sum()!r}"
                )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def atom_probs(self) -> np.ndarray:
        """P(arrival = (i, j)) flattened in lexicographic (i, j) order."""
        return np.outer(self.alpha, self.beta).ravel()


@dataclass(frozen=True)
class CostVector:
    """Per-step holding cost rates, one nonnegative entry per node."""

    demand: np.ndarray
    supply: np.ndarray

    def __post_init__(self) -> None:
        demand = _frozen_array(self.demand)
        supply = _frozen_array(self.supply)
        for name, vec in (("demand", demand), ("supply", supply)):
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"{name} costs must be a nonempty vector")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} costs must be finite")
            if np.any(vec < 0.0):
                raise ValueError(f"{name} costs must be nonnegative")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "supply", supply)

    @cached_property
    def vector(self) -> np.ndarray:
        vec = np.concatenate([self.demand, self.supply])
        vec.setflags(write=False)
        return vec

    @classmethod
    def from_mapping(cls, graph: MatchingGraph, mapping: Mapping[str, float]) -> "CostVector":
        missing = [n for n in graph.node_labels if n not in mapping]
        if missing:
            raise ValueError(f"costs missing for nodes: {missing}")
        extra = [n for n in mapping if n not in graph.node_labels]
        if extra:
            raise ValueError(f"costs given for unknown nodes: {extra}")
        return cls(
            demand=np.array([mapping[n] for n in graph.demand_nodes], dtype=float),
            supply=np.array([mapping[n] for n in graph.supply_nodes], dtype=float),
        )


def _check_sizes(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution | None = None,
    costs: CostVector | None = None,
) -> None:
    """Raise ValueError, naming the field and both sizes, unless the given
    arrival laws and costs hold one entry per class of ``graph``: inputs
    built for another graph would be read in the wrong coordinates."""
    sides = (("demand", graph.n_d), ("supply", graph.n_s))
    fields = []
    if arrivals is not None:
        fields += zip(("alpha", "beta"), (arrivals.alpha, arrivals.beta), sides)
    if costs is not None:
        fields += zip(("demand costs", "supply costs"), (costs.demand, costs.supply), sides)
    for name, vec, (side, want) in fields:
        if len(vec) != want:
            raise ValueError(
                f"{name} has {len(vec)} entries, but the graph has {want} {side} classes"
            )


# ---- classification ----


@dataclass(frozen=True)
class GraphClass:
    """Structural class of a graph, the features downstream solvers key on,
    and the state positions of the roles the paper names.

    ``roles`` is (d1, d2, s1, s2) on N and complete-minus-one graphs: d2
    and s1 are the ends of the missing edge (one position each), while d1
    and s2 are tuples grouping the other demand and the other supply
    positions, so an N graph is its own projection, one position per
    group.  On a W graph it is the five positions (d1, d2, d3, s1, s2):
    d2 is the demand class of degree 2, s1 the supply class listed first,
    d1 and d3 the degree-one partners of s1 and s2.  Other classes have
    no roles, ``()``.
    """

    tag: str
    missing_edge: tuple[int, int] | None
    extreme_edges: tuple[tuple[int, int], ...]
    roles: tuple = ()


def _extreme_edges(graph: MatchingGraph) -> tuple[tuple[int, int], ...]:
    deg = graph.degrees
    return tuple(
        e for e, (d, s) in zip(graph.edge_index, graph.edge_ends) if deg[d] == 1 or deg[s] == 1
    )


def _missing_edge_roles(graph: MatchingGraph, missing: tuple[int, int]) -> tuple:
    d2, s1 = graph.atom_ends[graph.atom_index(missing)]
    return (
        tuple(i for i in range(graph.n_d) if i != d2),
        d2,
        s1,
        tuple(s for s in range(graph.n_d, graph.n_nodes) if s != s1),
    )


def _w_roles(graph: MatchingGraph) -> tuple[int, int, int, int, int]:
    d2 = graph.degrees.index(2)  # the one demand position of degree 2
    s1, s2 = graph.n_d, graph.n_d + 1
    # Each supply class pairs d2 with one leaf: d1 on s1, d3 on s2.
    d1, d3 = (next(d for d, s in graph.edge_ends if s == t and d != d2) for t in (s1, s2))
    return d1, d2, d3, s1, s2


def classify(graph: MatchingGraph) -> GraphClass:
    """Assign the most specific structural tag a graph satisfies.

    Order of precedence: complete, N-shaped, W-shaped, complete-minus-one,
    acyclic, general cyclic.  A two-by-two graph with three edges is both
    N-shaped and complete-minus-one; it is tagged N-shaped.
    """
    n_d, n_s, m = graph.n_d, graph.n_s, len(graph.edges)
    extremes = _extreme_edges(graph)
    present = set(graph.edge_index)
    missing = [a for a in graph.arrival_atoms if a not in present]
    if m == n_d * n_s:
        return GraphClass(COMPLETE, None, extremes)
    if n_d == 2 and n_s == 2 and m == 3:
        return GraphClass(N_SHAPED, missing[0], extremes, _missing_edge_roles(graph, missing[0]))
    d_deg, s_deg = sorted(graph.degrees[:n_d]), sorted(graph.degrees[n_d:])
    if n_d == 3 and n_s == 2 and m == 4 and d_deg == [1, 1, 2] and s_deg == [2, 2]:
        return GraphClass(W_SHAPED, None, extremes, _w_roles(graph))
    if n_d >= 2 and n_s >= 2 and m == n_d * n_s - 1:
        return GraphClass(
            COMPLETE_MINUS_ONE, missing[0], extremes, _missing_edge_roles(graph, missing[0])
        )
    if m == graph.n_nodes - 1:
        return GraphClass(ACYCLIC, None, extremes)
    return GraphClass(GENERAL_CYCLIC, None, extremes)


_ROLE_READERS = {
    N_SHAPED: (WrongGraphClass, "N layout needs an N-shaped graph"),
    W_SHAPED: (WrongGraphClass, "W layout needs a W-shaped graph"),
    COMPLETE_MINUS_ONE: (NotCompleteMinusOne, "projection needs a complete-minus-one graph"),
}


def role_positions(graph: MatchingGraph, family: str) -> tuple:
    """``classify(graph).roles`` for a reader of ``family``.

    N_SHAPED and W_SHAPED readers need a graph of that class, and raise
    :class:`~matchdp.errors.WrongGraphClass` on another; a
    COMPLETE_MINUS_ONE reader (a projection onto the N model) also takes
    an N graph, its own projection, and raises
    :class:`~matchdp.errors.NotCompleteMinusOne` on another class.
    """
    info = classify(graph)
    if info.tag != family and (family, info.tag) != (COMPLETE_MINUS_ONE, N_SHAPED):
        error, need = _ROLE_READERS[family]
        raise error(f"{need}, got {info.tag}")
    return info.roles


# ---- stability ----


@dataclass(frozen=True)
class StabilityViolation:
    side: str
    nodes: tuple[str, ...]
    mass: float
    neighbor_mass: float


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the strict subset drift test.

    Every proper nonempty subset is enumerated, so ``exhaustive`` is always
    True; it stays in the report and its record.
    """

    stable: bool
    violations: tuple[StabilityViolation, ...]
    violation_count: int
    exhaustive: bool
    subsets_checked: int

    MAX_RECORDED = 50


def _subset_sums(weights: np.ndarray) -> np.ndarray:
    sums = np.zeros(1)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    return sums


def _neighbor_union_masks(neighbor_bits: list[int]) -> np.ndarray:
    masks = np.zeros(1, dtype=np.int64)
    for bits in neighbor_bits:
        masks = np.concatenate([masks, masks | np.int64(bits)])
    return masks


def _mask_nodes(mask: int, labels: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(label for k, label in enumerate(labels) if mask >> k & 1)


def _side_violations(
    side: str,
    labels: tuple[str, ...],
    weights: np.ndarray,
    neighbor_bits: list[int],
    other_weights: np.ndarray,
) -> tuple[list[StabilityViolation], int, int]:
    """Check every proper nonempty subset of one side exhaustively."""
    n = len(labels)
    own = _subset_sums(weights)
    nbr = _neighbor_union_masks(neighbor_bits)
    other = _subset_sums(other_weights)
    masks = np.arange(1, 2**n - 1, dtype=np.int64)
    if masks.size == 0:
        return [], 0, 0
    own_mass = own[masks]
    nbr_mass = other[nbr[masks]]
    bad = np.nonzero(own_mass >= nbr_mass)[0]
    records = [
        StabilityViolation(
            side=side,
            nodes=_mask_nodes(int(masks[k]), labels),
            mass=float(own_mass[k]),
            neighbor_mass=float(nbr_mass[k]),
        )
        for k in bad[: StabilityReport.MAX_RECORDED]
    ]
    return records, int(bad.size), int(masks.size)


def check_stability(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
) -> StabilityReport:
    """Test the strict drift condition over proper nonempty node subsets.

    Every proper nonempty demand subset must carry strictly less arrival
    mass than its supply neighborhood, and symmetrically for supply
    subsets.  Graphs with more than 24 nodes raise
    :class:`~matchdp.errors.SubsetExplosion`.
    """
    _check_sizes(graph, arrivals)
    d_bits = [sum(1 << j for j in js) for js in graph.supply_neighbors]
    s_bits = [sum(1 << i for i in iis) for iis in graph.demand_neighbors]
    if graph.n_nodes > SUBSET_NODE_CAP:
        raise SubsetExplosion(
            f"{graph.n_nodes} nodes exceed the exhaustive subset cap of {SUBSET_NODE_CAP}"
        )
    rec_d, n_d_bad, checked_d = _side_violations(
        "demand", graph.demand_nodes, arrivals.alpha, d_bits, arrivals.beta
    )
    rec_s, n_s_bad, checked_s = _side_violations(
        "supply", graph.supply_nodes, arrivals.beta, s_bits, arrivals.alpha
    )
    total = n_d_bad + n_s_bad
    records = tuple((rec_d + rec_s)[: StabilityReport.MAX_RECORDED])
    return StabilityReport(
        stable=total == 0,
        violations=records,
        violation_count=total,
        exhaustive=True,
        subsets_checked=checked_d + checked_s,
    )


# ---- projection onto the two-by-two N model ----
#
# A complete-minus-one graph collapses onto the N model by its roles: the
# d1 group into the flexible demand node, the s2 group into the flexible
# supply node, and the two ends of the missing edge onto d2 and s1.


def project_state(graph: MatchingGraph, state: Sequence[int]) -> np.ndarray:
    """Collapse a full state vector to N coordinates (d1, d2, s1, s2)."""
    d1, d2, s1, s2 = role_positions(graph, COMPLETE_MINUS_ONE)
    vec = np.asarray(state)
    if vec.shape != (graph.n_nodes,):
        raise ValueError(f"state must have length {graph.n_nodes}, got {vec.shape}")
    return np.array([vec[list(d1)].sum(), vec[d2], vec[s1], vec[list(s2)].sum()])


def project_arrival(graph: MatchingGraph, i: int, j: int) -> tuple[int, int]:
    """Map an arrival atom (i, j) of the big graph to an N model atom."""
    _, d2, s1, _ = role_positions(graph, COMPLETE_MINUS_ONE)
    d, s = graph.atom_ends[graph.atom_index((i, j))]
    return int(d == d2), int(s != s1)


def projected_arrival_law(graph: MatchingGraph, arrivals: ArrivalDistribution) -> np.ndarray:
    """Aggregate the arrival law through the projection; returns a 2x2 table."""
    role_positions(graph, COMPLETE_MINUS_ONE)  # the class is checked before the sizes
    _check_sizes(graph, arrivals)
    law = np.zeros((2, 2))
    for (i, j), p in zip(graph.arrival_atoms, arrivals.atom_probs()):
        law[project_arrival(graph, i, j)] += p
    return law


def check_projected_cost(
    graph: MatchingGraph, costs: CostVector, n_costs: Sequence[float]
) -> bool:
    """Whether the cost vector collapses exactly onto the given N costs.

    Costs must be constant over the d1 group and over the s2 group, and
    the four-entry ``n_costs`` (d1, d2, s1, s2) must equal those constants
    and the costs of the two ends of the missing edge.
    """
    d1, d2, s1, s2 = role_positions(graph, COMPLETE_MINUS_ONE)
    target = np.asarray(n_costs, dtype=float)
    if target.shape != (4,):
        raise ValueError("n_costs must have exactly four entries (d1, d2, s1, s2)")
    group_d, group_s = costs.vector[list(d1)], costs.vector[list(s2)]
    if not (np.all(group_d == group_d[0]) and np.all(group_s == group_s[0])):
        return False
    collapsed = np.array([group_d[0], costs.vector[d2], costs.vector[s1], group_s[0]])
    return bool(np.all(collapsed == target))


# ---- file format ----


def read_graph_document(path: str | Path) -> dict:
    """Read a graph file into its JSON object, unvalidated.

    Raises :class:`ParseError` when the file cannot be read, is not JSON,
    or holds something other than an object.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read graph file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"graph file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"graph file {path} must hold a JSON object")
    return raw


def load_graph(source) -> tuple[MatchingGraph, ArrivalDistribution, CostVector]:
    """Load a graph description from a JSON file path or an already parsed dict.

    Expected shape::

        {"demand": [..], "supply": [..], "edges": [["d1","s1"], ..],
         "alpha": [..], "beta": [..], "costs": {"d1": 1.0, ..}}

    Array order defines index order.  Raises :class:`ParseError` naming the
    offending field on any structural problem.
    """
    if isinstance(source, (str, Path)):
        raw = read_graph_document(source)
    elif isinstance(source, dict):
        raw = source
    else:
        raise ParseError(f"unsupported graph source type {type(source).__name__}")
    for field_name in ("demand", "supply", "edges", "alpha", "beta", "costs"):
        if field_name not in raw:
            raise ParseError(f"graph document missing field {field_name!r}")
    for field_name in ("demand", "supply", "edges", "alpha", "beta"):
        if not isinstance(raw[field_name], list):
            raise ParseError(f"field {field_name!r} must be an array")
    for field_name in ("demand", "supply"):
        if not all(isinstance(x, str) for x in raw[field_name]):
            raise ParseError(f"field {field_name!r} must list node label strings")
    edges = []
    for k, entry in enumerate(raw["edges"]):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise ParseError(f"field 'edges'[{k}] must be a [demand, supply] pair")
        edges.append((entry[0], entry[1]))
    if not isinstance(raw["costs"], dict):
        raise ParseError("field 'costs' must map node labels to numbers")
    # Every rate and cost is a JSON number: not a string, not a bool.
    entries = [
        (f"{name!r}[{k}]", v) for name in ("alpha", "beta") for k, v in enumerate(raw[name])
    ]
    entries += [(f"'costs'[{key!r}]", v) for key, v in raw["costs"].items()]
    for where, val in entries:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ParseError(f"field {where} must be a number")
    try:
        graph = MatchingGraph(
            demand_nodes=tuple(raw["demand"]),
            supply_nodes=tuple(raw["supply"]),
            edges=tuple(edges),
        )
    except ValueError as exc:
        raise ParseError(f"invalid graph structure: {exc}") from exc
    try:
        arrivals = ArrivalDistribution(
            alpha=np.asarray(raw["alpha"], dtype=float),
            beta=np.asarray(raw["beta"], dtype=float),
        )
        _check_sizes(graph, arrivals)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid arrival distribution: {exc}") from exc
    try:
        costs = CostVector.from_mapping(graph, raw["costs"])
    except ValueError as exc:
        raise ParseError(f"invalid costs: {exc}") from exc
    return graph, arrivals, costs
