"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written with different data structures and
algorithms than the package (itertools products, dict lookups, Python
floats) so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import SimpleNamespace
from typing import Callable, Iterator, Sequence

import numpy as np

from matchdp.errors import (
    ActionSpaceBudget,
    Inadmissible,
    MissingDecision,
    NoConvergence,
    WrongGraphClass,
)
from matchdp.graphs import (
    COMPLETE,
    N_SHAPED,
    W_SHAPED,
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    classify,
)
from matchdp.nshaped import level_of_state
from matchdp.policies import (
    AcyclicHeuristic,
    FullMatch,
    MatchLongest,
    MaxWeight,
    Policy,
    PriorityExtreme,
    ThresholdCMO,
    ThresholdN,
    ThresholdW,
    ThresholdWWorkload,
    _decision,
)
from matchdp.simulate import SimConfig, SimResult, _aggregate
from matchdp.solver import (
    DPConfig,
    TruncatedStateSpace,
    ValueFunction,
    _post_arrival_costs,
    extract_policy,
)
from matchdp.states import (
    ACTION_BUDGET,
    arrival_vector,
    is_admissible,
    _int_list,
    node_usage,
)
from matchdp.structure import MAX_WITNESSES, PROPERTY_TOL, PropertyReport, ShapeReport

EXTRACT_GRID_LIMIT = 2_000_000


def brute_admissible(graph: MatchingGraph, x: Sequence[int]) -> list[tuple[int, ...]]:
    """All admissible matching vectors by box enumeration plus filtering.

    Enumerates the product of per-edge ranges [0, min endpoint] and keeps
    the vectors whose per-node totals fit in x.  Returned in lexicographic
    order by construction of itertools.product over ascending ranges.
    """
    x = list(int(v) for v in x)
    n_d = graph.n_d
    ranges = []
    for i, j in graph.edge_index:
        ranges.append(range(min(x[i], x[n_d + j]) + 1))
    out = []
    for combo in itertools.product(*ranges):
        used = [0] * (graph.n_d + graph.n_s)
        for count, (i, j) in zip(combo, graph.edge_index):
            used[i] += count
            used[n_d + j] += count
        if all(u <= cap for u, cap in zip(used, x)):
            out.append(tuple(combo))
    return out


def brute_balanced_states(n_d: int, n_s: int, cap: int) -> list[tuple[int, ...]]:
    """All balanced queue vectors with every coordinate at most cap."""
    out = []
    for q in itertools.product(range(cap + 1), repeat=n_d + n_s):
        if sum(q[:n_d]) == sum(q[n_d:]):
            out.append(q)
    return out


DenseTable = dict[tuple[tuple[int, ...], int], float]


def dense_zero(graph: MatchingGraph, cap: int) -> DenseTable:
    """Zero value table keyed by (balanced queue tuple, atom index)."""
    n_atoms = graph.n_d * graph.n_s
    return {
        (q, a): 0.0
        for q in brute_balanced_states(graph.n_d, graph.n_s, cap)
        for a in range(n_atoms)
    }


def _dense_sweep(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    costs: CostVector,
    cap: int,
    v: DenseTable,
    theta: float,
    choose: Callable[[list[int], DenseTable], float],
) -> DenseTable:
    """Shared loop of the dense sweeps: cost on the true post-arrival
    vector, successor resolved by ``choose`` against the old table."""
    n_d = graph.n_d
    cost_vec = [float(c) for c in costs.vector]
    new: DenseTable = {}
    for q in brute_balanced_states(graph.n_d, graph.n_s, cap):
        for a_idx, (i, j) in enumerate(graph.arrival_atoms):
            x = list(q)
            x[i] += 1
            x[n_d + j] += 1
            base = sum(c * xi for c, xi in zip(cost_vec, x))
            new[q, a_idx] = base + theta * choose(x, v)
    return new


def _clipped_successor(
    graph: MatchingGraph, cap: int, x: Sequence[int], u: Sequence[int]
) -> tuple[int, ...] | None:
    """Successor after matching and per-node clipping, or None when the
    clip truncates one side only and the result is not a state."""
    y = list(x)
    for count, (i, j) in zip(u, graph.edge_index):
        y[i] -= count
        y[graph.n_d + j] -= count
    key = tuple(min(val, cap) for val in y)
    if sum(key[: graph.n_d]) != sum(key[graph.n_d :]):
        return None
    return key


def _next_value(
    graph: MatchingGraph, probs: Sequence[float], key: tuple[int, ...], v: DenseTable
) -> float:
    return sum(p * v[key, k] for k, p in enumerate(probs))


@functools.lru_cache(maxsize=None)
def _clipped_candidates(
    graph: MatchingGraph, cap: int, x: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Clipped successors of x that are states, one per admissible matching
    in the lexicographic order of ``brute_admissible``."""
    keys = (_clipped_successor(graph, cap, x, u) for u in brute_admissible(graph, x))
    return tuple(key for key in keys if key is not None)


def dense_backup(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    costs: CostVector,
    cap: int,
    v: DenseTable,
    theta: float,
) -> DenseTable:
    """One optimality sweep by brute enumeration of every matching.

    Matchings whose clipped successor would leave the balanced set are not
    transitions of the model and are skipped.  The candidates of each x are
    enumerated once per (graph, cap, x) and reused by later sweeps.
    """
    probs = [float(p) for p in arrivals.atom_probs()]

    def choose(x: list[int], table: DenseTable) -> float:
        best = math.inf
        for key in _clipped_candidates(graph, cap, tuple(x)):
            val = _next_value(graph, probs, key, table)
            if val < best:
                best = val
        assert best < math.inf, f"no balanced successor from {x}"
        return best

    return _dense_sweep(graph, arrivals, costs, cap, v, theta, choose)


@functools.lru_cache(maxsize=None)
def _policy_successor(
    graph: MatchingGraph,
    cap: int,
    decide: Callable[[Sequence[int]], Sequence[int]],
    x: tuple[int, ...],
) -> tuple[int, ...] | None:
    """Clipped successor of x under ``decide``, None when it is no state."""
    return _clipped_successor(graph, cap, x, decide(list(x)))


def dense_policy_backup(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    costs: CostVector,
    cap: int,
    v: DenseTable,
    theta: float,
    decide: Callable[[Sequence[int]], Sequence[int]],
) -> DenseTable:
    """One fixed-policy sweep; ``decide`` maps a post-arrival vector to
    per-edge counts and must keep the clipped successor balanced.  The
    successor of each x is resolved once per (graph, cap, decide, x) and
    reused by later sweeps, so ``decide`` must be deterministic."""
    probs = [float(p) for p in arrivals.atom_probs()]

    def choose(x: list[int], table: DenseTable) -> float:
        key = _policy_successor(graph, cap, decide, tuple(x))
        assert key is not None, f"policy leaves the balanced set from {x}"
        return _next_value(graph, probs, key, table)

    return _dense_sweep(graph, arrivals, costs, cap, v, theta, choose)


def _argmin_decision(
    space: TruncatedStateSpace, w: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Lexicographically smallest minimizer of w(x - usage(u)) over matchings.

    Enumerates the per-edge count grid (pruned by per-node caps), looks the
    successors up in the packed expected-value vector w, and takes the
    first minimum, which is the lexicographically smallest because the
    grid flattens in ascending lexicographic order.
    """
    graph = space.graph
    caps = [int(min(x[i], x[graph.n_d + j])) for i, j in graph.edge_index]
    total = 1
    for c in caps:
        total *= c + 1
    if total > EXTRACT_GRID_LIMIT:
        raise Inadmissible(
            f"decision grid at x={x.tolist()} needs {total} candidates, "
            f"over the extraction limit {EXTRACT_GRID_LIMIT}"
        )
    grid = np.indices([c + 1 for c in caps]).reshape(len(caps), -1).T
    usage = np.zeros((len(caps), graph.n_nodes), dtype=np.int64)
    for e, (i, j) in enumerate(graph.edge_index):
        usage[e, i] = 1
        usage[e, graph.n_d + j] = 1
    used = grid @ usage
    feasible = np.all(used <= x, axis=1)
    grid = grid[feasible]
    succ = x - used[feasible]
    best = int(np.argmin(w[space.rows(succ)]))
    return grid[best]


# ---- the backup index from whole vectors ----


def _reference_sector(graph: MatchingGraph, side: int, one_at_side: bool) -> np.ndarray:
    """Balanced vectors in [0, side]^nodes, lexicographically, from the
    (demand rows x supply rows) table of equal totals."""

    def grid(n: int) -> np.ndarray:
        rows = np.indices((side + 1,) * n).reshape(n, -1).T
        return rows[(rows == side).sum(axis=1) <= 1] if one_at_side else rows

    demand, supply = grid(graph.n_d), grid(graph.n_s)
    d_rows, s_rows = np.nonzero(demand.sum(axis=1)[:, None] == supply.sum(axis=1))
    return np.hstack([demand[d_rows], supply[s_rows]])


def _reference_rows(codes: np.ndarray, shape: tuple[int, ...], vectors) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.int64).reshape(-1, len(shape))
    want = np.ravel_multi_index(vectors.T, shape)
    pos = np.searchsorted(codes, want)
    assert np.all(codes[np.minimum(pos, len(codes) - 1)] == want)
    return pos


def reference_backup_index(space: TruncatedStateSpace) -> tuple:
    """The five fields of ``space.backup_index`` in int64, built by
    subtracting and adding whole vectors and looking each result up by its
    ravel code in the lexicographic extended sector."""
    graph, n_d, cap = space.graph, space.graph.n_d, space.cap
    ext = _reference_sector(graph, cap + 1, one_at_side=True)
    ext_shape = (cap + 2,) * graph.n_nodes
    ext_codes = np.ravel_multi_index(ext.T, ext_shape)
    level = ext[:, :n_d].sum(axis=1)
    order = np.argsort(level, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ext, level = ext[order], level[order]

    def ext_rows(vectors: np.ndarray) -> np.ndarray:
        return rank[_reference_rows(ext_codes, ext_shape, vectors)]

    states = space.balanced_states
    state_codes = np.ravel_multi_index(states.T, space.shape)
    clipped = np.minimum(ext, cap)
    is_state = clipped[:, :n_d].sum(axis=1) == clipped[:, n_d:].sum(axis=1)
    read = np.full(len(ext) + 1, len(states))
    read[:-1][is_state] = _reference_rows(state_codes, space.shape, clipped[is_state])
    pred = np.full((len(ext), len(graph.edges)), len(ext))
    for e, (i, j) in enumerate(graph.edge_index):
        has = (ext[:, i] > 0) & (ext[:, n_d + j] > 0)
        pred[has, e] = ext_rows(ext[has] - arrival_vector(graph, i, j))
    starts = np.searchsorted(level, np.arange(1, level[-1] + 2)).tolist()
    post = np.stack(
        [ext_rows(states + arrival_vector(graph, i, j)) for i, j in graph.arrival_atoms],
        axis=1,
    )
    levels = tuple(zip(starts[:-1], starts[1:]))
    return ext, read, pred, levels, post


# ---- plain value iteration ----


def reference_sector_min(space: TruncatedStateSpace, w: np.ndarray) -> np.ndarray:
    """min over admissible matchings u of w(clip(x - usage(u))) per extended
    row x, with +inf where every clip leaves the sector (sentinel row last).

    One pass over the levels: the successors of x are x itself and those of
    each x - e one matched pair lower, so m(x) = min(w(clip(x)), min over
    edges e of m(x - e)), one gather-min per level.
    """
    _, read, pred, levels, _ = space.backup_index
    m = np.append(w, np.inf)[read]
    for start, stop in levels:
        np.minimum(m[start:stop], m[pred[start:stop]].min(axis=1), out=m[start:stop])
    return m


def reference_backup(
    space: TruncatedStateSpace,
    table: np.ndarray,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    theta: float,
) -> np.ndarray:
    """One optimality sweep from the one-pass matching minimum: +inf where a
    (state, atom) pair has no transition that stays in the sector."""
    m = reference_sector_min(space, table @ arrivals.atom_probs())
    return _post_arrival_costs(space, costs) + theta * m[space.backup_index.post]


def _reference_iterate(
    space: TruncatedStateSpace,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None,
    discounted: bool,
) -> tuple[float | None, ValueFunction]:
    """Backups of the optimality operator and nothing else, until the span
    of the change drops below tolerance, from the solvers' default start:
    zeros in discounted mode, the post-arrival costs less their [0, 0]
    entry in average mode.  Average mode renormalizes at row 0, atom 0;
    discounted mode returns the last backup plus theta / (1 - theta) times
    the midpoint of the change's min and max (the MacQueen-Porteus
    bounds)."""
    config = config or DPConfig()
    theta = config.theta if discounted else 1.0
    tol = config.resolved_tol("discounted" if discounted else "average")
    if discounted:
        table = np.zeros((len(space.balanced_states), space.n_atoms))
    else:
        base = _post_arrival_costs(space, costs)
        table = base - base[0, 0]
    residual = math.inf
    for n in range(1, config.max_iters + 1):
        new = reference_backup(space, table, costs, arrivals, theta)
        diff = new - table
        low, high = float(diff.min()), float(diff.max())
        residual = high - low
        if discounted:
            gain = None
            table = new
        else:
            gain = float(new[0, 0])
            table = new - gain
        if residual < tol:
            if discounted:
                table = table + theta / (1 - theta) * (low + high) / 2
            theta_out = theta if discounted else None
            vf = ValueFunction(space, table, theta_out, n, residual, low, high)
            return gain, vf
    raise NoConvergence(
        f"reference iteration did not reach tol={tol:g}",
        iterations=config.max_iters,
        residual=residual,
    )


def reference_value_iteration(
    space: TruncatedStateSpace,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None = None,
):
    """Plain discounted value iteration; returns (value function, policy)."""
    _, vf = _reference_iterate(space, costs, arrivals, config, True)
    return vf, extract_policy(space, vf.data, arrivals)


def reference_relative_value_iteration(
    space: TruncatedStateSpace,
    costs: CostVector,
    arrivals: ArrivalDistribution,
    config: DPConfig | None = None,
):
    """Plain relative value iteration; returns (gain, value function,
    policy)."""
    gain, vf = _reference_iterate(space, costs, arrivals, config, False)
    return gain, vf, extract_policy(space, vf.data, arrivals)


# ---- roles, from node and edge labels ----


def reference_roles(graph: MatchingGraph) -> dict[str, tuple[int, ...]]:
    """The state positions of each role, from the labels alone.

    A W graph (three demand and two supply labels, four edges, each supply
    label on two of them): d2 is the demand label on two edges, s1 and s2
    the supply labels in file order, and d1 and d3 their other partners.
    A graph with exactly one absent (demand, supply) label pair and at
    least two labels a side (N or complete-minus-one): d2 and s1 are the
    labels of that pair, d1 and s2 all other demand and supply labels.
    Every role maps to a tuple of positions; other graphs have none.
    """
    demand, supply, edges = graph.demand_nodes, graph.supply_nodes, set(graph.edges)
    where = {label: k for k, label in enumerate(demand + supply)}
    partners = {label: [b for a, b in edges if a == label] + [a for a, b in edges if b == label]
                for label in where}
    if len(demand) == 3 and len(supply) == 2 and len(edges) == 4 and all(
        len(partners[s]) == 2 for s in supply
    ):
        (middle,) = [d for d in demand if len(partners[d]) == 2]
        first, second = supply
        leaf = {s: d for d, s in edges if d != middle}
        labels = (leaf[first], middle, leaf[second], first, second)
        return {name: (where[label],) for name, label in zip(("d1", "d2", "d3", "s1", "s2"), labels)}
    absent = [(d, s) for d in demand for s in supply if (d, s) not in edges]
    if len(absent) == 1 and len(demand) >= 2 and len(supply) >= 2:
        ((d2, s1),) = absent
        return {
            "d1": tuple(where[d] for d in demand if d != d2),
            "d2": (where[d2],),
            "s1": (where[s1],),
            "s2": tuple(where[s] for s in supply if s != s1),
        }
    return {}


def reference_layout(graph: MatchingGraph) -> SimpleNamespace:
    """The one position of each role of an N or W graph (see
    :func:`reference_roles`), and the supply class indices ``s1_local``
    and ``s2_local`` that pair arguments take."""
    roles = {name: p for name, (p,) in reference_roles(graph).items()}
    return SimpleNamespace(
        **roles, s1_local=roles["s1"] - graph.n_d, s2_local=roles["s2"] - graph.n_d
    )


# ---- threshold rules as first written, one formula per graph family ----


def _surplus(value: int, t: float) -> int:
    return 0 if t == math.inf else max(0, value - int(t))


def reference_threshold_n(graph: MatchingGraph, t: float, x: Sequence[int]) -> np.ndarray:
    """The N rule on the N layout: both priority edges saturate, and the
    flexible edge (d1, s2) takes the d1 surplus over s1 beyond t."""
    lay = reference_layout(graph)
    pos = graph.edge_position
    e11 = pos[(lay.d1, lay.s1_local)]
    e12 = pos[(lay.d1, lay.s2_local)]
    e22 = pos[(lay.d2, lay.s2_local)]
    d1, d2, s1, s2 = int(x[lay.d1]), int(x[lay.d2]), int(x[lay.s1]), int(x[lay.s2])
    u = np.zeros(len(graph.edges), dtype=np.int64)
    u[e11] = min(d1, s1)
    u[e22] = min(d2, s2)
    u[e12] = min(_surplus(d1 - s1, t), d1 - u[e11], s2 - u[e22])
    return u


def reference_threshold_cmo(graph: MatchingGraph, t: float, x: Sequence[int]) -> np.ndarray:
    """The complete-minus-one rule: group totals from the N rule on the
    projected state, allocated greedily over each group's edges in file
    order, one numpy residual update per edge."""
    roles = reference_roles(graph)
    (i_star,), (s_star,) = roles["d2"], roles["s1"]
    j_star = s_star - graph.n_d
    demand_group = roles["d1"]
    supply_group = [s - graph.n_d for s in roles["s2"]]
    pos = graph.edge_position
    groups = (
        sorted(pos[(i, j_star)] for i in demand_group),
        sorted(pos[(i_star, j)] for j in supply_group),
        sorted(pos[(i, j)] for i in demand_group for j in supply_group),
    )
    vec = np.asarray(x, dtype=np.int64)
    sum_d = int(vec[list(demand_group)].sum())
    sum_s = int(vec[list(roles["s2"])].sum())
    x_dstar = int(vec[i_star])
    x_sstar = int(vec[graph.n_d + j_star])
    total_11 = min(sum_d, x_sstar)
    total_22 = min(x_dstar, sum_s)
    k = min(_surplus(sum_d - x_sstar, t), sum_d - total_11, sum_s - total_22)
    rem = vec.copy()
    u = np.zeros(len(graph.edges), dtype=np.int64)
    for left, group in ((total_11, groups[0]), (total_22, groups[1]), (k, groups[2])):
        for e in group:
            i, j = graph.edge_index[e]
            take = min(left, rem[i], rem[graph.n_d + j])
            u[e] += take
            rem[i] -= take
            rem[graph.n_d + j] -= take
            left -= take
    return u


# ---- every decision rule on numpy vectors, one residual update per edge ----


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


def reference_admissible_matchings(
    graph: MatchingGraph, x: Sequence[int], budget: int = ACTION_BUDGET
) -> Iterator[np.ndarray]:
    """The admissible matchings of x by recursion over the edges, one
    generator frame per edge, on numpy counters; lexicographic order, and
    ActionSpaceBudget once more than ``budget`` would be yielded."""
    x_vec = np.asarray(x, dtype=np.int64)
    edges = graph.edge_index
    m = len(edges)
    remaining = x_vec.copy()
    counts = np.zeros(m, dtype=np.int64)
    yielded = 0

    def rec(k: int) -> Iterator[np.ndarray]:
        nonlocal yielded
        if k == m:
            yielded += 1
            if yielded > budget:
                raise ActionSpaceBudget(
                    f"more than {budget} admissible matchings at x={x_vec.tolist()}"
                )
            yield counts.copy()
            return
        i, j = edges[k]
        d_pos, s_pos = i, graph.n_d + j
        cap = int(min(remaining[d_pos], remaining[s_pos]))
        for c in range(cap + 1):
            counts[k] = c
            remaining[d_pos] -= c
            remaining[s_pos] -= c
            yield from rec(k + 1)
            remaining[d_pos] += c
            remaining[s_pos] += c
        counts[k] = 0

    return rec(0)


def _full_match(policy: FullMatch, x: np.ndarray) -> np.ndarray:
    graph = policy.graph
    rem = x.copy()
    u = np.zeros(len(graph.edges), dtype=np.int64)
    for e in range(len(u)):
        _take(graph, u, rem, e)
    return u


def _w_edge_positions(graph: MatchingGraph):
    """The W roles (d1, d2, d3, s1, s2) and the edges (d1, s1), (d2, s1),
    (d2, s2), (d3, s2)."""
    lay = reference_layout(graph)
    pos = graph.edge_position
    return (lay.d1, lay.d2, lay.d3, lay.s1, lay.s2), (
        pos[(lay.d1, lay.s1_local)], pos[(lay.d2, lay.s1_local)],
        pos[(lay.d2, lay.s2_local)], pos[(lay.d3, lay.s2_local)],
    )


def _threshold_w(policy: ThresholdW, x: np.ndarray) -> np.ndarray:
    at, (e11, e21, e22, e32) = _w_edge_positions(policy.graph)
    d1, d2, d3, s1, s2 = (int(x[p]) for p in at)
    k = min(_surplus(s1 - d1, policy.t21), d2)
    j = min(_surplus(s2 - d3, policy.t22), d2)
    if k + j > d2:
        raise Inadmissible(
            f"threshold counts k={k}, j={j} exceed the middle class "
            f"availability {d2} at x={x.tolist()} (unbalanced input)"
        )
    u = np.zeros(len(policy.graph.edges), dtype=np.int64)
    u[e11] = min(d1, s1)
    u[e32] = min(d3, s2)
    u[e21] = k
    u[e22] = j
    return u


def _threshold_w_workload(policy: ThresholdWWorkload, x: np.ndarray) -> np.ndarray:
    at, (e11, e21, e22, e32) = _w_edge_positions(policy.graph)
    d1, d2, d3, s1, s2 = (int(x[p]) for p in at)
    u11 = min(d1, s1)
    u22 = min(d2, s2)
    rem_s1 = s1 - u11
    rem_d2 = d2 - u22
    rem_s2 = s2 - u22
    u32 = min(_surplus(d3, policy.t32), rem_s2)
    workload = rem_d2 + (d3 - u32)
    u21 = min(_surplus(workload, policy.t21), rem_s1, rem_d2)
    u = np.zeros(len(policy.graph.edges), dtype=np.int64)
    u[e11] = u11
    u[e21] = u21
    u[e22] = u22
    u[e32] = u32
    return u


def _priority_extreme(policy: PriorityExtreme, x: np.ndarray) -> np.ndarray:
    graph = policy.graph
    rem = x.copy()
    u = np.zeros(len(graph.edges), dtype=np.int64)
    for e in policy._extreme_positions:
        _take(graph, u, rem, e)
    if policy.inner is not None:
        extra = reference_decide(policy.inner, rem)
        if not is_admissible(graph, rem, extra):
            raise Inadmissible(
                f"inner policy {policy.inner.label} returned "
                f"{np.asarray(extra).tolist()} at residual {rem.tolist()}"
            )
        u += np.asarray(extra, dtype=np.int64)
    return u


def _max_weight(policy: MaxWeight, x: np.ndarray) -> np.ndarray:
    graph, costs = policy.graph, policy.costs
    weights = np.array(
        [
            2.0 * costs.demand[i] * x[i] + 2.0 * costs.supply[j] * x[graph.n_d + j]
            for i, j in graph.edge_index
        ]
    )
    return max(reference_admissible_matchings(graph, x), key=lambda u: float(weights @ u))


def _match_longest(policy: MatchLongest, x: np.ndarray) -> np.ndarray:
    graph = policy.graph
    rem = x.copy()
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


def _acyclic_heuristic(policy: AcyclicHeuristic, x: np.ndarray) -> np.ndarray:
    graph = policy.graph
    thresholds = policy.node_thresholds
    rem = x.copy()
    u = np.zeros(len(graph.edges), dtype=np.int64)
    for level, layer in enumerate(policy.layers):
        for e in layer:
            i, j = graph.edge_index[e]
            limit = math.inf if level == 0 else min(
                _surplus(int(rem[i]), thresholds.get(graph.demand_nodes[i], 0)),
                _surplus(int(rem[graph.n_d + j]), thresholds.get(graph.supply_nodes[j], 0)),
            )
            _take(graph, u, rem, e, limit)
    return u


def reference_decide(policy: Policy, x: Sequence[int]) -> np.ndarray:
    """The decision of a library rule at x, computed on an int64 vector by
    that rule's formula with numpy scalars and in-place updates."""
    vec = np.asarray(x, dtype=np.int64)
    if isinstance(policy, ThresholdN):
        return reference_threshold_n(policy.graph, policy.t, vec)
    if isinstance(policy, ThresholdCMO):
        return reference_threshold_cmo(policy.graph, policy.t, vec)
    rules = {
        FullMatch: _full_match,
        ThresholdW: _threshold_w,
        ThresholdWWorkload: _threshold_w_workload,
        PriorityExtreme: _priority_extreme,
        MaxWeight: _max_weight,
        MatchLongest: _match_longest,
        AcyclicHeuristic: _acyclic_heuristic,
    }
    return rules[type(policy)](policy, vec)


# ---- table policies, one dict entry per decision ----


class ReferenceTabular(Policy):
    """The dict-backed table policy: one tuple key and one int64 array per
    decision, checked by ``_decision`` when stored.  Labels, lookups and
    errors are those of :class:`~matchdp.policies.Tabular`."""

    label = "Tabular"

    def __init__(self, graph: MatchingGraph, table, fallback: Policy | None = None):
        super().__init__(graph)
        self.table = {
            tuple(_int_list(key, self._n)): _decision(self.label, u, len(graph.edges))
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
        raise MissingDecision(f"no stored decision for x={list(key)} and no fallback policy")


def reference_read_decisions(
    policy: Policy, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``read_decisions`` one row at a time: ``decide`` once per row of
    ``xs``, each decision checked as it arrives, then the residuals and the
    inadmissible mask."""
    n_edges = len(policy.graph.edges)
    u = np.empty((len(xs), n_edges), dtype=np.int64)
    for row, x in zip(u, xs):
        row[:] = _decision(policy.label, policy.decide(x), n_edges)
    residual = xs - node_usage(policy.graph, u)
    return u, residual, np.any(u < 0, axis=1) | np.any(residual < 0, axis=1)


# ---- policy shape verification, one x at a time ----


def _shape_report(
    family: str,
    inferred: dict,
    witnesses: list[dict],
    violations: int,
    checked: int,
) -> ShapeReport:
    return ShapeReport(
        family=family,
        passed=violations == 0,
        inferred=inferred,
        witnesses=tuple(witnesses[:MAX_WITNESSES]),
        violation_count=violations,
        checked=checked,
    )


def _verify_full_match(space: TruncatedStateSpace, policy: Policy) -> ShapeReport:
    graph = space.graph
    if classify(graph).tag != COMPLETE:
        raise WrongGraphClass(
            f"the full-match family lives on complete graphs, got "
            f"{classify(graph).tag}"
        )
    witnesses: list[dict] = []
    violations = 0
    xs = space.interior_post_arrivals
    for x, key in zip(xs, xs.tolist()):
        u = np.asarray(policy.decide(x), dtype=np.int64)
        residual = x - node_usage(graph, u)
        if np.any(residual < 0) or np.any(u < 0):
            reason = "inadmissible"
        elif np.any(residual != 0):
            reason = "remainder"
        else:
            continue
        violations += 1
        if len(witnesses) < MAX_WITNESSES:
            witnesses.append(
                {
                    "reason": reason,
                    "x": list(key),
                    "decision": [int(c) for c in u],
                    "residual": [int(r) for r in residual],
                }
            )
    return _shape_report("full_match", {}, witnesses, violations, len(xs))


def _verify_threshold_n(space: TruncatedStateSpace, policy: Policy) -> ShapeReport:
    graph = space.graph
    lay = reference_layout(graph)
    pos = graph.edge_position
    e11 = pos[(lay.d1, lay.s1_local)]
    e12 = pos[(lay.d1, lay.s2_local)]
    e22 = pos[(lay.d2, lay.s2_local)]
    witnesses: list[dict] = []
    violations = 0
    implied: dict[int, list[tuple[int, ...]]] = {}
    held_back: list[tuple[int, tuple[int, ...]]] = []
    xs = space.interior_post_arrivals
    for x, key in zip(xs, xs.tolist()):
        u = np.asarray(policy.decide(x), dtype=np.int64)
        d1, d2, s1, s2 = int(x[lay.d1]), int(x[lay.d2]), int(x[lay.s1]), int(x[lay.s2])
        residual = x - node_usage(graph, u)
        bad: dict | None = None
        if np.any(residual < 0) or np.any(u < 0):
            bad = {"reason": "inadmissible"}
        elif int(u[e11]) != min(d1, s1) or int(u[e22]) != min(d2, s2):
            bad = {
                "reason": "priority_total",
                "expected": [min(d1, s1), min(d2, s2)],
                "got": [int(u[e11]), int(u[e22])],
            }
        if bad is not None:
            violations += 1
            if len(witnesses) < MAX_WITNESSES:
                bad["x"] = list(key)
                witnesses.append(bad)
            continue
        # Admissible with the priority totals, so k <= surplus.
        surplus = max(0, d1 - s1)
        k = int(u[e12])
        if surplus >= 1:
            if k > 0:
                implied.setdefault(surplus - k, []).append(key)
            else:
                held_back.append((surplus, key))
    inferred: dict[str, float | int | None]
    if len(implied) > 1:
        largest = max(len(keys) for keys in implied.values())
        violations += sum(len(keys) for keys in implied.values()) - largest
        for t_val in sorted(implied):
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append(
                    {
                        "reason": "threshold_conflict",
                        "x": list(implied[t_val][0]),
                        "implied_t": t_val,
                    }
                )
        inferred = {"t": None}
    elif len(implied) == 1:
        t_hat = next(iter(implied))
        for surplus, key in held_back:
            if surplus > t_hat:
                violations += 1
                if len(witnesses) < MAX_WITNESSES:
                    witnesses.append(
                        {
                            "reason": "threshold_conflict",
                            "x": list(key),
                            "surplus": surplus,
                            "implied_t": t_hat,
                        }
                    )
        inferred = {"t": t_hat}
    else:
        inferred = {"t": math.inf if held_back else None}
    return _shape_report("threshold_n", inferred, witnesses, violations, len(xs))


def _verify_priority_extreme(
    space: TruncatedStateSpace, policy: Policy
) -> ShapeReport:
    graph = space.graph
    extremes = classify(graph).extreme_edges
    if not extremes:
        raise WrongGraphClass("graph has no extreme edges to verify priority on")
    positions = [graph.edge_position[e] for e in extremes]
    witnesses: list[dict] = []
    violations = 0
    xs = space.interior_post_arrivals
    for x, key in zip(xs, xs.tolist()):
        u = np.asarray(policy.decide(x), dtype=np.int64)
        residual = x - node_usage(graph, u)
        if np.any(residual < 0) or np.any(u < 0):
            violations += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append({"reason": "inadmissible", "x": list(key)})
            continue
        rem = x.copy()
        best = 0
        for i, j in extremes:
            take = int(min(rem[i], rem[graph.n_d + j]))
            best += take
            rem[i] -= take
            rem[graph.n_d + j] -= take
        got = int(u[positions].sum())
        if got != best:
            violations += 1
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append(
                    {
                        "reason": "extreme_total",
                        "x": list(key),
                        "expected": best,
                        "got": got,
                    }
                )
    return _shape_report("priority_extreme", {}, witnesses, violations, len(xs))


def reference_verify_policy_shape(
    space: TruncatedStateSpace, policy: Policy, family: str
) -> ShapeReport:
    """``verify_policy_shape`` as a loop over the interior post-arrival
    vectors: one ``decide`` call, usage sum, admissibility test and witness
    per x."""
    verify = {
        "full_match": _verify_full_match,
        "threshold_n": _verify_threshold_n,
        "priority_extreme": _verify_priority_extreme,
    }
    return verify[family](space, policy)


# ---- structural property checks, one (state, atom) at a time ----


def _reference_pair_roles(graph: MatchingGraph) -> dict:
    """Per check, its accepted pair arguments mapped to what each one brings:
    a convexity direction to its (high, low) guard positions, a boundary
    edge to its missing partner (None stands for the N graph's default
    edge), an exchange argument (middle edge, missing pair) to nothing, and
    modularity's argument None to the two middle edges."""
    tag = classify(graph).tag
    if tag == N_SHAPED:
        lay = reference_layout(graph)
        flexible, missing = (lay.d1, lay.s2_local), (lay.d2, lay.s1_local)
        return {
            "convex": {flexible: (lay.d1, lay.s1), missing: (lay.s1, lay.d1)},
            "boundary": {None: missing, flexible: missing},
        }
    if tag == W_SHAPED:
        lay = reference_layout(graph)
        middle1, middle2 = (lay.d2, lay.s1_local), (lay.d2, lay.s2_local)
        miss1, miss2 = (lay.d3, lay.s1_local), (lay.d1, lay.s2_local)
        return {
            "convex": {
                middle1: (lay.s1, lay.d1),
                miss2: (lay.d1, lay.s1),
                middle2: (lay.s2, lay.d3),
                miss1: (lay.d3, lay.s2),
            },
            "boundary": {middle1: miss2, middle2: miss1},
            "exchangeable": {(middle1, miss1): None, (middle2, miss2): None},
            "modular": {None: (middle1, middle2)},
        }
    return {}


def reference_property_calls(graph: MatchingGraph) -> list[tuple[str, object]]:
    """Every (check, pair argument) the structure checks accept on the graph."""
    calls: list[tuple[str, object]] = [
        ("increasing", (i, j)) for i in range(graph.n_d) for j in range(graph.n_s)
    ]
    for check, roles in _reference_pair_roles(graph).items():
        calls += [(check, arg) for arg in roles]
    if len(graph.edges) == graph.n_nodes - 1:
        calls += [("undesirable", e) for e in classify(graph).extreme_edges]
    return calls


def _fold_property(
    space: TruncatedStateSpace,
    table: np.ndarray,
    name: str,
    variants: Sequence[tuple[dict, Sequence[Sequence[int]], Callable[..., float]]],
    tol: float,
    keep: Callable[[list[int]], bool] = lambda q: True,
) -> PropertyReport:
    """Scan the variants in order, then the states of ``space.balanced_states``
    and the atoms: a (state, atom) counts when the state and each of its
    shifts lie in the interior box, and the report keeps the first instance
    of the largest excess of the variant's formula over the shifted reads."""
    hi = space.cap - space.margin
    best: tuple[float, dict] | None = None
    checked = 0
    for extra, shifts, excess in variants:
        for state in space.balanced_states.tolist():
            points = [[c + d for c, d in zip(state, shift)] for shift in shifts]
            if not keep(state) or any(c < 0 or c > hi for p in points for c in p):
                continue
            rows = [space.state_index(p) for p in points]
            for a, atom in enumerate(space.graph.arrival_atoms):
                value = excess(*(float(table[r, a]) for r in rows))
                checked += 1
                if best is None or value > best[0]:
                    best = (value, {"q": state, "atom": list(atom), **extra})
    if best is None:
        return PropertyReport(name, True, 0.0, None, tol, 0)
    worst = max(best[0], 0.0)
    return PropertyReport(name, worst <= tol, worst, best[1], tol, checked)


def reference_property(
    space: TruncatedStateSpace, v, check: str, arg=None, tol: float = PROPERTY_TOL
) -> PropertyReport:
    """``structure.check_<check>`` on one accepted argument (see
    :func:`reference_property_calls`), by :func:`_fold_property`'s loop."""
    graph = space.graph
    table = np.asarray(v.data if isinstance(v, ValueFunction) else v, dtype=float)
    zero = [0] * graph.n_nodes

    def unit(pair, times=1):
        vec = list(zero)
        vec[pair[0]] += times
        vec[graph.n_d + pair[1]] += times
        return vec

    def plus(*vecs):
        return [sum(cs) for cs in zip(*vecs)]

    def label(pair):
        return f"{graph.demand_nodes[pair[0]]},{graph.supply_nodes[pair[1]]}"

    roles = _reference_pair_roles(graph).get(check, {})
    if check == "increasing":
        variants = [({}, [zero, unit(arg)], lambda q, up: q - up)]
        return _fold_property(space, table, f"increasing[{label(arg)}]", variants, tol)
    if check == "convex":
        high, low = roles[arg]
        variants = [
            ({}, [zero, unit(arg), unit(arg, 2)], lambda q, up, up2: 2.0 * up - q - up2)
        ]
        return _fold_property(
            space, table, f"convex[{label(arg)}]", variants, tol,
            keep=lambda q: q[high] >= q[low],
        )
    if check == "boundary":
        edge = next(e for e in roles if e is not None) if arg is None else arg
        variants = [
            ({}, [zero, unit(roles[edge]), unit(edge)],
             lambda q, miss, hit: (q - miss) - (hit - q))
        ]
        return _fold_property(
            space, table, f"boundary[{label(edge)}]", variants, tol,
            keep=lambda q: not any(q),
        )
    if check == "undesirable":
        extreme = unit(arg)
        variants = [
            ({"neighbor": list(e)}, [zero, plus(extreme, unit(e, -1))],
             lambda q, moved: q - moved)
            for e in graph.edge_index
            if e != tuple(arg) and (e[0] == arg[0] or e[1] == arg[1])
        ]
        return _fold_property(space, table, f"undesirable[{label(arg)}]", variants, tol)
    if check == "exchangeable":
        e1, e2 = unit(arg[0]), unit(arg[1])
        variants = [
            ({}, [zero, e1, e2, plus(e2, unit(arg[0], -1))],
             lambda q, up1, up2, swap: abs((up1 - q) - (up2 - swap)))
        ]
        name = f"exchangeable[{label(arg[0])}|{label(arg[1])}]"
        return _fold_property(space, table, name, variants, tol)
    first, second = roles[None]
    e1, e2 = unit(first), unit(second)
    variants = [
        ({}, [zero, e1, e2, plus(e1, e2)],
         lambda q, up1, up2, both: abs(both - up1 - up2 + q))
    ]
    name = f"modular[{label(first)}|{label(second)}]"
    return _fold_property(space, table, name, variants, tol)


def reference_streams(
    graph: MatchingGraph, arrivals: ArrivalDistribution, cfg: SimConfig, rep: int
) -> tuple[list[int], list[int]]:
    """Per-step class indices of one replication from a single (horizon, 2)
    uniform block, by inverse-CDF search; the first step honors ``a0``."""
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, rep]))
    u = rng.random((cfg.horizon, 2))
    d_idx = np.searchsorted(np.cumsum(arrivals.alpha), u[:, 0], side="right")
    s_idx = np.searchsorted(np.cumsum(arrivals.beta), u[:, 1], side="right")
    np.minimum(d_idx, graph.n_d - 1, out=d_idx)
    np.minimum(s_idx, graph.n_s - 1, out=s_idx)
    atom = cfg.initial_atom(graph)
    if atom is not None:
        d_idx[0], s_idx[0] = atom
    return d_idx.tolist(), s_idx.tolist()


def reference_replication(graph, costs, policy, cfg, d_idx, s_idx, threshold):
    """Step-by-step run calling ``decide`` on every step.

    Returns (total counted cost, node occupancy sums, level counts), with
    level counts only when ``threshold`` is given, read at the N roles of
    :func:`reference_roles`.
    """
    if threshold is not None:
        lay = reference_layout(graph)
        at = (lay.d1, lay.d2, lay.s1, lay.s2)
    nd = graph.n_d
    n_nodes = graph.n_nodes
    cvec = [float(v) for v in costs.vector]
    edge_index = list(graph.edge_index)
    burn = cfg.burn_in
    q = cfg.initial_queue(graph)
    total = 0.0
    node_sums = [0] * n_nodes
    counts: list[int] | None = [] if threshold is not None else None
    for n, (i, j) in enumerate(zip(d_idx, s_idx)):
        on = n >= burn
        if on:
            for k in range(n_nodes):
                node_sums[k] += q[k]
            if counts is not None:
                level = level_of_state(threshold, [q[p] for p in at])
                if level is not None:
                    while len(counts) <= level:
                        counts.append(0)
                    counts[level] += 1
        q[i] += 1
        q[nd + j] += 1
        if on:
            c = 0.0
            for k in range(n_nodes):
                c += cvec[k] * q[k]
            total += c
        u = [int(v) for v in policy.decide(np.asarray(q, dtype=np.int64))]
        for e, (ei, ej) in enumerate(edge_index):
            take = u[e]
            q[ei] -= take
            q[nd + ej] -= take
        if min(u) < 0 or min(q) < 0:
            x = list(q)
            for e, (ei, ej) in enumerate(edge_index):
                x[ei] += u[e]
                x[nd + ej] += u[e]
            raise Inadmissible(
                f"policy {policy.label} returned u={u} at x={x} (step {n})"
            )
    return total, node_sums, counts


def reference_simulate(
    graph: MatchingGraph,
    arrivals: ArrivalDistribution,
    costs: CostVector,
    policy: Policy,
    cfg: SimConfig,
) -> SimResult:
    """Serial step-by-step simulation with the package's aggregation.

    Level counts are kept for a finite threshold rule on an N graph, read
    at its roles.
    """
    threshold = None
    if (isinstance(policy, ThresholdN) and classify(graph).tag == N_SHAPED
            and policy.t != math.inf):
        threshold = int(policy.t)
    outs = [
        reference_replication(
            graph, costs, policy, cfg,
            *reference_streams(graph, arrivals, cfg, rep), threshold,
        )
        for rep in range(cfg.replications)
    ]
    return _aggregate(policy.label, outs, cfg)
