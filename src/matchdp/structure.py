"""Structural checks on value tables and shape verification for policies.

Solver value tables carry more information than their numbers: whether the
value rises when a pair of items is added, whether it is discretely convex
along the direction a threshold rule controls, whether parallel edges can
be exchanged without changing marginal values.  These are the properties
that make threshold and priority rules optimal, so checking them on a
computed table turns a qualitative claim about a policy class into a
finite numerical test.

Every checker reads interior states only: balanced vectors whose
coordinates stay at least ``margin`` below the cap, probed so that every
shifted state is interior too.  Values at truncation-tainted states never
enter a verdict.  Reports are deterministic: the largest violation wins,
and ties resolve to the lexicographically smallest witness because states
are scanned in ascending lexicographic order.

Value arguments are :class:`ValueFunction` objects or packed arrays of
shape ``(len(space.balanced_states), space.n_atoms)`` in the row order of
``space.balanced_states``.

Pair arguments are (demand index, supply index) pairs in file order, the
same convention as arrival atoms; a pair does not need to be an edge of
the graph, since adding one item to each side keeps a state balanced
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import WrongGraphClass
from .graphs import COMPLETE, MatchingGraph, N_SHAPED, W_SHAPED, classify
from .policies import Policy, _check_graph, read_decisions, threshold_json
from .solver import TruncatedStateSpace, ValueFunction, _packed
from .states import arrival_vector, n_layout, w_layout

PROPERTY_TOL = 1e-9
MAX_WITNESSES = 10


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of one structural property check.

    ``worst_violation`` is the largest amount by which the property's
    inequality is broken, clamped at zero, so the pass flag is exactly
    ``worst_violation <= tolerance``.  ``witness`` locates the instance
    achieving the largest raw excess (the closest call when the check
    passes); it is None only when no instance fit inside the interior.
    """

    name: str
    passed: bool
    worst_violation: float
    witness: dict | None
    tolerance: float
    checked: int

    def to_record(self) -> dict:
        return {
            "kind": "property",
            "name": self.name,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "tolerance": self.tolerance,
            "checked": self.checked,
        }


@dataclass(frozen=True)
class ShapeReport:
    """Verdict of a policy shape verification.

    ``inferred`` holds the family parameters read off the decisions (for
    the threshold family, {"t": value} with value an int, ``math.inf``
    when the flexible pair is never matched, or None when no decision
    pins it down).  ``witnesses`` records up to :data:`MAX_WITNESSES`
    offending states; ``violation_count`` keeps the full count.
    """

    family: str
    passed: bool
    inferred: dict
    witnesses: tuple[dict, ...]
    violation_count: int
    checked: int

    def to_record(self) -> dict:
        inferred = {key: threshold_json(val) for key, val in self.inferred.items()}
        return {
            "kind": "policy_shape",
            "family": self.family,
            "passed": self.passed,
            "inferred": inferred,
            "witnesses": list(self.witnesses),
            "violation_count": self.violation_count,
            "checked": self.checked,
        }


# ---- table reads and pair roles ----


def _reads(
    space: TruncatedStateSpace, v, shifts: Sequence, keep: Callable | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Interior states (those ``keep`` passes) whose shift by every vector
    stays interior, and the table read at each shift of them."""
    table = _packed(space, v.data if isinstance(v, ValueFunction) else v)
    base = space.interior_balanced_states
    if keep is not None:
        base = base[keep(base)]
    hi = space.cap - space.margin
    for shift in shifts:
        shifted = base + shift
        base = base[np.all((shifted >= 0) & (shifted <= hi), axis=1)]
    return base, [table[space.rows(base + shift)] for shift in shifts]


def _roles(graph: MatchingGraph, check: str) -> dict:
    """The pairs ``check`` takes on an N or W graph, by role.

    A convexity direction maps to its (high, low) guard axes: it is checked
    only on states with q[high] >= q[low], the half-space on which repeated
    steps keep comparing the same side of the threshold.  A boundary edge
    maps to its missing partner, an exchanged middle edge to the missing
    pair on its supply class, and the first middle edge to the second.
    """
    tag = classify(graph).tag
    roles: dict = {}
    if tag == N_SHAPED:
        lay = n_layout(graph)
        flexible, missing = (lay.d1, lay.s2_local), (lay.d2, lay.s1_local)
        roles = {
            "convex": {flexible: (lay.d1, lay.s1), missing: (lay.s1, lay.d1)},
            "boundary": {flexible: missing},
        }
    elif tag == W_SHAPED:
        lay = w_layout(graph)
        middle1, middle2 = (lay.d2, lay.s1_local), (lay.d2, lay.s2_local)
        miss1, miss2 = (lay.d3, lay.s1_local), (lay.d1, lay.s2_local)
        roles = {
            "convex": {middle1: (lay.s1, lay.d1), miss2: (lay.d1, lay.s1),
                       middle2: (lay.s2, lay.d3), miss1: (lay.d3, lay.s2)},
            "boundary": {middle1: miss2, middle2: miss1},
            "exchange": {middle1: miss1, middle2: miss2},
            "modular": {middle1: middle2},
        }
    if check not in roles:
        families = "N and W" if check in ("convex", "boundary") else "W"
        raise WrongGraphClass(
            f"the {check} check is defined on {families} shaped graphs, got {tag}"
        )
    return roles[check]


def _class_pair(graph: MatchingGraph, pair: Sequence[int]) -> tuple[int, int]:
    return graph.arrival_atoms[graph.atom_index(pair, "pair")]


def _pair_label(graph: MatchingGraph, i: int, j: int) -> str:
    return f"{graph.demand_nodes[i]},{graph.supply_nodes[j]}"


def _pair_names(graph: MatchingGraph, pairs) -> str:
    return ", ".join(f"({_pair_label(graph, *p)})" for p in pairs)


def _reduce(
    name: str,
    space: TruncatedStateSpace,
    base: np.ndarray,
    excess: np.ndarray,
    tol: float,
    **fields: np.ndarray,
) -> PropertyReport:
    """Fold per-instance excesses into a report; positive excess violates.

    Each field holds one witness entry per row of ``base``.
    """
    checked = int(excess.size)
    if checked == 0:
        return PropertyReport(name, True, 0.0, None, tol, 0)
    flat = int(np.argmax(excess))
    row, a_idx = divmod(flat, excess.shape[1])
    worst = max(float(excess.ravel()[flat]), 0.0)
    i, j = space.graph.arrival_atoms[a_idx]
    witness = {"q": [int(x) for x in base[row]], "atom": [i, j]}
    witness |= {key: val[row].tolist() for key, val in fields.items()}
    return PropertyReport(name, worst <= tol, worst, witness, tol, checked)


# ---- property checkers ----


def check_increasing(
    space: TruncatedStateSpace, v, pair: Sequence[int], *, tol: float = PROPERTY_TOL
) -> PropertyReport:
    """Whether v never decreases when the given pair is added to the queue.

    Checks v(q + e, a) >= v(q, a) for the pair vector e at every interior
    (q, a) whose shifted state stays interior.  Works on any graph and on
    pairs outside the edge set.
    """
    graph = space.graph
    i, j = _class_pair(graph, pair)
    base, (at_q, at_up) = _reads(space, v, [0, arrival_vector(graph, i, j)])
    return _reduce(
        f"increasing[{_pair_label(graph, i, j)}]", space, base, at_q - at_up, tol
    )


def check_convex(
    space: TruncatedStateSpace, v, direction: Sequence[int], *, tol: float = PROPERTY_TOL
) -> PropertyReport:
    """Second differences of v along a repeated pair direction.

    Checks v(q + 2e, a) - v(q + e, a) >= v(q + e, a) - v(q, a) on the
    half-space belonging to the direction.  Supported directions are the
    flexible and the missing pair of an N graph, and the two middle edges
    plus the two missing diagonal pairs of a W graph.
    """
    graph = space.graph
    i, j = _class_pair(graph, direction)
    guards = _roles(graph, "convex")
    if (i, j) not in guards:
        raise ValueError(
            f"({_pair_label(graph, i, j)}) is not a convexity direction of this "
            f"graph; supported: {_pair_names(graph, guards)}"
        )
    high, low = guards[(i, j)]
    delta = arrival_vector(graph, i, j)
    base, (at_q, mid, at_up2) = _reads(
        space, v, [0, delta, 2 * delta], keep=lambda b: b[:, high] >= b[:, low]
    )
    excess = 2.0 * mid - at_q - at_up2
    return _reduce(f"convex[{_pair_label(graph, i, j)}]", space, base, excess, tol)


def check_boundary(
    space: TruncatedStateSpace,
    v,
    edge: Sequence[int] | None = None,
    *,
    tol: float = PROPERTY_TOL,
) -> PropertyReport:
    """First-step comparison at the empty queue, per arrival atom.

    Checks v(0, a) - v(e_miss, a) <= v(e_edge, a) - v(0, a): stepping into
    the missing pair may not improve the value by more than stepping along
    the named edge worsens it.  On an N graph the edge is the flexible
    pair (the default); on a W graph it must be one of the two middle
    edges, each paired with its opposite missing diagonal.
    """
    graph = space.graph
    partners = _roles(graph, "boundary")
    if edge is None and len(partners) > 1:
        raise ValueError("a W graph has two boundary variants; pass one middle edge")
    rhs_pair = _class_pair(graph, next(iter(partners)) if edge is None else edge)
    if rhs_pair not in partners:
        raise ValueError(
            f"({_pair_label(graph, *rhs_pair)}) is not a boundary edge: the "
            f"flexible pair of an N graph or a middle edge of a W graph; "
            f"supported: {_pair_names(graph, partners)}"
        )
    if space.cap - space.margin < 1:
        raise ValueError(
            "the interior box must contain the single-pair states; raise the "
            "cap or lower the margin"
        )
    shifts = [arrival_vector(graph, *p) for p in (partners[rhs_pair], rhs_pair)]
    origin, (at_origin, at_lhs, at_rhs) = _reads(
        space, v, [0, *shifts], keep=lambda b: ~b.any(axis=1)
    )
    excess = (at_origin - at_lhs) - (at_rhs - at_origin)
    return _reduce(
        f"boundary[{_pair_label(graph, *rhs_pair)}]", space, origin, excess, tol
    )


def check_undesirable(
    space: TruncatedStateSpace, v, extreme: Sequence[int], *, tol: float = PROPERTY_TOL
) -> PropertyReport:
    """Whether shifting one item from a neighbor onto an extreme edge costs.

    For every edge sharing a node with the given extreme edge, checks
    v(q + e_extreme - e_neighbor, a) >= v(q, a) wherever the shifted state
    is valid and interior.  A failing report means holding items on the
    extreme pair can be cheaper than on its neighbor, so saturating the
    extreme edge first would not be optimal.  Needs a tree-structured
    graph and an edge with a degree-one endpoint.  Ties between neighbors
    go to the first in edge order.
    """
    graph = space.graph
    if len(graph.edges) != graph.n_nodes - 1:
        raise WrongGraphClass(
            "undesirability is defined on acyclic (tree-structured) graphs"
        )
    i1, j1 = _class_pair(graph, extreme)
    info = classify(graph)
    if (i1, j1) not in info.extreme_edges:
        raise ValueError(
            f"({_pair_label(graph, i1, j1)}) is not an extreme edge; extreme "
            f"edges: {[(_pair_label(graph, a, b)) for a, b in info.extreme_edges]}"
        )
    up = arrival_vector(graph, i1, j1)
    # Empty first blocks, from a read that checks the table's shape, keep
    # the fold defined when the extreme edge has no neighbor.
    interior, _ = _reads(space, v, [])
    base, excess, neighbor = [interior[:0]], [np.empty((0, space.n_atoms))], []
    for i2, j2 in graph.edge_index:
        if (i2, j2) == (i1, j1) or (i2 != i1 and j2 != j1):
            continue
        rows, (at_q, at_moved) = _reads(
            space, v, [0, up - arrival_vector(graph, i2, j2)]
        )
        base.append(rows)
        excess.append(at_q - at_moved)
        neighbor += [(i2, j2)] * len(rows)
    return _reduce(
        f"undesirable[{_pair_label(graph, i1, j1)}]",
        space,
        np.concatenate(base),
        np.concatenate(excess),
        tol,
        neighbor=np.array(neighbor, dtype=np.int64).reshape(-1, 2),
    )


def check_exchangeable(
    space: TruncatedStateSpace,
    v,
    pair: Sequence[Sequence[int]],
    *,
    tol: float = PROPERTY_TOL,
) -> PropertyReport:
    """Exchange identity between a middle edge and its parallel missing pair.

    With E1 the middle edge and E2 the missing pair on the same supply
    class, checks v(q + e1, a) - v(q, a) = v(q + e2, a) - v(q - e1 + e2, a)
    within tolerance: which demand class holds the extra item must not
    matter once the supply side is fixed.  The two supported pairs are
    (middle on s1, missing on s1) and (middle on s2, missing on s2).
    """
    graph = space.graph
    roles = _roles(graph, "exchange")
    first, second = _class_pair(graph, pair[0]), _class_pair(graph, pair[1])
    if roles.get(first) != second:
        names = ", ".join(
            f"(({_pair_label(graph, *a)}), ({_pair_label(graph, *b)}))"
            for a, b in roles.items()
        )
        raise ValueError(
            f"unsupported exchange pair; supported (middle, missing) pairs: {names}"
        )
    e1 = arrival_vector(graph, *first)
    e2 = arrival_vector(graph, *second)
    base, (at_q, at_e1, at_e2, at_swap) = _reads(space, v, [0, e1, e2, e2 - e1])
    excess = np.abs((at_e1 - at_q) - (at_e2 - at_swap))
    name = f"exchangeable[{_pair_label(graph, *first)}|{_pair_label(graph, *second)}]"
    return _reduce(name, space, base, excess, tol)


def check_modular(
    space: TruncatedStateSpace, v, *, tol: float = PROPERTY_TOL
) -> PropertyReport:
    """Whether the two middle edges of a W graph have independent marginals.

    Checks |v(q + e1 + e2, a) - v(q + e1, a) - v(q + e2, a) + v(q, a)| <=
    tolerance with e1, e2 the two middle edge vectors: the marginal value
    of one middle match must not depend on how many of the other have been
    made.
    """
    graph = space.graph
    ((middle1, middle2),) = _roles(graph, "modular").items()
    e1 = arrival_vector(graph, *middle1)
    e2 = arrival_vector(graph, *middle2)
    base, (at_q, at_e1, at_e2, at_both) = _reads(space, v, [0, e1, e2, e1 + e2])
    excess = np.abs(at_both - at_e1 - at_e2 + at_q)
    name = f"modular[{_pair_label(graph, *middle1)}|{_pair_label(graph, *middle2)}]"
    return _reduce(name, space, base, excess, tol)


# ---- policy shape verification ----


def _shape_report(
    family: str,
    xs: np.ndarray,
    checks: Sequence[tuple[str, np.ndarray, dict[str, np.ndarray]]],
    inferred: dict | None = None,
    late: Sequence[dict] = (),
    late_count: int = 0,
) -> ShapeReport:
    """Fold per-row checks on the post-arrival vectors xs into a report.

    Each check is (reason, mask of failing rows, witness fields): a row
    failing several counts once, under the first, and its witness holds
    the reason, x and each field's entry at the row.  Witnesses come in row
    order, capped at :data:`MAX_WITNESSES`, followed by the family-level
    ``late`` witnesses, which account for ``late_count`` more violations.
    """
    first = np.full(len(xs), len(checks))
    for c in reversed(range(len(checks))):
        first[checks[c][1]] = c
    failed = np.flatnonzero(first < len(checks))
    witnesses = []
    for r in failed[:MAX_WITNESSES]:
        reason, _, fields = checks[first[r]]
        witness = {"reason": reason, "x": xs[r].tolist()}
        witnesses.append(witness | {f: a[r].tolist() for f, a in fields.items()})
    violations = len(failed) + late_count
    return ShapeReport(
        family=family,
        passed=violations == 0,
        inferred=inferred or {},
        witnesses=tuple((witnesses + list(late))[:MAX_WITNESSES]),
        violation_count=violations,
        checked=len(xs),
    )


def _decisions(space: TruncatedStateSpace, policy: Policy) -> tuple[np.ndarray, ...]:
    """The interior post-arrival vectors and the policy's decisions on them,
    as :func:`~matchdp.policies.read_decisions` returns them."""
    _check_graph(policy, space.graph)
    xs = space.interior_post_arrivals
    return (xs, *read_decisions(policy, xs))


def _verify_full_match(space: TruncatedStateSpace, policy: Policy) -> ShapeReport:
    graph = space.graph
    if classify(graph).tag != COMPLETE:
        raise WrongGraphClass(
            f"the full-match family lives on complete graphs, got "
            f"{classify(graph).tag}"
        )
    xs, u, residual, inadmissible = _decisions(space, policy)
    fields = {"decision": u, "residual": residual}
    remainder = np.any(residual != 0, axis=1)
    checks = [("inadmissible", inadmissible, fields), ("remainder", remainder, fields)]
    return _shape_report("full_match", xs, checks)


def _verify_threshold_n(space: TruncatedStateSpace, policy: Policy) -> ShapeReport:
    graph = space.graph
    lay = n_layout(graph)
    pos = graph.edge_position
    xs, u, _, inadmissible = _decisions(space, policy)
    d1, d2, s1, s2 = (xs[:, c] for c in (lay.d1, lay.d2, lay.s1, lay.s2))
    expected = np.stack([np.minimum(d1, s1), np.minimum(d2, s2)], axis=1)
    got = u[:, [pos[(lay.d1, lay.s1_local)], pos[(lay.d2, lay.s2_local)]]]
    priority = np.any(got != expected, axis=1)
    surplus = np.maximum(0, d1 - s1)
    k = u[:, pos[(lay.d1, lay.s2_local)]]
    checks = [
        ("inadmissible", inadmissible, {}),
        ("priority_total", priority, {"expected": expected, "got": got}),
    ]
    # A row passing both checks has k <= surplus: its d1 residual
    # d1 - min(d1, s1) - k is nonnegative.  There, a flexible count k > 0
    # implies the threshold surplus - k, and k = 0 holds it back.
    pinned = ~(inadmissible | priority) & (surplus >= 1)
    moved = np.flatnonzero(pinned & (k > 0))
    held = np.flatnonzero(pinned & (k == 0))
    implied, first, counts = np.unique(
        (surplus - k)[moved], return_index=True, return_counts=True
    )
    late: list[dict] = []
    late_count = 0
    if len(implied) > 1:
        late_count = int(counts.sum() - counts.max())
        for t, r in zip(implied[:MAX_WITNESSES], moved[first[:MAX_WITNESSES]]):
            late.append(
                {
                    "reason": "threshold_conflict",
                    "x": xs[r].tolist(),
                    "implied_t": int(t),
                }
            )
        inferred: dict[str, float | int | None] = {"t": None}
    elif len(implied) == 1:
        t_hat = int(implied[0])
        conflict = held[surplus[held] > t_hat]
        late_count = len(conflict)
        for r in conflict[:MAX_WITNESSES]:
            late.append(
                {
                    "reason": "threshold_conflict",
                    "x": xs[r].tolist(),
                    "surplus": int(surplus[r]),
                    "implied_t": t_hat,
                }
            )
        inferred = {"t": t_hat}
    else:
        inferred = {"t": math.inf if len(held) else None}
    return _shape_report("threshold_n", xs, checks, inferred, late, late_count)


def _verify_priority_extreme(
    space: TruncatedStateSpace, policy: Policy
) -> ShapeReport:
    graph = space.graph
    extremes = classify(graph).extreme_edges
    if not extremes:
        raise WrongGraphClass("graph has no extreme edges to verify priority on")
    xs, u, _, inadmissible = _decisions(space, policy)
    # The largest total any admissible matching puts on the extreme edges:
    # saturate them greedily, on every row at once.
    rem = xs.copy()
    best = np.zeros(len(xs), dtype=np.int64)
    positions = [graph.edge_position[e] for e in extremes]
    for d, s in (graph.edge_ends[e] for e in positions):
        take = np.minimum(rem[:, d], rem[:, s])
        best += take
        rem[:, d] -= take
        rem[:, s] -= take
    got = u[:, positions].sum(axis=1)
    checks = [
        ("inadmissible", inadmissible, {}),
        ("extreme_total", got != best, {"expected": best, "got": got}),
    ]
    return _shape_report("priority_extreme", xs, checks)


SHAPE_FAMILIES = {
    "full_match": _verify_full_match,
    "threshold_n": _verify_threshold_n,
    "priority_extreme": _verify_priority_extreme,
}


def verify_policy_shape(
    space: TruncatedStateSpace, policy: Policy, family: str
) -> ShapeReport:
    """Test whether a policy's interior decisions fit a structured family.

    Families: "full_match" (every interior post-arrival state is matched
    down to the zero remainder), "threshold_n" (both priority edges
    matched fully, the flexible pair matched exactly beyond one common
    threshold, which is inferred and returned), and "priority_extreme"
    (the total over extreme edges is the largest any admissible matching
    could reach).  Decisions are read in one block, through
    :func:`~matchdp.policies.read_decisions`, on every interior
    post-arrival state of the space, ``space.interior_post_arrivals``, and
    a row whose decision is inadmissible fails every family.  A policy
    bound to another graph raises ValueError before any decision is read.
    """
    if family not in SHAPE_FAMILIES:
        raise ValueError(
            f"unknown policy family {family!r}; expected one of "
            + ", ".join(repr(name) for name in SHAPE_FAMILIES)
        )
    return SHAPE_FAMILIES[family](space, policy)
