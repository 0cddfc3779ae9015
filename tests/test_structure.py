"""Structural property checkers and policy shape verification."""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchdp.errors import Inadmissible, WrongGraphClass
from matchdp.graphs import ArrivalDistribution, CostVector, MatchingGraph
from matchdp.nshaped import NModelParams, optimal_threshold
from matchdp.policies import (
    AcyclicHeuristic,
    FullMatch,
    Policy,
    PriorityExtreme,
    Tabular,
    ThresholdN,
)
from matchdp.solver import (
    DPConfig,
    TruncatedStateSpace,
    bellman_backup,
    evaluate_policy,
    extract_policy,
    relative_value_iteration,
)
from matchdp.states import is_admissible, n_layout, w_layout
from matchdp.structure import (
    PropertyReport,
    ShapeReport,
    check_boundary,
    check_convex,
    check_exchangeable,
    check_increasing,
    check_modular,
    check_undesirable,
    verify_policy_shape,
)

from conftest import (
    WRONG_LENGTHS,
    Fractional,
    ZeroOfLength,
    make_complete22,
    make_fork,
    make_n_graph,
    make_nn_graph,
    make_one_edge,
    make_path23,
    make_w_graph,
    recipe_solve,
    unit_costs,
)
from oracles import (
    reference_property,
    reference_property_calls,
    reference_verify_policy_shape,
)

EPS = 1e-3


def linear_table(space: TruncatedStateSpace, coeffs) -> np.ndarray:
    """Packed table with value coeffs . q at every state, equal across atoms."""
    c = np.asarray(coeffs, dtype=float)
    field = np.zeros(len(space.balanced_states))
    for axis, coef in enumerate(c):
        field = field + coef * space.balanced_states[:, axis]
    return np.repeat(field[:, None], space.n_atoms, axis=-1)


def table_from(space: TruncatedStateSpace, fn) -> np.ndarray:
    """Packed table holding fn(q, atom) at every state, atoms in file order."""
    table = np.empty((len(space.balanced_states), space.n_atoms))
    atoms = space.graph.arrival_atoms
    for row, q in enumerate(space.balanced_states):
        for a, atom in enumerate(atoms):
            table[row, a] = fn(q, atom)
    return table


def zero_table(space: TruncatedStateSpace) -> np.ndarray:
    return np.zeros((len(space.balanced_states), space.n_atoms))


def n_space(cap: int = 8, margin: int = 2) -> TruncatedStateSpace:
    return TruncatedStateSpace(make_n_graph(), cap=cap, margin=margin)


def w_space(cap: int = 5, margin: int = 2) -> TruncatedStateSpace:
    return TruncatedStateSpace(make_w_graph(), cap=cap, margin=margin)


def interior_post_arrivals(space: TruncatedStateSpace) -> list[tuple[int, ...]]:
    graph = space.graph
    seen = set()
    for q in space.interior_balanced_states:
        for i, j in graph.arrival_atoms:
            x = q.copy()
            x[i] += 1
            x[graph.n_d + j] += 1
            seen.add(tuple(int(v) for v in x))
    return sorted(seen)


class Meddle(Policy):
    """Wrap a policy and nudge one edge count, for shape-failure tests."""

    def __init__(self, graph, base: Policy, pos: int, bump: int, floor: int = 0):
        super().__init__(graph)
        self.base = base
        self.pos = pos
        self.bump = bump
        self.floor = floor
        self.label = "Meddle"

    def decide(self, x):
        u = self.base.decide(x)
        if u[self.pos] >= self.floor:
            u[self.pos] += self.bump
        return u


class Jitter(Policy):
    """Wrap a policy and move one edge count by one at a hashed share of x.

    The share is in percent; the edge and, unless ``up_only``, the sign
    come from the same hash, so decisions stay a function of x alone.
    """

    def __init__(self, base: Policy, salt: int, share: int, up_only: bool = False):
        super().__init__(base.graph)
        self.base = base
        self.salt = salt
        self.share = share
        self.up_only = up_only
        self.label = f"Jitter[{base.label}]"

    def decide(self, x):
        u = np.array(self.base.decide(x), dtype=np.int64)
        key = np.asarray(x, dtype=np.int64).tobytes() + bytes([self.salt])
        h = zlib.crc32(key)
        if h % 100 < self.share:
            u[(h >> 8) % len(u)] += 1 if self.up_only or (h >> 16) & 1 else -1
        return u


# ---- report basics ----


class TestReports:
    def test_linear_passes_every_increasing_pair(self):
        space = n_space()
        v = linear_table(space, (1.0, 2.0, 3.0, 4.0))
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            report = check_increasing(space, v, pair)
            assert report.passed
            assert report.worst_violation == 0.0
            assert report.checked > 0

    def test_decreasing_fails_with_lex_smallest_witness(self):
        space = n_space()
        v = linear_table(space, (-1.0, 0.0, -1.0, 0.0))
        report = check_increasing(space, v, (0, 0))
        assert not report.passed
        assert report.worst_violation == pytest.approx(2.0)
        assert report.witness == {"q": [0, 0, 0, 0], "atom": [0, 0]}
        assert report.name == "increasing[d1,s1]"

    def test_vacuous_interior_passes_with_zero_checked(self):
        space = n_space(cap=1, margin=1)
        report = check_increasing(space, linear_table(space, (1, 1, 1, 1)), (0, 0))
        assert report.passed
        assert report.checked == 0
        assert report.witness is None
        assert report.worst_violation == 0.0

    def test_pass_flag_follows_tolerance(self):
        space = n_space()
        tiny = 1e-12
        v = linear_table(space, (-tiny / 2, 0.0, -tiny / 2, 0.0))
        loose = check_increasing(space, v, (0, 0))
        assert loose.passed
        assert loose.worst_violation == pytest.approx(tiny, rel=1e-3)
        strict = check_increasing(space, v, (0, 0), tol=1e-13)
        assert not strict.passed


# ---- each checker detects its own violation at the planted size ----


class TestSoundness:
    def test_increasing_detects_planted_decrease(self):
        space = n_space()
        v = linear_table(space, (0.0, -EPS / 2, -EPS / 2, 0.0))
        report = check_increasing(space, v, (1, 0))
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)

    def test_convex_flexible_detects_planted_concavity(self):
        space = n_space()
        lay = n_layout(space.graph)
        v = table_from(space, lambda q, atom: -(EPS / 2) * q[lay.d1] ** 2)
        report = check_convex(space, v, (lay.d1, lay.s2_local))
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)
        assert report.name == "convex[d1,s2]"

    def test_convex_missing_detects_planted_concavity(self):
        space = n_space()
        lay = n_layout(space.graph)
        v = table_from(space, lambda q, atom: -(EPS / 2) * q[lay.s1] ** 2)
        report = check_convex(space, v, (lay.d2, lay.s1_local))
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)

    def test_boundary_detects_cheap_flexible_state(self):
        space = n_space()
        v = zero_table(space)
        v[space.state_index([1, 0, 0, 1])] = -EPS
        report = check_boundary(space, v)
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)
        assert report.name == "boundary[d1,s2]"

    def test_boundary_passes_when_flexible_state_costs(self):
        space = n_space()
        v = zero_table(space)
        v[space.state_index([1, 0, 0, 1])] = EPS
        assert check_boundary(space, v).passed

    def test_undesirable_detects_cheap_extreme_node(self):
        graph = make_nn_graph()
        space = TruncatedStateSpace(graph, cap=3, margin=1)
        costs = np.array([1.0, 1.0, 1.0, 1.0, 1.0 + EPS, 1.0])
        v = linear_table(space, costs)
        report = check_undesirable(space, v, (0, 0))
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)
        assert report.witness["neighbor"] == [0, 1]

    def test_undesirable_passes_when_extreme_node_costs_more(self):
        graph = make_nn_graph()
        space = TruncatedStateSpace(graph, cap=3, margin=1)
        costs = np.array([1.0, 1.0, 1.0, 1.0 + EPS, 1.0, 1.0])
        report = check_undesirable(space, v=linear_table(space, costs), extreme=(0, 0))
        assert report.passed
        assert report.checked > 0

    def test_exchangeable_detects_demand_identity_break(self):
        space = w_space()
        lay = w_layout(space.graph)
        v = table_from(space, lambda q, atom: (EPS / 2) * q[lay.d2] ** 2)
        report = check_exchangeable(
            space, v, ((lay.d2, lay.s1_local), (lay.d3, lay.s1_local))
        )
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)

    def test_exchangeable_passes_on_linear(self):
        space = w_space()
        lay = w_layout(space.graph)
        v = linear_table(space, (5.0, -2.0, 1.0, 3.0, 7.0))
        for pair in [
            ((lay.d2, lay.s1_local), (lay.d3, lay.s1_local)),
            ((lay.d2, lay.s2_local), (lay.d1, lay.s2_local)),
        ]:
            report = check_exchangeable(space, v, pair)
            assert report.passed
            assert report.checked > 0

    def test_modular_detects_planted_interaction(self):
        space = w_space()
        lay = w_layout(space.graph)
        v = table_from(space, lambda q, atom: EPS * q[lay.s1] * q[lay.s2])
        report = check_modular(space, v)
        assert not report.passed
        assert report.worst_violation == pytest.approx(EPS)
        assert report.name == "modular[d2,s1|d2,s2]"

    def test_modular_passes_on_linear(self):
        space = w_space()
        assert check_modular(space, linear_table(space, (1, 2, 3, 4, 5))).passed


# ---- half-space guards on the convexity directions ----


class TestConvexGuards:
    def test_guards_split_the_imbalance_axis(self):
        space = n_space()
        lay = n_layout(space.graph)

        def kinked(q, atom):
            l = int(q[lay.d1]) - int(q[lay.s1])
            return float(l * l if l >= 0 else -l * l)

        v = table_from(space, kinked)
        flexible = check_convex(space, v, (lay.d1, lay.s2_local))
        assert flexible.passed
        missing = check_convex(space, v, (lay.d2, lay.s1_local))
        assert not missing.passed
        assert missing.worst_violation == pytest.approx(2.0)
        q = missing.witness["q"]
        assert q[lay.s1] >= q[lay.d1]

    def test_w_guards_keep_all_four_directions_on_linear(self):
        space = w_space()
        lay = w_layout(space.graph)
        v = linear_table(space, (2.0, 4.0, 1.0, 3.0, 5.0))
        for direction in [
            (lay.d2, lay.s1_local),
            (lay.d1, lay.s2_local),
            (lay.d2, lay.s2_local),
            (lay.d3, lay.s1_local),
        ]:
            report = check_convex(space, v, direction)
            assert report.passed
            assert report.checked > 0


# ---- boundary variants on the W graph ----


class TestBoundaryVariants:
    def test_middle_edges_read_disjoint_missing_partners(self):
        space = w_space()
        v = zero_table(space)
        # Single-pair state of the missing diagonal (d1, s2).
        v[space.state_index([1, 0, 0, 0, 1])] = -EPS
        lay = w_layout(space.graph)
        hit = check_boundary(space, v, (lay.d2, lay.s1_local))
        assert not hit.passed
        assert hit.worst_violation == pytest.approx(EPS)
        assert hit.name == "boundary[d2,s1]"
        unaffected = check_boundary(space, v, (lay.d2, lay.s2_local))
        assert unaffected.passed
        assert unaffected.worst_violation == 0.0
        assert unaffected.name == "boundary[d2,s2]"

    def test_w_requires_an_edge_argument(self):
        space = w_space()
        v = zero_table(space)
        with pytest.raises(ValueError, match="middle edge"):
            check_boundary(space, v)


# ---- argument validation ----


class TestArgumentValidation:
    def test_pair_out_of_range(self):
        space = n_space()
        v = linear_table(space, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="out of range"):
            check_increasing(space, v, (5, 0))

    @pytest.mark.parametrize(
        "pair, message",
        [((0.7, 0.2), "pair must be an integer, got 0.7"), (("1", "0"), "pair must be an integer, got '1'")],
    )
    def test_pair_of_non_integers(self, pair, message):
        space = n_space()
        v = linear_table(space, (1, 1, 1, 1))
        with pytest.raises(ValueError, match=message):
            check_increasing(space, v, pair)

    def test_convex_needs_n_or_w(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=4, margin=1)
        v = linear_table(space, (1, 1, 1, 1))
        with pytest.raises(WrongGraphClass):
            check_convex(space, v, (0, 0))

    def test_convex_rejects_priority_edge_direction(self):
        space = n_space()
        v = linear_table(space, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="not a convexity direction"):
            check_convex(space, v, (0, 0))

    def test_boundary_needs_n_or_w(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=4, margin=1)
        with pytest.raises(WrongGraphClass):
            check_boundary(space, linear_table(space, (1, 1, 1, 1)))

    def test_boundary_needs_room_for_single_pairs(self):
        space = n_space(cap=1, margin=1)
        with pytest.raises(ValueError, match="raise the cap"):
            check_boundary(space, linear_table(space, (1, 1, 1, 1)))

    def test_boundary_rejects_priority_edge_on_n(self):
        space = n_space()
        v = linear_table(space, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="flexible pair"):
            check_boundary(space, v, (1, 1))

    def test_undesirable_needs_a_tree(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=4, margin=1)
        with pytest.raises(WrongGraphClass):
            check_undesirable(space, linear_table(space, (1, 1, 1, 1)), (0, 0))

    def test_undesirable_rejects_interior_edge(self):
        graph = make_nn_graph()
        space = TruncatedStateSpace(graph, cap=3, margin=1)
        v = linear_table(space, np.ones(6))
        with pytest.raises(ValueError, match="not an extreme edge"):
            check_undesirable(space, v, (0, 1))

    def test_exchangeable_needs_w(self):
        space = n_space()
        v = linear_table(space, (1, 1, 1, 1))
        with pytest.raises(WrongGraphClass):
            check_exchangeable(space, v, ((0, 0), (1, 0)))

    def test_exchangeable_rejects_crossed_pairs(self):
        space = w_space()
        lay = w_layout(space.graph)
        v = linear_table(space, (1, 1, 1, 1, 1))
        with pytest.raises(ValueError, match="unsupported exchange pair"):
            check_exchangeable(
                space, v, ((lay.d2, lay.s1_local), (lay.d1, lay.s2_local))
            )

    def test_table_shape_must_match_space(self):
        space = n_space()
        with pytest.raises(ValueError, match="shape"):
            check_increasing(space, np.zeros((3, 3, 3, 3, 4)), (0, 0))

    def test_unknown_policy_family(self):
        space = n_space()
        with pytest.raises(ValueError, match="unknown policy family"):
            verify_policy_shape(space, ThresholdN(space.graph, 0), "sorted")

    def test_full_match_needs_complete_graph(self):
        space = n_space()
        with pytest.raises(WrongGraphClass):
            verify_policy_shape(space, FullMatch(make_complete22()), "full_match")

    def test_priority_extreme_needs_extreme_edges(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=4, margin=1)
        with pytest.raises(WrongGraphClass):
            verify_policy_shape(space, FullMatch(graph), "priority_extreme")


# ---- interior discipline ----


class TestInteriorDiscipline:
    def test_tainted_and_unbalanced_cells_never_enter_verdicts(self):
        space = n_space()
        lay = n_layout(space.graph)
        base = linear_table(space, (1.0, 2.0, 3.0, 4.0))
        corrupt = base.copy()
        for row, q in enumerate(space.balanced_states):
            if not space.is_interior(q):
                corrupt[row] = -1e6

        def all_six(table):
            return [
                check_increasing(space, table, (lay.d1, lay.s1_local)),
                check_increasing(space, table, (lay.d2, lay.s2_local)),
                check_increasing(space, table, (lay.d2, lay.s1_local)),
                check_convex(space, table, (lay.d1, lay.s2_local)),
                check_convex(space, table, (lay.d2, lay.s1_local)),
                check_boundary(space, table),
            ]

        assert all_six(corrupt) == all_six(base)

    def test_wider_margin_shrinks_coverage(self):
        loose = check_increasing(
            n_space(margin=2), linear_table(n_space(), (1, 1, 1, 1)), (0, 0)
        )
        tight = check_increasing(
            n_space(margin=4), linear_table(n_space(margin=4), (1, 1, 1, 1)), (0, 0)
        )
        assert 0 < tight.checked < loose.checked


# ---- solver iterates keep the catalog of properties ----


class TestValueIterates:
    def test_discounted_iterates_keep_all_six_properties(self):
        graph = make_n_graph()
        lay = n_layout(graph)
        space = TruncatedStateSpace(graph, cap=12, margin=6)
        arrivals = ArrivalDistribution(
            alpha=np.array([0.9, 0.1]), beta=np.array([0.1, 0.9])
        )
        costs = unit_costs(graph)
        table = zero_table(space)
        for sweep in range(60):
            table = bellman_backup(space, table, costs, arrivals, 0.95)
            reports = [
                check_increasing(space, table, (lay.d1, lay.s1_local)),
                check_increasing(space, table, (lay.d2, lay.s2_local)),
                check_increasing(space, table, (lay.d2, lay.s1_local)),
                check_convex(space, table, (lay.d1, lay.s2_local)),
                check_convex(space, table, (lay.d2, lay.s1_local)),
                check_boundary(space, table),
            ]
            for report in reports:
                assert report.passed, (sweep, report)
                assert report.checked > 0


# ---- policy shape verification ----


class TestVerifyPolicyShape:
    @pytest.mark.parametrize("t", [0, 3])
    def test_threshold_round_trip(self, t):
        space = n_space()
        report = verify_policy_shape(space, ThresholdN(space.graph, t), "threshold_n")
        assert report.passed
        assert report.inferred == {"t": t}
        assert report.violation_count == 0
        assert report.checked == len(interior_post_arrivals(space))

    def test_threshold_never_matching_infers_infinity(self):
        space = n_space()
        report = verify_policy_shape(
            space, ThresholdN(space.graph, math.inf), "threshold_n"
        )
        assert report.passed
        assert report.inferred == {"t": math.inf}

    def test_threshold_priority_shortfall_is_flagged(self):
        space = n_space()
        graph = space.graph
        pos = graph.edge_position[(0, 0)]
        policy = Meddle(graph, ThresholdN(graph, 2), pos, bump=-1, floor=1)
        report = verify_policy_shape(space, policy, "threshold_n")
        assert not report.passed
        assert any(w["reason"] == "priority_total" for w in report.witnesses)
        assert report.inferred == {"t": 2}

    def test_threshold_conflicting_levels_infer_nothing(self):
        space = n_space()
        graph = space.graph
        pos = graph.edge_position[(0, 1)]
        policy = Meddle(graph, ThresholdN(graph, 1), pos, bump=-1, floor=2)
        report = verify_policy_shape(space, policy, "threshold_n")
        assert not report.passed
        assert report.inferred == {"t": None}
        assert report.violation_count > 0
        assert any(w["reason"] == "threshold_conflict" for w in report.witnesses)

    def test_threshold_inadmissible_decision_is_flagged(self):
        space = n_space()
        graph = space.graph
        pos = graph.edge_position[(0, 1)]
        policy = Meddle(graph, ThresholdN(graph, 0), pos, bump=1)
        report = verify_policy_shape(space, policy, "threshold_n")
        assert not report.passed
        assert any(w["reason"] == "inadmissible" for w in report.witnesses)

    def test_full_match_round_trip(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=6, margin=2)
        report = verify_policy_shape(space, FullMatch(graph), "full_match")
        assert report.passed
        assert report.checked > 0
        assert report.inferred == {}

    def test_full_match_flags_every_idle_decision(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=6, margin=2)
        zeros = {x: np.zeros(len(graph.edges), dtype=int)
                 for x in interior_post_arrivals(space)}
        report = verify_policy_shape(space, Tabular(graph, zeros), "full_match")
        assert not report.passed
        assert report.violation_count == report.checked
        assert report.witnesses[0]["reason"] == "remainder"

    def test_priority_extreme_round_trip(self):
        graph = make_nn_graph()
        space = TruncatedStateSpace(graph, cap=3, margin=1)
        report = verify_policy_shape(space, PriorityExtreme(graph), "priority_extreme")
        assert report.passed
        assert report.checked > 0

    def test_priority_extreme_flags_idle_decisions(self):
        graph = make_nn_graph()
        space = TruncatedStateSpace(graph, cap=3, margin=1)
        zeros = {x: np.zeros(len(graph.edges), dtype=int)
                 for x in interior_post_arrivals(space)}
        report = verify_policy_shape(space, Tabular(graph, zeros), "priority_extreme")
        assert not report.passed
        assert any(w["reason"] == "extreme_total" for w in report.witnesses)

    def test_full_match_flags_negative_counts(self):
        # u = (2, -1, -1, 2) uses exactly x = (1, 1, 1, 1): the residual is
        # zero, but a negative count is inadmissible in every solver.
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=4, margin=1)

        class Borrowing(FullMatch):
            def decide(self, x):
                if tuple(int(v) for v in x) == (1, 1, 1, 1):
                    return np.array([2, -1, -1, 2])
                return super().decide(x)

        policy = Borrowing(graph)
        report = verify_policy_shape(space, policy, "full_match")
        assert not report.passed
        assert report.violation_count == 1
        assert report.witnesses == (
            {
                "reason": "inadmissible",
                "x": [1, 1, 1, 1],
                "decision": [2, -1, -1, 2],
                "residual": [0, 0, 0, 0],
            },
        )
        uniform = ArrivalDistribution(alpha=[0.5, 0.5], beta=[0.5, 0.5])
        with pytest.raises(Inadmissible):
            evaluate_policy(space, policy, unit_costs(graph), uniform)

    @pytest.mark.parametrize("order", ["demand", "edges"])
    def test_policy_of_another_graph_is_rejected(self, order):
        space = TruncatedStateSpace(make_n_graph(), cap=12, margin=4)
        graph = space.graph
        demand, edges = graph.demand_nodes, graph.edges
        if order == "demand":
            demand = demand[::-1]
        else:
            edges = edges[::-1]
        other = MatchingGraph(demand, graph.supply_nodes, edges)
        with pytest.raises(ValueError, match=r"ThresholdN\(t=1\) is bound to another graph"):
            verify_policy_shape(space, ThresholdN(other, 1), "threshold_n")

    def test_fractional_counts_are_rejected(self):
        space = TruncatedStateSpace(make_n_graph(), cap=8, margin=2)
        with pytest.raises(ValueError, match="Fractional returned match counts"):
            verify_policy_shape(space, Fractional(space.graph), "priority_extreme")

    @pytest.mark.parametrize("length, wrong", WRONG_LENGTHS)
    def test_decision_of_the_wrong_length_is_rejected(self, length, wrong):
        space = TruncatedStateSpace(make_n_graph(), cap=8, margin=2)
        policy = ZeroOfLength(space.graph, length)
        with pytest.raises(
            ValueError, match=rf"one entry per edge \(3\), got shape \({wrong},\)"
        ):
            verify_policy_shape(space, policy, "priority_extreme")

    def test_average_cost_extraction_matches_closed_form_threshold(self):
        graph = make_n_graph()
        params = NModelParams(alpha=0.65, beta=0.35, costs=(1.0, 6.0, 5.0, 2.0))
        costs = CostVector(demand=np.array([1.0, 6.0]), supply=np.array([5.0, 2.0]))
        arrivals = ArrivalDistribution(
            alpha=np.array([0.65, 0.35]), beta=np.array([0.35, 0.65])
        )
        space = TruncatedStateSpace(graph, cap=12, margin=4)
        _, _, policy = relative_value_iteration(space, costs, arrivals, DPConfig())
        report = verify_policy_shape(space, policy, "threshold_n")
        assert report.passed
        assert report.inferred == {"t": optimal_threshold(params)}
        assert report.inferred["t"] == 1

    def test_w_recipe_optimum_breaks_extreme_priority(self):
        space, vf, arrivals = recipe_solve("w-counterexample", 12, 3)
        report = verify_policy_shape(
            space, extract_policy(space, vf.data, arrivals), "priority_extreme"
        )
        worse = [
            ([0, 1, 1, 1, 1], 1, 0), ([0, 1, 2, 1, 2], 2, 1), ([0, 1, 2, 2, 1], 1, 0),
            ([0, 1, 3, 1, 3], 3, 2), ([0, 1, 3, 2, 2], 2, 1), ([0, 1, 3, 3, 1], 1, 0),
            ([0, 1, 4, 1, 4], 4, 3), ([0, 1, 4, 2, 3], 3, 2), ([0, 1, 4, 3, 2], 2, 1),
            ([0, 1, 4, 4, 1], 1, 0),
        ]
        assert report.to_record() == {
            "kind": "policy_shape",
            "family": "priority_extreme",
            "passed": False,
            "inferred": {},
            "witnesses": [
                {"reason": "extreme_total", "x": x, "expected": e, "got": g}
                for x, e, g in worse
            ],
            "violation_count": 4260,
            "checked": 6984,
        }


def _oracle_cases():
    """(space, policy, families, up_only): every family the graph supports."""
    n, k22 = make_n_graph(), make_complete22()
    n_space = TruncatedStateSpace(n, cap=8, margin=2)
    cases = [
        pytest.param(
            n_space, ThresholdN(n, t), ("threshold_n", "priority_extreme"), False,
            id=f"N-t{t}",
        )
        for t in (0, 1, 3, math.inf)
    ]
    k22_space = TruncatedStateSpace(k22, cap=6, margin=2)
    cases.append(
        pytest.param(k22_space, FullMatch(k22), ("full_match",), True, id="K22-full")
    )
    for name, graph, cap, thresholds in (
        ("NN", make_nn_graph(), 3, {"d2": 1, "s3": 2}),
        ("W", make_w_graph(), 5, {"d2": 2}),
    ):
        space = TruncatedStateSpace(graph, cap=cap, margin=1)
        for kind, policy in (
            ("priority", PriorityExtreme(graph, costs=unit_costs(graph))),
            ("heuristic", AcyclicHeuristic(graph, thresholds)),
        ):
            cases.append(
                pytest.param(space, policy, ("priority_extreme",), False,
                             id=f"{name}-{kind}")
            )
    return cases


class TestVerifyAgainstOracle:
    """The block verifiers report what the per-x loops of the oracle report,
    on structured policies with one count moved at a hashed share of x."""

    @pytest.mark.parametrize("space, base, families, up_only", _oracle_cases())
    def test_records_match_oracle(self, space, base, families, up_only):
        reasons = set()
        for share in (1, 4, 25):
            for salt in (1, 2):
                policy = Jitter(base, salt, share, up_only)
                for family in families:
                    want = reference_verify_policy_shape(space, policy, family)
                    got = verify_policy_shape(space, policy, family)
                    assert got.to_record() == want.to_record()
                    reasons |= {w["reason"] for w in want.witnesses}
        assert reasons


# ---- the six property checks against their loop oracle ----


CHECKS = {
    "increasing": check_increasing,
    "convex": check_convex,
    "boundary": check_boundary,
    "undesirable": check_undesirable,
    "exchangeable": check_exchangeable,
    "modular": check_modular,
}


@pytest.mark.parametrize(
    "make_graph, cap, margin",
    [
        pytest.param(make_n_graph, 6, 2, id="N-cap6"),
        pytest.param(make_n_graph, 8, 3, id="N-cap8"),
        pytest.param(make_w_graph, 5, 2, id="W-cap5"),
        pytest.param(make_nn_graph, 3, 1, id="NN-cap3"),
        pytest.param(make_path23, 4, 1, id="path23-cap4"),
        pytest.param(make_fork, 4, 1, id="fork-cap4"),
        pytest.param(make_one_edge, 4, 1, id="one-edge"),
    ],
)
def test_property_checks_match_loop_oracle(make_graph, cap, margin):
    # Coarse integer tables make ties common, so the tie rule (first
    # neighbor, then first state and atom) is exercised along with the
    # largest excess of a continuous table.
    space = TruncatedStateSpace(make_graph(), cap=cap, margin=margin)
    shape = (len(space.balanced_states), space.n_atoms)
    rng = np.random.default_rng(17)
    tables = [rng.normal(size=shape), rng.integers(0, 3, size=shape).astype(float)]
    calls = reference_property_calls(space.graph)
    for table in tables:
        for check, arg in calls:
            args = () if arg is None else (arg,)
            got = CHECKS[check](space, table, *args)
            want = reference_property(space, table, check, arg)
            assert got.to_record() == want.to_record(), (check, arg)
    if space.graph.n_nodes == 2:
        report = check_undesirable(space, tables[0], (0, 0))
        assert report.passed and report.checked == 0 and report.witness is None


# ---- randomized coverage ----


@given(coeffs=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_nonnegative_linear_tables_are_increasing(coeffs):
    space = n_space(cap=5)
    v = linear_table(space, coeffs)
    for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert check_increasing(space, v, pair).passed


@given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
@settings(max_examples=25, deadline=None)
def test_linear_tables_are_exchangeable_regardless_of_sign(coeffs):
    graph = make_w_graph()
    space = TruncatedStateSpace(graph, cap=4, margin=1)
    lay = w_layout(graph)
    v = linear_table(space, coeffs)
    for pair in [
        ((lay.d2, lay.s1_local), (lay.d3, lay.s1_local)),
        ((lay.d2, lay.s2_local), (lay.d1, lay.s2_local)),
    ]:
        report = check_exchangeable(space, v, pair)
        assert report.passed
        assert report.checked > 0


@given(
    x=st.lists(st.integers(0, 8), min_size=4, max_size=4),
    k=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_priority_totals_bound_the_flexible_count(x, k):
    # The threshold_n verifier has no flexible-count check because an
    # admissible decision with both priority totals has k <= surplus.
    graph = make_n_graph()
    lay = n_layout(graph)
    pos = graph.edge_position
    d1, d2, s1, s2 = x[lay.d1], x[lay.d2], x[lay.s1], x[lay.s2]
    u = np.zeros(len(graph.edges), dtype=np.int64)
    u[pos[(lay.d1, lay.s1_local)]] = min(d1, s1)
    u[pos[(lay.d2, lay.s2_local)]] = min(d2, s2)
    u[pos[(lay.d1, lay.s2_local)]] = k
    if is_admissible(graph, x, u):
        assert k <= max(0, d1 - s1)
