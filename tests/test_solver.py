"""Dynamic-programming core against brute-force references."""

from __future__ import annotations

import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from matchdp import solver as solver_module
from matchdp.cli import RECIPES
from matchdp.errors import Inadmissible, MatchDPError, NoConvergence, Unstable
from matchdp.graphs import ArrivalDistribution, CostVector, MatchingGraph, load_graph
from matchdp.nshaped import NModelParams, average_cost, optimal_threshold
from matchdp.policies import FullMatch, Policy, ThresholdN, ThresholdW
from matchdp.solver import (
    BackupIndex,
    DPConfig,
    TruncatedStateSpace,
    ValueFunction,
    _greedy,
    _greedy_successors,
    _initial_table,
    _post_arrival_costs,
    _sector_successors,
    _signed,
    _sweep,
    bellman_backup,
    evaluate_policy,
    extract_policy,
    relative_value_iteration,
    value_iteration,
)
from matchdp.structure import check_increasing

from conftest import (
    BAD_ATOMS,
    OTHER_ARRIVALS,
    OTHER_SIZES,
    WRONG_LENGTHS,
    Fractional,
    ZeroOfLength,
    make_cmo33,
    make_complete22,
    make_fork,
    make_long_acyclic,
    make_n_graph,
    make_nn_graph,
    make_one_edge,
    make_path23,
    make_w_graph,
    n_inputs,
    recipe_solve,
    unit_costs,
)
from oracles import (
    _argmin_decision,
    brute_admissible,
    brute_balanced_states,
    dense_backup,
    dense_policy_backup,
    dense_zero,
    reference_backup_index,
    reference_relative_value_iteration,
    reference_sector_min,
    reference_value_iteration,
)


def uniform_arrivals(graph) -> ArrivalDistribution:
    return ArrivalDistribution(
        alpha=np.full(graph.n_d, 1.0 / graph.n_d),
        beta=np.full(graph.n_s, 1.0 / graph.n_s),
    )


def two_class_arrivals(graph) -> ArrivalDistribution:
    return ArrivalDistribution(
        alpha=np.array([0.7, 0.3]), beta=np.array([0.45, 0.55])
    )


def assert_table_agrees(space, table, dense, tol=1e-12):
    for q in brute_balanced_states(space.graph.n_d, space.graph.n_s, space.cap):
        for a in range(space.n_atoms):
            got = table[space.state_index(q), a]
            assert got == pytest.approx(dense[q, a], abs=tol)


def assert_sector_agrees(vf, dense, tol=1e-12):
    assert_table_agrees(vf.space, vf.data, dense, tol)


def brute_matching_min(space, w, x):
    """min of w over the clipped successors of x that are states, by
    enumeration; +inf when every successor leaves the sector."""
    graph, cap = space.graph, space.cap
    n_d = graph.n_d
    best = np.inf
    for u in brute_admissible(graph, x):
        y = list(x)
        for count, (i, j) in zip(u, graph.edge_index):
            y[i] -= count
            y[n_d + j] -= count
        y = tuple(min(v, cap) for v in y)
        if sum(y[:n_d]) != sum(y[n_d:]):
            continue
        best = min(best, w[space.state_index(y)])
    return best


ORACLE_GRAPHS = [
    pytest.param(make_n_graph, 8, id="n-cap8"),
    pytest.param(make_w_graph, 5, id="w-cap5"),
    pytest.param(make_complete22, 6, id="complete22-cap6"),
    pytest.param(make_cmo33, 3, id="cmo33-cap3"),
    pytest.param(make_path23, 6, id="path23-cap6"),
]


class TestTruncatedStateSpace:
    def test_balanced_count_complete22(self):
        space = TruncatedStateSpace(make_complete22(), cap=2)
        # totals 0..4 give 1,2,3,2,1 compositions per side
        assert len(space.balanced_states) == 1 + 4 + 9 + 4 + 1

    def test_balanced_states_are_balanced_and_sorted(self):
        space = TruncatedStateSpace(make_w_graph(), cap=2)
        states = space.balanced_states
        assert np.all(states[:, :3].sum(axis=1) == states[:, 3:].sum(axis=1))
        as_tuples = [tuple(row) for row in states]
        assert as_tuples == sorted(as_tuples)

    def test_state_index_roundtrip(self):
        space = TruncatedStateSpace(make_n_graph(), cap=3)
        for pos, q in enumerate(space.balanced_states):
            assert space.state_index(q) == pos
        with pytest.raises(KeyError):
            space.state_index([1, 0, 0, 0])

    @pytest.mark.parametrize(
        "q", [[1.5, 0.5, 0.5, 1.5], [True, 0, 0, True], "1001"], ids=["float", "bool", "string"]
    )
    def test_state_reads_reject_non_integer_vectors(self, n_graph, n_arrivals, q):
        space = TruncatedStateSpace(n_graph, cap=3)
        vf, _ = value_iteration(
            space, unit_costs(n_graph), n_arrivals, DPConfig(theta=0.5), extract=False
        )
        for read in (space.state_index, space.is_interior, lambda q: vf.value(q, (0, 0))):
            with pytest.raises(ValueError, match="state entries must be integers"):
                read(q)

    def test_state_reads_reject_vectors_of_another_length(self, n_graph):
        space = TruncatedStateSpace(n_graph, cap=3)
        for read in (space.state_index, space.is_interior):
            with pytest.raises(ValueError, match="state must have length 4, got 5 entries"):
                read([1, 0, 0, 1, 0])

    def test_rows_reject_non_integer_blocks(self, n_graph):
        space = TruncatedStateSpace(n_graph, cap=3)
        for block in ([[1.5, 0.5, 0.5, 1.5]], np.array([[True, False, False, True]])):
            with pytest.raises(ValueError, match="state vectors must hold integers, got dtype"):
                space.rows(block)
        assert space.rows(np.array([[1, 0, 0, 1]], dtype=np.uint8)).tolist() == [10]
        with pytest.raises(KeyError, match=r"\(1, 0, 0, 0\) is not a balanced state"):
            space.rows([[1, 0, 0, 1], [1, 0, 0, 0]])

    def test_reads_outside_the_box_raise_the_key_error(self, n_graph):
        # cap 3: every entry past 3 lies outside the box of ravel codes.
        space = TruncatedStateSpace(n_graph, cap=3)
        table = np.zeros((len(space.balanced_states), space.n_atoms))
        vf = ValueFunction(space, table, 0.9, 1, 0.0, 0.0, 0.0)
        reads = [
            (space.rows, [5, 0, 0, 5]),
            (space.state_index, [4, 0, 0, 4]),
            (lambda q: vf.value(q, (0, 0)), [9, 0, 0, 9]),
        ]
        for read, q in reads:
            shown = re.escape(str(tuple(q)))
            with pytest.raises(KeyError, match=f"{shown} is not a balanced state"):
                read(q)

    def test_interior_and_tainted_partition(self):
        space = TruncatedStateSpace(make_n_graph(), cap=4, margin=2)
        assert space.is_interior([2, 0, 1, 1])
        assert not space.is_interior([3, 0, 2, 1])
        interior = space.interior_balanced_states
        assert np.all(interior <= 2)
        assert space.tainted_state_count == len(space.balanced_states) - len(interior)

    def test_rejects_bad_cap_and_margin(self):
        with pytest.raises(ValueError):
            TruncatedStateSpace(make_n_graph(), cap=0)
        with pytest.raises(ValueError):
            TruncatedStateSpace(make_n_graph(), cap=3, margin=0)
        with pytest.raises(ValueError):
            TruncatedStateSpace(make_n_graph(), cap=3, margin=4)

    @pytest.mark.parametrize(
        "kwargs",
        [{"cap": True, "margin": True}, {"cap": 4, "margin": 1.5}, {"cap": 3.0},
         {"cap": "4"}],
        ids=["bools", "float-margin", "float-cap", "string-cap"],
    )
    def test_rejects_non_integer_cap_and_margin(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            TruncatedStateSpace(make_n_graph(), **kwargs)

    def test_numpy_integer_cap_and_margin_become_ints(self):
        space = TruncatedStateSpace(make_n_graph(), cap=np.int64(4), margin=np.int32(1))
        assert (space.cap, space.margin) == (4, 1)
        assert type(space.cap) is int and type(space.margin) is int

    @pytest.mark.parametrize("maker", [make_n_graph, make_w_graph, make_nn_graph])
    def test_extended_rows_are_the_closure_of_post_arrival_vectors(self, maker):
        graph = maker()
        cap = 3
        n_d = graph.n_d
        todo = []
        for q in brute_balanced_states(graph.n_d, graph.n_s, cap):
            for i, j in graph.arrival_atoms:
                x = list(q)
                x[i] += 1
                x[n_d + j] += 1
                todo.append(tuple(x))
        closure = set()
        while todo:
            x = todo.pop()
            if x in closure:
                continue
            closure.add(x)
            for i, j in graph.edge_index:
                if x[i] > 0 and x[n_d + j] > 0:
                    y = list(x)
                    y[i] -= 1
                    y[n_d + j] -= 1
                    todo.append(tuple(y))
        extended = TruncatedStateSpace(graph, cap=cap).backup_index.extended
        assert sorted(map(tuple, extended.tolist())) == sorted(closure)

    @pytest.mark.parametrize(
        "maker, cap",
        [
            pytest.param(make_n_graph, 6, id="N"),
            pytest.param(make_w_graph, 4, id="W"),
            pytest.param(make_nn_graph, 3, id="NN"),
            pytest.param(make_path23, 4, id="path23"),
            pytest.param(make_fork, 4, id="fork"),
            pytest.param(make_complete22, 5, id="K22"),
            pytest.param(make_one_edge, 4, id="one-edge"),
            pytest.param(make_long_acyclic, 1, id="chain-cap1"),
            pytest.param(make_long_acyclic, 2, id="chain-cap2"),
        ],
    )
    def test_backup_index_matches_whole_vector_construction(self, maker, cap):
        space = TruncatedStateSpace(maker(), cap=cap, margin=1)
        index = space.backup_index
        expected = reference_backup_index(space)
        for name, got, want in zip(BackupIndex._fields, index, expected):
            if name == "levels":
                assert got == want
            else:
                assert np.array_equal(got, want), name
        assert space.balanced_states.dtype == np.int64
        assert index.extended.dtype == np.int8
        assert index.pred.dtype == np.int32
        assert index.read.dtype == index.post.dtype == np.intp

    def test_index_dtypes_follow_the_largest_value(self):
        assert _signed(127) == np.int8
        assert _signed(128) == np.int16
        assert _signed(2**31 - 1, np.int32) == np.int32
        assert _signed(2**31, np.int32) == np.int64

    def test_chain_index_build_stays_small(self):
        # Built from whole int64 vectors, this index peaked at 70.9 MB.
        space = TruncatedStateSpace(make_long_acyclic(), cap=2)
        space.balanced_states
        tracemalloc.start()
        try:
            space.backup_index
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 35e6


class TestBackupKernel:
    def test_backup_of_zero_is_post_arrival_cost(self):
        graph = make_n_graph()
        space = TruncatedStateSpace(graph, cap=3)
        costs = CostVector(demand=np.array([2.0, 3.0]), supply=np.array([5.0, 7.0]))
        arrivals = uniform_arrivals(graph)
        out = bellman_backup(
            space, _initial_table(space, None), costs, arrivals, theta=0.9
        )
        for q in brute_balanced_states(2, 2, 3):
            for a_idx, (i, j) in enumerate(graph.arrival_atoms):
                x = list(q)
                x[i] += 1
                x[2 + j] += 1
                assert out[space.state_index(q), a_idx] == pytest.approx(
                    float(np.dot(costs.vector, x)), abs=1e-12
                )

    @pytest.mark.parametrize(
        "maker", [make_n_graph, make_complete22, make_w_graph, make_nn_graph]
    )
    def test_matching_min_matches_brute_enumeration(self, maker):
        graph = maker()
        cap = 2
        space = TruncatedStateSpace(graph, cap=cap)
        rng = np.random.default_rng(7)
        w = rng.standard_normal(len(space.balanced_states))
        extended, read, _, _, _ = space.backup_index
        # The walk's minimum: w read where the greedy matching ends.
        _, end = _greedy(space, w, np.arange(len(extended)))
        m = np.append(w, np.inf)[read[end]]
        n_d = graph.n_d
        expected = [
            x
            for x in itertools.product(range(cap + 2), repeat=graph.n_nodes)
            if sum(x[:n_d]) == sum(x[n_d:])
            and x[:n_d].count(cap + 1) <= 1
            and x[n_d:].count(cap + 1) <= 1
        ]
        assert sorted(map(tuple, extended.tolist())) == expected
        for row, x in enumerate(extended):
            best = brute_matching_min(space, w, x)
            assert m[row] == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("maker", [make_n_graph, make_complete22])
    def test_matching_min_with_masked_grid_skips_sector_escapes(self, maker):
        graph = maker()
        cap = 2
        space = TruncatedStateSpace(graph, cap=cap)
        rng = np.random.default_rng(13)
        w = rng.standard_normal(len(space.balanced_states))
        # Zero costs and theta 1 leave exactly the matching minimum at q + a.
        zero_costs = CostVector(demand=np.zeros(graph.n_d), supply=np.zeros(graph.n_s))
        table = np.repeat(w[:, None], space.n_atoms, axis=1)
        out = bellman_backup(
            space, table, zero_costs, uniform_arrivals(graph), theta=1.0
        )
        n_d = graph.n_d
        for q in brute_balanced_states(graph.n_d, graph.n_s, cap):
            for a_idx, (i, j) in enumerate(graph.arrival_atoms):
                x = list(q)
                x[i] += 1
                x[n_d + j] += 1
                best = brute_matching_min(space, w, x)
                got = out[space.state_index(q), a_idx]
                assert got == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize(
        "maker, arrivals_of",
        [
            (make_complete22, two_class_arrivals),
            (make_n_graph, two_class_arrivals),
            (make_w_graph, uniform_arrivals),
        ],
        ids=["make_complete22", "make_n_graph", "make_w_graph"],
    )
    def test_optimality_sweeps_match_dense_reference(self, maker, arrivals_of):
        graph = maker()
        cap = 3
        theta = 0.9
        space = TruncatedStateSpace(graph, cap=cap)
        costs = CostVector(
            demand=np.arange(1.0, graph.n_d + 1.0),
            supply=np.arange(2.0, graph.n_s + 2.0),
        )
        arrivals = arrivals_of(graph)
        table = _initial_table(space, None)
        dense = dense_zero(graph, cap)
        for _ in range(4):
            table = bellman_backup(space, table, costs, arrivals, theta)
            dense = dense_backup(graph, arrivals, costs, cap, dense, theta)
            assert_table_agrees(space, table, dense)

    @pytest.mark.parametrize("maker, cap", ORACLE_GRAPHS)
    def test_greedy_successors_read_the_one_pass_minimum(self, maker, cap):
        graph = maker()
        space = TruncatedStateSpace(graph, cap=cap)
        arrivals = stable_arrivals(graph)
        rng = np.random.default_rng(cap)
        table = rng.standard_normal((len(space.balanced_states), space.n_atoms))
        succ = _greedy_successors(space, table, arrivals.atom_probs())
        w = table @ arrivals.atom_probs()
        m = reference_sector_min(space, w)
        assert np.array_equal(w[succ], m[space.backup_index.post])


class TestValueIteration:
    def test_monotone_from_zero(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=3)
        costs = unit_costs(n_graph)
        table = _initial_table(space, None)
        for _ in range(30):
            new = bellman_backup(space, table, costs, n_arrivals, theta=0.9)
            assert np.all(new >= table - 1e-12)
            table = new

    def test_residuals_nonincreasing_after_first_sweep(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=4)
        costs = CostVector(demand=np.array([1.0, 2.0]), supply=np.array([2.0, 1.0]))
        arrivals = uniform_arrivals(graph)
        table = _initial_table(space, None)
        residuals = []
        for _ in range(40):
            new = bellman_backup(space, table, costs, arrivals, theta=0.9)
            residuals.append(float(np.abs(new - table).max()))
            table = new
        for before, after in zip(residuals[1:], residuals[2:]):
            assert after <= before + 1e-12

    def test_converges_to_fixed_point(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=4)
        costs = unit_costs(n_graph)
        config = DPConfig(theta=0.9)
        vf, policy = value_iteration(space, costs, n_arrivals, config)
        assert vf.residual < 1e-9
        assert vf.theta == 0.9
        again = bellman_backup(space, vf.data, costs, n_arrivals, 0.9)
        gap = np.abs(again - vf.data).max()
        assert gap < 1e-8
        assert policy is not None

    def test_zero_queue_value_positive(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=4)
        vf, _ = value_iteration(
            space, unit_costs(n_graph), n_arrivals, DPConfig(theta=0.5)
        )
        # every step pays at least the arriving pair's holding cost
        assert vf.value([0, 0, 0, 0], (0, 0)) >= 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_table_is_rejected(self, n_graph, n_arrivals, bad):
        space = TruncatedStateSpace(n_graph, cap=3)
        v0 = np.zeros((len(space.balanced_states), space.n_atoms))
        v0[5, 2] = bad
        with pytest.raises(ValueError, match="v0 must be finite"):
            value_iteration(space, unit_costs(n_graph), n_arrivals, v0=v0)

    def test_value_rejects_atoms_outside_the_graph(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=3)
        vf, _ = value_iteration(
            space, unit_costs(n_graph), n_arrivals, DPConfig(theta=0.5), extract=False
        )
        q = [1, 0, 0, 1]
        assert vf.value(q, (1, 0)) == vf.data[space.state_index(q), 2]
        for atom in [(0, 2), (-1, 0), (2, 0)]:
            with pytest.raises(ValueError, match=re.escape(f"{atom} is not an")):
                vf.value(q, atom)

    @pytest.mark.parametrize("atom, message", BAD_ATOMS)
    def test_value_rejects_atoms_that_are_not_integer_pairs(self, n_graph, n_arrivals, atom, message):
        space = TruncatedStateSpace(n_graph, cap=3)
        vf, _ = value_iteration(
            space, unit_costs(n_graph), n_arrivals, DPConfig(theta=0.5), extract=False
        )
        with pytest.raises(ValueError, match=message):
            vf.value([1, 0, 0, 1], atom)

    def test_rejects_bad_theta(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=3)
        with pytest.raises(ValueError):
            value_iteration(
                space, unit_costs(n_graph), n_arrivals, DPConfig(theta=1.0)
            )

    def test_no_convergence_carries_diagnostics(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=3)
        with pytest.raises(NoConvergence) as err:
            value_iteration(
                space,
                unit_costs(n_graph),
                n_arrivals,
                DPConfig(theta=0.95, max_iters=2),
            )
        assert err.value.iterations == 2
        assert err.value.residual > 0

    def test_start_table_is_not_written(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=4)
        rng = np.random.default_rng(3)
        start = rng.standard_normal((len(space.balanced_states), space.n_atoms))
        before = start.copy()
        costs = unit_costs(n_graph)
        value_iteration(space, costs, n_arrivals, v0=start, extract=False)
        relative_value_iteration(space, costs, n_arrivals, v0=start, extract=False)
        assert np.array_equal(start, before)

    def test_value_function_carries_the_bounds_of_the_last_change(self):
        graph, arrivals, costs = load_graph(RECIPES["n-threshold"]["graph"])
        space = TruncatedStateSpace(graph, cap=12, margin=4)
        gain, vf, _ = relative_value_iteration(space, costs, arrivals, extract=False)
        assert vf.high - vf.low == vf.residual
        assert vf.low <= gain <= vf.high
        vf, _ = value_iteration(space, costs, arrivals, extract=False)
        assert vf.high - vf.low == vf.residual
        assert vf.low <= vf.high

    def test_n_recipe_near_theta_one_takes_few_backups(self):
        # The sup norm of the change shrinks like theta per backup and took
        # 223 backups here; its span shrinks with the chain's mixing.
        graph, arrivals, costs = load_graph(RECIPES["n-threshold"]["graph"])
        space = TruncatedStateSpace(graph, cap=12, margin=4)
        vf, _ = value_iteration(
            space, costs, arrivals, DPConfig(theta=0.999), extract=False
        )
        assert vf.iterations <= 10

    @pytest.mark.parametrize("theta", [0.99, 0.999])
    @pytest.mark.parametrize("solve", ["optimal", "evaluate"])
    def test_answer_carries_the_span_certificate(self, solve, theta):
        # With Tv - v in [lo, hi] and w = Tv + theta / (1 - theta) * mid,
        # mid = (lo + hi) / 2, Tw - w = (TTv - Tv) - theta * mid lies in
        # theta * [lo - mid, hi - mid], so |Tw - w| <= theta * span / 2.
        # Kept to N: the W graph's values (about 1e5) put float noise at
        # the size of that bound.
        graph, arrivals, costs = load_graph(RECIPES["n-threshold"]["graph"])
        space = TruncatedStateSpace(graph, cap=12, margin=4)
        config = DPConfig(theta=theta)
        if solve == "optimal":
            vf, _ = value_iteration(space, costs, arrivals, config, extract=False)
            again = bellman_backup(space, vf.data, costs, arrivals, theta)
        else:
            policy = ThresholdN(graph, 1)
            vf = evaluate_policy(space, policy, costs, arrivals, config)
            again = _sweep(
                vf.data,
                _post_arrival_costs(space, costs),
                arrivals.atom_probs(),
                _sector_successors(space, policy),
                theta,
            )
        eps = np.finfo(float).eps
        gap = np.abs(again - vf.data).max()
        assert gap <= theta * vf.residual / 2 + 8 * eps * np.abs(vf.data).max()

    def test_full_match_extracted_on_complete_graph(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=6)
        costs = CostVector(demand=np.array([1.0, 4.0]), supply=np.array([2.0, 8.0]))
        arrivals = ArrivalDistribution(
            alpha=np.array([0.3, 0.7]), beta=np.array([0.6, 0.4])
        )
        _, policy = value_iteration(
            space, costs, arrivals, DPConfig(theta=0.9)
        )
        for x, u in policy.table.items():
            used = np.zeros(4, dtype=np.int64)
            for count, (i, j) in zip(u, graph.edge_index):
                used[i] += count
                used[2 + j] += count
            assert tuple(used) == x


class TestRelativeValueIteration:
    def test_complete_graph_gain_is_mean_arrival_cost(self):
        graph = make_complete22()
        arrivals = ArrivalDistribution(
            alpha=np.array([0.3, 0.7]), beta=np.array([0.6, 0.4])
        )
        costs = CostVector(
            demand=np.array([1.0, 4.0]), supply=np.array([2.0, 8.0])
        )
        space = TruncatedStateSpace(graph, cap=6)
        gain, vf, policy = relative_value_iteration(space, costs, arrivals)
        expected = sum(
            arrivals.alpha[i] * arrivals.beta[j] * (costs.vector[i] + costs.vector[2 + j])
            for i in range(2)
            for j in range(2)
        )
        assert gain == pytest.approx(expected, abs=1e-8)
        assert vf.theta is None
        assert policy is not None

    def test_unstable_rates_raise(self, n_graph):
        arrivals = ArrivalDistribution(
            alpha=np.array([0.4, 0.6]), beta=np.array([0.6, 0.4])
        )
        space = TruncatedStateSpace(n_graph, cap=4)
        with pytest.raises(Unstable):
            relative_value_iteration(space, unit_costs(n_graph), arrivals)

    def test_constant_shift_of_start_changes_nothing(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=4)
        costs = unit_costs(n_graph)
        base = relative_value_iteration(
            space, costs, n_arrivals, extract=False
        )
        shifted = relative_value_iteration(
            space,
            costs,
            n_arrivals,
            v0=np.full((len(space.balanced_states), 4), 7.0),
            extract=False,
        )
        assert base[0] == pytest.approx(shifted[0], abs=1e-12)
        assert np.allclose(base[1].data, shifted[1].data, atol=1e-12)
        # A shifted solution meets the span rule at the first backup, which
        # must report the change at row 0, not the shifted value there.
        solved = relative_value_iteration(
            space, costs, n_arrivals, v0=base[1].data + 7.0, extract=False
        )
        assert solved[1].iterations == 1
        assert solved[0] == pytest.approx(base[0], abs=1e-9)
        assert np.allclose(solved[1].data, base[1].data, atol=1e-9)

    def test_extracted_policy_matches_closed_form_threshold(self):
        graph = make_n_graph()
        arrivals = ArrivalDistribution(
            alpha=np.array([0.55, 0.45]), beta=np.array([0.45, 0.55])
        )
        costs = CostVector(
            demand=np.array([1.0, 10.0]), supply=np.array([8.0, 2.0])
        )
        params = NModelParams.from_graph(graph, arrivals, costs)
        t_star = optimal_threshold(params)
        assert t_star == 4
        # the wide margin keeps cap-exploiting decisions out of the window
        space = TruncatedStateSpace(graph, cap=16, margin=8)
        _, _, policy = relative_value_iteration(
            space, costs, arrivals, DPConfig(tol=1e-6)
        )
        reference = ThresholdN(graph, t_star)
        for x in policy.table:
            got = policy.decide(np.asarray(x))
            want = reference.decide(np.asarray(x))
            assert np.array_equal(got, want), (x, got, want)


class TestPolicyEvaluation:
    def test_full_match_discounted_matches_dense_reference(self):
        graph = make_complete22()
        cap = 3
        theta = 0.9
        space = TruncatedStateSpace(graph, cap=cap)
        costs = CostVector(demand=np.array([1.0, 2.0]), supply=np.array([3.0, 1.0]))
        arrivals = ArrivalDistribution(
            alpha=np.array([0.7, 0.3]), beta=np.array([0.45, 0.55])
        )
        policy = FullMatch(graph)
        vf = evaluate_policy(space, policy, costs, arrivals, DPConfig(theta=theta))
        assert vf.data.shape == (len(space.balanced_states), space.n_atoms)

        def decide(x):
            return policy.decide(np.asarray(x, dtype=np.int64))

        dense = dense_zero(graph, cap)
        for _ in range(400):
            dense = dense_policy_backup(
                graph, arrivals, costs, cap, dense, theta, decide
            )
        assert_sector_agrees(vf, dense, tol=1e-7)

    def test_threshold_vectorized_path_matches_dense_reference(self):
        graph = make_n_graph()
        cap = 3
        theta = 0.9
        space = TruncatedStateSpace(graph, cap=cap)
        costs = CostVector(demand=np.array([1.0, 5.0]), supply=np.array([4.0, 2.0]))
        arrivals = ArrivalDistribution(
            alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6])
        )
        policy = ThresholdN(graph, 1)
        vf = evaluate_policy(space, policy, costs, arrivals, DPConfig(theta=theta))

        def decide(x):
            return policy.decide(np.asarray(x, dtype=np.int64))

        dense = dense_zero(graph, cap)
        for _ in range(400):
            dense = dense_policy_backup(
                graph, arrivals, costs, cap, dense, theta, decide
            )
        assert_sector_agrees(vf, dense, tol=1e-7)

    def test_w_policy_generic_path_matches_dense_reference(self):
        graph = make_w_graph()
        cap = 3
        theta = 0.85
        space = TruncatedStateSpace(graph, cap=cap)
        costs = CostVector(
            demand=np.array([2.0, 1.0, 3.0]), supply=np.array([1.0, 2.0])
        )
        arrivals = ArrivalDistribution(
            alpha=np.array([0.4, 0.35, 0.25]), beta=np.array([0.5, 0.5])
        )
        policy = ThresholdW(graph, 1, 0)
        vf = evaluate_policy(space, policy, costs, arrivals, DPConfig(theta=theta))

        def decide(x):
            return policy.decide(np.asarray(x, dtype=np.int64))

        dense = dense_zero(graph, cap)
        for _ in range(300):
            dense = dense_policy_backup(
                graph, arrivals, costs, cap, dense, theta, decide
            )
        assert_sector_agrees(vf, dense, tol=1e-7)

    def test_myopic_theta_zero_value_is_post_arrival_cost(self):
        graph = make_complete22()
        space = TruncatedStateSpace(graph, cap=3)
        costs = CostVector(demand=np.array([1.0, 2.0]), supply=np.array([3.0, 1.0]))
        arrivals = uniform_arrivals(graph)
        vf = evaluate_policy(
            space, FullMatch(graph), costs, arrivals, DPConfig(theta=0.0)
        )
        for q in brute_balanced_states(2, 2, 3):
            for a_idx, (i, j) in enumerate(graph.arrival_atoms):
                x = list(q)
                x[i] += 1
                x[2 + j] += 1
                assert vf.value(q, (i, j)) == pytest.approx(
                    float(np.dot(costs.vector, x)), abs=1e-12
                )

    def test_full_match_average_gain_on_complete_graph(self):
        graph = make_complete22()
        arrivals = ArrivalDistribution(
            alpha=np.array([0.3, 0.7]), beta=np.array([0.6, 0.4])
        )
        costs = CostVector(demand=np.array([1.0, 4.0]), supply=np.array([2.0, 8.0]))
        space = TruncatedStateSpace(graph, cap=5)
        gain, vf = evaluate_policy(
            space, FullMatch(graph), costs, arrivals, mode="average"
        )
        expected = sum(
            arrivals.alpha[i] * arrivals.beta[j] * (costs.vector[i] + costs.vector[2 + j])
            for i in range(2)
            for j in range(2)
        )
        assert gain == pytest.approx(expected, abs=1e-8)
        assert vf.theta is None

    def test_threshold_average_gain_matches_closed_form(self):
        graph = make_n_graph()
        arrivals = ArrivalDistribution(
            alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6])
        )
        costs = unit_costs(graph)
        params = NModelParams.from_graph(graph, arrivals, costs)
        space = TruncatedStateSpace(graph, cap=25)
        for t in (0, 1, 3):
            gain, _ = evaluate_policy(
                space, ThresholdN(graph, t), costs, arrivals, mode="average"
            )
            assert gain == pytest.approx(average_cost(params, t), abs=1e-5)

    def test_average_mode_rejects_unstable_rates_like_rvi(self, n_graph):
        arrivals = ArrivalDistribution(
            alpha=np.array([0.3, 0.7]), beta=np.array([0.6, 0.4])
        )
        space = TruncatedStateSpace(n_graph, cap=8)
        costs = unit_costs(n_graph)
        with pytest.raises(Unstable) as rvi:
            relative_value_iteration(space, costs, arrivals)
        with pytest.raises(Unstable) as evaluated:
            evaluate_policy(space, ThresholdN(n_graph, 1), costs, arrivals, mode="average")
        assert str(evaluated.value) == str(rvi.value)
        assert evaluated.value.violations == rvi.value.violations
        vf = evaluate_policy(space, ThresholdN(n_graph, 1), costs, arrivals)
        assert np.all(np.isfinite(vf.data))

    @pytest.mark.parametrize("mode", ["discounted", "average"])
    def test_policy_of_another_graph_is_rejected_before_any_decision(self, mode):
        # The N recipe's rates and costs; the policy's graph lists the
        # demand nodes as (d2, d1), so it reads every vector swapped.
        graph = make_n_graph()
        swapped = MatchingGraph(graph.demand_nodes[::-1], graph.supply_nodes, graph.edges)
        costs = CostVector(demand=np.array([1.0, 6.0]), supply=np.array([5.0, 2.0]))
        arrivals = ArrivalDistribution(
            alpha=np.array([0.65, 0.35]), beta=np.array([0.35, 0.65])
        )
        calls = []

        class Counted(ThresholdN):
            def decide(self, x):
                calls.append(x)
                return super().decide(x)

        space = TruncatedStateSpace(graph, cap=12, margin=4)
        with pytest.raises(ValueError, match=r"ThresholdN\(t=1\) is bound to another graph"):
            evaluate_policy(space, Counted(swapped, 1), costs, arrivals, mode=mode)
        assert calls == []

    @pytest.mark.parametrize("mode", ["discounted", "average"])
    def test_fractional_counts_are_rejected(self, n_graph, n_arrivals, mode):
        space = TruncatedStateSpace(n_graph, cap=8)
        with pytest.raises(ValueError, match="Fractional returned match counts"):
            evaluate_policy(
                space, Fractional(n_graph), unit_costs(n_graph), n_arrivals, mode=mode
            )

    @pytest.mark.parametrize("length, wrong", WRONG_LENGTHS)
    def test_decision_of_the_wrong_length_is_rejected(
        self, n_graph, n_arrivals, length, wrong
    ):
        space = TruncatedStateSpace(n_graph, cap=8)
        policy = ZeroOfLength(n_graph, length)
        with pytest.raises(
            ValueError, match=rf"one entry per edge \(3\), got shape \({wrong},\)"
        ):
            evaluate_policy(space, policy, unit_costs(n_graph), n_arrivals)

    def test_rejects_unknown_mode(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=3)
        with pytest.raises(ValueError):
            evaluate_policy(
                space, ThresholdN(n_graph, 0), unit_costs(n_graph), n_arrivals,
                mode="total",
            )


    def test_overdrawn_decision_is_rejected(self, n_graph, n_arrivals):
        class Overdraw(ThresholdN):
            def decide(self, x):
                if list(x) == [1, 0, 1, 0]:
                    return np.array([2, 0, 0])
                return super().decide(x)

        space = TruncatedStateSpace(n_graph, cap=4)
        with pytest.raises(Inadmissible, match=r"u=\[2, 0, 0\] at x=\[1, 0, 1, 0\]"):
            evaluate_policy(
                space, Overdraw(n_graph, 0), unit_costs(n_graph), n_arrivals
            )

    def test_one_sided_clip_is_rejected(self, n_graph, n_arrivals):
        class NeverMatch(Policy):
            label = "NeverMatch"

            def decide(self, x):
                return np.zeros(len(self.graph.edges), dtype=np.int64)

        space = TruncatedStateSpace(n_graph, cap=3)
        with pytest.raises(Inadmissible, match="leaves the balanced sector"):
            evaluate_policy(
                space, NeverMatch(n_graph), unit_costs(n_graph), n_arrivals
            )


@pytest.mark.parametrize(
    "solver, solve",
    [
        ("value iteration", lambda s, c, a, cfg: value_iteration(s, c, a, cfg)),
        (
            "relative value iteration",
            lambda s, c, a, cfg: relative_value_iteration(s, c, a, cfg),
        ),
        (
            "policy evaluation",
            lambda s, c, a, cfg: evaluate_policy(s, ThresholdN(s.graph, 1), c, a, cfg),
        ),
        (
            "policy evaluation",
            lambda s, c, a, cfg: evaluate_policy(
                s, ThresholdN(s.graph, 1), c, a, cfg, mode="average"
            ),
        ),
    ],
    ids=["vi", "rvi", "eval-discounted", "eval-average"],
)
def test_sweep_limit_raises_one_no_convergence(solver, solve, n_graph, n_arrivals):
    space = TruncatedStateSpace(n_graph, cap=3)
    with pytest.raises(NoConvergence, match=f"^{solver} did not reach") as err:
        solve(space, unit_costs(n_graph), n_arrivals, DPConfig(max_iters=2))
    assert err.value.iterations == 2
    assert err.value.residual > 0


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_nonpositive_or_nan_tolerance_is_rejected(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        DPConfig(tol=tol).resolved_tol("average")


@pytest.mark.parametrize(
    "max_iters, message",
    [
        (2.5, "max_iters must be an integer, got 2.5"),
        (True, "max_iters must be an integer, got True"),
        ("3", "max_iters must be an integer, got '3'"),
        (0, "max_iters must be at least 1, got 0"),
    ],
    ids=["float", "bool", "string", "zero"],
)
def test_bad_backup_limit_is_rejected_at_construction(max_iters, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DPConfig(max_iters=max_iters)


@pytest.mark.parametrize(
    "field, value",
    [("tol", True), ("theta", False), ("tol", "1e-3"), ("theta", "0.9"), ("theta", None)],
    ids=["bool-tol", "bool-theta", "string-tol", "string-theta", "none-theta"],
)
def test_discount_and_tolerance_must_be_real_numbers(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a real number, got {value!r}")):
        DPConfig(**{field: value})


def test_numpy_reals_are_accepted_as_discount_and_tolerance():
    config = DPConfig(theta=np.float32(0.5), tol=np.int64(1))
    assert config.resolved_tol("average") == 1


def test_numpy_integer_backup_limit_becomes_an_int():
    config = DPConfig(max_iters=np.int64(7))
    assert config.max_iters == 7 and type(config.max_iters) is int


@pytest.mark.parametrize(
    "entry", ["v0", "bellman_backup", "extract_policy", "check_increasing"]
)
def test_table_of_another_space_is_rejected(n_graph, n_arrivals, entry):
    table = np.zeros((len(TruncatedStateSpace(n_graph, cap=8).balanced_states), 4))
    space = TruncatedStateSpace(n_graph, cap=9)
    costs = unit_costs(n_graph)
    calls = {
        "v0": lambda: value_iteration(space, costs, n_arrivals, v0=table),
        "bellman_backup": lambda: bellman_backup(space, table, costs, n_arrivals, 0.9),
        "extract_policy": lambda: extract_policy(space, table, n_arrivals),
        "check_increasing": lambda: check_increasing(space, table, (0, 0)),
    }
    want = f"must have shape {(len(space.balanced_states), 4)}, got {table.shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        calls[entry]()


def stable_arrivals(graph) -> ArrivalDistribution:
    if (graph.n_d, graph.n_s) == (2, 3):
        return ArrivalDistribution(
            alpha=np.array([0.55, 0.45]), beta=np.array([0.3, 0.4, 0.3])
        )
    if (graph.n_d, graph.n_s) == (2, 2):
        return ArrivalDistribution(alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6]))
    return uniform_arrivals(graph)


def graded_costs(graph) -> CostVector:
    return CostVector(
        demand=np.arange(1.0, graph.n_d + 1.0),
        supply=np.arange(graph.n_s + 1.0, 1.0, -1.0),
    )


def solve_both(graph, cap, theta):
    """The public solver and its plain-iteration oracle on one problem:
    (gain, value function, policy) each, the gain None when discounted."""
    space = TruncatedStateSpace(graph, cap=cap)
    costs, arrivals = graded_costs(graph), stable_arrivals(graph)
    if theta is None:
        return (
            relative_value_iteration(space, costs, arrivals),
            reference_relative_value_iteration(space, costs, arrivals),
        )
    config = DPConfig(theta=theta)
    return (
        (None, *value_iteration(space, costs, arrivals, config)),
        (None, *reference_value_iteration(space, costs, arrivals, config)),
    )


class TestAgainstPlainIteration:
    """Modified policy iteration against plain value iteration."""

    @pytest.mark.parametrize("theta", [None, 0.9, 0.99], ids=["average", "0.9", "0.99"])
    @pytest.mark.parametrize("maker, cap", ORACLE_GRAPHS)
    def test_matches_plain_iteration(self, maker, cap, theta):
        (gain, vf, policy), (ref_gain, ref_vf, ref_policy) = solve_both(
            maker(), cap, theta
        )
        tol = DPConfig().resolved_tol("discounted" if theta else "average")
        assert vf.residual < tol and ref_vf.residual < tol
        if theta is None:
            # Both gains lie within their span bounds min(Tv - v) <= g <=
            # max(Tv - v); the span rule bounds the bias less tightly.
            assert abs(gain - ref_gain) <= tol
            value_bound = 100 * tol
        else:
            # A table whose backup moved less than tol lies within
            # tol * theta / (1 - theta) of the fixed point.
            value_bound = 2 * tol * theta / (1 - theta)
        assert np.abs(vf.data - ref_vf.data).max() <= value_bound
        assert policy.table.keys() == ref_policy.table.keys()
        for x, u in policy.table.items():
            assert np.array_equal(u, ref_policy.table[x]), x

    @pytest.mark.parametrize(
        "maker, cap, theta",
        [(make_n_graph, 8, None), (make_w_graph, 5, 0.9), (make_path23, 6, None)],
        ids=["n-average", "w-0.9", "path23-average"],
    )
    def test_no_policy_sweeps_is_plain_iteration(self, monkeypatch, maker, cap, theta):
        monkeypatch.setattr(solver_module, "MPI_SWEEPS", 0)
        (gain, vf, policy), (ref_gain, ref_vf, ref_policy) = solve_both(
            maker(), cap, theta
        )
        assert gain == ref_gain
        assert vf.iterations == ref_vf.iterations
        assert vf.residual == ref_vf.residual
        assert np.array_equal(vf.data, ref_vf.data)
        assert policy.table.keys() == ref_policy.table.keys()
        for x, u in policy.table.items():
            assert np.array_equal(u, ref_policy.table[x]), x

    @pytest.mark.parametrize("solve", ["vi", "rvi", "vi-theta0"])
    def test_unsolvable_truncation_still_raises(self, nn_graph, solve):
        space = TruncatedStateSpace(nn_graph, cap=4)
        arrivals = ArrivalDistribution(
            alpha=np.array([3.0, 2.0, 1.0]) / 6,
            beta=np.array([0.91, 1.41, 0.68]) / 3,
        )
        run = relative_value_iteration if solve == "rvi" else value_iteration
        # One rule for every theta: a myopic solve still needs a transition.
        config = DPConfig(theta=0.0) if solve == "vi-theta0" else None
        with pytest.raises(
            MatchDPError, match="has no transition that stays balanced inside the cap"
        ):
            run(space, unit_costs(nn_graph), arrivals, config)


def _table_digest(policy) -> str:
    """sha256 of every (key, decision) pair in ascending key order."""
    h = hashlib.sha256()
    for x in sorted(policy.table):
        h.update(np.asarray(x, dtype=np.int64).tobytes())
        h.update(np.asarray(policy.table[x], dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


class TestExtraction:
    # Digests of the decisions stored one dict entry per x before the table
    # became one block: the contents must not move by a single count.
    @pytest.mark.parametrize(
        "recipe, cap, margin, states, digest",
        [
            ("n-threshold", 20, 6, 2734, "d2de6c1c485afb16"),
            ("w-counterexample", 7, 2, 1161, "feceb45cd85fae30"),
            ("w-counterexample", 12, 3, 6984, "4dc4e80716abb5b2"),
            ("complete-full", 8, 2, 342, "f9026e0872888180"),
        ],
        ids=["N-cap20", "W-cap7", "W-cap12", "K22-cap8"],
    )
    def test_extracted_decisions_are_pinned(self, recipe, cap, margin, states, digest):
        space, vf, arrivals = recipe_solve(recipe, cap, margin)
        policy = extract_policy(space, vf.data, arrivals)
        assert policy.label == f"Tabular[{states} states]"
        assert list(policy.table) == list(map(tuple, space.interior_post_arrivals.tolist()))
        assert _table_digest(policy) == digest

    def test_extracted_table_retains_one_code_and_one_row_per_decision(self):
        space, vf, arrivals = recipe_solve("w-counterexample", 12, 3)
        space.interior_post_arrivals, space.backup_index
        tracemalloc.start()
        try:
            policy = extract_policy(space, vf.data, arrivals)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # One dict entry, tuple key and array per decision kept ~270 B each.
        n_edges = len(space.graph.edges)
        assert retained <= 8 * (n_edges + 1) * len(policy.table) + 64 * 1024

    def test_argmin_prefers_lexicographically_smallest_on_ties(self):
        space = TruncatedStateSpace(make_complete22(), cap=3)
        w = np.zeros(len(space.balanced_states))
        u = _argmin_decision(space, w, np.array([2, 1, 1, 2]))
        assert tuple(u) == (0, 0, 0, 0)

    def test_argmin_finds_strict_minimum(self):
        graph = make_n_graph()
        space = TruncatedStateSpace(graph, cap=3)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(len(space.balanced_states))
        n_d = graph.n_d
        for x in ([2, 1, 1, 2], [3, 0, 2, 1], [1, 1, 2, 0]):
            x = np.asarray(x)
            best_u, best_val = None, np.inf
            for u in brute_admissible(graph, x):
                y = list(x)
                for count, (i, j) in zip(u, graph.edge_index):
                    y[i] -= count
                    y[n_d + j] -= count
                val = w[space.state_index(y)]
                if val < best_val:
                    best_u, best_val = u, val
            assert tuple(_argmin_decision(space, w, x)) == best_u

    def test_extracted_keys_cover_interior_post_arrival_vectors(
        self, n_graph, n_arrivals
    ):
        space = TruncatedStateSpace(n_graph, cap=4, margin=2)
        costs = unit_costs(n_graph)
        vf, policy = value_iteration(
            space, costs, n_arrivals, DPConfig(theta=0.9)
        )
        expected_keys = set()
        for q in space.interior_balanced_states:
            for i, j in n_graph.arrival_atoms:
                x = q.copy()
                x[i] += 1
                x[2 + j] += 1
                expected_keys.add(tuple(int(v) for v in x))
        assert set(policy.table) == expected_keys
        assert extract_policy(space, vf.data, n_arrivals).table.keys() == expected_keys

    def test_extraction_agrees_with_per_state_brute_force(self, n_graph, n_arrivals):
        space = TruncatedStateSpace(n_graph, cap=4)
        costs = CostVector(demand=np.array([1.0, 3.0]), supply=np.array([2.0, 1.0]))
        vf, policy = value_iteration(
            space, costs, n_arrivals, DPConfig(theta=0.9)
        )
        w = vf.data @ n_arrivals.atom_probs()
        n_d = n_graph.n_d
        for x, u in policy.table.items():
            best_u, best_val = None, np.inf
            for cand in brute_admissible(n_graph, x):
                y = list(x)
                for count, (i, j) in zip(cand, n_graph.edge_index):
                    y[i] -= count
                    y[n_d + j] -= count
                val = w[space.state_index(y)]
                if val < best_val:
                    best_u, best_val = cand, val
            assert tuple(u) == best_u

    @pytest.mark.parametrize(
        "maker",
        [make_n_graph, make_w_graph, make_nn_graph, make_complete22, make_cmo33],
    )
    @pytest.mark.parametrize("cap, margin", [(4, 1), (6, 2)])
    def test_extraction_matches_oracle_under_heavy_ties(self, maker, cap, margin):
        graph = maker()
        space = TruncatedStateSpace(graph, cap=cap, margin=margin)
        rng = np.random.default_rng(cap)
        # Integer values repeated over the atoms keep every tie exact in w.
        values = rng.integers(0, 3, size=len(space.balanced_states)).astype(float)
        table = np.repeat(values[:, None], space.n_atoms, axis=1)
        arrivals = uniform_arrivals(graph)
        policy = extract_policy(space, table, arrivals)
        n_d = graph.n_d
        keys = set()
        for q in brute_balanced_states(graph.n_d, graph.n_s, cap - margin):
            for i, j in graph.arrival_atoms:
                x = list(q)
                x[i] += 1
                x[n_d + j] += 1
                keys.add(tuple(x))
        assert set(policy.table) == keys
        assert list(map(tuple, space.interior_post_arrivals.tolist())) == sorted(keys)
        w = table @ arrivals.atom_probs()
        for x, u in policy.table.items():
            assert tuple(u) == tuple(_argmin_decision(space, w, np.asarray(x)))


# ---- inputs sized for another graph ----

SOLVES = {
    "value_iteration": lambda space, costs, arrivals: value_iteration(space, costs, arrivals),
    "relative_value_iteration": lambda space, costs, arrivals: relative_value_iteration(
        space, costs, arrivals
    ),
    "evaluate_policy": lambda space, costs, arrivals: evaluate_policy(
        space, ThresholdN(space.graph, 1), costs, arrivals, mode="average"
    ),
    "bellman_backup": lambda space, costs, arrivals: bellman_backup(
        space, np.zeros((len(space.balanced_states), space.n_atoms)), costs, arrivals, 0.9
    ),
}


@pytest.mark.parametrize("solve", sorted(SOLVES))
@pytest.mark.parametrize("field, entries, message", OTHER_SIZES)
def test_solvers_reject_inputs_sized_for_another_graph(solve, field, entries, message):
    space = TruncatedStateSpace(make_n_graph(), cap=3)
    arrivals, costs = n_inputs(field, entries)
    with pytest.raises(ValueError, match=message):
        SOLVES[solve](space, costs, arrivals)


@pytest.mark.parametrize("field, entries, message", OTHER_ARRIVALS)
def test_extract_policy_rejects_arrivals_sized_for_another_graph(field, entries, message):
    space = TruncatedStateSpace(make_n_graph(), cap=3)
    arrivals, _ = n_inputs(field, entries)
    table = np.zeros((len(space.balanced_states), space.n_atoms))
    with pytest.raises(ValueError, match=message):
        extract_policy(space, table, arrivals)
