"""End-to-end acceptance checks for the toolkit.

One test per numbered criterion; each prints a single line with the
measured quantities once its assertions hold, so a verbose run reads as a
pass/fail scorecard.  Tolerances and budgets are stated inline.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from matchdp.graphs import (
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    check_stability,
)
from matchdp.nshaped import (
    NModelParams,
    average_cost,
    level_probability,
    optimal_threshold,
)
from matchdp.cli import reproduce
from matchdp.policies import ThresholdN
from matchdp.simulate import SimConfig, simulate
from matchdp.solver import (
    DPConfig,
    TruncatedStateSpace,
    bellman_backup,
    evaluate_policy,
    relative_value_iteration,
    value_iteration,
)
from matchdp.states import admissible_matchings
from matchdp.structure import (
    check_boundary,
    check_convex,
    check_increasing,
    verify_policy_shape,
)

from conftest import (
    make_complete22,
    make_n_graph,
    make_nn_graph,
    make_w_graph,
    unit_costs,
)
from oracles import brute_admissible, dense_backup, dense_zero, reference_layout


def report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS: {text}")


def make_complete32() -> MatchingGraph:
    return MatchingGraph(
        demand_nodes=("d1", "d2", "d3"),
        supply_nodes=("s1", "s2"),
        edges=tuple((f"d{i}", f"s{j}") for i in (1, 2, 3) for j in (1, 2)),
    )


def n_model(alpha: float, beta: float, costs: tuple) -> tuple:
    graph = make_n_graph()
    arrivals = ArrivalDistribution(
        alpha=np.array([alpha, 1.0 - alpha]), beta=np.array([beta, 1.0 - beta])
    )
    cost_vec = CostVector(
        demand=np.array(costs[:2]), supply=np.array(costs[2:])
    )
    return graph, arrivals, cost_vec


# Five stable parameter sets whose closed-form optima span 0 to 4.
AVERAGE_DP_SETS = (
    (0.60, 0.40, (1.0, 1.0, 1.0, 1.0)),
    (0.60, 0.40, (1.0, 5.0, 5.0, 1.0)),
    (0.55, 0.45, (1.0, 1.0, 1.0, 1.0)),
    (0.55, 0.45, (1.0, 10.0, 8.0, 2.0)),
    (0.70, 0.30, (2.0, 3.0, 1.0, 2.0)),
)


@pytest.fixture(scope="module")
def average_dp_runs():
    """Average-cost DP on every pinned parameter set at cap 20.

    The wide margin of 9 keeps the verification window clear of cap
    artifacts: at the most loaded set a rim-influenced decision reaches
    seven cells inward, and it disappears when the cap alone is raised.
    """
    runs = []
    for alpha, beta, costs in AVERAGE_DP_SETS:
        graph, arrivals, cost_vec = n_model(alpha, beta, costs)
        space = TruncatedStateSpace(graph, cap=20, margin=9)
        start = time.monotonic()
        gain, vf, policy = relative_value_iteration(space, cost_vec, arrivals)
        elapsed = time.monotonic() - start
        shape = verify_policy_shape(space, policy, "threshold_n")
        params = NModelParams(alpha=alpha, beta=beta, costs=costs)
        runs.append(
            {
                "params": params,
                "gain": gain,
                "iterations": vf.iterations,
                "elapsed": elapsed,
                "shape": shape,
            }
        )
    return runs


def test_criterion_01_complete_graphs_match_everything():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    runs = 0
    for graph in (make_complete22(), make_complete32()):
        a = rng.uniform(0.2, 1.0, graph.n_d)
        b = rng.uniform(0.2, 1.0, graph.n_s)
        arrivals = ArrivalDistribution(alpha=a / a.sum(), beta=b / b.sum())
        costs = CostVector(
            demand=rng.uniform(0.1, 5.0, graph.n_d),
            supply=rng.uniform(0.1, 5.0, graph.n_s),
        )
        assert check_stability(graph, arrivals).stable
        space = TruncatedStateSpace(graph, cap=8, margin=2)
        _, disc_policy = value_iteration(
            space, costs, arrivals, DPConfig(theta=0.9)
        )
        _, _, avg_policy = relative_value_iteration(space, costs, arrivals)
        for policy in (disc_policy, avg_policy):
            shape = verify_policy_shape(space, policy, "full_match")
            assert shape.passed
            assert shape.violation_count == 0
            assert shape.checked > 0
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"full match on 100% of interior states in {runs} runs, "
              f"{elapsed:.1f}s (< 10 s)")


def test_criterion_02_n_graph_policies_are_single_threshold(average_dp_runs):
    for run in average_dp_runs:
        assert run["elapsed"] < 60.0
        shape = run["shape"]
        assert shape.passed
        assert shape.violation_count == 0
        assert shape.inferred.get("t") is not None
        assert shape.inferred["t"] != math.inf
    times = ", ".join(f"{run['elapsed']:.1f}s" for run in average_dp_runs)
    ts = [run["shape"].inferred["t"] for run in average_dp_runs]
    report(2, f"five runs inferred thresholds {ts}; times {times} (< 60 s each)")


def test_criterion_03_closed_form_threshold_equals_brute_force():
    rng = np.random.default_rng(3)
    cost_vectors = [tuple(rng.uniform(0.1, 10.0, 4)) for _ in range(5)]
    alphas = np.linspace(0.05, 0.95, 20)
    fractions = np.linspace(0.05, 0.95, 20)
    start = time.monotonic()
    checked = 0
    for alpha in alphas:
        for frac in fractions:
            beta = float(alpha * frac)
            for costs in cost_vectors:
                params = NModelParams(alpha=float(alpha), beta=beta, costs=costs)
                t_star = optimal_threshold(params)
                assert t_star >= 0
                brute = min(range(201), key=lambda t: average_cost(params, t))
                assert t_star == brute
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, f"{checked} grid points agree with the argmin over 0..200, "
              f"{elapsed:.1f}s (< 5 s)")


def test_criterion_04_dp_threshold_equals_closed_form(average_dp_runs):
    pairs = []
    for run in average_dp_runs:
        inferred = run["shape"].inferred["t"]
        closed = optimal_threshold(run["params"])
        assert inferred == closed
        pairs.append((inferred, closed))
    report(4, f"inferred vs closed-form thresholds {pairs}, all exact")


def test_criterion_05_level_frequencies_follow_geometric_law():
    graph, arrivals, costs = n_model(0.65, 0.35, (1.0, 6.0, 5.0, 2.0))
    params = NModelParams(alpha=0.65, beta=0.35, costs=(1.0, 6.0, 5.0, 2.0))
    t_star = optimal_threshold(params)
    cfg = SimConfig(
        horizon=10**6, burn_in=10**4, replications=10, seed=5
    )
    result = simulate(graph, arrivals, costs, ThresholdN(graph, t_star), cfg)
    assert result.level_freqs is not None
    width = len(result.level_freqs) + 5
    deviation = max(
        abs((result.level_freqs[i] if i < len(result.level_freqs) else 0.0)
            - level_probability(params, i))
        for i in range(width)
    )
    assert deviation < 0.01
    report(5, f"max level-frequency deviation {deviation:.2e} over {width} "
              f"levels (< 0.01), 10 replications of 1e6 steps")


def test_criterion_06_average_cost_formula_matches_simulation_and_dp():
    graph, arrivals, costs = n_model(0.65, 0.35, (1.0, 6.0, 5.0, 2.0))
    params = NModelParams(alpha=0.65, beta=0.35, costs=(1.0, 6.0, 5.0, 2.0))
    t_star = optimal_threshold(params)
    thresholds = sorted({0, 1, 2, 5, t_star})
    worst_z = 0.0
    for t in thresholds:
        cfg = SimConfig(
            horizon=10**6, burn_in=10**4, replications=5, seed=600 + t
        )
        result = simulate(graph, arrivals, costs, ThresholdN(graph, t), cfg)
        gap = abs(result.mean - average_cost(params, t))
        assert gap <= 3.0 * result.se
        worst_z = max(worst_z, gap / result.se)
    space = TruncatedStateSpace(graph, cap=40, margin=2)
    worst_gain_gap = 0.0
    for t in thresholds:
        gain, _ = evaluate_policy(
            space, ThresholdN(graph, t), costs, arrivals, mode="average"
        )
        worst_gain_gap = max(worst_gain_gap, abs(gain - average_cost(params, t)))
    assert worst_gain_gap <= 1e-3
    report(6, f"thresholds {thresholds}: worst sim gap {worst_z:.2f} SE "
              f"(<= 3), worst cap-40 gain gap {worst_gain_gap:.2e} (<= 1e-3)")


def test_criterion_07_value_iterates_keep_all_six_properties():
    graph = make_n_graph()
    lay = reference_layout(graph)
    space = TruncatedStateSpace(graph, cap=12, margin=6)
    arrivals = ArrivalDistribution(
        alpha=np.array([0.9, 0.1]), beta=np.array([0.1, 0.9])
    )
    costs = unit_costs(graph)
    table = np.zeros((len(space.balanced_states), space.n_atoms))
    worst = 0.0
    for sweep in range(200):
        table = bellman_backup(space, table, costs, arrivals, 0.95)
        reports = (
            check_increasing(space, table, (lay.d1, lay.s1_local)),
            check_increasing(space, table, (lay.d2, lay.s2_local)),
            check_increasing(space, table, (lay.d2, lay.s1_local)),
            check_convex(space, table, (lay.d1, lay.s2_local)),
            check_convex(space, table, (lay.d2, lay.s1_local)),
            check_boundary(space, table),
        )
        for prop in reports:
            assert prop.worst_violation <= 1e-9, (sweep, prop)
            assert prop.checked > 0
            worst = max(worst, prop.worst_violation)
    report(7, f"six checks on 200 discounted iterates (theta 0.95, cap 12): "
              f"worst violation {worst:.2e} (<= 1e-9)")


def test_criterion_08_workload_policy_wins_the_w_comparison():
    result = reproduce("w-counterexample")
    details = result.details
    assert result.passed
    assert details["steps"] == 10**6
    assert details["replications"] == 20
    assert details["paired difference"] < 0.0
    assert details["difference in SE units"] >= 3.0
    report(8, f"paired difference {details['paired difference']:.3f} "
              f"({details['difference in SE units']:.1f} SE, >= 3) over 20 "
              f"replications of 1e6 steps")


def test_criterion_09_acyclic_policy_saturates_extreme_edges():
    graph = MatchingGraph(
        demand_nodes=("d1", "d2"),
        supply_nodes=("s1", "s2", "s3"),
        edges=(("d1", "s1"), ("d1", "s2"), ("d2", "s2"), ("d2", "s3")),
    )
    arrivals = ArrivalDistribution(
        alpha=np.array([0.55, 0.45]), beta=np.array([0.3, 0.4, 0.3])
    )
    # Extreme nodes s1 and s3 cost at least their neighbors d1 and d2.
    costs = CostVector(
        demand=np.array([1.0, 1.0]), supply=np.array([3.0, 1.0, 3.0])
    )
    assert check_stability(graph, arrivals).stable
    space = TruncatedStateSpace(graph, cap=6, margin=2)
    _, _, policy = relative_value_iteration(space, costs, arrivals)
    shape = verify_policy_shape(space, policy, "priority_extreme")
    assert shape.passed
    assert shape.violation_count == 0
    assert shape.checked > 0
    report(9, f"extreme edges saturated on all {shape.checked} interior "
              f"states of the five-node acyclic graph at cap 6")


def test_criterion_10_solver_and_enumerator_match_brute_force():
    graph, arrivals, costs = n_model(0.6, 0.4, (1.0, 3.0, 2.0, 1.0))
    space = TruncatedStateSpace(graph, cap=3, margin=2)
    vf, _ = value_iteration(space, costs, arrivals, DPConfig(theta=0.9, tol=1e-12))
    # Both sides stop near the fixed point, whatever their iteration counts.
    dense = dense_zero(graph, cap=3)
    change = math.inf
    while change >= 1e-13:
        prev = dense
        dense = dense_backup(graph, arrivals, costs, cap=3, v=prev, theta=0.9)
        change = max(abs(dense[key] - prev[key]) for key in dense)
    sup = max(
        abs(vf.value(q, (a // graph.n_s, a % graph.n_s)) - val)
        for (q, a), val in dense.items()
    )
    assert sup <= 1e-9

    families = {
        "n": make_n_graph(),
        "w": make_w_graph(),
        "complete": make_complete22(),
        "nn": make_nn_graph(),
    }
    compared = 0
    for fam in families.values():
        for x in itertools.product(range(9), repeat=fam.n_nodes):
            if sum(x) > 8:
                continue
            got = [tuple(u) for u in admissible_matchings(fam, x)]
            assert got == brute_admissible(fam, x)
            compared += 1
    report(10, f"cap-3 value iteration within {sup:.2e} of the dense "
               f"reference (<= 1e-9); admissible sets equal on {compared} "
               f"vectors across {len(families)} graph families")
