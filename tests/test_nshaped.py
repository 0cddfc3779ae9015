"""Closed-form N model: stationary law, average cost, optimal threshold."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from matchdp.errors import Unstable
from matchdp.graphs import ArrivalDistribution, CostVector
from matchdp.nshaped import (
    ATOMS,
    NModelParams,
    average_cost,
    level_of_state,
    level_probability,
    optimal_threshold,
    threshold_location,
)
from matchdp.policies import ThresholdN
from matchdp.states import arrival_vector, node_usage

from conftest import OTHER_SIZES, make_n_graph, n_inputs

BASE = NModelParams(alpha=0.6, beta=0.4, costs=(1.0, 1.0, 1.0, 1.0))
SKEWED = NModelParams(alpha=0.55, beta=0.45, costs=(1.0, 10.0, 8.0, 2.0))


def level_state(t: int, i: int) -> np.ndarray:
    """Queue vector of level i under threshold t, N coordinates (d1, d2, s1, s2)."""
    if i <= t:
        return np.array([t - i, 0, 0, t - i], dtype=np.int64)
    return np.array([0, i - t, i - t, 0], dtype=np.int64)


def series_average_cost(params: NModelParams, t: int) -> float:
    """Independent evaluation of f(t) by summing the stationary series."""
    rho = params.rho
    c = np.asarray(params.costs)
    total = 0.0
    weight = 1.0 - rho
    i = 0
    while weight * (i + t + 4) * (c.max() + 1) > 1e-17:
        s = level_state(t, i)
        for atom in ATOMS:
            e = np.zeros(4)
            e[atom[0]] += 1
            e[2 + atom[1]] += 1
            total += weight * params.atom_probability(atom) * float(c @ (s + e))
        weight *= rho
        i += 1
        if i > 10**6:
            raise RuntimeError("series did not converge")
    return total


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_params_reject_non_finite_costs(bad):
    with pytest.raises(ValueError, match="finite"):
        NModelParams(alpha=0.6, beta=0.4, costs=(bad, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        NModelParams(alpha=0.6, beta=0.4, costs=(1.0, 1.0, 1.0, bad))


def test_params_validation():
    with pytest.raises(ValueError):
        NModelParams(alpha=0.0, beta=0.4, costs=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        NModelParams(alpha=0.6, beta=1.0, costs=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        NModelParams(alpha=0.6, beta=0.4, costs=(1, 1, 1))
    with pytest.raises(ValueError):
        NModelParams(alpha=0.6, beta=0.4, costs=(-1, 1, 1, 1))
    with pytest.raises(ValueError):
        NModelParams(alpha=0.6, beta=0.4, costs=(0, 5, 5, 0))


def test_params_from_graph_roles():
    g = make_n_graph()
    arr = ArrivalDistribution(alpha=[0.6, 0.4], beta=[0.4, 0.6])
    costs = CostVector.from_mapping(g, {"d1": 1, "d2": 2, "s1": 3, "s2": 4})
    params = NModelParams.from_graph(g, arr, costs)
    assert params.alpha == 0.6
    assert params.beta == 0.4
    assert params.costs == (1.0, 2.0, 3.0, 4.0)


def test_rho_value():
    assert BASE.rho == pytest.approx(4 / 9, abs=1e-15)
    assert BASE.stable
    assert not NModelParams(alpha=0.4, beta=0.4, costs=(1, 1, 1, 1)).stable


def test_atom_probabilities_sum_to_one():
    total = sum(BASE.atom_probability(a) for a in ATOMS)
    assert total == pytest.approx(1.0, abs=1e-15)
    assert BASE.atom_probability((1, 0)) == pytest.approx(0.4 * 0.4)
    with pytest.raises(ValueError):
        BASE.atom_probability((2, 0))


def test_level_state_round_trip():
    for t in (0, 1, 3, 7):
        for i in range(2 * t + 6):
            q = level_state(t, i)
            assert q.sum() % 2 == 0
            assert level_of_state(t, q) == i


def test_level_of_state_off_track():
    assert level_of_state(3, [1, 1, 1, 1]) is None
    assert level_of_state(3, [5, 0, 0, 5]) is None  # above the threshold cap
    assert level_of_state(3, [0, 0, 0, 0]) == 3


def test_level_law_normalizes():
    total = sum(level_probability(BASE, i) for i in range(400))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_level_moves_match_threshold_policy():
    """The level walk is exactly what ThresholdN induces on track states."""
    g = make_n_graph()
    t = 3
    pol = ThresholdN(g, t)
    for i in range(9):
        q = level_state(t, i)
        for (di, sj), move in (
            ((1, 0), +1),   # rigid pair arrival climbs
            ((0, 1), -1),   # flexible pair arrival descends
            ((0, 0), 0),
            ((1, 1), 0),
        ):
            x = q + arrival_vector(g, di, sj)
            q_next = x - node_usage(g, pol.decide(x))
            expected = max(i + move, 0) if move < 0 else i + move
            if i == 0 and move < 0:
                expected = 0
            assert level_of_state(t, q_next) == expected, (i, di, sj)


def test_average_cost_matches_series():
    for params in (BASE, SKEWED, NModelParams(0.7, 0.3, (2, 3, 1, 2))):
        for t in (0, 1, 2, 5, 9):
            assert average_cost(params, t) == pytest.approx(
                series_average_cost(params, t), abs=1e-11
            )


def exact_average_cost(params: NModelParams, t: int) -> Fraction:
    """f(t) in exact rational arithmetic on the float inputs.

    The level L is geometric on {0, 1, ...} with ratio rho, so
    E[(L - t)^+] = rho^(t+1) / (1 - rho) and E[(t - L)^+] = t - E[L] +
    E[(L - t)^+]; levels below t hold the antidiagonal pair (d1, s2), levels
    above it the diagonal pair (d2, s1).
    """
    alpha, beta = Fraction(params.alpha), Fraction(params.beta)
    c_d1, c_d2, c_s1, c_s2 = (Fraction(c) for c in params.costs)
    rho = beta * (1 - alpha) / (alpha * (1 - beta))
    above = rho ** (t + 1) / (1 - rho)
    below = t - rho / (1 - rho) + above
    arrival = alpha * c_d1 + (1 - alpha) * c_d2 + beta * c_s1 + (1 - beta) * c_s2
    return (c_d1 + c_s2) * below + (c_d2 + c_s1) * above + arrival


def test_average_cost_matches_exact_arithmetic_in_heavy_traffic():
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        for costs in ((1, 1, 1, 1), (1, 2, 2, 1), (1, 6, 5, 2), (3, 1, 1, 3)):
            params = NModelParams(alpha=0.5 + eps, beta=0.5, costs=costs)
            t_star = optimal_threshold(params)
            near = (t_star - 1, t_star, t_star + 1, 2 * t_star + 5)
            for t in sorted({0, *(t for t in near if t >= 0)}):
                exact = exact_average_cost(params, t)
                error = abs(Fraction(average_cost(params, t)) - exact) / exact
                assert error <= Fraction(1, 10**12), (eps, costs, t, float(error))


def test_average_cost_frozen_values():
    # rho = 4/9 with unit costs: f(t) = 2t + 3.2 (4/9)^t + 0.4.
    assert average_cost(BASE, 0) == pytest.approx(3.6, abs=1e-12)
    assert average_cost(BASE, 1) == pytest.approx(3.8222222222222224, abs=1e-12)


def test_average_cost_convex_and_eventually_linear():
    for params in (BASE, SKEWED):
        f = [average_cost(params, t) for t in range(101)]
        second = np.diff(f, 2)
        assert np.all(second >= -1e-12)
        down = params.costs[0] + params.costs[3]
        assert f[100] - f[99] == pytest.approx(down, abs=1e-8)


def test_threshold_location_solves_first_order_condition():
    for params in (BASE, SKEWED):
        k = threshold_location(params)
        rho = params.rho
        lhs = rho ** (k + 1)
        rhs = (rho - 1.0) / ((1.0 + params.cost_ratio) * math.log(rho))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_optimal_threshold_examples():
    assert optimal_threshold(BASE) == 0
    assert optimal_threshold(SKEWED) == 4
    # Very light traffic pushes the continuous minimizer negative.
    light = NModelParams(alpha=0.95, beta=0.05, costs=(1, 1, 1, 1))
    assert threshold_location(light) < 0
    assert optimal_threshold(light) == 0


def test_optimal_threshold_is_discrete_argmin():
    rng = np.random.default_rng(11)
    for _ in range(60):
        alpha = float(rng.uniform(0.2, 0.9))
        beta = float(rng.uniform(0.02, alpha * 0.92))
        costs = tuple(rng.uniform(0.2, 10.0, size=4))
        params = NModelParams(alpha=alpha, beta=beta, costs=costs)
        if params.rho > 0.95:
            continue
        t_star = optimal_threshold(params)
        values = [average_cost(params, t) for t in range(120)]
        assert values[t_star] == pytest.approx(min(values), abs=1e-12)


def test_heavy_traffic_falls_back_to_brute_force():
    # The argmins (1732 and 2746) lie far beyond any fixed search range.
    for costs in [(1, 1, 1, 1), (1, 2, 2, 1)]:
        params = NModelParams(alpha=0.5001, beta=0.5, costs=costs)
        assert params.rho > 0.999
        t_star = optimal_threshold(params)
        k = threshold_location(params)
        window = range(max(0, math.floor(k) - 100), math.ceil(k) + 101)
        assert t_star in window
        values = {t: average_cost(params, t) for t in window}
        assert values[t_star] == min(values.values())


def test_unstable_params_raise():
    bad = NModelParams(alpha=0.4, beta=0.6, costs=(1, 1, 1, 1))
    for call in (
        lambda: average_cost(bad, 1),
        lambda: optimal_threshold(bad),
        lambda: level_probability(bad, 0),
    ):
        with pytest.raises(Unstable):
            call()


@pytest.mark.parametrize("field, entries, message", OTHER_SIZES)
def test_from_graph_rejects_inputs_sized_for_another_graph(field, entries, message):
    arrivals, costs = n_inputs(field, entries)
    with pytest.raises(ValueError, match=message):
        NModelParams.from_graph(make_n_graph(), arrivals, costs)


@pytest.mark.parametrize("t", [True, 1.0, 2.5, math.inf])
def test_average_cost_takes_integer_thresholds_only(t):
    with pytest.raises(ValueError, match=f"threshold must be an integer, got {t}"):
        average_cost(BASE, t)
    assert average_cost(BASE, np.int64(1)) == average_cost(BASE, 1)
