"""Closed-form steady-state analysis of the N graph under threshold rules.

Under a finite threshold t the post-match queue performs a birth-death walk
on levels i = 0, 1, 2, ... where level i corresponds to the queue s_i:
(t - i, 0, 0, t - i) while i <= t (d1 surplus waiting) and
(0, i - t, i - t, 0) beyond (the unmatchable diagonal).  An arrival of the
(d2, s1) pair moves one level up, the flexible (d1, s2) pair one level down,
and same-class pairs stay put.  With rho the up/down rate ratio the
stationary law is geometric, which gives the average cost f(t) in closed
form and a closed-form continuous minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import Unstable
from .graphs import ArrivalDistribution, CostVector, MatchingGraph, _check_sizes, _integer
from .states import n_layout

RHO_FORMULA_LIMIT = 0.999

ATOMS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class NModelParams:
    """N model primitives: arrival split probabilities and the four costs.

    ``alpha`` is the probability an arriving demand item is of the flexible
    class d1, ``beta`` the probability an arriving supply item is of the
    rigid class s1.  ``costs`` orders holding rates as (d1, d2, s1, s2).
    """

    alpha: float
    beta: float
    costs: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ValueError("alpha and beta must lie strictly inside (0, 1)")
        costs = tuple(float(c) for c in self.costs)
        if len(costs) != 4:
            raise ValueError("costs must be the four rates (d1, d2, s1, s2)")
        if not all(math.isfinite(c) for c in costs):
            raise ValueError("costs must be finite")
        if any(c < 0 for c in costs):
            raise ValueError("costs must be nonnegative")
        if costs[0] + costs[3] <= 0:
            raise ValueError("c_d1 + c_s2 must be positive")
        object.__setattr__(self, "costs", costs)

    @classmethod
    def from_graph(
        cls,
        graph: MatchingGraph,
        arrivals: ArrivalDistribution,
        costs: CostVector,
    ) -> "NModelParams":
        lay = n_layout(graph)
        _check_sizes(graph, arrivals, costs)
        return cls(
            alpha=float(arrivals.alpha[lay.d1]),
            beta=float(arrivals.beta[lay.s1_local]),
            costs=(
                float(costs.demand[lay.d1]),
                float(costs.demand[lay.d2]),
                float(costs.supply[lay.s1_local]),
                float(costs.supply[lay.s2_local]),
            ),
        )

    @property
    def rho(self) -> float:
        """Up/down ratio of the level walk; below 1 exactly when stable."""
        return self.beta * (1.0 - self.alpha) / (self.alpha * (1.0 - self.beta))

    @property
    def stable(self) -> bool:
        return self.alpha > self.beta

    @property
    def cost_ratio(self) -> float:
        """Diagonal-to-antidiagonal cost ratio (c_s1 + c_d2) / (c_d1 + c_s2)."""
        c_d1, c_d2, c_s1, c_s2 = self.costs
        return (c_s1 + c_d2) / (c_d1 + c_s2)

    def atom_probability(self, atom: tuple[int, int]) -> float:
        """Probability of the arrival pair (i, j) with 0 = the flexible class."""
        i, j = atom
        if (i, j) not in ATOMS:
            raise ValueError(f"arrival atom must be one of {ATOMS}, got {atom!r}")
        p_d = self.alpha if i == 0 else 1.0 - self.alpha
        p_s = self.beta if j == 0 else 1.0 - self.beta
        return p_d * p_s

    def expected_arrival_cost(self) -> float:
        c_d1, c_d2, c_s1, c_s2 = self.costs
        out = 0.0
        for i, j in ATOMS:
            c = (c_d1 if i == 0 else c_d2) + (c_s1 if j == 0 else c_s2)
            out += self.atom_probability((i, j)) * c
        return out

    def _require_stable(self) -> None:
        if not self.stable:
            raise Unstable(
                f"N model needs alpha > beta, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )


def level_of_state(t: int, q: Sequence[int]) -> int | None:
    """Level of a queue vector, or None when it is off the threshold track."""
    d1, d2, s1, s2 = (int(v) for v in q)
    if d2 == 0 and s1 == 0 and d1 == s2 and d1 <= t:
        return t - d1
    if d1 == 0 and s2 == 0 and d2 == s1 and d2 > 0:
        return t + d2
    return None


def level_probability(params: NModelParams, i: int) -> float:
    """Stationary probability of level i: geometric with ratio rho."""
    params._require_stable()
    if i < 0:
        raise ValueError("level must be nonnegative")
    rho = params.rho
    return (1.0 - rho) * rho**i


def average_cost(params: NModelParams, t: int) -> float:
    """Long-run average holding cost of the threshold-t rule.

    Sums c(s_i + A) over the geometric stationary law.  The level part
    contributes linearly in t plus a geometric boundary correction; the
    arrival part contributes its expectation.
    """
    params._require_stable()
    t = _integer("threshold", t)
    if t < 0:
        raise ValueError(f"threshold must be a finite nonnegative integer, got {t!r}")
    c_d1, c_d2, c_s1, c_s2 = params.costs
    rho = params.rho
    down = c_d1 + c_s2
    total = c_d1 + c_d2 + c_s1 + c_s2
    geo = rho / (1.0 - rho)
    return (
        down * t
        + total * rho**t * geo
        - down * geo
        + params.expected_arrival_cost()
    )


def threshold_location(params: NModelParams) -> float:
    """Continuous minimizer of the average cost in the threshold.

    Setting the derivative of f to zero gives
    rho^(k+1) = (rho - 1) / ((1 + R) log rho) with R the cost ratio; the
    result can be negative, meaning the discrete optimum is zero.
    """
    params._require_stable()
    rho = params.rho
    log_rho = math.log(rho)
    ratio = (rho - 1.0) / ((1.0 + params.cost_ratio) * log_rho)
    return math.log(ratio) / log_rho - 1.0


def _first_rise(params: NModelParams) -> int:
    """Smallest t with f(t + 1) > f(t), found by doubling then bisection.

    f is convex in t, so that t is the argmin (the larger one on ties).
    """

    def rises(t: int) -> bool:
        return average_cost(params, t + 1) > average_cost(params, t)

    lo, hi = 0, 1
    while not rises(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if rises(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def optimal_threshold(params: NModelParams) -> int:
    """Discrete threshold minimizing the average cost.

    Rounds the continuous minimizer, comparing f at the floor and ceiling
    (preferring the ceiling on ties) with both candidates clamped at zero.
    Very heavy traffic (rho above 0.999) searches the integers directly for
    the first rise of the convex f, with no upper bound, because the
    logarithm ratio of the continuous minimizer is ill-conditioned as rho
    approaches 1.
    """
    params._require_stable()
    if params.rho > RHO_FORMULA_LIMIT:
        return _first_rise(params)
    k = threshold_location(params)
    lo = max(0, math.floor(k))
    hi = max(0, math.ceil(k))
    if hi == lo:
        return lo
    return hi if average_cost(params, hi) <= average_cost(params, lo) else lo
