"""Walk through the N-graph threshold story end to end.

The N graph has one flexible demand class d1 (compatible with both supply
classes) and one rigid pair (d2, s2 only via s2; s1 only via d1).  Under
a stable arrival split the long-run optimal policy matches the rigid
pairs greedily and rations the flexible edge (d1, s2) with a single
threshold on the s2 queue.  This script computes the optimal threshold in
closed form, recovers the same rule by average-cost dynamic programming,
and confirms the predicted cost rate by simulation.

Run with: python3 demos/n_model_threshold.py
"""

from __future__ import annotations

import numpy as np

from matchdp import (
    ArrivalDistribution,
    CostVector,
    MatchingGraph,
    NModelParams,
    SimConfig,
    ThresholdN,
    TruncatedStateSpace,
    average_cost,
    optimal_threshold,
    relative_value_iteration,
    simulate,
    threshold_location,
    verify_policy_shape,
)


def main() -> None:
    alpha, beta = 0.60, 0.40
    costs = (1.0, 5.0, 5.0, 1.0)

    graph = MatchingGraph(
        demand_nodes=("d1", "d2"),
        supply_nodes=("s1", "s2"),
        edges=(("d1", "s1"), ("d1", "s2"), ("d2", "s2")),
    )
    arrivals = ArrivalDistribution(
        alpha=np.array([alpha, 1.0 - alpha]), beta=np.array([beta, 1.0 - beta])
    )
    cost_vec = CostVector(demand=np.array(costs[:2]), supply=np.array(costs[2:]))

    params = NModelParams(alpha=alpha, beta=beta, costs=costs)
    t_star = optimal_threshold(params)
    print(f"arrival split: alpha={alpha}, beta={beta} (traffic rho={params.rho:.4f})")
    print(f"holding costs (d1, d2, s1, s2): {costs}")
    print(f"continuous minimizer k: {threshold_location(params):.4f}")
    print(f"optimal integer threshold t*: {t_star}")
    print(f"predicted cost rate f(t*): {average_cost(params, t_star):.6f}")

    print("\nsolving the truncated average-cost MDP at cap 20 ...")
    space = TruncatedStateSpace(graph, cap=20, margin=9)
    gain, vf, policy = relative_value_iteration(space, cost_vec, arrivals)
    print(f"converged in {vf.iterations} backups, gain {gain:.6f}")

    shape = verify_policy_shape(space, policy, "threshold_n")
    print(f"policy shape: passed={shape.passed}, inferred threshold "
          f"{shape.inferred['t']} on {shape.checked} interior states")

    print("\nsimulating ThresholdN(t*) for 5 replications of 1000000 steps ...")
    cfg = SimConfig(horizon=1_000_000, burn_in=10_000, replications=5, seed=42)
    result = simulate(graph, arrivals, cost_vec, ThresholdN(graph, t_star), cfg)
    print(f"simulated cost rate: {result.mean:.4f} +- {result.se:.4f} "
          f"(closed form {average_cost(params, t_star):.4f})")


if __name__ == "__main__":
    main()
