"""The benchmark's three simulation runs, pinned record for record.

The exact checks elsewhere run short chains: the command line goldens walk
a few thousand steps, where every chain stays at one arrival per lookup,
and the kernel tests force their strides on small runs.  These are the
runs of the benchmark workloads at full size, where the stride rule itself
picks the multi-step walk (4 arrivals per lookup on the N graph, 2 on the
W graph) and the one-step walk on the NN graph.  The graphs and configs
are copied here, so a change to the benchmark does not move this test.

Each run's ``to_record()`` at two seeds must equal ``golden/bench_sims.json``
exactly.  Regenerate it with ``PYTHONPATH=src python
tests/test_bench_golden.py`` only after a change that is meant to move
simulation output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from matchdp import (
    NModelParams,
    SimConfig,
    compare,
    load_graph,
    optimal_threshold,
    policy_from_spec,
    simulate,
)
from matchdp.policies import ThresholdN

GOLDEN = Path(__file__).parent / "golden" / "bench_sims.json"

SEEDS = (20260825, 3)

GRAPHS = {
    "n-model": {
        "demand": ["d1", "d2"],
        "supply": ["s1", "s2"],
        "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s2"]],
        "alpha": [0.65, 0.35],
        "beta": [0.35, 0.65],
        "costs": {"d1": 1.0, "d2": 6.0, "s1": 5.0, "s2": 2.0},
    },
    "w-model": {
        "demand": ["d1", "d2", "d3"],
        "supply": ["s1", "s2"],
        "edges": [["d1", "s1"], ["d2", "s1"], ["d2", "s2"], ["d3", "s2"]],
        "alpha": [0.4, 0.35, 0.25],
        "beta": [0.5, 0.5],
        "costs": {"d1": 10.0, "d2": 10.0, "d3": 1.0, "s1": 1.0, "s2": 1000.0},
    },
    "nn-compare": {
        "demand": ["d1", "d2", "d3"],
        "supply": ["s1", "s2", "s3"],
        "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s2"], ["d2", "s3"], ["d3", "s3"]],
        "alpha": [0.5, 0.3333333333333333, 0.16666666666666666],
        "beta": [0.30333333333333334, 0.47, 0.22666666666666666],
        "costs": {"d1": 1.0, "d2": 2.0, "d3": 3.0, "s1": 1.0, "s2": 2.0, "s3": 3.0},
    },
}

POLICIES = {
    "w-model": [
        {"type": "threshold_w_workload", "t21": 14, "t32": 0},
        {"type": "threshold_w", "t21": 11, "t22": 0},
    ],
    "nn-compare": [
        {"type": "acyclic_heuristic", "thresholds": {"s3": 1}},
        {"type": "max_weight"},
    ],
}

RUNS = {
    "n-model": {"horizon": 500_000, "burn_in": 10_000, "replications": 16},
    "w-model": {"horizon": 500_000, "burn_in": 0, "replications": 4},
    "nn-compare": {"horizon": 15_000, "burn_in": 2_500, "replications": 6},
}


def record(name: str, seed: int) -> dict:
    """The run's ``to_record()``, as it reads back from JSON."""
    graph, arrivals, costs = load_graph(GRAPHS[name])
    cfg = SimConfig(seed=seed, **RUNS[name])
    if name == "n-model":
        t = optimal_threshold(NModelParams.from_graph(graph, arrivals, costs))
        result = simulate(graph, arrivals, costs, ThresholdN(graph, t), cfg, threads=1)
    else:
        policies = [policy_from_spec(graph, spec, costs) for spec in POLICIES[name]]
        result = compare(graph, arrivals, costs, policies, cfg, threads=1)
    return json.loads(json.dumps(result.to_record()))


def _case_id(name: str, seed: int) -> str:
    return f"{name}[seed={seed}]"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(RUNS))
def test_bench_run_matches_golden(name, seed, golden):
    assert record(name, seed) == golden[_case_id(name, seed)]


if __name__ == "__main__":
    records = {_case_id(n, s): record(n, s) for n in RUNS for s in SEEDS}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
