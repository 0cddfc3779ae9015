"""The package namespace: what ``import matchdp`` loads, and its public names."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import matchdp

DEFERRED = (
    "concurrent.futures",
    "csv",
    "matchdp.nshaped",
    "matchdp.solver",
    "matchdp.structure",
)
"""Modules a simulation-only run never needs: ``import matchdp`` loads none."""

PROBE = """
import importlib, json, sys
deferred = json.loads(sys.argv[1])
import matchdp
loaded = [m for m in deferred if m in sys.modules]
resolved = [
    name for name in matchdp.__all__
    if getattr(matchdp, name) is getattr(
        importlib.import_module(getattr(matchdp, name).__module__), name
    )
]
star = {}
exec("from matchdp import *", star)
try:
    matchdp.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "resolved": resolved,
    "star": sorted(set(star) - {"__builtins__"}),
    "unknown": unknown,
    "dir": sorted(set(matchdp.__all__) - set(dir(matchdp))),
}))
"""


def test_import_defers_the_solver_checks_closed_form_and_executors():
    env = dict(os.environ, PYTHONPATH=str(Path(matchdp.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(DEFERRED)],
        capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["resolved"] == matchdp.__all__
    assert out["star"] == sorted(matchdp.__all__)
    assert out["unknown"] == "module 'matchdp' has no attribute 'no_such_name'"
    assert out["dir"] == []



OFF_THE_TIMED_PATH = ("numpy.ma", "concurrent.futures", "logging")
"""Modules a serial simulation, a solve and its checks never need."""

TIMED_PATH = """
import importlib, json, sys
import numpy as np
import matchdp as md
off_path, threads = json.loads(sys.argv[1]), int(sys.argv[2])
importlib.import_module("matchdp.simulate").CHUNK_STEPS = 64
graph = md.MatchingGraph(
    ("d1", "d2"), ("s1", "s2"), (("d1", "s1"), ("d1", "s2"), ("d2", "s2"))
)
arrivals = md.ArrivalDistribution(alpha=np.array([0.6, 0.4]), beta=np.array([0.4, 0.6]))
costs = md.CostVector(demand=np.array([1.0, 3.0]), supply=np.array([2.0, 1.0]))
cfg = md.SimConfig(horizon=1000, burn_in=100, replications=2, seed=5)
policies = [md.ThresholdN(graph, 0), md.ThresholdN(graph, 2)]
records = [
    md.simulate(graph, arrivals, costs, policies[1], cfg, threads=threads).to_record(),
    md.compare(graph, arrivals, costs, policies, cfg, threads=threads).to_record(),
]
space = md.TruncatedStateSpace(graph, cap=8)
_, vf, _ = md.relative_value_iteration(space, costs, arrivals, extract=False)
policy = md.extract_policy(space, vf.data, arrivals)
passed = md.verify_policy_shape(space, policy, "threshold_n").passed
md.evaluate_policy(space, md.ThresholdN(graph, 1), costs, arrivals, mode="average")
print(json.dumps({
    "loaded": [m for m in off_path if m in sys.modules],
    "passed": passed,
    "records": records,
}))
"""


def run_timed_path(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(matchdp.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_PATH, json.dumps(OFF_THE_TIMED_PATH), str(threads)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_the_timed_path_loads_no_masked_arrays_executor_or_logging():
    serial = run_timed_path(1)
    assert serial["loaded"] == []
    assert serial["passed"]
    # A pool loads its executor, and gives the same records.
    assert run_timed_path(2)["records"] == serial["records"]
