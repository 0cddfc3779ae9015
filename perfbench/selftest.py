"""Tests of the benchmark itself, at reduced sizes so they run in seconds.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import matchdp as md  # noqa: E402
from matchdp.states import arrival_vector  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260825
COUNTS = (
    "solver.sweeps",
    "solver.extract_states",
    "structure.verify_checked",
    "states.matchings_per_decide",
)


def small_spec() -> dict:
    spec = copy.deepcopy(workload.load_spec())
    w = spec["workloads"]
    w["n-model"]["dp"] = {"cap": 12, "margin": 4}
    w["n-model"]["sim"] = {"horizon": 20000, "burn_in": 1000, "replications": 4}
    w["w-model"]["dp"] = {"cap": 5, "margin": 1}
    w["w-model"]["sim"] = {"horizon": 20000, "burn_in": 0, "replications": 3}
    w["nn-compare"]["sim"] = {"horizon": 2000, "burn_in": 200, "replications": 3}
    return spec


def failed_ops(record: dict) -> dict:
    return {op["op"]: op["error"] for op in record["ops"] if not op["ok"]}


def assert_end_to_end_reported(record: dict) -> None:
    for key in run.END_TO_END_KEYS:
        assert record[key] is not None and record[key] > 0, key


def test_injected_raise_is_counted_and_other_metrics_still_reported(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(md, "evaluate_policy", broken)
    record = workload.run_pass("n-model", SEED, spec=small_spec())
    assert failed_ops(record) == {"solver.evaluate": "RuntimeError('injected')"}
    assert run.counts([record]) == (6, 1)
    assert_end_to_end_reported(record)
    assert "solver.evaluate_sweeps" not in record["layers"]
    assert record["layers"]["solver.sweeps"] > 0


def test_injected_check_failure_is_counted(monkeypatch):
    real = md.simulate

    def off_by_a_lot(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, mean=result.mean + 100.0)

    monkeypatch.setattr(md, "simulate", off_by_a_lot)
    record = workload.run_pass("n-model", SEED, spec=small_spec())
    assert failed_ops(record) == {"simulate.simulate": "check failed"}
    assert run.counts([record]) == (6, 1)
    assert_end_to_end_reported(record)


def test_failed_input_skips_dependent_operations(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(md, "relative_value_iteration", broken)
    record = workload.run_pass("w-model", SEED, spec=small_spec())
    assert set(failed_ops(record)) == {"solver.solve", "solver.extract"}
    assert failed_ops(record)["solver.extract"].startswith("skipped")
    assert_end_to_end_reported(record)


@pytest.mark.parametrize("name", ["n-model", "w-model", "nn-compare"])
def test_counts_repeat_exactly(name):
    spec = small_spec()
    first = workload.run_pass(name, SEED, trace=True, spec=spec)["layers"]
    second = workload.run_pass(name, SEED, trace=True, spec=spec)["layers"]
    keys = [k for k in first if k in COUNTS or k.startswith("policies.decide_calls.")]
    assert keys
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    if name == "nn-compare":
        assert first["policies.decide_calls.max_weight"] == 3 * 2000
        assert first["states.matchings_per_decide"] > 1


def test_removed_call_is_reported_absent(monkeypatch):
    monkeypatch.delattr(workload.md_policies, "admissible_matchings")
    record = workload.run_pass("nn-compare", SEED, trace=True, spec=small_spec())
    assert "states.matchings_per_decide" not in record["layers"]
    assert "simulate.compare" in failed_ops(record)


def test_recorded_sizes_match_the_library():
    spec = workload.load_spec()
    for name, w in spec["workloads"].items():
        sizes = w["sizes"]
        sim = w["sim"]
        steps = f"{sim['horizon']} x {sim['replications']} x {len(w.get('policies', [])) or 1}"
        assert sizes["sim_policy_steps"] == steps
        if w["dp"] is None:
            continue
        graph, _, _ = md.load_graph(spec["graphs"][w["graph"]])
        space = md.TruncatedStateSpace(graph, **w["dp"])
        post = {
            tuple(q + arrival_vector(graph, i, j))
            for q in space.interior_balanced_states
            for i, j in graph.arrival_atoms
        }
        assert sizes["box_cells"] == (w["dp"]["cap"] + 1) ** graph.n_nodes
        assert sizes["balanced_states"] == len(space.balanced_states)
        assert sizes["interior_post_arrival_states"] == len(post)


def test_benchmark_file_matches_the_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = workload.load_spec()
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == spec["workloads"][w["name"]]["why"]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_KEYS)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "n-model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
