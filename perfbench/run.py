"""matchdp benchmark: one workload, measured end to end or traced by layer.

Run from the root of a checkout (the directory holding ``BENCHMARK.json``
and ``src/matchdp``)::

    python3 perfbench/run.py --workload n-model --seed 20260825 --seconds 36 --trace 0
    python3 perfbench/run.py --workload nn-compare --seed 7 --seconds 36 --trace 1

Workloads are defined in ``perfbench/workloads.json`` and run through
matchdp's public API by ``perfbench/workload.py``.  The seed reaches the
program only as ``SimConfig.seed``; the DP inputs do not depend on it.

Load model: a closed loop with one caller.  Every pass is a fresh Python
process started with ``PYTHONPATH=src``, ``MATCHDP_THREADS`` unset, numpy's
BLAS pools at one thread and ``threads=1`` on every simulation call, and
the passes run one after another.

``--trace 0`` prints the end-to-end metrics.  It runs passes while another
pass of the median length still fits in ``--seconds`` (always at least one)
and reports the median of each metric over the passes.  Pass k uses seed
``seed + k``, so the median evens out both machine noise and the way the
simulated paths, and with them MaxWeight's work, depend on the seed.  ``setup_s`` is the
median of SETUP_SAMPLES processes: the passes, then set-up-only processes.

``--trace 1`` prints the per-layer metrics.  It runs one untraced pass,
followed outside its wall time by the probes (each simulated policy alone,
and ``FullMatch`` on the complete-full graph as the simulation floor), then
one traced pass.  ``trace.overhead_s`` is the traced pass's wall time minus
the untraced one's.  A metric whose call the pass could not make (the
workload has no such call, or the program no longer offers it) prints 0 and
is named on the ``absent:`` line.

Output checks; an operation fails when it raises or its check fails, and
an operation that needs a failed one fails unrun:

- n-model: the threshold inferred from the extracted policy equals
  ``optimal_threshold`` and the shape verdict passes; the DP gain and the
  evaluated gain of ``ThresholdN(t*)`` are within 1e-6 relative of
  ``average_cost(t*)``; the simulated mean is within 5 SE of it.
- w-model: the DP gain is within 1e-6 relative of 604.0538187048348, its
  value at the seed commit;
  ``ThresholdWWorkload`` beats ``ThresholdW`` by at least 3 paired SE.
- nn-compare: ``AcyclicHeuristic`` beats ``MaxWeight`` by at least 3 paired SE.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The script exits 2
without a result when the checkout has no ``src/matchdp``, and 1 when a
pass crashes or the run would overrun DEADLINE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("n-model", "w-model", "nn-compare")
DEFAULT_SEED = 20260825
MAX_SEED = 2**64
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
END_TO_END_KEYS = ("setup_s", "wall_s", "sim_steps_per_s", "peak_rss_mb")


class PassFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MATCHDP_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """One workload.py process; its last stdout line is the pass record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassFailed("no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {args} did not end before the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(
            f"pass {args} exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def counts(passes: list[dict]) -> tuple[int, int]:
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def median_of(passes: list[dict], key: str) -> float | None:
    values = [p[key] for p in passes if p.get(key) is not None]
    return statistics.median(values) if values else None


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    def args(k: int) -> list[str]:
        return ["--workload", workload, "--seed", str((seed + k) % MAX_SEED)]

    start = time.monotonic()
    passes = [run_child(args(0), deadline)]
    while True:
        took = statistics.median(p["setup_s"] + p["wall_s"] for p in passes)
        if time.monotonic() - start + took > seconds:
            break
        passes.append(run_child(args(len(passes)), deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(args(0) + ["--setup-only"], deadline)["setup_s"])
    values = {key: median_of(passes, key) for key in END_TO_END_KEYS}
    values["setup_s"] = statistics.median(setups)
    info = {
        "setup samples": len(setups),
        "passes": {key: [p[key] for p in passes] for key in END_TO_END_KEYS[1:]},
    }
    return passes, values, info


def per_layer(workload: str, seed: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    plain = run_child(base + ["--probes"], deadline)
    traced = run_child(base + ["--trace"], deadline)
    values = dict(traced["layers"])
    probes = {
        k: v
        for k, v in plain["layers"].items()
        if k.startswith(("simulate.steps_per_s.", "simulate.floor_"))
    }
    values.update(probes)
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    info = {
        "untraced wall_s": plain["wall_s"],
        "traced wall_s": traced["wall_s"],
        "spans": f"perfbench/out/trace-{workload}-{seed}.json",
    }
    return [plain, traced], values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "matchdp" / "__init__.py").is_file():
        print(f"no matchdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        if args.trace:
            passes, values, info = per_layer(args.workload, args.seed, deadline)
        else:
            passes, values, info = end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
    except PassFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = counts(passes)
    metrics, absent = {}, []
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None:
            absent.append(spec["name"])
            value = 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print("machine: " + json.dumps(passes[-1]["machine"]))
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("run: " + json.dumps(info))
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"FAILED {op['op']}: {op['error']}")
    print(f"fail_rate: {failed / attempted:g} ({failed} of {attempted} operations)")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print("absent: " + json.dumps(absent))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
