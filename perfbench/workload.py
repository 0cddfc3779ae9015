"""One pass of a matchdp benchmark workload, in a process of its own.

Run from the repository root with ``src`` on PYTHONPATH::

    python3 perfbench/workload.py --workload n-model --seed 20260825
    python3 perfbench/workload.py --workload nn-compare --seed 7 --trace
    python3 perfbench/workload.py --workload w-model --seed 7 --probes
    python3 perfbench/workload.py --workload w-model --seed 7 --setup-only

The last stdout line is one JSON object: set-up and wall time, simulation
throughput, peak RSS, the outcome of every operation and its output check,
the per-layer figures this pass could measure, and a machine block.
``run.py`` starts one such process per pass, so every pass pays its own
imports and set-up, as a user's first call does.

Spans are recorded around the benchmark's own calls into each matchdp
module and are kept in memory.  ``--trace`` additionally wraps each policy
instance's ``decide`` and the ``admissible_matchings`` name that
``matchdp.policies`` calls, records memory peaks around the solver and
simulation calls, and writes the spans to ``perfbench/out`` once the pass
has ended.  ``--probes`` adds untraced single-policy simulations and the
simulation floor after the pass, outside its wall time.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before matchdp loads

import argparse
import json
import math
import os
import platform
import resource
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import matchdp as md
from matchdp import policies as md_policies

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE / "workloads.json"
OUT_DIR = HERE / "out"
MIB = 2.0**20
PAGE = os.sysconf("SC_PAGE_SIZE")

# Tolerances of the output checks; see run.py's docstring for the list.
GAIN_RTOL = 1e-6
SIM_SE_LIMIT = 5.0
PAIRED_SE_LIMIT = 3.0


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def machine_block() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
    }


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * PAGE


class _RssPeak:
    """Highest resident-set growth over a block, sampled every 2 ms."""

    def __init__(self):
        self._base = self._peak = _rss_bytes()
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._done.wait(0.002):
            self._peak = max(self._peak, _rss_bytes())

    def stop(self) -> int:
        self._done.set()
        self._thread.join()
        return max(self._peak, _rss_bytes()) - self._base


def _policy_key(policy) -> str:
    return policy.spec_dict()["type"]


class Pass:
    """Spans, operation outcomes and call counters of one workload pass."""

    def __init__(self, run_id: str, trace: bool):
        self.run_id = run_id
        self.trace = trace
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self.completed: set[str] = set()
        self.mem_peak: dict[str, int] = {}
        # policy key -> [decide calls, decide seconds, matchings yielded]
        self.calls: dict[str, list] = {}
        self._stack: list[int] = []
        self._policy: str | None = None

    @contextmanager
    def span(self, name: str, memory: str | None = None):
        """Time a block; in a traced pass also record its memory peak.

        ``memory="alloc"`` takes the tracemalloc peak, which suits numpy-heavy
        calls.  ``memory="rss"`` samples resident-set growth from a thread
        instead, because tracemalloc hooks every Python object allocation
        and slows the pure-Python simulation kernels about 30-fold.
        """
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "run": self.run_id})
        self._stack.append(idx)
        watch = _RssPeak() if memory == "rss" and self.trace else None
        if memory == "alloc" and self.trace:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if watch is not None:
                self.mem_peak[name] = watch.stop()
            elif memory == "alloc" and self.trace:
                self.mem_peak[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
            self.spans[idx].update(start=start - T0, end=end - T0)

    def seconds(self, name: str) -> float | None:
        found = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return sum(found) if found else None

    def op(self, name, fn, check, *, needs=(), memory=None):
        """Run one operation under a span and record whether its output passed.

        Returns the operation's result, or None when it raised, failed its
        check, or could not run because an operation it needs failed.
        """
        if any(dep is None for dep in needs):
            self.ops.append({"op": name, "ok": False, "error": "skipped: input failed"})
            return None
        try:
            with self.span(name, memory=memory):
                result = fn()
            self.completed.add(name)
            ok = bool(check(result))
        except Exception as exc:  # a failed operation is counted, not fatal
            self.ops.append({"op": name, "ok": False, "error": repr(exc)})
            return None
        self.ops.append({"op": name, "ok": ok, "error": None if ok else "check failed"})
        return result if ok else None

    def watch(self, policy):
        """Count and time calls to this policy instance's ``decide``."""
        if not self.trace:
            return policy
        key = _policy_key(policy)
        stats = self.calls.setdefault(key, [0, 0.0, 0])
        inner = policy.decide

        def decide(x):
            outer, self._policy = self._policy, key
            start = time.perf_counter()
            try:
                return inner(x)
            finally:
                stats[1] += time.perf_counter() - start
                stats[0] += 1
                self._policy = outer

        policy.decide = decide
        return policy

    @contextmanager
    def counting_matchings(self):
        """Count matchings yielded to policies through ``admissible_matchings``."""
        original = getattr(md_policies, "admissible_matchings", None)
        if not self.trace or original is None:
            yield
            return

        def counted(*args, **kwargs):
            stats = self.calls.setdefault(self._policy or "none", [0, 0.0, 0])
            for u in original(*args, **kwargs):
                stats[2] += 1
                yield u

        md_policies.admissible_matchings = counted
        try:
            yield
        finally:
            md_policies.admissible_matchings = original

    def write_spans(self, path: Path) -> None:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        records = [
            dict(span, id=k, self_s=span["end"] - span["start"] - covered[k])
            for k, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records, indent=1) + "\n")


# ---- set-up ----


def build_inputs(p: Pass, w: dict, spec: dict, seed: int) -> dict:
    """Graph, arrivals, costs, policies, state space and simulation config."""
    with p.span("graphs.load"):
        graph, arrivals, costs = md.load_graph(spec["graphs"][w["graph"]])
        md.classify(graph)
        if not md.check_stability(graph, arrivals).stable:
            raise md.Unstable(f"workload graph {w['graph']} is unstable")
    inputs = {"graph": graph, "arrivals": arrivals, "costs": costs, "space": None}
    if w["dp"] is not None:
        with p.span("solver.space_index"):
            space = md.TruncatedStateSpace(graph, **w["dp"])
            space.balanced_states, space.balanced_codes
            space.interior_balanced_states
        inputs["space"] = space
    inputs["policies"] = [
        md.policy_from_spec(graph, s, costs) for s in w.get("policies", [])
    ]
    sim = w["sim"]
    inputs["sim_cfg"] = md.SimConfig(
        horizon=sim["horizon"],
        burn_in=sim["burn_in"],
        replications=sim["replications"],
        seed=seed,
    )
    return inputs


# ---- workloads ----


def _near(value: float, target: float, rtol: float = GAIN_RTOL) -> bool:
    return abs(value - target) <= rtol * abs(target)


def _beats(result, first, second) -> bool:
    """``first`` has lower paired mean cost than ``second`` by >= 3 SE."""
    for pair in result.pairs:
        if {pair.first, pair.second} == {first.label, second.label}:
            diff = pair.mean if pair.first == first.label else -pair.mean
            return diff < 0 and -diff >= PAIRED_SE_LIMIT * pair.se
    return False


def _solve(p: Pass, inp: dict, check):
    return p.op(
        "solver.solve",
        lambda: md.relative_value_iteration(
            inp["space"], inp["costs"], inp["arrivals"], extract=False
        ),
        lambda r: check(r[0]),
        memory="alloc",
    )


def _extract(p: Pass, inp: dict, solved):
    return p.op(
        "solver.extract",
        lambda: p.watch(
            md.extract_policy(inp["space"], solved[1].data, inp["arrivals"])
        ),
        lambda pol: len(pol.table) > 0,
        needs=(solved,),
    )


def _compare(p: Pass, inp: dict, first, second) -> None:
    p.op(
        "simulate.compare",
        lambda: md.compare(
            inp["graph"], inp["arrivals"], inp["costs"], [first, second],
            inp["sim_cfg"], threads=1,
        ),
        lambda r: _beats(r, first, second),
        memory="rss",
    )


def run_n_model(p: Pass, inp: dict, w: dict) -> dict:
    graph, arrivals, costs, space = (
        inp["graph"], inp["arrivals"], inp["costs"], inp["space"]
    )
    params = md.NModelParams.from_graph(graph, arrivals, costs)

    def closed_form():
        t = md.optimal_threshold(params)
        return t, md.average_cost(params, t)

    closed = p.op(
        "nshaped.closed_form", closed_form, lambda r: math.isfinite(r[1]) and r[1] > 0
    )
    t_star, f_star = closed if closed else (None, math.nan)
    solved = _solve(p, inp, lambda gain: _near(gain, f_star))
    policy = _extract(p, inp, solved)
    report = p.op(
        "structure.verify",
        lambda: md.verify_policy_shape(space, policy, "threshold_n"),
        lambda rep: rep.passed and rep.inferred.get("t") == t_star,
        needs=(policy, closed),
    )
    evaluated = p.op(
        "solver.evaluate",
        lambda: md.evaluate_policy(
            space, p.watch(md.ThresholdN(graph, t_star)), costs, arrivals,
            mode="average",
        ),
        lambda r: _near(r[0], f_star),
        needs=(closed,),
    )
    sim_policy = p.watch(md.ThresholdN(graph, t_star)) if closed else None
    p.op(
        "simulate.simulate",
        lambda: md.simulate(graph, arrivals, costs, sim_policy, inp["sim_cfg"], threads=1),
        lambda r: abs(r.mean - f_star) <= SIM_SE_LIMIT * r.se,
        needs=(closed,),
        memory="rss",
    )
    return {
        "solved": solved,
        "policy": policy,
        "report": report,
        "evaluated": evaluated,
        "sim_op": "simulate.simulate",
        "sim_policies": [sim_policy] if sim_policy else [],
        "time_to_policy": ("solver.solve", "solver.extract", "structure.verify"),
    }


def run_w_model(p: Pass, inp: dict, w: dict) -> dict:
    solved = _solve(p, inp, lambda gain: _near(gain, w["expected_gain"]))
    policy = _extract(p, inp, solved)
    first, second = (p.watch(pol) for pol in inp["policies"])
    _compare(p, inp, first, second)
    return {
        "solved": solved,
        "policy": policy,
        "sim_op": "simulate.compare",
        "sim_policies": [first, second],
        "time_to_policy": ("solver.solve", "solver.extract"),
    }


def run_nn_compare(p: Pass, inp: dict, w: dict) -> dict:
    first, second = (p.watch(pol) for pol in inp["policies"])
    with p.counting_matchings():
        _compare(p, inp, first, second)
    return {"sim_op": "simulate.compare", "sim_policies": [first, second]}


WORKLOADS = {
    "n-model": run_n_model,
    "w-model": run_w_model,
    "nn-compare": run_nn_compare,
}


# ---- metrics ----


def layer_metrics(p: Pass, out: dict, steps: int) -> dict:
    """Per-layer figures this pass measured; absent ones are left out."""
    m: dict[str, float] = {}

    def put(name, value):
        if value is not None:
            m[name] = value

    put("graphs.load_s", p.seconds("graphs.load"))
    put("solver.space_index_s", p.seconds("solver.space_index"))
    solve_s = p.seconds("solver.solve")
    put("solver.solve_s", solve_s)
    solved = out.get("solved")
    if solved is not None:
        vf = solved[1]
        m["solver.sweeps"] = vf.iterations
        m["solver.sweep_ms"] = 1e3 * solve_s / vf.iterations
        m["solver.table_mb"] = vf.data.nbytes / MIB
    if "solver.solve" in p.mem_peak:
        m["solver.peak_alloc_mb"] = p.mem_peak["solver.solve"] / MIB
    put("solver.extract_s", p.seconds("solver.extract"))
    if out.get("policy") is not None:
        m["solver.extract_states"] = len(out["policy"].table)
    parts = [p.seconds(name) for name in out.get("time_to_policy", ())]
    if parts and None not in parts and out.get("policy") is not None:
        m["solver.time_to_policy_s"] = sum(parts)
    put("solver.evaluate_s", p.seconds("solver.evaluate"))
    if out.get("evaluated") is not None:
        m["solver.evaluate_sweeps"] = out["evaluated"][1].iterations
    put("structure.verify_s", p.seconds("structure.verify"))
    if out.get("report") is not None:
        m["structure.verify_checked"] = out["report"].checked
    closed_s = p.seconds("nshaped.closed_form")
    if closed_s is not None:
        m["nshaped.closed_form_us"] = 1e6 * closed_s
    if p.trace:
        for key, (calls, secs, yielded) in p.calls.items():
            m[f"policies.decide_calls.{key}"] = calls
            if calls:
                m[f"policies.decide_us.{key}"] = 1e6 * secs / calls
        mw = p.calls.get("max_weight")
        if mw and mw[0] and mw[2]:
            m["states.matchings_per_decide"] = mw[2] / mw[0]
        if out["sim_op"] in p.mem_peak:
            m["simulate.rss_growth_mb"] = p.mem_peak[out["sim_op"]] / MIB
    if out["sim_op"] == "simulate.simulate" and out["sim_op"] in p.completed:
        for pol in out["sim_policies"]:
            m[f"simulate.steps_per_s.{_policy_key(pol)}"] = steps / p.seconds(out["sim_op"])
    return m


def run_probes(w: dict, spec: dict, inp: dict, out: dict) -> dict:
    """Untraced single-policy simulations and the simulation floor."""
    m: dict[str, float] = {}
    cfg = inp["sim_cfg"]
    steps = cfg.horizon * cfg.replications
    if out["sim_op"] == "simulate.compare":
        for spec_p in w["policies"]:
            policy = md.policy_from_spec(inp["graph"], spec_p, inp["costs"])
            start = time.perf_counter()
            md.simulate(inp["graph"], inp["arrivals"], inp["costs"], policy, cfg, threads=1)
            m[f"simulate.steps_per_s.{_policy_key(policy)}"] = steps / (
                time.perf_counter() - start
            )
    floor = spec["floor"]
    graph, arrivals, costs = md.load_graph(spec["graphs"][floor["graph"]])
    policy = md.policy_from_spec(graph, floor["policy"], costs)
    start = time.perf_counter()
    md.simulate(graph, arrivals, costs, policy, cfg, threads=1)
    m["simulate.floor_ns_per_step"] = 1e9 * (time.perf_counter() - start) / steps
    return m


def run_pass(
    name: str,
    seed: int,
    *,
    trace: bool = False,
    probes: bool = False,
    setup_only: bool = False,
    spec: dict | None = None,
) -> dict:
    """Build the workload's inputs, run its operations, and report the pass."""
    spec = spec or load_spec()
    w = spec["workloads"][name]
    p = Pass(f"{name}:{seed}:{os.getpid()}", trace)
    with p.span("setup"):
        inp = build_inputs(p, w, spec, seed)
    record = {"workload": name, "seed": seed, "setup_s": p.spans[0]["end"]}
    if setup_only:
        return record
    with p.span("ops"):
        out = WORKLOADS[name](p, inp, w)
    cfg = inp["sim_cfg"]
    n_policies = len(out["sim_policies"])
    steps = cfg.horizon * cfg.replications
    sim_s = p.seconds(out["sim_op"])
    record.update(
        wall_s=p.seconds("ops"),
        sim_steps_per_s=(
            steps * n_policies / sim_s if out["sim_op"] in p.completed else None
        ),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=p.ops,
        layers=layer_metrics(p, out, steps),
    )
    if probes:
        record["layers"].update(run_probes(w, spec, inp, out))
    if trace:
        p.write_spans(OUT_DIR / f"trace-{name}-{seed}.json")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probes", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = Path(md.__file__).resolve().parent.parent
    if src != HERE.parent / "src":
        print(f"matchdp was imported from {src}, not this checkout", file=sys.stderr)
        return 2
    record = run_pass(
        args.workload,
        args.seed,
        trace=args.trace,
        probes=args.probes,
        setup_only=args.setup_only,
    )
    record["machine"] = machine_block()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
