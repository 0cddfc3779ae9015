"""Command line front end for batch experiments and pinned reproduction runs.

Every run first prints a ``manifest:`` line holding the resolved
configuration as JSON: the full graph document, the policy specs, and
every numeric setting including seeds.  That ``config`` is the
subcommand's parsed flags, with the margin, the discount factor, the solver
tolerance and the shape family resolved; the defaults are the library's
own (:class:`~matchdp.solver.DPConfig`,
:class:`~matchdp.solver.TruncatedStateSpace`,
:class:`~matchdp.simulate.SimConfig`).  Feeding that manifest back through
:func:`run` repeats the run byte for byte.  With ``--out DIR`` the manifest,
the printed summary, and machine-readable artifacts (JSON report, CSV
tables) are also written to disk.

The solver, the shape checks and the N closed form are imported by the
modes that use them.  The parser reads no default or choice from them:
the flags that would (``--margin``, ``--theta``, ``--family``) default to
None and are resolved with the manifest.  So the command line loads none
of the three for ``simulate``, ``compare``, a simulation recipe or any
mode's ``--help``.

Exit codes: 0 on success, 1 on domain errors (unstable arrival rates, an
unsupported graph class, a failed check or recipe assertion), 2 on
unreadable or invalid input.  Argument usage errors exit 2 through
argparse itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import MatchDPError, ParseError, WrongGraphClass
from .graphs import (
    COMPLETE,
    N_SHAPED,
    MatchingGraph,
    check_stability,
    classify,
    load_graph,
    read_graph_document,
)
from .policies import Policy, policy_from_spec, threshold_json
from .simulate import (
    SimConfig,
    compare,
    simulate,
    write_comparison_csv,
    write_replication_csv,
)

if TYPE_CHECKING:
    from .solver import TruncatedStateSpace

DEFAULT_STEPS = 10_000

# The keys of ``structure.SHAPE_FAMILIES``, spelled out so that the parser
# and the manifest check need not load the shape checks.
_FAMILIES = ("full_match", "threshold_n", "priority_extreme")


def _fmt(value) -> str:
    """A value as printed: a float to 10 significant digits, or n/a when it
    is NaN; any other value as ``str`` gives it."""
    if not isinstance(value, float):
        return str(value)
    return "n/a" if math.isnan(value) else f"{value:.10g}"


@dataclass(frozen=True)
class RunManifest:
    """Self-contained description of one command line run.

    ``graph`` holds the full graph document rather than a path, so a saved
    manifest reproduces the run even if the original file changes.
    """

    mode: str
    graph: dict
    policies: tuple[dict, ...] = ()
    config: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in _HANDLERS:
            raise ParseError(
                f"unknown mode {self.mode!r}; expected one of {tuple(_HANDLERS)}"
            )
        object.__setattr__(self, "policies", tuple(self.policies))

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "graph": self.graph,
            "policies": [dict(spec) for spec in self.policies],
            "config": dict(self.config),
            "out": self.out,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _read_policy_arg(value: str) -> list[dict]:
    """Decode one --policy argument: inline JSON or a path to a JSON file.

    A file may hold a single spec object or a list of them.
    """
    text = value.strip()
    if not text.startswith("{") and not text.startswith("["):
        try:
            text = Path(value).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read policy file {value}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"policy spec {value!r} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        return [doc]
    if isinstance(doc, list) and all(isinstance(item, dict) for item in doc):
        return list(doc)
    raise ParseError(
        f"policy spec {value!r} must be a JSON object or a list of objects"
    )


def _policy_family_line(
    space: TruncatedStateSpace, policy: Policy
) -> tuple[str, dict | None]:
    """Name the structured family the extracted policy falls into, if any."""
    from .structure import verify_policy_shape

    try:
        family = _default_family(space.graph)
    except WrongGraphClass:
        return "unstructured", None
    report = verify_policy_shape(space, policy, family)
    t = report.inferred.get("t")
    if not report.passed or (family == "threshold_n" and t is None):
        return "unstructured", None
    names = {
        "full_match": "FullMatch",
        "threshold_n": f"ThresholdN(t={threshold_json(t)})",
        "priority_extreme": "PriorityExtreme",
    }
    return names[family], report.to_record()


# ---- mode handlers ----


def _mode_stability(graph, arrivals, costs, manifest, say, out):
    report = check_stability(graph, arrivals)
    say(f"stable: {report.stable}")
    say(f"subsets checked: {report.subsets_checked} (exhaustive: {report.exhaustive})")
    say(f"subset violations: {report.violation_count}")
    for bad in report.violations[:5]:
        say(
            f"  {bad.side} subset {list(bad.nodes)}: mass {_fmt(bad.mass)}"
            f" >= neighbor mass {_fmt(bad.neighbor_mass)}"
        )
    return (0 if report.stable else 1), asdict(report)


def _mode_classify(graph, arrivals, costs, manifest, say, out):
    info = classify(graph)

    def edge_name(edge):
        i, j = edge
        return [graph.demand_nodes[i], graph.supply_nodes[j]]

    record = {
        "tag": info.tag,
        "missing_edge": edge_name(info.missing_edge) if info.missing_edge else None,
        "extreme_edges": [edge_name(e) for e in info.extreme_edges],
        "node_labels": list(graph.node_labels),
    }
    say(f"nodes: {graph.n_d} demand, {graph.n_s} supply")
    say(f"edges: {len(graph.edges)}")
    say(f"class: {info.tag}")
    if record["missing_edge"] is not None:
        say(f"missing edge: {record['missing_edge']}")
    say(f"extreme edges: {record['extreme_edges']}")
    return 0, record


def _solve_report(say, space, vf, policy, gain=None):
    say(f"iterations: {vf.iterations}")
    say(f"residual: {_fmt(vf.residual)}")
    say(
        f"states: {len(space.balanced_states)} balanced,"
        f" {space.tainted_state_count} tainted"
    )
    if gain is not None:
        say(f"gain: {_fmt(gain)}")
    family, shape_record = _policy_family_line(space, policy)
    say(f"policy family: {family}")
    record = {
        "iterations": vf.iterations,
        "residual": vf.residual,
        "balanced_states": len(space.balanced_states),
        "tainted_states": space.tainted_state_count,
        "policy_family": family,
        "shape": shape_record,
    }
    if gain is not None:
        record["gain"] = gain
    return record


def _mode_solve_discounted(graph, arrivals, costs, manifest, say, out):
    from .solver import DPConfig, TruncatedStateSpace, value_iteration

    cfg = manifest.config
    space = TruncatedStateSpace(graph, cap=cfg["cap"], margin=cfg["margin"])
    dp = DPConfig(theta=cfg["theta"], tol=cfg["tol"])
    vf, policy = value_iteration(space, costs, arrivals, dp)
    say(f"theta: {_fmt(cfg['theta'])}")
    record = _solve_report(say, space, vf, policy)
    zero = (0,) * graph.n_nodes
    v00 = vf.value(zero, (0, 0))
    say(f"value at empty queue, first atom: {_fmt(v00)}")
    record["theta"] = cfg["theta"]
    record["value_at_origin"] = v00
    return 0, record


def _mode_solve_average(graph, arrivals, costs, manifest, say, out):
    from .solver import DPConfig, TruncatedStateSpace, relative_value_iteration

    cfg = manifest.config
    space = TruncatedStateSpace(graph, cap=cfg["cap"], margin=cfg["margin"])
    dp = DPConfig(tol=cfg["tol"])
    gain, vf, policy = relative_value_iteration(space, costs, arrivals, dp)
    record = _solve_report(say, space, vf, policy, gain=gain)
    return 0, record


def _mode_threshold(graph, arrivals, costs, manifest, say, out):
    from .nshaped import (
        NModelParams,
        average_cost,
        optimal_threshold,
        threshold_location,
    )

    params = NModelParams.from_graph(graph, arrivals, costs)
    t_star = optimal_threshold(params)
    # (printed name, record key, value)
    rows = (
        ("rho", "rho", params.rho),
        ("cost ratio R", "cost_ratio", params.cost_ratio),
        ("continuous minimizer k", "continuous_minimizer", threshold_location(params)),
        ("optimal threshold t*", "optimal_threshold", t_star),
        ("average cost f(t*)", "average_cost", average_cost(params, t_star)),
    )
    for name, _, value in rows:
        say(f"{name}: {_fmt(value)}")
    return 0, {key: value for _, key, value in rows}


def _sim_config(cfg: dict) -> SimConfig:
    return SimConfig(
        horizon=cfg["steps"],
        burn_in=cfg["burn_in"],
        replications=cfg["reps"],
        seed=cfg["seed"],
    )


def _only_spec(manifest: RunManifest, hint: str = "") -> dict:
    """The one policy spec of a mode that takes exactly one."""
    if len(manifest.policies) != 1:
        raise ParseError(
            f"{manifest.mode} needs exactly one policy spec,"
            f" got {len(manifest.policies)}{hint}"
        )
    return manifest.policies[0]


def _say_sim_result(say, result):
    say(f"{result.label}: mean cost {_fmt(result.mean)} (se {_fmt(result.se)})")


def _mode_simulate(graph, arrivals, costs, manifest, say, out):
    spec = _only_spec(manifest, " (use compare for several)")
    policy = policy_from_spec(graph, spec, costs)
    result = simulate(graph, arrivals, costs, policy, _sim_config(manifest.config))
    _say_sim_result(say, result)
    for name, value in zip(graph.node_labels, result.node_means):
        say(f"  mean queue at {name}: {_fmt(value)}")
    if result.level_freqs is not None:
        shown = ", ".join(_fmt(f) for f in result.level_freqs[:8])
        say(f"  level frequencies: {shown}")
    if out is not None:
        write_replication_csv(out / "replications.csv", [result])
    return 0, result.to_record()


def _mode_compare(graph, arrivals, costs, manifest, say, out):
    if len(manifest.policies) < 2:
        raise ParseError(
            f"compare needs at least 2 policy specs, got {len(manifest.policies)}"
        )
    policies = [policy_from_spec(graph, spec, costs) for spec in manifest.policies]
    result = compare(graph, arrivals, costs, policies, _sim_config(manifest.config))
    for entry in result.results:
        _say_sim_result(say, entry)
    for pair in result.pairs:
        say(
            f"{pair.first} - {pair.second}: paired diff {_fmt(pair.mean)}"
            f" (se {_fmt(pair.se)})"
        )
    if out is not None:
        write_replication_csv(out / "replications.csv", result.results)
        write_comparison_csv(out / "comparison.csv", result)
    return 0, result.to_record()


def _default_family(graph: MatchingGraph) -> str:
    info = classify(graph)
    if info.tag == COMPLETE:
        return "full_match"
    if info.tag == N_SHAPED:
        return "threshold_n"
    if info.extreme_edges:
        return "priority_extreme"
    raise WrongGraphClass(
        f"no default policy family for a {info.tag} graph; pass --family"
    )


def _mode_verify_structure(graph, arrivals, costs, manifest, say, out):
    spec = _only_spec(manifest)
    from .solver import TruncatedStateSpace
    from .structure import verify_policy_shape

    cfg = manifest.config
    # Null when the graph has no default family; this raises it after the echo.
    family = cfg["family"] or _default_family(graph)
    policy = policy_from_spec(graph, spec, costs)
    space = TruncatedStateSpace(graph, cap=cfg["cap"], margin=cfg["margin"])
    report = verify_policy_shape(space, policy, family)
    say(f"family: {report.family}")
    say(f"states checked: {report.checked}")
    say(f"violations: {report.violation_count}")
    if report.inferred:
        for key, value in report.inferred.items():
            say(f"inferred {key}: {threshold_json(value)}")
    for witness in report.witnesses[:5]:
        say(f"  witness: {json.dumps(witness, sort_keys=True)}")
    say("PASS" if report.passed else "FAIL")
    return (0 if report.passed else 1), report.to_record()


_HANDLERS = {
    "stability": _mode_stability,
    "classify": _mode_classify,
    "solve-discounted": _mode_solve_discounted,
    "solve-average": _mode_solve_average,
    "threshold": _mode_threshold,
    "simulate": _mode_simulate,
    "compare": _mode_compare,
    "verify-structure": _mode_verify_structure,
}


def run(manifest: RunManifest) -> int:
    """Execute one run: echo the manifest, dispatch, write artifacts."""
    print("manifest: " + manifest.to_json())
    graph, arrivals, costs = load_graph(manifest.graph)
    out = None
    if manifest.out is not None:
        out = Path(manifest.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParseError(f"cannot create output directory {out}: {exc}") from exc
    lines: list[str] = []

    def say(text: str) -> None:
        print(text)
        lines.append(text)

    status, record = _HANDLERS[manifest.mode](
        graph, arrivals, costs, manifest, say, out
    )
    if out is not None:
        (out / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        (out / "summary.txt").write_text("\n".join(lines) + "\n")
        if record is not None:
            (out / "report.json").write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n"
            )
    return status


# ---- bundled reproduction recipes ----

_N_RECIPE_GRAPH = {
    "demand": ["d1", "d2"],
    "supply": ["s1", "s2"],
    "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s2"]],
    "alpha": [0.65, 0.35],
    "beta": [0.35, 0.65],
    "costs": {"d1": 1.0, "d2": 6.0, "s1": 5.0, "s2": 2.0},
}

_COMPLETE_RECIPE_GRAPH = {
    "demand": ["d1", "d2"],
    "supply": ["s1", "s2"],
    "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s1"], ["d2", "s2"]],
    "alpha": [0.6, 0.4],
    "beta": [0.55, 0.45],
    "costs": {"d1": 2.0, "d2": 1.0, "s1": 1.0, "s2": 3.0},
}

_W_RECIPE_GRAPH = {
    "demand": ["d1", "d2", "d3"],
    "supply": ["s1", "s2"],
    "edges": [["d1", "s1"], ["d2", "s1"], ["d2", "s2"], ["d3", "s2"]],
    "alpha": [0.4, 0.35, 0.25],
    "beta": [0.5, 0.5],
    "costs": {"d1": 10.0, "d2": 10.0, "d3": 1.0, "s1": 1.0, "s2": 1000.0},
}

_NN_DELTA = 0.06
_NN_RECIPE_GRAPH = {
    "demand": ["d1", "d2", "d3"],
    "supply": ["s1", "s2", "s3"],
    "edges": [
        ["d1", "s1"], ["d1", "s2"], ["d2", "s2"], ["d2", "s3"], ["d3", "s3"],
    ],
    "alpha": [3 / 6, 2 / 6, 1 / 6],
    "beta": [2 / 6 - _NN_DELTA / 2, 3 / 6 - _NN_DELTA / 2, 1 / 6 + _NN_DELTA],
    "costs": {"d1": 1.0, "d2": 2.0, "d3": 3.0, "s1": 1.0, "s2": 2.0, "s3": 3.0},
}

RECIPES: dict[str, dict] = {
    "n-threshold": {
        "graph": _N_RECIPE_GRAPH,
        "config": {"cap": 12, "margin": 4},
        "assertion": "DP threshold equals the closed-form optimum",
    },
    "complete-full": {
        "graph": _COMPLETE_RECIPE_GRAPH,
        "config": {"cap": 8, "margin": 2},
        "assertion": "average-cost policy matches everything on the interior",
    },
    "w-counterexample": {
        "graph": _W_RECIPE_GRAPH,
        "policies": [
            {"type": "threshold_w_workload", "t21": 14, "t32": 0},
            {"type": "threshold_w", "t21": 11, "t22": 0},
        ],
        "config": {
            "steps": 1_000_000,
            "burn_in": 0,
            "reps": 20,
            "seed": 20260825,
        },
        "assertion": "workload hybrid beats the two-threshold rule at >= 3 SE",
    },
    "nn-heuristic": {
        "graph": _NN_RECIPE_GRAPH,
        "policies": [
            {"type": "acyclic_heuristic", "thresholds": {"s3": 1}},
            {"type": "max_weight"},
        ],
        "config": {
            "steps": 30_000,
            "burn_in": 5_000,
            "reps": 6,
            "seed": 20260825,
        },
        "assertion": "layered extreme-edge heuristic beats max-weight at >= 3 SE",
    },
}


@dataclass(frozen=True)
class RecipeResult:
    """Outcome of a bundled recipe: verdict plus the measured quantities."""

    name: str
    passed: bool
    details: dict


def _paired_ordering(result, first_label: str, second_label: str) -> tuple[float, float]:
    """Signed paired difference (first - second) and its standard error."""
    for pair in result.pairs:
        if {pair.first, pair.second} == {first_label, second_label}:
            sign = 1.0 if pair.first == first_label else -1.0
            return sign * pair.mean, pair.se
    raise KeyError(f"no pair for {first_label!r} vs {second_label!r}")


def _dp_recipe(name: str, family: str):
    """Solve a DP recipe's pinned graph by relative value iteration at its
    pinned cap and margin, and verify the extracted policy against
    ``family``: (graph, arrivals, costs, gain, value function, report)."""
    from .solver import TruncatedStateSpace, relative_value_iteration
    from .structure import verify_policy_shape

    pins = RECIPES[name]
    graph, arrivals, costs = load_graph(pins["graph"])
    cfg = pins["config"]
    space = TruncatedStateSpace(graph, cap=cfg["cap"], margin=cfg["margin"])
    gain, vf, policy = relative_value_iteration(space, costs, arrivals)
    return graph, arrivals, costs, gain, vf, verify_policy_shape(space, policy, family)


def _recipe_n_threshold(name: str) -> RecipeResult:
    from .nshaped import NModelParams, optimal_threshold

    graph, arrivals, costs, gain, vf, report = _dp_recipe(name, "threshold_n")
    params = NModelParams.from_graph(graph, arrivals, costs)
    t_star = optimal_threshold(params)
    inferred = report.inferred.get("t")
    passed = report.passed and inferred == t_star
    return RecipeResult(
        name,
        passed,
        {
            "gain": gain,
            "iterations": vf.iterations,
            "shape violations": report.violation_count,
            "inferred threshold": inferred,
            "closed-form threshold": t_star,
        },
    )


def _recipe_complete_full(name: str) -> RecipeResult:
    _, _, _, gain, vf, report = _dp_recipe(name, "full_match")
    passed = report.passed and report.checked > 0
    return RecipeResult(
        name,
        passed,
        {
            "gain": gain,
            "iterations": vf.iterations,
            "interior states checked": report.checked,
            "shape violations": report.violation_count,
        },
    )


def _ordering_recipe(name: str) -> RecipeResult:
    """Shared body for the two simulation ordering recipes.

    The first pinned policy must have strictly lower paired average cost
    than the second, by at least three standard errors.
    """
    pins = RECIPES[name]
    graph, arrivals, costs = load_graph(pins["graph"])
    policies = [policy_from_spec(graph, spec, costs) for spec in pins["policies"]]
    cfg = pins["config"]
    result = compare(graph, arrivals, costs, policies, _sim_config(cfg))
    means = {entry.label: entry.mean for entry in result.results}
    diff, se = _paired_ordering(result, policies[0].label, policies[1].label)
    z = abs(diff) / se if se > 0 else math.inf
    passed = diff < 0 and z >= 3.0
    return RecipeResult(
        name,
        passed,
        {
            f"mean cost {policies[0].label}": means[policies[0].label],
            f"mean cost {policies[1].label}": means[policies[1].label],
            "paired difference": diff,
            "paired difference se": se,
            "difference in SE units": z,
            "steps": cfg["steps"],
            "replications": cfg["reps"],
        },
    )


_RECIPE_FUNCS: dict[str, Callable[[str], RecipeResult]] = {
    "n-threshold": _recipe_n_threshold,
    "complete-full": _recipe_complete_full,
    "w-counterexample": _ordering_recipe,
    "nn-heuristic": _ordering_recipe,
}


def reproduce(name: str) -> RecipeResult:
    """Run a bundled recipe and report whether its pinned assertion holds."""
    if name not in RECIPES:
        raise ParseError(f"unknown recipe {name!r}; available: {sorted(RECIPES)}")
    return _RECIPE_FUNCS[name](name)


def _cmd_reproduce(name: str) -> int:
    print("manifest: " + json.dumps({"recipe": name, **RECIPES[name]}, sort_keys=True))
    print(f"assertion: {RECIPES[name]['assertion']}")
    result = reproduce(name)
    for key, value in result.details.items():
        print(f"{key}: {_fmt(value)}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


# ---- argument parsing ----


def build_parser() -> argparse.ArgumentParser:
    """The command line parser.  ``--margin``, ``--theta`` and ``--family``
    default to None and are resolved with the manifest, so building the
    parser loads neither the solver nor the shape checks."""
    parser = argparse.ArgumentParser(
        prog="matchdp",
        description="Exact solvers, structured policies, and seeded simulation "
        "for dynamic bipartite matching queues.",
        epilog="Exit codes: 0 success, 1 domain error or failed check, 2 bad "
        "input. Environment: MATCHDP_THREADS sets simulation parallelism "
        "(0 = one worker per CPU).",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="MODE")

    graph_flags = argparse.ArgumentParser(add_help=False)
    graph_flags.add_argument("--graph", required=True, metavar="PATH",
                             help="graph document (JSON)")
    graph_flags.add_argument("--out", metavar="DIR",
                             help="directory for manifest, summary, and artifacts")

    space_flags = argparse.ArgumentParser(add_help=False)
    space_flags.add_argument("--cap", type=int, required=True,
                             help="per-queue truncation bound")
    space_flags.add_argument("--margin", type=int, default=None,
                             help="rim width excluded from structural verdicts")

    tol_flags = argparse.ArgumentParser(add_help=False)
    tol_flags.add_argument("--tol", type=float, default=None,
                           help="convergence tolerance (defaults per mode)")

    policy_flags = argparse.ArgumentParser(add_help=False)
    policy_flags.add_argument(
        "--policy", "--policies", dest="policy", action="append", default=[],
        metavar="SPEC", help="policy spec: inline JSON or a path to a JSON "
        "file (a file may hold a list)",
    )

    sim_flags = argparse.ArgumentParser(add_help=False)
    sim_flags.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                           help="simulation horizon in arrivals")
    sim_flags.add_argument("--burn-in", type=int, default=SimConfig.burn_in,
                           help="steps discarded before averaging")
    sim_flags.add_argument("--reps", type=int, default=SimConfig.replications,
                           help="independent replications")
    sim_flags.add_argument("--seed", type=int, default=SimConfig.seed,
                           help="base seed; replication r uses key (seed, r)")

    sub.add_parser("stability", parents=[graph_flags],
                   help="test the strict subset drift condition")
    sub.add_parser("classify", parents=[graph_flags],
                   help="report the structural graph class")

    disc = sub.add_parser("solve-discounted",
                          parents=[graph_flags, space_flags, tol_flags],
                          help="discounted value iteration and policy extraction")
    disc.add_argument("--theta", type=float, default=None,
                      help="discount factor in [0, 1)")

    sub.add_parser("solve-average",
                   parents=[graph_flags, space_flags, tol_flags],
                   help="relative value iteration for the average-cost problem")
    sub.add_parser("threshold", parents=[graph_flags],
                   help="closed-form optimal threshold analysis")
    sub.add_parser("simulate", parents=[graph_flags, policy_flags, sim_flags],
                   help="seeded Monte Carlo run of one policy")
    sub.add_parser("compare", parents=[graph_flags, policy_flags, sim_flags],
                   help="paired comparison of several policies on shared streams")

    verify = sub.add_parser("verify-structure",
                            parents=[graph_flags, space_flags, policy_flags],
                            help="check a policy against a structured family")
    verify.add_argument("--family", default=None,
                        help=f"family to verify, one of: {', '.join(_FAMILIES)} "
                        "(default: inferred from the graph)")

    rep = sub.add_parser("reproduce",
                         help="run a bundled pinned experiment and print PASS/FAIL")
    rep.add_argument("recipe", choices=sorted(RECIPES), metavar="RECIPE",
                     help=f"one of {sorted(RECIPES)}")
    return parser


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    """The run the parsed flags describe: the subcommand's own flags are its
    config, with the margin, discount, tolerance and default family resolved
    from the library's defaults.  An unknown family raises ParseError.  A
    graph with no default family leaves it null, and the run raises after
    it has echoed its manifest, as every other domain error does."""
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("mode", "graph", "out", "policy")
    }
    if config.get("family") not in (None, *_FAMILIES):
        raise ParseError(
            f"unknown family {config['family']!r}; expected one of {list(_FAMILIES)}"
        )
    graph_doc = read_graph_document(args.graph)
    policies: list[dict] = []
    for value in getattr(args, "policy", []):
        policies.extend(_read_policy_arg(value))
    if "margin" in config:
        from .solver import DPConfig, TruncatedStateSpace

        if config["margin"] is None:
            config["margin"] = TruncatedStateSpace.margin
        if "theta" in config and config["theta"] is None:
            config["theta"] = DPConfig.theta
        if "tol" in config:
            mode_name = "discounted" if args.mode == "solve-discounted" else "average"
            config["tol"] = DPConfig(tol=args.tol).resolved_tol(mode_name)
    if "family" in config and config["family"] is None:
        graph, _, _ = load_graph(graph_doc)
        try:
            config["family"] = _default_family(graph)
        except WrongGraphClass:
            pass
    return RunManifest(
        mode=args.mode,
        graph=graph_doc,
        policies=tuple(policies),
        config=config,
        out=args.out,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.mode == "reproduce":
            return _cmd_reproduce(args.recipe)
        return run(_manifest_from_args(args))
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatchDPError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
