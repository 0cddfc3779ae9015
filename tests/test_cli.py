"""Command line behavior: exit codes, manifest echo, artifacts, recipes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matchdp

from matchdp.cli import RECIPES, RunManifest, build_parser, main, reproduce, run
from matchdp.errors import ParseError
from matchdp.nshaped import NModelParams, average_cost, optimal_threshold
from matchdp.structure import SHAPE_FAMILIES

N_DOC = {
    "demand": ["d1", "d2"],
    "supply": ["s1", "s2"],
    "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s2"]],
    "alpha": [0.6, 0.4],
    "beta": [0.4, 0.6],
    "costs": {"d1": 1.0, "d2": 1.0, "s1": 1.0, "s2": 1.0},
}

COMPLETE_DOC = {
    "demand": ["d1", "d2"],
    "supply": ["s1", "s2"],
    "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s1"], ["d2", "s2"]],
    "alpha": [0.6, 0.4],
    "beta": [0.55, 0.45],
    "costs": {"d1": 2.0, "d2": 1.0, "s1": 1.0, "s2": 3.0},
}

W_DOC = {
    "demand": ["d1", "d2", "d3"],
    "supply": ["s1", "s2"],
    "edges": [["d1", "s1"], ["d2", "s1"], ["d2", "s2"], ["d3", "s2"]],
    "alpha": [0.4, 0.35, 0.25],
    "beta": [0.5, 0.5],
    "costs": {"d1": 10.0, "d2": 10.0, "d3": 1.0, "s1": 1.0, "s2": 1000.0},
}

UNSTABLE_N_DOC = dict(N_DOC, alpha=[0.4, 0.6], beta=[0.6, 0.4])

# A six-cycle: no extreme edge, so no default policy family.
CYCLE_DOC = {
    "demand": ["d1", "d2", "d3"],
    "supply": ["s1", "s2", "s3"],
    "edges": [["d1", "s1"], ["d1", "s2"], ["d2", "s2"], ["d2", "s3"],
              ["d3", "s3"], ["d3", "s1"]],
    "alpha": [1 / 3, 1 / 3, 1 / 3],
    "beta": [1 / 3, 1 / 3, 1 / 3],
    "costs": {"d1": 1.0, "d2": 1.0, "d3": 1.0, "s1": 1.0, "s2": 1.0, "s3": 1.0},
}


@pytest.fixture
def graph_file(tmp_path):
    def write(doc, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def manifest_of(capsys) -> dict:
    out = capsys.readouterr().out
    line = out.splitlines()[0]
    assert line.startswith("manifest: ")
    return json.loads(line[len("manifest: "):])


class TestManifestEcho:
    def test_first_line_holds_resolved_config(self, graph_file, capsys):
        path = graph_file(N_DOC)
        assert main(["simulate", "--graph", path, "--policy",
                     '{"type": "threshold_n", "t": 1}', "--steps", "200",
                     "--seed", "42"]) == 0
        doc = manifest_of(capsys)
        assert doc["mode"] == "simulate"
        assert doc["config"] == {
            "steps": 200, "burn_in": 0, "reps": 1, "seed": 42,
        }
        assert doc["graph"] == N_DOC
        assert doc["policies"] == [{"type": "threshold_n", "t": 1}]

    def test_solver_echo_resolves_default_tolerance(self, graph_file, capsys):
        path = graph_file(COMPLETE_DOC)
        assert main(["solve-average", "--graph", path, "--cap", "6"]) == 0
        doc = manifest_of(capsys)
        assert doc["config"] == {"cap": 6, "margin": 2, "tol": 1e-8}

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["stability"], {}),
            (["classify"], {}),
            (["threshold"], {}),
            (["solve-discounted", "--cap", "5"],
             {"cap": 5, "margin": 2, "theta": 0.95, "tol": 1e-9}),
            (["solve-average", "--cap", "5", "--margin", "3", "--tol", "1e-6"],
             {"cap": 5, "margin": 3, "tol": 1e-6}),
            (["simulate", "--policy", '{"type": "threshold_n", "t": 1}',
              "--steps", "50"],
             {"steps": 50, "burn_in": 0, "reps": 1, "seed": 0}),
            (["compare", "--policy", '{"type": "threshold_n", "t": 0}',
              "--policy", '{"type": "threshold_n", "t": "inf"}',
              "--steps", "60", "--burn-in", "5", "--reps", "2", "--seed", "3"],
             {"steps": 60, "burn_in": 5, "reps": 2, "seed": 3}),
            (["verify-structure", "--policy", '{"type": "threshold_n", "t": 1}',
              "--cap", "5"],
             {"cap": 5, "margin": 2, "family": "threshold_n"}),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else "",
    )
    def test_echoed_config_is_the_parsed_flags(self, graph_file, capsys, argv,
                                               config):
        assert main([argv[0], "--graph", graph_file(N_DOC), *argv[1:]]) == 0
        doc = manifest_of(capsys)
        assert doc["mode"] == argv[0]
        assert doc["config"] == config

    def test_rerun_from_echoed_manifest_is_identical(self, graph_file, capsys):
        path = graph_file(N_DOC)
        argv = ["simulate", "--graph", path, "--policy",
                '{"type": "threshold_n", "t": 0}', "--steps", "500",
                "--reps", "2", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        line = first.splitlines()[0]
        doc = json.loads(line[len("manifest: "):])
        manifest = RunManifest(
            mode=doc["mode"], graph=doc["graph"], policies=doc["policies"],
            config=doc["config"], out=doc["out"],
        )
        assert run(manifest) == 0
        assert capsys.readouterr().out == first


class TestThresholdMode:
    def test_prints_closed_form_quantities(self, graph_file, capsys):
        path = graph_file(N_DOC)
        assert main(["threshold", "--graph", path]) == 0
        out = capsys.readouterr().out
        params = NModelParams(alpha=0.6, beta=0.4, costs=(1.0, 1.0, 1.0, 1.0))
        t_star = optimal_threshold(params)
        assert f"rho: {params.rho:.10g}" in out
        assert "cost ratio R: 1" in out
        assert f"optimal threshold t*: {t_star}" in out
        assert f"average cost f(t*): {average_cost(params, t_star):.10g}" in out

    def test_wrong_graph_class_exits_1(self, graph_file, capsys):
        path = graph_file(COMPLETE_DOC)
        assert main(["threshold", "--graph", path]) == 1
        assert "error:" in capsys.readouterr().err


class TestSolveModes:
    def test_average_on_complete_reports_full_match(self, graph_file, capsys):
        path = graph_file(COMPLETE_DOC)
        assert main(["solve-average", "--graph", path, "--cap", "8"]) == 0
        out = capsys.readouterr().out
        assert "policy family: FullMatch" in out
        assert "gain: 3.5" in out

    def test_discounted_writes_report_artifact(self, graph_file, tmp_path, capsys):
        path = graph_file(N_DOC)
        out_dir = tmp_path / "artifacts"
        assert main(["solve-discounted", "--graph", path, "--cap", "6",
                     "--theta", "0.9", "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["theta"] == 0.9
        assert report["iterations"] >= 1
        assert report["policy_family"].startswith("ThresholdN")
        assert (out_dir / "manifest.json").exists()
        summary = (out_dir / "summary.txt").read_text()
        assert summary == capsys.readouterr().out.split("\n", 1)[1]

    def test_average_on_unstable_rates_exits_1(self, graph_file, capsys):
        path = graph_file(UNSTABLE_N_DOC)
        assert main(["solve-average", "--graph", path, "--cap", "6"]) == 1
        assert "error:" in capsys.readouterr().err


class TestStabilityMode:
    def test_stable_graph_exits_0(self, graph_file, capsys):
        assert main(["stability", "--graph", graph_file(N_DOC)]) == 0
        assert "stable: True" in capsys.readouterr().out

    def test_unstable_graph_exits_1_with_witness(self, graph_file, capsys):
        assert main(["stability", "--graph", graph_file(UNSTABLE_N_DOC)]) == 1
        out = capsys.readouterr().out
        assert "stable: False" in out
        assert "subset" in out


class TestClassifyMode:
    def test_reports_class_and_features(self, graph_file, capsys):
        assert main(["classify", "--graph", graph_file(N_DOC)]) == 0
        out = capsys.readouterr().out
        assert "class: n_shaped" in out
        assert "missing edge: ['d2', 's1']" in out


class TestSimulateMode:
    def test_writes_replication_csv(self, graph_file, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--graph", graph_file(N_DOC), "--policy",
                     '{"type": "threshold_n", "t": 1}', "--steps", "1000",
                     "--reps", "3", "--out", str(out_dir)]) == 0
        lines = (out_dir / "replications.csv").read_text().splitlines()
        assert lines[0] == "policy,replication,mean_cost"
        assert len(lines) == 4
        assert "mean cost" in capsys.readouterr().out

    def test_rejects_two_policies(self, graph_file, capsys):
        assert main(["simulate", "--graph", graph_file(N_DOC),
                     "--policy", '{"type": "threshold_n", "t": 0}',
                     "--policy", '{"type": "threshold_n", "t": 1}',
                     "--steps", "100"]) == 2
        assert "exactly one policy" in capsys.readouterr().err


class TestCompareMode:
    def test_policy_list_file(self, graph_file, tmp_path, capsys):
        specs = tmp_path / "policies.json"
        specs.write_text(json.dumps([
            {"type": "threshold_n", "t": 0},
            {"type": "threshold_n", "t": 2},
        ]))
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--graph", graph_file(N_DOC),
                     "--policies", str(specs), "--steps", "2000",
                     "--reps", "2", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "paired diff" in out
        rows = (out_dir / "comparison.csv").read_text().splitlines()
        assert rows[0] == "first,second,first_mean,second_mean,diff_mean,diff_se"
        assert len(rows) == 2

    def test_rejects_single_policy(self, graph_file, capsys):
        assert main(["compare", "--graph", graph_file(N_DOC), "--policy",
                     '{"type": "threshold_n", "t": 0}', "--steps", "100"]) == 2
        assert "at least 2" in capsys.readouterr().err


class TestVerifyStructureMode:
    def test_threshold_family_passes(self, graph_file, capsys):
        assert main(["verify-structure", "--graph", graph_file(N_DOC),
                     "--policy", '{"type": "threshold_n", "t": 2}',
                     "--cap", "8"]) == 0
        out = capsys.readouterr().out
        assert "inferred t: 2" in out
        assert "PASS" in out

    def test_graph_without_default_family_echoes_the_manifest_first(
        self, graph_file, capsys
    ):
        assert main(["verify-structure", "--graph", graph_file(CYCLE_DOC),
                     "--policy", '{"type": "max_weight"}', "--cap", "3"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out.splitlines()[0][len("manifest: "):])
        assert doc["config"] == {"cap": 3, "margin": 2, "family": None}
        assert "no default policy family" in captured.err

    def test_unknown_family_exits_2_naming_the_valid_ones(self, graph_file, capsys):
        assert main(["verify-structure", "--graph", graph_file(N_DOC),
                     "--policy", '{"type": "threshold_n", "t": 2}',
                     "--cap", "5", "--family", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'bogus'" in captured.err
        for family in ("full_match", "threshold_n", "priority_extreme"):
            assert family in captured.err

    def test_violating_policy_fails_with_exit_1(self, graph_file, capsys):
        assert main(["verify-structure", "--graph", graph_file(W_DOC),
                     "--policy", '{"type": "threshold_w_workload", "t21": 0, "t32": 5}',
                     "--cap", "5", "--family", "priority_extreme"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "witness" in out


class TestInputErrors:
    def test_missing_graph_file(self, tmp_path, capsys):
        assert main(["classify", "--graph", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_graph_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--graph", str(bad)]) == 2

    def test_invalid_policy_spec(self, graph_file, capsys):
        assert main(["simulate", "--graph", graph_file(N_DOC),
                     "--policy", '{"type": "martian"}', "--steps", "100"]) == 2
        assert "unknown policy type" in capsys.readouterr().err

    def test_unknown_mode_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["warp"])
        assert info.value.code == 2

    def test_manifest_rejects_unknown_mode(self):
        with pytest.raises(ParseError, match="unknown mode"):
            RunManifest(mode="warp", graph=N_DOC)

    def test_non_finite_rates_exit_2(self, graph_file, capsys):
        path = graph_file(dict(N_DOC, alpha=[math.nan, math.nan]))
        assert main(["stability", "--graph", path]) == 2
        captured = capsys.readouterr()
        assert "stable" not in captured.out
        assert "alpha entries must be finite" in captured.err

    def test_nan_tolerance_exits_1(self, graph_file, capsys):
        path = graph_file(N_DOC)
        assert main(["solve-average", "--graph", path, "--cap", "4", "--tol", "nan"]) == 1
        assert "tol must be positive, got nan" in capsys.readouterr().err

    def test_non_finite_cost_exits_2(self, graph_file, capsys):
        costs = dict(N_DOC["costs"], s1=math.nan)
        path = graph_file(dict(N_DOC, costs=costs))
        assert main(["solve-average", "--graph", path, "--cap", "4"]) == 2
        assert "costs must be finite" in capsys.readouterr().err


class TestReproduce:
    # Every line after the manifest is pinned, so a solver change that moves
    # a printed digit or the backup count fails here.
    def test_n_threshold_recipe_passes(self, capsys):
        assert main(["reproduce", "n-threshold"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == [
            "assertion: DP threshold equals the closed-form optimum",
            "gain: 9.232488096",
            "iterations: 7",
            "shape violations: 0",
            "inferred threshold: 1",
            "closed-form threshold: 1",
            "PASS",
        ]

    def test_complete_full_recipe_passes(self, capsys):
        assert main(["reproduce", "complete-full"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == [
            "assertion: average-cost policy matches everything on the interior",
            "gain: 3.5",
            "iterations: 4",
            "interior states checked: 342",
            "shape violations: 0",
            "PASS",
        ]

    def test_nn_heuristic_recipe_passes(self, capsys):
        assert main(["reproduce", "nn-heuristic"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == [
            "assertion: layered extreme-edge heuristic beats max-weight at >= 3 SE",
            "mean cost AcyclicHeuristic(s3:1): 13.00753333",
            "mean cost MaxWeight: 14.34675333",
            "paired difference: -1.33922",
            "paired difference se: 0.08357472329",
            "difference in SE units: 16.02422296",
            "steps: 30000",
            "replications: 6",
            "PASS",
        ]

    def test_unknown_recipe_name(self):
        with pytest.raises(ParseError, match="unknown recipe"):
            reproduce("bogus")

    def test_recipe_pins_are_complete(self):
        for name, pins in RECIPES.items():
            assert "graph" in pins and "config" in pins and "assertion" in pins
            if name in ("w-counterexample", "nn-heuristic"):
                assert pins["config"]["seed"] is not None
                assert len(pins["policies"]) == 2


MODES = ("stability", "classify", "solve-discounted", "solve-average", "threshold",
         "simulate", "compare", "verify-structure", "reproduce")


@pytest.mark.parametrize("mode", MODES)
def test_a_mode_parsed_alone_prints_the_full_parsers_help(mode, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([mode, "--help"])
    full = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([mode, "--help"])
    assert capsys.readouterr().out == full
    assert "--" in full


def test_verify_structure_help_lists_the_shape_families(capsys):
    with pytest.raises(SystemExit):
        main(["verify-structure", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"family to verify, one of: (.*?) \(default", text).group(1)
    assert listed.split(", ") == list(SHAPE_FAMILIES)


CLI_IMPORTS = """
import json, sys
from matchdp.cli import main
path, deferred = sys.argv[1], json.loads(sys.argv[2])
policies = ["--policy", '{"type": "threshold_w_workload", "t21": 14, "t32": 0}',
            "--policy", '{"type": "threshold_w", "t21": 11, "t22": 0}']
runs = [
    ["stability", "--graph", path],
    ["classify", "--graph", path],
    ["simulate", "--graph", path, *policies[:2], "--steps", "300"],
    ["compare", "--graph", path, *policies, "--steps", "300", "--reps", "2"],
    ["reproduce", "nn-heuristic"],
]
status = [main(argv) for argv in runs]
print(json.dumps({"status": status, "loaded": [m for m in deferred if m in sys.modules]}))
"""


def test_simulation_modes_load_no_solver_checks_or_closed_form(tmp_path):
    # On the W graph: a finite threshold on N loads the closed form's level
    # map for the level frequencies.
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W_DOC))
    deferred = ["matchdp.solver", "matchdp.structure", "matchdp.nshaped"]
    env = dict(os.environ, PYTHONPATH=str(Path(matchdp.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_IMPORTS, str(path), json.dumps(deferred)],
        capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"status": [0] * 5, "loaded": []}


def test_module_entry_point(tmp_path):
    path = tmp_path / "n.json"
    path.write_text(json.dumps(N_DOC))
    env = dict(os.environ, PYTHONPATH=str(Path(matchdp.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "matchdp", "classify", "--graph", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "class: n_shaped" in proc.stdout


def test_zero_dash_threshold_value(graph_file, capsys):
    path = graph_file(N_DOC)
    assert main(["verify-structure", "--graph", path, "--policy",
                 '{"type": "threshold_n", "t": "inf"}', "--cap", "6"]) == 0
    assert "inferred t: inf" in capsys.readouterr().out


def test_nan_se_prints_as_not_available(graph_file, capsys):
    assert main(["simulate", "--graph", graph_file(N_DOC), "--policy",
                 '{"type": "threshold_n", "t": 0}', "--steps", "100"]) == 0
    assert "(se n/a)" in capsys.readouterr().out


def test_report_json_round_trips_floats(graph_file, tmp_path):
    out_dir = tmp_path / "thr"
    assert main(["threshold", "--graph", graph_file(N_DOC),
                 "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    params = NModelParams(alpha=0.6, beta=0.4, costs=(1.0, 1.0, 1.0, 1.0))
    assert report["rho"] == params.rho
    assert report["optimal_threshold"] == optimal_threshold(params)
    assert math.isclose(report["average_cost"], average_cost(params, 0))
