"""Every command line mode's output, pinned byte for byte.

Each case runs ``main`` in-process on one of the four ``RECIPES`` graphs at
a small size (cap 6, theta 0.9, a few thousand simulated steps) with
``--out``, and compares the exit code, stdout after the manifest line
(whose ``out`` is a temporary path), stderr, and every artifact but
``manifest.json`` against ``golden/cli_modes.json``.  The cases include
the error exits: the wrong number of policy specs, a closed form on a
graph that is not N, a solve that no cap-6 transition keeps balanced, and
unstable rates (the N graph with alpha and beta swapped).

Regenerate the golden file with ``PYTHONPATH=src python
tests/test_cli_golden.py`` after a change that is meant to move output.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from matchdp.cli import RECIPES, main

GOLDEN = Path(__file__).parent / "golden" / "cli_modes.json"

# Two policy specs per graph: the first is simulated and verified alone.
_POLICIES = {
    "n-threshold": [{"type": "threshold_n", "t": 2}, {"type": "match_longest"}],
    "complete-full": [{"type": "full_match"}, {"type": "max_weight"}],
    "w-counterexample": RECIPES["w-counterexample"]["policies"],
    "nn-heuristic": RECIPES["nn-heuristic"]["policies"],
}

_GRAPHS = {name: RECIPES[name]["graph"] for name in _POLICIES}
_N = RECIPES["n-threshold"]["graph"]
_GRAPHS["n-unstable"] = dict(_N, alpha=_N["beta"], beta=_N["alpha"])

_SIM = ["--steps", "3000", "--burn-in", "500", "--reps", "3", "--seed", "3"]


def _cases() -> dict[str, list[str]]:
    """Case id -> argv without ``--graph`` and ``--out``, with policies as
    inline JSON; the graph is named in brackets."""
    cases = {
        "stability[n-unstable]": ["stability"],
        "solve-average[n-unstable]": ["solve-average", "--cap", "6"],
    }
    for graph, (first, second) in _POLICIES.items():
        one, two = (["--policy", json.dumps(spec)] for spec in (first, second))
        modes = {
            "stability": ["stability"],
            "classify": ["classify"],
            "threshold": ["threshold"],
            "solve-discounted": ["solve-discounted", "--cap", "6", "--theta", "0.9"],
            "solve-average": ["solve-average", "--cap", "6"],
            "simulate": ["simulate", *one, *_SIM],
            "compare": ["compare", *one, *two, *_SIM],
            "compare-one-rep": ["compare", *one, *two, "--steps", "2000", "--reps", "1"],
            "verify-structure": ["verify-structure", "--cap", "6", *one],
            "simulate-two-policies": ["simulate", *one, *two],
            "compare-one-policy": ["compare", *one],
            "verify-structure-no-policy": ["verify-structure", "--cap", "6"],
        }
        for name, argv in modes.items():
            cases[f"{name}[{graph}]"] = argv
    return cases


CASES = _cases()


def run_case(case: str, tmp: Path) -> dict:
    """Run one case through ``main`` in ``tmp`` and collect what it wrote."""
    graph = case[case.index("[") + 1 : -1]
    graph_path = tmp / "graph.json"
    graph_path.write_text(json.dumps(_GRAPHS[graph]))
    out_dir = tmp / "out"
    argv = [*CASES[case][:1], "--graph", str(graph_path), "--out", str(out_dir),
            *CASES[case][1:]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(argv)
    first, _, rest = stdout.getvalue().partition("\n")
    assert first.startswith("manifest: ")
    files = {
        path.name: path.read_text()
        for path in sorted(out_dir.glob("*"))
        if path.name != "manifest.json"
    }
    return {"exit": status, "stdout": rest, "stderr": stderr.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_mode_output_is_pinned(case, golden, tmp_path):
    got = run_case(case, tmp_path)
    want = golden[case]
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert got["stdout"] == want["stdout"]
    assert got["files"] == want["files"]


if __name__ == "__main__":
    record = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            record[case] = run_case(case, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN}")
