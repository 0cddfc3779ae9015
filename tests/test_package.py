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
