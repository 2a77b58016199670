"""Every name a module lists in __all__ resolves; the runtime needs numpy only."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fbmlab

MODULES = ["fbmlab"] + [
    f"fbmlab.{m.name}" for m in pkgutil.iter_modules(fbmlab.__path__) if m.name != "__main__"
]

TINY_2D = {
    "schema_version": 1,
    "grid": {"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [32, 32]},
    "density": {"kind": "arctan", "alpha": 0.1},
    "boundary": {"kind": "halfplane", "direction": [0.0, 1.0]},
    "points_of_interest": [[0.0, 0.0]],
    "radii": {"r_min": 0.1, "r_max": 0.3, "ratio": 1.4},
    "tol": 1e-3,
    "max_iter": 20,
}

# Runs every stage, blow-up included, then lists the scipy modules it loaded.
PROBE = """
import sys
import fbmlab, fbmlab.cli
assert fbmlab.cli.main(["pipeline", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_pipeline_loads_no_scipy(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_2D))
    env = {**os.environ, "PYTHONPATH": str(Path(fbmlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(cfg), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "blowup_0.csv").is_file()
    assert proc.stdout.splitlines()[-1] == "[]"
