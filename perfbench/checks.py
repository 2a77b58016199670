"""Output checks on one pipeline run directory.

Every check reads the artifacts the run wrote; none compares bytes with a
stored copy, so a method change that keeps the acceptance properties passes.
check_run returns a list of problems; an empty list means the run is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Round-off allowed in the stored invariant A = weiss_core - ghost_term.
RECOMBINE_RTOL = 1e-12


def _scan_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    return {name: data[:, j] for j, name in enumerate(rows[0])}


def _ghost_values(run_dir: Path, i: int) -> tuple[dict, np.ndarray]:
    meta = json.loads((run_dir / f"ghost_{i}.json").read_text())["meta"]
    values = np.frombuffer((run_dir / f"ghost_{i}.bin").read_bytes(), dtype="<f8")
    return meta, values


def check_run(run_dir: Path, expect: dict) -> list[str]:
    run_dir = Path(run_dir)
    try:
        summary = json.loads((run_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    n = summary.get("n_points")
    if n != expect["n_points"]:
        problems.append(f"n_points {n} != {expect['n_points']}")
        return problems
    for i, point in enumerate(summary["per_point"]):
        verdict = point["blowup"]["verdict"]
        if verdict != expect["verdict"]:
            problems.append(f"point {i}: verdict {verdict!r} != {expect['verdict']!r}")
        try:
            meta, phi = _ghost_values(run_dir, i)
            scan = _scan_columns(run_dir / f"scan_{i}.csv")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"point {i}: artifacts unreadable: {exc}")
            continue
        if not meta["residual"] <= expect["ghost_tol"]:
            problems.append(f"point {i}: ghost residual {meta['residual']:.3e} > ghost_tol")
        a, core, gt = scan["A"], scan["weiss_core"], scan["ghost_term"]
        slack = RECOMBINE_RTOL * np.maximum(1.0, np.abs(core) + np.abs(gt))
        if not np.all(np.abs(a - (core - gt)) <= slack):
            problems.append(f"point {i}: scan rows break A = weiss_core - ghost_term")
        if expect.get("zero_violations"):
            tol = point["monotonicity"]["tol_mono"]
            drops = int(np.sum(a[1:] < a[:-1] - tol))
            listed = len(point["monotonicity"]["violations"])
            if drops or listed:
                problems.append(
                    f"point {i}: {max(drops, listed)} monotonicity violation(s), expected 0"
                )
        if expect.get("zero_potential"):
            if np.any(phi != 0.0) or meta["iterations"] != 0:
                problems.append(
                    f"point {i}: potential nonzero or CG ran "
                    f"({meta['iterations']} iterations) on a zero flux"
                )
        if "constancy" in expect:
            med = float(np.median(a))
            spread = float(np.max(np.abs(a - med)) / abs(med))
            if not spread <= expect["constancy"]:
                problems.append(
                    f"point {i}: A(r) varies by {spread:.4f} of its median "
                    f"(> {expect['constancy']})"
                )
    return problems
