"""Benchmark inputs: one scenario per workload, generated from a seed.

The three workloads keep the grid spacing, density and radius ladder of the
scenarios they stand for, on boxes small enough that one pipeline run takes
a few seconds, so a measured run holds several pipeline runs:

  arctan2d  the bundled 2D arctan half-plane scenario on a 1.0 box
            (128^2 cells, h = 1/128 as bundled), 800 descent steps, 2
            points.  The minimizer dominates; the ghost stage runs ~490 CG
            steps per point.
  linear3d  the bundled 3D linear half-plane scenario on a 1.25 box
            (40^3 cells, h = 1/32 as bundled), 120 descent steps, 1 point.
            The flux is identically zero, so the ghost stage does no CG
            work; scan and blow-up run on full 3D grids.
  field3d   a stored 3D field in closed form, arctan density, 40^3 cells,
            no minimization, 2 points.  The 3D Neumann solve dominates.

The seed picks the points of interest (and, for field3d, the phases of the
field).  Points are explicit, not "auto", so the number of points and the
work per point do not depend on where the minimizer leaves the free
boundary.  Points sit one cell below the analytic half-plane, inside the
band where the discrete free boundary settles, or on the analytic zero set
of the stored field.

Each workload also states what every run must show (see checks.py).  The
field file is written with numpy in the documented field format, not with
fbmlab's writer, so the input cannot move when the program changes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("arctan2d", "linear3d", "field3d")

RADIUS_MARGIN = 0.05  # the scenario rule: balls of r_max (1 + margin) must fit
RADII_2D = {"r_min": 0.0625, "r_max": 0.35, "ratio": 1.3}
RADII_3D = {"r_min": 0.15, "r_max": 0.4, "ratio": 1.1}
FIELD3D_AMPLITUDE = 0.1


def _box(half: float, n: int, dim: int) -> dict:
    return {"lo": [-half] * dim, "hi": [half] * dim, "n_cells": [n] * dim}


def _tangential(rng, half: float, n: int, r_max: float, count: int, dim: int) -> np.ndarray:
    """count points' first dim-1 coordinates: grid nodes whose scan balls fit.

    Node-aligned points see the same cut cells at every seed.  In 3D every
    point also lies on the square max(|x1|, |x2|) = c, the widest that fits,
    so every point is equally far from the box and gets the same blow-up
    ladder: work and memory per point do not depend on the seed.
    """
    h = 2.0 * half / n
    reach = int((half - r_max * (1.0 + RADIUS_MARGIN)) / h)
    free = rng.integers(-reach, reach, size=(count, dim - 1), endpoint=True)
    if dim == 3:
        pinned = rng.integers(2, size=count)
        free[np.arange(count), pinned] = reach * rng.choice((-1, 1), size=count)
    return h * free


def _halfplane_scenario(rng, dim, half, n, density, radii, max_iter, count) -> dict:
    h = 2.0 * half / n
    xs = _tangential(rng, half, n, radii["r_max"], count, dim)
    points = [[float(c) for c in x] + [-h] for x in xs]
    return {
        "schema_version": 1,
        "grid": _box(half, n, dim),
        "density": density,
        "boundary": {"kind": "halfplane", "direction": [0.0] * (dim - 1) + [1.0]},
        "points_of_interest": points,
        "radii": radii,
        "tol": 0.001,
        "max_iter": max_iter,
        "ghost_tol": 1e-08,
    }


def write_field_pair(values: np.ndarray, half: float, stem: Path) -> Path:
    """Store node values as stem.json (header) + stem.bin (<f8, row-major)."""
    n = values.shape[0] - 1
    dim = values.ndim
    header = {"dim": dim, "lo": [-half] * dim, "hi": [half] * dim, "n_cells": [n] * dim}
    stem.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    data = stem.with_suffix(".bin")
    data.write_bytes(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return data


def _field3d(rng, out_dir: Path) -> dict:
    """u = max(x3 - d cos(pi x1 + a) cos(pi x2 + b), 0) with seeded phases.

    The box spans one full period in x1 and x2, so the field's energy does
    not depend on the phases; only where the points land does.
    """
    half, n, count = 1.0, 40, 2
    a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)

    def surface(x1, x2):
        return FIELD3D_AMPLITUDE * np.cos(np.pi * x1 + a) * np.cos(np.pi * x2 + b)

    x = np.linspace(-half, half, n + 1)
    x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
    path = write_field_pair(np.maximum(x3 - surface(x1, x2), 0.0), half, out_dir / "stored_field")
    xs = _tangential(rng, half, n, RADII_3D["r_max"], count, 3)
    points = [[float(p), float(q), float(surface(p, q))] for p, q in xs]
    return {
        "schema_version": 1,
        "grid": _box(half, n, 3),
        "density": {"kind": "arctan", "alpha": 0.1},
        "boundary": {"kind": "halfplane", "direction": [0.0, 0.0, 1.0]},
        "points_of_interest": points,
        "radii": RADII_3D,
        "tol": 0.001,
        "max_iter": 1200,
        "ghost_tol": 1e-08,
        "field_path": str(path.resolve()),
    }


def make(workload: str, seed: int, out_dir: Path) -> tuple[Path, dict]:
    """Write the workload's inputs under out_dir; return (scenario path, expectations).

    Expectations are what the program gave, at every seed tried, when this
    benchmark was added: the number of points, the blow-up verdict at every
    point (2D runs have none, linear3d
    points carry the indicator smoothing, field3d points sit on a curved
    boundary), and the workload's own acceptance property.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "arctan2d":
        data = _halfplane_scenario(
            rng, 2, 0.5, 128, {"kind": "arctan", "alpha": 0.1}, RADII_2D, 800, 2
        )
        expect = {"verdict": "unavailable", "zero_violations": True}
    elif workload == "linear3d":
        data = _halfplane_scenario(rng, 3, 0.625, 40, {"kind": "linear"}, RADII_3D, 120, 1)
        # The README's 2.5% constancy is for the bundled 1200-step 64^3 run;
        # after 120 steps on this box it measured 9.1% when this check was added.
        expect = {"verdict": "inconclusive", "zero_potential": True, "constancy": 0.125}
    elif workload == "field3d":
        data = _field3d(rng, out_dir)
        expect = {"verdict": "inconclusive"}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    expect["n_points"] = len(data["points_of_interest"])
    expect["ghost_tol"] = data["ghost_tol"]
    path = out_dir / f"{workload}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path, expect
