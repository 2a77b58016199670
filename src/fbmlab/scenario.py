"""Scenario files: the JSON configuration for a full experiment run.

A scenario fixes the grid, the density model, boundary data, the points of
interest with their radius ladder, and solver tolerances.  `validate_dict`
returns human-readable diagnostics (empty means valid); `Scenario.from_dict`
turns a valid dictionary into typed objects and raises ScenarioError
otherwise.  Schema version 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .density import DensityModel, bernoulli_lambda
from .errors import ScenarioError
from .fields import Grid, geometric_radii
from .minimizer import BOUNDARY_KINDS, BoundaryData, Problem

__all__ = [
    "SCHEMA_VERSION",
    "RADIUS_MARGIN",
    "Scenario",
    "validate_dict",
    "load_scenario",
]

SCHEMA_VERSION = 1
RADIUS_MARGIN = 0.05

_DENSITY_KINDS = ("linear", "arctan")

_SOLVER_DEFAULTS = {
    "tol": 1e-6,
    "max_iter": 10_000,
    "eps_factor": 2.0,
    "ghost_tol": 1e-8,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_point(v, dim: int | None) -> bool:
    if not isinstance(v, (list, tuple)) or not all(_is_number(c) for c in v):
        return False
    return dim is None or len(v) == dim


def _grid_diagnostics(data: dict) -> list[str]:
    out = []
    grid = data.get("grid")
    if not isinstance(grid, dict):
        return ["grid: required section missing or not an object"]
    for key in ("lo", "hi", "n_cells"):
        if key not in grid:
            out.append(f"grid.{key}: required")
    if out:
        return out
    lo, hi, nc = grid["lo"], grid["hi"], grid["n_cells"]
    if not (_is_point(lo, None) and len(lo) in (2, 3)):
        out.append("grid.lo: need 2 or 3 coordinates")
        return out
    dim = len(lo)
    if not _is_point(hi, dim):
        out.append(f"grid.hi: need {dim} coordinates")
    if (
        not isinstance(nc, (list, tuple))
        or len(nc) != dim
        or not all(isinstance(n, int) and n >= 1 for n in nc)
    ):
        out.append(f"grid.n_cells: need {dim} positive integers")
    if out:
        return out
    if any(b <= a for a, b in zip(lo, hi)):
        out.append("grid: hi must exceed lo on every axis")
        return out
    steps = [(b - a) / n for a, b, n in zip(lo, hi, nc)]
    if any(abs(s - steps[0]) > 1e-12 * max(1.0, abs(steps[0])) for s in steps):
        out.append("grid: spacing must be uniform across axes")
    return out


def _density_diagnostics(data: dict) -> list[str]:
    density = data.get("density")
    if not isinstance(density, dict):
        return ["density: required section missing or not an object"]
    out = []
    kind = density.get("kind")
    if kind not in _DENSITY_KINDS:
        out.append(f"density.kind: must be one of {_DENSITY_KINDS}")
    alpha = density.get("alpha", 0.0)
    if not _is_number(alpha):
        out.append("density.alpha: must be a number")
    elif alpha < 0:
        out.append("density.alpha must be nonnegative")
    scale = density.get("scale", 1.0)
    if not _is_number(scale) or scale <= 0:
        out.append("density.scale: must be a positive number")
    return out


def _boundary_diagnostics(data: dict, dim: int | None) -> list[str]:
    boundary = data.get("boundary")
    if not isinstance(boundary, dict):
        return ["boundary: required section missing or not an object"]
    out = []
    kind = boundary.get("kind")
    if kind not in BOUNDARY_KINDS:
        out.append(f"boundary.kind: must be one of {BOUNDARY_KINDS}")
        return out
    if kind == "halfplane":
        direction = boundary.get("direction")
        if not _is_point(direction, dim) or not any(c != 0 for c in direction):
            out.append("boundary.direction: need a nonzero direction vector")
    elif kind == "radial":
        if not _is_point(boundary.get("center"), dim):
            out.append("boundary.center: need a point")
    elif kind == "wedge":
        angle = boundary.get("angle")
        if not _is_number(angle) or not 0 < angle < 2 * np.pi:
            out.append("boundary.angle: need an opening in (0, 2 pi)")
        if dim is not None and dim != 2:
            out.append("boundary: wedge data is two dimensional only")
    elif kind == "file":
        if not isinstance(boundary.get("path"), str):
            out.append("boundary.path: need a file path")
    return out


def _radii_diagnostics(data: dict) -> list[str]:
    radii = data.get("radii")
    if not isinstance(radii, dict):
        return ["radii: required section missing or not an object"]
    out = []
    r_min, r_max = radii.get("r_min"), radii.get("r_max")
    if not _is_number(r_min) or r_min <= 0:
        out.append("radii.r_min: must be a positive number")
    if not _is_number(r_max) or (r_min is not None and _is_number(r_min) and r_max is not None and _is_number(r_max) and r_max < r_min):
        out.append("radii.r_max: must be a number >= r_min")
    ratio = radii.get("ratio")
    if not _is_number(ratio) or ratio <= 1.0:
        out.append("radii.ratio must exceed 1")
    return out


def _points_diagnostics(data: dict, dim: int | None) -> list[str]:
    points = data.get("points_of_interest", "auto")
    out = []
    if points == "auto":
        stride = data.get("auto_stride", 1)
        if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
            out.append("auto_stride: must be a positive integer")
        return out
    if not isinstance(points, list) or not points:
        return ['points_of_interest: must be "auto" or a nonempty list of points']
    for i, z in enumerate(points):
        if not _is_point(z, dim):
            out.append(f"points_of_interest[{i}]: need {dim} coordinates")
    return out


def _feasibility_diagnostics(data: dict) -> list[str]:
    """r_max (1 + margin) balls around every explicit point must fit."""
    points = data.get("points_of_interest", "auto")
    if points == "auto" or not isinstance(points, list):
        return []
    grid, radii = data.get("grid"), data.get("radii")
    if not isinstance(grid, dict) or not isinstance(radii, dict):
        return []
    lo, hi, r_max = grid.get("lo"), grid.get("hi"), radii.get("r_max")
    if not (_is_point(lo, None) and _is_point(hi, len(lo)) and _is_number(r_max)):
        return []
    out = []
    need = r_max * (1.0 + RADIUS_MARGIN)
    for i, z in enumerate(points):
        if not _is_point(z, len(lo)):
            continue
        if any(c - need < a or c + need > b for c, a, b in zip(z, lo, hi)):
            out.append(
                f"points_of_interest[{i}]: ball of radius r_max (1 + margin) "
                f"= {need} around {tuple(z)} leaves the grid box"
            )
    return out


def _solver_diagnostics(data: dict) -> list[str]:
    out = []
    for key in ("tol", "eps_factor", "ghost_tol"):
        if key in data and (not _is_number(data[key]) or data[key] <= 0):
            out.append(f"{key}: must be a positive number")
    if "max_iter" in data and (
        not isinstance(data["max_iter"], int)
        or isinstance(data["max_iter"], bool)
        or data["max_iter"] < 0
    ):
        out.append("max_iter: must be a nonnegative integer")
    return out


def _schema_diagnostics(data) -> list[str]:
    if not isinstance(data, dict):
        return ["scenario: top level must be a JSON object"]
    out = []
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        out.append(f"schema_version: must be {SCHEMA_VERSION}, got {version!r}")
    out += _grid_diagnostics(data)
    grid = data.get("grid")
    dim = None
    if isinstance(grid, dict) and _is_point(grid.get("lo"), None):
        dim = len(grid["lo"])
    out += _density_diagnostics(data)
    out += _boundary_diagnostics(data, dim)
    out += _radii_diagnostics(data)
    out += _points_diagnostics(data, dim)
    out += _solver_diagnostics(data)
    if "lambda" in data and not _is_number(data["lambda"]):
        out.append("lambda: must be a number when present")
    if "seed" in data and (
        not isinstance(data["seed"], int) or isinstance(data["seed"], bool)
    ):
        out.append("seed: must be an integer")
    if "field_path" in data and not isinstance(data["field_path"], str):
        out.append("field_path: must be a path string")
    if "output_dir" in data and not isinstance(data["output_dir"], str):
        out.append("output_dir: must be a path string")
    return out


def _typed(data: dict) -> tuple[Grid, DensityModel, BoundaryData]:
    """Typed grid, density model and boundary data of a schema-valid dict.

    Also builds the minimization Problem, so every constraint a run checks
    is checked here.  A ValueError from a constructor becomes a
    ScenarioError tagged with the scenario path it came from.
    """

    def build(path: str, make):
        try:
            return make()
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    g, d, b = data["grid"], data["density"], data["boundary"]
    grid = build("grid", lambda: Grid(tuple(g["lo"]), tuple(g["hi"]), tuple(g["n_cells"])))
    model = build(
        "density",
        lambda: DensityModel(
            kind=d["kind"],
            alpha=float(d.get("alpha", 0.0)),
            scale=float(d.get("scale", 1.0)),
        ),
    )
    boundary = build(
        "boundary",
        lambda: BoundaryData(
            kind=b["kind"],
            direction=tuple(b["direction"]) if "direction" in b else None,
            center=tuple(b["center"]) if "center" in b else None,
            angle=float(b["angle"]) if "angle" in b else None,
            path=b.get("path"),
        ),
    )
    lam = float(data["lambda"]) if "lambda" in data else None
    eps = float(data.get("eps_factor", _SOLVER_DEFAULTS["eps_factor"])) * grid.h
    build("lambda", lambda: Problem(grid, model, boundary, lam=lam, eps=eps))
    return grid, model, boundary


def validate_dict(data) -> list[str]:
    """Schema and feasibility diagnostics for a raw scenario dictionary.

    Returns a list of human-readable problems; an empty list means the
    scenario is valid.  Never raises.  A schema-valid dictionary is also
    turned into the typed objects a run builds, so a constraint only they
    enforce (e.g. a negative lambda) is reported here too.  Geometric
    feasibility of explicit points is reported here but deferred to run
    time by `Scenario.from_dict`, where it surfaces as a GeometryError.
    """
    out = _schema_diagnostics(data)
    if not out:
        try:
            _typed(data)
        except ScenarioError as exc:
            out.append(str(exc))
    if isinstance(data, dict):
        out += _feasibility_diagnostics(data)
    return out


@dataclass(frozen=True)
class Scenario:
    """Typed view of a validated scenario dictionary."""

    grid: Grid
    model: DensityModel
    boundary: BoundaryData
    r_min: float
    r_max: float
    ratio: float
    points: tuple[tuple[float, ...], ...] | str = "auto"
    auto_stride: int = 1
    lam: float | None = None
    tol: float = _SOLVER_DEFAULTS["tol"]
    max_iter: int = _SOLVER_DEFAULTS["max_iter"]
    eps_factor: float = _SOLVER_DEFAULTS["eps_factor"]
    ghost_tol: float = _SOLVER_DEFAULTS["ghost_tol"]
    field_path: str | None = None
    output_dir: str | None = None
    seed: int = 0

    @property
    def lam_value(self) -> float:
        return bernoulli_lambda(self.model) if self.lam is None else self.lam

    @property
    def eps(self) -> float:
        return self.eps_factor * self.grid.h

    def radii(self) -> np.ndarray:
        return geometric_radii(self.r_min, self.r_max, self.ratio)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        problems = _schema_diagnostics(data)
        if problems:
            raise ScenarioError("; ".join(problems))
        grid, model, boundary = _typed(data)
        radii = data["radii"]
        points = data.get("points_of_interest", "auto")
        if points != "auto":
            points = tuple(tuple(float(c) for c in z) for z in points)
        solver = {k: data.get(k, v) for k, v in _SOLVER_DEFAULTS.items()}
        return Scenario(
            grid=grid,
            model=model,
            boundary=boundary,
            r_min=float(radii["r_min"]),
            r_max=float(radii["r_max"]),
            ratio=float(radii["ratio"]),
            points=points,
            auto_stride=int(data.get("auto_stride", 1)),
            lam=float(data["lambda"]) if "lambda" in data else None,
            tol=float(solver["tol"]),
            max_iter=int(solver["max_iter"]),
            eps_factor=float(solver["eps_factor"]),
            ghost_tol=float(solver["ghost_tol"]),
            field_path=data.get("field_path"),
            output_dir=data.get("output_dir"),
            seed=int(data.get("seed", 0)),
        )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file {p} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: not valid JSON ({exc})") from exc
    return Scenario.from_dict(data)
