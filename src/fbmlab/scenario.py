"""Scenario files: the JSON configuration for a full experiment run.

A scenario fixes the grid, the density model, boundary data, the points of
interest with their radius ladder, and solver tolerances.  `validate_dict`
returns human-readable diagnostics (empty means valid); `Scenario.from_dict`
turns a valid dictionary into typed objects and raises ScenarioError
otherwise; `read_scenario` reads the JSON file both start from.  Schema
version 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .blowup import MIN_SCALE_CELLS, SCALE_FRACTION
from .density import DensityModel
from .errors import GeometryError, ScenarioError
from .fieldio import _is_int, _is_number, _is_vector
from .fields import Grid, geometric_radii
from .ghost import DEFAULT_TOL as DEFAULT_GHOST_TOL, SHELL_STEP_CELLS
from .minimizer import (
    DEFAULT_EPS_CELLS, DEFAULT_MAX_ITER, DEFAULT_TOL, BoundaryData, Problem, ramp_free_boundary
)

__all__ = [
    "SCHEMA_VERSION",
    "RADIUS_MARGIN",
    "Scenario",
    "validate_dict",
    "read_scenario",
    "load_scenario",
]

SCHEMA_VERSION = 1
RADIUS_MARGIN = 0.05


def _parse(data) -> tuple[Scenario | None, list[str]]:
    """The one parse behind validate_dict and Scenario.from_dict.

    Checks here that each key is present with the right JSON type, then
    builds each typed object once (Grid, DensityModel, BoundaryData, the
    radius ladder, Problem) and leaves every value constraint to it; the
    Problem it builds seeds Scenario.problem, which is not built again.  A
    constructor's ValueError comes back tagged with the scenario path.  Only
    what no constructor owns is checked here: the solver scalars, 2 cells on
    every grid axis, and an r_min above the shell identity's step.
    Returns the Scenario (None if anything is wrong) and the problems found.
    """
    if not isinstance(data, dict):
        return None, ["scenario: top level must be a JSON object"]
    problems: list[str] = []

    def need(ok: bool, problem: str) -> bool:
        # record the problem unless ok; callers list checks in all([...]) so
        # every one of them runs and reports
        if not ok:
            problems.append(problem)
        return ok

    def section(name: str) -> dict | None:
        sec = data.get(name)
        ok = need(isinstance(sec, dict), f"{name}: required section missing or not an object")
        return sec if ok else None

    def build(make, path: str, *fields: str, **elsewhere: str):
        # A constructor message about one field starts with that field's
        # name: one of `fields` reads "path.field ...", one in `elsewhere`
        # takes the prefix given there, any other message "path: ...".
        try:
            return make()
        except ValueError as exc:
            msg = str(exc)
            word = msg.split(" ", 1)[0]
            prefix = f"{path}." if word in fields else elsewhere.get(word, f"{path}: ")
            problems.append(prefix + msg)
            return None

    version = data.get("schema_version")
    need(version == SCHEMA_VERSION, f"schema_version: must be {SCHEMA_VERSION}, got {version!r}")

    grid = None
    g = section("grid")
    if g is not None:
        missing = [key for key in ("lo", "hi", "n_cells") if key not in g]
        problems += [f"grid.{key}: required" for key in missing]
        if not missing and all([
            need(_is_vector(g["lo"]), "grid.lo: need a list of numbers"),
            need(_is_vector(g["hi"]), "grid.hi: need a list of numbers"),
            need(
                isinstance(g["n_cells"], list) and all(_is_int(n) for n in g["n_cells"]),
                "grid.n_cells: need a list of integers",
            ),
        ]):
            grid = build(
                lambda: Grid(tuple(g["lo"]), tuple(g["hi"]), tuple(g["n_cells"])),
                "grid", "lo", "hi", "n_cells",
            )
        # the derivative stencils of every stage need 3 nodes on every axis
        if grid is not None and min(grid.n_cells) < 2:
            problems.append(f"grid.n_cells: need at least 2 cells on every axis, "
                            f"got {list(grid.n_cells)}")
            grid = None

    model = None
    d = section("density")
    if d is not None and all([
        need(isinstance(d.get("kind"), str), "density.kind: need a string"),
        need(_is_number(d.get("alpha", 0.0)), "density.alpha: must be a number"),
        need(_is_number(d.get("scale", 1.0)), "density.scale: must be a number"),
    ]):
        model = build(
            lambda: DensityModel(
                kind=d["kind"],
                alpha=float(d.get("alpha", 0.0)),
                scale=float(d.get("scale", 1.0)),
            ),
            "density", "kind", "alpha", "scale",
        )

    boundary = None
    b = section("boundary")
    if b is not None and all([
        need(isinstance(b.get("kind"), str), "boundary.kind: need a string"),
        *[
            need(_is_vector(b[key]), f"boundary.{key}: need a list of numbers")
            for key in ("direction", "center")
            if key in b
        ],
        need(_is_number(b.get("angle", 0.0)), "boundary.angle: must be a number"),
        need(isinstance(b.get("path", ""), str), "boundary.path: must be a path string"),
    ]):
        boundary = build(
            lambda: BoundaryData(
                kind=b["kind"],
                direction=tuple(b["direction"]) if "direction" in b else None,
                center=tuple(b["center"]) if "center" in b else None,
                angle=float(b["angle"]) if "angle" in b else None,
                path=b.get("path"),
            ),
            "boundary", "kind", "direction", "center", "angle", "path",
        )

    ladder = None
    r = section("radii")
    if r is not None and all([
        need(_is_number(r.get(key)), f"radii.{key}: must be a number")
        for key in ("r_min", "r_max", "ratio")
    ]):
        ladder = build(
            lambda: geometric_radii(r["r_min"], r["r_max"], r["ratio"]),
            "radii", "r_min", "r_max", "ratio",
        )
    if grid is not None and ladder is not None:
        # the shell identity also reads the sphere of radius r_min - step
        step = SHELL_STEP_CELLS * grid.h
        need(
            r["r_min"] > step,
            f"radii.r_min: must exceed the shell identity's step {SHELL_STEP_CELLS} h "
            f"= {step}, got {r['r_min']}",
        )

    stride = data.get("auto_stride", 1)
    need(_is_int(stride) and stride >= 1, "auto_stride: must be a positive integer")
    points = data.get("points_of_interest", "auto")
    if points != "auto" and need(
        isinstance(points, list) and len(points) > 0,
        'points_of_interest: must be "auto" or a nonempty list of points',
    ) and grid is not None:
        for i, z in enumerate(points):
            need(
                _is_vector(z) and len(z) == grid.dim,
                f"points_of_interest[{i}]: need {grid.dim} coordinates",
            )

    for key in ("tol", "ghost_tol"):
        if key in data:
            need(
                _is_number(data[key]) and 0.0 < data[key] < math.inf,
                f"{key}: must be a positive finite number",
            )
    if "max_iter" in data:
        need(
            _is_int(data["max_iter"]) and data["max_iter"] >= 0,
            "max_iter: must be a nonnegative integer",
        )
    for key in ("field_path", "output_dir"):
        if key in data:
            need(isinstance(data[key], str), f"{key}: must be a path string")
    problem = None
    if all([
        need(_is_number(data[key]), f"{key}: must be a number")
        for key in ("lambda", "eps_factor")
        if key in data
    ]):
        lam = float(data["lambda"]) if "lambda" in data else None
        eps_factor = float(data.get("eps_factor", DEFAULT_EPS_CELLS))
        if all(x is not None for x in (grid, model, boundary)):
            problem = build(
                lambda: Problem(grid, model, boundary, lam=lam, eps=eps_factor * grid.h),
                "boundary", "direction", "center",
                lam="lambda: ", eps="eps_factor: ",
            )
    if problems:
        return None, problems

    if points != "auto":
        points = tuple(tuple(float(c) for c in z) for z in points)
    s = Scenario(
        grid=grid,
        model=model,
        boundary=boundary,
        r_min=float(r["r_min"]),
        r_max=float(r["r_max"]),
        ratio=float(r["ratio"]),
        points=points,
        auto_stride=stride,
        lam=lam,
        tol=float(data.get("tol", DEFAULT_TOL)),
        max_iter=int(data.get("max_iter", DEFAULT_MAX_ITER)),
        eps_factor=eps_factor,
        ghost_tol=float(data.get("ghost_tol", DEFAULT_GHOST_TOL)),
        field_path=data.get("field_path"),
        output_dir=data.get("output_dir"),
    )
    # cached_property reads the instance dict, which a frozen dataclass leaves writable
    s.__dict__["problem"] = problem
    return s, []


def validate_dict(data) -> list[str]:
    """Schema and feasibility diagnostics for a raw scenario dictionary.

    Returns a list of human-readable problems; an empty list means the
    scenario is valid.  Never raises.  The checks are those of
    `Scenario.from_dict`, plus geometric feasibility of explicit points:
    the ball of radius Scenario.reach around each must fit in the box,
    which `Scenario.from_dict` defers to run time (a GeometryError there).
    """
    s, problems = _parse(data)
    if s is not None and s.points != "auto":
        for i, z in enumerate(s.points):
            try:
                s.grid.require_ball_inside(z, s.reach)
            except GeometryError as exc:
                problems.append(
                    f"points_of_interest[{i}]: with the reach max(r_max (1 + margin), "
                    f"last radius + shell step, finest blow-up scale), {exc}"
                )
    return problems


@dataclass(frozen=True)
class Scenario:
    """Typed view of a validated scenario dictionary; each solver key defaults
    to the constant of the module that applies it (minimizer, ghost)."""

    grid: Grid
    model: DensityModel
    boundary: BoundaryData
    r_min: float
    r_max: float
    ratio: float
    points: tuple[tuple[float, ...], ...] | str = "auto"
    auto_stride: int = 1
    lam: float | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    eps_factor: float = DEFAULT_EPS_CELLS
    ghost_tol: float = DEFAULT_GHOST_TOL
    field_path: str | None = None
    output_dir: str | None = None

    @cached_property
    def problem(self) -> Problem:
        """The minimization instance, the one owner of λ and ε = eps_factor h: the
        parse's, or built once for a Scenario made otherwise (dataclasses.replace)."""
        g = self.grid
        return Problem(g, self.model, self.boundary, self.lam, self.eps_factor * g.h)

    @property
    def phase_level(self) -> float:
        """The level that separates the field's phases for the diagnostics.

        A scenario that names a field file diagnoses a field with an exact
        zero phase: 0.  Otherwise the field is the minimizer of the ramped
        energy, whose zero phase is a positive tail, and the level is
        minimizer.ramp_free_boundary(eps), where the affine part of the
        ramped profile vanishes.  A field read back with --field belongs to
        the scenario, so it gets the scenario's level.
        """
        return 0.0 if self.field_path is not None else ramp_free_boundary(self.problem.eps)

    @property
    def reach(self) -> float:
        """Radius of the ball every point of interest must fit, the largest of three.

        The scan's r_max (1 + margin); the ladder's last radius plus the
        shell identity's step (ghost.SHELL_STEP_CELLS * h); and the reach the
        blow-up's finest scale MIN_SCALE_CELLS * h needs, since
        blowup.default_scales starts at SCALE_FRACTION of the centered reach.
        """
        h = self.grid.h
        return max(
            self.r_max * (1.0 + RADIUS_MARGIN),
            float(self.radii()[-1]) + SHELL_STEP_CELLS * h,
            MIN_SCALE_CELLS * h / SCALE_FRACTION,
        )

    def radii(self) -> np.ndarray:
        return geometric_radii(self.r_min, self.r_max, self.ratio)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        s, problems = _parse(data)
        if problems:
            raise ScenarioError("; ".join(problems))
        return s


def read_scenario(path):
    """The decoded JSON of a scenario file, not yet validated (ScenarioError if unreadable)."""
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"scenario file {p} does not exist")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: not valid JSON ({exc})") from exc


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    return Scenario.from_dict(read_scenario(path))
