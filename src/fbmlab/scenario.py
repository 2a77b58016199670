"""Scenario files: the JSON configuration for a full experiment run.

A scenario fixes the grid, the density model, boundary data, the points of
interest with their radius ladder, and solver tolerances.  The key tables
below are the schema (version 1): each key's JSON type, checked by
fieldio.check_keys, and any other key is reported as unknown.
`validate_dict` returns human-readable diagnostics (empty means valid);
`Scenario.from_dict` turns a valid dictionary into typed objects and raises
ScenarioError otherwise; `read_scenario` reads the JSON file both start from.
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
from .fieldio import (
    INTEGER, INTEGERS, NUMBER, NUMBERS, OBJECT, STORED_FIELD, STRING, JsonType, check_keys,
    read_field,
)
from .fields import Grid, geometric_radii
from .ghost import DEFAULT_TOL as DEFAULT_GHOST_TOL, SHELL_STEP_CELLS
from .minimizer import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, BoundaryData, Problem, boundary_keys, ramp_free_boundary
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


# Each section's JSON keys, required and optional, are the keywords of the
# constructor it feeds: Grid, DensityModel, BoundaryData, geometric_radii.
# Boundary data's keys are its kind's (minimizer.boundary_keys).
_SECTIONS = {
    "grid": ({"lo": NUMBERS, "hi": NUMBERS, "n_cells": INTEGERS}, {}),
    "density": ({"kind": STRING}, {"alpha": NUMBER, "scale": NUMBER}),
    "boundary": boundary_keys,
    "radii": ({"r_min": NUMBER, "r_max": NUMBER, "ratio": NUMBER}, {}),
}
_TOP = {"schema_version": INTEGER, **{name: OBJECT for name in _SECTIONS}}
_TOP_OPTIONAL = {
    "points_of_interest": JsonType(
        lambda v: v == "auto" or (isinstance(v, list) and len(v) > 0),
        '"auto" or a nonempty list of points',
    ),
    "auto_stride": INTEGER,
    "tol": NUMBER,
    "max_iter": INTEGER,
    "ghost_tol": NUMBER,
    "field_path": STORED_FIELD,
}
# the top-level keys that are Scenario fields of the same name
_FIELD_KEYS = ("auto_stride", "tol", "max_iter", "ghost_tol", "field_path")


def _read_keys(obj: dict, keys: dict, optional: dict, where: str,
               problems: list[str]) -> tuple[dict, bool]:
    """check_keys's held values of obj, and whether no key the tables name is
    faulty; every problem, a key that no table names too, goes to problems."""
    values, bad = check_keys(obj, keys, optional, where)
    unknown = [f"{where}{key}: unknown key" for key in obj
               if key not in keys and key not in optional]
    problems += [*bad.values(), *unknown]
    return values, not bad


def _parse(data) -> tuple[Scenario | None, list[str]]:
    """The one parse behind validate_dict and Scenario.from_dict.

    The key tables above are the schema: a key missing, mistyped or named by
    no table is one problem naming its path.  Each section that types right
    builds its typed object once, its keys the constructor's keywords, and
    then Problem; a constructor's ValueError comes back tagged with the
    scenario path.  The Problem and the ladder seed the Scenario.  Only what
    no constructor owns is checked here: the schema version, the solver
    scalars, 2 cells on every grid axis, 2 radii in the ladder, an r_min
    above the shell identity's step, and the points' dimension and
    finiteness.  A fault never hides one in an unrelated key.  Returns the
    Scenario (None if anything is wrong) and the problems.
    """
    if not isinstance(data, dict):
        return None, ["scenario: top level must be a JSON object"]
    problems: list[str] = []

    def need(ok: bool, problem: str) -> None:
        if not ok:
            problems.append(problem)

    def build(make, kwargs: dict, path: str, fields):
        # A constructor message about one field starts with that field's
        # name: one of `fields` reads "path.field ...", any other "path: ...".
        try:
            return make(**kwargs)
        except ValueError as exc:
            msg = str(exc)
            prefix = f"{path}." if msg.split(" ", 1)[0] in fields else f"{path}: "
            problems.append(prefix + msg)
            return None

    top, _ = _read_keys(data, _TOP, _TOP_OPTIONAL, "", problems)
    version = top.get("schema_version", SCHEMA_VERSION)
    need(version == SCHEMA_VERSION, f"schema_version: must be {SCHEMA_VERSION}, got {version!r}")

    sections, made = {}, {}
    for name, make in (("grid", Grid), ("density", DensityModel), ("boundary", BoundaryData),
                       ("radii", geometric_radii)):
        if name in top:
            tables = _SECTIONS[name]
            keys, optional = tables(top[name]) if callable(tables) else tables
            kwargs, whole = _read_keys(top[name], keys, optional, f"{name}.", problems)
            if whole:
                sections[name] = kwargs
                made[name] = build(make, kwargs, name, keys | optional)
    grid, ladder = made.get("grid"), made.get("radii")
    # the derivative stencils of every stage need 3 nodes on every axis
    if grid is not None and min(grid.n_cells) < 2:
        problems.append(f"grid.n_cells: need at least 2 cells on every axis, "
                        f"got {list(grid.n_cells)}")
        grid = None
    # log_radius_derivative needs two radii; one would write NaN columns
    if ladder is not None and ladder.size < 2:
        problems.append(f"radii: need at least 2 radii for the log-radius derivative, got "
                        f"{ladder.size} from r_min {sections['radii']['r_min']}, r_max "
                        f"{sections['radii']['r_max']} and ratio {sections['radii']['ratio']}")
        ladder = None
    if grid is not None and ladder is not None:
        # the shell identity also reads the sphere of radius r_min - step
        step, r_min = SHELL_STEP_CELLS * grid.h, sections["radii"]["r_min"]
        need(r_min > step, f"radii.r_min: must exceed the shell identity's step "
                           f"{SHELL_STEP_CELLS} h = {step}, got {r_min}")

    need(top.get("auto_stride", 1) >= 1, "auto_stride: must be a positive integer")
    points = top.get("points_of_interest", "auto")
    if points != "auto" and grid is not None:
        for i, z in enumerate(points):
            need(NUMBERS.test(z) and len(z) == grid.dim and all(map(math.isfinite, z)),
                 f"points_of_interest[{i}]: need {grid.dim} finite coordinates")
    for key in ("tol", "ghost_tol"):
        need(0.0 < top.get(key, 1.0) < math.inf, f"{key}: must be a positive finite number")
    need(top.get("max_iter", 0) >= 0, "max_iter: must be a nonnegative integer")

    problem = None
    model, boundary = made.get("density"), made.get("boundary")
    if all(x is not None for x in (grid, model, boundary)):
        problem = build(Problem, dict(grid=grid, model=model, boundary=boundary),
                        "boundary", sections["boundary"])
    if problems:
        return None, problems

    if points != "auto":
        points = tuple(tuple(float(c) for c in z) for z in points)
    s = Scenario(
        grid=grid, model=model, boundary=boundary, **sections["radii"],
        points=points,
        **{key: top[key] for key in _FIELD_KEYS if key in top},
    )
    # cached_property reads the instance dict, which a frozen dataclass leaves writable
    ladder.setflags(write=False)
    s.__dict__.update(problem=problem, _ladder=ladder)
    return s, []


def validate_dict(data) -> list[str]:
    """Schema and feasibility diagnostics for a raw scenario dictionary.

    Returns a list of human-readable problems; an empty list means the
    scenario is valid.  Never raises.  The checks are those of
    `Scenario.from_dict`, plus two that it defers to run time: each stored
    field the scenario names (each key typed STORED_FIELD: field_path, and
    the file boundary kind's) must pass read_field on the scenario's grid,
    and the ball of radius Scenario.reach around each explicit point must
    fit in the box.
    """
    s, problems = _parse(data)
    if s is None:
        return problems
    stored = [(key, data.get(key)) for key, t in _TOP_OPTIONAL.items() if t is STORED_FIELD]
    stored += [(f"boundary.{key}", data["boundary"][key])
               for key, t in boundary_keys(data["boundary"])[0].items() if t is STORED_FIELD]
    for key, path in stored:
        if path is not None:
            try:
                read_field(path, s.grid)
            except (ValueError, OSError) as exc:
                problems.append(f"{key}: {exc}")
    if s.points != "auto":
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
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    ghost_tol: float = DEFAULT_GHOST_TOL
    field_path: str | None = None

    @cached_property
    def problem(self) -> Problem:
        """The minimization instance at Problem's own λ = ψ(1) and ε = 2h: the
        parse's, or built once for a Scenario made otherwise (dataclasses.replace)."""
        return Problem(self.grid, self.model, self.boundary)

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

    @cached_property
    def _ladder(self) -> np.ndarray:
        ladder = geometric_radii(float(self.r_min), float(self.r_max), float(self.ratio))
        ladder.setflags(write=False)
        return ladder

    def radii(self) -> np.ndarray:
        """The radius ladder (read-only float64): the parse's, or built once for a
        Scenario made otherwise (dataclasses.replace)."""
        return self._ladder

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
