"""End-to-end experiment runs: minimize, ghost build, radius scan, blow-up.

Each stage is a pure function of a Scenario plus earlier-stage objects, so a
full run and a chain of single-stage invocations reading intermediate files
produce bit-identical artifacts.  run_pipeline certifies one point at a time:
a point's files are written as soon as its stages finish, and only its
summary row outlives it.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .errors import GeometryError
from .blowup import build_sequence, regularity_verdict
from .fieldio import read_field, write_csv, write_field, write_json, write_points_csv
from .fields import ScalarField, free_boundary_points
from .ghost import (
    GhostFunction,
    flux_bound_report,
    flux_field,
    flux_l2_profile,
    neumann_solve,
    read_ghost,
    shell_identity_report,
    stability_report,
    write_ghost,
)
from .minimizer import Problem, initial_guess, minimize
from .monotonicity import MonotonicityReport, scan, write_report_csv
from .scenario import Scenario

__all__ = [
    "build_problem",
    "stage_minimize",
    "obtain_field",
    "select_points",
    "stage_ghost",
    "stage_scan",
    "stage_blowup",
    "blowup_rows",
    "blowup_columns",
    "run_pipeline",
]


def build_problem(s: Scenario) -> Problem:
    """The scenario's minimization instance, Scenario.problem."""
    return s.problem


def stage_minimize(s: Scenario) -> tuple[ScalarField, dict]:
    """Descend from the boundary-data profile; report solver statistics.

    The initial guess is passed unnamed, so it dies once minimize has copied it.
    lipschitz is u.lipschitz, computed (and cached on u) after minimize's buffers are freed.
    """
    p = build_problem(s)
    u, rep = minimize(p, initial_guess(p), tol=s.tol, max_iter=s.max_iter)
    report = {
        "iterations": rep.iterations,
        "cg_iterations": rep.cg_iterations,
        "cg_history": rep.cg_history,
        "refit_steps": rep.refit_steps,
        "final_energy": rep.final_energy,
        "gradient_norm": rep.gradient_norm,
        "converged": rep.converged,
        "stop_reason": rep.stop_reason,
        "lipschitz": u.lipschitz,
        "lambda": p.lam,
        "eps": p.eps,
    }
    return u, report


def obtain_field(s: Scenario) -> tuple[ScalarField, dict]:
    """Load the scenario's field file if one is named, else minimize."""
    if s.field_path is None:
        return stage_minimize(s)
    return read_field(s.field_path, s.grid)[0], {"loaded_from": s.field_path}


def select_points(s: Scenario, u: ScalarField) -> tuple[tuple[float, ...], ...]:
    """Points of interest whose reach (Scenario.reach) fits in the box.

    Explicit points must all be feasible (GeometryError otherwise).  "auto"
    keeps the feasible free-boundary points, the crossings of the
    scenario's phase level (Scenario.phase_level), in lexicographic order,
    then takes every auto_stride-th of them, so at least one survives
    whenever any point is feasible.  Round-off in a minimized field's zero
    phase cannot move the crossings.
    """
    need = s.reach
    if s.points != "auto":
        for z in s.points:
            s.grid.require_ball_inside(z, need)
        return tuple(s.points)
    crossings = free_boundary_points(u, s.phase_level)
    keep = crossings[s.grid.balls_inside(crossings, need)]
    if not keep.size:
        raise GeometryError(
            f"no free-boundary point admits a ball of radius {need} inside the grid"
        )
    return tuple(tuple(float(c) for c in z) for z in keep[:: s.auto_stride])


def stage_ghost(s: Scenario, u: ScalarField, z) -> tuple[GhostFunction, dict]:
    """Flux at z, its gradient potential, and the certification report.

    The flux is built from the sharp field (u - l)^+ the scan reads, l =
    Scenario.phase_level, at every level: a stored field (l = 0) with
    negative nodes is split as its positive part, and for u >= 0 the
    positive part is u bit for bit.  The flux bound reads u.lipschitz,
    which bounds (u - l)^+ too; it is read first, so a first computation is
    over before the flux is built, and is cached on u for every later
    point.  (u - l)^+ dies with flux_field; the ghost records l.
    """
    lip = u.lipschitz
    flux = flux_field(_sharp_field(u, s.phase_level), s.model, z)
    g = replace(neumann_solve(flux, tol=s.ghost_tol), level=s.phase_level)
    # the sphere sampling runs before the reports that keep flux.norm_sq
    shell = [asdict(rec) for rec in shell_identity_report(flux, g, s.radii())]
    stab = stability_report(flux, g)
    bound = flux_bound_report(flux, s.model, lip)
    report = {
        # the solve's checked residual is this same weak-divergence ratio
        "weak_divergence_residual": g.residual,
        "stability": asdict(stab),
        "flux_bound": asdict(bound),
        "shell_identity": shell,
        "flux_l2_profile": [{"r": r, "value": v} for r, v in flux_l2_profile(flux, s.radii())],
    }
    return g, report


def _sharp_field(u: ScalarField, level: float) -> ScalarField:
    """(u - level)^+, built in one array that the field keeps uncopied."""
    values = np.subtract(u.values, level)
    np.maximum(values, 0.0, out=values)
    values.setflags(write=False)
    return ScalarField(u.grid, values)


def stage_scan(s: Scenario, u: ScalarField, g: GhostFunction) -> MonotonicityReport:
    """Radius scan at the ghost's base point, which must carry the scenario's F'(1) and level."""
    return scan(u, s.model, s.problem.lam, g.base_point, s.radii(), g, level=s.phase_level)


def stage_blowup(s: Scenario, u: ScalarField, z) -> dict:
    """Rescaling ladder at z with the regularity verdict read off it."""
    seq = build_sequence(u, z)
    return {
        "base_point": [float(c) for c in z],
        "scales": list(seq.scales),
        "deviations": list(seq.deviations),
        "deficits": list(seq.deficits),
        "directions": [list(d) for d in seq.directions],
        "verdict": regularity_verdict(seq, s.model),
    }


def blowup_columns(dim: int) -> list[str]:
    return ["scale", "deviation", "deficit"] + [f"e{a}" for a in range(dim)]


def blowup_rows(blow: dict) -> list[tuple]:
    return [
        (s, dv, df, *e)
        for s, dv, df, e in zip(
            blow["scales"], blow["deviations"], blow["deficits"], blow["directions"]
        )
    ]


def run_pipeline(s: Scenario, out_dir) -> dict:
    """Execute every stage and write all artifacts under out_dir, made first.

    Writes field.bin/.json, minimize.json, points.csv, then per point i, in
    order and as soon as its stages finish: ghost_i.bin/.json, scan_i.csv,
    blowup_i.csv; summary.json comes last, so a run that stops early leaves
    none.  Monotonicity violations are recorded in the summary, never fatal.
    u.lipschitz is computed once, by stage_minimize or, for a stored field,
    the first ghost stage.  Returns the summary dictionary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    u, minimize_report = obtain_field(s)
    write_field(u, out / "field.bin")
    write_json(out / "minimize.json", minimize_report)

    points = select_points(s, u)
    write_points_csv(np.asarray(points, dtype=float), out / "points.csv")

    per_point = [_run_point(s, u, i, z, out) for i, z in enumerate(points)]
    summary = {
        "schema_version": 1,
        "n_points": len(points),
        "minimize": minimize_report,
        "per_point": per_point,
        "total_violations": sum(len(p["monotonicity"]["violations"]) for p in per_point),
    }
    write_json(out / "summary.json", summary)
    return summary


def _run_point(s: Scenario, u: ScalarField, i: int, z, out: Path) -> dict:
    """Point i's three stages with their files; returns its summary row.

    The potential and the reports die on return, before point i + 1 starts.
    Its ball weights need no call here: the scan empties their cache when it
    returns, and the blow-up caches none.
    """
    g, ghost_report = stage_ghost(s, u, z)
    write_ghost(g, out / f"ghost_{i}.bin", report=ghost_report)
    rep = stage_scan(s, u, g)
    write_report_csv(rep, out / f"scan_{i}.csv")
    blow = stage_blowup(s, u, z)
    write_csv(out / f"blowup_{i}.csv", blowup_columns(s.grid.dim), blowup_rows(blow))
    return {
        "index": i,
        "z": [float(c) for c in z],
        "ghost": {"residual": g.residual, "iterations": g.iterations},
        "monotonicity": {"tol_mono": rep.tol_mono, "violations": list(rep.violations)},
        "blowup": {"verdict": blow["verdict"], "n_scales": len(blow["scales"])},
    }
