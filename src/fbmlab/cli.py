"""Command line front end.

Subcommands: minimize | ghost | monotonicity | blowup | pipeline | validate.
Exit codes: 0 success, 2 configuration or schema problem, 3 solver failure,
4 geometry infeasibility.  FBMLAB_THREADS caps per-point parallelism in the
pipeline subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .errors import GeometryError, ScenarioError, SolverError
from .fieldio import _pair, write_csv, write_field
from .fields import ScalarField
from .monotonicity import write_report_csv
from .pipeline import (
    blowup_columns,
    blowup_rows,
    obtain_field,
    read_ghost,
    run_pipeline,
    stage_blowup,
    stage_ghost,
    stage_scan,
    write_ghost,
)
from .scenario import Scenario, load_scenario, validate_dict

__all__ = ["main", "parse_point"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GEOMETRY = 4


def parse_point(text: str, dim: int) -> tuple[float, ...]:
    """Parse "0,0,0" style coordinates of a point in dim dimensions."""
    try:
        coords = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ScenarioError(f"--z must be comma-separated numbers, got {text!r}") from exc
    if len(coords) != dim:
        raise ScenarioError(f"--z must have {dim} coordinates, got {len(coords)} in {text!r}")
    if not all(math.isfinite(c) for c in coords):
        raise ScenarioError(f"--z coordinates must be finite, got {text!r}")
    return coords


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmlab",
        description="Free-boundary energy lab: minimize, ghost, scans, blow-ups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", help="produce the field for a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)

    p = sub.add_parser("ghost", help="flux decomposition at one point")
    p.add_argument("--field", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)

    p = sub.add_parser("monotonicity", help="radius scan against a stored ghost")
    p.add_argument("--field", required=True)
    p.add_argument("--ghost", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("blowup", help="rescaling ladder at one point")
    p.add_argument("--field", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="run every stage and write all artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="print scenario diagnostics")
    p.add_argument("--config", required=True)

    return parser


def _load_field_for(s: Scenario, path: str) -> ScalarField:
    """The field stored at path, which must live on the scenario's grid."""
    return obtain_field(replace(s, field_path=path))[0]


def _cmd_minimize(args) -> int:
    s = load_scenario(args.config)
    u, report = obtain_field(s)
    write_field(u, args.out)
    if args.report is not None:
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_ghost(args) -> int:
    s = load_scenario(args.config)
    z = parse_point(args.z, s.grid.dim)
    u = _load_field_for(s, args.field)
    g, report = stage_ghost(s, u, z)
    write_ghost(g, args.out, report=report)
    sidecar = _pair(args.out)[0]
    if args.report is not None and Path(args.report).resolve() != sidecar.resolve():
        Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_monotonicity(args) -> int:
    s = load_scenario(args.config)
    u = _load_field_for(s, args.field)
    g = read_ghost(args.ghost)
    if g.potential.grid != u.grid:
        raise ScenarioError(
            f"ghost file {args.ghost} lives on a different grid than the field"
        )
    report = stage_scan(s, u, g)
    write_report_csv(report, args.out)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    s = load_scenario(args.config)
    z = parse_point(args.z, s.grid.dim)
    u = _load_field_for(s, args.field)
    blow = stage_blowup(s, u, z)
    write_csv(args.out, blowup_columns(u.grid.dim), blowup_rows(blow))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    s = load_scenario(args.config)
    summary = run_pipeline(s, out_dir=args.out)
    print(
        f"pipeline done: {summary['n_points']} point(s), "
        f"{summary['total_violations']} monotonicity violation(s)"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    path = Path(args.config)
    if not path.exists():
        print(f"scenario file {path} does not exist", file=sys.stderr)
        return EXIT_CONFIG
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    diagnostics = validate_dict(data)
    for line in diagnostics:
        print(line)
    if diagnostics:
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


_COMMANDS = {
    "minimize": _cmd_minimize,
    "ghost": _cmd_ghost,
    "monotonicity": _cmd_monotonicity,
    "blowup": _cmd_blowup,
    "pipeline": _cmd_pipeline,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
