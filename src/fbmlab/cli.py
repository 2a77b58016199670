"""Command line front end.

Subcommands: minimize | ghost | monotonicity | blowup | pipeline | validate.
Exit codes: 0 success, 2 configuration or schema problem, 3 solver failure,
4 geometry infeasibility.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import GeometryError, ScenarioError, SolverError
from .fieldio import read_field, write_csv, write_field, write_json
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
from .scenario import load_scenario, read_scenario, validate_dict

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


# each subcommand's help, its required options and its optional ones (default None)
_OPTIONS = {
    "minimize": ("produce the field for a scenario", "config out", "report"),
    "ghost": ("flux decomposition at one point", "field config z out", ""),
    "monotonicity": ("radius scan against a stored ghost", "field ghost config out", ""),
    "blowup": ("rescaling ladder at one point", "field config z out", ""),
    "pipeline": ("run every stage and write all artifacts", "config out", ""),
    "validate": ("print scenario diagnostics", "config", ""),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmlab",
        description="Free-boundary energy lab: minimize, ghost, scans, blow-ups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, required, optional) in _OPTIONS.items():
        p = sub.add_parser(command, help=text)
        for name in required.split():
            p.add_argument(f"--{name}", required=True)
        for name in optional.split():
            p.add_argument(f"--{name}", default=None)
    return parser


def _cmd_minimize(args) -> int:
    s = load_scenario(args.config)
    u, report = obtain_field(s)
    write_field(u, args.out)
    if args.report is not None:
        write_json(args.report, report)
    return EXIT_OK


def _cmd_ghost(args) -> int:
    s = load_scenario(args.config)
    z = parse_point(args.z, s.grid.dim)
    g, report = stage_ghost(s, read_field(args.field, s.grid)[0], z)
    write_ghost(g, args.out, report=report)
    return EXIT_OK


def _cmd_monotonicity(args) -> int:
    s = load_scenario(args.config)
    report = stage_scan(s, read_field(args.field, s.grid)[0], read_ghost(args.ghost, s.grid))
    write_report_csv(report, args.out)
    return EXIT_OK


def _cmd_blowup(args) -> int:
    s = load_scenario(args.config)
    z = parse_point(args.z, s.grid.dim)
    blow = stage_blowup(s, read_field(args.field, s.grid)[0], z)
    write_csv(args.out, blowup_columns(s.grid.dim), blowup_rows(blow))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    s = load_scenario(args.config)
    summary = run_pipeline(s, args.out)
    print(
        f"pipeline done: {summary['n_points']} point(s), "
        f"{summary['total_violations']} monotonicity violation(s)"
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    diagnostics = validate_dict(read_scenario(args.config))
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
        # an unusable output path fails here, naming itself, before a stage runs
        for path in filter(None, map(vars(args).get, ("out", "report"))):
            Path(path).parent.mkdir(parents=True, exist_ok=True)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
