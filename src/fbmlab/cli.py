"""Command line front end.

Subcommands: minimize | ghost | monotonicity | blowup | pipeline | validate.
A command reads every input it names (--config, --z, --field, --ghost)
before it makes the directories of its outputs (--out, --report), and
makes those before its stage runs, so a bad input leaves no directory.
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


def _run(args) -> int:
    """Read every input the command names, then make its output directories, then run.

    The inputs are read once each, in order: the scenario, the point, the
    stored field and the ghost (on the scenario's grid).  So a bad input
    exits 2 before a directory is made; an output path that cannot be made
    exits 2 before a stage runs.  Files the scenario names (field_path,
    boundary.path) are read by the stage that uses them.
    """
    if args.command == "validate":
        diagnostics = validate_dict(read_scenario(args.config))
        print("\n".join(diagnostics) or "ok")
        return EXIT_CONFIG if diagnostics else EXIT_OK
    given = vars(args)
    s = load_scenario(args.config)
    z = parse_point(args.z, s.grid.dim) if "z" in given else None
    u = read_field(args.field, s.grid)[0] if "field" in given else None
    g = read_ghost(args.ghost, s.grid) if "ghost" in given else None
    for path in filter(None, map(given.get, ("out", "report"))):
        Path(path).parent.mkdir(parents=True, exist_ok=True)

    if args.command == "minimize":
        u, report = obtain_field(s)
        write_field(u, args.out)
        if args.report is not None:
            write_json(args.report, report)
    elif args.command == "ghost":
        g, report = stage_ghost(s, u, z)
        write_ghost(g, args.out, report=report)
    elif args.command == "monotonicity":
        write_report_csv(stage_scan(s, u, g), args.out)
    elif args.command == "blowup":
        write_csv(args.out, blowup_columns(s.grid.dim), blowup_rows(stage_blowup(s, u, z)))
    else:
        summary = run_pipeline(s, args.out)
        print(
            f"pipeline done: {summary['n_points']} point(s), "
            f"{summary['total_violations']} monotonicity violation(s)"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
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
