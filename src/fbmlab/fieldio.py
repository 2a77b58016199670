"""On-disk formats: field files, point lists, report CSV helpers.

A field on disk is a pair of files sharing a stem: `name.json` holds the
header {dim, lo, hi, n_cells} (plus an optional "meta" object), `name.bin`
holds the node values as little-endian float64 in row-major order.  Either
path may be passed to the readers and writers.  A field comes from outside
the program, so read_field checks its header's JSON types, that every node
value is finite and, when given the run's grid, that the field lives on it;
it names the file in every ValueError.

check_keys is the one JSON key check of every file a run reads: the field
header, the ghost contract and the scenario declare their keys' JSON types
in tables, and a missing or mistyped key becomes one line naming its path.

CSV files use `repr` formatting so every float round-trips exactly.  No
writer makes a directory: the entry point handed a path does (cli.main, run_pipeline).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .fields import Grid, ScalarField


def _is_int(v) -> bool:
    # an integer too large for a float would overflow float() downstream
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_number(v) -> bool:
    return isinstance(v, float) or _is_int(v)


class JsonType(NamedTuple):
    """A JSON type a key must have: its test, the words that name it in a
    problem, and the conversion to the value a typed object holds."""

    test: Callable[[object], bool]
    words: str
    held: Callable = lambda v: v


NUMBER = JsonType(_is_number, "a number", float)
FINITE = JsonType(lambda v: _is_number(v) and math.isfinite(v), "a finite number", float)
NUMBERS = JsonType(lambda v: isinstance(v, list) and all(map(_is_number, v)),
                   "a list of numbers", lambda v: tuple(map(float, v)))
INTEGER = JsonType(_is_int, "an integer")
INTEGERS = JsonType(lambda v: isinstance(v, list) and all(map(_is_int, v)),
                    "a list of integers", tuple)
STRING = JsonType(lambda v: isinstance(v, str), "a string")
# a string that names a stored field, which validate reads
STORED_FIELD = JsonType(STRING.test, "a string")
OBJECT = JsonType(lambda v: isinstance(v, dict), "a JSON object")


def check_keys(obj: dict, keys: dict, optional: dict | None = None,
               where: str = "") -> tuple[dict, dict[str, str]]:
    """The held value of each key of obj that the tables (key -> JsonType) type
    right, and a problem line, starting with where + key, for each other key
    they name: missing, if required, or mistyped.  Other keys are left out."""
    values, problems = {}, {}
    for table in (keys, optional or {}):
        for key, (test, words, held) in table.items():
            if key not in obj:
                if table is keys:
                    problems[key] = f"{where}{key}: required"
            elif test(obj[key]):
                values[key] = held(obj[key])
            else:
                problems[key] = f"{where}{key}: must be {words}"
    return values, problems


def _pair(path: str | Path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        return p, p.with_suffix(".bin")
    if p.suffix == ".bin":
        return p.with_suffix(".json"), p
    return p.with_suffix(p.suffix + ".json"), p.with_suffix(p.suffix + ".bin")


def write_json(path: str | Path, obj) -> None:
    """Write obj as a JSON artifact: sorted keys, indent 2, a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_field(f: ScalarField, path: str | Path, meta: dict | None = None) -> None:
    header_path, data_path = _pair(path)
    header = {
        "dim": f.grid.dim,
        "lo": list(f.grid.lo),
        "hi": list(f.grid.hi),
        "n_cells": list(f.grid.n_cells),
    }
    if meta is not None:
        header["meta"] = meta
    write_json(header_path, header)
    # the array's own buffer is written, with no bytes copy of the grid
    data_path.write_bytes(np.ascontiguousarray(f.values, dtype="<f8"))


def read_field(path: str | Path, grid: Grid | None = None) -> tuple[ScalarField, dict | None]:
    """The field stored at path and its header's meta object (or None).

    Given a grid, this is the one check that a stored field lives on it."""
    header_path, data_path = _pair(path)
    if not header_path.exists() or not data_path.exists():
        raise FileNotFoundError(f"field pair {header_path} / {data_path} incomplete")
    own, meta = _read_header(header_path)
    if grid is not None and own != grid:
        raise ValueError(f"{header_path}: the stored field lives on a different grid, "
                         f"{own}, than the run's {grid}")
    raw = np.frombuffer(data_path.read_bytes(), dtype="<f8")
    if raw.size != own.n_nodes:
        raise ValueError(
            f"{data_path}: expected {own.n_nodes} float64 values, found {raw.size}"
        )
    # min and max propagate NaN, so these two reductions see every bad value
    if not (np.isfinite(raw.min()) and np.isfinite(raw.max())):
        raise ValueError(f"{data_path}: node values must be finite")
    # the field keeps the read-only view of the file's bytes; ScalarField
    # converts it to native byte order only on a big-endian host
    return ScalarField(own, raw.reshape(own.node_shape)), meta


_HEADER_KEYS = {"dim": INTEGER, "lo": NUMBERS, "hi": NUMBERS, "n_cells": INTEGERS}


def _read_header(path: Path) -> tuple[Grid, dict | None]:
    """The grid and the optional meta object of a field header (ValueError naming path)."""
    try:
        header = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: a field header must be a JSON object")
    values, problems = check_keys(header, _HEADER_KEYS, {"meta": OBJECT}, f"{path}: ")
    if problems:
        raise ValueError("; ".join(problems.values()))
    dim, lo = values["dim"], values["lo"]
    if dim != len(lo):
        raise ValueError(f"{path}: dim must be {len(lo)}, the length of lo, got {dim!r}")
    try:
        return Grid(lo, values["hi"], values["n_cells"]), values.get("meta")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_csv(path: str | Path, columns: list[str], rows: list[tuple]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_points_csv(points: np.ndarray, path: str | Path) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cols = ["x", "y", "z"][: pts.shape[1]] if pts.size else ["x", "y"]
    write_csv(path, cols, [tuple(p) for p in pts])


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().strip().splitlines()
    cols = lines[0].split(",")
    data = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
    )
    if data.size == 0:
        data = data.reshape(0, len(cols))
    return cols, data
