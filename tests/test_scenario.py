"""Scenario schema validation and typed loading."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fbmlab.blowup import MIN_SCALE_CELLS, SCALE_FRACTION
from fbmlab.cli import main
from fbmlab.density import bernoulli_lambda
from fbmlab.errors import ScenarioError
from fbmlab.fields import Grid, geometric_radii
from fbmlab import scenario
from fbmlab.fieldio import STRING
from fbmlab.ghost import SHELL_STEP_CELLS
from fbmlab.minimizer import BOUNDARY_KINDS, Problem
from fbmlab.scenario import (
    RADIUS_MARGIN,
    SCHEMA_VERSION,
    Scenario,
    load_scenario,
    validate_dict,
)

BUNDLED = [
    "scenarios/halfplane_linear_3d.json",
    "scenarios/arctan_halfplane_2d.json",
]


def good_dict() -> dict:
    return {
        "schema_version": 1,
        "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n_cells": [32, 32]},
        "density": {"kind": "arctan", "alpha": 0.1},
        "boundary": {"kind": "halfplane", "direction": [0.0, 1.0]},
        "points_of_interest": "auto",
        "auto_stride": 4,
        "radii": {"r_min": 0.1, "r_max": 0.3, "ratio": 1.4},
        "tol": 1e-3,
        "max_iter": 100,
    }


class TestValidateDict:
    @pytest.mark.parametrize("path", BUNDLED)
    def test_bundled_scenarios_valid(self, path):
        data = json.loads(open(path).read())
        assert validate_dict(data) == []

    def test_good_dict_valid(self):
        assert validate_dict(good_dict()) == []

    def test_ratio_not_above_one(self):
        data = good_dict()
        data["radii"]["ratio"] = 1.0
        assert "radii.ratio must exceed 1" in validate_dict(data)
        data["radii"]["ratio"] = 0.5
        assert "radii.ratio must exceed 1" in validate_dict(data)

    def test_negative_alpha_flagged_on_density(self):
        data = good_dict()
        data["density"]["alpha"] = -0.1
        diags = validate_dict(data)
        assert any(d.startswith("density.alpha") for d in diags)

    def test_missing_density_names_the_field(self):
        data = good_dict()
        del data["density"]
        diags = validate_dict(data)
        assert any(d.startswith("density") for d in diags)

    def test_missing_grid_key_names_the_path(self):
        data = good_dict()
        del data["grid"]["n_cells"]
        assert any(d.startswith("grid.n_cells") for d in validate_dict(data))

    def test_wrong_schema_version(self):
        data = good_dict()
        data["schema_version"] = 2
        assert any(d.startswith("schema_version") for d in validate_dict(data))

    def test_nonuniform_spacing(self):
        data = good_dict()
        data["grid"]["n_cells"] = [32, 48]
        assert any("uniform" in d for d in validate_dict(data))

    def test_inverted_box(self):
        data = good_dict()
        data["grid"]["hi"] = [-2.0, 1.0]
        assert any("hi must exceed lo" in d for d in validate_dict(data))

    def test_zero_direction(self):
        data = good_dict()
        data["boundary"]["direction"] = [0.0, 0.0]
        assert any(d.startswith("boundary.direction") for d in validate_dict(data))

    def test_unknown_boundary_kind(self):
        data = good_dict()
        data["boundary"] = {"kind": "spiral"}
        assert any(d.startswith("boundary.kind") for d in validate_dict(data))

    def test_wedge_needs_2d_and_angle(self):
        data = good_dict()
        data["boundary"] = {"kind": "wedge", "angle": 7.0}
        assert any(d.startswith("boundary.angle") for d in validate_dict(data))

    def test_solver_keys_checked(self):
        data = good_dict()
        data["tol"] = -1.0
        assert any(d.startswith("tol") for d in validate_dict(data))
        data = good_dict()
        data["max_iter"] = 2.5
        assert any(d.startswith("max_iter") for d in validate_dict(data))

    def test_bad_point_entry(self):
        data = good_dict()
        data["points_of_interest"] = [[0.0, 0.0], [0.0]]
        assert any("points_of_interest[1]" in d for d in validate_dict(data))

    def test_bad_stride(self):
        data = good_dict()
        data["auto_stride"] = 0
        assert any(d.startswith("auto_stride") for d in validate_dict(data))

    def test_infeasible_point_reported(self):
        data = good_dict()
        data["points_of_interest"] = [[0.9, 0.0]]
        diags = validate_dict(data)
        assert any("points_of_interest[0]" in d and "margin" in d for d in diags)

    def test_linear_density_with_alpha(self):
        data = good_dict()
        data["density"] = {"kind": "linear", "alpha": 0.5}
        assert validate_dict(data) == ["density: the linear density has no alpha parameter"]

    def test_negative_lambda(self):
        # lambda is Problem's alone: a scenario naming it, at any value, is rejected
        data = good_dict()
        data["lambda"] = -1.0
        assert validate_dict(data) == ["lambda: unknown key"]
        with pytest.raises(ScenarioError, match="lambda: unknown key"):
            Scenario.from_dict(data)

    def test_one_cell_axis_flagged_on_n_cells(self):
        assert validate_dict(with_changes(grid__n_cells=[1, 1])) == [
            "grid.n_cells: need at least 2 cells on every axis, got [1, 1]"
        ]

    def test_r_min_must_clear_the_shell_step(self):
        # h = 1/16: the shell identity reads the sphere of radius r_min - h/2
        step = SHELL_STEP_CELLS * 2.0 / 32
        data = with_changes(radii__r_min=step)
        assert validate_dict(data) == [
            f"radii.r_min: must exceed the shell identity's step {SHELL_STEP_CELLS} h "
            f"= {step}, got {step}"
        ]
        assert validate_dict(with_changes(radii__r_min=float(np.nextafter(step, 1.0)))) == []
        # checked only on a valid grid and a valid ladder
        for bad in (with_changes(radii__r_min=step, radii__ratio=1.0),
                    with_changes(radii__r_min=step, grid__n_cells=[1, 1])):
            assert not any(d.startswith("radii.r_min") for d in validate_dict(bad))

    def test_one_radius_ladder(self):
        # log_radius_derivative needs two radii; one wrote NaN columns and exit 0
        for r_max, ratio in ((0.1, 1.4), (0.3, 3.5)):
            assert validate_dict(with_changes(radii__r_max=r_max, radii__ratio=ratio)) == [
                f"radii: need at least 2 radii for the log-radius derivative, got 1 "
                f"from r_min 0.1, r_max {r_max} and ratio {ratio}"
            ]
        assert validate_dict(with_changes(radii__r_max=0.14, radii__ratio=1.4)) == []

    def test_non_dict_top_level(self):
        assert validate_dict([1, 2]) == ["scenario: top level must be a JSON object"]


def with_changes(**changes) -> dict:
    """good_dict() with top-level keys, or section__key entries, replaced."""
    data = good_dict()
    for key, value in changes.items():
        section, _, sub = key.partition("__")
        if sub:
            data[section][sub] = value
        else:
            data[key] = value
    return data


GRID_3D = {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0], "n_cells": [16, 16, 16]}

# (bad scenario, the path its diagnostic must start with)
BAD_SCENARIOS = [
    (with_changes(ghost_tol=math.nan), "ghost_tol"),
    (with_changes(tol=math.nan), "tol"),
    (with_changes(radii__r_max=math.nan), "radii.r_max"),
    (with_changes(radii__ratio=math.nan), "radii.ratio"),
    (with_changes(radii__r_max=math.inf), "radii.r_max"),
    (with_changes(grid__n_cells=[32.0, 32]), "grid.n_cells"),
    (with_changes(radii__r_min=0.03), "radii.r_min"),
    (with_changes(radii__r_max=0.1), "radii: need at least 2 radii"),
    (with_changes(density__alpha=10**400), "density.alpha"),
    (with_changes(**{"lambda": True}), "lambda"),
    (with_changes(boundary__direction=[0.0, 1.0, 0.0]), "boundary.direction"),
    (
        with_changes(grid=GRID_3D, boundary={"kind": "wedge", "angle": 1.0}),
        "boundary: wedge data is two dimensional only",
    ),
]

# each boundary kind's own keys, with values valid for the kind
OWN_KEYS = {
    "halfplane": {"direction": [0.0, 1.0]},
    "radial": {"center": [0.0, 0.0]},
    "wedge": {"angle": 2.0},
    "file": {"path": "never-read.bin"},
}
# boundary data that names a key of another kind, and data whose generator
# overflows on the grid: validate rejects both before any stage runs
BOUNDARY_FAULTS = [
    pytest.param(
        with_changes(boundary={"kind": kind, **OWN_KEYS[kind], key: value}),
        f"boundary.{key}: unknown key", id=f"{kind}-with-{key}",
    )
    for kind in OWN_KEYS
    for other, own in OWN_KEYS.items() if other != kind
    for key, value in own.items()
] + [
    pytest.param(
        with_changes(boundary={"kind": "radial", "center": [0, 0], "direction": [1, 0],
                               "angle": 9.0}),
        "boundary.direction: unknown key", id="radial-with-direction-and-angle",
    ),
    # the norm _plane divides by underflows to 0, or overflows
    pytest.param(with_changes(boundary__direction=[1e-200, 1e-200]),
                 "boundary.direction must be", id="halfplane-underflowing-norm"),
    pytest.param(with_changes(boundary__direction=[1e308, 1e308]),
                 "boundary.direction must be", id="halfplane-overflowing-norm"),
    # the squared distance from the center to the farthest node overflows
    pytest.param(with_changes(boundary={"kind": "radial", "center": [1e200, 0]},
                              points_of_interest=[[0.0, 0.0]]),
                 "boundary.center must be", id="radial-overflowing-distance"),
]


@pytest.mark.parametrize(
    "data,path",
    [pytest.param(data, path, id=path.split(":")[0]) for data, path in BAD_SCENARIOS]
    + BOUNDARY_FAULTS,
)
class TestBadScenarios:
    def test_validate_dict_tags_the_path(self, data, path):
        diags = validate_dict(data)
        assert sum(d.startswith(path) for d in diags) == 1

    def test_from_dict_raises(self, data, path):
        with pytest.raises(ScenarioError, match=path.split(":")[0]):
            Scenario.from_dict(data)

    def test_cli_validate_exits_2(self, data, path, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        assert main(["validate", "--config", str(cfg)]) == 2
        assert path in capsys.readouterr().out


# a near miss of each JSON type a scenario key can have, by the type's words
WRONG_TYPE = {
    "a number": "1.0",
    "a list of numbers": [1.0, "2"],
    "an integer": 2.5,
    "a list of integers": [32.0, 32],
    "a string": 5,
    "a JSON object": [],
    '"auto" or a nonempty list of points': [],
}
# every section's keys; boundary data's keys follow its kind, so each kind's
# own keys come from its entry in the table of boundary kinds
TABLE_KEYS = [*scenario._TOP.items(), *scenario._TOP_OPTIONAL.items()] + [
    (f"{name}.{key}", kind)
    for name, tables in scenario._SECTIONS.items() if not callable(tables)
    for key, kind in {**tables[0], **tables[1]}.items()
] + [("boundary.kind", STRING)] + [
    (f"boundary.{key}", kind)
    for entry in BOUNDARY_KINDS.values()
    for key, kind in entry.keys.items()
]


def with_wrong_type(path: str, kind) -> dict:
    """good_dict() with the key at path given a wrong type; a boundary kind's
    own key is given under that kind."""
    data = good_dict()
    section, _, key = path.rpartition(".")
    if section == "boundary" and key != "kind":
        data["boundary"] = {"kind": next(k for k, e in BOUNDARY_KINDS.items() if key in e.keys)}
    (data[section] if section else data)[key] = WRONG_TYPE[kind.words]
    return data


@pytest.mark.parametrize("path,kind", TABLE_KEYS, ids=[path for path, _ in TABLE_KEYS])
class TestKeyTable:
    """Every key of the scenario's key tables, given a value of the wrong JSON type."""

    def test_validate_dict_names_the_key_once(self, path, kind):
        assert validate_dict(with_wrong_type(path, kind)) == [f"{path}: must be {kind.words}"]

    def test_from_dict_names_the_key(self, path, kind):
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(with_wrong_type(path, kind))
        assert str(err.value) == f"{path}: must be {kind.words}"

    def test_cli_validate_exits_2(self, path, kind, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(with_wrong_type(path, kind)))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.splitlines() == [f"{path}: must be {kind.words}"]


class TestSchema:
    def test_output_dir_is_an_unknown_key(self, tmp_path, capsys):
        # the command line names every output path; a scenario names none
        data = good_dict()
        data["output_dir"] = "runs"
        assert validate_dict(data) == ["output_dir: unknown key"]
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(data))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.splitlines() == ["output_dir: unknown key"]

    @pytest.mark.parametrize("key,value", [("lambda", 2.0), ("eps_factor", 2)])
    def test_lambda_and_eps_factor_are_unknown_keys(self, tmp_path, capsys, key, value):
        # Problem alone owns lambda = psi(1) and eps = 2h; a scenario sets neither
        data = good_dict()
        data[key] = value
        assert validate_dict(data) == [f"{key}: unknown key"]
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(data))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.splitlines() == [f"{key}: unknown key"]

    def test_another_kinds_keys_are_unknown_keys(self, tmp_path, capsys):
        # radial data carrying a halfplane's direction and a wedge's angle,
        # out of the wedge's range: neither is read, so both are named
        data = json.loads(open(BUNDLED[1]).read())
        data["boundary"] = {"kind": "radial", "center": [0, 0], "direction": [1, 0], "angle": 9.0}
        lines = ["boundary.direction: unknown key", "boundary.angle: unknown key"]
        assert validate_dict(data) == lines
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(data))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.splitlines() == lines

    def test_unknown_key_named_at_each_level(self):
        for section in ("", "grid", "density", "boundary", "radii"):
            data = good_dict()
            (data[section] if section else data)["typo"] = 1.0
            path = f"{section}.typo" if section else "typo"
            assert validate_dict(data) == [f"{path}: unknown key"]

    def test_misspelt_keys_are_named(self):
        data = json.loads(open(BUNDLED[1]).read())
        data["max_iters"] = data.pop("max_iter")
        data["grid"]["n_cell"] = data["grid"].pop("n_cells")
        data["density"]["alpah"] = data["density"].pop("alpha")
        assert validate_dict(data) == [
            "max_iters: unknown key",
            "grid.n_cells: required",
            "grid.n_cell: unknown key",
            "density.alpah: unknown key",
        ]

    def test_faults_in_unrelated_keys_all_reported(self):
        data = json.loads(open(BUNDLED[1]).read())
        data["tol"], data["lambda"], data["radii"]["ratio"] = -1, -1.0, 1.0
        assert validate_dict(data) == [
            "lambda: unknown key",
            "radii.ratio must exceed 1",
            "tol: must be a positive finite number",
        ]

    def test_missing_sections_required(self):
        assert validate_dict({}) == [
            f"{key}: required" for key in ("schema_version", "grid", "density", "boundary", "radii")
        ]


class TestFromDict:
    def test_roundtrip_fields(self):
        s = Scenario.from_dict(good_dict())
        assert s.grid.dim == 2
        assert s.grid.n_cells == (32, 32)
        assert s.model.kind == "arctan"
        assert s.model.alpha == 0.1
        assert s.boundary.kind == "halfplane"
        assert s.points == "auto"
        assert s.auto_stride == 4
        assert s.tol == 1e-3
        assert s.max_iter == 100

    def test_defaults_applied(self):
        data = good_dict()
        del data["tol"], data["max_iter"]
        s = Scenario.from_dict(data)
        assert s.tol == 1e-6
        assert s.max_iter == 10_000
        assert s.ghost_tol == 1e-8
        assert s.problem.eps == 2.0 * s.grid.h

    def test_radii_match_ladder(self):
        s = Scenario.from_dict(good_dict())
        assert np.array_equal(s.radii(), geometric_radii(0.1, 0.3, 1.4))

    def test_parse_is_the_ladders_only_builder(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(geometric_radii(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(scenario, "geometric_radii", counting)
        data = good_dict()
        data["radii"] = {"r_min": 1, "r_max": 4, "ratio": 2}
        data["grid"] = {"lo": [-8, -8], "hi": [8, 8], "n_cells": [32, 32]}
        s = Scenario.from_dict(data)
        s.reach, s.radii(), s.radii()
        assert len(built) == 1 and s.radii() is built[0]
        # float64 from integer JSON, as the Scenario's own fields, and read-only
        assert s.radii().dtype == np.float64 and (s.r_min, s.ratio) == (1.0, 2.0)
        assert isinstance(s.r_min, float) and not s.radii().flags.writeable
        # a replaced scenario builds its own from its own fields
        wider = replace(s, r_max=8.0)
        assert wider.radii().tolist() == [1.0, 2.0, 4.0, 8.0] and len(built) == 2
        assert not wider.radii().flags.writeable

    def test_lambda_default_and_override(self):
        # a scenario runs at lambda = psi(1); another lambda is set through Problem alone
        s = Scenario.from_dict(good_dict())
        assert s.problem.lam == bernoulli_lambda(s.model)
        assert Problem(s.grid, s.model, s.boundary, lam=2.5).lam == 2.5

    @pytest.mark.parametrize("path", BUNDLED)
    def test_bundled_problems_take_problems_defaults(self, path):
        s = load_scenario(path)
        assert s.problem.lam == bernoulli_lambda(s.model)
        assert s.problem.eps == 2.0 * s.grid.h

    def test_problem_is_built_once_and_follows_the_grid(self):
        s = Scenario.from_dict(good_dict())
        assert s.problem is s.problem
        assert (s.problem.grid, s.problem.model, s.problem.boundary) == (s.grid, s.model, s.boundary)
        finer = replace(s, grid=Grid(s.grid.lo, s.grid.hi, tuple(2 * n for n in s.grid.n_cells)))
        assert finer.problem.eps == 2.0 * finer.grid.h == 0.5 * s.problem.eps

    def test_parse_is_the_problems_only_builder(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(Problem(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(scenario, "Problem", counting)
        s = Scenario.from_dict(good_dict())
        assert len(built) == 1
        assert s.problem is built[0]
        # a replaced scenario builds its own, for its own grid
        finer = replace(s, grid=Grid(s.grid.lo, s.grid.hi, tuple(2 * n for n in s.grid.n_cells)))
        assert finer.problem is not s.problem and len(built) == 2

    def test_explicit_points_become_tuples(self):
        data = good_dict()
        data["points_of_interest"] = [[0.0, 0.0], [0.25, 0.0]]
        s = Scenario.from_dict(data)
        assert s.points == ((0.0, 0.0), (0.25, 0.0))

    def test_schema_problem_raises(self):
        data = good_dict()
        data["radii"]["ratio"] = 1.0
        with pytest.raises(ScenarioError, match="ratio must exceed 1"):
            Scenario.from_dict(data)

    def test_infeasible_point_does_not_raise_here(self):
        # geometric feasibility is deferred to run time (GeometryError there)
        data = good_dict()
        data["points_of_interest"] = [[0.9, 0.0]]
        s = Scenario.from_dict(data)
        assert s.points == ((0.9, 0.0),)

    def test_margin_constant(self):
        assert RADIUS_MARGIN == 0.05
        assert SCHEMA_VERSION == 1

    def test_reach_is_r_max_with_margin(self):
        # reach is the largest of the scan's r_max (1 + margin), the shell
        # identity's last radius plus its step, and the reach of the
        # blow-up's finest scale; each term leads on one of these grids
        def terms(n_cells, radii):
            data = good_dict()
            data["grid"]["n_cells"] = [n_cells, n_cells]
            data["radii"] = radii
            s = Scenario.from_dict(data)
            h = s.grid.h
            return s, [
                s.r_max * (1.0 + RADIUS_MARGIN),
                float(s.radii()[-1]) + SHELL_STEP_CELLS * h,
                MIN_SCALE_CELLS * h / SCALE_FRACTION,
            ]

        ladder = {"r_min": 0.1, "r_max": 0.3, "ratio": 1.4}
        for n_cells, radii, lead in [
            (128, ladder, 0),
            (64, {"r_min": 0.1, "r_max": 0.3, "ratio": 3.0}, 1),
            (32, ladder, 2),
        ]:
            s, want = terms(n_cells, radii)
            assert s.reach == want[lead] == max(want)
            assert sorted(want)[1] < want[lead]


class TestLoadScenario:
    def test_bundled_files_load(self):
        for path in BUNDLED:
            s = load_scenario(path)
            assert s.radii().size >= 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="does not exist"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(p)

    def test_valid_file(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(good_dict()))
        s = load_scenario(p)
        assert math.isclose(s.r_max, 0.3)
