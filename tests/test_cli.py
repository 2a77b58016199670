"""Command line behavior: exit codes, diagnostics, stage/pipeline equality."""

import json
import math

import numpy as np
import pytest

from fbmlab import pipeline
from fbmlab.cli import main, parse_point
from fbmlab.errors import ScenarioError
from fbmlab.fieldio import read_csv, write_field
from fbmlab.fields import Grid, ScalarField
from fbmlab.ghost import GhostFunction, write_ghost
from fbmlab.pipeline import run_pipeline
from fbmlab.scenario import Scenario

TINY = {
    "schema_version": 1,
    "grid": {"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [48, 48]},
    "density": {"kind": "arctan", "alpha": 0.1},
    "boundary": {"kind": "halfplane", "direction": [0.0, 1.0]},
    "points_of_interest": "auto",
    "auto_stride": 16,
    "radii": {"r_min": 0.1, "r_max": 0.3, "ratio": 1.4},
    "tol": 1e-3,
    "max_iter": 150,
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.json"
    p.write_text(json.dumps(TINY, indent=2))
    return p


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ref")
    summary = run_pipeline(Scenario.from_dict(json.loads(json.dumps(TINY))), out)
    return out, summary


def box_3d(n):
    return {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0], "n_cells": [n, n, n]}


# the bundled 3D linear scenario's model with r_min 0.03 (grid still to give)
LINEAR_3D = {
    "density": {"kind": "linear"},
    "boundary": {"kind": "halfplane", "direction": [0.0, 0.0, 1.0]},
    "radii": {"r_min": 0.03, "r_max": 0.4, "ratio": 1.1},
}


def write_config(tmp_path, **overrides):
    data = json.loads(json.dumps(TINY))
    data.update(overrides)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(data))
    return p


class TestParsePoint:
    def test_parses_coordinates(self):
        assert parse_point("0,0,0", 3) == (0.0, 0.0, 0.0)
        assert parse_point("-0.5,1e-3", 2) == (-0.5, 0.001)

    def test_rejects_garbage(self):
        with pytest.raises(ScenarioError, match="comma-separated"):
            parse_point("a,b", 2)


class TestValidate:
    def test_valid_scenario(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_bundled_scenarios(self, capsys):
        for name in ("halfplane_linear_3d", "arctan_halfplane_2d"):
            assert main(["validate", "--config", f"scenarios/{name}.json"]) == 0

    def test_bad_ratio_prints_literal_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, radii={"r_min": 0.1, "r_max": 0.3, "ratio": 1.0})
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "radii.ratio must exceed 1" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "overrides,path",
        [
            ({"density": {"kind": "linear", "alpha": 0.5}}, "density"),
            ({"lambda": -1.0}, "lambda"),
            # h = 1/32: the shell identity would read a sphere of radius 0.01 - h/2
            ({"radii": {"r_min": 0.01, "r_max": 0.2, "ratio": 1.5}}, "radii.r_min"),
            # a zero flux, whose shell identity samples nothing, fails the same way
            ({**LINEAR_3D, "grid": box_3d(24)}, "radii.r_min"),
            # the derivative stencils need 3 nodes on every axis
            ({"grid": {"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [1, 1]}}, "grid.n_cells"),
            ({**LINEAR_3D, "grid": box_3d(1), "radii": {"r_min": 1.5, "r_max": 1.6, "ratio": 1.1}},
             "grid.n_cells"),
        ],
    )
    def test_rejects_what_pipeline_rejects(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{path}: ") and "ok" not in out.split()
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("key", ["field_path", "boundary.path"])
    @pytest.mark.parametrize("fault", ["missing", "other_grid", "nonfinite"])
    def test_rejects_the_stored_fields_pipeline_rejects(self, tmp_path, capsys, key, fault):
        # each stored field the scenario names passes read_field on its grid
        n = 32 if fault == "other_grid" else 48
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (n, n))
        values = np.maximum(grid.node_mesh()[1], 0.0)
        if fault == "nonfinite":
            values[n // 2, n // 2] = np.nan
        if fault != "missing":
            write_field(ScalarField(grid, values), tmp_path / "f.bin")
        f = str(tmp_path / "f.bin")
        if key == "field_path":
            cfg = write_config(tmp_path, field_path=f)
        else:
            cfg = write_config(tmp_path, boundary={"kind": "file", "path": f})
        assert main(["validate", "--config", str(cfg)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{key}: ") and "ok" not in out.split()
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_point_exits_2(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, points_of_interest=[[bad, 0.0]])
        message = "points_of_interest[0]: need 2 finite coordinates"
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out.splitlines() == [message]
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_broken_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["validate", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_density_exits_2_with_field_path(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY))
        del data["density"]
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(data))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,bad",
        [
            # a directory as the scenario file (IsADirectoryError)
            ("validate --config {dir}", "{dir}"),
            # an existing file as the output directory (FileExistsError)
            ("pipeline --config {cfg} --out {file}", "{file}"),
            # an output file under an existing file (FileExistsError)
            ("minimize --config {cfg} --out {file}/x.bin", "{file}"),
        ],
    )
    def test_path_error_exits_2_naming_the_path(
        self, config_path, tmp_path, capsys, command, bad
    ):
        (tmp_path / "file").write_text("")
        names = {"dir": tmp_path, "cfg": config_path, "file": tmp_path / "file"}
        assert main(command.format(**names).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(bad.format(**names)) in err

    def test_pipeline_without_out_exits_2_writing_nothing(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["pipeline", "--config", str(config_path)]) == 2
        assert "--out" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["scenario", "field", "ghost"])
    def test_bad_input_exits_2_making_no_directory(
        self, config_path, reference_run, tmp_path, capsys, bad
    ):
        # every input is read before the output directories are made
        out, _ = reference_run
        new = tmp_path / "new"
        if bad == "scenario":
            (tmp_path / "s.json").write_text("{}")
            argv = ["minimize", "--config", str(tmp_path / "s.json")]
        elif bad == "field":
            argv = ["ghost", "--config", str(config_path), "--field", str(tmp_path / "absent.bin"),
                    "--z", "0,0"]
        else:
            # a ghost file whose contract lacks meta.level
            header = json.loads((out / "ghost_0.json").read_text())
            del header["meta"]["level"]
            (tmp_path / "g.json").write_text(json.dumps(header))
            (tmp_path / "g.bin").write_bytes((out / "ghost_0.bin").read_bytes())
            argv = ["monotonicity", "--config", str(config_path),
                    "--field", str(out / "field.bin"), "--ghost", str(tmp_path / "g.bin")]
        assert main([*argv, "--out", str(new / "x.bin")]) == 2
        assert "error: " in capsys.readouterr().err
        assert not new.exists()

    def test_unusable_output_path_exits_2_before_minimizing(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        def no_minimize(*args, **kwargs):
            raise AssertionError("minimize ran before the output path was made")

        monkeypatch.setattr(pipeline, "minimize", no_minimize)
        (tmp_path / "file").write_text("")
        for out, report in (("file/x.bin", "r.json"), ("u.bin", "file/r.json")):
            rc = main([
                "minimize", "--config", str(config_path),
                "--out", str(tmp_path / out), "--report", str(tmp_path / report),
            ])
            assert rc == 2
            assert repr(str(tmp_path / "file")) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_ghost_at_another_phase_level_exits_2(
        self, config_path, reference_run, tmp_path, capsys
    ):
        # a ghost built from the run's field as a stored field (level 0),
        # scanned by the minimizing scenario (its level s*eps > 0)
        out, summary = reference_run
        stored = write_config(tmp_path, field_path=str(out / "field.bin"))
        z = ",".join(repr(c) for c in summary["per_point"][0]["z"])
        rc = main([
            "ghost", "--config", str(stored), "--field", str(out / "field.bin"),
            f"--z={z}", "--out", str(tmp_path / "g.bin"),
        ])
        assert rc == 0
        assert json.loads((tmp_path / "g.json").read_text())["meta"]["level"] == 0.0
        rc = main([
            "monotonicity", "--config", str(config_path),
            "--field", str(out / "field.bin"),
            "--ghost", str(tmp_path / "g.bin"),
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert rc == 2
        level = Scenario.from_dict(json.loads(json.dumps(TINY))).phase_level
        assert level > 0.0
        err = capsys.readouterr().err
        assert f"ghost phase level 0.0 does not match requested {level}" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_z_outside_grid_exits_4(self, config_path, reference_run, tmp_path, capsys):
        out, _ = reference_run
        rc = main([
            "ghost", "--config", str(config_path),
            "--field", str(out / "field.bin"),
            "--z", "5,5",
            "--out", str(tmp_path / "g.bin"),
        ])
        assert rc == 4
        assert "base point (5.0, 5.0) outside the grid box" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ghost", "blowup"])
    @pytest.mark.parametrize(
        "z,message",
        [
            ("0,0,0", "--z must have 2 coordinates, got 3"),
            ("0", "--z must have 2 coordinates, got 1"),
            ("nan,0", "--z coordinates must be finite"),
            ("0,-inf", "--z coordinates must be finite"),
        ],
    )
    def test_bad_z_exits_2(self, config_path, reference_run, tmp_path, capsys, command, z, message):
        out, _ = reference_run
        rc = main([
            command, "--config", str(config_path),
            "--field", str(out / "field.bin"),
            f"--z={z}",
            "--out", str(tmp_path / "o.bin"),
        ])
        assert rc == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_zero_flux_ghost_with_infeasible_ladder_exits_4(self, tmp_path, capsys):
        # the zero path samples no sphere, yet checks that every shell fits
        cfg = write_config(tmp_path, density={"kind": "linear"})
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (48, 48))
        write_field(ScalarField(grid, np.maximum(grid.node_mesh()[1], 0.0)), tmp_path / "f.bin")
        rc = main([
            "ghost", "--config", str(cfg),
            "--field", str(tmp_path / "f.bin"),
            "--z", "0.6,0.0",
            "--out", str(tmp_path / "g.bin"),
        ])
        assert rc == 4
        assert "around (0.6, 0.0) leaves the box" in capsys.readouterr().err
        assert not (tmp_path / "g.bin").exists()

    def test_2d_z_on_3d_scenario_exits_2_before_reading_field(self, tmp_path, capsys):
        rc = main([
            "blowup", "--config", "scenarios/halfplane_linear_3d.json",
            "--field", str(tmp_path / "absent.bin"),
            "--z", "0,0",
            "--out", str(tmp_path / "b.csv"),
        ])
        assert rc == 2
        assert "--z must have 3 coordinates, got 2" in capsys.readouterr().err

    def test_infeasible_explicit_point_exits_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, points_of_interest=[[0.7, 0.0]])
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert "around (0.7, 0.0) leaves the box" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,validate_rc,pipeline_rc",
        [
            # the blow-up's finest scale needs more room than r_max (1 + margin)
            ({"grid": {"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [32, 32]}}, 0, 0),
            # the shell identity's last radius plus h/2 needs more room too
            (
                {
                    "grid": {"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [44, 44]},
                    "points_of_interest": [[-0.434, 0.0]],
                    "radii": {"r_min": 0.1, "r_max": 0.3, "ratio": 3.0},
                },
                2,
                4,
            ),
        ],
        ids=["blowup_scale", "shell_step"],
    )
    def test_validate_and_pipeline_agree(
        self, tmp_path, capsys, overrides, validate_rc, pipeline_rc
    ):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == validate_rc
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == pipeline_rc
        if pipeline_rc == 0:
            assert json.loads((out / "summary.json").read_text())["n_points"] >= 1
        else:
            assert "ball of radius" in capsys.readouterr().err

    def test_two_cells_run_to_exit_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            grid={"lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [2, 2]},
            radii={"r_min": 0.4, "r_max": 0.5, "ratio": 1.2},
        )
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert "no free-boundary point admits a ball" in capsys.readouterr().err

    def test_ghost_of_another_density_exits_2(self, config_path, reference_run, tmp_path, capsys):
        # the scan takes F0 = f'(1) from the scenario, so a ghost built for
        # another density does not pass its contract check
        out, summary = reference_run
        other = write_config(tmp_path, density={"kind": "arctan", "alpha": 1.0})
        z = summary["per_point"][0]["z"]
        ghost = tmp_path / "ghost.bin"
        rc = main([
            "ghost", "--config", str(other),
            "--field", str(out / "field.bin"),
            "--z=" + ",".join(repr(c) for c in z),
            "--out", str(ghost),
        ])
        assert rc == 0
        rc = main([
            "monotonicity", "--config", str(config_path),
            "--field", str(out / "field.bin"),
            "--ghost", str(ghost),
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert rc == 2
        assert "reference slope" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_diverging_solver_exits_3(self, tmp_path, capsys):
        # boundary data 1e160 y+ give gradients whose squares overflow, so the
        # energy is not finite from the start
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (48, 48))
        data = 1e160 * np.maximum(grid.node_mesh()[1], 0.0)
        write_field(ScalarField(grid, data), tmp_path / "b.bin")
        cfg = write_config(tmp_path, boundary={"kind": "file", "path": str(tmp_path / "b.bin")})
        rc = main([
            "minimize", "--config", str(cfg),
            "--out", str(tmp_path / "f.bin"),
        ])
        assert rc == 3
        assert "solver error: initial energy is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", ["field_path", "boundary_file"])
    def test_nonfinite_field_exits_2(self, tmp_path, capsys, entry, bad):
        # a stored field with one bad node is bad input: the run names the
        # file and stops before it writes any artifact, whether the field is
        # the one certified or the minimizer's boundary data and start
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (48, 48))
        values = np.maximum(grid.node_mesh()[1], 0.0)
        values[24, 24] = bad
        write_field(ScalarField(grid, values), tmp_path / "f.bin")
        if entry == "field_path":
            cfg = write_config(tmp_path, field_path=str(tmp_path / "f.bin"))
        else:
            cfg = write_config(tmp_path, boundary={"kind": "file", "path": str(tmp_path / "f.bin")})
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"{tmp_path / 'f.bin'}: node values must be finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "entry", ["field_path", "boundary_file", "ghost", "monotonicity", "blowup"]
    )
    def test_field_on_another_grid_exits_2(
        self, config_path, reference_run, tmp_path, capsys, entry
    ):
        # every way a stored field enters a run meets the one grid check in
        # read_field, which names the header that holds the other grid
        out, _ = reference_run
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (32, 32))
        f = tmp_path / "f.bin"
        write_field(ScalarField(grid, np.maximum(grid.node_mesh()[1], 0.0)), f)
        result = tmp_path / "result"
        if entry in ("field_path", "boundary_file"):
            if entry == "field_path":
                cfg = write_config(tmp_path, field_path=str(f))
            else:
                cfg = write_config(tmp_path, boundary={"kind": "file", "path": str(f)})
            rc = main(["pipeline", "--config", str(cfg), "--out", str(result)])
        else:
            where = ["--ghost", str(out / "ghost_0.bin")] if entry == "monotonicity" else ["--z", "0,0"]
            rc = main([
                entry, "--config", str(config_path), "--field", str(f), *where, "--out", str(result),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'f.json'}: the stored field lives on a different grid" in err
        assert not result.exists() or not any(result.iterdir())

    def test_ghost_on_another_grid_exits_2(self, config_path, reference_run, tmp_path, capsys):
        # a whole ghost contract (its cap is h/2 of its own grid) about the
        # run's point and F0, on a grid other than the field's
        out, _ = reference_run
        meta = json.loads((out / "ghost_0.json").read_text())["meta"]
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (32, 32))
        g = GhostFunction(ScalarField(grid, np.zeros(grid.node_shape)),
                          tuple(meta["base_point"]), meta["f0"], 0.0, 0)
        write_ghost(g, tmp_path / "g.bin")
        rc = main([
            "monotonicity", "--config", str(config_path),
            "--field", str(out / "field.bin"),
            "--ghost", str(tmp_path / "g.bin"),
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "different grid" in err and str(tmp_path / "g.json") in err
        assert not (tmp_path / "scan.csv").exists()

    def test_nonfinite_ghost_exits_2(self, config_path, reference_run, tmp_path, capsys):
        out, _ = reference_run
        (tmp_path / "g.json").write_bytes((out / "ghost_0.json").read_bytes())
        values = np.frombuffer((out / "ghost_0.bin").read_bytes(), dtype="<f8").copy()
        values[values.size // 2] = np.nan
        (tmp_path / "g.bin").write_bytes(values.tobytes())
        rc = main([
            "monotonicity", "--config", str(config_path),
            "--field", str(out / "field.bin"),
            "--ghost", str(tmp_path / "g.bin"),
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert rc == 2
        assert f"{tmp_path / 'g.bin'}: node values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("entry", ["ghost", "boundary_file"])
    @pytest.mark.parametrize(
        "header",
        [
            {"dim": 2, "hi": [0.75, 0.75], "n_cells": [48, 48]},
            [2, [-0.75, -0.75], [0.75, 0.75], [48, 48]],
            {"dim": 2, "lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": "44"},
            {"dim": 3, "lo": [-0.75, -0.75], "hi": [0.75, 0.75], "n_cells": [48, 48]},
        ],
        ids=["no_lo", "not_object", "n_cells_string", "dim_mismatch"],
    )
    def test_malformed_field_header_exits_2(self, tmp_path, capsys, header, entry):
        grid = Grid((-0.75, -0.75), (0.75, 0.75), (48, 48))
        write_field(ScalarField(grid, np.maximum(grid.node_mesh()[1], 0.0)), tmp_path / "f.bin")
        (tmp_path / "f.json").write_text(json.dumps(header))
        if entry == "ghost":
            rc = main([
                "ghost", "--config", str(write_config(tmp_path)),
                "--field", str(tmp_path / "f.bin"),
                "--z", "0,0",
                "--out", str(tmp_path / "g.bin"),
            ])
        else:
            cfg = write_config(tmp_path, boundary={"kind": "file", "path": str(tmp_path / "f.bin")})
            rc = main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "u.bin")])
        assert rc == 2
        assert str(tmp_path / "f.json") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("base_point", 5),
            ("base_point", [0.0, 0.0, 0.0]),
            ("base_point", ["0", "0"]),
            ("f0", "1.0"),
            ("residual", None),
            ("iterations", 1.0),
            # non-finite contract numbers: JSON's NaN and Infinity parse as floats
            ("base_point", [float("nan"), 0.0]),
            ("f0", float("nan")),
            ("cap_radius", float("inf")),
            ("residual", float("inf")),
            # a finite cap other than h/2 of the ghost's grid
            ("cap_radius", 0.3),
        ],
        ids=[
            "point_number", "point_count", "point_strings", "f0", "residual", "iterations",
            "point_nan", "f0_nan", "cap_radius_inf", "residual_inf", "cap_radius_other",
        ],
    )
    def test_malformed_ghost_contract_exits_2(
        self, config_path, reference_run, tmp_path, capsys, key, value
    ):
        out, _ = reference_run
        header = json.loads((out / "ghost_0.json").read_text())
        header["meta"][key] = value
        (tmp_path / "g.json").write_text(json.dumps(header))
        (tmp_path / "g.bin").write_bytes((out / "ghost_0.bin").read_bytes())
        rc = main([
            "monotonicity", "--config", str(config_path),
            "--field", str(out / "field.bin"),
            "--ghost", str(tmp_path / "g.bin"),
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "g.bin") in err and key in err
        assert not (tmp_path / "scan.csv").exists()

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


class TestStageChain:
    """Stage subcommands with intermediate files equal pipeline output bytes."""

    def test_pipeline_subcommand_matches_library_run(
        self, config_path, reference_run, tmp_path, capsys
    ):
        out, _ = reference_run
        rc = main(["pipeline", "--config", str(config_path), "--out", str(tmp_path)])
        assert rc == 0
        assert "pipeline done" in capsys.readouterr().out
        ref = {p.name: p.read_bytes() for p in out.iterdir()}
        got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert got == ref

    @pytest.mark.parametrize("density", ["arctan", "linear"])
    def test_stage_chain_matches_pipeline(self, tmp_path, capsys, density):
        # the linear density's flux vanishes identically: its ghost stage
        # takes the zero path, which must write the same files
        config_path = write_config(
            tmp_path, density=TINY["density"] if density == "arctan" else {"kind": "linear"}
        )
        out = tmp_path / "ref"
        summary = run_pipeline(Scenario.from_dict(json.loads(config_path.read_text())), out)
        field = tmp_path / "field.bin"
        rc = main([
            "minimize", "--config", str(config_path),
            "--out", str(field),
            "--report", str(tmp_path / "minimize.json"),
        ])
        assert rc == 0
        assert field.read_bytes() == (out / "field.bin").read_bytes()
        assert (tmp_path / "minimize.json").read_bytes() == (out / "minimize.json").read_bytes()

        z = summary["per_point"][0]["z"]
        zflag = "--z=" + ",".join(repr(c) for c in z)
        ghost = tmp_path / "ghost.bin"
        rc = main([
            "ghost", "--config", str(config_path),
            "--field", str(field),
            zflag,
            "--out", str(ghost),
        ])
        assert rc == 0
        assert ghost.read_bytes() == (out / "ghost_0.bin").read_bytes()
        assert (tmp_path / "ghost.json").read_bytes() == (out / "ghost_0.json").read_bytes()

        rc = main([
            "monotonicity", "--config", str(config_path),
            "--field", str(field),
            "--ghost", str(ghost),
            "--out", str(tmp_path / "scan.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "scan.csv").read_bytes() == (out / "scan_0.csv").read_bytes()

        rc = main([
            "blowup", "--config", str(config_path),
            "--field", str(field),
            zflag,
            "--out", str(tmp_path / "blowup.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "blowup.csv").read_bytes() == (out / "blowup_0.csv").read_bytes()


class TestMinimizeCommand:
    def test_report_keys(self, config_path, tmp_path):
        rc = main([
            "minimize", "--config", str(config_path),
            "--out", str(tmp_path / "f.bin"),
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        for key in (
            "iterations", "final_energy", "gradient_norm", "converged",
            "stop_reason", "lipschitz", "cg_iterations", "cg_history", "refit_steps",
        ):
            assert key in rep
        assert len(rep["cg_history"]) == rep["iterations"]
        assert rep["refit_steps"][0] == 0
        assert len(rep["refit_steps"]) <= rep["iterations"]
        assert sum(rep["cg_history"]) == rep["cg_iterations"]

    def test_makes_the_directories_of_its_outputs(self, config_path, reference_run, tmp_path):
        out, _ = reference_run
        rc = main([
            "minimize", "--config", str(config_path),
            "--out", str(tmp_path / "fields" / "f.bin"),
            "--report", str(tmp_path / "reports" / "r.json"),
        ])
        assert rc == 0
        assert (tmp_path / "fields" / "f.bin").read_bytes() == (out / "field.bin").read_bytes()
        report = json.loads((tmp_path / "reports" / "r.json").read_text())
        assert report == json.loads((out / "minimize.json").read_text())

    def test_points_csv_roundtrips_through_z_flag(self, reference_run):
        out, summary = reference_run
        cols, data = read_csv(out / "points.csv")
        z = summary["per_point"][0]["z"]
        assert parse_point(",".join(repr(float(c)) for c in data[0]), 2) == tuple(z)
