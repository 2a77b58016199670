"""Command line behavior: exit codes, diagnostics, stage/pipeline equality."""

import json

import pytest

from fbmlab.cli import main, parse_point
from fbmlab.errors import ScenarioError
from fbmlab.fieldio import read_csv
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
        ],
    )
    def test_rejects_what_pipeline_rejects(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{path}: ") and "ok" not in out.split()
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2

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

    def test_diverging_solver_exits_3(self, tmp_path, capsys):
        # an overflowing lambda makes the initial energy non-finite
        cfg = write_config(tmp_path, **{"lambda": 1e300})
        rc = main([
            "minimize", "--config", str(cfg),
            "--out", str(tmp_path / "f.bin"),
        ])
        assert rc == 3
        assert "solver" in capsys.readouterr().err

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

    def test_stage_chain_matches_pipeline(self, config_path, reference_run, tmp_path, capsys):
        out, summary = reference_run
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
            "--report", str(tmp_path / "ghost.json"),
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
            "stop_reason", "lipschitz",
        ):
            assert key in rep

    def test_points_csv_roundtrips_through_z_flag(self, reference_run):
        out, summary = reference_run
        cols, data = read_csv(out / "points.csv")
        z = summary["per_point"][0]["z"]
        assert parse_point(",".join(repr(float(c)) for c in data[0]), 2) == tuple(z)
