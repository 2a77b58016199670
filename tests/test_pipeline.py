"""Pipeline stages, artifact determinism, and stage/pipeline equality."""

import json
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fbmlab import fields, monotonicity, pipeline
from fbmlab.blowup import DEFICIT_THRESHOLD
from fbmlab.errors import GeometryError
from fbmlab.fieldio import read_csv, read_field, write_csv, write_field
from fbmlab.fields import (
    _SLACK,
    DEFAULT_SPHERE_POINTS,
    Grid,
    ScalarField,
    _ball_weights,
    _unit_sphere,
    free_boundary_points,
)
from fbmlab.ghost import flux_field, weak_divergence_residual
from fbmlab.monotonicity import scan, write_report_csv
from fbmlab.pipeline import (
    blowup_columns,
    blowup_rows,
    obtain_field,
    read_ghost,
    run_pipeline,
    select_points,
    stage_blowup,
    stage_ghost,
    stage_minimize,
    stage_scan,
    write_ghost,
)
from fbmlab.minimizer import ramp_free_boundary
from fbmlab.scenario import RADIUS_MARGIN, Scenario, load_scenario

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


def tiny_scenario(**overrides) -> Scenario:
    data = json.loads(json.dumps(TINY))
    data.update(overrides)
    return Scenario.from_dict(data)


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    summary = run_pipeline(tiny_scenario(), out)
    return out, summary


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestArtifacts:
    def test_inventory(self, first_run):
        out, summary = first_run
        names = set(p.name for p in out.iterdir())
        expected = {"field.bin", "field.json", "minimize.json", "points.csv", "summary.json"}
        for i in range(summary["n_points"]):
            expected |= {f"ghost_{i}.bin", f"ghost_{i}.json", f"scan_{i}.csv", f"blowup_{i}.csv"}
        assert names == expected
        assert summary["n_points"] >= 1

    def test_summary_matches_points_csv(self, first_run):
        out, summary = first_run
        cols, data = read_csv(out / "points.csv")
        assert cols == ["x", "y"]
        assert data.shape[0] == summary["n_points"]
        for row, rec in zip(data, summary["per_point"]):
            assert list(row) == rec["z"]

    def test_summary_json_parses_and_counts(self, first_run):
        out, summary = first_run
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk == summary
        assert on_disk["total_violations"] == sum(
            len(p["monotonicity"]["violations"]) for p in on_disk["per_point"]
        )

    def test_scan_csv_columns(self, first_run):
        out, _ = first_run
        cols, data = read_csv(out / "scan_0.csv")
        assert cols == [
            "r", "weiss_core", "ghost_term", "A",
            "A_prime_fd", "A_prime_formula", "T", "mainid_gap", "osc_r",
        ]
        assert data.shape[0] == tiny_scenario().radii().size

    def test_blowup_csv_columns(self, first_run):
        out, _ = first_run
        cols, data = read_csv(out / "blowup_0.csv")
        assert cols == ["scale", "deviation", "deficit", "e0", "e1"]
        assert data.shape[0] >= 1
        # scales strictly decreasing, metrics finite
        assert np.all(np.diff(data[:, 0]) < 0)
        assert np.all(np.isfinite(data))

    def test_2d_verdict_unavailable(self, first_run):
        _, summary = first_run
        assert all(p["blowup"]["verdict"] == "unavailable" for p in summary["per_point"])


class TestDeterminism:
    def test_second_run_byte_identical(self, first_run, tmp_path):
        out, _ = first_run
        run_pipeline(tiny_scenario(), tmp_path)
        assert tree_bytes(out) == tree_bytes(tmp_path)

    def test_each_point_matches_its_one_point_run(self, first_run, tmp_path):
        # two explicit points on the stored minimized field: nothing that
        # point 0 leaves behind (the ball weight and sphere direction caches
        # included) may move a bit of point 1's files
        out, _ = first_run
        s = tiny_scenario(
            field_path=str(out / "field.bin"),
            points_of_interest=[[-0.25, 0.0], [0.25, -0.03125]],
        )
        assert_points_independent(s, tmp_path)

    def test_each_point_matches_its_one_point_run_3d(self, tmp_path):
        # the 3D counterpart on a stored arctan field, whose ghost stage
        # builds the flux, load and norms in per-call buffers
        assert_points_independent(stored_arctan_3d(tmp_path), tmp_path)

    def test_potential_released_before_next_point(self, first_run, tmp_path, monkeypatch):
        # run_pipeline keeps one point's potential alive at a time: each
        # ghost stage starts after every earlier potential is gone
        out, _ = first_run
        s = tiny_scenario(
            field_path=str(out / "field.bin"),
            points_of_interest=[[-0.25, 0.0], [0.25, -0.03125], [0.0, 0.0]],
        )
        original = pipeline.stage_ghost
        refs, alive = [], []

        def tracked(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            g, report = original(*args, **kwargs)
            refs.extend([weakref.ref(g), weakref.ref(g.potential)])
            return g, report

        monkeypatch.setattr(pipeline, "stage_ghost", tracked)
        run_pipeline(s, tmp_path)
        assert alive == [[], [False] * 2, [False] * 4]


def stored_arctan_3d(tmp_path: Path) -> Scenario:
    """Two explicit points on a stored 24^3 arctan field with a curved free boundary."""
    def surface(x1, x2):
        return 0.1 * np.cos(np.pi * x1 + 0.7) * np.cos(np.pi * x2 + 2.9)

    grid = Grid((-1.0,) * 3, (1.0,) * 3, (24,) * 3)
    x1, x2, x3 = grid.node_mesh()
    write_field(ScalarField(grid, np.maximum(x3 - surface(x1, x2), 0.0)), tmp_path / "u.bin")
    return Scenario.from_dict({
        "schema_version": 1,
        "grid": {"lo": [-1.0] * 3, "hi": [1.0] * 3, "n_cells": [24] * 3},
        "density": {"kind": "arctan", "alpha": 0.1},
        "boundary": {"kind": "halfplane", "direction": [0.0, 0.0, 1.0]},
        "points_of_interest": [
            [x, y, float(surface(x, y))] for x, y in [(0.25, -0.25), (-0.25, 0.0)]
        ],
        "radii": {"r_min": 0.2, "r_max": 0.3, "ratio": 1.2},
        "field_path": str(tmp_path / "u.bin"),
    })


def assert_points_independent(s: Scenario, tmp_path: Path) -> None:
    """Each point's files of a run over s.points equal a run at that point alone.

    Every run starts with the ball weight and sphere direction caches empty.
    """
    def run(points, name):
        _ball_weights.cache_clear()
        _unit_sphere.cache_clear()
        summary = run_pipeline(replace(s, points=points), tmp_path / name)
        assert summary["n_points"] == len(points)
        assert all(p["ghost"]["iterations"] == 1 for p in summary["per_point"])
        return tmp_path / name

    both = run(s.points, "all")
    for i, z in enumerate(s.points):
        alone = run((z,), f"alone_{i}")
        for stem in ("ghost_{}.bin", "ghost_{}.json", "scan_{}.csv", "blowup_{}.csv"):
            assert (both / stem.format(i)).read_bytes() == (alone / stem.format(0)).read_bytes()


def stored_field_3d_two_points(tmp_path: Path) -> tuple[Scenario, int]:
    """The field3d benchmark's stored 41^3 arctan field with two points equally
    far from the box, and the bytes of one grid array."""
    def surface(x1, x2):
        return 0.1 * np.cos(np.pi * x1 + 1.3) * np.cos(np.pi * x2 + 4.1)

    grid = Grid((-1.0,) * 3, (1.0,) * 3, (40,) * 3)
    x1, x2, x3 = grid.node_mesh()
    write_field(ScalarField(grid, np.maximum(x3 - surface(x1, x2), 0.0)), tmp_path / "u.bin")
    s = Scenario.from_dict({
        "schema_version": 1,
        "grid": {"lo": [-1.0] * 3, "hi": [1.0] * 3, "n_cells": [40] * 3},
        "density": {"kind": "arctan", "alpha": 0.1},
        "boundary": {"kind": "halfplane", "direction": [0.0, 0.0, 1.0]},
        "points_of_interest": [
            [x, y, float(surface(x, y))] for x, y in [(0.45, -0.3), (-0.3, 0.45)]
        ],
        "radii": {"r_min": 0.15, "r_max": 0.4, "ratio": 1.1},
        "field_path": str(tmp_path / "u.bin"),
    })
    return s, 8 * grid.n_nodes


@pytest.fixture
def cache_builds(monkeypatch):
    """The balls the ball weight cache builds, counted from an empty cache by a
    spy on the builder: emptying the cache also zeroes its cache_info counts."""
    build, builds = fields._build_ball_weights, []

    def counted(grid, z, r):
        builds.append((z, r))
        return build(grid, z, r)

    monkeypatch.setattr(fields, "_build_ball_weights", counted)
    _ball_weights.cache_clear()
    return builds


class TestPointBuffers:
    """A point leaves nothing behind that raises the next point's memory."""

    STAGES = ("stage_ghost", "stage_scan", "stage_blowup")

    def test_second_point_peaks_match_the_first(self, tmp_path, monkeypatch):
        # tracemalloc peak of every stage call, counted from the start of the
        # run, so anything an earlier point left alive counts; the ball
        # weights of point 0's scan radii and blow-up scales raised point 1's
        # peaks by about 2 grid arrays while they stayed cached.  A first run
        # builds what every run shares once (sphere directions, the blow-up
        # reference box).
        s, array = stored_field_3d_two_points(tmp_path)
        run_pipeline(s, tmp_path / "warm")
        peaks = {name: [] for name in self.STAGES}
        cached = {name: [] for name in self.STAGES}

        def traced(name, original):
            def call(*args, **kwargs):
                cached[name].append(_ball_weights.cache_info().currsize)
                tracemalloc.reset_peak()
                result = original(*args, **kwargs)
                peaks[name].append(tracemalloc.get_traced_memory()[1])
                return result
            return call

        for name in self.STAGES:
            monkeypatch.setattr(pipeline, name, traced(name, getattr(pipeline, name)))
        _ball_weights.cache_clear()
        tracemalloc.start()
        try:
            summary = run_pipeline(s, tmp_path / "run")
        finally:
            tracemalloc.stop()
        assert [p["ghost"]["iterations"] for p in summary["per_point"]] == [1, 1]
        for name, (first, second) in peaks.items():
            assert second <= first + 0.25 * array, (name, first / array, second / array)
        # the ghost and the blow-up start with no ball weights cached; the
        # scan reads those the ghost stage built for the same radii
        assert cached["stage_ghost"] == cached["stage_blowup"] == [0, 0]
        assert min(cached["stage_scan"]) > 0

    def test_no_ball_weights_are_rebuilt(self, tmp_path, monkeypatch, cache_builds):
        # each scan empties the cache once, as it returns, which costs no
        # rebuild: a run that never empties it builds as many balls
        s, _ = stored_field_3d_two_points(tmp_path)
        drop, drops = monotonicity.drop_ball_weights, []

        def counted_drop():
            drops.append(_ball_weights.cache_info().currsize)
            drop()

        def builds(name):
            cache_builds.clear()
            run_pipeline(s, tmp_path / name)
            return len(cache_builds)

        monkeypatch.setattr(monotonicity, "drop_ball_weights", counted_drop)
        dropped = builds("dropped")
        assert len(drops) == 2 and min(drops) > 0
        assert _ball_weights.cache_info().currsize == 0
        monkeypatch.setattr(monotonicity, "drop_ball_weights", lambda: None)
        kept = builds("kept")
        # a ball about a new point empties the cache, so it ends with the last
        # point's balls, those the dropped run's last scan emptied
        assert _ball_weights.cache_info().currsize == drops[-1]
        assert dropped == kept


def linear_halfplane_3d(tmp_path: Path, **extra) -> Scenario:
    """The linear3d benchmark's grid (41^3 nodes, h = 1/32) and radius ladder
    with the linear density, whose flux is identically zero.  Without extra
    keys the field is the stored half-plane max(x3, 0) with a point on it."""
    half = 0.625
    data = {
        "schema_version": 1,
        "grid": {"lo": [-half] * 3, "hi": [half] * 3, "n_cells": [40] * 3},
        "density": {"kind": "linear"},
        "boundary": {"kind": "halfplane", "direction": [0.0, 0.0, 1.0]},
        "points_of_interest": [[0.0, 0.0, 0.0]],
        "radii": {"r_min": 0.15, "r_max": 0.4, "ratio": 1.1},
    }
    if not extra:
        grid = Grid((-half,) * 3, (half,) * 3, (40,) * 3)
        write_field(ScalarField(grid, np.maximum(grid.node_mesh()[2], 0.0)), tmp_path / "u.bin")
        data["field_path"] = str(tmp_path / "u.bin")
    return Scenario.from_dict({**data, **extra})


class TestLongLadder:
    """r_min 0.1, r_max 0.4 and ratio 1.03 give 47 radii, more than a cache of
    32 balls held: it built every ball once per pass over the ladder, 141
    times for a nonzero flux (flux profile, scan bulk, oscillation) and 95 for
    a zero one (the scan's first read of the largest ball, bulk, oscillation).
    Now a nonzero flux's ladder goes through the cache once, and a zero
    one's scan builds each ball's cell weights once, outside the cache."""

    FIELDS = {
        "field3d": lambda tmp_path: stored_field_3d_two_points(tmp_path)[0],
        "linear3d": linear_halfplane_3d,
    }
    # (cached full builds, cell-only builds) of the ghost stage and the scan
    BUILDS = {"field3d": (47, 0), "linear3d": (0, 47)}

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_each_ball_built_once_and_blowup_caches_none(
        self, tmp_path, name, cache_builds, monkeypatch
    ):
        s = replace(self.FIELDS[name](tmp_path), r_min=0.1, ratio=1.03)
        assert len(s.radii()) == 47
        u, _ = obtain_field(s)
        cells, cell_builds = monotonicity.ball_cells, []

        def counted(grid, z, r):
            cell_builds.append(r)
            return cells(grid, z, r)

        monkeypatch.setattr(monotonicity, "ball_cells", counted)
        cache_builds.clear()
        stage_scan(s, u, stage_ghost(s, u, s.points[0])[0])
        assert (len(cache_builds), len(cell_builds)) == self.BUILDS[name]
        # every scale's homogeneity_deviation builds its ball outside the cache
        assert stage_blowup(s, u, s.points[0])["scales"]
        assert (len(cache_builds), len(cell_builds)) == self.BUILDS[name]
        assert _ball_weights.cache_info().currsize == 0


class TestBallWeightRelease:
    """The scan, the last reader of a point's ball ladder, empties the ball
    weight cache on any exit.  So a loop over the stages that keeps every
    result, as a traced replay does, holds no ball after a point; without
    the release it held the point's whole ladder (11 balls here)."""

    @pytest.mark.parametrize("name", sorted(TestLongLadder.FIELDS))
    def test_stage_loop_keeping_every_result_caches_no_ball(self, tmp_path, name):
        s = TestLongLadder.FIELDS[name](tmp_path)
        u, _ = obtain_field(s)
        _ball_weights.cache_clear()
        kept = []
        for z in s.points:
            g, report = stage_ghost(s, u, z)
            kept.append((g, report, stage_scan(s, u, g), stage_blowup(s, u, z)))
            assert _ball_weights.cache_info().currsize == 0
        assert len(kept) == len(s.points) >= 1

    def test_scan_that_leaves_the_box_empties_the_cache(self, tmp_path):
        s, _ = stored_field_3d_two_points(tmp_path)
        u, _ = obtain_field(s)
        _ball_weights.cache_clear()
        g, _ = stage_ghost(s, u, s.points[0])
        assert _ball_weights.cache_info().currsize == len(s.radii())
        with pytest.raises(GeometryError, match="leaves the box"):
            scan(u, s.model, s.problem.lam, g.base_point, [0.2, 0.9], g, level=s.phase_level)
        assert _ball_weights.cache_info().currsize == 0


class TestScanBuffers:
    """stage_scan's peak on 41^3 grids, above the memory traced at its entry and
    with the scan radii's ball weights built cold.  u and phi are sampled
    in place; the gradient of u is the only grid-sized block the
    scan allocates (5.40 and 6.17 arrays here).  The zero potential's scan
    read 8.16 while it built node weights that only its zero integrals
    read; gathering from one block that held copies of u and phi as well
    read 10.23 and 8.18."""

    def peak(self, s: Scenario) -> float:
        u, _ = obtain_field(s)
        g, _ = stage_ghost(s, u, s.points[0])
        _ball_weights.cache_clear()
        _unit_sphere(3, DEFAULT_SPHERE_POINTS[3])  # built once per process
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            stage_scan(s, u, g)
            return (tracemalloc.get_traced_memory()[1] - entry) / u.values.nbytes
        finally:
            tracemalloc.stop()

    def test_zero_flux_linear_field(self, tmp_path):
        s = linear_halfplane_3d(tmp_path)
        assert self.peak(s) < 5.6

    def test_curved_stored_field(self, tmp_path):
        s, _ = stored_field_3d_two_points(tmp_path)
        assert self.peak(s) < 6.3


# the stage functions perfbench's traced replay wraps by module attribute
TRACED_NAMES = (
    (pipeline, "minimize"),
    (pipeline, "flux_field"),
    (pipeline, "neumann_solve"),
    (monotonicity, "oscillation_profile"),
)


class TestTracedNames:
    """run_pipeline reaches every traced name through its module attribute,
    and the per-point ones once per point, whether or not the flux is zero:
    a stage that skipped one on some points would leave a traced median
    over no calls."""

    def counted_run(self, s: Scenario, out: Path, monkeypatch) -> tuple[dict, dict]:
        calls = {attr: 0 for _, attr in TRACED_NAMES}

        def counting(attr, original):
            def wrapped(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)
            return wrapped

        for module, attr in TRACED_NAMES:
            monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
        return calls, run_pipeline(s, out)

    def test_zero_flux_minimized_field(self, tmp_path, monkeypatch):
        s = linear_halfplane_3d(
            tmp_path,
            points_of_interest=[[0.0, 0.0, 0.0], [0.0625, -0.0625, -0.03125]],
            tol=1e-3,
            max_iter=20,
        )
        calls, summary = self.counted_run(s, tmp_path / "run", monkeypatch)
        assert [p["ghost"]["iterations"] for p in summary["per_point"]] == [0, 0]
        assert calls == {
            "minimize": 1, "flux_field": 2, "neumann_solve": 2, "oscillation_profile": 2
        }

    def test_nonzero_flux_stored_field(self, tmp_path, monkeypatch):
        s, _ = stored_field_3d_two_points(tmp_path)
        calls, summary = self.counted_run(s, tmp_path / "run", monkeypatch)
        assert [p["ghost"]["iterations"] for p in summary["per_point"]] == [1, 1]
        assert calls == {
            "minimize": 0, "flux_field": 2, "neumann_solve": 2, "oscillation_profile": 2
        }


class TestLipschitzOnce:
    """A field's Lipschitz bound is one gradient pass per run, however many
    stages and points read it."""

    @pytest.fixture
    def computed(self, monkeypatch) -> list:
        # every field ScalarField.lipschitz is computed for, in order
        seen, compute = [], ScalarField.lipschitz.func

        def spy(field):
            seen.append(field)
            return compute(field)

        monkeypatch.setattr(ScalarField.lipschitz, "func", spy)
        return seen

    def test_minimized_run(self, tmp_path, computed):
        summary = run_pipeline(tiny_scenario(), tmp_path)
        assert summary["n_points"] == 2
        assert len(computed) == 1
        lip = json.loads((tmp_path / "minimize.json").read_text())["lipschitz"]
        for i in range(2):
            meta = json.loads((tmp_path / f"ghost_{i}.json").read_text())["meta"]
            assert meta["flux_bound"]["lip"] == lip

    def test_per_point_ghost_stages(self, first_run, tmp_path, computed):
        # a stored field, whose first ghost stage computes the bound, called
        # point by point as a stage-by-stage replay of run_pipeline calls it
        out, summary = first_run
        s = replace(tiny_scenario(), field_path=str(out / "field.bin"))
        u, _ = obtain_field(s)
        lips = [stage_ghost(s, u, p["z"])[1]["flux_bound"]["lip"] for p in summary["per_point"]]
        assert len(computed) == 1 and computed[0] is u
        assert lips == [u.lipschitz] * 2


class TestComposability:
    def test_stagewise_equals_pipeline(self, first_run, tmp_path):
        out, summary = first_run
        s = tiny_scenario()
        u, _ = read_field(out / "field.bin")
        z = tuple(summary["per_point"][0]["z"])
        g, report = stage_ghost(s, u, z)
        write_ghost(g, tmp_path / "ghost.bin", report=report)
        assert (tmp_path / "ghost.bin").read_bytes() == (out / "ghost_0.bin").read_bytes()
        assert (tmp_path / "ghost.json").read_bytes() == (out / "ghost_0.json").read_bytes()

        g2 = read_ghost(tmp_path / "ghost.bin")
        scan_rep = stage_scan(s, u, g2)
        write_report_csv(scan_rep, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == (out / "scan_0.csv").read_bytes()

        blow = stage_blowup(s, u, z)
        write_csv(tmp_path / "blowup.csv", blowup_columns(2), blowup_rows(blow))
        assert (tmp_path / "blowup.csv").read_bytes() == (out / "blowup_0.csv").read_bytes()

    def test_minimize_stage_equals_pipeline_field(self, first_run, tmp_path):
        out, _ = first_run
        u, _ = stage_minimize(tiny_scenario())
        write_field(u, tmp_path / "field.bin")
        assert (tmp_path / "field.bin").read_bytes() == (out / "field.bin").read_bytes()


class TestObtainField:
    def test_field_path_loads_bitwise(self, first_run, tmp_path):
        out, _ = first_run
        s = tiny_scenario(field_path=str(out / "field.bin"))
        u, report = obtain_field(s)
        direct, _ = read_field(out / "field.bin")
        assert np.array_equal(u.values, direct.values)
        assert report == {"loaded_from": str(out / "field.bin")}

    def test_grid_mismatch_rejected(self, tmp_path):
        other = Grid((-1.0, -1.0), (1.0, 1.0), (16, 16))
        write_field(ScalarField(other, np.zeros(other.node_shape)), tmp_path / "f.bin")
        s = tiny_scenario(field_path=str(tmp_path / "f.bin"))
        with pytest.raises(ValueError, match="different grid"):
            obtain_field(s)

    def test_signed_field_ghost_is_its_positive_parts(self, tmp_path):
        # a stored field with negative nodes is split as (u - 0)^+, the
        # field the scan reads: its ghost is that of u^+ stored as its own file
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (64, 64))
        x, y = grid.node_mesh()
        u = y + 0.1 * np.sin(3.0 * x)
        assert u.min() < 0.0
        write_field(ScalarField(grid, u), tmp_path / "signed.bin")
        write_field(ScalarField(grid, np.maximum(u, 0.0)), tmp_path / "plus.bin")
        ghosts = []
        for name in ("signed", "plus"):
            s = tiny_scenario(grid={"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n_cells": [64, 64]},
                              field_path=str(tmp_path / f"{name}.bin"))
            assert s.phase_level == 0.0
            g, report = stage_ghost(s, obtain_field(s)[0], (0.0, 0.0))
            ghosts.append((g.potential.values.tobytes(), json.dumps(report)))
        assert ghosts[0] == ghosts[1]


class TestSelectPoints:
    def test_explicit_points_passed_through(self, first_run):
        out, _ = first_run
        u, _ = read_field(out / "field.bin")
        s = tiny_scenario(points_of_interest=[[0.0, 0.0], [0.1, -0.1]])
        assert select_points(s, u) == ((0.0, 0.0), (0.1, -0.1))

    def test_explicit_infeasible_raises_geometry(self, first_run):
        out, _ = first_run
        u, _ = read_field(out / "field.bin")
        s = tiny_scenario(points_of_interest=[[0.7, 0.0]])
        with pytest.raises(GeometryError):
            select_points(s, u)

    def test_auto_points_lie_near_interface(self, first_run):
        out, _ = first_run
        u, _ = read_field(out / "field.bin")
        s = tiny_scenario()
        pts = select_points(s, u)
        assert len(pts) >= 1
        for z in pts:
            assert abs(z[1]) < 4 * s.grid.h

    def test_round_off_does_not_move_auto_points(self, first_run):
        # the zero phase holds round-off of either sign; the crossings of the
        # ramp midpoint eps/2 lie far above it
        out, _ = first_run
        u, _ = read_field(out / "field.bin")
        s = tiny_scenario()
        noise = 1e-11 * np.random.default_rng(0).standard_normal(u.values.shape)
        base = np.asarray(select_points(s, u))
        for sign in (1.0, -1.0):
            pts = np.asarray(select_points(s, ScalarField(u.grid, u.values + sign * noise)))
            assert pts.shape == base.shape
            assert np.allclose(pts, base, rtol=0.0, atol=1e-9)

    def test_auto_stride_applies_after_feasibility(self):
        # 49 crossings along y = 0; the two ends are infeasible, and a stride
        # taken before the feasibility filter would land on nothing else
        s = tiny_scenario(auto_stride=48)
        _, y = s.grid.node_mesh()
        u = ScalarField(s.grid, np.maximum(y, 0.0))
        pts = select_points(s, u)
        assert len(pts) == 1
        s.grid.require_ball_inside(pts[0], s.r_max * 1.05)

    def test_auto_points_match_per_point_loop_on_the_fit_boundary(self):
        # crossings of the phase level along y sit at node abscissae; r_max
        # is picked so that one crossing's ball touches the left face exactly
        base = tiny_scenario(auto_stride=1)
        grid = base.grid
        u = ScalarField(grid, np.maximum(grid.node_mesh()[1], 0.0))
        crossings = free_boundary_points(u, base.phase_level)
        face = grid.lo[0] - _SLACK * max(grid.h, 1.0)

        def with_radius(r_max, stride=1):
            return tiny_scenario(
                auto_stride=stride, radii={"r_min": 0.1, "r_max": float(r_max), "ratio": 1.4}
            )

        for touching in crossings[crossings[:, 0] > -0.45, 0]:
            r_max = (touching - face) / (1.0 + RADIUS_MARGIN)
            for _ in range(8):
                s = with_radius(r_max)
                if touching - s.reach == face:
                    break
                r_max = np.nextafter(r_max, np.inf if touching - s.reach > face else -np.inf)
            else:
                continue
            break
        assert touching - s.reach == face

        want = []
        for z in crossings:
            try:
                grid.require_ball_inside(z, s.reach)
            except GeometryError:
                continue
            want.append(tuple(float(c) for c in z))
        assert select_points(s, u) == tuple(want)
        assert min(z[0] for z in want) == touching
        for stride in (2, 7):
            assert select_points(with_radius(r_max, stride), u) == tuple(want[::stride])

    def test_auto_none_feasible_raises(self, first_run):
        out, _ = first_run
        u, _ = read_field(out / "field.bin")
        data = json.loads(json.dumps(TINY))
        data["radii"] = {"r_min": 0.1, "r_max": 0.74, "ratio": 1.4}
        s = Scenario.from_dict(data)
        with pytest.raises(GeometryError, match="free-boundary point"):
            select_points(s, u)


class TestGhostFiles:
    def test_roundtrip_preserves_contract(self, first_run):
        out, _ = first_run
        g = read_ghost(out / "ghost_0.bin")
        meta = json.loads((out / "ghost_0.json").read_text())["meta"]
        assert list(g.base_point) == meta["base_point"]
        assert g.f0 == meta["f0"]
        assert g.cap_radius == meta["cap_radius"]
        assert g.residual == meta["residual"]
        assert g.iterations == meta["iterations"]
        # the remainder is derived from the flux, so a read-back ghost
        # reports the residual the run computed in memory; the flux is
        # built as stage_ghost builds it, from (u - l)^+ at the phase level
        s = tiny_scenario()
        assert s.phase_level > 0.0
        u, _ = read_field(out / "field.bin")
        sharp = ScalarField(u.grid, np.maximum(u.values - s.phase_level, 0.0))
        flux = flux_field(sharp, s.model, g.base_point)
        assert weak_divergence_residual(flux, g) == meta["weak_divergence_residual"]
        assert meta["weak_divergence_residual"] > 0.0

    def test_level_is_the_phase_level(self, first_run, tmp_path):
        out, _ = first_run
        s = tiny_scenario()
        header = json.loads((out / "ghost_0.json").read_text())
        assert header["meta"]["level"] == s.phase_level > 0.0
        assert read_ghost(out / "ghost_0.bin").level == s.phase_level
        # the level is part of the contract a ghost file must carry
        del header["meta"]["level"]
        (tmp_path / "g.json").write_text(json.dumps(header))
        (tmp_path / "g.bin").write_bytes((out / "ghost_0.bin").read_bytes())
        with pytest.raises(ValueError, match="meta.level: required"):
            read_ghost(tmp_path / "g.bin")

    def test_read_back_cap_is_half_spacing(self, first_run, tmp_path):
        out, _ = first_run
        g = read_ghost(out / "ghost_0.bin")
        assert g.cap_radius == 0.5 * g.grid.h
        header = json.loads((out / "ghost_0.json").read_text())
        assert header["meta"]["cap_radius"] == 0.5 * g.grid.h
        # the written cap is still part of the contract a ghost file must carry
        del header["meta"]["cap_radius"]
        (tmp_path / "g.json").write_text(json.dumps(header))
        (tmp_path / "g.bin").write_bytes((out / "ghost_0.bin").read_bytes())
        with pytest.raises(ValueError, match="not a ghost file"):
            read_ghost(tmp_path / "g.bin")

    def test_plain_field_file_rejected(self, first_run):
        out, _ = first_run
        with pytest.raises(ValueError, match="not a ghost file"):
            read_ghost(out / "field.bin")

    def test_ghost_on_another_grid_names_its_file(self, first_run):
        out, _ = first_run
        g = read_ghost(out / "ghost_0.bin")
        assert read_ghost(out / "ghost_0.bin", g.grid).grid == g.grid
        other = Grid(g.grid.lo, g.grid.hi, tuple(2 * n for n in g.grid.n_cells))
        with pytest.raises(ValueError, match=f"{out / 'ghost_0.json'}: .* different grid"):
            read_ghost(out / "ghost_0.bin", other)


class TestFieldFiles:
    def test_read_keeps_one_buffer(self, tmp_path):
        # the field3d benchmark's grid: 41^3 nodes, 0.55 MB of float64
        grid = Grid((-1.0,) * 3, (1.0,) * 3, (40,) * 3)
        values = np.random.default_rng(0).standard_normal(grid.node_shape)
        write_field(ScalarField(grid, values), tmp_path / "f.bin")
        tracemalloc.start()
        try:
            u, _ = read_field(tmp_path / "f.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.values.tobytes() == values.tobytes()
        assert not u.values.flags.writeable
        assert peak < 1.25 * values.nbytes

    def test_write_copies_no_grid(self, tmp_path):
        # write_field hands the float64 buffer itself to the file, not a
        # bytes copy of it (1.01 grid arrays traced)
        grid = Grid((-1.0,) * 3, (1.0,) * 3, (40,) * 3)
        values = np.random.default_rng(0).standard_normal(grid.node_shape)
        f = ScalarField(grid, values)
        tracemalloc.start()
        try:
            write_field(f, tmp_path / "f.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "f.bin").read_bytes() == values.astype("<f8").tobytes()
        assert peak < 0.25 * values.nbytes

    def test_header_names_every_faulty_key(self, tmp_path):
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (4, 4))
        write_field(ScalarField(grid, np.zeros(grid.node_shape)), tmp_path / "f.bin")
        header = tmp_path / "f.json"
        header.write_text(json.dumps({"dim": 2, "hi": [1.0, 1.0], "n_cells": "4", "meta": 1}))
        with pytest.raises(ValueError) as err:
            read_field(tmp_path / "f.bin")
        assert str(err.value) == "; ".join([
            f"{header}: lo: required",
            f"{header}: n_cells: must be a list of integers",
            f"{header}: meta: must be a JSON object",
        ])

SCENARIO_3D = Path(__file__).resolve().parent.parent / "scenarios" / "halfplane_linear_3d.json"


class TestPhaseLevel:
    def test_minimized_scenario_uses_the_ramped_free_boundary(self, tmp_path):
        s = tiny_scenario()
        assert s.phase_level == ramp_free_boundary(s.problem.eps)
        assert 0.0 < s.phase_level < s.problem.eps
        stored = tiny_scenario(field_path=str(tmp_path / "u.bin"))
        assert stored.phase_level == 0.0

    def test_bundled_3d_minimizer_scans_to_the_half_plane_value(self):
        # the minimized field has no zero phase (a positive tail decays below
        # the free boundary); scanned at the phase level, A(r) is constant at
        # every auto point and sits near the half-plane value 2 pi / 3; and
        # every point's blow-up is flat enough to be called regular
        s = load_scenario(SCENARIO_3D)
        u, report = stage_minimize(s)
        assert report["stop_reason"] == "gradient_tol"
        points = select_points(s, u)
        assert len(points) >= 3
        for z in points:
            g, _ = stage_ghost(s, u, z)
            a = stage_scan(s, u, g).a
            med = float(np.median(a))
            assert np.max(np.abs(a - med)) <= 0.025 * med
            assert med == pytest.approx(2.0 * np.pi / 3.0, rel=0.05)
            blow = stage_blowup(s, u, z)
            assert blow["verdict"] == "regular"
            assert max(blow["deficits"]) < DEFICIT_THRESHOLD


SCENARIO_2D = SCENARIO_3D.parent / "arctan_halfplane_2d.json"


class TestDensityScale:
    @pytest.mark.parametrize("scale", [4.0, 0.25])
    def test_scaled_scenario_takes_the_same_newton_steps(self, scale):
        # scale multiplies the energy and its gradient, so with tol scaled
        # alike the Newton steps are those of scale 1; the preconditioner
        # reads the smallest slope f'(0) = scale, so CG needs as few steps
        data = json.loads(SCENARIO_2D.read_text())
        _, base = stage_minimize(Scenario.from_dict(data))
        data["density"]["scale"] = scale
        data["tol"] *= scale
        _, report = stage_minimize(Scenario.from_dict(data))
        assert report["stop_reason"] == base["stop_reason"] == "gradient_tol"
        assert report["cg_history"] == base["cg_history"]
