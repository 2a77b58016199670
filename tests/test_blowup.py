import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fbmlab import blowup
from fbmlab.blowup import (
    BlowupSequence,
    build_sequence,
    default_scales,
    flatness_deficit,
    homogeneity_deviation,
    regularity_verdict,
    rescale,
    unit_box,
)
from fbmlab.density import DensityModel
from fbmlab.errors import GeometryError
from fbmlab.fields import (
    Grid,
    ScalarField,
    _unit_sphere,
    ball_integral,
    ball_weights,
    gradient_arrays,
    interpolate,
    sphere_quadrature,
)
from fbmlab.pipeline import select_points, stage_minimize
from fbmlab.scenario import Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def box_grid(dim, n, half=1.0):
    return Grid((-half,) * dim, (half,) * dim, (n,) * dim)


def sample(grid, fn):
    return ScalarField(grid, fn(*grid.node_mesh()))


class TestRescale:
    def test_identity(self):
        g = box_grid(2, 16)
        u = sample(g, lambda x, y: x * y + 0.3 * x)
        v = rescale(u, (0.0, 0.0), 1.0, g)
        assert np.allclose(v.values, u.values, atol=1e-13)

    def test_degree_one_field_scale_free(self):
        g = box_grid(2, 64)
        u = sample(g, np.hypot)
        ref = unit_box(2, 32)
        a = rescale(u, (0.0, 0.0), 0.5, ref)
        b = rescale(u, (0.0, 0.0), 0.25, ref)
        assert np.max(np.abs(a.values - b.values)) <= g.h

    def test_quadratic_is_linear_in_scale(self):
        g = box_grid(2, 64)
        u = sample(g, lambda x, y: x * x + y * y)
        ref = unit_box(2, 32)
        for r in (0.5, 0.25):
            v = rescale(u, (0.0, 0.0), r, ref)
            yy = sum(m * m for m in ref.node_mesh())
            assert np.allclose(v.values, r * yy, atol=g.h**2 / r)

    def test_composition(self):
        g = box_grid(2, 96)
        u = sample(g, lambda x, y: np.hypot(x, y) + 0.2 * x)
        ref = unit_box(2, 48)
        once = rescale(u, (0.1, 0.0), 0.4, ref)
        twice = rescale(once, (0.0, 0.0), 0.5, ref)
        direct = rescale(u, (0.1, 0.0), 0.2, ref)
        assert np.max(np.abs(twice.values - direct.values)) <= 2.0 * g.h

    def test_bad_inputs(self):
        g = box_grid(2, 16)
        u = sample(g, lambda x, y: x)
        with pytest.raises(ValueError):
            rescale(u, (0.0, 0.0), 0.0, g)
        with pytest.raises(GeometryError):
            rescale(u, (0.5, 0.0), 1.0, g)

    @pytest.mark.parametrize("r", [-0.5, float("nan")])
    def test_nan_scale_raises_like_negative(self, r):
        g = box_grid(2, 16)
        u = sample(g, lambda x, y: x)
        with pytest.raises(ValueError, match="scale must be positive"):
            rescale(u, (0.0, 0.0), r, g)


class TestHomogeneityDeviation:
    def test_quadratic_oracle_3d(self):
        # integrand is |x|^2; integral over the unit ball is 4*pi/5
        g = box_grid(3, 64, half=1.05)
        u = sample(g, lambda x, y, z: x * x + y * y + z * z)
        dev = homogeneity_deviation(u, (0.0, 0.0, 0.0), 1.0)
        assert dev == pytest.approx(4.0 * math.pi / 5.0, rel=1e-2)

    def test_linear_in_amplitude(self):
        g = box_grid(2, 48)
        u = sample(g, lambda x, y: x * x + 0.5 * np.abs(y))
        u3 = ScalarField(g, 3.0 * u.values)
        d1 = homogeneity_deviation(u, (0.0, 0.0), 0.6)
        d3 = homogeneity_deviation(u3, (0.0, 0.0), 0.6)
        assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_tilted_halfplane_small(self):
        g = box_grid(3, 48)
        e = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        u = sample(g, lambda x, y, z: np.maximum(e[0] * x + e[1] * y + e[2] * z, 0.0))
        dev = homogeneity_deviation(u, (0.0, 0.0, 0.0), 0.5)
        assert dev <= 1e-2

    def test_cone_small(self):
        g = box_grid(2, 64)
        u = sample(g, np.hypot)
        dev = homogeneity_deviation(u, (0.0, 0.0), 0.5)
        assert dev <= 2e-2


class TestFlatnessDeficit:
    def test_exact_profile_recovered(self):
        ref = unit_box(3, 32)
        e0 = np.array([2.0, 1.0, 2.0]) / 3.0
        u = sample(ref, lambda x, y, z: np.maximum(e0[0] * x + e0[1] * y + e0[2] * z, 0.0))
        fit = flatness_deficit(u)
        assert float(np.dot(fit.direction, e0)) >= 1.0 - 1e-4
        assert fit.deficit <= ref.h

    def test_zero_field(self):
        for dim in (2, 3):
            ref = unit_box(dim, 16)
            u = ScalarField(ref, np.zeros(ref.node_shape))
            fit = flatness_deficit(u)
            assert fit.deficit == pytest.approx(0.5, rel=1e-2)

    def test_two_sided_wedge(self):
        ref = unit_box(3, 24)
        u = sample(ref, lambda x, y, z: np.abs(x))
        fit = flatness_deficit(u)
        assert fit.deficit == pytest.approx(0.5, rel=5e-2)

    def test_rotation_equivariant(self):
        ref = unit_box(2, 32)
        e0 = np.array([0.6, 0.8])
        u = sample(ref, lambda x, y: np.maximum(e0[0] * x + e0[1] * y, 0.0))
        # rotate node data by 90 degrees: (x, y) -> (-y, x)
        rot_vals = np.rot90(u.values)
        fit = flatness_deficit(u)
        fit_rot = flatness_deficit(ScalarField(ref, rot_vals))
        rotated = np.array([-fit.direction[1], fit.direction[0]])
        assert float(np.dot(fit_rot.direction, rotated)) >= 1.0 - 1e-3


def fit_bits(fit):
    return np.array(fit.direction).tobytes(), np.float64(fit.deficit).tobytes()


def halfplane_blowup(dim):
    """A tilted, slightly curved half-plane field rescaled at a boundary point."""
    g = box_grid(dim, 24)
    e = np.array([0.3, -0.2, 1.0][-dim:])
    e /= np.linalg.norm(e)
    u = sample(g, lambda *x: np.maximum(sum(c * xa for c, xa in zip(e, x)) + 0.2 * x[0] ** 2, 0.0))
    return rescale(u, (0.0,) * dim, 0.5, unit_box(dim))


class TestCoarseScan:
    """The blocked direction scan against the one-shot (points x directions) form."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_blocked_scan_bitwise_equal_to_one_shot(self, dim):
        rng = np.random.default_rng(dim)
        cand = _unit_sphere(dim, blowup.COARSE_DIRECTIONS)
        # a point count that leaves a ragged last block of rows is covered too
        for n in (1, 777, 6241):
            pts = rng.uniform(-0.5, 0.5, (n, dim))
            vals = rng.uniform(0.0, 0.5, n)
            want = np.max(np.abs(vals[:, None] - np.maximum(pts @ cand.T, 0.0)), axis=0)
            got = blowup._coarse_sups(np.ascontiguousarray(pts.T), vals, cand)
            assert got.tobytes() == want.tobytes()

    def test_flatness_fit_peak_allocation_3d(self):
        u = halfplane_blowup(3)
        assert u.grid == unit_box(3)
        flatness_deficit(u)
        tracemalloc.start()
        try:
            flatness_deficit(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def frozen_homogeneity_deviation(u, z, r):
    """The deviation on the full grid, as homogeneity_deviation computed it before."""
    grid = u.grid
    z = np.asarray(z, dtype=float)
    grads = gradient_arrays(u.values, grid.h)
    mesh = grid.node_mesh()
    radial = sum(g * (mesh[a] - z[a]) for a, g in enumerate(grads))
    integrand = ScalarField(grid, np.abs(u.values - radial))
    return float(r ** -(grid.dim + 1) * ball_integral(integrand, z, r))


def frozen_rescale(u, z, r, ref_grid):
    """rescale on every reference node, as it computed it before."""
    z = np.asarray(z, dtype=float)
    mesh = ref_grid.node_mesh()
    pts = np.stack([z[a] + r * mesh[a] for a in range(ref_grid.dim)], axis=-1)
    vals = interpolate(u, pts.reshape(-1, ref_grid.dim)) / r
    return ScalarField(ref_grid, vals.reshape(ref_grid.node_shape))


def reference_points(grid):
    """The fit's points on grid (ball nodes, then sphere points), point-major, and the node mask."""
    radius = blowup.REF_BALL_RADIUS
    mesh = grid.node_mesh()
    inside = sum(m * m for m in mesh) <= radius**2
    node_pts = np.stack([m[inside] for m in mesh], axis=-1)
    sphere_pts, _ = sphere_quadrature(grid.dim, (0.0,) * grid.dim, radius)
    return np.concatenate([node_pts, sphere_pts], axis=0), inside


def fit_points(u):
    """The fit's points and u there: its nodes, then its interpolant on the sphere."""
    pts, inside = reference_points(u.grid)
    sphere_pts = pts[np.count_nonzero(inside) :]
    return pts, np.concatenate([u.values[inside], interpolate(u, sphere_pts)])


def frozen_fit(pts, vals):
    """The full coarse scan, then the zoom, with per-call geometry, as before."""
    pts_t = np.ascontiguousarray(pts.T)
    dim = pts.shape[1]
    cand = _unit_sphere(dim, blowup.COARSE_DIRECTIONS)
    e = cand[int(np.argmin(blowup._coarse_sups(pts_t, vals, cand)))]
    n = blowup.COARSE_DIRECTIONS
    width = 2.0 * np.pi / n if dim == 2 else 2.5 * np.sqrt(4.0 * np.pi / n)
    fit = blowup._zoom(pts_t, vals, e, width)
    return fit.direction, fit.deficit


def frozen_flatness_deficit(u):
    """flatness_deficit of a field on a reference grid."""
    return frozen_fit(*fit_points(u))


def frozen_sequence_fit(u, z, r):
    """build_sequence's fit at scale r: u(z + r P) / r at the fit's points P, then frozen_fit."""
    pts, _ = reference_points(unit_box(u.grid.dim))
    return frozen_fit(pts, interpolate(u, np.asarray(z, dtype=float) + r * pts) / r)


def curved_surface(*x):
    out = 0.1 * np.cos(np.pi * x[0] + 0.7)
    return out * np.cos(np.pi * x[1] + 1.9) if len(x) == 2 else out


def curved_boundary_field(dim, n):
    """A positive phase above a curved graph, like perfbench's stored 3D field."""
    g = box_grid(dim, n)
    mesh = g.node_mesh()
    surface = curved_surface(*mesh[:-1])
    return ScalarField(g, np.maximum(mesh[-1] - surface, 0.0) + 0.05 * mesh[0] * mesh[-1])


class TestDeviationWindow:
    """The windowed deviation against the full-grid original, byte for byte."""

    @pytest.mark.parametrize(
        "dim,z,r",
        [
            (2, (0.1, -0.03), 0.45),
            (2, (0.013, 0.2), 0.15),
            # balls whose window, or its one-node halo, is clipped at a face
            (2, (0.55, -0.2), 0.45),
            (2, (-0.2, -0.6), 0.4),
            (3, (0.05, -0.1, 0.02), 0.4),
            (3, (-0.55, 0.1, 0.5), 0.45),
            (3, (0.0, 0.0, 0.0), 1.0),
        ],
    )
    def test_bytes_equal_full_grid(self, dim, z, r):
        u = curved_boundary_field(dim, 48 if dim == 2 else 24)
        got = homogeneity_deviation(u, z, r)
        assert np.float64(got).tobytes() == np.float64(frozen_homogeneity_deviation(u, z, r)).tobytes()
        assert got > 0.0

    def test_face_cases_reach_the_face(self):
        u = curved_boundary_field(2, 48)
        window = ball_weights(u.grid, (0.55, -0.2), 0.45).node_window
        assert window[0].stop == u.grid.node_shape[0]
        window = ball_weights(u.grid, (-0.2, -0.6), 0.4).node_window
        assert window[1].start == 0


class TestSequenceWindow:
    """build_sequence against sampling u at the fit's points and the full fit, byte for byte."""

    @pytest.mark.parametrize(
        "dim,n,x,scales",
        [
            (2, 64, (0.1,), (0.6, 0.3)),
            (2, 48, (-0.3,), (0.55, 0.2)),
            (3, 40, (0.3, -0.2), (0.65, 0.4)),
            # fields on an odd number of cells
            (2, 27, (0.1,), (0.6, 0.3)),
            (3, 27, (0.3, -0.2), (0.65, 0.4)),
        ],
    )
    def test_bytes_equal_sample_then_fit(self, dim, n, x, scales):
        u = curved_boundary_field(dim, n)
        z = np.array(x + (float(curved_surface(*x)),))
        seq = build_sequence(u, z, scales=scales)
        for i, r in enumerate(scales):
            direction, deficit = frozen_sequence_fit(u, z, r)
            assert np.float64(seq.deficits[i]).tobytes() == np.float64(deficit).tobytes()
            assert np.array(seq.directions[i]).tobytes() == np.array(direction).tobytes()
            want = frozen_homogeneity_deviation(u, z, r)
            assert np.float64(seq.deviations[i]).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rescaled_grid_fit_pinned(self, dim):
        # the public fit of a rescaled field, as perfbench's kernel times it
        u = curved_boundary_field(dim, 48 if dim == 2 else 40)
        x = (0.1,) if dim == 2 else (0.3, -0.2)
        z = np.array(x + (float(curved_surface(*x)),))
        got = flatness_deficit(rescale(u, z, 0.45, unit_box(dim)))
        direction, deficit = frozen_flatness_deficit(frozen_rescale(u, z, 0.45, unit_box(dim)))
        assert fit_bits(got) == (np.array(direction).tobytes(), np.float64(deficit).tobytes())

    def test_reference_box_must_fit(self):
        # the deviation's ball gate rejects a scale whose ball leaves the
        # box, before u is sampled at the fit's points
        g = box_grid(2, 32)
        u = sample(g, lambda x, y: np.maximum(x, 0.0))
        with pytest.raises(GeometryError, match="leaves the box"):
            build_sequence(u, (0.0, 0.0), scales=(1.2,))
        with pytest.raises(GeometryError, match="must be positive"):
            build_sequence(u, (0.0, 0.0), scales=(0.5, 0.0))


def plain_sups(pts, vals, cand):
    """sup |vals - (p . e)+| for each row e of cand, point-major, 64 rows at a time."""
    rows = [cand[j : j + 64] for j in range(0, cand.shape[0], 64)]
    return np.concatenate(
        [np.max(np.abs(vals[:, None] - np.maximum(pts @ c.T, 0.0)), axis=0) for c in rows]
    )


def tangent_grid(e, half_width, nodes):
    """normalize(e + s) over a grid of nodes per axis of tangent offsets s, |s_k| <= half_width."""
    basis = np.linalg.qr(e[:, None], mode="complete")[0][:, 1:]
    s = np.linspace(-half_width, half_width, nodes)
    mesh = np.meshgrid(*[s] * basis.shape[1], indexing="ij")
    d = e + np.stack([m.ravel() for m in mesh], axis=-1) @ basis.T
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def dense_reference(pts, vals):
    """A two-level deficit: 4096 sphere-rule directions, then a tangent grid at their best."""
    dim = pts.shape[1]
    n = 4096
    cand = _unit_sphere(dim, n)
    sups = plain_sups(pts, vals, cand)
    spacing = 2.0 * np.pi / n if dim == 2 else np.sqrt(4.0 * np.pi / n)
    fine = tangent_grid(cand[int(np.argmin(sups))], 2.0 * spacing, 81 if dim == 2 else 61)
    return min(float(np.min(sups)), float(np.min(plain_sups(pts, vals, fine))))


def curved_blowup(dim):
    """curved_boundary_field rescaled at a point of its curved free boundary."""
    u = curved_boundary_field(dim, 48 if dim == 2 else 40)
    x = (0.1,) if dim == 2 else (0.3, -0.2)
    z = x + (float(curved_surface(*x)),)
    return rescale(u, z, 0.45, unit_box(dim))


class TestZoomFit:
    """The zoom refinement against the coarse scan and a dense direction grid."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_never_above_the_coarse_best(self, dim):
        cone = sample(unit_box(dim), lambda *x: np.sqrt(sum(xa * xa for xa in x)))
        for u in (halfplane_blowup(dim), curved_blowup(dim), cone):
            pts, vals = fit_points(u)
            coarse = float(np.min(plain_sups(pts, vals, _unit_sphere(dim, blowup.COARSE_DIRECTIONS))))
            assert flatness_deficit(u).deficit <= coarse * (1.0 + 1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_curved_field_reaches_the_dense_reference(self, dim):
        u = curved_blowup(dim)
        fit = flatness_deficit(u)
        pts, vals = fit_points(u)
        assert fit.deficit <= dense_reference(pts, vals) * (1.0 + 1e-6)
        # the reported direction is unit and attains the reported deficit
        e = np.array(fit.direction)
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-15)
        assert float(plain_sups(pts, vals, e[None, :])[0]) == pytest.approx(fit.deficit, rel=1e-12)

    def test_stored_field_point_where_the_coordinate_search_stalled(self):
        # field3d at seed 2: a curved stored field whose fit at this point a
        # search along one spherical coordinate at a time left at 0.03793
        a, b = 5.344695368598948, 5.29517896910705
        g = box_grid(3, 40)
        x1, x2, x3 = g.node_mesh()
        u = ScalarField(g, np.maximum(x3 - 0.1 * np.cos(np.pi * x1 + a) * np.cos(np.pi * x2 + b), 0.0))
        z = (-0.55, -0.15, -0.00989844159312918)
        assert flatness_deficit(rescale(u, z, 0.44955, unit_box(3))).deficit <= 0.0339


class TestPrunedCoarseScan:
    """The pruned coarse index against argmin of the full scan."""

    @staticmethod
    def full_argmin(pts_t, vals, cand):
        return int(np.argmin(blowup._coarse_sups(pts_t, vals, cand)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_fits(self, dim, monkeypatch):
        rng = np.random.default_rng(10 + dim)
        cand = _unit_sphere(dim, blowup.COARSE_DIRECTIONS)
        scans = []
        full = blowup._coarse_sups

        def counting(pts_t, vals, c):
            scans.append(c.shape[0])
            return full(pts_t, vals, c)

        for seed in range(12):
            n = int(rng.integers(50, 5000))
            pts = rng.uniform(-0.5, 0.5, (n, dim))
            if seed % 2:
                vals = rng.uniform(0.0, 0.5, n)
            else:
                # near a half-plane profile, as a blow-up of a regular point
                e = rng.standard_normal(dim)
                e /= np.linalg.norm(e)
                vals = np.maximum(pts @ e, 0.0) + 0.01 * rng.standard_normal(n)
            pts_t = np.ascontiguousarray(pts.T)
            want = self.full_argmin(pts_t, vals, cand)
            monkeypatch.setattr(blowup, "_coarse_sups", counting)
            scans.clear()
            assert blowup._coarse_best(pts_t, vals, cand) == want
            monkeypatch.setattr(blowup, "_coarse_sups", full)
            if seed % 2 == 0:
                # the subsampled bounds leave most blocks unscanned
                assert sum(scans[1:]) < cand.shape[0] // 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_constant_field_all_ties(self, dim):
        rng = np.random.default_rng(dim)
        cand = _unit_sphere(dim, blowup.COARSE_DIRECTIONS)
        pts = np.concatenate([np.zeros((1, dim)), rng.uniform(-0.35, 0.35, (999, dim))])
        vals = np.ones(1000)
        pts_t = np.ascontiguousarray(pts.T)
        sups = blowup._coarse_sups(pts_t, vals, cand)
        assert np.all(sups == sups[0])
        assert blowup._coarse_best(pts_t, vals, cand) == 0

    @pytest.mark.parametrize("first,second", [(5, 200), (40, 230), (33, 34)])
    def test_two_way_exact_tie(self, first, second):
        # a fit symmetric under y -> -y and a mirrored pair of candidates
        # nearest to the symmetric direction: their sups tie exactly
        rng = np.random.default_rng(first)
        half = rng.uniform(-0.5, 0.5, (600, 2))
        pts = np.concatenate([half, half * np.array([1.0, -1.0])])
        vals = np.maximum(pts[:, 0], 0.0) + 0.001 * np.concatenate([half[:, 1] ** 2] * 2)
        ang = rng.uniform(0.3, 2.0 * np.pi - 0.3, 256)
        cand = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        cand[first] = (np.cos(0.05), np.sin(0.05))
        cand[second] = cand[first] * np.array([1.0, -1.0])
        for a, b in ((first, second), (second, first)):
            # the subsample holds the point where direction a attains its sup
            # but not its mirror, so a's bound is exact and b's lies below:
            # b's block is scanned first, and a's block still has to be
            resid = np.abs(vals[:, None] - np.maximum(pts @ cand[[a, b]].T, 0.0))
            at_a, at_b = np.argmax(resid, axis=0)
            order = [at_a, at_b] + [i for i in range(pts.shape[0]) if i not in (at_a, at_b)]
            p, v = np.ascontiguousarray(pts[order].T), vals[order]
            sups = blowup._coarse_sups(p, v, cand)
            assert sups[first] == sups[second] == np.min(sups)
            assert np.count_nonzero(sups == np.min(sups)) == 2
            sub = np.ascontiguousarray(p[:, :: blowup.COARSE_STRIDE])
            lower = blowup._coarse_sups(sub, v[:: blowup.COARSE_STRIDE], cand)
            assert lower[a] == sups[a] and lower[b] < sups[b]
            assert blowup._coarse_best(p, v, cand) == first == self.full_argmin(p, v, cand)


class TestSequence:
    def test_empty_sequence_rejected(self):
        # all() over no scales would otherwise judge the point regular
        with pytest.raises(ValueError, match="at least one scale"):
            BlowupSequence((0.0, 0.0, 0.0), (), (), (), ())
        g = box_grid(3, 16)
        u = sample(g, lambda x, y, z: np.maximum(x, 0.0))
        with pytest.raises(ValueError, match="at least one scale"):
            build_sequence(u, (0.0, 0.0, 0.0), scales=())

    def test_scales_must_decrease(self):
        with pytest.raises(ValueError):
            BlowupSequence((0.0, 0.0), (0.2, 0.4), (), (), ())

    @pytest.mark.parametrize("s", [-0.5, float("nan")])
    def test_nan_scale_raises_like_negative(self, s):
        with pytest.raises(ValueError, match="scales must be positive"):
            BlowupSequence((0.0, 0.0), (0.4, s), (), (), ())

    def test_default_scales_ladder(self):
        g = box_grid(2, 64)
        scales = default_scales(g, (0.0, 0.0))
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert scales[-1] >= 8 * g.h
        assert scales[0] <= 1.0
        ratios = [a / b for a, b in zip(scales, scales[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_default_scales_near_edge(self):
        g = box_grid(2, 64)
        with pytest.raises(GeometryError):
            default_scales(g, (0.95, 0.0))

    def test_base_point_off_boundary_rejected(self):
        g = box_grid(2, 32)
        u = sample(g, lambda x, y: np.maximum(x, 0.0) + 0.5)
        with pytest.raises(ValueError):
            build_sequence(u, (0.0, 0.0), scales=(0.5, 0.25))

    def test_base_point_limit_scales_with_lipschitz(self):
        # slope 3, so |u(z)| may reach 3h; the message names that limit
        g = box_grid(2, 32)
        near = sample(g, lambda x, y: 3.0 * np.maximum(x, 0.0) + 2.0 * g.h)
        build_sequence(near, (0.0, 0.0), scales=(0.5,))
        far = sample(g, lambda x, y: 3.0 * np.maximum(x, 0.0) + 4.0 * g.h)
        limit = max(far.lipschitz, 1.0) * g.h
        with pytest.raises(ValueError, match=rf"\(limit {limit:.3g}\)"):
            build_sequence(far, (0.0, 0.0), scales=(0.5,))

    def test_halfplane_sequence_metrics(self):
        g = box_grid(2, 64)
        u = sample(g, lambda x, y: np.maximum(x, 0.0))
        seq = build_sequence(u, (0.0, 0.0), scales=(0.5, 0.25))
        assert seq.scales == (0.5, 0.25)
        assert all(d <= 2e-2 for d in seq.deviations)
        assert all(d <= 2e-2 for d in seq.deficits)
        assert all(abs(d[0] - 1.0) <= 1e-2 for d in seq.directions)


class TestDeficitFloor:
    """The reference ball's centre y = 0 is a fit point, where every (y . e)^+
    vanishes, so a fit at scale s has deficit at least |u(z)| / s; at a
    minimized field's auto points u(z) is the phase level l."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_deficit_bounds_the_centre_value(self, dim):
        g = box_grid(dim, 32)
        tangential = (0.0,) * (dim - 1)
        z = tangential + (0.3 * g.h,)
        cases = [
            (sample(g, lambda *x: np.maximum(x[-1], 0.0) + 0.5 * g.h), z),
            (sample(g, lambda *x: np.maximum(x[-1] + 0.2 * x[0] ** 2, 0.0) - 0.7 * g.h), z),
            (curved_boundary_field(dim, 32), tangential + (curved_surface(*tangential) + z[-1],)),
        ]
        for u, z in cases:
            seq = build_sequence(u, z, scales=(0.6, 0.3, 0.15))
            centre = float(interpolate(u, np.asarray(z)[None, :])[0])
            assert centre != 0.0
            for s, deficit in zip(seq.scales, seq.deficits):
                assert deficit >= abs(centre) / s

    @pytest.mark.parametrize("name,n", [("arctan_halfplane_2d", 96), ("halfplane_linear_3d", 32)])
    def test_minimized_field_deficit_is_the_phase_level(self, name, n):
        # the bundled runs on half their grids: the deficit is l / s at
        # every auto point and scale, the ramp's floor and nothing else
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        data["grid"]["n_cells"] = [n] * len(data["grid"]["n_cells"])
        s = Scenario.from_dict(data)
        u, report = stage_minimize(s)
        assert report["stop_reason"] == "gradient_tol"
        points = select_points(s, u)
        assert points
        for z in points:
            seq = build_sequence(u, z)
            for r, deficit in zip(seq.scales, seq.deficits):
                assert abs(deficit * r / s.phase_level - 1.0) <= 1e-8


class TestVerdict:
    def test_halfplane_regular(self):
        g = box_grid(3, 48)
        u = sample(g, lambda x, y, z: np.maximum(x, 0.0))
        seq = build_sequence(u, (0.0, 0.0, 0.0))
        assert regularity_verdict(seq, DensityModel(kind="linear")) == "regular"
        assert len(seq.scales) >= 2

    def test_sphere_cap_regular(self):
        # positive part of a gently curved sphere profile, radius 8
        g = Grid((6.5, -1.5, -1.5), (9.5, 1.5, 1.5), (48, 48, 48))
        x, y, z = g.node_mesh()
        u = ScalarField(g, np.clip(np.sqrt(x * x + y * y + z * z) - 8.0, 0.0, None))
        seq = build_sequence(u, (8.0, 0.0, 0.0), scales=(0.75, 0.5))
        assert regularity_verdict(seq, DensityModel(kind="linear")) == "regular"

    def test_cone_inconclusive(self):
        g = box_grid(3, 32)
        u = sample(g, lambda x, y, z: np.sqrt(x * x + y * y + z * z))
        seq = build_sequence(u, (0.0, 0.0, 0.0))
        assert regularity_verdict(seq, DensityModel(kind="linear")) == "inconclusive"

    def test_dim_gate(self):
        g = box_grid(2, 32)
        u = sample(g, lambda x, y: np.maximum(x, 0.0))
        seq = build_sequence(u, (0.0, 0.0))
        assert regularity_verdict(seq, DensityModel(kind="linear")) == "unavailable"

    def test_dim_gate_skips_the_flatness_scan(self, monkeypatch):
        # a 2D sequence gets no verdict whatever the model or its metrics, so
        # its flatness report is never computed
        def no_scan(model):
            raise AssertionError("flatness_report called for a 2D field")

        monkeypatch.setattr(blowup, "flatness_report", no_scan)
        flat = BlowupSequence(
            base_point=(0.0, 0.0),
            scales=(0.5, 0.25),
            deviations=(0.0, 0.0),
            deficits=(0.0, 0.0),
            directions=((1.0, 0.0), (1.0, 0.0)),
        )
        for model in (DensityModel(kind="linear"), DensityModel(kind="arctan", alpha=2.0)):
            assert regularity_verdict(flat, model) == "unavailable"

    def test_model_gate(self):
        g = box_grid(3, 16)
        u = sample(g, lambda x, y, z: np.maximum(x, 0.0))
        seq = build_sequence(u, (0.0, 0.0, 0.0), scales=(0.75, 0.5))
        assert regularity_verdict(seq, DensityModel(kind="linear")) == "regular"
        assert regularity_verdict(seq, DensityModel(kind="arctan", alpha=2.0)) == "unavailable"
