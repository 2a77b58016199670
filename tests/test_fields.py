"""Grids, gradients, interpolation, sphere and ball quadrature, crossings.

Quadrature targets are closed forms re-derived here (half ball volumes,
surface moments via 1d reduction) or independent scipy quadratures, so the
grid code is never checked against itself.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from fbmlab import fields
from fbmlab.blowup import build_sequence, default_scales, homogeneity_deviation
from fbmlab.density import DensityModel
from fbmlab.errors import GeometryError
from fbmlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    _ball_weights,
    add_edge_means,
    edge_differences,
    edge_differences_transpose,
    edge_gradient_square,
    edge_means_transpose,
    face_planes,
    _interp_core,
    _unit_sphere,
    ball_integral,
    ball_weights,
    free_boundary_points,
    geometric_radii,
    gradient,
    gradient_arrays,
    interpolate,
    shell_average,
    sphere_quadrature,
    trapezoid_weights,
    weigh,
)
from fbmlab.ghost import flux_field, flux_l2_profile, neumann_solve, shell_identity_report
from fbmlab.minimizer import ramp, ramp_free_boundary
from fbmlab.monotonicity import (
    error_term,
    error_term_flux,
    oscillation_profile,
    radial_derivative,
    regular_point_fit,
    scan,
    weiss_core,
)


def box_grid(dim, n, half=1.0):
    return Grid((-half,) * dim, (half,) * dim, (n,) * dim)


def sample(grid, fn):
    mesh = grid.node_mesh()
    return ScalarField(grid, fn(*mesh))


class TestGrid:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_node_offsets_bytes_equal_mesh(self, dim):
        g = Grid((-0.3,) * dim, (0.9,) * dim, (12,) * dim)
        z = np.array([0.1, -0.07, 0.33][:dim])
        mesh = g.node_mesh()
        window = (slice(2, 9), slice(0, 13), slice(5, 6))[:dim]
        for win in (None, window):
            offsets = g.node_offsets(z, win)
            assert [o.ndim for o in offsets] == [dim] * dim
            sq = sum(o * o for o in offsets)
            want_sq = sum((m - z[a]) ** 2 for a, m in enumerate(mesh))
            sl = (slice(None),) * dim if win is None else win
            for a, o in enumerate(offsets):
                full = np.broadcast_to(o, sq.shape)
                assert full.tobytes() == np.ascontiguousarray((mesh[a] - z[a])[sl]).tobytes()
            assert sq.tobytes() == np.ascontiguousarray(want_sq[sl]).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_balls_inside_matches_require_ball_inside(self, dim):
        # centres on, and one ulp either side of, every face's fit boundary,
        # random ones, and a NaN coordinate
        g = Grid((-0.7,) * dim, (1.1,) * dim, (18,) * dim)
        r = 0.37
        slack = 1e-9 * max(g.h, 1.0)
        rng = np.random.default_rng(dim)
        pts = [rng.uniform(-0.8, 1.2, size=dim) for _ in range(200)]
        for a in range(dim):
            for edge in (g.lo[a] - slack + r, g.hi[a] + slack - r):
                for c in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    z = np.full(dim, 0.2)
                    z[a] = c
                    pts.append(z)
        pts.append(np.array([np.nan] + [0.2] * (dim - 1)))
        pts = np.array(pts)
        want = []
        for z in pts:
            try:
                g.require_ball_inside(z, r)
                want.append(True)
            except GeometryError:
                want.append(False)
        got = g.balls_inside(pts, r)
        assert got.dtype == bool
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    def test_spacing_uniformity_enforced(self):
        with pytest.raises(ValueError):
            Grid((-1.0, -1.0), (1.0, 2.0), (16, 16))
        g = Grid((-1.0, -1.0), (1.0, 2.0), (16, 24))
        assert g.h == pytest.approx(0.125)

    def test_basic_properties(self):
        g = box_grid(3, 8)
        assert g.dim == 3
        assert g.node_shape == (9, 9, 9)
        assert g.axis_nodes(0)[0] == -1.0
        assert g.axis_nodes(0)[-1] == 1.0

    def test_rejects_1d_and_4d(self):
        with pytest.raises(ValueError):
            Grid((-1.0,), (1.0,), (4,))
        with pytest.raises(ValueError):
            Grid((-1.0,) * 4, (1.0,) * 4, (4,) * 4)

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            Grid((0.0, 0.0), (0.0, 1.0), (4, 4))


class TestGradient:
    def test_constant_exact_zero(self):
        g = box_grid(2, 12)
        f = sample(g, lambda x, y: np.full_like(x, 3.7))
        assert np.all(gradient(f).values == 0.0)

    def test_affine_exact(self):
        g = box_grid(3, 10)
        a = (1.25, -0.5, 2.0)
        f = sample(g, lambda x, y, z: a[0] * x + a[1] * y + a[2] * z)
        G = gradient(f).values
        for k in range(3):
            assert np.max(np.abs(G[k] - a[k])) < 1e-13

    def test_quadratic_exact_including_faces(self):
        # centered interior stencils and one-sided face stencils are both
        # second order, hence exact on |x|^2
        g = box_grid(3, 16)
        f = sample(g, lambda x, y, z: x * x + y * y + z * z)
        G = gradient(f).values
        mesh = g.node_mesh()
        for k in range(3):
            assert np.max(np.abs(G[k] - 2.0 * mesh[k])) < 1e-10


def frozen_gradient_arrays(values, h):
    """The derivative stencil as it stood before the flat-offset pass: per-axis swapaxes views."""
    values = np.asarray(values, dtype=float)
    out = [np.empty_like(values) for _ in range(values.ndim)]
    for axis, d in enumerate(out):
        f = values.swapaxes(0, axis)
        d = d.swapaxes(0, axis)
        np.subtract(f[2:], f[:-2], out=d[1:-1])
        d[1:-1] /= 2.0 * h
        np.multiply(f[0], -1.5 / h, out=d[0])
        d[0] += (2.0 / h) * f[1]
        d[0] += (-0.5 / h) * f[2]
        np.multiply(f[-3], 0.5 / h, out=d[-1])
        d[-1] += (-2.0 / h) * f[-2]
        d[-1] += (1.5 / h) * f[-1]
    return out


def signed_zero_input(shape, seed):
    """Normal samples with about a third of the nodes set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[x > 1.0] = 0.0
    x[x < -1.0] = -0.0
    return x


def stencil_inputs(shape, seed):
    """signed_zero_input, and an input of only +0.0 and -0.0 nodes, where
    every sum a stencil forms is a sum of signed zeros."""
    x = signed_zero_input(shape, seed)
    return [x, np.where(x > 0.0, 0.0, -0.0)]


STENCIL_SHAPES = [(3, 4), (129, 129), (3, 3, 3), (5, 7, 9), (41, 41, 41)]


class TestFlatOffsetStencils:
    @pytest.mark.parametrize("shape", STENCIL_SHAPES)
    def test_derivative_bytes_equal_frozen_stencil(self, shape):
        h = 0.07
        for values in stencil_inputs(shape, 11):
            want = frozen_gradient_arrays(values, h)
            out = [np.full(shape, np.nan) for _ in shape]
            assert gradient_arrays(values, h, out=out) is out
            for axis, fresh in enumerate(gradient_arrays(values, h)):
                assert out[axis].tobytes() == want[axis].tobytes()
                assert fresh.tobytes() == want[axis].tobytes()

    def test_non_contiguous_input_view(self):
        h = 0.05
        stack = signed_zero_input((5, 7, 9, 2), 13)
        view = stack[..., 1]
        assert not view.flags.c_contiguous
        dense = np.ascontiguousarray(view)
        for got, want in zip(gradient_arrays(view, h), frozen_gradient_arrays(dense, h)):
            assert got.tobytes() == want.tobytes()
        transposed = dense.T
        for got, want in zip(gradient_arrays(transposed, h), frozen_gradient_arrays(transposed, h)):
            assert got.tobytes() == want.tobytes()

    def test_non_contiguous_buffers_raise(self):
        shape = (5, 6)
        values = signed_zero_input(shape, 14)
        strided = np.zeros((5, 12))[:, ::2]
        fortran = np.zeros(shape, order="F")
        for bad in (strided, fortran, np.zeros((5, 7))):
            with pytest.raises(ValueError, match="C-contiguous"):
                gradient_arrays(values, 0.1, out=[np.zeros(shape), bad])

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4), (4, 4, 2)])
    def test_short_axis_raises_before_any_write(self, shape):
        out = [np.full(shape, 7.0) for _ in shape]
        with pytest.raises(ValueError, match="needs 3 nodes on every axis"):
            gradient_arrays(np.ones(shape), 0.1, out=out)
        assert all(np.all(d == 7.0) for d in out)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_one_dimensional_input(self, n):
        h = 0.13
        values = np.random.default_rng(n).standard_normal(n)
        (d,) = gradient_arrays(values, h)
        assert d.tobytes() == np.gradient(values, h, edge_order=2).tobytes()
        out = [np.full(n, np.nan)]
        assert gradient_arrays(np.arange(float(n)), 1.0, out=out) is out
        assert out[0].tobytes() == np.gradient(np.arange(float(n)), edge_order=2).tobytes()


def frozen_trapezoid_weights(shape, skip=None):
    """Product of per-axis trapezoid weights (1 inside, 1/2 at both ends), axis skip left out."""
    w = np.ones(shape)
    for a, m in enumerate(shape):
        if a != skip:
            wa = np.ones(m)
            wa[[0, -1]] *= 0.5
            w = w * wa.reshape([m if b == a else 1 for b in range(len(shape))])
    return w


class TestFacePlanes:
    @pytest.mark.parametrize("shape", [(9,), (7, 5), (6, 4, 5)])
    def test_planes_are_the_face_nodes_and_writes_land(self, shape):
        # a write through every plane adds one per axis on whose faces a
        # node lies: the face nodes, corners once per axis, and no other
        index = np.indices(shape)
        for skip in (None, *range(len(shape))):
            x = np.zeros(shape)
            planes = list(face_planes(x, skip))
            assert len(planes) == 2 * (len(shape) - (skip is not None))
            for plane in planes:
                plane += 1.0
            want = np.zeros(shape)
            for a, (i, m) in enumerate(zip(index, shape)):
                if a != skip:
                    want += (i == 0) + (i == m - 1).astype(float)
            assert np.array_equal(x, want), skip


class TestWeigh:
    @pytest.mark.parametrize("shape", [(9,), (7, 5), (6, 4, 5)])
    def test_bitwise_equal_to_weight_product(self, shape):
        x = np.random.default_rng(3).normal(size=shape)
        for skip in (None, *range(len(shape))):
            got = x.copy()
            assert weigh(got, skip=skip) is got
            want = x * frozen_trapezoid_weights(shape, skip)
            assert got.tobytes() == want.tobytes(), skip
        assert trapezoid_weights(shape).tobytes() == frozen_trapezoid_weights(shape).tobytes()


class TestEdgeStencils:
    """The minimized energy's edge quotients, their node means and adjoints."""

    @pytest.mark.parametrize("shape", [(7, 9), (5, 6, 8)])
    def test_adjoints(self, shape):
        rng = np.random.default_rng(3)
        u, x = rng.standard_normal(shape), rng.standard_normal(shape)
        for axis in range(len(shape)):
            e = edge_differences(u, axis, 0.3, out=np.empty(shape))
            assert not np.any(e.swapaxes(0, axis)[-1])
            v = edge_differences(x, axis, 0.3, out=np.empty(shape))
            back = edge_differences_transpose(v, axis, 0.3, out=np.empty(shape))
            assert np.vdot(e, v) == pytest.approx(np.vdot(u, back), rel=1e-12)
            acc = np.zeros(shape)
            add_edge_means(e.copy(), axis, acc)
            spread = edge_means_transpose(x, axis, out=np.empty(shape))
            assert np.vdot(acc, x) == pytest.approx(np.vdot(e, spread), rel=1e-12)

    def test_square_gradient_sees_the_checkerboard(self):
        # the centered difference of (-1)^k is zero inside; the edges see it
        shape = (9, 9)
        i, j = np.indices(shape)
        u = (-1.0) ** (i + j)
        inside = (slice(1, -1),) * 2
        assert not np.any(sum(g * g for g in gradient_arrays(u, 1.0))[inside])
        q = edge_gradient_square(u, 1.0, np.empty(shape), np.empty(shape))
        assert np.all(q == 8.0)

    def test_square_gradient_of_an_affine_field(self):
        g = box_grid(3, 6)
        x, y, z = g.node_mesh()
        u = 0.5 * x - 2.0 * y + z
        shape = g.node_shape
        q = edge_gradient_square(u, g.h, np.empty(shape), np.empty(shape))
        assert np.allclose(q, 5.25, rtol=1e-12)

    def test_rejects_strided_buffers(self):
        u = np.zeros((6, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            edge_differences(u, 0, 1.0, out=np.zeros((6, 12))[:, ::2])


class TestInterpolation:
    def test_node_values_exact(self):
        g = box_grid(2, 9)
        f = sample(g, lambda x, y: np.sin(x) + y)
        pts = np.stack([m.ravel() for m in g.node_mesh()], axis=-1)
        got = interpolate(f, pts)
        assert np.max(np.abs(got - f.values.ravel())) < 1e-14

    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=20))
    def test_affine_reproduced(self, raw_pts):
        g = box_grid(2, 7)
        f = sample(g, lambda x, y: 2.0 * x - 0.75 * y + 0.3)
        pts = np.array(raw_pts)
        got = interpolate(f, pts)
        want = 2.0 * pts[:, 0] - 0.75 * pts[:, 1] + 0.3
        assert np.max(np.abs(got - want)) < 1e-12

    def test_quadratic_midedge_error(self):
        # on an edge midpoint the interpolant of x^2 misses by h^2/4
        g = box_grid(2, 8)
        h = g.h
        f = sample(g, lambda x, y: x * x)
        x0 = g.axis_nodes(0)[3]
        p = np.array([x0 + 0.5 * h, g.axis_nodes(1)[4]])
        err = interpolate(f, p) - (x0 + 0.5 * h) ** 2
        assert err == pytest.approx(h * h / 4.0, rel=1e-10)

    def test_outside_box_raises(self):
        g = box_grid(2, 4)
        f = sample(g, lambda x, y: x)
        with pytest.raises(GeometryError):
            interpolate(f, np.array([1.5, 0.0]))

    def test_box_slack_is_the_ball_rule(self):
        # the one box rule widens the box by 1e-9 max(h, 1), not 1e-9 h: a
        # point 5e-10 outside takes its face's values, 2e-9 outside fails
        g = box_grid(2, 16)
        assert g.h == 0.125
        f = sample(g, lambda x, y: x + 2.0 * y)
        got = interpolate(f, np.array([[1.0 + 5e-10, 0.25], [0.5, -1.0 - 5e-10]]))
        assert got.tolist() == [1.5, -1.5]
        with pytest.raises(GeometryError, match="interpolation point outside the grid box"):
            interpolate(f, np.array([1.0 + 2e-9, 0.25]))

    def test_single_point_shape(self):
        g = box_grid(3, 4)
        f = sample(g, lambda x, y, z: x + y + z)
        v = interpolate(f, np.array([0.1, 0.2, -0.3]))
        assert np.ndim(v) == 0 or isinstance(v, float)


def frozen_interp(values, grid, pts):
    """The per-corner fancy-indexing interpolation the gather kernel replaced."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = grid.h
    idx = []
    frac = []
    for a in range(grid.dim):
        x = (pts[:, a] - grid.lo[a]) / h
        i = np.clip(np.floor(x).astype(np.int64), 0, grid.n_cells[a] - 1)
        idx.append(i)
        frac.append(np.clip(x - i, 0.0, 1.0))
    extra = values.ndim - grid.dim
    out = np.zeros(pts.shape[0:1] + values.shape[grid.dim :], dtype=float)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(pts.shape[0])
        for a, c in enumerate(corner):
            w = w * (frac[a] if c else 1.0 - frac[a])
        vals = values[tuple(idx[a] + corner[a] for a in range(grid.dim))]
        if extra:
            w = w.reshape((-1,) + (1,) * extra)
        out += w * vals
    return out


def kernel_points(grid, rng, m=500):
    """Random interior points plus face, hi-corner and slack-band points."""
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    pts = [rng.uniform(lo, hi, (m, grid.dim)), hi[None, :], lo[None, :]]
    band = 0.5e-9 * grid.h
    for a in range(grid.dim):
        face = rng.uniform(lo, hi, (8, grid.dim))
        face[:4, a] = lo[a]
        face[4:, a] = hi[a]
        pts.append(face)
        slack = rng.uniform(lo, hi, (2, grid.dim))
        slack[0, a] = lo[a] - band
        slack[1, a] = hi[a] + band
        pts.append(slack)
    return np.concatenate(pts)


class TestGatherKernel:
    """The gather kernel over plain nodal arrays against the per-field kernel it replaced."""

    @pytest.mark.parametrize("dim, n", [(2, 13), (3, 7)])
    def test_bitwise_equal_to_frozen_kernel(self, dim, n):
        rng = np.random.default_rng(dim)
        grid = Grid((-1.3,) * dim, (0.7,) * dim, (n,) * dim)
        scalar = rng.standard_normal(grid.node_shape)
        # the frozen kernel reads a point-major stack; the field, its components
        stack = rng.standard_normal(grid.node_shape + (dim,))
        vector = np.ascontiguousarray(np.moveaxis(stack, -1, 0))
        pts = kernel_points(grid, rng)
        want_s = frozen_interp(scalar, grid, pts)
        want_v = frozen_interp(stack, grid, pts)
        got_s = interpolate(ScalarField(grid, scalar), pts)
        got_v = interpolate(VectorField(grid, vector), pts)
        assert got_s.tobytes() == want_s.tobytes()
        assert got_v.tobytes() == want_v.tobytes()
        stacked = _interp_core([scalar, *vector, -scalar], grid, pts)
        assert stacked[0].tobytes() == want_s.tobytes()
        assert np.ascontiguousarray(stacked[1 : dim + 1].T).tobytes() == want_v.tobytes()
        assert stacked[-1].tobytes() == frozen_interp(-scalar, grid, pts).tobytes()

    def test_vector_field_is_component_major(self):
        grid = box_grid(3, 4)
        values = np.arange(3 * grid.n_nodes, dtype=float).reshape((3,) + grid.node_shape)
        field = VectorField(grid, values)
        assert all(c.flags.c_contiguous and c.shape == grid.node_shape for c in field.values)
        with pytest.raises(ValueError, match="values shape"):
            VectorField(grid, np.zeros(grid.node_shape + (3,)))
        # a strided or misshapen array is refused, not silently copied
        for bad in (np.zeros(grid.node_shape + (2,))[..., 0], np.zeros(grid.n_nodes)):
            with pytest.raises(ValueError, match="C-contiguous"):
                _interp_core([bad], grid, np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "bad", [[1.0 + 1e-6, 0.0], [0.0, -1.0 - 1e-6], [float("nan"), 0.0], [0.0, float("inf")]]
    )
    def test_outside_or_nan_points_raise(self, bad):
        grid = box_grid(2, 4)
        with pytest.raises(GeometryError):
            _interp_core([np.zeros(grid.node_shape)], grid, np.array([[0.1, 0.2], bad]))

    def test_wrong_column_count_raises(self):
        grid = box_grid(3, 4)
        with pytest.raises(ValueError):
            _interp_core([np.zeros(grid.node_shape)], grid, np.zeros((5, 2)))


class TestBallRadius:
    """Every ball and sphere diagnostic rejects a radius that is not positive
    and a ball or sphere that leaves the box.  The quadrature rules own the
    check, so no diagnostic checks first, and a zero flux fails with the
    message of a nonzero one.  Before, the ball rule divided by zero at
    r = 0 and read r < 0 as an empty ball, a perfectly homogeneous point."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("r", [0.0, -0.2, 1.5])
    def test_every_ball_entry_point_raises(self, dim, r):
        grid = box_grid(dim, 16)
        z = (0.0,) * dim
        u = sample(grid, lambda x, *rest: np.maximum(x, 0.0) * (1.0 + 0.2 * x))
        linear, arctan = DensityModel(kind="linear"), DensityModel(kind="arctan", alpha=0.1)
        zero, curved = flux_field(u, linear, z), flux_field(u, arctan, z)
        assert zero.is_zero and not curved.is_zero
        g_zero, g_curved = neumann_solve(zero), neumann_solve(curved)
        message = "leaves the box" if r > 0.0 else "radius must be positive"
        calls = [
            lambda: ball_weights(grid, z, r),
            lambda: ball_integral(u, z, r),
            lambda: homogeneity_deviation(u, z, r),
            lambda: oscillation_profile(u, z, [r]),
            lambda: shell_average(u, z, r),
            lambda: weiss_core(u, arctan, 1.0, z, r, level=0.0),
            lambda: radial_derivative(u, arctan, z, r, level=0.0),
            lambda: error_term(u, arctan, z, r, level=0.0),
            lambda: regular_point_fit(u, z, [r, 0.3, 0.4, 0.5]),
        ]
        for call in calls:
            with pytest.raises(GeometryError, match=message):
                call()
        # these two check a non-positive radius before any ball or sphere
        with pytest.raises(GeometryError, match="leaves the box" if r > 0.0 else "capped core"):
            error_term_flux(curved, r)
        with pytest.raises(GeometryError, match=message if r > 0.0 else "radii must be positive"):
            scan(u, linear, 1.0, z, [r], g_zero, level=0.0)
        for report in (
            lambda flux, g: shell_identity_report(flux, g, [r]),
            lambda flux, g: flux_l2_profile(flux, [r]),
        ):
            messages = []
            for flux, g in ((zero, g_zero), (curved, g_curved)):
                with pytest.raises(GeometryError, match=message) as exc:
                    report(flux, g)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]


class TestSphereQuadrature:
    @pytest.mark.parametrize("r", [-0.5, float("nan")])
    def test_nan_radius_raises_like_negative(self, r):
        with pytest.raises(GeometryError, match="^radius must be positive, got"):
            sphere_quadrature(2, (0.0, 0.0), r)

    def test_weights_sum_to_surface_measure(self):
        for dim, area in ((2, 2 * math.pi * 0.7), (3, 4 * math.pi * 0.49)):
            _, w = sphere_quadrature(dim, (0,) * dim, 0.7, 2000)
            assert np.sum(w) == pytest.approx(area, rel=1e-12)

    def test_points_on_sphere(self):
        pts, _ = sphere_quadrature(3, (0.1, -0.2, 0.0), 0.5, 500)
        radii = np.linalg.norm(pts - np.array([0.1, -0.2, 0.0]), axis=1)
        assert np.max(np.abs(radii - 0.5)) < 1e-12

    def test_odd_moment_cancels(self):
        pts, w = sphere_quadrature(3, (0, 0, 0), 1.0, 4000)
        e = np.array([0.3, -0.5, 0.81])
        e /= np.linalg.norm(e)
        val = np.dot(w, pts @ e)
        assert abs(val) < 1e-3

    def test_second_moment_3d(self):
        # integral over S^2 of (w.e)^2 equals 4*pi/3
        pts, w = sphere_quadrature(3, (0, 0, 0), 1.0, 4000)
        e = np.array([0.0, 0.0, 1.0])
        val = np.dot(w, (pts @ e) ** 2)
        assert val == pytest.approx(4 * math.pi / 3, rel=5e-3)

    def test_positive_part_second_moment_vs_scipy(self):
        # oracle: 2*pi*int_0^1 c^2 dc = 2*pi/3 for the one-sided second moment
        oracle, _ = integrate.quad(lambda c: 2 * math.pi * c * c, 0.0, 1.0)
        pts, w = sphere_quadrature(3, (0, 0, 0), 1.0, 4096)
        e = np.array([1.0, 0.0, 0.0])
        val = np.dot(w, np.maximum(pts @ e, 0.0) ** 2)
        assert val == pytest.approx(oracle, rel=5e-3)
        assert oracle == pytest.approx(2 * math.pi / 3, abs=1e-12)


class TestShellAverage:
    def test_constant(self):
        g = box_grid(3, 16)
        f = sample(g, lambda x, y, z: np.full_like(x, 2.5))
        got = shell_average(f, (0, 0, 0), 0.6)
        assert got == pytest.approx(2.5 * 4 * math.pi, rel=1e-12)

    def test_positive_part_squared(self):
        g = box_grid(3, 48)
        f = sample(g, lambda x, y, z: np.maximum(x, 0.0) ** 2)
        r = 0.5
        got = shell_average(f, (0, 0, 0), r)
        assert got == pytest.approx(r * r * 2 * math.pi / 3, rel=5e-3)

    def test_sphere_leaves_box(self):
        g = box_grid(2, 8)
        f = sample(g, lambda x, y: x)
        with pytest.raises(GeometryError):
            shell_average(f, (0.8, 0.0), 0.5)


def ones(grid):
    return ScalarField(grid, np.ones(grid.node_shape))


class TestBallIntegral:
    def test_unit_ball_volume_3d(self):
        g = box_grid(3, 32, half=1.05)
        got = ball_integral(ones(g), (0, 0, 0), 1.0)
        assert got == pytest.approx(4 * math.pi / 3, rel=2e-3)

    def test_disc_area_2d(self):
        g = box_grid(2, 64, half=1.05)
        got = ball_integral(ones(g), (0, 0), 1.0)
        assert got == pytest.approx(math.pi, rel=2e-3)

    def test_half_space_indicator(self):
        # odd cell count puts the interface through cell midpoints, so the
        # midpoint rule resolves the jump exactly
        g = box_grid(3, 33, half=1.05)
        f = sample(g, lambda x, y, z: (x > 0).astype(float))
        got = ball_integral(f, (0, 0, 0), 1.0)
        assert got == pytest.approx(2 * math.pi / 3, rel=5e-3)

    def test_smooth_field_value(self):
        # oracle: integral of x^2+y^2+z^2 over B_r is 4*pi*r^5/5
        g = box_grid(3, 64)
        f = sample(g, lambda x, y, z: x * x + y * y + z * z)
        r = 0.8
        got = ball_integral(f, (0, 0, 0), r)
        assert got == pytest.approx(4 * math.pi * r**5 / 5, rel=3e-3)

    def test_smooth_field_second_order(self):
        exact = 4 * math.pi * 0.8**5 / 5
        errs = []
        for n in (16, 32, 64):
            g = box_grid(3, n)
            f = sample(g, lambda x, y, z: x * x + y * y + z * z)
            errs.append(abs(ball_integral(f, (0, 0, 0), 0.8) - exact))
        # halving h should cut the error by about four
        assert errs[1] < 0.4 * errs[0]
        assert errs[2] < 0.4 * errs[1]

    def test_ball_leaves_box(self):
        g = box_grid(2, 16)
        f = sample(g, lambda x, y: x)
        with pytest.raises(GeometryError):
            ball_integral(f, (0.5, 0.0), 0.75)

    def test_coarea_consistency(self):
        # d/dr of the ball integral should match the sphere integral r^(n-1)*shell
        g = box_grid(2, 128)
        f = sample(g, lambda x, y: np.exp(x) * np.cos(y))
        z = (0.1, -0.05)
        r, dr = 0.5, 0.02
        fd = (ball_integral(f, z, r + dr) - ball_integral(f, z, r - dr)) / (2 * dr)
        surf = r ** (g.dim - 1) * shell_average(f, z, r)
        assert fd == pytest.approx(surf, rel=2e-2)

    def test_refinement_improves_volume(self):
        exact = 4 * math.pi / 3 * 0.7**3
        errs = []
        for n in (16, 32, 64):
            g = box_grid(3, n)
            errs.append(abs(ball_integral(ones(g), (0, 0, 0), 0.7) - exact))
        assert errs[2] < errs[0]
        assert errs[2] < 0.6 * errs[0]


def reference_ball_rule(grid, z, r, n_sub=fields.SUBSAMPLES, core=False):
    """The per-call subsample rule the cached weights replace.

    Returns the cell window, the safe and borderline masks, and for each
    borderline cell its subsample points and inside mask.  core keeps the
    rule as it stood with an excluded core of radius 0: the cells within
    half a diagonal of z are borderline, not safe.
    """
    h, dim = grid.h, grid.dim
    z = np.asarray(z, dtype=float)
    win = []
    for a in range(dim):
        lo_i = max(0, int(math.floor((z[a] - r - grid.lo[a]) / h)) - 1)
        hi_i = min(grid.n_cells[a], int(math.ceil((z[a] + r - grid.lo[a]) / h)) + 1)
        win.append(slice(lo_i, hi_i))
    centers = [grid.axis_centers(a)[w] - z[a] for a, w in enumerate(win)]
    mesh = np.meshgrid(*centers, indexing="ij")
    d = np.sqrt(sum(m * m for m in mesh))
    half_diag = 0.5 * h * math.sqrt(dim)
    sure_in = d + half_diag <= r
    if core:
        sure_in &= d - half_diag >= 0.0
    near = ~sure_in & (d - half_diag <= r)
    cc = np.stack(mesh, axis=-1)[near]
    offs_1d = ((np.arange(n_sub) + 0.5) / n_sub - 0.5) * h
    offs = np.stack(np.meshgrid(*([offs_1d] * dim), indexing="ij"), axis=-1)
    rel = cc[:, None, :] + offs.reshape(-1, dim)[None, :, :]
    dd2 = np.sum(rel * rel, axis=-1)
    inside = dd2 <= r * r
    return tuple(win), sure_in, near, rel + z, inside


def reference_ball_integral(f, z, r):
    """Cell midpoints on safe cells, the interpolant at inside subsamples elsewhere."""
    grid = f.grid
    win, sure_in, near, pts, inside = reference_ball_rule(grid, z, r)
    cells = f.values
    for a in range(grid.dim):
        cells = 0.5 * (np.take(cells, range(cells.shape[a] - 1), axis=a)
                       + np.take(cells, range(1, cells.shape[a]), axis=a))
    total = np.sum(cells[win][sure_in])
    vals = interpolate(f, pts.reshape(-1, grid.dim)).reshape(inside.shape)
    total += np.sum(np.mean(vals * inside, axis=1))
    return grid.h**grid.dim * total


def reference_ball_integral_cells(cell_values, grid, z, r):
    win, sure_in, near, _, inside = reference_ball_rule(grid, z, r)
    vals = cell_values[win]
    total = np.sum(vals[sure_in]) + np.sum(inside.mean(axis=1) * vals[near])
    return grid.h**grid.dim * total


BALL_CASES = [
    # (dim, n, half, z, r): off-node centres, a node-aligned centre, and
    # balls whose window reaches a box face
    (2, 24, 1.0, (0.013, -0.271), 0.55),
    (2, 24, 1.0, (0.1, 0.05), 0.6),
    (2, 16, 1.0, (0.4, -0.1), 0.6),
    (3, 16, 1.0, (0.031, -0.047, 0.102), 0.5),
    (3, 16, 1.0, (0.0, 0.0, 0.0), 0.7),
    (3, 12, 1.0, (-0.3, 0.2, 0.05), 0.7),
]


class TestBallWeights:
    @staticmethod
    def field(grid):
        mesh = grid.node_mesh()
        return ScalarField(grid, np.exp(0.7 * mesh[0]) * np.cos(mesh[1]) + sum(mesh) ** 2)

    @pytest.mark.parametrize("dim,n,half,z,r", BALL_CASES)
    def test_matches_subsample_interpolant_rule(self, dim, n, half, z, r):
        g = box_grid(dim, n, half)
        f = self.field(g)
        cells = np.cos(np.arange(np.prod(g.n_cells), dtype=float)).reshape(g.n_cells)
        want = reference_ball_integral(f, z, r)
        assert ball_integral(f, z, r) == pytest.approx(want, rel=1e-13)
        want = reference_ball_integral_cells(cells, g, z, r)
        bw = ball_weights(g, z, r)
        got = g.h**dim * np.sum(bw.cells * cells[bw.cell_window])
        assert got == pytest.approx(want, rel=1e-13)

    def test_base_point_needs_one_coordinate_per_axis(self):
        # an extra coordinate used to be dropped silently
        g = box_grid(2, 16)
        f = self.field(g)
        for z in [(0.1, 0.0, 7.0), (0.1,)]:
            with pytest.raises(ValueError, match="base point dimension mismatch"):
                ball_integral(f, z, 0.5)
            with pytest.raises(ValueError, match="base point dimension mismatch"):
                ball_weights(g, z, 0.5)
            with pytest.raises(ValueError, match="base point dimension mismatch"):
                homogeneity_deviation(f, z, 0.5)
            with pytest.raises(ValueError, match="base point dimension mismatch"):
                shell_average(f, z, 0.5)
            with pytest.raises(ValueError, match="base point dimension mismatch"):
                default_scales(g, z)
            with pytest.raises(ValueError, match="base point dimension mismatch"):
                build_sequence(f, z)
        assert all(type(s) is float for s in default_scales(box_grid(2, 64), (0.1, 0.0)))

    def test_window_touches_box_face(self):
        g = box_grid(2, 16)
        bw = ball_weights(g, (0.4, -0.1), 0.6)
        assert bw.node_window[0].stop == g.node_shape[0]
        assert bw.cell_window[0].stop == g.n_cells[0]

    def test_cache_hit_bitwise_and_read_only(self):
        g = box_grid(3, 12)
        f = self.field(g)
        z, r = (0.05, -0.02, 0.11), 0.6
        _ball_weights.cache_clear()
        first = ball_integral(f, z, r)
        assert _ball_weights.cache_info().misses == 1
        second = ball_integral(f, z, r)
        assert _ball_weights.cache_info().hits == 1
        assert first == second
        bw = ball_weights(g, np.asarray(z), r)
        assert _ball_weights.cache_info().hits == 2
        for arr in (bw.cells, bw.nodes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * g.dim] = 1.0

    def test_node_weights_sum_to_cell_weights(self):
        # each cell hands its whole weight to its corners
        g = box_grid(3, 12)
        bw = ball_weights(g, (0.05, -0.02, 0.11), 0.6)
        assert np.sum(bw.nodes) == pytest.approx(np.sum(bw.cells), rel=1e-14)

    def test_sphere_directions_cached_read_only(self):
        pts, w = sphere_quadrature(3, (0.1, 0.0, 0.0), 0.5, 64)
        omega = _unit_sphere(3, 64)
        assert not omega.flags.writeable
        assert np.array_equal(pts, 0.1 * np.eye(3)[0] + 0.5 * omega)
        assert pts.flags.writeable and w.flags.writeable
        assert np.all(w == 4.0 * math.pi * 0.5 * 0.5 / 64)


def frozen_ball_weights(grid, z, r, n_sub, core=False):
    """The cached weights as built before per-axis distances: reference_ball_rule's
    (near, n_sub^dim, dim) coordinates, squared and summed over their last axis,
    then the corner-hat moments and the node scatter."""
    win, sure_in, near, _, inside = reference_ball_rule(grid, z, r, n_sub, core)
    dim = grid.dim
    cells = sure_in.astype(float)
    cells[near] = inside.mean(axis=1)
    t = (np.arange(n_sub) + 0.5) / n_sub
    hat = np.stack([1.0 - t, t], axis=-1)
    hats = hat
    for _ in range(dim - 1):
        hats = np.einsum("ia,jb->ijab", hats, hat).reshape(hats.shape[0] * n_sub, -1)
    moments = (inside.astype(float) @ hats) / n_sub**dim
    corner_share = np.where(sure_in, 0.5**dim, 0.0)
    nodes = np.zeros(tuple(n + 1 for n in near.shape))
    for k, corner in enumerate(itertools.product((0, 1), repeat=dim)):
        corner_share[near] = moments[:, k]
        nodes[tuple(slice(c, c + n) for c, n in zip(corner, near.shape))] += corner_share
    return win, cells, tuple(slice(w.start, w.stop + 1) for w in win), nodes


# (dim, n, half, z, r): off-node centres, balls whose window is clipped at a
# box face, the ball of radius 0.4 on the 40^3 box of the linear3d workload,
# and a ball with a subsample whose squared distance rounds to r*r exactly
# when summed in axis order and above it when summed in reverse order
PER_AXIS_CASES = [
    (3, 16, 1.0, (0.055, -0.092, -0.184), 0.5870470993668225),
    (2, 24, 1.0, (0.013, -0.271), 0.55),
    (2, 16, 1.0, (0.4, -0.1), 0.6),
    (2, 64, 1.0, (-0.9, 0.9), 0.1),
    (3, 16, 1.0, (0.031, -0.047, 0.102), 0.5),
    (3, 12, 1.0, (-0.3, 0.2, 0.05), 0.7),
    (3, 16, 1.0, (0.0, 0.0, 0.0), 1.0),
    (3, 40, 0.625, (0.0, 0.0, -0.03125), 0.4),
]


class TestBallWeightsPerAxisDistances:
    @pytest.mark.parametrize("n_sub", [2, 4, 5])
    @pytest.mark.parametrize("dim,n,half,z,r", PER_AXIS_CASES)
    def test_bytes_equal_frozen_rule(self, dim, n, half, z, r, n_sub, monkeypatch):
        # the per-axis build is exact for any subsample count, not only for
        # the SUBSAMPLES the package uses; the uncached build sees the patch
        g = box_grid(dim, n, half)
        want = frozen_ball_weights(g, z, r, n_sub)
        monkeypatch.setattr(fields, "SUBSAMPLES", n_sub)
        got = _ball_weights.__wrapped__(g, z, r)
        assert got.cell_window == want[0] and got.node_window == want[2]
        for arr, ref in ((got.cells, want[1]), (got.nodes, want[3])):
            assert arr.shape == ref.shape
            assert arr.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dim,n,half,z,r", PER_AXIS_CASES)
    def test_dropped_core_clause_is_bitwise_neutral(self, dim, n, half, z, r):
        # the cells within half a diagonal of z, which the rule with a core
        # subsampled, are wholly inside; at 4 subsamples per axis every hat
        # mean is an exact binary fraction, so they get the safe weights
        g = box_grid(dim, n, half)
        want = frozen_ball_weights(g, z, r, fields.SUBSAMPLES, core=True)
        got = _ball_weights(g, z, r)
        for arr, ref in ((got.cells, want[1]), (got.nodes, want[3])):
            assert arr.tobytes() == ref.tobytes()

    def test_window_clipped_at_every_face(self):
        # the unit ball of PER_AXIS_CASES: its window is the whole box
        g = box_grid(3, 16)
        bw = _ball_weights(g, (0.0, 0.0, 0.0), 1.0)
        assert bw.cell_window == (slice(0, 16),) * 3
        assert bw.node_window == (slice(0, 17),) * 3

    def test_build_peak_memory(self):
        # the (near, n_sub^3, 3) coordinate array and its square took 13.7 MB
        # at peak for this ball; the per-axis build stays below 6 MB
        g = box_grid(3, 40, 0.625)
        _ball_weights.cache_clear()
        tracemalloc.start()
        try:
            _ball_weights(g, (0.0, 0.0, -0.03125), 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestIndicatorAndCrossings:
    def test_ramp_values(self):
        # the minimizer's C^1 indicator of {u > 0}: s^2 (3 - 2 s), s = u / eps
        f = sample(box_grid(2, 8), lambda x, y: x).values
        eps = 0.5
        ind = ramp(f, eps)
        assert np.all(ind[f <= 0] == 0.0)
        assert np.all(ind[f >= eps] == 1.0)
        mid = (f > 0) & (f < eps)
        s = f[mid] / eps
        assert np.allclose(ind[mid], s * s * (3.0 - 2.0 * s), rtol=0, atol=1e-15)

    def test_free_boundary_level_is_where_the_affine_part_vanishes(self):
        # the ramped profile u' = sqrt(H(u)) climbs from s* eps to eps over
        # exactly the width eps that its affine part needs from 0 to eps
        s_star = ramp_free_boundary(1.0)
        width, _ = integrate.quad(lambda u: 1.0 / np.sqrt(ramp(np.array(u), 1.0)), s_star, 1.0)
        assert width == pytest.approx(1.0, rel=1e-9)
        assert ramp_free_boundary(0.25) == 0.25 * s_star

    def test_ramp_derivatives_match_differences(self):
        eps = 0.3
        t = np.linspace(-0.1, 0.4, 1001)
        t = t[np.min(np.abs(t[:, None] - np.array([0.0, eps])), axis=1) > 1e-3]
        d = 1e-6
        for order in (1, 2):
            fd = (ramp(t + d, eps, order - 1) - ramp(t - d, eps, order - 1)) / (2 * d)
            assert np.allclose(ramp(t, eps, order), fd, rtol=0, atol=1e-4 / eps**order)

    def test_midpoint_level_crossings(self):
        # the crossings of u = level of the half-plane profile x sit at x = level
        g = box_grid(2, 16)
        pts = free_boundary_points(sample(g, lambda x, y: x), level=0.3)
        assert pts.shape == (g.n_cells[1] + 1, 2)
        assert np.max(np.abs(pts[:, 0] - 0.3)) < 1e-12

    def test_halfplane_crossings(self):
        g = box_grid(2, 16)
        f = sample(g, lambda x, y: x)
        pts = free_boundary_points(f, 0.0)
        # one crossing per horizontal edge row, all on the line x = 0
        assert pts.shape == (g.n_cells[1] + 1, 2)
        assert np.max(np.abs(pts[:, 0])) < 1e-12
        # lexicographic ordering
        assert np.all(np.diff(pts[:, 1]) > 0)

    def test_positive_field_no_crossings(self):
        g = box_grid(2, 8)
        f = sample(g, lambda x, y: np.ones_like(x))
        assert free_boundary_points(f, 0.0).shape == (0, 2)

    def test_circle_crossings_near_radius(self):
        g = box_grid(2, 64)
        f = sample(g, lambda x, y: np.sqrt(x * x + y * y) - 0.5)
        pts = free_boundary_points(f, 0.0)
        assert len(pts) > 50
        radii = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(radii - 0.5)) < g.h

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dedup_matches_np_unique(self, dim):
        # values in {-1, 0, 1} put many crossings exactly on nodes, where
        # several edges report the same point; a +-1e-13 jitter of the
        # zeros puts crossings a round-off away from the zero coordinate
        # planes of a box centred at the origin, which snap to +0.0 or -0.0
        g = box_grid(dim, 8 if dim == 2 else 6)
        rng = np.random.default_rng(dim)
        vals = rng.integers(-1, 2, size=g.node_shape).astype(float)
        jittered = vals + np.where(vals == 0.0, rng.choice([-1e-13, 1e-13], g.node_shape), 0.0)
        for values in (vals, jittered):
            f = ScalarField(g, values)
            snapped = self.crossings(f)
            want = np.unique(snapped, axis=0)
            got = free_boundary_points(f, 0.0)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert len(want) < len(snapped)
        assert np.any((snapped == 0.0) & np.signbit(snapped))
        assert np.any((snapped == 0.0) & ~np.signbit(snapped))

    @staticmethod
    def crossings(f):
        """Every edge crossing of f = 0, snapped as free_boundary_points does, unsorted."""
        grid, pts = f.grid, []
        for a in range(grid.dim):
            va = np.moveaxis(f.values, a, 0)[:-1]
            vb = np.moveaxis(f.values, a, 0)[1:]
            cross = (va > 0.0) != (vb > 0.0)
            index = np.moveaxis(np.indices(f.values.shape), a + 1, 1)[:, :-1][:, cross].T
            coords = np.asarray(grid.lo) + grid.h * index.astype(float)
            coords[:, a] += grid.h * va[cross] / (va[cross] - vb[cross])
            pts.append(coords)
        q = 1e-9 * grid.h
        return np.round(np.vstack(pts) / q) * q

    def test_interpolated_crossing_location(self):
        g = Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        vals = np.zeros((5, 5))
        vals[:, :] = -1.0
        vals[0, :] = 3.0  # crossing on the first x-edge at t = 3/4
        f = ScalarField(g, vals)
        pts = free_boundary_points(f, 0.0)
        xs = np.unique(pts[:, 0])
        assert xs == pytest.approx([0.75 * 0.25], abs=1e-12)


class TestGeometricRadii:
    def test_ladder(self):
        rs = geometric_radii(0.15, 0.4, 1.1)
        assert rs[0] == pytest.approx(0.15)
        assert rs[-1] <= 0.4 + 1e-12
        assert rs[-1] * 1.1 > 0.4
        assert np.allclose(np.diff(np.log(rs)), math.log(1.1))

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometric_radii(0.2, 0.1, 1.1)
        with pytest.raises(ValueError):
            geometric_radii(0.1, 0.2, 1.0)
