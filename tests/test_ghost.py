"""Flux field construction, Neumann splitting, and identity diagnostics."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmlab.blowup import rescale
from fbmlab.density import DensityModel, slope_deviation
from fbmlab.errors import GeometryError, SolverError
from fbmlab.fastdiag import neumann_solve as fast_neumann_solve
from fbmlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    _ball_weights,
    _interp_core,
    _unit_sphere,
    ball_integral,
    edge_differences,
    edge_differences_transpose,
    gradient_arrays,
    shell_average,
    sphere_quadrature,
    trapezoid_weights,
    weigh,
)
from fbmlab.ghost import (
    STABILITY_EXPONENT,
    FluxField,
    flux_bound_report,
    flux_field,
    flux_l2_profile,
    flux_reach,
    neumann_solve,
    shell_identity_report,
    stability_report,
    weak_divergence_residual,
)
from fbmlab import pipeline
from fbmlab.monotonicity import error_term_flux
from fbmlab.pipeline import run_pipeline
from fbmlab.scenario import Scenario

ARCTAN = DensityModel(kind="arctan", alpha=0.1)
LINEAR = DensityModel(kind="linear")
STEEP = DensityModel(kind="arctan", alpha=12.0)


def box_grid(dim: int, n: int) -> Grid:
    return Grid((-1.0,) * dim, (1.0,) * dim, (n,) * dim)


def bump_field(n: int, sigma: float = 0.06) -> ScalarField:
    """Radial cone whose slope carries a localized bump near r = 0.1.

    Outside the bump the slope is exactly one, so the flux about the origin
    is supported in a small annulus contained in every rescaling window.
    """
    grid = box_grid(2, n)
    x, y = grid.node_mesh()
    r = np.sqrt(x * x + y * y)
    profile = 1.0 + 0.3 * np.exp(-((r - 0.1) ** 2) / (2.0 * sigma**2))
    return ScalarField(grid, r * profile)


def manufactured_load(n: int):
    """Gradient of cos(pi x) cos(pi y) on [-1,1]^2 with its potential.

    The normal derivative vanishes on every face and the box mean is zero,
    so the load is exactly compatible with the Neumann splitting.
    """
    grid = box_grid(2, n)
    x, y = grid.node_mesh()
    phi = np.cos(np.pi * x) * np.cos(np.pi * y)
    load = np.stack(
        [
            -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        ]
    )
    flux = FluxField(
        field=VectorField(grid, load),
        base_point=(0.0, 0.0),
        f0=1.0,
    )
    return flux, ScalarField(grid, phi)


def solenoidal_load(grid: Grid) -> np.ndarray:
    """Rotated gradient of (1-x^2)^2 (1-y^2)^2: analytically divergence free."""
    x, y = grid.node_mesh()
    d_dx = 2.0 * (1.0 - x * x) * (-2.0 * x) * (1.0 - y * y) ** 2
    d_dy = (1.0 - x * x) ** 2 * 2.0 * (1.0 - y * y) * (-2.0 * y)
    return np.stack([d_dy, -d_dx])


def radial_load(n: int):
    """U = x - z with z the origin; the potential is |x|^2 / 2."""
    grid = box_grid(2, n)
    x, y = grid.node_mesh()
    flux = FluxField(
        field=VectorField(grid, np.stack([x, y])),
        base_point=(0.0, 0.0),
        f0=1.0,
    )
    return flux


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    w = trapezoid_weights(grid.node_shape)
    return float(np.sqrt(grid.h**grid.dim * np.sum(w * values**2)))


@pytest.fixture(scope="module")
def mms_solution():
    flux, phi_star = manufactured_load(64)
    return flux, phi_star, neumann_solve(flux, tol=1e-10)


@pytest.fixture(scope="module")
def radial_solution():
    flux = radial_load(96)
    return flux, neumann_solve(flux, tol=1e-10)


class TestFluxField:
    def test_linear_model_zero_flux(self):
        u = bump_field(32)
        flux = flux_field(u, LINEAR, (0.0, 0.0))
        assert np.all(flux.field.values == 0.0)

    def test_zero_field_zero_flux(self):
        grid = box_grid(2, 32)
        u = ScalarField(grid, np.zeros(grid.node_shape))
        flux = flux_field(u, ARCTAN, (0.0, 0.0))
        assert np.all(flux.field.values == 0.0)

    def test_halfplane_profile_degenerates(self):
        # slope is exactly one in the positive phase and u vanishes outside,
        # so every factor of the flux dies nodewise
        grid = box_grid(2, 48)
        x, _ = grid.node_mesh()
        u = ScalarField(grid, np.maximum(x, 0.0))
        flux = flux_field(u, ARCTAN, (0.0, 0.0))
        assert np.max(np.abs(flux.field.values)) <= 1e-13

    def test_base_point_outside_raises(self):
        u = bump_field(16)
        with pytest.raises(GeometryError):
            flux_field(u, ARCTAN, (2.0, 0.0))

    def test_dim_mismatch_raises(self):
        u = bump_field(16)
        with pytest.raises(ValueError):
            flux_field(u, ARCTAN, (0.0, 0.0, 0.0))

    def test_defaults(self):
        u = bump_field(16)
        flux = flux_field(u, ARCTAN, (0.25, 0.0))
        assert flux.f0 == float(ARCTAN.df(1.0))
        assert flux.cap_radius == 0.5 * u.grid.h
        assert flux.base_point == (0.25, 0.0)

    def test_finite_at_base_point(self):
        grid = box_grid(2, 32)
        x, y = grid.node_mesh()
        u = ScalarField(grid, 1.0 + x * x + y * y)
        flux = flux_field(u, ARCTAN, (0.0, 0.0))
        assert np.all(np.isfinite(flux.field.values))

    def test_cap_is_not_an_argument(self):
        # a leftover positional cap must not land in is_zero and zero the potential
        grid = box_grid(2, 8)
        field = VectorField(grid, np.ones((2,) + grid.node_shape))
        with pytest.raises(TypeError):
            FluxField(field, (0.0, 0.0), 1.0, 0.5 * grid.h)
        assert FluxField(field, (0.0, 0.0), 1.0).cap_radius == 0.5 * grid.h

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    )
    def test_linear_degeneration_any_field(self, seed, scale):
        grid = box_grid(2, 8)
        rng = np.random.default_rng(seed)
        u = ScalarField(grid, rng.normal(size=grid.node_shape))
        model = DensityModel(kind="linear", scale=scale)
        flux = flux_field(u, model, (0.0, 0.0))
        assert np.all(flux.field.values == 0.0)


def frozen_flux_values(u, model, z, f0, cap):
    """The flux formula on a full node mesh, as flux_field evaluated it before."""
    grid = u.grid
    grads = gradient_arrays(u.values, grid.h)
    q = sum(g * g for g in grads)
    gap = model.df(q) - f0
    mesh = grid.node_mesh()
    diffs = [mesh[a] - z[a] for a in range(grid.dim)]
    d_true = np.sqrt(sum(d * d for d in diffs))
    d = np.maximum(d_true, cap)
    lead = gap * 2.0 * u.values / (d * d)
    comps = [lead * (grads[a] - u.values * diffs[a] / (d * d)) for a in range(grid.dim)]
    return np.stack(comps), d_true


class TestOpenMesh:
    """Flux and its reports on open-mesh offsets against the full-mesh formulas."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bytes_equal_full_mesh(self, dim):
        grid = Grid((-0.6,) * dim, (0.9,) * dim, (30 if dim == 2 else 14,) * dim)
        mesh = grid.node_mesh()
        u = ScalarField(grid, np.maximum(mesh[0] + 0.4 * mesh[-1] ** 2, 0.0) + 0.05 * mesh[1])
        z = np.array([0.13, -0.05, 0.2][:dim])
        flux = flux_field(u, ARCTAN, z)
        want, d_true = frozen_flux_values(u, ARCTAN, z, flux.f0, flux.cap_radius)
        assert flux.field.values.tobytes() == want.tobytes()

        mag = np.sqrt(np.sum(want**2, axis=0))
        outside = d_true > flux.cap_radius
        assert flux_reach(flux) == float(np.max(mag[outside] * d_true[outside]))
        g = neumann_solve(flux)
        w = trapezoid_weights(grid.node_shape)
        norm = float((grid.h**dim * np.sum(w * mag**1.5)) ** (1.0 / 1.5))
        assert stability_report(flux, g).flux_norm == norm
        mag2 = ScalarField(grid, np.sum(want**2, axis=0))
        for r, value in flux_l2_profile(flux, [0.2, 0.35]):
            assert value == float(ball_integral(mag2, z, r) / r)

    def test_squared_magnitude_computed_once_read_only(self):
        flux = flux_field(bump_field(32), ARCTAN, (0.0, 0.0))
        sq = flux.norm_sq
        assert flux.norm_sq is sq
        assert not sq.flags.writeable
        assert sq.tobytes() == np.sum(flux.field.values**2, axis=0).tobytes()


class TestGhostContract:
    """Reports that pair a flux with a ghost check they belong together."""

    @pytest.fixture(scope="class")
    def pair(self):
        u = bump_field(32)
        flux = flux_field(u, ARCTAN, (0.0, 0.0))
        return u, flux, neumann_solve(flux)

    def test_other_base_point_raises(self, pair):
        u, flux, _ = pair
        shifted = neumann_solve(flux_field(u, ARCTAN, (0.3, 0.0)))
        with pytest.raises(ValueError, match="base point"):
            shell_identity_report(flux, shifted, [0.2, 0.3])
        with pytest.raises(ValueError, match="base point"):
            stability_report(flux, shifted)
        with pytest.raises(ValueError, match="base point"):
            weak_divergence_residual(flux, shifted)

    def test_other_reference_slope_raises(self, pair):
        u, flux, _ = pair
        # a ghost built for another density carries its reference slope
        other = neumann_solve(flux_field(u, STEEP, (0.0, 0.0)))
        assert other.f0 != flux.f0
        with pytest.raises(ValueError, match="reference slope"):
            shell_identity_report(flux, other, [0.2])
        with pytest.raises(ValueError, match="reference slope"):
            stability_report(flux, other)

    def test_other_grid_raises(self, pair):
        _, flux, _ = pair
        other = neumann_solve(flux_field(bump_field(16), ARCTAN, (0.0, 0.0)))
        with pytest.raises(ValueError, match="different grids"):
            shell_identity_report(flux, other, [0.2])
        with pytest.raises(ValueError, match="different grids"):
            stability_report(flux, other)

    def test_matching_pair_accepted(self, pair):
        _, flux, g = pair
        assert len(shell_identity_report(flux, g, [0.2, 0.3])) == 2
        assert stability_report(flux, g).ratio > 0.0


class TestFluxBound:
    def test_bound_holds_for_matched_reference(self):
        u = bump_field(96)
        flux = flux_field(u, ARCTAN, (0.0, 0.0))
        report = flux_bound_report(flux, ARCTAN, u.lipschitz)
        assert report.passed
        assert report.max_violation < 0.0

    def test_bound_fails_for_shifted_reference(self):
        u = bump_field(96)
        # the flux of a steeper density, checked against ARCTAN's slope deviation
        flux = flux_field(u, STEEP, (0.0, 0.0))
        report = flux_bound_report(flux, ARCTAN, u.lipschitz)
        assert not report.passed
        assert report.max_violation > 1.0

    def test_eps_star_matches_model(self):
        u = bump_field(48)
        flux = flux_field(u, ARCTAN, (0.0, 0.0))
        report = flux_bound_report(flux, ARCTAN, u.lipschitz)
        expected = slope_deviation(ARCTAN, t_hi=max(1.0, report.lip**2))
        assert report.eps_star == expected
        assert report.c_lip == 2.0 * report.lip * (report.lip + report.lip**2)


class TestNeumannSolve:
    def test_zero_load(self):
        grid = box_grid(2, 16)
        flux = FluxField(
            field=VectorField(grid, np.zeros((2,) + grid.node_shape)),
            base_point=(0.0, 0.0),
            f0=1.0,
        )
        g = neumann_solve(flux)
        assert np.all(g.potential.values == 0.0)
        assert g.iterations == 0
        assert g.residual == 0.0

    def test_manufactured_potential_second_order(self, mms_solution):
        flux, phi_star, g = mms_solution
        coarse = l2_norm(g.grid, g.potential.values - phi_star.values)
        flux2, phi_star2 = manufactured_load(128)
        g2 = neumann_solve(flux2, tol=1e-10)
        fine = l2_norm(g2.grid, g2.potential.values - phi_star2.values)
        assert 3.5 <= coarse / fine <= 4.5

    def test_weak_divergence_residual_small(self, mms_solution):
        flux, _, g = mms_solution
        assert weak_divergence_residual(flux, g) <= 1e-7
        assert weak_divergence_residual(flux, g) == g.residual

    def test_mean_zero(self, mms_solution):
        _, _, g = mms_solution
        # the trapezoid-rule integral, the discrete integral of phi, vanishes
        scale = float(np.max(np.abs(g.potential.values)))
        w = trapezoid_weights(g.grid.node_shape)
        assert abs(float(np.sum(w * g.potential.values) / np.sum(w))) <= 1e-10 * scale

    def test_remainder_plus_gradient_recovers_load(self, mms_solution):
        # the remainder is derived as U - grad(phi) on the edges; its weak
        # divergence, assembled by hand, is what weak_divergence_residual
        # reports, for the solved potential and for a perturbed one
        flux, _, g = mms_solution
        grid = g.grid
        b = galerkin_load(grid, flux.field.values)
        x, y = grid.node_mesh()
        for scale in (0.0, 1e-3):
            phi = g.potential.values + scale * x * x * y
            remainder = [
                m - d for m, d in zip(edge_means(flux.field.values), edge_diffs(phi, grid.h))
            ]
            r = edge_load(grid, remainder)
            rel = np.linalg.norm(r - r.mean()) / np.linalg.norm(b - b.mean())
            got = weak_divergence_residual(flux, replace(g, potential=ScalarField(grid, phi)))
            if scale == 0.0:
                assert rel <= 1e-7
                assert got <= 1e-7
            else:
                assert rel > 1e-5
                assert got == pytest.approx(rel, rel=1e-9)

    def test_linearity(self):
        grid = box_grid(2, 32)
        flux_a, _ = manufactured_load(32)
        load_b = solenoidal_load(grid) + np.stack(grid.node_mesh())
        flux_b = FluxField(VectorField(grid, load_b), (0.0, 0.0), 1.0)
        flux_ab = FluxField(
            VectorField(grid, flux_a.field.values + load_b),
            (0.0, 0.0),
            1.0,
        )
        g_a = neumann_solve(flux_a, tol=1e-12)
        g_b = neumann_solve(flux_b, tol=1e-12)
        g_ab = neumann_solve(flux_ab, tol=1e-12)
        gap = np.max(
            np.abs(g_ab.potential.values - g_a.potential.values - g_b.potential.values)
        )
        assert gap <= 1e-8

    def test_divergence_free_load_gives_tiny_potential(self):
        ratios = {}
        for n in (48, 96):
            grid = box_grid(2, n)
            flux = FluxField(
                VectorField(grid, solenoidal_load(grid)),
                (0.0, 0.0),
                1.0,
            )
            g = neumann_solve(flux, tol=1e-10)
            ratios[n] = l2_norm(grid, g.potential.values) / l2_norm(
                grid, np.sqrt(np.sum(flux.field.values**2, axis=0))
            )
        assert ratios[48] <= 1e-3
        assert ratios[96] <= 0.4 * ratios[48]

    def test_residual_above_tol_raises(self):
        flux, _ = manufactured_load(32)
        with pytest.raises(SolverError, match="residual"):
            neumann_solve(flux, tol=0.0)


def edge_load(grid: Grid, edges) -> np.ndarray:
    """sum_a E_a^T(W_a t_a) for values t_a on the edges along each axis a.

    t_a has one node fewer along a than the grid; W_a is the product of the
    trapezoid weights of the other axes.
    """
    shape, dim = grid.node_shape, grid.dim
    out = np.zeros(shape)
    for a, t in enumerate(edges):
        weight = np.ones(t.shape)
        for b in range(dim):
            if b != a:
                weight = weight * trapezoid_weights((shape[b],)).reshape(
                    [-1 if c == b else 1 for c in range(dim)]
                )
        lo = tuple(slice(None, -1) if c == a else slice(None) for c in range(dim))
        hi = tuple(slice(1, None) if c == a else slice(None) for c in range(dim))
        out[lo] -= weight * t / grid.h
        out[hi] += weight * t / grid.h
    return out


def edge_means(v: np.ndarray) -> list[np.ndarray]:
    """Mean of component a of a nodal vector field over each edge along axis a."""
    return [
        0.5 * (np.delete(c, -1, axis=a) + np.delete(c, 0, axis=a)) for a, c in enumerate(v)
    ]


def edge_diffs(phi: np.ndarray, h: float) -> list[np.ndarray]:
    return [np.diff(phi, axis=a) / h for a in range(phi.ndim)]


def galerkin_load(grid: Grid, v: np.ndarray) -> np.ndarray:
    """The weak divergence of a nodal vector field on the edges."""
    return edge_load(grid, edge_means(v))


def dense_operator(grid: Grid) -> np.ndarray:
    """The weak Neumann operator sum_a E_a^T W_a E_a, column by column."""
    cols = []
    for e in np.eye(grid.n_nodes):
        cols.append(edge_load(grid, edge_diffs(e.reshape(grid.node_shape), grid.h)).ravel())
    return np.stack(cols, axis=-1)


class TestDirectSolve:
    @pytest.mark.parametrize("n_cells", [(7, 11), (5, 6, 8)])
    def test_matches_dense_pseudo_inverse(self, n_cells):
        h = 0.125
        grid = Grid((0.0,) * len(n_cells), tuple(h * n for n in n_cells), n_cells)
        rng = np.random.default_rng(7)
        # the draw of a point-major stack, laid out component-major
        load = np.moveaxis(rng.standard_normal(grid.node_shape + (grid.dim,)), -1, 0)
        flux = FluxField(VectorField(grid, load), (0.5,) * grid.dim, 1.0)
        g = neumann_solve(flux)
        phi = np.linalg.pinv(dense_operator(grid)) @ galerkin_load(grid, load).ravel()
        w = trapezoid_weights(grid.node_shape).ravel()
        phi -= np.sum(w * phi) / np.sum(w)
        gap = np.max(np.abs(g.potential.values.ravel() - phi))
        assert gap <= 1e-10 * np.max(np.abs(phi))
        assert g.iterations == 1
        assert g.residual <= 1e-12

    def test_residual_grid_mismatch_raises(self, mms_solution):
        flux, _, g = mms_solution
        other, _ = manufactured_load(32)
        with pytest.raises(ValueError, match="different grids"):
            weak_divergence_residual(other, g)


class TestStability:
    def test_ratio_stable_under_refinement(self):
        ratios = {}
        for n in (48, 96):
            flux, _ = manufactured_load(n)
            g = neumann_solve(flux, tol=1e-10)
            ratios[n] = stability_report(flux, g).ratio
        assert ratios[48] > 0.0
        assert abs(ratios[96] - ratios[48]) <= 0.1 * ratios[48]

    def test_exact_invariance_under_power_of_two_scaling(self):
        flux, _ = manufactured_load(48)
        g = neumann_solve(flux, tol=1e-10)
        scaled = FluxField(
            VectorField(flux.grid, 4.0 * flux.field.values),
            flux.base_point,
            flux.f0,
        )
        g4 = neumann_solve(scaled, tol=1e-10)
        r1 = stability_report(flux, g).ratio
        r4 = stability_report(scaled, g4).ratio
        assert abs(r4 - r1) <= 1e-13 * r1

    def test_exponent_validation(self, mms_solution):
        # the one exponent lies in (1, dim) in 2D, where that interval is narrowest
        flux, _, g = mms_solution
        s = stability_report(flux, g).s
        assert s == STABILITY_EXPONENT
        assert flux.grid.dim == 2 and 1.0 < s < 2.0

    def test_zero_flux_zero_ratio(self):
        grid = box_grid(2, 16)
        flux = FluxField(
            VectorField(grid, np.zeros((2,) + grid.node_shape)),
            (0.0, 0.0),
            1.0,
        )
        g = neumann_solve(flux)
        assert stability_report(flux, g).ratio == 0.0


class TestShellIdentity:
    def test_radial_flux_matches_shell_derivative(self, radial_solution):
        flux, g = radial_solution
        records = shell_identity_report(flux, g, [0.2, 0.35, 0.5])
        for rec in records:
            # sphere flux of U = x is 2 pi r in the plane
            assert rec.flux_side == pytest.approx(2.0 * np.pi * rec.r, rel=1e-4)
            assert abs(rec.gap) <= 2e-4 * (1.0 + rec.flux_side)

    def test_insensitive_to_solenoidal_part(self, radial_solution):
        flux, g = radial_solution
        base = shell_identity_report(flux, g, [0.2, 0.35, 0.5])
        grid = flux.grid
        mixed = FluxField(
            VectorField(grid, flux.field.values + solenoidal_load(grid)),
            flux.base_point,
            flux.f0,
        )
        g_mixed = neumann_solve(mixed, tol=1e-10)
        shifted = shell_identity_report(mixed, g_mixed, [0.2, 0.35, 0.5])
        for rec_a, rec_b in zip(base, shifted):
            assert abs(rec_a.gap - rec_b.gap) <= 1e-5

    def test_radius_outside_box_raises(self, radial_solution):
        flux, g = radial_solution
        with pytest.raises(GeometryError):
            shell_identity_report(flux, g, [1.5])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_per_shell_reference(self, dim):
        # one flux gather and one two-shell potential gather per radius give
        # the same bits as sampling every shell on its own
        grid = box_grid(dim, 64 if dim == 2 else 20)
        mesh = grid.node_mesh()
        u = ScalarField(grid, np.maximum(mesh[0] + 0.3 * mesh[1] ** 2, 0.0))
        z = (0.05,) + (0.0,) * (dim - 1)
        flux = flux_field(u, ARCTAN, z)
        g = neumann_solve(flux)
        radii = [0.3, 0.45, 0.6]
        dr = 0.5 * grid.h
        records = shell_identity_report(flux, g, radii)
        zc = np.asarray(z)
        for rec, r in zip(records, radii):
            pts, w = sphere_quadrature(dim, zc, r)
            nu = (pts - zc[None, :]) / r
            vals = np.ascontiguousarray(_interp_core(list(flux.field.values), grid, pts).T)
            flux_side = float(r ** (1 - dim) * np.sum(w * np.sum(vals * nu, axis=-1)))
            hi = shell_average(g.potential, zc, r + dr)
            lo = shell_average(g.potential, zc, r - dr)
            assert rec.flux_side == flux_side == error_term_flux(flux, r)
            assert rec.potential_side == (hi - lo) / (2.0 * dr)
            assert rec.gap == rec.flux_side - rec.potential_side
            assert flux_side != 0.0


def rescaled_flux(u, model, z, theta):
    """Flux about the origin of the blow-up u(z + theta y)/theta on the unit box.

    Algebraically it equals theta * U(z + theta y), so the reach statistic
    max |U_theta| * |y| should not depend on theta.
    """
    ref = box_grid(u.grid.dim, int(min(u.grid.n_cells)))
    v = rescale(u, z, theta, ref)
    return flux_field(v, model, (0.0,) * u.grid.dim)


class TestRescaledFlux:
    def test_linear_model_zero_at_all_scales(self):
        u = bump_field(32)
        for theta in (1.0, 0.5, 0.25):
            flux = rescaled_flux(u, LINEAR, (0.0, 0.0), theta)
            assert np.all(flux.field.values == 0.0)

    def test_unit_scale_matches_direct_flux(self):
        u = bump_field(64)
        direct = flux_field(u, ARCTAN, (0.0, 0.0))
        scaled = rescaled_flux(u, ARCTAN, (0.0, 0.0), 1.0)
        assert np.array_equal(scaled.field.values, direct.field.values)

    def test_reach_stable_across_scales(self):
        u = bump_field(128)
        reaches = [
            flux_reach(rescaled_flux(u, ARCTAN, (0.0, 0.0), theta))
            for theta in (1.0, 0.5, 0.25)
        ]
        spread = (max(reaches) - min(reaches)) / max(reaches)
        assert spread <= 0.2

    def test_values_match_scaled_interpolation(self):
        # U_theta(y) = theta * U(z + theta y) away from both capped cores
        u = bump_field(128)
        theta = 0.5
        direct = flux_field(u, ARCTAN, (0.0, 0.0))
        scaled = rescaled_flux(u, ARCTAN, (0.0, 0.0), theta)
        ref = scaled.grid
        mesh = np.stack(ref.node_mesh())
        pts = (theta * mesh).reshape(ref.dim, -1).T
        samples = _interp_core(list(direct.field.values), direct.field.grid, pts)
        expected = theta * samples.reshape(scaled.field.values.shape)
        mask = np.sqrt(np.sum(mesh**2, axis=0)) > 4.0 * ref.h
        diff = np.sqrt(np.sum((scaled.field.values - expected) ** 2, axis=0))[mask]
        mag = np.sqrt(np.sum(expected**2, axis=0))[mask]
        rel = np.sqrt(np.sum(diff**2) / np.sum(mag**2))
        assert rel <= 0.1


class TestProfiles:
    def test_flux_l2_profile_quadratic(self):
        flux = radial_load(96)
        for r, value in flux_l2_profile(flux, [0.3, 0.5]):
            # integral of |x|^2 over the disc is pi r^4 / 2
            assert value == pytest.approx(np.pi * r**3 / 2.0, rel=5e-3)

    def test_flux_reach_corner_value(self):
        flux = radial_load(64)
        assert flux_reach(flux) == pytest.approx(2.0, rel=1e-12)


def assembled(flux: FluxField, u: ScalarField, model: DensityModel) -> FluxField:
    """flux with U assembled by the full formula and the zero mark cleared.

    Every consumer then takes the path it took before zero fluxes were
    recognized, so this is the reference for the zero path's bytes.
    """
    values, _ = frozen_flux_values(
        u, model, np.asarray(flux.base_point), flux.f0, flux.cap_radius
    )
    return replace(flux, field=VectorField(u.grid, values), is_zero=False)


def linear_scenario(dim: int) -> Scenario:
    """A small minimized half-plane run with the linear density."""
    return Scenario.from_dict({
        "schema_version": 1,
        "grid": {"lo": [-0.75] * dim, "hi": [0.75] * dim, "n_cells": [48 if dim == 2 else 24] * dim},
        "density": {"kind": "linear"},
        "boundary": {"kind": "halfplane", "direction": [0.0] * (dim - 1) + [1.0]},
        "points_of_interest": [[0.0] * dim, [0.1] + [-0.05] * (dim - 2) + [-0.02]],
        "radii": {"r_min": 0.15, "r_max": 0.3, "ratio": 1.4},
        "tol": 1e-3,
        "max_iter": 20,
    })


def curved_linear_field(dim: int) -> ScalarField:
    """A field with a varying gradient and both signs, on which U still vanishes for f(t) = t."""
    grid = Grid((-0.6,) * dim, (0.9,) * dim, (30 if dim == 2 else 14,) * dim)
    mesh = grid.node_mesh()
    return ScalarField(grid, mesh[0] + 0.4 * mesh[-1] ** 2 - 0.05 * mesh[1] ** 3)


class TestZeroFlux:
    """A slope gap without a nonzero entry: exact zero reports without sampling."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_linear_flux_marked_zero_and_unassembled(self, dim):
        u = curved_linear_field(dim)
        flux = flux_field(u, LINEAR, (0.13, -0.05, 0.2)[:dim])
        assert flux.is_zero
        assert not np.any(flux.field.values)
        assert np.signbit(flux.field.values).sum() == 0
        # the assembled formula is +-0 everywhere, with both signs present
        full = assembled(flux, u, LINEAR).field.values
        assert not np.any(full)
        assert np.any(np.signbit(full))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reports_equal_full_path_bit_for_bit(self, dim):
        u = curved_linear_field(dim)
        z = (0.13, -0.05, 0.2)[:dim]
        radii = [0.2, 0.28, 0.35]
        zero = flux_field(u, LINEAR, z)
        full = assembled(zero, u, LINEAR)
        g_zero, g_full = neumann_solve(zero), neumann_solve(full)
        assert g_zero.potential.values.tobytes() == g_full.potential.values.tobytes()
        assert (g_zero.residual, g_zero.iterations) == (g_full.residual, g_full.iterations) == (0.0, 0)
        lip = u.lipschitz
        # repr spells out every float, -0.0 included
        for report in (
            lambda f, g: stability_report(f, g),
            lambda f, g: flux_bound_report(f, LINEAR, lip),
            lambda f, g: shell_identity_report(f, g, radii),
            lambda f, g: flux_l2_profile(f, radii),
            lambda f, g: flux_reach(f),
        ):
            assert repr(report(zero, g_zero)) == repr(report(full, g_full))
        records = shell_identity_report(zero, g_zero, radii)
        assert all(
            np.signbit([rec.flux_side, rec.potential_side, rec.gap]).sum() == 0
            for rec in records
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, g, h: shell_identity_report(f, g, [0.3, 0.8]),
            lambda f, g, h: shell_identity_report(f, g, [0.3, 0.6 - 0.25 * h]),
            lambda f, g, h: shell_identity_report(f, g, [0.25 * h]),
            lambda f, g, h: flux_l2_profile(f, [0.3, 0.7]),
        ],
        ids=["ball_leaves_box", "shifted_ball_leaves_box", "inner_shell_empty", "l2_ball_leaves_box"],
    )
    def test_infeasible_radius_raises_like_full_path(self, call):
        u = curved_linear_field(2)
        zero = flux_field(u, LINEAR, (0.2, 0.3))
        full = assembled(zero, u, LINEAR)
        h = u.grid.h
        with pytest.raises(GeometryError) as want:
            call(full, neumann_solve(full), h)
        with pytest.raises(GeometryError, match=f"^{re.escape(str(want.value))}$"):
            call(zero, neumann_solve(zero), h)

    @pytest.mark.parametrize("model", [LINEAR, ARCTAN], ids=["zero_flux", "nonzero_flux"])
    def test_one_gate_per_radius_still_rejects(self, model):
        # the shell identity gates r + h/2, the ball that holds its three
        # spheres, and r - h/2 > 0; the L2 profile leaves a nonzero flux to
        # the ball rule's gate and gates a zero flux itself
        u = curved_linear_field(2)
        flux = flux_field(u, model, (0.2, 0.3))
        assert flux.is_zero == (model is LINEAR)
        g = neumann_solve(flux)
        h = u.grid.h
        cases = [
            (lambda: shell_identity_report(flux, g, [0.5 * h]), "radius must be positive"),
            (lambda: shell_identity_report(flux, g, [0.25 * h]), "radius must be positive"),
            (lambda: shell_identity_report(flux, g, [0.6 - 0.25 * h]), "leaves the box"),
            (lambda: flux_l2_profile(flux, [0.0]), "radius must be positive"),
            (lambda: flux_l2_profile(flux, [float("nan")]), "radius must be positive"),
            (lambda: flux_l2_profile(flux, [0.65]), "leaves the box"),
        ]
        for call, message in cases:
            with pytest.raises(GeometryError, match=message):
                call()
        # the box reaches 0.6 from z; the extreme feasible radii still run
        assert len(shell_identity_report(flux, g, [0.6 - 0.5 * h, 0.75 * h])) == 2
        assert len(flux_l2_profile(flux, [0.6])) == 1

    def test_arctan_flux_takes_full_path(self):
        u = curved_linear_field(2)
        flux = flux_field(u, ARCTAN, (0.2, 0.3))
        assert not flux.is_zero
        g = neumann_solve(flux)
        assert g.iterations == 1
        records = shell_identity_report(flux, g, [0.2, 0.3])
        assert all(rec.flux_side != 0.0 and rec.potential_side != 0.0 for rec in records)
        assert flux_reach(flux) > 0.0
        assert stability_report(flux, g).flux_norm > 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pipeline_artifacts_equal_full_computation(self, dim, tmp_path, monkeypatch):
        s = linear_scenario(dim)
        run_pipeline(s, tmp_path / "zero")

        def full_flux(u, model, z):
            return assembled(flux_field(u, model, z), u, model)

        monkeypatch.setattr(pipeline, "flux_field", full_flux)
        run_pipeline(s, tmp_path / "full")
        zero = {p.name: p.read_bytes() for p in (tmp_path / "zero").iterdir()}
        full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
        assert {"ghost_0.bin", "ghost_0.json", "scan_0.csv", "ghost_1.json"} <= set(zero)
        assert zero == full


def frozen_weak_divergence(values, h, phi=None):
    """The Galerkin load (with phi, the remainder's weak divergence) as assembled
    before: all dim weighted edge means built first and kept."""
    edges = []
    for a, comp in enumerate(values):
        t = np.zeros(comp.shape)
        ends, nodes = t.swapaxes(0, a), comp.swapaxes(0, a)
        np.add(nodes[:-1], nodes[1:], out=ends[:-1])
        t *= 0.5
        edges.append(weigh(t, skip=a))
    out = np.zeros(values.shape[1:])
    for a, t in enumerate(edges):
        if phi is not None:
            t = t - weigh(edge_differences(phi, a, h, out=np.empty_like(phi)), skip=a)
        out += edge_differences_transpose(t, a, h, out=np.empty_like(t))
    out -= out.mean()
    return out


def frozen_ghost(u, model, z):
    """Everything the ghost stage derives from u, by the formulas as they were
    written before the grid-array budget: the flux's components stacked,
    np.sum of their squares, kept edge arrays, full trapezoid weight arrays
    and a boolean-indexed reach."""
    grid = u.grid
    values, d_true = frozen_flux_values(u, model, np.asarray(z), model.f0, 0.5 * grid.h)
    norm_sq = np.sum(values**2, axis=0)
    b = frozen_weak_divergence(values, grid.h)
    b_norm = float(np.linalg.norm(b))
    phi = fast_neumann_solve(b.copy(), grid.h) if b_norm else np.zeros(grid.node_shape)
    r_norm = float(np.linalg.norm(frozen_weak_divergence(values, grid.h, phi)))
    w = trapezoid_weights(grid.node_shape)
    cell, s = grid.h**grid.dim, STABILITY_EXPONENT
    dphi = np.sqrt(sum(d * d for d in gradient_arrays(phi, grid.h)))
    mag = np.sqrt(norm_sq)
    outside = d_true > 0.5 * grid.h
    return {
        "values": values,
        "norm_sq": norm_sq,
        "phi": phi,
        "residual": r_norm / b_norm if b_norm else r_norm,
        "phi_norm": float((cell * np.sum(w * (np.abs(phi) ** s + dphi**s))) ** (1.0 / s)),
        "flux_norm": float((cell * np.sum(w * mag**s)) ** (1.0 / s)),
        "reach": float(np.max(mag[outside] * d_true[outside])),
    }


def signed_zero_field(grid: Grid, seed: int) -> np.ndarray:
    """A smooth field with about a third of its nodes set to +0.0 or -0.0."""
    mesh = grid.node_mesh()
    x = np.maximum(mesh[0] + 0.4 * mesh[-1] ** 2, 0.0) + 0.05 * mesh[1]
    noise = np.random.default_rng(seed).standard_normal(grid.node_shape)
    x[noise > 1.0] = 0.0
    x[noise < -1.0] = -0.0
    return x


FROZEN_GRIDS = {
    2: Grid((-0.6, -0.6), (0.9, 0.9), (30, 30)),
    3: Grid((-1.0,) * 3, (1.0,) * 3, (40,) * 3),
}


class TestFrozenGhostStage:
    """The in-place flux, the axis-at-a-time load and the streamed norms give
    the bytes of the formulas they replace."""

    def check(self, u, model, z):
        want = frozen_ghost(u, model, z)
        flux = flux_field(u, model, z)
        assert flux.field.values.tobytes() == want["values"].tobytes()
        assert flux.norm_sq.tobytes() == want["norm_sq"].tobytes()
        g = neumann_solve(flux, tol=1e-6)
        assert g.potential.values.tobytes() == want["phi"].tobytes()
        assert g.residual == want["residual"]
        assert weak_divergence_residual(flux, g) == want["residual"]
        stab = stability_report(flux, g)
        assert (stab.phi_norm, stab.flux_norm) == (want["phi_norm"], want["flux_norm"])
        assert flux_reach(flux) == want["reach"]
        return flux

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("on_node", [False, True])
    def test_signed_zero_inputs(self, dim, on_node):
        grid = FROZEN_GRIDS[dim]
        # a base point on a node puts that node inside the h/2 cap
        z = np.array([0.15, -0.05, 0.2][:dim])
        if on_node:
            z = np.array([grid.axis_nodes(a)[grid.n_cells[a] // 2 + 1] for a in range(dim)])
        values = signed_zero_field(grid, 3 + dim)
        for u in (values, np.where(values > 0.0, 0.0, -0.0)):
            flux = self.check(ScalarField(grid, u), ARCTAN, z)
            assert not flux.is_zero
        assert np.any(np.signbit(flux.field.values))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sharp_field_at_a_phase_level(self, dim, monkeypatch):
        # a minimized scenario reads (u - l)^+ with l > 0; the flux stage_ghost
        # builds from it is the frozen formula's flux of the frozen (u - l)^+
        n = 32 if dim == 2 else 16
        s = Scenario.from_dict({
            "schema_version": 1,
            "grid": {"lo": [-1.0] * dim, "hi": [1.0] * dim, "n_cells": [n] * dim},
            "density": {"kind": "arctan", "alpha": 0.1},
            "boundary": {"kind": "halfplane", "direction": [0.0] * (dim - 1) + [1.0]},
            "points_of_interest": [[0.0] * dim],
            "radii": {"r_min": 0.2, "r_max": 0.4, "ratio": 1.4},
        })
        assert s.phase_level > 0.0
        u = ScalarField(s.grid, signed_zero_field(s.grid, dim))
        z = (0.05,) * dim
        built = []

        def spy(sharp, model, point):
            built.append((sharp, flux_field(sharp, model, point)))
            return built[-1][1]

        monkeypatch.setattr(pipeline, "flux_field", spy)
        g, _ = pipeline.stage_ghost(s, u, z)
        (sharp, flux), = built
        want_sharp = np.maximum(u.values - s.phase_level, 0.0)
        assert sharp.values.tobytes() == want_sharp.tobytes()
        want = frozen_ghost(sharp, s.model, z)
        assert flux.field.values.tobytes() == want["values"].tobytes()
        assert g.potential.values.tobytes() == want["phi"].tobytes()


def stored_field_3d() -> ScalarField:
    """The field3d benchmark's stored field: u = max(x3 - 0.1 cos(pi x1 + a) cos(pi x2 + b), 0)
    on [-1, 1]^3 with 40 cells per axis, 0.55 MB per grid array."""
    grid = Grid((-1.0,) * 3, (1.0,) * 3, (40,) * 3)
    x1, x2, x3 = grid.node_mesh()
    return ScalarField(grid, np.maximum(x3 - surface_3d(x1, x2), 0.0))


def surface_3d(x1, x2):
    return 0.1 * np.cos(np.pi * x1 + 1.3) * np.cos(np.pi * x2 + 4.1)


def traced_peak(call) -> float:
    """tracemalloc peak of call() above the memory traced at its entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


class TestGhostBuffers:
    """The ghost stage's grid-array budget (ghost module docstring) on a stored
    41^3 arctan field.  One array is one float64 per node; the budgets leave
    room for the sphere samples and the ball weight builds, which do not grow
    with the grid."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        u = stored_field_3d()
        path = tmp_path_factory.mktemp("stored") / "u.bin"
        z = (0.45, -0.3, float(surface_3d(0.45, -0.3)))
        s = Scenario.from_dict({
            "schema_version": 1,
            "grid": {"lo": [-1.0] * 3, "hi": [1.0] * 3, "n_cells": [40] * 3},
            "density": {"kind": "arctan", "alpha": 0.1},
            "boundary": {"kind": "halfplane", "direction": [0.0, 0.0, 1.0]},
            "points_of_interest": [list(z)],
            "radii": {"r_min": 0.15, "r_max": 0.4, "ratio": 1.1},
            "field_path": str(path),
        })
        return s, u, z

    def test_flux_field_holds_two_work_arrays(self, stored):
        # the dim = 3 components and two work arrays
        s, u, z = stored
        flux = flux_field(u, s.model, z)
        assert not flux.is_zero
        assert traced_peak(lambda: flux_field(u, s.model, z)) < 6 * u.values.nbytes

    def test_stage_ghost_budget(self, stored):
        # the flux (3), the potential (1), flux.norm_sq (1) and at most three
        # work arrays, plus the sphere samples and cold ball weight builds
        s, u, z = stored
        assert s.phase_level == 0.0
        _ball_weights.cache_clear()
        _unit_sphere.cache_clear()
        ghost = []
        peak = traced_peak(lambda: ghost.append(pipeline.stage_ghost(s, u, z)))
        assert ghost[0][0].iterations == 1
        assert peak < 9 * u.values.nbytes

    def test_each_step_within_its_budget(self, stored):
        # each step allocates the grid arrays it works in and drops them on
        # return: flux_field keeps the 3 components, neumann_solve the
        # potential, and the first read of |U|^2 (here stability_report's)
        # keeps it on the flux; the rest is boolean masks and the solve's
        # transform temporaries
        s, u, z = stored
        lip, array = u.lipschitz, u.values.nbytes
        made = {}
        assert traced_peak(lambda: made.update(flux=flux_field(u, s.model, z))) < 5.5 * array
        flux = made["flux"]
        peak = traced_peak(lambda: made.update(g=neumann_solve(flux, tol=s.ghost_tol)))
        assert peak < 4.75 * array
        assert "norm_sq" not in flux.__dict__
        assert traced_peak(lambda: stability_report(flux, made["g"])) < 3.5 * array
        assert traced_peak(lambda: flux_bound_report(flux, s.model, lip)) < 2.5 * array
