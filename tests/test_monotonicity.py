"""Weiss-type scan, derivative identities, oscillation and fit diagnostics."""

import numpy as np
import pytest

from fbmlab.density import DensityModel
from fbmlab.errors import GeometryError
from fbmlab.fieldio import read_csv
from fbmlab import fields, monotonicity
from fbmlab.fields import (
    _ball_weights,
    Grid,
    ScalarField,
    ball_weights,
    geometric_radii,
    shell_average,
    sphere_quadrature,
)
from fbmlab.ghost import GhostFunction, flux_field, neumann_solve
from fbmlab.monotonicity import (
    CSV_COLUMNS,
    MonotonicityReport,
    VmoReport,
    cell_energy_density,
    error_term,
    error_term_flux,
    log_radius_derivative,
    oscillation_profile,
    radial_derivative,
    regular_point_fit,
    scan,
    vmo_check,
    weiss_core,
    write_report_csv,
)

LINEAR = DensityModel(kind="linear")
ARCTAN = DensityModel(kind="arctan", alpha=0.1)
ORIGIN3 = (0.0, 0.0, 0.0)
ORIGIN2 = (0.0, 0.0)


def box_grid(dim: int, n: int) -> Grid:
    return Grid((-1.0,) * dim, (1.0,) * dim, (n,) * dim)


@pytest.fixture(scope="module")
def grid3():
    return box_grid(3, 96)


@pytest.fixture(scope="module")
def halfplane3(grid3):
    x, _, _ = grid3.node_mesh()
    return ScalarField(grid3, np.maximum(x, 0.0))


@pytest.fixture(scope="module")
def quadratic3(grid3):
    x, y, z = grid3.node_mesh()
    return ScalarField(grid3, x * x + y * y + z * z)


@pytest.fixture(scope="module")
def cone3(grid3):
    x, y, z = grid3.node_mesh()
    return ScalarField(grid3, np.sqrt(x * x + y * y + z * z))


@pytest.fixture(scope="module")
def halfplane_scan(halfplane3):
    flux = flux_field(halfplane3, LINEAR, ORIGIN3)
    g = neumann_solve(flux)
    radii = geometric_radii(0.15, 0.4, 1.1)
    return scan(halfplane3, LINEAR, 1.0, ORIGIN3, radii, g, level=0.0)


def zero_ghost(grid: Grid, z, f0: float = 1.0) -> GhostFunction:
    return GhostFunction(
        potential=ScalarField(grid, np.zeros(grid.node_shape)),
        base_point=z,
        f0=f0,
        residual=0.0,
        iterations=0,
    )


class TestWeissCore:
    def test_zero_field(self, grid3):
        u = ScalarField(grid3, np.zeros(grid3.node_shape))
        assert weiss_core(u, LINEAR, 1.0, ORIGIN3, 0.3, level=0.0) == 0.0

    def test_halfplane_value(self, halfplane3):
        # bulk (F(1)+lam) over the half ball minus the surface moment of
        # (w.e)+^2 gives (|B1|/2)(F(1)+lam-F0) = 2 pi/3 here
        target = 2.0 * np.pi / 3.0
        for r in (0.15, 0.25, 0.4):
            value = weiss_core(halfplane3, LINEAR, 1.0, ORIGIN3, r, level=0.0)
            assert value == pytest.approx(target, rel=1e-2)

    def test_scale_invariance_for_degree_one(self, halfplane3):
        a = weiss_core(halfplane3, LINEAR, 1.0, ORIGIN3, 0.2, level=0.0)
        b = weiss_core(halfplane3, LINEAR, 1.0, ORIGIN3, 0.4, level=0.0)
        assert abs(a - b) <= 0.01

    def test_ball_must_fit(self, halfplane3):
        with pytest.raises(GeometryError):
            weiss_core(halfplane3, LINEAR, 1.0, ORIGIN3, 1.5, level=0.0)

    def test_cell_density_halfplane_exact(self, halfplane3):
        # phase boundary on a node plane: cell gradients and signs are exact
        density = cell_energy_density(halfplane3, LINEAR, 1.0, 0.0)
        n_half = density.shape[0] // 2
        assert np.all(density[:n_half] == 0.0)
        # the indicator part is exact; F(|grad u|^2) carries only the ulp
        # noise of the node coordinates themselves
        assert np.allclose(density[n_half:], 2.0, rtol=0.0, atol=1e-12)

    def test_cell_density_of_an_exact_zero_phase_is_the_center_sign_rule(self):
        # u >= 0 at level 0: the phase fraction is 1 on a cell with a positive
        # corner and 0 elsewhere, bit for bit the indicator of a positive center
        grid = box_grid(3, 24)
        x, y, z = grid.node_mesh()
        u = ScalarField(grid, np.maximum(z - 0.1 * np.cos(3.0 * x) * np.sin(2.0 * y), 0.0))
        density = cell_energy_density(u, ARCTAN, 0.7, 0.0)
        grads = monotonicity._cell_gradient_arrays(u.values, grid.h)
        centers = u.values
        for a in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[a], hi[a] = slice(None, -1), slice(1, None)
            centers = 0.5 * (centers[tuple(lo)] + centers[tuple(hi)])
        want = ARCTAN.f(sum(g * g for g in grads)) + 0.7 * (centers > 0.0)
        assert density.tobytes() == want.tobytes()

    @pytest.mark.parametrize("level", [0.0, 0.03])
    def test_cell_density_counts_the_fraction_above_the_level(self, level):
        # u - level is linear across z, cut inside one cell layer: that layer
        # counts the share of its height above the level
        grid = box_grid(3, 8)
        z = grid.node_mesh()[2]
        cut = 0.1
        u = ScalarField(grid, z - cut + level)
        density = cell_energy_density(u, LINEAR, 1.0, level)
        lower = grid.axis_nodes(2)[:-1]
        share = np.clip((lower + grid.h - cut) / grid.h, 0.0, 1.0)
        assert 0.0 < share[4] < 1.0
        assert np.allclose(density, 2.0 * share[None, None, :], rtol=0.0, atol=1e-12)


class TestMonotonicityValue:
    """The ghost-corrected value A(r), as scan computes it."""

    def test_linear_ghost_is_identity(self, halfplane3):
        g = zero_ghost(halfplane3.grid, ORIGIN3)
        core = weiss_core(halfplane3, LINEAR, 1.0, ORIGIN3, 0.25, level=0.0)
        assert scan(halfplane3, LINEAR, 1.0, ORIGIN3, [0.25], g, level=0.0).a[0] == core

    def test_zero_field(self, grid3):
        u = ScalarField(grid3, np.zeros(grid3.node_shape))
        g = zero_ghost(grid3, ORIGIN3)
        assert scan(u, LINEAR, 1.0, ORIGIN3, [0.3], g, level=0.0).a[0] == 0.0

    def test_base_point_mismatch_raises(self, halfplane3):
        g = zero_ghost(halfplane3.grid, (0.25, 0.0, 0.0))
        with pytest.raises(ValueError, match="base point"):
            scan(halfplane3, LINEAR, 1.0, ORIGIN3, [0.25], g, level=0.0)

    def test_reference_slope_mismatch_raises(self, halfplane3):
        g = zero_ghost(halfplane3.grid, ORIGIN3, f0=2.0)
        with pytest.raises(ValueError, match="slope"):
            scan(halfplane3, LINEAR, 1.0, ORIGIN3, [0.25], g, level=0.0)


class TestRadialDerivative:
    def test_quadratic_oracle(self, quadratic3):
        # u = |x|^2: u_nu - u/r = 2r - r = r, so the value is 8 pi r F'(4 r^2)
        value = radial_derivative(quadratic3, LINEAR, ORIGIN3, 0.5, level=0.0)
        assert value == pytest.approx(4.0 * np.pi, rel=2e-2)

    def test_quadratic_oracle_perturbed_model(self, quadratic3):
        r = 0.5
        target = 8.0 * np.pi * r * float(ARCTAN.df(4.0 * r * r))
        value = radial_derivative(quadratic3, ARCTAN, ORIGIN3, r, level=0.0)
        assert value == pytest.approx(target, rel=2e-2)

    def test_degree_one_vanishes(self, cone3):
        for r in (0.2, 0.35):
            assert radial_derivative(cone3, LINEAR, ORIGIN3, r, level=0.0) <= 1e-2

    def test_zero_field(self, grid3):
        u = ScalarField(grid3, np.zeros(grid3.node_shape))
        assert radial_derivative(u, LINEAR, ORIGIN3, 0.3, level=0.0) == 0.0

    def test_nonnegative_for_arbitrary_fields(self):
        grid = box_grid(2, 24)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = ScalarField(grid, rng.normal(size=grid.node_shape))
            # sum of nonnegative quadrature terms: nonnegative exactly
            assert radial_derivative(u, ARCTAN, ORIGIN2, 0.4, level=0.0) >= 0.0


class TestErrorTerm:
    def test_linear_model_exact_zero(self, quadratic3):
        assert error_term(quadratic3, LINEAR, ORIGIN3, 0.5, level=0.0) == 0.0

    def test_degree_one_vanishes(self, cone3):
        for r in (0.2, 0.35):
            assert abs(error_term(cone3, ARCTAN, ORIGIN3, r, level=0.0)) <= 1e-3

    def test_quadratic_closed_form(self):
        grid = box_grid(2, 192)
        x, y = grid.node_mesh()
        u = ScalarField(grid, x * x + y * y)
        r = 0.6
        # u_nu - u/r = r and u/r^2 = 1 on the sphere, so
        # T = 4 pi r (F'(4 r^2) - F'(1))
        target = 4.0 * np.pi * r * (float(ARCTAN.df(4 * r * r)) - float(ARCTAN.df(1.0)))
        assert error_term(u, ARCTAN, ORIGIN2, r, level=0.0) == pytest.approx(target, rel=1e-6)

    def test_flux_form_agrees(self):
        grid = box_grid(2, 192)
        x, y = grid.node_mesh()
        u = ScalarField(grid, x * x + y * y)
        flux = flux_field(u, ARCTAN, ORIGIN2)
        for r in (0.4, 0.6):
            a = error_term(u, ARCTAN, ORIGIN2, r, level=0.0)
            b = error_term_flux(flux, r)
            assert b == pytest.approx(a, rel=1e-3)

    def test_flux_form_rejects_capped_radius(self):
        grid = box_grid(2, 32)
        x, y = grid.node_mesh()
        u = ScalarField(grid, x * x + y * y)
        flux = flux_field(u, ARCTAN, ORIGIN2)
        with pytest.raises(GeometryError, match="capped core"):
            error_term_flux(flux, 0.4 * flux.cap_radius)


class TestLogRadiusDerivative:
    def test_exact_for_linear_data(self):
        r = np.array([0.1, 0.15, 0.2, 0.3])
        values = 2.0 + 0.0 * r
        assert np.all(log_radius_derivative(values, r) == 0.0)

    def test_power_law(self):
        r = np.geomspace(0.1, 0.4, 12)
        fd = log_radius_derivative(r**2, r)
        # centered log-r differences of r^2 give 2r times the sinh factor
        # sinh(2 log rho)/(2 log rho) for step ratio rho
        step = np.log(r[-1] / r[0]) / (r.size - 1)
        factor = np.sinh(2.0 * step) / (2.0 * step)
        assert np.allclose(fd[1:-1], 2.0 * r[1:-1] * factor, rtol=1e-8)
        assert np.allclose(fd[1:-1], 2.0 * r[1:-1], rtol=2e-2)

    def test_single_radius_nan(self):
        out = log_radius_derivative([1.0], [0.2])
        assert np.isnan(out).all()


class TestScan:
    def test_halfplane_constancy(self, halfplane_scan):
        rep = halfplane_scan
        assert rep.violations == ()
        median = float(np.median(rep.a))
        assert np.max(np.abs(rep.a - median)) <= 0.02 * abs(median)

    def test_recombination_bitwise(self, halfplane_scan):
        rep = halfplane_scan
        assert np.array_equal(rep.a, rep.weiss_core - rep.ghost_term)
        ghost_rate = log_radius_derivative(rep.ghost_term, rep.r)
        recombined = rep.a_prime_fd - rep.a_prime_formula - rep.t + ghost_rate
        assert np.array_equal(rep.mainid_gap, recombined)

    def test_linear_error_term_zero(self, halfplane_scan):
        assert np.all(halfplane_scan.t == 0.0)

    def test_metadata(self, halfplane3, halfplane_scan):
        # the quadrature ceiling 5 (h/r_min) |A(r_max)|, from the scanned grid
        rep = halfplane_scan
        h = halfplane3.grid.h
        assert rep.tol_mono == 5.0 * (h / float(rep.r[0])) * abs(float(rep.a[-1]))
        assert rep.tol_mono > 0.0

    def test_single_radius(self, halfplane3):
        g = zero_ghost(halfplane3.grid, ORIGIN3)
        rep = scan(halfplane3, LINEAR, 1.0, ORIGIN3, [0.25], g, level=0.0)
        assert rep.r.size == 1
        assert rep.violations == ()
        assert np.isnan(rep.a_prime_fd[0])

    def test_unsorted_radii_raise(self, halfplane3):
        g = zero_ghost(halfplane3.grid, ORIGIN3)
        with pytest.raises(ValueError, match="increasing"):
            scan(halfplane3, LINEAR, 1.0, ORIGIN3, [0.3, 0.2], g, level=0.0)

    @pytest.mark.parametrize("r", [-0.5, float("nan")])
    def test_nan_radius_raises_like_negative(self, halfplane3, r):
        g = zero_ghost(halfplane3.grid, ORIGIN3)
        with pytest.raises(ValueError, match="radii must be positive"):
            scan(halfplane3, LINEAR, 1.0, ORIGIN3, [r], g, level=0.0)


    def test_corrupted_ghost_flags_violation(self):
        grid = box_grid(2, 128)
        x, y = grid.node_mesh()
        u = ScalarField(grid, np.maximum(x, 0.0))
        d = np.sqrt(x * x + y * y)
        step = 0.5 * np.clip((d - 0.24) / 0.02, 0.0, 1.0)
        bad = GhostFunction(
            potential=ScalarField(grid, step),
            base_point=ORIGIN2,
            f0=1.0,
            residual=0.0,
            iterations=0,
        )
        radii = geometric_radii(0.15, 0.39, 1.1)
        rep = scan(u, LINEAR, 1.0, ORIGIN2, radii, bad, level=0.0)
        assert rep.violations != ()
        i = rep.violations[0]
        assert rep.a[i + 1] < rep.a[i] - rep.tol_mono


def arctan_case_2d():
    grid = box_grid(2, 96)
    x, y = grid.node_mesh()
    u = ScalarField(grid, np.maximum(x + 0.3 * y * y, 0.0) + 0.1 * x * y)
    phi = ScalarField(grid, 0.05 * np.cos(3.0 * x) * np.sin(2.0 * y))
    return u, ORIGIN2, phi, geometric_radii(0.2, 0.5, 1.3)


def arctan_case_3d():
    grid = box_grid(3, 24)
    x, y, z = grid.node_mesh()
    u = ScalarField(grid, np.maximum(x + 0.2 * y * z, 0.0) + 0.1 * x * y)
    phi = ScalarField(grid, 0.05 * np.cos(2.0 * x) * np.sin(y + z))
    return u, (0.05, -0.02, 0.0), phi, geometric_radii(0.3, 0.6, 1.25)


def assert_columns_match_single_radius_terms(u, z, phi, radii):
    # one gather per radius in the scan; the standalone functions share its
    # sphere formulas, so every column agrees bit for bit
    g = GhostFunction(
        potential=phi, base_point=z, f0=ARCTAN.f0,
        residual=0.0, iterations=0,
    )
    rep = scan(u, ARCTAN, 0.7, z, radii, g, level=0.0)
    assert np.any(rep.t != 0.0) and np.any(rep.ghost_term != 0.0)
    for i, r in enumerate(radii):
        assert rep.weiss_core[i] == weiss_core(u, ARCTAN, 0.7, z, r, level=0.0)
        assert rep.ghost_term[i] == shell_average(phi, z, r)
        assert rep.a_prime_formula[i] == radial_derivative(u, ARCTAN, z, r, level=0.0)
        assert rep.t[i] == error_term(u, ARCTAN, z, r, level=0.0)


def frozen_sphere_terms(model, z, r, f0, pts, w, samples):
    """The sphere terms from a point-major copy of the gradient samples, the
    form the per-axis rows replaced."""
    n = pts.shape[1]
    uvals = samples[0]
    grads = np.ascontiguousarray(samples[1 : 1 + n].T)
    nu = (pts - z[None, :]) / r
    q = np.sum(grads * grads, axis=-1)
    u_nu = np.sum(grads * nu, axis=-1)
    slope = model.df(q)
    formula = 2.0 / r**n * np.sum(w * slope * (u_nu - uvals / r) ** 2)
    t = 2.0 / r ** (n - 1) * np.sum(w * (slope - f0) * (uvals / r**2) * (u_nu - uvals / r))
    return float(formula), float(t)


class TestSphereKernel:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("model", [ARCTAN, LINEAR], ids=["arctan", "linear"])
    def test_sphere_terms_bytes_equal_point_major_form(self, dim, model):
        rng = np.random.default_rng(dim)
        z, r = rng.uniform(-0.1, 0.1, dim), 0.3
        pts, w = sphere_quadrature(dim, z, r)
        samples = rng.standard_normal((1 + dim, len(w)))
        # signed zeros, and a sphere where u and grad u are all +-0
        samples[rng.random(samples.shape) < 0.3] = -0.0
        zeros = np.where(rng.random(samples.shape) < 0.5, -0.0, 0.0)
        for s in (samples, zeros):
            got = monotonicity._sphere_terms(model, z, r, model.f0, pts, w, s.copy())
            want = frozen_sphere_terms(model, z, r, model.f0, pts, w, s)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_scan_columns_match_single_radius_terms(self):
        assert_columns_match_single_radius_terms(*arctan_case_2d())

    def test_scan_columns_match_single_radius_terms_3d(self):
        assert_columns_match_single_radius_terms(*arctan_case_3d())

    def test_ghost_on_another_grid_raises(self):
        u, z, phi, radii = arctan_case_2d()
        g = zero_ghost(box_grid(2, 48), z, f0=ARCTAN.f0)
        with pytest.raises(ValueError, match="different grids"):
            scan(u, ARCTAN, 0.7, z, radii, g, level=0.0)


def full_grid_ball_energies(u, model, lam, level, balls):
    """The bulk integrals from the full-grid density, as the scan formed them before."""
    density = cell_energy_density(u, model, lam, level)
    return [
        float(u.grid.h**u.grid.dim * np.sum(bw.cells * density[bw.cell_window]))
        for bw in balls
    ]


def face_case_2d():
    # the largest ball's window is clipped at the face x = 1
    u, _, phi, _ = arctan_case_2d()
    return u, (0.55, 0.1), phi, geometric_radii(0.2, 0.44, 1.3)


class TestDensityWindow:
    """Scan and Weiss core on the window of the largest ball
    against the full-grid density path, byte for byte."""

    @pytest.mark.parametrize("case", [arctan_case_2d, arctan_case_3d, face_case_2d])
    def test_bytes_equal_full_grid_density(self, case, monkeypatch):
        u, z, phi, radii = case()
        # a cell's phase fraction reads only its own corners, at any level
        for level in (0.0, 0.05):
            g = GhostFunction(
                potential=phi, base_point=z, f0=ARCTAN.f0,
                residual=0.0, iterations=0, level=level,
            )
            with monkeypatch.context() as m:
                got = scan(u, ARCTAN, 0.7, z, radii, g, level=level)
                cores = [weiss_core(u, ARCTAN, 0.7, z, r, level=level) for r in radii]
                m.setattr(monotonicity, "_ball_energies", full_grid_ball_energies)
                want = scan(u, ARCTAN, 0.7, z, radii, g, level=level)
                for name, col in want.columns.items():
                    assert got.columns[name].tobytes() == col.tobytes(), name
                assert cores == [
                    weiss_core(u, ARCTAN, 0.7, z, r, level=level) for r in radii
                ]
                assert cores == list(got.weiss_core)

    def test_face_case_reaches_the_face(self):
        u, z, _, radii = face_case_2d()
        window = ball_weights(u.grid, z, float(radii[-1])).cell_window
        assert window[0].stop == u.grid.n_cells[0]


def signed_zero_ghost(grid: Grid, z, level: float) -> GhostFunction:
    """A zero potential about z with -0.0 at every other node."""
    values = np.zeros(grid.node_shape)
    values.reshape(-1)[::2] = -0.0
    return GhostFunction(
        potential=ScalarField(grid, values), base_point=z, f0=ARCTAN.f0,
        residual=0.0, iterations=0, level=level,
    )


class TestZeroPotential:
    """A potential with no nonzero node is not sampled: the scan writes the
    +0.0 that its shell means and oscillations give, also for -0.0 nodes,
    and its bulk reads the ladder's cell weights alone, built outside the
    cache."""

    @pytest.mark.parametrize("case", [arctan_case_2d, arctan_case_3d])
    @pytest.mark.parametrize("level", [0.0, 0.05])
    def test_csv_bytes_equal_general_path(self, case, level, tmp_path, monkeypatch):
        u, z, _, radii = case()
        g = signed_zero_ghost(u.grid, z, level)
        rep = scan(u, ARCTAN, 0.7, z, radii, g, level=level)
        assert not np.signbit(rep.ghost_term).any() and not np.signbit(rep.osc).any()
        assert not rep.ghost_term.any() and not rep.osc.any()
        write_report_csv(rep, tmp_path / "zero.csv")
        monkeypatch.setattr(monotonicity, "_is_zero", lambda phi: False)
        write_report_csv(scan(u, ARCTAN, 0.7, z, radii, g, level=level), tmp_path / "full.csv")
        assert (tmp_path / "zero.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()

    def test_cells_built_once_each_and_no_ball_cached(self, monkeypatch):
        u, z, _, radii = arctan_case_3d()
        cell_parts, built = fields._ball_cell_parts, []

        def counted(grid, z, r):
            built.append(r)
            return cell_parts(grid, z, r)

        def node_half(*args):
            raise AssertionError("a zero potential's scan built node weights")

        monkeypatch.setattr(fields, "_ball_cell_parts", counted)
        monkeypatch.setattr(fields, "_build_ball_weights", node_half)
        # the scan's release would hide a ball it cached
        monkeypatch.setattr(monotonicity, "drop_ball_weights", lambda: None)
        _ball_weights.cache_clear()
        scan(u, ARCTAN, 0.7, z, radii, signed_zero_ghost(u.grid, z, 0.0), level=0.0)
        # largest first: the ladder's gate
        assert built == sorted(map(float, radii), reverse=True)
        assert _ball_weights.cache_info().currsize == 0


class TestReportsCopyInputs:
    def test_vmo_report_leaves_caller_array_writable(self):
        profile = np.array([1.0, 0.5, 0.1])
        rep = VmoReport(profile=profile, limit_estimate=0.1, floor=0.0, passed=True)
        assert profile.flags.writeable
        assert not rep.profile.flags.writeable
        profile[0] = 7.0
        assert rep.profile[0] == 1.0

    def test_monotonicity_report_leaves_caller_arrays_writable(self, halfplane_scan):
        cols = {
            name: np.array(getattr(halfplane_scan, name))
            for name in ("r", "weiss_core", "ghost_term", "a", "a_prime_fd",
                         "a_prime_formula", "t", "mainid_gap", "osc")
        }
        rep = MonotonicityReport(
            **cols, tol_mono=0.0, violations=(),
        )
        for name, arr in cols.items():
            assert arr.flags.writeable, name
            assert not getattr(rep, name).flags.writeable, name

    def test_scan_leaves_radii_writable(self, halfplane3):
        radii = np.array([0.2, 0.25])
        g = zero_ghost(halfplane3.grid, ORIGIN3)
        rep = scan(halfplane3, LINEAR, 1.0, ORIGIN3, radii, g, level=0.0)
        assert radii.flags.writeable
        assert not rep.r.flags.writeable


class TestOscillation:
    def test_constant_zero(self):
        grid = box_grid(2, 64)
        phi = ScalarField(grid, np.full(grid.node_shape, 3.7))
        profile = oscillation_profile(phi, ORIGIN2, [0.2, 0.4])
        assert np.all(np.abs(profile) <= 1e-15)

    def test_affine_second_moment(self):
        # mean square of a.x over a ball is |a|^2 r^2 / (n + 2)
        grid = box_grid(2, 128)
        x, y = grid.node_mesh()
        phi = ScalarField(grid, 2.0 * x + 1.0 * y)
        profile = oscillation_profile(phi, ORIGIN2, [0.2, 0.4])
        for value, r in zip(profile, (0.2, 0.4)):
            assert value == pytest.approx(5.0 * r * r / 4.0, rel=2e-2)

    def test_log_profile_level(self):
        grid = box_grid(2, 192)
        x, y = grid.node_mesh()
        d2 = np.maximum(x * x + y * y, (grid.h / 2.0) ** 2)
        phi = ScalarField(grid, 0.5 * np.log(d2))
        profile = oscillation_profile(phi, ORIGIN2, [0.4, 0.2, 0.1])
        # analytic variance of log|x| over any ball is 1/4
        assert np.all(np.abs(profile - 0.25) <= 0.02)


DYADIC_LEVELS = [0.32, 0.16, 0.08, 0.04]


class TestVmo:
    @pytest.fixture
    def dyadic(self):
        return list(DYADIC_LEVELS)

    def test_affine_passes(self, dyadic):
        grid = box_grid(2, 192)
        x, y = grid.node_mesh()
        rep = vmo_check(ScalarField(grid, 2.0 * x + y), ORIGIN2, dyadic)
        assert rep.passed
        assert rep.profile.size == 4

    def test_constant_passes(self, dyadic):
        grid = box_grid(2, 64)
        rep = vmo_check(ScalarField(grid, np.ones(grid.node_shape)), ORIGIN2, dyadic)
        assert rep.passed

    def test_log_fails(self, dyadic):
        grid = box_grid(2, 192)
        x, y = grid.node_mesh()
        d2 = np.maximum(x * x + y * y, (grid.h / 2.0) ** 2)
        rep = vmo_check(ScalarField(grid, 0.5 * np.log(d2)), ORIGIN2, dyadic)
        assert not rep.passed
        assert rep.limit_estimate > rep.floor

    def test_loop_keeps_one_points_balls(self, dyadic):
        # each point's balls empty the cache of the point before
        grid = box_grid(2, 64)
        phi = ScalarField(grid, np.ones(grid.node_shape))
        _ball_weights.cache_clear()
        for x in (-0.2, -0.1, 0.0, 0.1, 0.2):
            vmo_check(phi, (x, 0.0), dyadic)
            assert _ball_weights.cache_info().currsize == len(dyadic)

    def test_requires_decreasing_radii(self):
        grid = box_grid(2, 64)
        phi = ScalarField(grid, np.ones(grid.node_shape))
        with pytest.raises(ValueError, match="decreasing"):
            vmo_check(phi, ORIGIN2, [0.1, 0.2])


class TestRegularPointFit:
    def radial_profile(self, fn, n=192):
        grid = box_grid(2, n)
        x, y = grid.node_mesh()
        d = np.sqrt(x * x + y * y)
        return ScalarField(grid, fn(d) / (2.0 * np.pi))

    def test_linear_data(self):
        phi = self.radial_profile(lambda s: 2.0 + 3.0 * s)
        fit = regular_point_fit(phi, ORIGIN2, np.linspace(0.1, 0.2, 6))
        assert fit.a0 == pytest.approx(2.0, abs=5e-3)
        assert fit.a1 == pytest.approx(3.0, abs=2e-2)
        assert fit.residual <= 1e-4

    def test_quadratic_data(self):
        phi = self.radial_profile(lambda s: 2.0 + 3.0 * s + s * s)
        fit = regular_point_fit(phi, ORIGIN2, np.linspace(0.1, 0.2, 6))
        assert 1.99 <= fit.a0 <= 2.01
        assert 2.8 <= fit.a1 <= 3.2
        assert fit.a2 == pytest.approx(1.0, abs=0.05)
        assert fit.residual <= 0.045

    def test_zero_field(self):
        grid = box_grid(2, 64)
        phi = ScalarField(grid, np.zeros(grid.node_shape))
        fit = regular_point_fit(phi, ORIGIN2, np.linspace(0.1, 0.2, 5))
        assert fit.a0 == 0.0 and fit.a1 == 0.0

    def test_needs_four_radii(self):
        grid = box_grid(2, 64)
        phi = ScalarField(grid, np.zeros(grid.node_shape))
        with pytest.raises(ValueError):
            regular_point_fit(phi, ORIGIN2, [0.1, 0.15, 0.2])

    def test_degenerate_radii(self):
        grid = box_grid(2, 64)
        phi = ScalarField(grid, np.zeros(grid.node_shape))
        with pytest.raises(ValueError, match="degenerate"):
            regular_point_fit(phi, ORIGIN2, [0.1, 0.1, 0.1, 0.1])


class TestReportCsv:
    def test_roundtrip_and_determinism(self, halfplane_scan, tmp_path):
        path_a = tmp_path / "scan_a.csv"
        path_b = tmp_path / "scan_b.csv"
        write_report_csv(halfplane_scan, path_a)
        write_report_csv(halfplane_scan, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        cols, data = read_csv(path_a)
        assert tuple(cols) == CSV_COLUMNS
        for j, name in enumerate(cols):
            assert np.array_equal(data[:, j], halfplane_scan.columns[name], equal_nan=True)
