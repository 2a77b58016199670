import math

import numpy as np
import pytest

from fbmlab.density import arctan_density, bernoulli_lambda, linear_density
from fbmlab.errors import GeometryError, SolverError
from fbmlab.fieldio import write_field
from fbmlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    gradient_transpose,
    trapezoid_weights,
)
from fbmlab.minimizer import (
    BoundaryData,
    Problem,
    default_step,
    domain_variation_residual,
    energy,
    energy_gradient,
    initial_guess,
    minimize,
)


def box_grid(dim, n, half=1.0):
    return Grid((-half,) * dim, (half,) * dim, (n,) * dim)


def sample(grid, fn):
    return ScalarField(grid, fn(*grid.node_mesh()))


def halfplane_problem(dim, n, model=None, **kw):
    model = model or linear_density()
    grid = box_grid(dim, n)
    e = (1.0,) + (0.0,) * (dim - 1)
    return Problem(grid, model, BoundaryData("halfplane", direction=e), **kw)


class TestBoundaryData:
    def test_halfplane_values_and_normalization(self):
        g = box_grid(2, 8)
        u1 = BoundaryData("halfplane", direction=(1.0, 0.0)).profile(g)
        u2 = BoundaryData("halfplane", direction=(2.0, 0.0)).profile(g)
        x, _ = g.node_mesh()
        assert np.array_equal(u1, np.maximum(x, 0.0))
        assert np.array_equal(u1, u2)

    def test_halfplane_needs_direction(self):
        with pytest.raises(ValueError):
            BoundaryData("halfplane")
        with pytest.raises(ValueError):
            BoundaryData("halfplane", direction=(0.0, 0.0))

    def test_dimension_mismatch(self):
        b = BoundaryData("halfplane", direction=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            b.profile(box_grid(2, 4))

    def test_radial_cone(self):
        g = box_grid(2, 8)
        u = BoundaryData("radial", center=(0.25, 0.0)).profile(g)
        x, y = g.node_mesh()
        assert np.allclose(u, np.hypot(x - 0.25, y), atol=1e-15)

    def test_wedge_pi_is_halfplane(self):
        g = box_grid(2, 16)
        w = BoundaryData("wedge", angle=math.pi).profile(g)
        hp = BoundaryData("halfplane", direction=(1.0, 0.0)).profile(g)
        assert np.allclose(w, hp, atol=1e-13)

    def test_wedge_sector_support(self):
        g = box_grid(2, 16)
        u = BoundaryData("wedge", angle=math.pi / 2).profile(g)
        x, y = g.node_mesh()
        theta = np.arctan2(y, x)
        assert np.all(u[np.abs(theta) >= math.pi / 4] == 0.0)
        assert np.all(u[(np.abs(theta) < math.pi / 4 - 0.1) & (x > 0.1)] > 0.0)

    def test_wedge_degree_one(self):
        b = BoundaryData("wedge", angle=2.0)
        fine = box_grid(2, 8, half=1.0)
        coarse = box_grid(2, 8, half=0.5)
        assert np.allclose(b.profile(fine), 2.0 * b.profile(coarse), atol=1e-14)

    def test_wedge_needs_2d(self):
        b = BoundaryData("wedge", angle=1.0)
        with pytest.raises(ValueError):
            b.profile(box_grid(3, 4))

    def test_invalid_kinds(self):
        with pytest.raises(ValueError):
            BoundaryData("spiral")
        with pytest.raises(ValueError):
            BoundaryData("wedge", angle=7.0)
        with pytest.raises(ValueError):
            BoundaryData("file")

    def test_file_roundtrip(self, tmp_path):
        g = box_grid(2, 6)
        u = sample(g, lambda x, y: x * y + 1.0)
        path = tmp_path / "stored.json"
        write_field(u, path)
        b = BoundaryData("file", path=str(path))
        assert np.array_equal(b.profile(g), u.values)
        with pytest.raises(ValueError):
            b.profile(box_grid(2, 8))


class TestProblem:
    def test_defaults(self):
        model = arctan_density(0.1)
        p = halfplane_problem(2, 16, model=model)
        assert p.lam == bernoulli_lambda(model)
        assert p.eps == 2.0 * p.grid.h
        assert np.array_equal(p.fixed_mask, p.grid.boundary_mask())

    def test_fixed_mask_must_cover_boundary(self):
        g = box_grid(2, 8)
        mask = g.boundary_mask()
        mask[0, 0] = False
        with pytest.raises(ValueError):
            halfplane_problem(2, 8, fixed_mask=mask)

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            halfplane_problem(2, 8, eps=0.0)
        with pytest.raises(ValueError):
            halfplane_problem(2, 8, lam=-1.0)


class TestAdjoint:
    @pytest.mark.parametrize("shape,axis", [((9,), 0), ((6, 7), 0), ((6, 7), 1), ((4, 5, 6), 2)])
    def test_transpose_matches_gradient(self, shape, axis):
        rng = np.random.default_rng(42)
        h = 0.17
        q = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        d_q = np.gradient(q, h, axis=axis, edge_order=2)
        lhs = np.sum(d_q * v)
        rhs = np.sum(q * gradient_transpose(v, axis, h))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_node_weights_sum_counts_cells(self):
        w = trapezoid_weights((5, 9))
        assert np.sum(w) == pytest.approx(4 * 8, rel=1e-14)


class TestEnergy:
    def test_zero_field(self):
        p = halfplane_problem(2, 8)
        u = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        assert energy(p, u) == 0.0

    def test_constant_above_ramp(self):
        p = halfplane_problem(2, 8, model=arctan_density(0.3))
        u = ScalarField(p.grid, np.full(p.grid.node_shape, p.eps))
        assert energy(p, u) == pytest.approx(p.lam * 4.0, rel=1e-12)

    def test_halfplane_bulk_value(self):
        # sharp limit: (f(1) + lam) * half-box volume = 8
        p = halfplane_problem(3, 64, eps=1e-8)
        u = initial_guess(p)
        assert energy(p, u) == pytest.approx(8.0, rel=2e-2)

    def test_grid_mismatch(self):
        p = halfplane_problem(2, 8)
        other = ScalarField(box_grid(2, 10), np.zeros((11, 11)))
        with pytest.raises(ValueError):
            energy(p, other)

    def test_joint_scaling_is_exact(self):
        # scaling f and lam by a power of two scales the energy bit-exactly
        rng = np.random.default_rng(5)
        grid = box_grid(2, 12)
        vals = rng.standard_normal(grid.node_shape)
        e = (1.0, 0.0)
        p1 = Problem(grid, arctan_density(0.1, scale=1.0), BoundaryData("halfplane", direction=e))
        p4 = Problem(grid, arctan_density(0.1, scale=4.0), BoundaryData("halfplane", direction=e))
        u = ScalarField(grid, vals)
        assert energy(p4, u) == 4.0 * energy(p1, u)


class TestEnergyGradient:
    def test_negative_constant_is_critical(self):
        p = halfplane_problem(2, 10, model=arctan_density(0.2))
        u = ScalarField(p.grid, np.full(p.grid.node_shape, -1.0))
        g = energy_gradient(p, u)
        assert np.all(g.values == 0.0)

    def test_saturated_affine_interior_zero(self):
        # harmonic + indicator saturated: gradient vanishes to round-off
        # except where the adjoint of the one-sided boundary stencil reaches
        # (two nodes in), hence the three-ring buffer
        p = halfplane_problem(2, 12, eps=0.05)
        u = sample(p.grid, lambda x, y: 2.0 + 0.3 * x + 0.2 * y)
        g = energy_gradient(p, u)
        assert np.max(np.abs(g.values[3:-3, 3:-3])) <= 1e-12

    def test_fixed_nodes_zeroed(self):
        p = halfplane_problem(2, 8)
        rng = np.random.default_rng(0)
        u = ScalarField(p.grid, rng.standard_normal(p.grid.node_shape))
        g = energy_gradient(p, u)
        assert np.all(g.values[p.fixed_mask] == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(1000 + seed)
        model = arctan_density(0.15) if seed % 2 else linear_density()
        p = halfplane_problem(2, 12, model=model)
        vals = rng.standard_normal(p.grid.node_shape)
        # keep nodal values off the ramp kinks so E is differentiable there
        for kink in (0.0, p.eps):
            near = np.abs(vals - kink) < 1e-4
            vals = np.where(near, kink + 2e-4, vals)
        u = ScalarField(p.grid, vals)
        v = rng.standard_normal(p.grid.node_shape)
        v[p.fixed_mask] = 0.0
        g = energy_gradient(p, u)
        analytic = float(np.sum(g.values * v)) * p.grid.h**2
        delta = 1e-6
        up = ScalarField(p.grid, vals + delta * v)
        dn = ScalarField(p.grid, vals - delta * v)
        fd = (energy(p, up) - energy(p, dn)) / (2.0 * delta)
        assert fd == pytest.approx(analytic, rel=1e-4)


class TestMinimize:
    def test_critical_start_stops_immediately(self):
        p = halfplane_problem(2, 8)
        u0 = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        u, rep = minimize(p, u0, tol=1e-12, max_iter=50)
        assert rep.converged
        assert rep.iterations == 0
        assert np.array_equal(u.values, u0.values)

    def test_zero_budget(self):
        p = halfplane_problem(2, 8)
        u0 = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        u, rep = minimize(p, u0, tol=1e-12, max_iter=0)
        assert not rep.converged
        assert rep.iterations == 0
        assert np.array_equal(u.values, u0.values)

    def test_nonfinite_start(self):
        # checkerboard at 1e200 overflows the one-sided boundary derivative
        p = halfplane_problem(2, 8)
        i, j = np.indices(p.grid.node_shape)
        u0 = ScalarField(p.grid, 1e200 * (-1.0) ** (i + j))
        with pytest.raises(SolverError):
            minimize(p, u0, tol=1e-8, max_iter=10)

    def test_descent_recovers_halfplane(self):
        p = halfplane_problem(2, 64)
        profile = initial_guess(p)
        x, y = p.grid.node_mesh()
        bump = 0.05 * np.clip(1 - (2 * x) ** 2, 0, None) ** 2 * np.clip(1 - (2 * y) ** 2, 0, None) ** 2
        u0 = ScalarField(p.grid, profile.values + bump)
        u, rep = minimize(p, u0, tol=1e-5, max_iter=8000)
        assert rep.final_energy <= rep.energy_history[0]
        assert np.all(np.diff(rep.energy_history) <= 0.0)
        inner = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5)
        err = np.abs(u.values - np.maximum(x, 0.0))
        assert np.max(err[inner]) <= 3.0 * p.grid.h

    def test_boundary_bit_exact(self):
        p = halfplane_problem(2, 16, model=arctan_density(0.1))
        rng = np.random.default_rng(9)
        vals = initial_guess(p).values + 0.05 * rng.standard_normal(
            p.grid.node_shape
        )
        u0 = ScalarField(p.grid, vals)
        u, _ = minimize(p, u0, tol=0.0, max_iter=40)
        assert u.values[p.fixed_mask].tobytes() == u0.values[p.fixed_mask].tobytes()
        assert np.any(u.values[~p.fixed_mask] != u0.values[~p.fixed_mask])

    def test_joint_scaling_reproduces_iterates(self):
        grid = box_grid(2, 16)
        e = (1.0, 0.0)
        rng = np.random.default_rng(21)
        base = BoundaryData("halfplane", direction=e).profile(grid)
        noise = 0.1 * rng.standard_normal(grid.node_shape)
        noise[grid.boundary_mask()] = 0.0
        u0_vals = base + noise
        outs = []
        reports = []
        for s in (1.0, 4.0):
            p = Problem(grid, arctan_density(0.1, scale=s), BoundaryData("halfplane", direction=e))
            u, rep = minimize(p, ScalarField(grid, u0_vals), tol=0.0, max_iter=25)
            outs.append(u)
            reports.append(rep)
        assert np.array_equal(outs[0].values, outs[1].values)
        assert reports[1].step_history == [s / 4.0 for s in reports[0].step_history]
        assert reports[1].energy_history == [4.0 * e for e in reports[0].energy_history]

    def test_default_step_positive(self):
        p = halfplane_problem(2, 16)
        assert default_step(p) > 0.0


class TestInitialGuess:
    def test_profile_matches_generator(self):
        p = halfplane_problem(2, 12)
        u = initial_guess(p)
        assert np.array_equal(u.values, p.boundary.profile(p.grid))


class TestDomainVariation:
    @staticmethod
    def bump_field(grid, scale=(1.0, 0.5)):
        x, y = grid.node_mesh()
        b = (1 - x * x) ** 2 * (1 - y * y) ** 2
        comps = np.stack([s * b for s in scale], axis=-1)
        return VectorField(grid, comps)

    def test_zero_state_exact(self):
        p = halfplane_problem(2, 12)
        u = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        res = domain_variation_residual(p, u, [self.bump_field(p.grid)])
        assert res == [0.0]

    def test_zero_test_field_exact(self):
        p = halfplane_problem(2, 12)
        u = initial_guess(p)
        phi = VectorField(p.grid, np.zeros(p.grid.node_shape + (2,)))
        assert domain_variation_residual(p, u, [phi]) == [0.0]

    def test_support_touching_boundary(self):
        p = halfplane_problem(2, 12)
        u = initial_guess(p)
        phi = VectorField(p.grid, np.ones(p.grid.node_shape + (2,)))
        with pytest.raises(GeometryError):
            domain_variation_residual(p, u, [phi])

    def test_halfplane_residual_shrinks_with_h(self):
        vals = []
        for n in (16, 32, 64):
            p = halfplane_problem(2, n, eps=1e-10)
            u = initial_guess(p)
            (r,) = domain_variation_residual(p, u, [self.bump_field(p.grid)])
            vals.append(abs(r))
            assert abs(r) <= 6.0 * p.grid.h
        assert vals[2] <= 0.75 * vals[0]
