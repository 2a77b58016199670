import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fbmlab import minimizer as minimizer_module
from fbmlab.density import DensityModel, bernoulli_lambda
from fbmlab.errors import SolverError
from fbmlab.fieldio import write_field
from fbmlab.fields import (
    Grid,
    ScalarField,
    add_edge_means,
    edge_differences,
    edge_differences_transpose,
    edge_means_transpose,
    gradient_arrays,
    trapezoid_weights,
    weigh,
)
from fbmlab.minimizer import (
    BoundaryData,
    Problem,
    energy,
    energy_gradient,
    hessian_product,
    initial_guess,
    minimize,
    ramp,
    ramp_free_boundary,
    ramp_profile,
)
from fbmlab.pipeline import stage_minimize
from fbmlab.scenario import Scenario


SCENARIO_2D = Path(__file__).resolve().parent.parent / "scenarios" / "arctan_halfplane_2d.json"


def box_grid(dim, n, half=1.0):
    return Grid((-half,) * dim, (half,) * dim, (n,) * dim)


def sample(grid, fn):
    return ScalarField(grid, fn(*grid.node_mesh()))


def face_mask(shape):
    """The nodes with index 0 or n - 1 on some axis: the box faces minimize pins."""
    index = np.indices(shape)
    return np.any([(i == 0) | (i == n - 1) for i, n in zip(index, shape)], axis=0)


def halfplane_problem(dim, n, model=None, **kw):
    model = model or DensityModel(kind="linear")
    grid = box_grid(dim, n)
    e = (1.0,) + (0.0,) * (dim - 1)
    return Problem(grid, model, BoundaryData("halfplane", direction=e), **kw)


def noisy_start(p, amplitude=0.05, seed=3):
    """Boundary profile plus interior noise; boundary nodes keep their data."""
    vals = initial_guess(p).values
    noise = amplitude * np.random.default_rng(seed).standard_normal(vals.shape)
    noise[face_mask(p.grid.node_shape)] = 0.0
    return ScalarField(p.grid, vals + noise)


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
        # Problem pairs the data with a grid, so it checks the dimension
        model = DensityModel(kind="linear")
        b = BoundaryData("halfplane", direction=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="direction must have 2 components"):
            Problem(box_grid(2, 4), model, b)
        b = BoundaryData("radial", center=(0.0, 0.0))
        with pytest.raises(ValueError, match="center must have 3 coordinates"):
            Problem(box_grid(3, 4), model, b)

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
        with pytest.raises(ValueError, match="two dimensional"):
            Problem(box_grid(3, 4), DensityModel(kind="linear"), b)

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
        model = DensityModel(kind="arctan", alpha=0.1)
        p = halfplane_problem(2, 16, model=model)
        assert p.lam == bernoulli_lambda(model)
        assert p.eps == 2.0 * p.grid.h

    def test_plain_value_without_arrays(self):
        p = halfplane_problem(3, 8)
        assert not any(isinstance(getattr(p, f.name), np.ndarray) for f in dataclasses.fields(p))

    def test_equal_inputs_compare_equal(self):
        # a plain value: equal fields compare and hash equal
        p = halfplane_problem(2, 8)
        assert p == halfplane_problem(2, 8) and hash(p) == hash(halfplane_problem(2, 8))
        assert p != halfplane_problem(2, 8, lam=2.0)

    def test_bad_scalars(self):
        for name, value in [
            ("eps", 0.0), ("eps", math.nan), ("lam", -1.0), ("lam", math.nan), ("lam", math.inf)
        ]:
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                halfplane_problem(2, 8, **{name: value})


class TestAdjoint:
    @pytest.mark.parametrize("shape", [(9, 7), (5, 6, 4)])
    def test_derivatives_are_np_gradient_bytes(self, shape):
        rng = np.random.default_rng(7)
        h = 0.13
        values = rng.standard_normal(shape)
        out = [np.full(shape, np.nan) for _ in shape]
        got = gradient_arrays(values, h, out=out)
        assert got is out
        for axis in range(len(shape)):
            want = np.gradient(values, h, axis=axis, edge_order=2)
            assert got[axis].tobytes() == want.tobytes()
            assert gradient_arrays(values, h)[axis].tobytes() == want.tobytes()

    def test_node_weights_sum_counts_cells(self):
        w = trapezoid_weights((5, 9))
        assert np.sum(w) == pytest.approx(4 * 8, rel=1e-14)


class TestEnergy:
    def test_zero_field(self):
        p = halfplane_problem(2, 8)
        u = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        assert energy(p, u) == 0.0

    def test_constant_above_ramp(self):
        p = halfplane_problem(2, 8, model=DensityModel(kind="arctan", alpha=0.3))
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
        b = BoundaryData("halfplane", direction=e)
        p1 = Problem(grid, DensityModel(kind="arctan", alpha=0.1, scale=1.0), b)
        p4 = Problem(grid, DensityModel(kind="arctan", alpha=0.1, scale=4.0), b)
        u = ScalarField(grid, vals)
        assert energy(p4, u) == 4.0 * energy(p1, u)


class TestEnergyGradient:
    def test_negative_constant_is_critical(self):
        p = halfplane_problem(2, 10, model=DensityModel(kind="arctan", alpha=0.2))
        u = ScalarField(p.grid, np.full(p.grid.node_shape, -1.0))
        g = energy_gradient(p, u)
        assert np.all(g.values == 0.0)

    def test_saturated_affine_interior_zero(self):
        # harmonic + indicator saturated: the edge differences of an affine
        # field are constant, so the gradient vanishes to round-off at every
        # free node
        p = halfplane_problem(2, 12, eps=0.05)
        u = sample(p.grid, lambda x, y: 2.0 + 0.3 * x + 0.2 * y)
        g = energy_gradient(p, u)
        assert np.max(np.abs(g.values)) <= 1e-12

    def test_fixed_nodes_zeroed(self):
        p = halfplane_problem(2, 8)
        rng = np.random.default_rng(0)
        u = ScalarField(p.grid, rng.standard_normal(p.grid.node_shape))
        g = energy_gradient(p, u)
        assert np.all(g.values[face_mask(p.grid.node_shape)] == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        # the C^1 ramp makes E differentiable everywhere: no kink dodging
        rng = np.random.default_rng(1000 + seed)
        model = DensityModel(kind="arctan", alpha=0.15) if seed % 2 else DensityModel(kind="linear")
        p = halfplane_problem(2, 12, model=model)
        vals = rng.standard_normal(p.grid.node_shape)
        u = ScalarField(p.grid, vals)
        v = rng.standard_normal(p.grid.node_shape)
        v[face_mask(p.grid.node_shape)] = 0.0
        g = energy_gradient(p, u)
        analytic = float(np.sum(g.values * v)) * p.grid.h**2
        delta = 1e-6
        up = ScalarField(p.grid, vals + delta * v)
        dn = ScalarField(p.grid, vals - delta * v)
        fd = (energy(p, up) - energy(p, dn)) / (2.0 * delta)
        assert fd == pytest.approx(analytic, rel=1e-4)

    def test_penalizes_odd_even_modes(self):
        # the edge differences see the mode (-1)^j that a centered
        # difference misses, so a staircase raises the bulk energy
        p = halfplane_problem(2, 16, eps=1e-8)
        x, y = p.grid.node_mesh()
        stair = 0.01 * (-1.0) ** np.indices(p.grid.node_shape)[1]
        stair[face_mask(p.grid.node_shape)] = 0.0
        smooth = ScalarField(p.grid, 2.0 + x)
        assert energy(p, ScalarField(p.grid, smooth.values + stair)) > energy(p, smooth) + 1e-3


class TestHessian:
    @pytest.mark.parametrize("dim,n", [(2, 12), (3, 6)])
    @pytest.mark.parametrize("kind", ["linear", "arctan"])
    def test_matches_gradient_differences(self, dim, n, kind):
        rng = np.random.default_rng(17 + dim)
        model = DensityModel(kind="linear") if kind == "linear" else DensityModel(kind="arctan", alpha=0.15)
        p = halfplane_problem(dim, n, model=model)
        for _ in range(3):
            vals = p.eps * rng.standard_normal(p.grid.node_shape)
            v = rng.standard_normal(p.grid.node_shape)
            v[face_mask(p.grid.node_shape)] = 0.0
            hv = hessian_product(p, ScalarField(p.grid, vals), ScalarField(p.grid, v)).values
            delta = 1e-7
            gp = energy_gradient(p, ScalarField(p.grid, vals + delta * v)).values
            gm = energy_gradient(p, ScalarField(p.grid, vals - delta * v)).values
            fd = (gp - gm) / (2.0 * delta)
            scale = float(np.max(np.abs(hv)))
            assert np.max(np.abs(hv - fd)) <= 1e-5 * scale
            assert np.all(hv[face_mask(p.grid.node_shape)] == 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        p = halfplane_problem(3, 6, model=DensityModel(kind="arctan", alpha=0.2))
        u = ScalarField(p.grid, p.eps * rng.standard_normal(p.grid.node_shape))
        a, b = (rng.standard_normal(p.grid.node_shape) for _ in range(2))
        faces = face_mask(p.grid.node_shape)
        a[faces] = 0.0
        b[faces] = 0.0
        ha = hessian_product(p, u, ScalarField(p.grid, a)).values
        hb = hessian_product(p, u, ScalarField(p.grid, b)).values
        assert np.sum(ha * b) == pytest.approx(np.sum(a * hb), rel=1e-12)


def frozen_kernel(p, u, v):
    """Energy, gradient and Hessian product with every axis's D u and D v kept,
    in the operation order the streamed kernel must reproduce bit for bit."""
    h, dim, curved = p.grid.h, p.grid.dim, p.model.kind.value != "linear"
    diff = [lambda x, a=a: edge_differences(x, a, h, out=np.empty(x.shape)) for a in range(dim)]
    spread = [lambda x, a=a: edge_means_transpose(x, a, out=np.empty(x.shape)) for a in range(dim)]
    back = [lambda x, a=a: edge_differences_transpose(x, a, h, out=np.empty(x.shape))
            for a in range(dim)]
    g, dv = [d(u) for d in diff], [d(v) for d in diff]
    q = np.zeros(u.shape)
    for a in range(dim):
        add_edge_means(g[a] * g[a], a, q)
    e = p.grid.h**dim * np.sum(weigh(p.model.f(q) + ramp(u, p.eps) * p.lam))
    coef = weigh(p.model.df(q) * 2.0)
    grad = np.zeros(u.shape)
    for a in range(dim):
        grad += back[a](spread[a](coef) * g[a])
    grad += weigh(ramp(u, p.eps, order=1) * p.lam)
    grad[face_mask(p.grid.node_shape)] = 0.0
    s = np.zeros(u.shape)
    for a in range(dim):
        add_edge_means(g[a] * dv[a] * 2.0, a, s)
    s *= weigh(p.model.d2f(q))
    hv = None
    for a in range(dim):
        t = spread[a](coef) * dv[a]
        if curved:
            t += spread[a](s) * g[a] * 2.0
        hv = back[a](t) if hv is None else hv + back[a](t)
    hv += weigh(ramp(u, p.eps, order=2) * p.lam) * v
    hv[face_mask(p.grid.node_shape)] = 0.0
    return float(e), grad, hv


class TestFrozenKernel:
    """The kernel streams D u and D v one axis at a time; every energy,
    gradient and Hessian product keeps the bytes of the formulas that keep
    them all."""

    @pytest.mark.parametrize("dim,n", [(2, 14), (3, 7)])
    @pytest.mark.parametrize("kind", ["linear", "arctan"])
    def test_bytes_equal_frozen_formulas(self, dim, n, kind):
        model = DensityModel(kind="linear") if kind == "linear" else DensityModel(kind="arctan", alpha=0.15)
        p = halfplane_problem(dim, n, model=model)
        rng = np.random.default_rng(11 + dim)
        u = p.eps * rng.standard_normal(p.grid.node_shape)
        v = rng.standard_normal(p.grid.node_shape)
        v[face_mask(p.grid.node_shape)] = 0.0
        e, grad, hv = frozen_kernel(p, u, v)
        uf, vf = ScalarField(p.grid, u), ScalarField(p.grid, v)
        assert energy(p, uf) == e
        assert energy_gradient(p, uf).values.tobytes() == grad.tobytes()
        assert hessian_product(p, uf, vf).values.tobytes() == hv.tobytes()


class TestMinimize:
    def test_critical_start_stops_immediately(self):
        p = halfplane_problem(2, 8)
        u0 = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        u, rep = minimize(p, u0, tol=1e-12, max_iter=50)
        assert rep.converged
        assert rep.stop_reason == "gradient_tol"
        assert rep.iterations == 0
        assert np.array_equal(u.values, u0.values)

    def test_zero_budget(self):
        p = halfplane_problem(2, 8)
        u0 = ScalarField(p.grid, np.zeros(p.grid.node_shape))
        u, rep = minimize(p, u0, tol=1e-12, max_iter=0)
        assert not rep.converged
        assert rep.stop_reason == "budget"
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
        p = halfplane_problem(2, 16, model=DensityModel(kind="arctan", alpha=0.1))
        rng = np.random.default_rng(9)
        vals = initial_guess(p).values + 0.05 * rng.standard_normal(
            p.grid.node_shape
        )
        u0 = ScalarField(p.grid, vals)
        u, _ = minimize(p, u0, tol=0.0, max_iter=40)
        faces = face_mask(p.grid.node_shape)
        assert u.values[faces].tobytes() == u0.values[faces].tobytes()
        assert np.any(u.values[~faces] != u0.values[~faces])

    def test_joint_scaling_reproduces_iterates(self):
        grid = box_grid(2, 16)
        e = (1.0, 0.0)
        rng = np.random.default_rng(21)
        base = BoundaryData("halfplane", direction=e).profile(grid)
        noise = 0.1 * rng.standard_normal(grid.node_shape)
        noise[face_mask(grid.node_shape)] = 0.0
        u0_vals = base + noise
        outs = []
        reports = []
        for s in (1.0, 4.0):
            model = DensityModel(kind="arctan", alpha=0.1, scale=s)
            p = Problem(grid, model, BoundaryData("halfplane", direction=e))
            u, rep = minimize(p, ScalarField(grid, u0_vals), tol=0.0, max_iter=25)
            outs.append(u)
            reports.append(rep)
        # the Newton step is scale free; the preconditioner scales with f'(0)
        assert np.array_equal(outs[0].values, outs[1].values)
        assert reports[1].step_history == reports[0].step_history
        assert reports[1].energy_history == [4.0 * e for e in reports[0].energy_history]

    def test_nonfinite_entries_raise_solver_error(self):
        p = halfplane_problem(2, 8, model=DensityModel(kind="arctan", alpha=0.1))
        for bad in (np.nan, np.inf):
            vals = initial_guess(p).values.copy()
            vals[4, 4] = bad
            with pytest.raises(SolverError, match="not finite"):
                minimize(p, ScalarField(p.grid, vals), tol=1e-8, max_iter=10)

    @pytest.mark.parametrize("dim,n,model", [(2, 32, DensityModel(kind="arctan", alpha=0.1)), (3, 12, DensityModel(kind="linear"))])
    def test_newton_reaches_gradient_tol(self, dim, n, model):
        p = halfplane_problem(dim, n, model=model)
        u, rep = minimize(p, noisy_start(p), tol=1e-3, max_iter=50)
        assert rep.stop_reason == "gradient_tol" and rep.converged
        assert rep.iterations <= 20
        assert rep.cg_iterations >= rep.iterations
        assert len(rep.cg_history) == len(rep.step_history) == rep.iterations
        assert sum(rep.cg_history) == rep.cg_iterations
        assert min(rep.cg_history) >= 1
        assert len(rep.energy_history) == rep.iterations + 1
        assert np.all(np.diff(rep.energy_history) <= 0.0)
        assert rep.gradient_norm == float(np.max(np.abs(energy_gradient(p, u).values)))
        assert rep.gradient_norm <= 1e-3

    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 24)])
    def test_curvature_preconditioner_needs_few_cg_iterations(self, dim, n):
        # the ramp curvature of an axis-aligned half-plane is nearly a
        # function of one coordinate, which the preconditioner's additive
        # part carries.  From the sharp data (x . e)^+ not every grid keeps
        # this bound: where the refit operator's separable part is
        # indefinite, the shift lifts many modes (linear density: one step
        # of 3 at 32^2 and 40^3, up to 7 at 128^2 and up to 28 at 256^2).
        # From initial_guess's ramped profile every step of the box [-1, 1]
        # half-planes at 96^2-256^2 and 48^3-80^3 took 1 or 2.
        p = halfplane_problem(dim, n)
        _, rep = minimize(p, initial_guess(p), tol=1e-3, max_iter=50)
        assert rep.stop_reason == "gradient_tol"
        assert max(rep.cg_history[1:]) <= 2

    @pytest.mark.parametrize(
        "dim,data",
        [
            (2, BoundaryData("halfplane", direction=(1.0, 1.0))),
            (3, BoundaryData("halfplane", direction=(1.0, 1.0, 1.0))),
            (2, BoundaryData("radial", center=(0.1, 0.0))),
            (2, BoundaryData("wedge", angle=2.0)),
        ],
        ids=["diagonal2d", "diagonal3d", "radial2d", "wedge2d"],
    )
    def test_off_axis_curvature_still_reaches_gradient_tol(self, dim, data):
        # there the ramp curvature is far from additive, and the
        # preconditioner carries only its plane means
        p = Problem(box_grid(dim, 64 if dim == 2 else 16), DensityModel(kind="arctan", alpha=0.1), data)
        _, rep = minimize(p, initial_guess(p), tol=1e-3, max_iter=50)
        assert rep.stop_reason == "gradient_tol"
        assert np.all(np.diff(rep.energy_history) <= 0.0)


def frozen_ramp_classes(u, eps):
    """The refit trigger's sign classes of H_eps''(u) as first written, int8:
    0 where it is zero (u <= 0 or u >= eps), 1 where it is positive
    (0 < u < eps / 2), 2 where it is at most zero (eps / 2 <= u < eps)."""
    out = np.greater(u, 0.0).astype(np.int8)
    out += np.greater_equal(u, 0.5 * eps)
    out *= np.less(u, eps)
    return out


def mask_faces(x):
    """The face zeroing as first written, on a boolean face mask; yields no plane."""
    x[face_mask(x.shape)] = 0.0
    return iter(())


class TestRefit:
    def test_settled_pattern_keeps_the_fit(self, monkeypatch):
        # an axis half-plane on the arctan2d benchmark's box: after the first
        # step moves the start's exact zeros, the ramp's support settles
        # and the preconditioner keeps its fit; the first refit's tangential
        # axis is flat and takes closed-form modes
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        grid = Grid((-0.5, -0.5), (0.5, 0.5), (128, 128))
        data = BoundaryData("halfplane", direction=(0.0, 1.0))
        p = Problem(grid, DensityModel(kind="arctan", alpha=0.1), data)
        _, rep = minimize(p, initial_guess(p), tol=1e-3)
        assert rep.stop_reason == "gradient_tol"
        assert rep.refit_steps[0] == 0
        assert len(rep.refit_steps) < rep.iterations
        assert max(rep.cg_history) <= 2
        assert len(calls) <= 3

    def test_moving_pattern_refits_every_step(self, monkeypatch):
        # on a diagonal half-plane the pattern moves at every step, so the
        # run is the one that refits at every step, bit for bit
        p = Problem(box_grid(2, 128), DensityModel(kind="arctan", alpha=0.1),
                    BoundaryData("halfplane", direction=(1.0, 1.0)))
        u, rep = minimize(p, initial_guess(p), tol=1e-3)
        assert rep.refit_steps == list(range(rep.iterations))
        assert rep.iterations > 2
        flips = [0]

        def moving(u, eps):
            # a support that differs from the last refit's at every step
            flips[0] += 1
            return np.full(u.shape, flips[0] % 2 == 1)

        monkeypatch.setattr(minimizer_module, "_ramp_support", moving)
        u_ref, ref = minimize(p, initial_guess(p), tol=1e-3)
        assert ref.refit_steps == rep.refit_steps
        assert u.values.tobytes() == u_ref.values.tobytes()
        assert np.array(rep.energy_history).tobytes() == np.array(ref.energy_history).tobytes()
        assert rep.cg_history == ref.cg_history

    @pytest.mark.parametrize("data,model,lam,n", [
        (BoundaryData("halfplane", direction=(0.0, 1.0)), DensityModel(kind="arctan", alpha=0.1), None, 128),
        (BoundaryData("halfplane", direction=(1.0, 1.0)), DensityModel(kind="arctan", alpha=0.1), None, 128),
        (BoundaryData("wedge", angle=2.0), DensityModel(kind="arctan", alpha=0.1), None, 64),
        (BoundaryData("halfplane", direction=(0.0, 1.0)), DensityModel(kind="linear"), 2.0, 64),
    ], ids=["axis", "diagonal", "wedge", "lam2"])
    def test_support_trigger_and_face_planes_keep_the_bytes(self, monkeypatch, data, model, lam, n):
        # the three sign classes never decide a refit that the support alone
        # misses, and zeroing the face planes is zeroing the face mask
        p = Problem(box_grid(2, n), model, data, lam=lam)
        u0 = initial_guess(p)
        u, rep = minimize(p, u0, tol=1e-3)
        monkeypatch.setattr(minimizer_module, "_ramp_support", frozen_ramp_classes)
        monkeypatch.setattr(minimizer_module, "face_planes", mask_faces)
        u_ref, ref = minimize(p, u0, tol=1e-3)
        assert u.values.tobytes() == u_ref.values.tobytes()
        assert np.array(rep.energy_history).tobytes() == np.array(ref.energy_history).tobytes()
        assert rep.cg_history == ref.cg_history
        assert rep.refit_steps == ref.refit_steps


class TestStopping:
    def test_restart_from_stalled_field_stops_quickly(self):
        # 1e-12 lies below what round-off lets the gradient reach here
        p = halfplane_problem(2, 24, model=DensityModel(kind="arctan", alpha=0.1))
        u1, rep1 = minimize(p, noisy_start(p), tol=1e-12, max_iter=10_000)
        assert rep1.stop_reason == "stalled"
        u2, rep2 = minimize(p, u1, tol=1e-12, max_iter=10_000)
        assert rep2.stop_reason == "stalled"
        assert rep2.iterations <= 100
        assert np.all(np.diff(rep2.energy_history) <= 0.0)

    @pytest.mark.parametrize("max_iter,reason", [(10_000, "stalled"), (5, "budget")])
    def test_gradient_norm_is_at_returned_iterate(self, max_iter, reason):
        p = halfplane_problem(2, 16, model=DensityModel(kind="arctan", alpha=0.1))
        u, rep = minimize(p, noisy_start(p), tol=1e-8, max_iter=max_iter)
        assert rep.stop_reason == reason
        assert rep.gradient_norm == float(np.max(np.abs(energy_gradient(p, u).values)))

    def test_bundled_2d_geometry_reaches_the_default_tol(self):
        # a step that lowers E by more than a few ulps is taken: at tol 1e-6
        # the bundled 2D problem ends at |G| 7.8e-7, where stopping on the
        # Armijo test's one-ulp required decrease stalled at 1.9e-5
        data = json.loads(SCENARIO_2D.read_text())
        data["tol"] = 1e-6
        _, report = stage_minimize(Scenario.from_dict(data))
        assert report["gradient_norm"] <= 2e-6

    def test_lipschitz_is_final_gradient_modulus(self):
        # minimize.json's lipschitz is the returned field's largest |grad u|,
        # the value the field caches for the later stages
        s = Scenario.from_dict({
            "schema_version": 1,
            "grid": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "n_cells": [16, 16]},
            "density": {"kind": "arctan", "alpha": 0.1},
            "boundary": {"kind": "halfplane", "direction": [1.0, 0.0]},
            "radii": {"r_min": 0.1, "r_max": 0.3, "ratio": 1.4},
            "tol": 1e-8,
            "max_iter": 15,
        })
        u, report = stage_minimize(s)
        mod = np.sqrt(sum(g * g for g in gradient_arrays(u.values, s.grid.h)))
        assert report["lipschitz"] == float(np.max(mod)) == u.lipschitz


def traced_minimize_peak(p, u0, max_iter=3):
    """tracemalloc peak of one minimize call, its report, and the bytes of the
    preconditioner's per-axis eigenvector matrices (in 2D one (n - 1)^2
    matrix is about as big as the grid)."""
    modes = sum((m - 2) ** 2 for m in p.grid.node_shape) * u0.values.itemsize
    tracemalloc.start()
    try:
        _, rep = minimize(p, u0, tol=1e-8, max_iter=max_iter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, rep, modes


class TestBuffers:
    # The arrays of the grid's size that minimize holds, in any dimension:
    # the iterate u, its q (the Hessian's coefficients during the inner
    # solve, then each trial's q), the gradient, the Newton direction, the
    # three CG vectors, lam w H'' and two spares (the trial iterate, and the
    # Hessian product's and preconditioner's work) make 10 for the linear
    # density; a curved one adds w f'' and two more Hessian product work
    # arrays, 13 in all.  No edge quotient is kept for every axis.  One more
    # array for the preconditioner's interior-sized eigenvalue sums, one
    # array's worth for numpy's fixed-size ufunc buffers, boolean masks and
    # face planes, and the preconditioner's per-axis eigenvector matrices.
    # An energy, gradient, Hessian product, preconditioner update or solve
    # that allocated a grid-sized array would exceed it.
    SIZES = [(2, 256), (3, 40)]

    @pytest.mark.parametrize("dim,n", SIZES)
    def test_minimize_holds_one_fixed_buffer_set(self, dim, n):
        p = halfplane_problem(dim, n, model=DensityModel(kind="arctan", alpha=0.1))
        u0 = noisy_start(p)
        peak, rep, modes = traced_minimize_peak(p, u0)
        assert rep.iterations == 3
        assert rep.cg_iterations > 3
        assert peak < (13 + 1 + 1) * u0.values.nbytes + modes

    def test_linear_density_needs_fewer_buffers(self):
        # no w f'' and a Hessian product with two work arrays
        for dim, n in self.SIZES:
            p = halfplane_problem(dim, n, model=DensityModel(kind="linear"))
            u0 = noisy_start(p)
            peak, rep, modes = traced_minimize_peak(p, u0)
            assert rep.iterations == 3
            assert peak < (10 + 1 + 1) * u0.values.nbytes + modes, (dim, n)

    @pytest.mark.parametrize("dim,n,density,budget", [
        (3, 40, {"kind": "linear"}, 10),
        (2, 256, {"kind": "arctan", "alpha": 0.1}, 13),
    ], ids=["linear-3d", "arctan-2d"])
    def test_stage_minimize_drops_the_initial_guess(self, dim, n, density, budget):
        # the stage builds the initial guess and hands it over; minimize
        # copies it first and the stage keeps no name for it, so it is gone
        # before the buffers are allocated and the stage fits minimize's budget
        s = Scenario.from_dict({
            "schema_version": 1,
            "grid": {"lo": [-1.0] * dim, "hi": [1.0] * dim, "n_cells": [n] * dim},
            "density": density,
            "boundary": {"kind": "halfplane", "direction": [1.0] + [0.0] * (dim - 1)},
            "points_of_interest": "auto",
            "radii": {"r_min": 0.1, "r_max": 0.3, "ratio": 1.4},
            "tol": 1e-8,
            "max_iter": 3,
        })
        node_bytes = 8 * s.grid.n_nodes
        modes = sum((m - 2) ** 2 for m in s.grid.node_shape) * 8
        tracemalloc.start()
        try:
            _, report = stage_minimize(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["iterations"] == 3
        assert peak < (budget + 1 + 1) * node_bytes + modes


class TestInitialGuess:
    def test_profile_matches_generator(self):
        # the generator is the start for every kind but halfplane, and for
        # halfplane data at any lam other than psi(1)
        g = box_grid(2, 12)
        cases = [
            (BoundaryData("radial", center=(0.25, 0.0)), None),
            (BoundaryData("wedge", angle=2.0), None),
            (BoundaryData("halfplane", direction=(1.0, 0.0)), 2.0),
        ]
        for data, lam in cases:
            p = Problem(g, DensityModel(kind="arctan", alpha=0.1), data, lam=lam)
            assert np.array_equal(initial_guess(p).values, data.profile(g)), data.kind

    @pytest.mark.parametrize("dim,n,direction,model", [
        (2, 96, (1.0, 0.0), DensityModel(kind="linear")),
        (2, 48, (1.0, 1.0), DensityModel(kind="arctan", alpha=0.1)),
        (3, 40, (1.0, 1.0, 1.0), DensityModel(kind="arctan", alpha=1.0)),
    ])
    def test_start_keeps_the_data_where_it_is_affine(self, dim, n, direction, model):
        data = BoundaryData("halfplane", direction=direction)
        p = Problem(box_grid(dim, n), model, data)
        u = initial_guess(p).values
        sharp = data.profile(p.grid)
        keep = face_mask(p.grid.node_shape) | (data.plane(p.grid) >= p.eps)
        assert np.array_equal(u[keep], sharp[keep])
        # below eps the ramped tail lies above the data; far below the free
        # boundary the zero phase stays exactly zero
        tail = ~keep & (sharp > 0.0)
        assert np.any(tail) and np.all(u[tail] > sharp[tail])
        far = data.plane(p.grid) < -15.0 * p.eps
        assert np.any(far) and np.all(u[far] == 0.0)

    def test_node_at_eps_up_to_rounding_starts_at_eps(self):
        # on 48^2 cells of [-1, 1]^2 the nodes at x = 2h lie an ulp below
        # eps = 2h, where H_eps'' = -6 / eps^2; the minimizer lifts them above eps
        p = halfplane_problem(2, 48)
        plane = p.boundary.plane(p.grid)
        edge = (plane < p.eps) & (plane >= (1.0 - 1e-9) * p.eps) & ~face_mask(p.grid.node_shape)
        assert np.any(edge)
        assert np.all(initial_guess(p).values[edge] == p.eps)

    @pytest.mark.parametrize("eps", [1.0 / 32.0, 1.0 / 12.0, 0.3])
    def test_linear_tail_is_closed_form(self, eps):
        # u'^2 = H_eps(u) integrates to 1.5 eps / cosh^2(artanh(1/sqrt 3)
        # + sqrt(3)/2 (1 - xi / eps)), whose value at xi = 0 is s* eps
        xi = np.linspace(-10.0 * eps, eps, 2001)[:-1]
        v = math.atanh(1.0 / math.sqrt(3.0)) + 0.5 * math.sqrt(3.0) * (1.0 - xi / eps)
        exact = 1.5 * eps / np.cosh(v) ** 2
        tail = ramp_profile(xi, DensityModel(kind="linear"), eps)
        assert np.max(np.abs(tail / exact - 1.0)) <= 1e-6
        edge = ramp_profile(np.array([0.0]), DensityModel(kind="linear"), eps)[0]
        assert edge == pytest.approx(ramp_free_boundary(eps), rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_curved_tail_solves_its_first_integral(self, alpha):
        # an independent solution of psi(P'^2) = psi(1) H_eps(P): bisect psi
        # for t = P'^2 at levels s = P / eps, then xi(s) = eps - eps
        # int_s^1 ds' / sqrt(t) by a fine trapezoid rule
        model, eps = DensityModel(kind="arctan", alpha=alpha), 0.1
        s = np.linspace(0.05, 1.0, 20001)
        target = bernoulli_lambda(model) * s * s * (3.0 - 2.0 * s)
        lo, hi = np.zeros_like(s), np.ones_like(s)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            low = model.psi(mid) < target
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        g = 1.0 / np.sqrt(0.5 * (lo + hi))
        rest = np.concatenate((np.cumsum((0.5 * (g[1:] + g[:-1]) * np.diff(s))[::-1])[::-1], [0.0]))
        xi = eps - eps * rest
        assert np.max(np.abs(ramp_profile(xi, model, eps) / (eps * s) - 1.0)) <= 1e-3

    @pytest.mark.parametrize("dim,n,direction,model", [
        (2, 64, (0.0, 1.0), DensityModel(kind="arctan", alpha=0.1)),
        (3, 24, (0.0, 0.0, 1.0), DensityModel(kind="linear")),
        (2, 64, (1.0, 1.0), DensityModel(kind="arctan", alpha=0.1)),
        (3, 16, (1.0, 1.0, 1.0), DensityModel(kind="arctan", alpha=0.1)),
        (2, 64, (0.0, 1.0), DensityModel(kind="arctan", alpha=1.0)),
        (2, 64, (0.0, 1.0), DensityModel(kind="arctan", alpha=0.1, scale=4.0)),
    ], ids=["arctan2d", "linear3d", "diagonal2d", "diagonal3d", "alpha1", "scale4"])
    def test_first_newton_step_is_taken_in_full(self, dim, n, direction, model):
        data = BoundaryData("halfplane", direction=direction)
        p = Problem(box_grid(dim, n), model, data)
        _, rep = minimize(p, initial_guess(p), tol=1e-3, max_iter=50)
        _, sharp = minimize(p, ScalarField(p.grid, data.profile(p.grid)), tol=1e-3, max_iter=50)
        assert rep.stop_reason == sharp.stop_reason == "gradient_tol"
        assert rep.step_history[0] == 1.0
        assert rep.iterations <= sharp.iterations
        assert rep.final_energy == pytest.approx(sharp.final_energy, rel=1e-10)
