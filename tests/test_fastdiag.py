"""Fast diagonalization: the Neumann variant against the dense edge Laplacian
and a checkerboard load, the Dirichlet variant against its sine-mode
original, dense solves and the minimizer's Hessian."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmlab.density import DensityModel
from fbmlab import fastdiag
from fbmlab.fastdiag import DirichletSolver, neumann_solve
from fbmlab.fields import Grid, ScalarField, trapezoid_weights
from fbmlab.minimizer import BoundaryData, Problem, hessian_product


def frozen_dirichlet_solve(r, h, c):
    """The sigma = 0 Dirichlet solve as first written, on the closed-form sine modes."""
    modes = []
    for m in r.shape:
        k = np.arange(1, m - 1)
        angle = np.pi / (m - 1)
        q = np.sqrt(2.0 / (m - 1)) * np.sin(angle * np.outer(k, k))
        modes.append((q, 2.0 - 2.0 * np.cos(angle * k)))
    interior = (slice(1, -1),) * r.ndim
    x = r[interior]
    for a, (q, _) in enumerate(modes):
        x = np.moveaxis(np.tensordot(q.T, x, axes=(1, a)), 0, a)
    x = x / (reduce(np.add.outer, [lam for _, lam in modes]) * c / h**2)
    for a, (q, _) in enumerate(modes):
        x = np.moveaxis(np.tensordot(q, x, axes=(1, a)), 0, a)
    out = np.zeros(r.shape)
    out[interior] = x
    return out


def dense_preconditioner(shape, h, c, curv):
    """The operator update(curv) should build, assembled densely on the interior.

    sigma_a are the plane means of curv's interior minus mu (dim - 1) / dim;
    the shift lifts the smallest eigenvalue to that of the sigma = 0 operator.
    """
    inner = [m - 2 for m in shape]
    dim = len(shape)
    core = curv[(slice(1, -1),) * dim]
    mu = core.mean()
    stiff = c / h**2
    axis_ops, low = [], 0.0
    for a, n in enumerate(inner):
        sigma = core.mean(axis=tuple(b for b in range(dim) if b != a)) - mu * (dim - 1) / dim
        t = stiff * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) + np.diag(sigma)
        axis_ops.append(t)
        low += np.linalg.eigvalsh(t)[0]
    floor = sum(stiff * (2.0 - 2.0 * np.cos(np.pi / (m - 1))) for m in shape)
    size = int(np.prod(inner))
    mat = max(0.0, floor - low) * np.eye(size)
    for a, t in enumerate(axis_ops):
        factors = [np.eye(n) for n in inner]
        factors[a] = t
        mat += reduce(np.kron, factors)
    return mat, floor


def solver_inverse(solver, shape):
    """P^{-1} on the interior nodes as a dense matrix, one unit load at a time."""
    interior = (slice(1, -1),) * len(shape)
    inner = tuple(m - 2 for m in shape)
    cols = []
    work = [np.empty(shape), np.empty(shape)]
    for i in range(int(np.prod(inner))):
        r = np.zeros(shape)
        r[tuple(j + 1 for j in np.unravel_index(i, inner))] = 1.0
        cols.append(solver.solve(r, np.empty(shape), work)[interior].reshape(-1))
    return np.array(cols).T


def dense_edge_laplacian(shape, h, c):
    """c sum_a E_a^T diag(w) E_a / h^2 as a dense matrix, edge by edge.

    Each edge along axis a joins two nodes; its weight is the product of
    the trapezoid weights of the other axes at the edge.
    """
    n = int(np.prod(shape))
    mat = np.zeros((n, n))
    weights = [trapezoid_weights((m,)) for m in shape]
    for node in itertools.product(*(range(m) for m in shape)):
        for a in range(len(shape)):
            if node[a] + 1 >= shape[a]:
                continue
            other = node[:a] + (node[a] + 1,) + node[a + 1 :]
            w = np.prod([weights[b][node[b]] for b in range(len(shape)) if b != a])
            i, j = np.ravel_multi_index(node, shape), np.ravel_multi_index(other, shape)
            mat[i, i] += w
            mat[j, j] += w
            mat[i, j] -= w
            mat[j, i] -= w
    return c * mat / h**2


class TestNeumann:
    @pytest.mark.parametrize("shape", [(9, 7), (5, 6, 8), (3, 3), (4, 3, 5)])
    def test_matches_dense_pseudo_inverse(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        b = rng.standard_normal(shape)
        b -= b.mean()
        h = 0.05
        mat = dense_edge_laplacian(shape, h, 1.0)
        want = (np.linalg.pinv(mat) @ b.reshape(-1)).reshape(shape)
        got = neumann_solve(b, h)
        # the solve drops the constant mode in the trapezoid-weighted sense,
        # the pseudo-inverse in the plain one
        assert abs(np.sum(trapezoid_weights(shape) * got)) <= 1e-12 * np.max(np.abs(want))
        gap = np.max(np.abs(got - got.mean() - want))
        assert gap <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(65, 65), (41, 41, 41), (9, 7)])
    def test_checkerboard_is_not_amplified(self, shape):
        # W (-1)^(sum i) is the highest cosine mode of every axis, with
        # eigenvalue 4 / h^2 each; a centered-difference system, whose
        # odd-even modes are nearly null, returns it 6 to 1200 times too large
        h = 0.05
        checker = (-1.0) ** np.indices(shape).sum(axis=0)
        b = trapezoid_weights(shape) * checker
        want = h * h / (4 * len(shape)) * checker
        got = neumann_solve(b, h)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


    def test_solves_in_the_load_array(self):
        # the result is returned in b itself, and a load it cannot work in is refused
        h = 0.05
        b = np.random.default_rng(5).standard_normal((9, 7))
        b -= b.mean()
        want = neumann_solve(b.copy(), h)
        got = neumann_solve(b, h)
        assert got is b and got.tobytes() == want.tobytes()
        for bad in (np.zeros((9, 14))[:, ::2], np.zeros((9, 7), order="F"), np.zeros((9, 7), int)):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                neumann_solve(bad, h)


    def test_lent_buffer_gives_the_same_bytes(self):
        h = 0.05
        for shape in ((9, 7), (5, 6, 8)):
            b = np.random.default_rng(6).standard_normal(shape)
            b -= b.mean()
            want = neumann_solve(b.copy(), h)
            work = np.full(shape, np.nan)
            assert neumann_solve(b.copy(), h, work).tobytes() == want.tobytes()

    def test_bad_buffer_raises_before_any_write(self):
        h = 0.05
        b = np.random.default_rng(7).standard_normal((9, 7))
        b -= b.mean()
        kept = b.copy()
        read_only = np.zeros((9, 7))
        read_only.setflags(write=False)
        for bad in (
            np.zeros((9, 14))[:, ::2],
            np.zeros((9, 7), order="F"),
            np.zeros((9, 7), np.float32),
            np.zeros((7, 9)),
            read_only,
            b[:],
        ):
            with pytest.raises(ValueError):
                neumann_solve(b, h, bad)
            assert b.tobytes() == kept.tobytes()


class TestCosineModes:
    """The DCT-I modes of the Neumann solve are built once per axis length."""

    @pytest.mark.parametrize("m", [2, 3, 41, 129])
    def test_cached_modes_are_read_only_and_fresh_bytes(self, m):
        cached = fastdiag._cosine_modes(m)
        fresh = fastdiag._cosine_modes.__wrapped__(m)
        assert fastdiag._cosine_modes(m) is cached
        for got, want in zip(cached, fresh):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    def test_second_solve_builds_no_modes(self):
        fastdiag._cosine_modes.cache_clear()
        b = np.random.default_rng(8).standard_normal((9, 7, 9))
        b -= b.mean()
        neumann_solve(b.copy(), 0.05)
        # one build per axis length, 9 and 7; a second solve on the grid builds none
        assert fastdiag._cosine_modes.cache_info().misses == 2
        neumann_solve(b.copy(), 0.05)
        info = fastdiag._cosine_modes.cache_info()
        assert (info.misses, info.hits) == (2, 4)


class TestDirichlet:
    @pytest.mark.parametrize("shape", [(7, 9), (5, 6, 8)])
    def test_matches_dense_interior_solve(self, shape):
        rng = np.random.default_rng(sum(shape))
        h, c = 0.3, 2.5
        mat = dense_edge_laplacian(shape, h, c)
        interior = np.zeros(shape, dtype=bool)
        interior[(slice(1, -1),) * len(shape)] = True
        keep = interior.reshape(-1)
        r = rng.standard_normal(shape)
        want = np.zeros(shape)
        want[interior] = np.linalg.solve(mat[np.ix_(keep, keep)], r[interior])
        out = np.full(shape, np.nan)
        work = [np.empty(shape), np.empty(shape)]
        solver = DirichletSolver(shape, h, c)
        solver.update(np.zeros(shape))
        got = solver.solve(r, out, work)
        assert got is out
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        assert np.all(got[~interior] == 0.0)

    def test_modes_are_read_only_and_orthonormal(self):
        shape = (12, 9)
        solver = DirichletSolver(shape, 0.1, 1.0)
        curv = np.random.default_rng(1).standard_normal(shape) * 300.0
        for state in (np.zeros(shape), curv):
            solver.update(state)
            for q, m in zip(solver.vectors, shape):
                assert q.shape == (m - 2, m - 2)
                assert np.allclose(q.T @ q, np.eye(m - 2), atol=1e-13)
                assert not q.flags.writeable
            assert np.all(solver.inv_denom > 0.0)

    @pytest.mark.parametrize("shape", [(7, 9), (5, 6, 8)])
    @pytest.mark.parametrize("level", [0.0, 700.0])
    def test_flat_axes_take_closed_form_modes(self, shape, level, monkeypatch):
        # level 0 is sigma = 0 on every axis; otherwise curv varies along
        # axis 0 alone, so every other axis has a nonzero constant sigma_a
        # and only axis 0 is diagonalized by eigh
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        rng = np.random.default_rng(len(shape))
        h, c = 0.2, 2.0
        profile = level * (1.0 + rng.random(shape[0]))
        curv = np.broadcast_to(profile.reshape((-1,) + (1,) * (len(shape) - 1)), shape).copy()
        solver = DirichletSolver(shape, h, c)
        solver.update(curv)
        n0 = shape[0] - 2
        assert calls == ([] if level == 0.0 else [(n0, n0)])
        for q in solver.vectors:
            assert np.allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-13)
            assert not q.flags.writeable
        mat, _ = dense_preconditioner(shape, h, c, curv)
        interior = (slice(1, -1),) * len(shape)
        r = rng.standard_normal(shape)
        want = np.linalg.solve(mat, r[interior].reshape(-1))
        got = solver.solve(r, np.empty(shape), [np.empty(shape), np.empty(shape)])
        assert np.linalg.norm(got[interior].reshape(-1) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", [(7, 9), (33, 33), (5, 6, 8), (17, 17, 17)])
    def test_zero_curvature_matches_sine_solve(self, shape):
        # update of a zero diagonal gives sigma = 0, the edge Laplacian: its
        # modes reproduce the sine solve as first written
        rng = np.random.default_rng(len(shape) + shape[0])
        h, c = 0.05, 1.7
        r = rng.standard_normal(shape)
        want = frozen_dirichlet_solve(r, h, c)
        solver = DirichletSolver(shape, h, c)
        solver.update(np.zeros(shape))
        got = solver.solve(r, np.empty(shape), [np.empty(shape), np.empty(shape)])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", [(6, 8), (5, 6, 7)])
    @pytest.mark.parametrize("offset", [0.0, 3000.0])
    def test_update_matches_dense_separable_operator(self, shape, offset):
        # a large positive offset leaves the shift off, so the grand mean's
        # share in each sigma_a shows
        rng = np.random.default_rng(sum(shape))
        h, c = 0.2, 2.0
        curv = offset + 400.0 * rng.standard_normal(shape)
        solver = DirichletSolver(shape, h, c)
        solver.update(curv)
        mat, _ = dense_preconditioner(shape, h, c, curv)
        inv = solver_inverse(solver, shape)
        assert np.allclose(inv @ mat, np.eye(mat.shape[0]), atol=1e-10)

    @given(
        dims=st.sampled_from([(5, 7), (8, 6), (4, 5, 6)]),
        scale=st.floats(0.0, 2000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shifted_operator_is_spd_above_the_edge_laplacian_floor(self, dims, scale, seed):
        # random diagonals, many of them strongly negative where a bound
        # state would make the unshifted operator indefinite
        rng = np.random.default_rng(seed)
        h, c = 0.25, 2.0
        curv = scale * rng.standard_normal(dims) - scale * rng.random()
        solver = DirichletSolver(dims, h, c)
        solver.update(curv)
        _, floor = dense_preconditioner(dims, h, c, curv)
        inv = solver_inverse(solver, dims)
        r = rng.standard_normal(inv.shape[0])
        assert r @ inv @ r > 0.0
        eig = np.linalg.eigvalsh(0.5 * (inv + inv.T))
        assert eig[0] > 0.0
        assert 1.0 / eig[-1] >= floor * (1.0 - 1e-12)

    @pytest.mark.parametrize("dim,n", [(2, 10), (3, 6)])
    def test_inverts_linear_bulk_hessian(self, dim, n):
        # away from the ramp the linear density's Hessian on interior nodes
        # is exactly the preconditioned operator with c = 2 f'(0)
        grid = Grid((-1.0,) * dim, (1.0,) * dim, (n,) * dim)
        model = DensityModel(kind="linear", scale=1.5)
        p = Problem(grid, model, BoundaryData("halfplane", direction=(1.0,) + (0.0,) * (dim - 1)))
        u = ScalarField(grid, 3.0 + grid.node_mesh()[0])
        rng = np.random.default_rng(dim)
        interior = (slice(1, -1),) * dim
        v = np.zeros(grid.node_shape)
        v[interior] = rng.standard_normal(grid.node_shape)[interior]
        hv = hessian_product(p, u, ScalarField(grid, v)).values
        shape = grid.node_shape
        solver = DirichletSolver(shape, grid.h, 2.0 * model.df(0.0))
        solver.update(np.zeros(shape))
        back = solver.solve(hv, np.empty(shape), [np.empty(shape), np.empty(shape)])
        assert np.allclose(back, v, rtol=0.0, atol=1e-12)
