"""Fast diagonalization: the Neumann variant against its frozen original, the
Dirichlet variant against dense solves and against the minimizer's Hessian."""

import itertools
from functools import reduce

import numpy as np
import pytest

from fbmlab.density import linear_density
from fbmlab.fastdiag import DirichletSolver, dirichlet_modes, neumann_solve
from fbmlab.fields import (
    Grid,
    ScalarField,
    gradient_arrays,
    gradient_transpose,
    trapezoid_weights,
)
from fbmlab.minimizer import BoundaryData, Problem, hessian_product


def frozen_neumann_solve(b, h):
    """The ghost stage's fast-diagonalization solve as first written."""

    def axis_modes(m):
        w = trapezoid_weights((m,))
        d = gradient_arrays(np.eye(m), 1.0)[0]
        k = gradient_transpose(w[:, None] * d, 0, 1.0)
        scale = 1.0 / np.sqrt(w)
        s = scale[:, None] * k * scale[None, :]
        lam, q = np.linalg.eigh(0.5 * (s + s.T))
        return q.T * scale[None, :], scale[:, None] * q, lam

    def apply_along(mat, x, axis):
        return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)

    modes = [axis_modes(m) for m in b.shape]
    c = b
    for a, (forward, _, _) in enumerate(modes):
        c = apply_along(forward, c, a)
    denom = reduce(np.add.outer, [lam for _, _, lam in modes])
    origin = (0,) * b.ndim
    denom[origin] = 1.0
    c = c / denom
    c[origin] = 0.0
    for a, (_, inverse, _) in enumerate(modes):
        c = apply_along(inverse, c, a)
    return c * h ** (2 - b.ndim)


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
    @pytest.mark.parametrize("shape", [(9, 7), (5, 6, 8), (41, 41, 41), (65, 65)])
    def test_bytes_equal_frozen_solve(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        b = rng.standard_normal(shape)
        b -= b.mean()
        h = 0.05
        assert neumann_solve(b, h).tobytes() == frozen_neumann_solve(b, h).tobytes()


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
        got = DirichletSolver(shape, h, c).solve(r, out, work)
        assert got is out
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
        assert np.all(got[~interior] == 0.0)

    def test_modes_are_read_only_and_orthonormal(self):
        forward, inverse, lam = dirichlet_modes(12)
        assert np.allclose(forward @ inverse, np.eye(10), atol=1e-13)
        assert np.all(lam > 0.0)
        for arr in (forward, inverse, lam):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("dim,n", [(2, 10), (3, 6)])
    def test_inverts_linear_bulk_hessian(self, dim, n):
        # away from the ramp the linear density's Hessian on interior nodes
        # is exactly the preconditioned operator with c = 2 c0
        grid = Grid((-1.0,) * dim, (1.0,) * dim, (n,) * dim)
        model = linear_density(scale=1.5)
        p = Problem(grid, model, BoundaryData("halfplane", direction=(1.0,) + (0.0,) * (dim - 1)))
        u = ScalarField(grid, 3.0 + grid.node_mesh()[0])
        rng = np.random.default_rng(dim)
        v = rng.standard_normal(grid.node_shape)
        v[p.fixed_mask] = 0.0
        hv = hessian_product(p, u, ScalarField(grid, v)).values
        shape = grid.node_shape
        back = DirichletSolver(shape, grid.h, 2.0 * model.c0).solve(
            hv, np.empty(shape), [np.empty(shape), np.empty(shape)]
        )
        assert np.allclose(back, v, rtol=0.0, atol=1e-12)
