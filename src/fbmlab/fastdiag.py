"""Fast diagonalization of separable weighted Laplacians on a box.

An operator that acts along axis a by a matrix K_a and along the other axes
by diagonal weights is a Kronecker sum, so one symmetric eigendecomposition
per axis length diagonalizes it exactly (Lynch, Rice & Thomas, Numer.
Math. 6, 1964): a solve is a forward transform per axis, a division by the
summed eigenvalues, and an inverse transform per axis.  Two variants share
that structure:

  neumann_solve    sum_a D_a^T diag(w) D_a on the whole box, with D the
                   second order nodal derivative and w the trapezoid
                   weights; singular with the constant null vector.  It is
                   the ghost stage's weak Neumann system.
  DirichletSolver  sum_a E_a^T diag(w) E_a on the interior nodes, with E_a
                   the edge differences along axis a and the boundary
                   values pinned to zero.  There the other axes' weights are
                   all 1 and K_a is the tridiagonal (-1, 2, -1) / h^2, the
                   Hessian of the minimizer's bulk term for the linear
                   density; it preconditions the minimizer's Newton systems.

The per-axis eigenpairs are cached by axis length and read-only.  The
Dirichlet variant applies its transforms with matmul on reshaped views of
buffers the caller lends it, so a solve allocates no array of the grid's
size.  The Neumann variant keeps the tensordot order it was written with: a
batched matmul rounds differently, and the ghost potentials are kept byte
for byte.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .fields import gradient_arrays, gradient_transpose, trapezoid_weights

__all__ = ["neumann_modes", "dirichlet_modes", "neumann_solve", "DirichletSolver"]


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


@lru_cache(maxsize=16)
def neumann_modes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of S = w^{-1/2} D^T diag(w) D w^{-1/2} on m nodes at h = 1.

    Returns (forward, inverse, eigenvalues) with forward = Q^T w^{-1/2} and
    inverse = w^{-1/2} Q.  Eigenvalues ascend, so index 0 is the constant
    mode w^{1/2}, the only null vector of the wide stencil.  At spacing h the
    eigenvalues scale by 1/h^2.  Results are read-only; they are shared by
    every solve on a grid with this axis length.
    """
    w = trapezoid_weights((m,))
    d = gradient_arrays(np.eye(m), 1.0)[0]
    k = gradient_transpose(w[:, None] * d, 0, 1.0)
    scale = 1.0 / np.sqrt(w)
    s = scale[:, None] * k * scale[None, :]
    lam, q = np.linalg.eigh(0.5 * (s + s.T))
    forward = q.T * scale[None, :]
    inverse = scale[:, None] * q
    _freeze(forward, inverse, lam)
    return forward, inverse, lam


@lru_cache(maxsize=16)
def dirichlet_modes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the edge-difference Laplacian on the m - 2 interior of m nodes, h = 1.

    The matrix is tridiagonal (-1, 2, -1): the interior block of E^T E with
    both end values pinned to zero.  Its eigenvectors are the discrete sines
    Q[j, k] = sqrt(2 / (m - 1)) sin(pi (j + 1) (k + 1) / (m - 1)) with
    eigenvalues 2 - 2 cos(pi (k + 1) / (m - 1)), so no eigensolver runs.
    Returns (forward, inverse, eigenvalues) with forward = Q^T, a view, and
    inverse = Q; at spacing h the eigenvalues scale by 1/h^2.  Results are
    read-only and shared.
    """
    k = np.arange(1, m - 1)
    angle = np.pi / (m - 1)
    q = np.sqrt(2.0 / (m - 1)) * np.sin(angle * np.outer(k, k))
    lam = 2.0 - 2.0 * np.cos(angle * k)
    _freeze(q, lam)
    return q.T, q, lam


def _apply_along(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)


def neumann_solve(b: np.ndarray, h: float) -> np.ndarray:
    """Minimum-norm solve of the weak Neumann system for a load b.

    phi = W^{-1/2} (x Q_a) (sum Lambda_a)^+ (x Q_a)^T W^{-1/2} b / h^dim,
    with Lambda_a the spacing-h eigenvalues (the h = 1 ones over h^2),
    applied one axis at a time; the constant mode's coefficient is zeroed.
    """
    modes = [neumann_modes(m) for m in b.shape]
    c = b
    for a, (forward, _, _) in enumerate(modes):
        c = _apply_along(forward, c, a)
    denom = reduce(np.add.outer, [lam for _, _, lam in modes])
    origin = (0,) * b.ndim
    denom[origin] = 1.0
    c = c / denom
    c[origin] = 0.0
    for a, (_, inverse, _) in enumerate(modes):
        c = _apply_along(inverse, c, a)
    return c * h ** (2 - b.ndim)


def _matmul_along(mat: np.ndarray, x: np.ndarray, axis: int, out: np.ndarray) -> None:
    """out = mat applied along one axis of x; x and out are C-contiguous, same shape.

    The axis is the middle one of a (before, m, after) view: matmul takes
    the leading axis as a batch, and the last axis is one product with the
    transposed matrix.
    """
    m = x.shape[axis]
    if axis == x.ndim - 1:
        np.matmul(x.reshape(-1, m), mat.T, out=out.reshape(-1, m))
    else:
        before = int(np.prod(x.shape[:axis], dtype=np.int64))
        np.matmul(mat, x.reshape(before, m, -1), out=out.reshape(before, m, -1))


class DirichletSolver:
    """Solves c sum_a E_a^T diag(w) E_a x / h^2 = r on the interior nodes of a box.

    The interior block is separable: along axis a it is the tridiagonal
    (-1, 2, -1) / h^2, and the other axes' interior weights are 1.  solve(r, out,
    work) reads r's interior and writes x into out, zero on the boundary.
    work is two arrays of at least the interior's size (any shape, e.g. two
    idle grid-sized buffers) that the call overwrites; the solver itself
    holds only the reciprocal eigenvalue sums, one interior-sized array.
    """

    def __init__(self, shape: tuple[int, ...], h: float, c: float) -> None:
        self.inner = tuple(m - 2 for m in shape)
        self.size = int(np.prod(self.inner, dtype=np.int64))
        self.modes = [dirichlet_modes(m) for m in shape]
        inv_denom = reduce(np.add.outer, [lam for _, _, lam in self.modes])
        inv_denom *= c / (h * h)
        self.inv_denom = np.reciprocal(inv_denom, out=inv_denom)
        self.interior = (slice(1, -1),) * len(shape)

    def solve(self, r: np.ndarray, out: np.ndarray, work: list[np.ndarray]) -> np.ndarray:
        a, b = (buf.reshape(-1)[: self.size].reshape(self.inner) for buf in work)
        np.copyto(a, r[self.interior])
        for axis, (forward, _, _) in enumerate(self.modes):
            _matmul_along(forward, a, axis, out=b)
            a, b = b, a
        a *= self.inv_denom
        for axis, (_, inverse, _) in enumerate(self.modes):
            _matmul_along(inverse, a, axis, out=b)
            a, b = b, a
        out.fill(0.0)
        out[self.interior] = a
        return out
