"""Fast diagonalization of separable operators on a box.

An operator that acts along axis a by a matrix K_a and along the other axes
by diagonal weights is a Kronecker sum, so one symmetric eigendecomposition
per axis diagonalizes it exactly (Lynch, Rice & Thomas, Numer. Math. 6,
1964): a solve is a forward transform per axis, a division by the summed
eigenvalues, and an inverse transform per axis.  Two variants share that
structure:

  neumann_solve    sum_a D_a^T diag(w) D_a on the whole box, with D the
                   second order nodal derivative and w the trapezoid
                   weights; singular with the constant null vector.  It is
                   the ghost stage's weak Neumann system.
  DirichletSolver  c/h^2 sum_a K_a + diag(sum_a sigma_a(x_a)) on the
                   interior nodes, with K_a the tridiagonal (-1, 2, -1), the
                   edge differences' E_a^T E_a with the boundary values
                   pinned to zero.  With sigma = 0 it is the Hessian of the
                   minimizer's bulk term for the linear density; update
                   sets sigma to the additive part of the ramp curvature,
                   the nearest separable operator to the Newton system's
                   (Concus & Golub, SIAM J. Numer. Anal. 10, 1973), and
                   redoes one eigh per axis.

The Neumann eigenpairs are cached by axis length and read-only.  The
Dirichlet solver owns its per-axis eigenvectors and applies its transforms
with matmul on reshaped views of buffers the caller lends it, so a solve
allocates no array of the grid's size.  The Neumann variant keeps the
tensordot order it was written with: a batched matmul rounds differently,
and the ghost potentials are kept byte for byte.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .fields import gradient_arrays, gradient_transpose, trapezoid_weights

__all__ = ["neumann_modes", "neumann_solve", "DirichletSolver"]


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
    """Solves P x = r on the interior nodes of a box for a Kronecker-sum P.

        P = c/h^2 sum_a K_a + diag(sum_a sigma_a(x_a)) + delta,

    with K_a the tridiagonal (-1, 2, -1) along axis a, the interior block of
    E_a^T E_a with the boundary values pinned to zero, and sigma_a a function
    of the axis-a coordinate alone.  It starts at sigma = 0, delta = 0, the
    edge Laplacian P_0, fit by the first solve unless update ran before it
    (the minimizer refits before every solve).  update(curv) sets sigma_a to
    the additive part of a diagonal curv, the ANOVA main effects of its
    interior values (sigma_a = the mean over the other axes - mu (dim - 1) /
    dim, mu the grand mean), and redoes one eigh per axis.  delta = max(0,
    lambda_min(P_0) - sum_a lambda_min(c/h^2 K_a + diag(sigma_a))) keeps the
    smallest eigenvalue at least lambda_min(P_0), so P stays positive
    definite where a negative sigma_a binds a mode.

    solve(r, out, work) reads r's interior and writes x into out, zero on
    the boundary.  work is two arrays of at least the interior's size (any
    shape, e.g. two idle grid-sized buffers) that the call overwrites.  The
    solver holds one interior-sized array, the reciprocal eigenvalue sums,
    and per axis its (m - 2)^2 eigenvector matrix, read-only.  update builds
    each axis matrix in the interior-sized array when it fits there and
    drops the old eigenvectors of an axis before making the new ones.
    """

    def __init__(self, shape: tuple[int, ...], h: float, c: float) -> None:
        self.inner = tuple(m - 2 for m in shape)
        self.interior = (slice(1, -1),) * len(shape)
        self.stiffness = c / (h * h)
        self.floor = sum(self.stiffness * (2.0 - 2.0 * np.cos(np.pi / (m - 1))) for m in shape)
        self.inv_denom = np.empty(self.inner)
        self.vectors: list[np.ndarray | None] = [None] * len(shape)

    def update(self, curv: np.ndarray | None) -> None:
        """Take sigma from curv's interior (a grid-sized diagonal), or sigma = 0 for None."""
        dim = len(self.inner)
        core = None if curv is None else curv[self.interior]
        mean = 0.0 if core is None else float(np.mean(core))
        flat = self.inv_denom.reshape(-1)
        values, low = [], 0.0
        for axis, n in enumerate(self.inner):
            t = (flat[: n * n] if n * n <= flat.size else np.empty(n * n)).reshape(n, n)
            t.fill(0.0)
            band = t.reshape(-1)
            band[1 :: n + 1] = -self.stiffness
            band[n :: n + 1] = -self.stiffness
            diag = band[:: n + 1]
            if core is not None:
                others = tuple(b for b in range(dim) if b != axis)
                np.mean(core, axis=others, out=diag)
                diag -= mean * (dim - 1) / dim
            diag += 2.0 * self.stiffness
            self.vectors[axis] = None  # release the old matrix before eigh makes the new one
            lam, q = np.linalg.eigh(t)
            q.setflags(write=False)
            self.vectors[axis] = q
            values.append(lam)
            low += float(lam[0])
        denom = self.inv_denom
        denom.fill(max(0.0, self.floor - low))
        for axis, lam in enumerate(values):
            denom += lam.reshape((-1,) + (1,) * (dim - 1 - axis))
        np.reciprocal(denom, out=denom)

    def solve(self, r: np.ndarray, out: np.ndarray, work: list[np.ndarray]) -> np.ndarray:
        if self.vectors[0] is None:
            self.update(None)
        size = self.inv_denom.size
        a, b = (buf.reshape(-1)[:size].reshape(self.inner) for buf in work)
        np.copyto(a, r[self.interior])
        for axis, q in enumerate(self.vectors):
            _matmul_along(q.T, a, axis, out=b)
            a, b = b, a
        a *= self.inv_denom
        for axis, q in enumerate(self.vectors):
            _matmul_along(q, a, axis, out=b)
            a, b = b, a
        out.fill(0.0)
        out[self.interior] = a
        return out
