"""Fast diagonalization of separable operators on a box.

An operator that acts along axis a by a matrix K_a and along the other axes
by diagonal weights is a Kronecker sum, so one eigendecomposition per axis
diagonalizes it exactly (Lynch, Rice & Thomas, Numer. Math. 6, 1964): a
solve is a forward transform per axis, a division by the summed
eigenvalues, and an inverse transform per axis.  Two variants, both on the
edge differences E_a, (u[k + e_a] - u[k]) / h:

  neumann_solve    sum_a E_a^T W_a E_a on the whole box, W_a the trapezoid
                   weights of the other axes: the ghost stage's weak Neumann
                   system, singular with the constant null vector.  Its
                   per-axis modes are the DCT-I cosines, in closed form.
  DirichletSolver  c/h^2 sum_a K_a + diag(sum_a sigma_a(x_a)) on the
                   interior nodes, with K_a the tridiagonal (-1, 2, -1), the
                   edge differences' E_a^T E_a with the boundary values
                   pinned to zero.  With sigma = 0 it is the Hessian of the
                   minimizer's bulk term for the linear density; update
                   sets sigma to the additive part of the ramp curvature,
                   the nearest separable operator to the Newton system's
                   (Concus & Golub, SIAM J. Numer. Anal. 10, 1973), and
                   redoes one eigh per axis; an axis whose sigma_a is
                   constant takes its sine modes in closed form.

Both transform with matmul on reshaped views.  The Dirichlet solver owns
its per-axis eigenvectors and works in buffers the caller lends it, so a
solve allocates no array of the grid's size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["neumann_solve", "DirichletSolver"]


def _cosine_modes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward, inverse, eigenvalues) of w^{-1} E^T E on m nodes at h = 1.

    The columns of inverse are the DCT-I cosines cos(pi i k / (m - 1)), with
    eigenvalues 2 - 2 cos(pi k / (m - 1)); mode 0 is the constant.  They are
    w-orthogonal with squared norms (m - 1) / 2, m - 1 for k = 0 and m - 1;
    forward is their transpose over those norms: inverse @ forward = 1 / w.
    """
    k = np.arange(m)
    angle = np.pi / (m - 1)
    inverse = np.cos(angle * np.outer(k, k))
    norms = np.full(m, 0.5 * (m - 1))
    norms[[0, -1]] = m - 1
    return inverse.T / norms[:, None], inverse, 2.0 - 2.0 * np.cos(angle * k)


def _sine_modes(diag: float, off: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the n x n tridiagonal (-off, diag, -off).

    The columns are the sines sqrt(2 / (n + 1)) sin(pi i k / (n + 1)),
    i, k = 1..n, with eigenvalues diag - 2 off cos(pi k / (n + 1)), ascending
    in k.  i k is reduced modulo the period 2 (n + 1) exactly before it is
    scaled, and the matrix is built in place: no other n^2 array is made.
    """
    k = np.arange(1.0, n + 1.0)
    q = np.multiply.outer(k, k)
    np.fmod(q, 2.0 * (n + 1), out=q)
    q *= np.pi / (n + 1)
    np.sin(q, out=q)
    q *= np.sqrt(2.0 / (n + 1))
    return diag - 2.0 * off * np.cos(k * (np.pi / (n + 1))), q


def neumann_solve(b: np.ndarray, h: float) -> np.ndarray:
    """phi with sum_a E_a^T W_a E_a phi = b at spacing h, for a load b that sums to zero.

    The constant mode's coefficient is zeroed: that drops the part
    W sum(b) / sum(W) of b (W the trapezoid weights) and leaves sum(W phi) = 0.
    The operator is 1/h^2 times its h = 1 form, hence the factor h^2.  The
    solve overwrites b (C-contiguous float64) and returns phi in it; one more
    array holds the other transform buffer and the eigenvalue sums.
    """
    if b.dtype != np.float64 or not b.flags.c_contiguous:
        raise ValueError("the load must be a C-contiguous float64 array: the solve works in it")
    dim = b.ndim
    forward, inverse, lams = zip(*(_cosine_modes(m) for m in b.shape))
    c, work = _transform(forward, b, np.empty(b.shape))
    parts = [lam.reshape((-1,) + (1,) * (dim - 1 - axis)) for axis, lam in enumerate(lams)]
    denom = np.add(sum(parts[:-1]), parts[-1], out=work)
    denom.flat[0] = np.inf  # the constant mode, eigenvalue 0, gets coefficient 0
    c /= denom
    phi, _ = _transform(inverse, c, work)
    phi *= h * h
    return phi


def _transform(mats, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply mats[axis] along every axis of a, with b as the second buffer.

    a and b are C-contiguous arrays of one shape, both overwritten; returns
    (the array that holds the result, the other one).  Each axis is the
    middle one of a (before, m, after) view: matmul takes the leading axis
    as a batch, and the last axis is one product with the transposed matrix.
    """
    for axis, mat in enumerate(mats):
        m = a.shape[axis]
        if axis == a.ndim - 1:
            np.matmul(a.reshape(-1, m), mat.T, out=b.reshape(-1, m))
        else:
            before = int(np.prod(a.shape[:axis], dtype=np.int64))
            np.matmul(mat, a.reshape(before, m, -1), out=b.reshape(before, m, -1))
        a, b = b, a
    return a, b


class DirichletSolver:
    """Solves P x = r on the interior nodes of a box for a Kronecker-sum P.

        P = c/h^2 sum_a K_a + diag(sum_a sigma_a(x_a)) + delta,

    with K_a the tridiagonal (-1, 2, -1) along axis a, the interior block of
    E_a^T E_a with the boundary values pinned to zero, and sigma_a a function
    of the axis-a coordinate alone.  update must run before the first solve;
    a later solve uses the last update (the minimizer refits only when the
    ramp's sign pattern moves).  update(curv) sets sigma_a to the additive
    part of a diagonal curv, the ANOVA main effects of its interior values
    (sigma_a = the mean over the other axes - mu (dim - 1) / dim, mu the
    grand mean), and redoes one eigh per axis; an axis whose sigma_a holds
    one value exactly (sigma = 0, or the tangential axis of a field that
    does not vary along it) takes its sine modes in closed form instead,
    with no eigh.  delta = max(0,
    lambda_min(P_0) - sum_a lambda_min(c/h^2 K_a + diag(sigma_a))) keeps the
    smallest eigenvalue at least that of the edge Laplacian P_0 = c/h^2 sum_a
    K_a, which a zero curv gives, so P stays positive definite where a
    negative sigma_a binds a mode.

    solve(r, out, work) reads r's interior and writes x into out, zero on
    the boundary.  work is two arrays of at least the interior's size (any
    shape, e.g. two idle grid-sized buffers) that the call overwrites.  The
    solver holds one interior-sized array, the reciprocal eigenvalue sums,
    and per axis its (m - 2)^2 eigenvector matrix, read-only.  update builds
    each axis matrix it diagonalizes by eigh in the interior-sized array
    when it fits there, and drops the old eigenvectors of an axis before
    making the new ones.
    """

    def __init__(self, shape: tuple[int, ...], h: float, c: float) -> None:
        self.inner = tuple(m - 2 for m in shape)
        self.interior = (slice(1, -1),) * len(shape)
        self.stiffness = c / (h * h)
        self.floor = sum(self.stiffness * (2.0 - 2.0 * np.cos(np.pi / (m - 1))) for m in shape)
        self.inv_denom = np.empty(self.inner)
        self.vectors: list[np.ndarray | None] = [None] * len(shape)

    def update(self, curv: np.ndarray) -> None:
        """Take sigma from curv's interior (a grid-sized diagonal)."""
        dim = len(self.inner)
        core = curv[self.interior]
        mean = float(np.mean(core))
        flat = self.inv_denom.reshape(-1)
        values, low = [], 0.0
        for axis, n in enumerate(self.inner):
            t = (flat[: n * n] if n * n <= flat.size else np.empty(n * n)).reshape(n, n)
            t.fill(0.0)
            band = t.reshape(-1)
            band[1 :: n + 1] = -self.stiffness
            band[n :: n + 1] = -self.stiffness
            diag = band[:: n + 1]
            np.mean(core, axis=tuple(b for b in range(dim) if b != axis), out=diag)
            diag -= mean * (dim - 1) / dim
            diag += 2.0 * self.stiffness
            self.vectors[axis] = None  # release the old matrix before making the new one
            if np.all(diag == diag[0]):
                lam, q = _sine_modes(float(diag[0]), self.stiffness, n)
            else:
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
        size = self.inv_denom.size
        a, b = (buf.reshape(-1)[:size].reshape(self.inner) for buf in work)
        np.copyto(a, r[self.interior])
        a, b = _transform([q.T for q in self.vectors], a, b)
        a *= self.inv_denom
        a, b = _transform(self.vectors, a, b)
        out.fill(0.0)
        out[self.interior] = a
        return out
