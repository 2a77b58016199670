"""Uniform Cartesian grids, nodal fields, and the quadrature toolbox.

Conventions used throughout the package:

* grids are boxes [lo, hi] in dimension 2 or 3 with the same spacing h on
  every axis; fields store one float64 per node, row-major;
* gradients are second order: centered differences inside, one-sided
  three-point stencils on the faces (exact on quadratics);
* sphere integrals use equispaced angles in 2d and a Fibonacci spiral with
  equal weights in 3d, with field values taken by multilinear interpolation;
  the unit directions are built once per (dim, n) and shifted and scaled
  per sphere;
* ball integrals are fixed linear functionals of the data on the window of
  cells meeting the ball.  A cell safely inside counts fully, one safely
  outside not at all, and a cell near the sphere counts at the fraction of a
  deterministic subsample grid (n_sub points per axis) that falls inside.
  For nodal fields the integrand is the multilinear interpolant: a safe
  cell gives each corner 1/2^dim (the cell midpoint value), a borderline
  cell gives each corner the mean of its hat function over the inside
  subsamples.  These weights depend only on (grid, z, r, exclude_radius,
  n_sub); they are built once, cached, and every ball integral is one
  weighted sum of h^dim times the values on the window.

Fields are immutable after construction; operations return new arrays,
except that the derivative stencils write into caller buffers given as out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

DEFAULT_SPHERE_POINTS = {2: 1024, 3: 4096}
DEFAULT_SUBSAMPLES = 4
_SLACK = 1e-9


@dataclass(frozen=True)
class Grid:
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n_cells: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        nc = tuple(int(v) for v in self.n_cells)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "n_cells", nc)
        if len(lo) not in (2, 3) or len(hi) != len(lo) or len(nc) != len(lo):
            raise ValueError("lo, hi and n_cells need the same length, 2 or 3")
        if any(n < 1 for n in nc):
            raise ValueError("n_cells must be at least 1 on every axis")
        if not all(math.isfinite(a) and b > a and math.isfinite(b) for a, b in zip(lo, hi)):
            raise ValueError("hi must exceed lo on every axis, both finite")
        steps = [(b - a) / n for a, b, n in zip(lo, hi, nc)]
        h = steps[0]
        if any(abs(s - h) > 1e-12 * max(1.0, abs(h)) for s in steps):
            raise ValueError(f"grid spacing must be uniform across axes, got {steps}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def h(self) -> float:
        return (self.hi[0] - self.lo[0]) / self.n_cells[0]

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.n_cells)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.node_shape))

    def axis_nodes(self, axis: int) -> np.ndarray:
        return self.lo[axis] + self.h * np.arange(self.n_cells[axis] + 1)

    def axis_centers(self, axis: int) -> np.ndarray:
        return self.lo[axis] + self.h * (np.arange(self.n_cells[axis]) + 0.5)

    def node_mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.axis_nodes(a) for a in range(self.dim)], indexing="ij")

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.node_shape, dtype=bool)
        for a in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        return mask

    def contains_points(self, pts: np.ndarray, slack: float | None = None) -> np.ndarray:
        s = (_SLACK * self.h) if slack is None else slack
        pts = np.atleast_2d(pts)
        ok = np.ones(pts.shape[0], dtype=bool)
        for a in range(self.dim):
            ok &= (pts[:, a] >= self.lo[a] - s) & (pts[:, a] <= self.hi[a] + s)
        return ok

    def require_ball_inside(self, z, r: float) -> None:
        s = _SLACK * max(self.h, 1.0)
        for a in range(self.dim):
            # written so that a NaN coordinate or radius fails
            if not (self.lo[a] - s <= z[a] - r and z[a] + r <= self.hi[a] + s):
                raise GeometryError(
                    f"ball of radius {r} around {tuple(float(c) for c in z)} leaves the box "
                    f"[{self.lo}, {self.hi}]"
                )


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = _freeze(self.values)
        if vals.shape != self.grid.node_shape:
            raise ValueError(f"values shape {vals.shape} != nodes {self.grid.node_shape}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = _freeze(self.values)
        want = self.grid.node_shape + (self.grid.dim,)
        if vals.shape != want:
            raise ValueError(f"values shape {vals.shape} != {want}")
        object.__setattr__(self, "values", vals)


def gradient_arrays(
    values: np.ndarray, h: float, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Per-axis second order nodal derivatives of a nodal array.

    Bitwise equal to np.gradient(values, h, edge_order=2): centered
    differences inside, the coefficients -1.5/h, 2/h, -0.5/h on the faces.
    With out (one array per axis, shaped like values) the derivatives are
    written there and no array of that size is allocated.
    """
    values = np.asarray(values, dtype=float)
    if out is None:
        out = [np.empty_like(values) for _ in range(values.ndim)]
    for axis, d in enumerate(out):
        # swapping the axis to the front gives the same view of every array
        f = values.swapaxes(0, axis)
        d = d.swapaxes(0, axis)
        if f.shape[0] < 3:
            raise ValueError("a second order derivative needs 3 nodes on every axis")
        np.subtract(f[2:], f[:-2], out=d[1:-1])
        d[1:-1] /= 2.0 * h
        np.multiply(f[0], -1.5 / h, out=d[0])
        d[0] += (2.0 / h) * f[1]
        d[0] += (-0.5 / h) * f[2]
        np.multiply(f[-3], 0.5 / h, out=d[-1])
        d[-1] += (-2.0 / h) * f[-2]
        d[-1] += (1.5 / h) * f[-1]
    return out


def gradient(f: ScalarField) -> VectorField:
    comps = gradient_arrays(f.values, f.grid.h)
    return VectorField(f.grid, np.stack(comps, axis=-1))


def gradient_transpose(
    v: np.ndarray,
    axis: int,
    h: float,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Exact adjoint of the second order nodal derivative along one axis.

    Satisfies sum(D q * v) == sum(q * gradient_transpose(v)) to round-off,
    with D the np.gradient edge_order=2 stencil.  out receives the result
    and work (shaped like v) holds the scaled interior of v; with both
    given, no array of v's size is allocated.
    """
    if out is None:
        out = np.empty_like(v)
    if work is None:
        work = np.empty_like(v)
    out.fill(0.0)
    v = v.swapaxes(0, axis)
    res = out.swapaxes(0, axis)
    c = 1.0 / (2.0 * h)
    inner = np.multiply(v[1:-1], c, out=work.swapaxes(0, axis)[1:-1])
    res[2:] += inner
    res[:-2] -= inner
    res[0] += -3.0 * c * v[0]
    res[1] += 4.0 * c * v[0]
    res[2] += -1.0 * c * v[0]
    res[-1] += 3.0 * c * v[-1]
    res[-2] += -4.0 * c * v[-1]
    res[-3] += 1.0 * c * v[-1]
    return out


def trapezoid_weights(shape: tuple[int, ...]) -> np.ndarray:
    """Trapezoid rule nodal weights: corner-averaged cell sums as nodal sums."""
    w = np.ones(shape)
    for a in range(len(shape)):
        sl = [slice(None)] * len(shape)
        for end in (0, -1):
            sl[a] = end
            w[tuple(sl)] *= 0.5
    return w


def _interp_core(values: np.ndarray, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of nodal data at points of shape (m, dim).

    Trailing axes of `values` beyond the node axes are carried through, so the
    same kernel serves scalar and vector fields.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} columns, got {pts.shape[1]}")
    if not bool(np.all(grid.contains_points(pts))):
        raise GeometryError("interpolation point outside the grid box")
    h = grid.h
    idx = []
    frac = []
    for a in range(grid.dim):
        x = (pts[:, a] - grid.lo[a]) / h
        i = np.clip(np.floor(x).astype(np.int64), 0, grid.n_cells[a] - 1)
        idx.append(i)
        frac.append(np.clip(x - i, 0.0, 1.0))
    extra = values.ndim - grid.dim
    out = np.zeros(pts.shape[0:1] + values.shape[grid.dim:], dtype=float)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        w = np.ones(pts.shape[0])
        for a, c in enumerate(corner):
            w = w * (frac[a] if c else 1.0 - frac[a])
        take = tuple(idx[a] + corner[a] for a in range(grid.dim))
        vals = values[take]
        if extra:
            w = w.reshape((-1,) + (1,) * extra)
        out += w * vals
    return out


def interpolate(f: ScalarField | VectorField, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation; returns (m,) for scalars, (m, dim) for vectors."""
    single = np.asarray(pts).ndim == 1
    out = _interp_core(f.values, f.grid, pts)
    return out[0] if single else out


@lru_cache(maxsize=8)
def _unit_sphere(dim: int, n: int) -> np.ndarray:
    """Read-only unit directions of the n-point sphere rule, shape (n, dim)."""
    if dim == 2:
        theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    elif dim == 3:
        i = np.arange(n) + 0.5
        pol = np.arccos(1.0 - 2.0 * i / n)
        az = math.pi * (1.0 + math.sqrt(5.0)) * i
        omega = np.stack(
            [np.cos(az) * np.sin(pol), np.sin(az) * np.sin(pol), np.cos(pol)], axis=-1
        )
    else:
        raise ValueError(f"unsupported dimension {dim}")
    omega.setflags(write=False)
    return omega


def sphere_quadrature(dim: int, z, r: float, n_points: int | None = None):
    """Points and weights for the surface integral over the sphere |x-z| = r.

    2d: equispaced angles, equal weights 2*pi*r/n.
    3d: Fibonacci spiral directions, equal weights 4*pi*r^2/n.
    """
    if not r > 0.0:
        raise GeometryError(f"sphere radius must be positive, got {r}")
    n = DEFAULT_SPHERE_POINTS[dim] if n_points is None else int(n_points)
    if n < 4:
        raise ValueError("need at least 4 quadrature points")
    z = np.asarray(z, dtype=float)
    omega = _unit_sphere(dim, n)
    measure = 2.0 * math.pi * r if dim == 2 else 4.0 * math.pi * r * r
    return z[None, :] + r * omega, np.full(n, measure / n)


def shell_average(f: ScalarField, z, r: float, n_points: int | None = None) -> float:
    """r^(1-dim) times the surface integral of f over the sphere |x-z| = r.

    Note the normalization: for f equal to a constant c this returns
    c times the measure of the unit sphere, not c itself.
    """
    grid = f.grid
    grid.require_ball_inside(z, r)
    pts, wts = sphere_quadrature(grid.dim, z, r, n_points)
    vals = _interp_core(f.values, grid, pts)
    return float(r ** (1 - grid.dim) * np.dot(wts, vals))


class BallWeights(NamedTuple):
    """Quadrature weights of one ball on the windows of cells and nodes it meets.

    cells weighs a piecewise constant cell field (1 for cells safely inside,
    the subsampled inside fraction for borderline cells, 0 otherwise); nodes
    weighs nodal values so that the sum reproduces the integral of the
    multilinear interpolant under the same subsample rule.  Neither carries
    the h^dim cell volume.  The arrays are read-only and shared.
    """

    cell_window: tuple[slice, ...]
    cells: np.ndarray
    node_window: tuple[slice, ...]
    nodes: np.ndarray


def _corner_hats(dim: int, n_sub: int) -> np.ndarray:
    """Tensor-product hat values at the subsample offsets, (n_sub^dim, 2^dim).

    Rows follow the subsample order of the ball rule (meshgrid "ij"), columns
    the cell corners in itertools.product((0, 1), repeat=dim) order.
    """
    t = (np.arange(n_sub) + 0.5) / n_sub
    hat = np.stack([1.0 - t, t], axis=-1)
    out = hat
    for _ in range(dim - 1):
        out = np.einsum("ia,jb->ijab", out, hat).reshape(out.shape[0] * n_sub, -1)
    return out


@lru_cache(maxsize=32)
def _ball_weights(
    grid: Grid, z: tuple[float, ...], r: float, exclude_radius: float, n_sub: int
) -> BallWeights:
    """Build the cell and node weights of the ball |x-z| <= r (cached).

    Cells whose bounding sphere lies inside the shell exclude_radius <= |x-z|
    <= r are safe, cells whose bounding sphere misses it are out, and the rest
    are borderline: each is split into n_sub^dim subsample points, of which
    the inside ones count.  A safe cell gives 1/2^dim to each of its corners;
    a borderline cell gives corner k the mean over inside subsamples of the
    corner's hat function.  Results are read-only; the cache holds a few
    dozen balls, enough for every radius of a scan and its blow-up scales.
    """
    grid.require_ball_inside(z, r)
    if exclude_radius != 0.0 and not (0.0 < exclude_radius < r):
        raise GeometryError("exclude_radius must lie in [0, r)")
    h = grid.h
    dim = grid.dim
    zc = np.asarray(z, dtype=float)
    win = []
    for a in range(dim):
        lo_i = max(0, int(math.floor((zc[a] - r - grid.lo[a]) / h)) - 1)
        hi_i = min(grid.n_cells[a], int(math.ceil((zc[a] + r - grid.lo[a]) / h)) + 1)
        win.append((lo_i, hi_i))
    centers = [grid.axis_centers(a)[w[0] : w[1]] - zc[a] for a, w in enumerate(win)]
    d2 = np.zeros(tuple(c.size for c in centers))
    for a, c in enumerate(centers):
        shape = [1] * dim
        shape[a] = c.size
        d2 = d2 + (c**2).reshape(shape)
    d = np.sqrt(d2)
    half_diag = 0.5 * h * math.sqrt(dim)
    sure_in = (d + half_diag <= r) & (d - half_diag >= exclude_radius)
    sure_out = (d - half_diag > r) | (d + half_diag < exclude_radius)
    near = ~(sure_in | sure_out)

    cc = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1)[near]
    offs_1d = ((np.arange(n_sub) + 0.5) / n_sub - 0.5) * h
    offs = np.stack(np.meshgrid(*([offs_1d] * dim), indexing="ij"), axis=-1)
    rel = cc[:, None, :] + offs.reshape(-1, dim)[None, :, :]
    dd2 = np.sum(rel * rel, axis=-1)
    inside = dd2 <= r * r
    if exclude_radius > 0.0:
        inside &= dd2 >= exclude_radius * exclude_radius
    cells = sure_in.astype(float)
    cells[near] = inside.mean(axis=1)
    moments = (inside.astype(float) @ _corner_hats(dim, n_sub)) / n_sub**dim

    corner_share = np.where(sure_in, 0.5**dim, 0.0)
    nodes = np.zeros(tuple(n + 1 for n in near.shape))
    for k, corner in enumerate(itertools.product((0, 1), repeat=dim)):
        corner_share[near] = moments[:, k]
        nodes[tuple(slice(c, c + n) for c, n in zip(corner, near.shape))] += corner_share
    for arr in (cells, nodes):
        arr.setflags(write=False)
    return BallWeights(
        cell_window=tuple(slice(lo, hi) for lo, hi in win),
        cells=cells,
        node_window=tuple(slice(lo, hi + 1) for lo, hi in win),
        nodes=nodes,
    )


def ball_weights(
    grid: Grid, z, r: float, exclude_radius: float = 0.0, n_sub: int = DEFAULT_SUBSAMPLES
) -> BallWeights:
    """Cached quadrature weights of the ball |x-z| <= r minus |x-z| < exclude_radius."""
    key = tuple(float(c) for c in np.asarray(z, dtype=float))
    return _ball_weights(grid, key, float(r), float(exclude_radius), int(n_sub))


def ball_integral_cells(
    cell_values: np.ndarray,
    grid: Grid,
    z,
    r: float,
    exclude_radius: float = 0.0,
    n_sub: int = DEFAULT_SUBSAMPLES,
) -> float:
    """Integral over the ball |x-z| <= r of a piecewise constant cell field.

    Borderline cells contribute their value times the inside fraction
    estimated from the subsample grid.
    """
    if cell_values.shape != grid.n_cells:
        raise ValueError("cell_values shape mismatch")
    bw = ball_weights(grid, z, r, exclude_radius, n_sub)
    return float(grid.h**grid.dim * np.sum(bw.cells * cell_values[bw.cell_window]))


def cell_midpoint_values(values: np.ndarray, ndim: int | None = None) -> np.ndarray:
    """Average the 2^dim corner values of every cell (midpoint of the interpolant)."""
    out = values
    for a in range(values.ndim if ndim is None else ndim):
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        lo[a] = slice(None, -1)
        hi[a] = slice(1, None)
        out = 0.5 * (out[tuple(lo)] + out[tuple(hi)])
    return out


def ball_integral(
    f: ScalarField,
    z,
    r: float,
    exclude_radius: float = 0.0,
    n_sub: int = DEFAULT_SUBSAMPLES,
) -> float:
    """Integral of f over the ball |x-z| <= r, optionally minus a small core.

    One weighted sum of the nodal values on the ball's window: the weights
    (see ball_weights) integrate the multilinear interpolant, with the
    cell-midpoint rule on interior cells and the subsample rule on borderline
    cells, which keeps the shell contribution second order.  They are built
    once per (grid, z, r, exclude_radius, n_sub) and cached.  exclude_radius
    drops the contribution of |x-z| < exclude_radius; pass it explicitly
    when the integrand is singular at z.
    """
    grid = f.grid
    bw = ball_weights(grid, z, r, exclude_radius, n_sub)
    return float(grid.h**grid.dim * np.sum(bw.nodes * f.values[bw.node_window]))


def ball_volume(
    grid: Grid, z, r: float, exclude_radius: float = 0.0, n_sub: int = DEFAULT_SUBSAMPLES
) -> float:
    bw = ball_weights(grid, z, r, exclude_radius, n_sub)
    return float(grid.h**grid.dim * np.sum(bw.cells))


def free_boundary_points(f: ScalarField) -> np.ndarray:
    """Zero crossings of f along grid edges, located by linear interpolation.

    An edge contributes when one endpoint has f > 0 and the other f <= 0.
    Returns unique points sorted lexicographically, shape (m, dim).
    """
    grid = f.grid
    vals = f.values
    dim = grid.dim
    pts = []
    for a in range(dim):
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[a] = slice(None, -1)
        hi[a] = slice(1, None)
        va = vals[tuple(lo)]
        vb = vals[tuple(hi)]
        crossing = ((va > 0.0) & (vb <= 0.0)) | ((va <= 0.0) & (vb > 0.0))
        if not np.any(crossing):
            continue
        index = np.argwhere(crossing)
        va_c = va[crossing]
        vb_c = vb[crossing]
        t = va_c / (va_c - vb_c)
        coords = np.asarray(grid.lo) + grid.h * index.astype(float)
        coords[:, a] += grid.h * t
        pts.append(coords)
    if not pts:
        return np.empty((0, dim))
    # snap to a sub-nodal quantum so a crossing that lands exactly on a node
    # is reported once even when several edges meet there
    q = 1e-9 * grid.h
    allpts = np.round(np.vstack(pts) / q) * q
    return np.unique(allpts, axis=0)


def geometric_radii(r_min: float, r_max: float, ratio: float) -> np.ndarray:
    """Geometric radius ladder r_min * ratio^k clipped at r_max.

    Rejects NaN and infinite arguments with a ValueError.
    """
    if not 0.0 < r_min < math.inf:
        raise ValueError(f"r_min must be positive and finite, got {r_min}")
    if not r_min <= r_max < math.inf:
        raise ValueError(f"r_max must be finite and at least r_min, got {r_max}")
    if not ratio > 1.0:
        raise ValueError("ratio must exceed 1")
    if not ratio < math.inf:
        raise ValueError("ratio must be finite")
    n = int(math.floor(math.log(r_max / r_min) / math.log(ratio) + 1e-12)) + 1
    return r_min * ratio ** np.arange(n)
