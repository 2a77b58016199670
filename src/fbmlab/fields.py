"""Uniform Cartesian grids, nodal fields, and the quadrature toolbox.

Conventions used throughout the package:

* grids are boxes [lo, hi] in dimension 2 or 3 with the same spacing h on
  every axis; fields store one float64 per node, row-major;
* gradients are second order: centered differences inside, one-sided
  three-point stencils on the faces (exact on quadratics).  The derivative
  treats the interior of each axis as one contiguous pass over the
  flattened C-order array, offset by the axis stride;
* the minimized energy reads the squared gradient from edge quotients
  instead (edge_gradient_square): at a node it is the mean over the two
  edges along each axis, so no mode but the constant escapes it.  Its
  stencils and their exact adjoints live here beside the centered ones;
  the ghost stage's weak Neumann system is built on the same edges;
* sphere integrals use equispaced angles in 2d and a Fibonacci spiral with
  equal weights in 3d, with field values taken by multilinear interpolation;
  the unit directions are built once per (dim, n) and shifted and scaled
  per sphere;
* a vector field is component-major, shape (dim,) + node_shape: each
  component is one C-contiguous nodal array, like a scalar field's values;
* multilinear interpolation is one gather kernel over a sequence of k
  C-contiguous nodal arrays: per point set it computes the flat base node
  and the per-axis hats once, then at each of the 2^dim cell corners forms
  the weight and the node index in buffers of its own and takes each
  array's values into its row, allocating nothing per corner.  A sphere
  diagnostic passes every field its formulas need (u, grad u and a nonzero
  ghost potential for the scan; the flux components for the shell
  identity) as they are, uncopied, and samples each sphere in one pass.
  Each sphere formula has one implementation, which reads the (k, m)
  samples.  Nothing is cached between spheres;
* ball integrals are fixed linear functionals of the data on the window of
  cells meeting the ball.  A cell safely inside counts fully, one safely
  outside not at all, and a cell near the sphere counts at the fraction of a
  deterministic subsample grid (SUBSAMPLES points per axis) that falls inside.
  For nodal fields the integrand is the multilinear interpolant: a safe
  cell gives each corner 1/2^dim (the cell midpoint value), a borderline
  cell gives each corner the mean of its hat function over the inside
  subsamples.  A subsample's squared distance to z is summed from per-axis
  squares in axis order, ((x_0^2 + x_1^2) + x_2^2), which is bitwise the
  per-subsample sum over its coordinates, so no (cells, subsamples, dim)
  array is formed.  These weights depend only on (grid, z, r); every ball
  integral is one weighted sum of h^dim times the values on the window.
  The builder has a cell half (ball_cells) and a node half, which only a
  reader of node weights pays for.  A point's radius ladder, built by the
  flux profile and read by the scan, is cached until the scan returns or
  another point's ball is asked for (a blow-up scale's ball, read once, is
  not, and neither is a zero potential's ladder, whose scan reads the cell
  half alone);
* one box rule, Grid.balls_inside (slack 1e-9 max(h, 1); a point is a ball of
  radius 0), and one gate per point set, in the rule that makes it: the sphere
  and ball rules call require_ball_inside (r > 0, inside the box) themselves,
  and the gather kernel trusts them; only interpolate checks its caller's points.

Fields are immutable after construction; operations return new arrays,
except that the derivative stencils write into caller buffers given as out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GeometryError

DEFAULT_SPHERE_POINTS = {2: 1024, 3: 4096}
SUBSAMPLES = 4
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

    def node_offsets(self, z, window: tuple[slice, ...] | None = None) -> list[np.ndarray]:
        """x_a - z_a on the nodes of window (default: all), one array per axis.

        An open mesh: axis a's array has length along axis a and 1 elsewhere,
        so arithmetic on the arrays broadcasts to the window's shape and each
        node gets the same bits as from node_mesh.
        """
        out = []
        for a in range(self.dim):
            sl = slice(None) if window is None else window[a]
            shape = [1] * self.dim
            shape[a] = -1
            out.append((self.axis_nodes(a)[sl] - z[a]).reshape(shape))
        return out

    def balls_inside(self, centers: np.ndarray, r: float) -> np.ndarray:
        """Whether the ball of radius r about each row of centers fits the box.

        The one box rule: the box is widened by a slack of 1e-9 max(h, 1), r = 0
        tests the centers themselves, and a NaN coordinate or radius fails.
        """
        s = _SLACK * max(self.h, 1.0)
        c = np.asarray(centers, dtype=float).reshape(-1, self.dim)
        ok = np.ones(c.shape[0], dtype=bool)
        for a in range(self.dim):
            ok &= (self.lo[a] - s <= c[:, a] - r) & (c[:, a] + r <= self.hi[a] + s)
        return ok

    def require_ball_inside(self, z, r: float) -> None:
        """The gate of every ball and sphere: GeometryError unless r > 0 and the ball fits."""
        require_positive_radius(r)
        if not self.balls_inside(z, r)[0]:
            raise GeometryError(
                f"ball of radius {r} around {tuple(float(c) for c in z)} leaves the box "
                f"[{self.lo}, {self.hi}]"
            )


def as_base_point(grid: Grid, z) -> np.ndarray:
    """z as a float array with one coordinate per grid axis (ValueError otherwise)."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != grid.dim:
        raise ValueError(
            f"base point dimension mismatch: {z.size} coordinates on a {grid.dim}D grid"
        )
    return z


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

    @cached_property
    def lipschitz(self) -> float:
        """max over nodes of |grad u| (gradient_arrays), the discrete Lipschitz
        constant; computed on first use and kept, since the field is immutable."""
        shape = self.grid.node_shape
        q = gradient_square(self.values, self.grid.h, np.empty(shape), np.empty(shape))
        return float(np.max(np.sqrt(q, out=q)))


@dataclass(frozen=True)
class VectorField:
    """A nodal vector field, component-major: values has shape (dim,) + node_shape,
    and values[a] is component a as one C-contiguous nodal array."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = _freeze(self.values)
        want = (self.grid.dim,) + self.grid.node_shape
        if vals.shape != want:
            raise ValueError(f"values shape {vals.shape} != {want}")
        object.__setattr__(self, "values", vals)


def _flat(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """a as one C-order row without a copy; a must be C-contiguous and shaped like shape.

    reshape would silently copy a strided array, and writes into the copy
    would be lost.
    """
    if a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"buffers must be C-contiguous arrays of shape {shape}")
    return a.reshape(-1)


def _scratch(work, count: int, shape: tuple[int, ...]) -> list[np.ndarray]:
    """count scratch arrays of shape: fresh from np.empty without work, else work's first count.

    A lent array must be a writable C-contiguous float64 array of shape,
    sharing no memory with another lent one; anything else raises
    ValueError here, before the caller writes to any of them.
    """
    if work is None:
        return [np.empty(shape) for _ in range(count)]
    work = list(work)[:count]
    if len(work) < count:
        raise ValueError(f"need {count} work arrays, got {len(work)}")
    for i, a in enumerate(work):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
                and a.flags.c_contiguous and a.flags.writeable):
            raise ValueError(
                f"work arrays must be writable C-contiguous float64 arrays of shape {shape}"
            )
        if any(np.may_share_memory(a, b) for b in work[:i]):
            raise ValueError("work arrays must not share memory")
    return work


def gradient_arrays(
    values: np.ndarray, h: float, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Per-axis second order nodal derivatives of a nodal array.

    Bitwise equal to np.gradient(values, h, edge_order=2): centered
    differences inside, the coefficients -1.5/h, 2/h, -0.5/h on the faces.
    With out (one C-contiguous array per axis, shaped like values; anything
    else raises ValueError) the derivatives are written there and no array
    of that size is allocated.
    """
    values = _stencil_input(values)
    if out is None:
        out = [np.empty_like(values) for _ in range(values.ndim)]
    rows = [_flat(d, values.shape) for d in out]
    for axis, (d, row) in enumerate(zip(out, rows)):
        axis_derivative(values, axis, h, d, row)
    return out


def _stencil_input(values: np.ndarray) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=float)
    if any(n < 3 for n in values.shape):
        raise ValueError("a second order derivative needs 3 nodes on every axis")
    return values


def axis_derivative(
    values: np.ndarray, axis: int, h: float, d: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """The derivative of gradient_arrays along one axis, written into d.

    values is C-contiguous with 3 nodes on every axis; d (shaped like values)
    and row (its nodes as one flat row) may be strided views.  The centered
    difference along an axis of stride s is one pass over the flattened
    array, flat[k + s] - flat[k - s] for k in [s, size - s); on the axis's two
    face planes that pairs nodes of different lines, and the face formulas
    overwrite those planes.
    """
    flat = values.reshape(-1)
    s = values.strides[axis] // values.itemsize
    inner = np.subtract(flat[2 * s :], flat[: -2 * s], out=row[s:-s])
    inner /= 2.0 * h
    # swapping the axis to the front gives the same view of every array;
    # the face planes are length-1 slices so that 1-d input gives arrays
    f = values.swapaxes(0, axis)
    faces = d.swapaxes(0, axis)
    first, last = faces[:1], faces[-1:]
    np.multiply(f[:1], -1.5 / h, out=first)
    first += (2.0 / h) * f[1:2]
    first += (-0.5 / h) * f[2:3]
    np.multiply(f[-3:-2], 0.5 / h, out=last)
    last += (-2.0 / h) * f[-2:-1]
    last += (1.5 / h) * f[-1:]
    return d


def gradient_square(
    values: np.ndarray, h: float, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """|grad|^2 of a nodal array into out, bitwise sum(g * g for g in gradient_arrays(...)).

    Each axis's derivative is taken in turn into work, squared there and
    added in axis order; out and work are C-contiguous, shaped like values.
    """
    values = _stencil_input(values)
    out.fill(0.0)
    for axis in range(values.ndim):
        g = axis_derivative(values, axis, h, work, _flat(work, values.shape))
        out += np.multiply(g, g, out=g)
    return out


def gradient(f: ScalarField) -> VectorField:
    values = np.empty((f.grid.dim,) + f.grid.node_shape)
    gradient_arrays(f.values, f.grid.h, out=list(values))
    values.setflags(write=False)  # the field keeps the block uncopied
    return VectorField(f.grid, values)


def _row_stride(a: np.ndarray, axis: int) -> tuple[np.ndarray, int]:
    """a as one C-order row (checked, no copy) and the stride of axis in elements."""
    return _flat(a, a.shape), a.strides[axis] // a.itemsize


def edge_differences(u: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Edge quotients (u[k + e] - u[k]) / h along axis, stored at each edge's lower node.

    The last node plane along axis has no edge; it is set to zero, which
    edge_differences_transpose and the edge means rely on.  u and out are
    C-contiguous arrays of one shape.
    """
    uf, s = _row_stride(u, axis)
    of = _flat(out, u.shape)
    np.subtract(uf[s:], uf[:-s], out=of[:-s])
    of[:-s] *= 1.0 / h
    out.swapaxes(0, axis)[-1] = 0.0
    return out


def edge_differences_transpose(e: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Adjoint of edge_differences: out[k] = (e[k - e_axis] - e[k]) / h.

    e must be zero on its last plane along axis; the flat shift then reads
    that zero wherever it crosses from one line to the next.
    """
    ef, s = _row_stride(e, axis)
    np.negative(e, out=out)
    _flat(out, e.shape)[s:] += ef[:-s]
    out *= 1.0 / h
    return out


def add_edge_means(t: np.ndarray, axis: int, acc: np.ndarray) -> None:
    """acc += the mean of the two edges along axis at each node (the one edge on a face).

    t holds edge values (zero on its last plane); it is halved in place.
    """
    tf, s = _row_stride(t, axis)
    t *= 0.5
    acc += t
    _flat(acc, t.shape)[s:] += tf[:-s]
    nodes, edges = acc.swapaxes(0, axis), t.swapaxes(0, axis)
    nodes[0] += edges[0]
    nodes[-1] += edges[-2]


def edge_means_transpose(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Adjoint of add_edge_means: each edge takes half of each interior end node
    and all of a face end node."""
    xf, s = _row_stride(x, axis)
    of = _flat(out, x.shape)
    np.add(xf[:-s], xf[s:], out=of[:-s])
    of[:-s] *= 0.5
    edges, nodes = out.swapaxes(0, axis), x.swapaxes(0, axis)
    edges[0] += 0.5 * nodes[0]
    edges[-2] += 0.5 * nodes[-1]
    edges[-1] = 0.0
    return out


def edge_gradient_square(u: np.ndarray, h: float, q: np.ndarray, work: np.ndarray) -> np.ndarray:
    """q = sum_a A_a[(E_a u)^2], the squared gradient of the minimized energy.

    E_a u are the edge quotients along axis a and A_a takes the mean of the
    two edges at a node (a face node takes its one edge).  For a smooth u,
    q = |grad u|^2 + O(h^2).  Unlike the centered difference of
    gradient_arrays, which skips a node and so cannot see (-1)^k along an
    axis, the edges see every mode but the constant.  The axes stream
    through work, one more array of u's shape.
    """
    q.fill(0.0)
    for axis in range(u.ndim):
        e = edge_differences(u, axis, h, out=work)
        add_edge_means(np.multiply(e, e, out=e), axis, q)
    return q


def face_planes(x: np.ndarray, skip: int | None = None):
    """Yield the 2 ndim face planes of x, axis by axis, as writable views.

    Each keeps its axis with length 1, so a write lands in x (for a 1-D x
    too, where an integer index would copy).  A node on several faces is in
    one plane per axis; the planes of axis skip are left out.
    """
    for axis in range(x.ndim):
        if axis != skip:
            planes = x.swapaxes(0, axis)
            yield planes[:1]
            yield planes[-1:]


def weigh(x: np.ndarray, skip: int | None = None) -> np.ndarray:
    """x times the trapezoid weights, in place: each face plane is halved.

    The face planes of axis skip keep their values, which gives the weights
    of the other axes.  Halving is exact, so the result is bitwise x times
    trapezoid_weights.
    """
    for plane in face_planes(x, skip):
        plane *= 0.5
    return x


def trapezoid_weights(shape: tuple[int, ...]) -> np.ndarray:
    """Trapezoid rule nodal weights: corner-averaged cell sums as nodal sums."""
    return weigh(np.ones(shape))


def _interp_core(arrays, grid: Grid, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of k nodal arrays, shape (k, m).

    arrays is a sequence of C-contiguous arrays of shape node_shape (anything
    else raises ValueError), read in place; pts is a float (m, dim) array
    that a sphere, ball or fit gate, or interpolate, has admitted: no box
    check here, but cells and fractions are clipped to the grid.  The flat
    base node (from the node strides) and the per-axis hats are computed
    once; then each of the 2^dim cell corners forms its weight and node
    index in two buffers and gathers every array into its row of a third,
    so no array is allocated per corner.  Corners are summed in
    itertools.product order with weights multiplied in axis order, so row j
    equals the interpolation of array j alone, bit for bit.
    """
    flats = [_flat(a, grid.node_shape) for a in arrays]
    strides = [math.prod(grid.node_shape[a + 1 :]) for a in range(grid.dim)]
    # one row per axis: the coordinate in cells, the cell (clipped to the
    # grid, a whole number of float64), the fraction and the two hats
    x = np.subtract(pts.T, np.array(grid.lo)[:, None], order="C")
    x /= grid.h
    cell = np.floor(x)
    np.minimum(np.maximum(cell, 0.0, out=cell), np.array(grid.n_cells)[:, None] - 1.0, out=cell)
    frac = np.subtract(x, cell, out=x)
    np.minimum(np.maximum(frac, 0.0, out=frac), 1.0, out=frac)
    hats = (1.0 - frac, frac)
    base = (np.array(strides, dtype=float) @ cell).astype(np.int64)
    out = np.zeros((len(flats), pts.shape[0]))
    vals = np.empty_like(out)
    w = np.empty(pts.shape[0])
    nodes = np.empty_like(base)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        np.multiply(hats[corner[0]][0], hats[corner[1]][1], out=w)
        for a in range(2, grid.dim):
            w *= hats[corner[a]][a]
        np.add(base, sum(c * k for c, k in zip(corner, strides)), out=nodes)
        for flat, row in zip(flats, vals):
            flat.take(nodes, out=row, mode="clip")
        vals *= w
        out += vals
    return out


def interpolate(f: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a scalar field; returns (m,), or a float for one point.

    Checks the caller's points: dim columns (ValueError), each in the box rule (GeometryError).
    """
    single = np.asarray(pts).ndim == 1
    grid = f.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} columns, got {pts.shape[1]}")
    if not bool(np.all(grid.balls_inside(pts, 0.0))):
        raise GeometryError("interpolation point outside the grid box")
    out = _interp_core([f.values], grid, pts)[0]
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


def require_positive_radius(r: float) -> None:
    """Raise GeometryError unless r is positive (NaN fails).

    The one gate for the radius of a sphere or a ball and for a blow-up scale.
    """
    if not r > 0.0:
        raise GeometryError(f"radius must be positive, got {r}")


def sphere_quadrature(dim: int, z, r: float):
    """Points and weights for the surface integral over the sphere |x-z| = r.

    n = DEFAULT_SPHERE_POINTS[dim].  2d: equispaced angles, equal weights 2*pi*r/n.
    3d: Fibonacci spiral directions, equal weights 4*pi*r^2/n.
    """
    require_positive_radius(r)
    n = DEFAULT_SPHERE_POINTS[dim]
    z = np.asarray(z, dtype=float)
    omega = _unit_sphere(dim, n)
    measure = 2.0 * math.pi * r if dim == 2 else 4.0 * math.pi * r * r
    return z[None, :] + r * omega, np.full(n, measure / n)


def _sphere_samples(arrays, grid: Grid, z, r: float):
    """Quadrature points, weights and the (k, m) samples of k nodal arrays on |x-z| = r.

    arrays are C-contiguous nodal arrays (see _interp_core); every field a
    sphere formula needs is sampled in this one gather, after the sphere's gate.
    """
    grid.require_ball_inside(z, r)
    pts, wts = sphere_quadrature(grid.dim, z, r)
    return pts, wts, _interp_core(arrays, grid, pts)


def _shell_mean(wts: np.ndarray, vals: np.ndarray, r: float, dim: int) -> float:
    """r^(1-dim) times the sphere quadrature of sampled values.

    vals must be a contiguous row: np.dot may round a strided one differently.
    """
    return float(r ** (1 - dim) * np.dot(wts, vals))


def _sphere_flux(z: np.ndarray, r: float, pts: np.ndarray, wts: np.ndarray, samples) -> float:
    """r^(1-dim) times the sphere quadrature of V . nu from the (dim, m) samples of V.

    V . nu adds the axes in order onto +0.0, one row per axis: bitwise
    np.sum over the short last axis of a point-major copy, without the copy.
    """
    nu = np.subtract(pts.T, z[:, None], order="C")
    nu /= r
    v_nu = np.zeros(wts.size)
    for v, nu_a in zip(samples, nu):
        v_nu += v * nu_a
    return float(r ** (1 - pts.shape[1]) * np.sum(wts * v_nu))


def shell_average(f: ScalarField, z, r: float) -> float:
    """r^(1-dim) times the surface integral of f over the sphere |x-z| = r.

    Note the normalization: for f equal to a constant c this returns
    c times the measure of the unit sphere, not c itself.
    """
    grid = f.grid
    z = as_base_point(grid, z)
    _, wts, vals = _sphere_samples([f.values], grid, z, r)
    return _shell_mean(wts, vals[0], r, grid.dim)


class BallCells(NamedTuple):
    """The cell half of BallWeights: the window of cells the ball meets and
    their weights (see BallWeights.cells)."""

    cell_window: tuple[slice, ...]
    cells: np.ndarray


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


def _corner_hats(dim: int) -> np.ndarray:
    """Tensor-product hat values at the subsample offsets, (SUBSAMPLES^dim, 2^dim).

    Rows follow the subsample order of the ball rule (meshgrid "ij"), columns
    the cell corners in itertools.product((0, 1), repeat=dim) order.
    """
    t = (np.arange(SUBSAMPLES) + 0.5) / SUBSAMPLES
    hat = np.stack([1.0 - t, t], axis=-1)
    out = hat
    for _ in range(dim - 1):
        out = np.einsum("ia,jb->ijab", out, hat).reshape(out.shape[0] * SUBSAMPLES, -1)
    return out


def _ball_cell_parts(grid: Grid, z, r: float):
    """The cell half of the ball rule: (BallCells, sure_in, near, inside).

    Cells whose bounding sphere lies inside the ball are safe (sure_in), cells
    whose bounding sphere misses it are out, and the rest are borderline
    (near): each is split into SUBSAMPLES^dim subsample points, and inside,
    shaped (SUBSAMPLES^dim, borderline cells), marks those inside the ball.
    A borderline cell weighs the fraction of them inside; a count of at most
    SUBSAMPLES^dim is exact in any summation order.  The gate
    (require_ball_inside) comes first.

    Each subsample coordinate along axis a is one addition, offset plus cell
    centre, taken on a (SUBSAMPLES, borderline cells) array per axis.  The
    squared distances are the per-axis squares broadcast along their own
    subsample axes and added in axis order; that is the order in which numpy
    reduces the coordinates of one subsample, so every distance, and every
    weight, is bitwise what the per-subsample sum gives.  The borderline
    cells run along the innermost axis, so each pass is one long row.
    """
    grid.require_ball_inside(z, r)
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
    sure_in = d + half_diag <= r
    near = ~sure_in & (d - half_diag <= r)

    idx = np.nonzero(near)
    n_near = idx[0].size
    offs_1d = ((np.arange(SUBSAMPLES) + 0.5) / SUBSAMPLES - 0.5) * h
    dd2 = 0.0
    for a, c in enumerate(centers):
        s = offs_1d[:, None] + c[idx[a]]
        shape = [1] * dim + [n_near]
        shape[a] = SUBSAMPLES
        dd2 = dd2 + (s * s).reshape(shape)
    inside = (dd2 <= r * r).reshape(SUBSAMPLES**dim, n_near)
    cells = sure_in.astype(float)
    cells[near] = inside.mean(axis=0)
    cells.setflags(write=False)
    return BallCells(tuple(slice(lo, hi) for lo, hi in win), cells), sure_in, near, inside


def ball_cells(grid: Grid, z, r: float) -> BallCells:
    """The cell weights of the ball |x-z| <= r alone, built outside the cache.

    The cell half of _build_ball_weights, bitwise its cell window and cells,
    for a caller that never reads node weights; z needs one coordinate per
    grid axis.
    """
    return _ball_cell_parts(grid, as_base_point(grid, z), float(r))[0]


def _build_ball_weights(grid: Grid, z, r: float) -> BallWeights:
    """Build the cell and node weights of the ball |x-z| <= r.

    The cell half is _ball_cell_parts; this adds the node half.  A safe cell
    gives 1/2^dim to each of its corners; a borderline cell gives corner k
    the mean over inside subsamples of the corner's hat function (the
    moments).  Results are read-only.
    """
    cell, sure_in, near, inside = _ball_cell_parts(grid, z, r)
    dim = grid.dim
    moments = (inside.T.astype(float, order="C") @ _corner_hats(dim)) / SUBSAMPLES**dim

    corner_share = np.where(sure_in, 0.5**dim, 0.0)
    nodes = np.zeros(tuple(n + 1 for n in near.shape))
    for k, corner in enumerate(itertools.product((0, 1), repeat=dim)):
        corner_share[near] = moments[:, k]
        nodes[tuple(slice(c, c + n) for c, n in zip(corner, near.shape))] += corner_share
    nodes.setflags(write=False)
    return BallWeights(
        cell_window=cell.cell_window,
        cells=cell.cells,
        node_window=tuple(slice(w.start, w.stop + 1) for w in cell.cell_window),
        nodes=nodes,
    )


@lru_cache(maxsize=None)
def _ball_weights(grid: Grid, z: tuple[float, ...], r: float) -> BallWeights:
    """The cached builder: it holds one point's balls, the radius ladder built
    by the flux profile and read by the scan, until the scan returns."""
    return _build_ball_weights(grid, z, r)


_ball_point = None  # the (grid, z) of the balls _ball_weights holds


def ball_weights(grid: Grid, z, r: float) -> BallWeights:
    """Quadrature weights of the ball |x-z| <= r, cached until a scan returns or a
    ball about another point is asked for; z needs one coordinate per grid axis."""
    global _ball_point
    point = (grid, tuple(float(c) for c in as_base_point(grid, z)))
    if point != _ball_point:
        drop_ball_weights()
        _ball_point = point
    return _ball_weights(*point, float(r))


def drop_ball_weights() -> None:
    """Empty the ball weight cache; the scan calls it when it returns or raises."""
    _ball_weights.cache_clear()


def ball_integral(f: ScalarField, z, r: float) -> float:
    """Integral of f over the ball |x-z| <= r.

    One weighted sum of the nodal values on the ball's window: the weights
    (see ball_weights) integrate the multilinear interpolant, with the
    cell-midpoint rule on interior cells and the subsample rule on borderline
    cells, which keeps the shell contribution second order.  They are built
    once per (grid, z, r) and cached until a scan returns.
    """
    grid = f.grid
    bw = ball_weights(grid, z, r)
    return float(grid.h**grid.dim * np.sum(bw.nodes * f.values[bw.node_window]))


def free_boundary_points(f: ScalarField, level: float) -> np.ndarray:
    """Crossings of f = level along grid edges, located by linear interpolation.

    An edge contributes when one endpoint has f > level and the other
    f <= level.  level is the field's phase level (Scenario.phase_level):
    0 for a field with an exact zero phase, minimizer.ramp_free_boundary
    for a minimizer of the ramped energy.  Returns unique points sorted
    lexicographically, shape (m, dim).
    """
    grid = f.grid
    vals = f.values - level
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
    # sort and drop repeated rows with a mask rather than np.unique, whose
    # first call imports numpy.ma
    allpts = allpts[np.lexsort(allpts.T[::-1])]
    return allpts[np.concatenate(([True], np.any(allpts[1:] != allpts[:-1], axis=1)))]


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
