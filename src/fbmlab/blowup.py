"""Rescaling diagnostics at candidate free boundary points.

Around a base point z the field is rescaled as u_r(y) = u(z + r y) / r.  Two
scalar diagnostics track the limit behaviour:

  deviation  dev(r) = r^-(dim+1) * integral over B_r(z) of |u - grad u . (x-z)|,
             which vanishes for degree-1 homogeneous profiles;
  deficit    gamma(r) = inf over unit e of sup over B_1/2 of |u_r - (x.e)+|,
             the distance to the nearest half-plane profile.

The deficit is fitted by a coarse scan over unit directions, then refined
by a zoom: a pattern search on a tangent stencil about the best direction
that shrinks every round (Kolda, Lewis & Torczon, SIAM Rev. 45, 2003).  Both
evaluate blocks of directions with one direction-major kernel.  The fit reads
u_r only at its own points y (the nodes of unit_box inside B_1/2, then
points on its sphere): each scale, and flatness_deficit at z = 0, r = 1,
samples u once at z + r y, behind the gate of B_r/2(z).  The deviation reads
only the ball's node window, with the same bits as on the full grid.

The fit point y = 0 has every (y . e)^+ = 0, so gamma(r) >= |u(z)| / r.  At
a minimized field's auto points u(z) is the phase level l = s* eps = 0.518 h,
and on both bundled runs gamma(r) r / l is 1 at every point and scale (to
3e-10): the deficit there is this floor and carries no geometry.

Small values of both at the finest scales support calling z a regular
boundary point; the converse direction is deliberately never claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .density import DensityModel, flatness_report
from .errors import GeometryError
from .fields import (
    Grid,
    ScalarField,
    _build_ball_weights,
    _interp_core,
    _unit_sphere,
    as_base_point,
    gradient_arrays,
    interpolate,
    require_positive_radius,
    sphere_quadrature,
)

__all__ = [
    "BlowupSequence",
    "FlatnessFit",
    "rescale",
    "homogeneity_deviation",
    "flatness_deficit",
    "default_scales",
    "build_sequence",
    "regularity_verdict",
]

DEFAULT_REF_CELLS = 32
MIN_SCALE_CELLS = 8
SCALE_FRACTION = 0.999
REF_BALL_RADIUS = 0.5
COARSE_DIRECTIONS = 256
COARSE_BLOCK = 32
COARSE_STRIDE = 8
COARSE_MARGIN = 1e-12
ZOOM_NODES = 5
ZOOM_ROUNDS = 13
ZOOM_SHRINK = 0.4
DEV_THRESHOLD = 0.05
DEFICIT_THRESHOLD = 0.1


def unit_box(dim: int) -> Grid:
    """The box [-1, 1]^dim on DEFAULT_REF_CELLS cells per axis; its nodes give the fit points."""
    return Grid((-1.0,) * dim, (1.0,) * dim, (DEFAULT_REF_CELLS,) * dim)


@lru_cache(maxsize=2)
def _fit_points(dim: int) -> np.ndarray:
    """The fit points, read-only and one row per axis (the direction-major kernel's layout):
    the nodes of unit_box(dim) in the ball of REF_BALL_RADIUS, then its sphere rule's points."""
    mesh = unit_box(dim).node_mesh()
    inside = sum(m * m for m in mesh) <= REF_BALL_RADIUS**2
    sphere, _ = sphere_quadrature(dim, (0.0,) * dim, REF_BALL_RADIUS)
    pts = np.concatenate([np.stack([m[inside] for m in mesh], axis=-1), sphere], axis=0)
    pts_t = np.ascontiguousarray(pts.T)
    pts_t.setflags(write=False)
    return pts_t


def rescale(u: ScalarField, z, r: float, ref_grid: Grid) -> ScalarField:
    """u_r(y) = u(z + r y) / r sampled onto ref_grid."""
    require_positive_radius(r)
    z = as_base_point(u.grid, z)
    if ref_grid.dim != u.grid.dim:
        raise ValueError("dimension mismatch between field and reference grid")
    y = np.stack(ref_grid.node_mesh(), axis=-1).reshape(-1, ref_grid.dim)
    vals = interpolate(u, z[None, :] + r * y) / r
    return ScalarField(ref_grid, vals.reshape(ref_grid.node_shape))


def homogeneity_deviation(u: ScalarField, z, r: float) -> float:
    """Normalized L1 distance of u from its own tangent cone at z.

    r^-(dim+1) times the ball integral of |u - grad u . (x - z)| over B_r(z),
    weighted like ball_integral but built outside the cache (each scale reads
    its ball once) and formed only on the ball's node window.  The derivative
    runs on that window padded by one node per side, clipped at the box, so the
    window's nodes see the centered difference they see on the full grid and the
    face formula only where the window meets a box face: bitwise the full-grid values.
    """
    grid = u.grid
    z = as_base_point(grid, z)
    bw = _build_ball_weights(grid, z, r)
    pad = tuple(
        slice(max(w.start - 1, 0), min(w.stop + 1, n))
        for w, n in zip(bw.node_window, grid.node_shape)
    )
    inner = tuple(slice(w.start - p.start, w.stop - p.start) for w, p in zip(bw.node_window, pad))
    grads = gradient_arrays(u.values[pad], grid.h)
    offsets = grid.node_offsets(z, bw.node_window)
    radial = sum(g[inner] * x for g, x in zip(grads, offsets))
    integrand = np.abs(u.values[bw.node_window] - radial)
    ball = float(grid.h**grid.dim * np.sum(bw.nodes * integrand))
    return float(r ** -(grid.dim + 1) * ball)


@dataclass(frozen=True)
class FlatnessFit:
    direction: tuple[float, ...]
    deficit: float


def _coarse_sups(pts_t: np.ndarray, vals: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """sup over points of |vals - (p . e)+| for every candidate direction e.

    pts_t holds the points one row per axis.  Runs over COARSE_BLOCK
    directions at a time, each a row of one (block, points) buffer; a max is
    exact, so this equals the one-shot (points x directions) expression.
    """
    sups = np.empty(cand.shape[0])
    for j in range(0, cand.shape[0], COARSE_BLOCK):
        block = cand[j : j + COARSE_BLOCK] @ pts_t
        np.maximum(block, 0.0, out=block)
        np.subtract(vals, block, out=block)
        np.abs(block, out=block)
        np.max(block, axis=1, out=sups[j : j + COARSE_BLOCK])
    return sups


def _coarse_best(pts_t: np.ndarray, vals: np.ndarray, cand: np.ndarray) -> int:
    """int(np.argmin(_coarse_sups(pts_t, vals, cand))), without scanning every block.

    The sups over every COARSE_STRIDE-th point bound each direction's sup
    from below.  Blocks of COARSE_BLOCK directions are evaluated exactly by
    _coarse_sups, in the order of their least bound, until no bound left
    comes within COARSE_MARGIN of the best exact sup, relative to that sup
    plus REF_BALL_RADIUS (which bounds every |p . e|).  The margin dwarfs the
    rounding of a three-term dot product (about 1e-16), so every direction
    skipped has a sup strictly above the best: the argmin, the first index
    among ties, is that of the full scan.
    """
    sub = np.ascontiguousarray(pts_t[:, ::COARSE_STRIDE])
    lower = _coarse_sups(sub, vals[::COARSE_STRIDE], cand)
    starts = np.arange(0, cand.shape[0], COARSE_BLOCK)
    block_lower = np.minimum.reduceat(lower, starts)
    sups = np.full(cand.shape[0], np.inf)
    best = np.inf
    for k in np.argsort(block_lower, kind="stable"):
        if block_lower[k] > best + COARSE_MARGIN * (best + REF_BALL_RADIUS):
            break
        block = slice(starts[k], starts[k] + COARSE_BLOCK)
        sups[block] = _coarse_sups(pts_t, vals, cand[block])
        best = min(best, float(np.min(sups[block])))
    return int(np.argmin(sups))


def _zoom(pts_t: np.ndarray, vals: np.ndarray, e: np.ndarray, width: float) -> FlatnessFit:
    """Refine the unit direction e by ZOOM_ROUNDS rounds of a shrinking stencil.

    The stencil holds ZOOM_NODES nodes on [-1, 1] per axis of a tangent basis
    of e.  Each round evaluates normalize(d + width * node) with
    _coarse_sups, moves d to the best node (the first among ties) and
    multiplies width by ZOOM_SHRINK.  d stays unnormalized, so the centre
    node repeats the last round's best bit for bit and the best sup never
    rises.
    """
    tangent = np.linalg.svd(e[None, :])[2][1:]
    axis = np.linspace(-1.0, 1.0, ZOOM_NODES)
    mesh = np.meshgrid(*[axis] * tangent.shape[0], indexing="ij")
    stencil = np.stack([m.ravel() for m in mesh], axis=-1) @ tangent
    d = e
    for _ in range(ZOOM_ROUNDS):
        trial = d + width * stencil
        cand = trial / np.linalg.norm(trial, axis=1, keepdims=True)
        sups = _coarse_sups(pts_t, vals, cand)
        k = int(np.argmin(sups))
        d = trial[k]
        width *= ZOOM_SHRINK
    return FlatnessFit(direction=tuple(float(c) for c in cand[k]), deficit=float(sups[k]))


def _fit(pts_t: np.ndarray, vals: np.ndarray) -> FlatnessFit:
    """Best half-plane profile fit to the values vals at the points pts_t.

    A coarse scan over COARSE_DIRECTIONS directions picks the start of
    _zoom, whose first stencil reaches one coarse spacing (2D) or 2.5 (3D)
    to either side.
    """
    dim, n = pts_t.shape[0], COARSE_DIRECTIONS
    cand = _unit_sphere(dim, n)
    e = cand[_coarse_best(pts_t, vals, cand)]
    width = 2.0 * np.pi / n if dim == 2 else 2.5 * np.sqrt(4.0 * np.pi / n)
    return _zoom(pts_t, vals, e, width)


def _fit_at(u: ScalarField, z: np.ndarray, r: float) -> FlatnessFit:
    """The fit of u(z + r y) / r at the fit points y, gathered once behind one
    gate: the ball of radius REF_BALL_RADIUS r about z, which holds them all."""
    grid = u.grid
    grid.require_ball_inside(z, REF_BALL_RADIUS * r)
    pts_t = _fit_points(grid.dim)
    vals = _interp_core([u.values], grid, z[None, :] + r * pts_t.T)[0] / r
    return _fit(pts_t, vals)


def flatness_deficit(u: ScalarField) -> FlatnessFit:
    """Best half-plane profile fit on the ball of REF_BALL_RADIUS: build_sequence's at z = 0, r = 1.

    The sup norm runs over the fit points (_fit_points), unit_box's nodes in
    the ball plus its sphere points, so inter-node peaks of the kinked
    profile are not missed.  u is interpolated there, and on unit_box that
    reads its nodes exactly.
    """
    return _fit_at(u, np.zeros(u.grid.dim), 1.0)


@dataclass(frozen=True)
class BlowupSequence:
    """Per-scale blow-up metrics at one base point.

    Entry i of deviations, deficits and directions belongs to scales[i]
    (strictly decreasing, at least one): homogeneity_deviation of u at that
    scale, and the flatness fit of the rescaled field u(z + r y) / r.  The
    rescaled fields themselves are not kept.
    """

    base_point: tuple[float, ...]
    scales: tuple[float, ...]
    deviations: tuple[float, ...]
    deficits: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.scales:
            raise ValueError("a blow-up sequence needs at least one scale")
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly decreasing")
        if not all(s > 0.0 for s in self.scales):
            raise ValueError("scales must be positive")


def default_scales(grid: Grid, z) -> tuple[float, ...]:
    """Halving ladder from SCALE_FRACTION of the centered reach down to MIN_SCALE_CELLS * h."""
    z = as_base_point(grid, z)
    reach = float(min(min(z[a] - grid.lo[a], grid.hi[a] - z[a]) for a in range(grid.dim)))
    r = SCALE_FRACTION * reach
    r_min = MIN_SCALE_CELLS * grid.h
    out = []
    while r >= r_min:
        out.append(r)
        r *= 0.5
    if not out:
        raise GeometryError(
            f"no usable scale at {tuple(float(c) for c in z)}: reach {reach:.3g} below {r_min:.3g}"
        )
    return tuple(out)


def build_sequence(u: ScalarField, z, scales=None) -> BlowupSequence:
    """Rescalings of u about z with per-scale deviation and deficit.

    Each scale first computes the deviation, whose ball gate raises
    GeometryError unless r > 0 and B_r(z) fits the box.  It then fits
    u(z + r y) / r at the fit points y, sampled once behind the gate of
    B_r/2(z) (the fit flatness_deficit runs at z = 0 and r = 1).
    |u(z)| above max(u.lipschitz, 1) h is no boundary point (ValueError).
    """
    grid = u.grid
    z = as_base_point(grid, z)
    if scales is None:
        scales = default_scales(grid, z)
    scales = tuple(float(s) for s in scales)
    u_at_z = float(interpolate(u, z[None, :])[0])
    limit = max(u.lipschitz, 1.0) * grid.h
    if abs(u_at_z) > limit:
        raise ValueError(
            f"base point value {u_at_z:.3g} too large for a boundary point "
            f"(limit {limit:.3g})"
        )
    devs, deficits, dirs = [], [], []
    for r in scales:
        devs.append(homogeneity_deviation(u, z, r))
        fit = _fit_at(u, z, r)
        deficits.append(fit.deficit)
        dirs.append(fit.direction)
    return BlowupSequence(
        base_point=tuple(float(c) for c in z),
        scales=scales,
        deviations=tuple(devs),
        deficits=tuple(deficits),
        directions=tuple(dirs),
    )


def regularity_verdict(seq: BlowupSequence, model: DensityModel) -> str:
    """Classify the base point of seq as "regular" or "inconclusive".

    The verdict needs a 3D field (the flat-implies-smooth step holds in R^3)
    and a density that satisfies the structural flatness condition;
    otherwise it is "unavailable".  "regular" needs both metrics under their
    thresholds (DEV_THRESHOLD, DEFICIT_THRESHOLD) at the two smallest
    scales; a sequence with one scale is judged on that scale alone.  There
    is deliberately no "singular" verdict.
    """
    if len(seq.base_point) != 3 or not flatness_report(model).passed:
        return "unavailable"
    finest = np.argsort(seq.scales)[:2]
    ok = all(
        seq.deviations[i] < DEV_THRESHOLD and seq.deficits[i] < DEFICIT_THRESHOLD
        for i in finest
    )
    return "regular" if ok else "inconclusive"
