"""Rescaling diagnostics at candidate free boundary points.

Around a base point z the field is rescaled as u_r(y) = u(z + r y) / r on a
fixed reference box.  Two scalar diagnostics track the limit behaviour:

  deviation  dev(r) = r^-(dim+1) * integral over B_r(z) of |u - grad u . (x-z)|,
             which vanishes for degree-1 homogeneous profiles;
  deficit    gamma(r) = inf over unit e of sup over B_1/2 of |u_r - (x.e)+|,
             the distance to the nearest half-plane profile.

The deficit is fitted by a coarse scan over unit directions, then refined
one spherical coordinate at a time by Brent's bounded minimizer (Brent,
Algorithms for Minimization without Derivatives, 1973, ch. 5).

Small values of both at the finest scales support calling z a regular
boundary point; the converse direction is deliberately never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, flatness_report
from .errors import GeometryError, VerdictUnavailable
from .fields import (
    Grid,
    ScalarField,
    ball_integral,
    gradient_arrays,
    interpolate,
    sphere_quadrature,
)

__all__ = [
    "BlowupSequence",
    "FlatnessFit",
    "RegularityReport",
    "rescale",
    "homogeneity_deviation",
    "flatness_deficit",
    "default_scales",
    "build_sequence",
    "regularity_verdict",
]

DEFAULT_REF_CELLS = 32
MIN_SCALE_CELLS = 8
REF_BALL_RADIUS = 0.5
COARSE_DIRECTIONS = 256
REFINE_ROUNDS = 3
BRENT_XATOL = 1e-5
BRENT_MAX_EVALS = 500
DEV_THRESHOLD = 0.05
DEFICIT_THRESHOLD = 0.1


def unit_box(dim: int, n_cells: int = DEFAULT_REF_CELLS) -> Grid:
    return Grid((-1.0,) * dim, (1.0,) * dim, (n_cells,) * dim)


def rescale(u: ScalarField, z, r: float, ref_grid: Grid) -> ScalarField:
    """u_r(y) = u(z + r y) / r sampled onto ref_grid."""
    if not r > 0.0:
        raise ValueError(f"scale must be positive, got {r}")
    z = np.asarray(z, dtype=float)
    if z.size != u.grid.dim or ref_grid.dim != u.grid.dim:
        raise ValueError("dimension mismatch between field, point and reference grid")
    mesh = ref_grid.node_mesh()
    pts = np.stack([z[a] + r * mesh[a] for a in range(ref_grid.dim)], axis=-1)
    vals = interpolate(u, pts.reshape(-1, ref_grid.dim)) / r
    return ScalarField(ref_grid, vals.reshape(ref_grid.node_shape))


def homogeneity_deviation(u: ScalarField, z, r: float) -> float:
    """Normalized L1 distance of u from its own tangent cone at z."""
    grid = u.grid
    z = np.asarray(z, dtype=float)
    grads = gradient_arrays(u.values, grid.h)
    mesh = grid.node_mesh()
    radial = sum(g * (mesh[a] - z[a]) for a, g in enumerate(grads))
    integrand = ScalarField(grid, np.abs(u.values - radial))
    return float(r ** -(grid.dim + 1) * ball_integral(integrand, z, r))


@dataclass(frozen=True)
class FlatnessFit:
    direction: tuple[float, ...]
    deficit: float


def _coarse_directions(dim: int) -> np.ndarray:
    n = COARSE_DIRECTIONS
    if dim == 2:
        ang = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    pts, _ = sphere_quadrature(3, (0.0, 0.0, 0.0), 1.0, n_points=n)
    return pts


def _spherical_to_unit(coords: np.ndarray) -> np.ndarray:
    if coords.size == 1:
        return np.array([np.cos(coords[0]), np.sin(coords[0])])
    pol, az = coords
    sp = np.sin(pol)
    return np.array([sp * np.cos(az), sp * np.sin(az), np.cos(pol)])


def _unit_to_spherical(e: np.ndarray) -> np.ndarray:
    if e.size == 2:
        return np.array([np.arctan2(e[1], e[0])])
    return np.array([np.arccos(np.clip(e[2], -1.0, 1.0)), np.arctan2(e[1], e[0])])


def _bounded_min(func, lo: float, hi: float) -> tuple[float, float, int]:
    """Brent's bounded minimization of func on [lo, hi]: (x, func(x), evaluations).

    Golden-section steps with parabolic interpolation, stopped at absolute
    tolerance BRENT_XATOL or after BRENT_MAX_EVALS evaluations.  The steps are
    those of scipy's minimize_scalar(method="bounded") with its default
    options, operation for operation, so every probe point is bitwise the same.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        si = 1.0 if rat >= 0.0 else -1.0
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= BRENT_MAX_EVALS:
            break
    return xf, fx, num


def flatness_deficit(u: ScalarField) -> FlatnessFit:
    """Best half-plane profile fit on the ball of REF_BALL_RADIUS.

    The sup norm runs over grid nodes inside the ball plus points sampled on
    its sphere, so inter-node peaks of the kinked profile are not missed.
    Coarse direction scan first, then REFINE_ROUNDS rounds of bounded Brent
    refinement of each spherical coordinate in a shrinking bracket.
    """
    grid = u.grid
    grid.require_ball_inside((0.0,) * grid.dim, REF_BALL_RADIUS)
    mesh = grid.node_mesh()
    r2 = sum(m * m for m in mesh)
    inside = r2 <= REF_BALL_RADIUS**2
    node_pts = np.stack([m[inside] for m in mesh], axis=-1)
    sphere_pts, _ = sphere_quadrature(grid.dim, (0.0,) * grid.dim, REF_BALL_RADIUS)
    pts = np.concatenate([node_pts, sphere_pts], axis=0)
    vals = np.concatenate([u.values[inside], interpolate(u, sphere_pts)])

    def deficit_of(e: np.ndarray) -> float:
        plane = np.maximum(pts @ e, 0.0)
        return float(np.max(np.abs(vals - plane)))

    cand = _coarse_directions(grid.dim)
    sups = np.max(
        np.abs(vals[:, None] - np.maximum(pts @ cand.T, 0.0)), axis=0
    )
    best = int(np.argmin(sups))
    e = cand[best]
    if grid.dim == 2:
        width = 2.0 * np.pi / COARSE_DIRECTIONS
    else:
        width = 2.5 * np.sqrt(4.0 * np.pi / COARSE_DIRECTIONS)
    coords = _unit_to_spherical(e)
    for _ in range(REFINE_ROUNDS):
        for k in range(coords.size):
            def line(t, k=k):
                c = coords.copy()
                c[k] = t
                return deficit_of(_spherical_to_unit(c))

            coords[k] = _bounded_min(line, coords[k] - width, coords[k] + width)[0]
        width *= 0.25
    e = _spherical_to_unit(coords)
    e = e / np.linalg.norm(e)
    return FlatnessFit(direction=tuple(float(c) for c in e), deficit=deficit_of(e))


@dataclass(frozen=True)
class BlowupSequence:
    base_point: tuple[float, ...]
    scales: tuple[float, ...]
    fields: tuple[ScalarField, ...]
    deviations: tuple[float, ...]
    deficits: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly decreasing")
        if not all(s > 0.0 for s in self.scales):
            raise ValueError("scales must be positive")


def default_scales(grid: Grid, z, min_cells: int = MIN_SCALE_CELLS) -> tuple[float, ...]:
    """Halving ladder from the largest centered reach down to min_cells * h."""
    z = np.asarray(z, dtype=float)
    reach = min(
        min(z[a] - grid.lo[a], grid.hi[a] - z[a]) for a in range(grid.dim)
    )
    r = 0.999 * reach
    r_min = min_cells * grid.h
    out = []
    while r >= r_min:
        out.append(r)
        r *= 0.5
    if not out:
        raise GeometryError(
            f"no usable scale at {tuple(float(c) for c in z)}: reach {reach:.3g} below {r_min:.3g}"
        )
    return tuple(out)


def build_sequence(
    u: ScalarField,
    z,
    scales=None,
    ref_grid: Grid | None = None,
) -> BlowupSequence:
    """Rescalings of u about z with per-scale deviation and deficit."""
    grid = u.grid
    z = np.asarray(z, dtype=float)
    if scales is None:
        scales = default_scales(grid, z)
    scales = tuple(float(s) for s in scales)
    if ref_grid is None:
        ref_grid = unit_box(grid.dim)
    lip = float(np.max(np.sqrt(sum(g * g for g in gradient_arrays(u.values, grid.h)))))
    u_at_z = float(interpolate(u, np.asarray(z)[None, :])[0])
    if abs(u_at_z) > max(lip, 1.0) * grid.h:
        raise ValueError(
            f"base point value {u_at_z:.3g} too large for a boundary point "
            f"(limit {max(lip, 1.0) * grid.h:.3g})"
        )
    fields = []
    devs = []
    deficits = []
    dirs = []
    for r in scales:
        ur = rescale(u, z, r, ref_grid)
        fit = flatness_deficit(ur)
        fields.append(ur)
        devs.append(homogeneity_deviation(u, z, r))
        deficits.append(fit.deficit)
        dirs.append(fit.direction)
    return BlowupSequence(
        base_point=tuple(float(c) for c in z),
        scales=scales,
        fields=tuple(fields),
        deviations=tuple(devs),
        deficits=tuple(deficits),
        directions=tuple(dirs),
    )


@dataclass(frozen=True)
class RegularityReport:
    base_point: tuple[float, ...]
    scales: tuple[float, ...]
    deviations: tuple[float, ...]
    deficits: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]
    verdict: str


def regularity_verdict(
    u: ScalarField,
    model: DensityModel,
    z,
    scales=None,
    dev_threshold: float = DEV_THRESHOLD,
    deficit_threshold: float = DEFICIT_THRESHOLD,
) -> RegularityReport:
    """Classify z as "regular" or "inconclusive" from the blow-up metrics.

    The regular verdict needs the density to satisfy the structural flatness
    condition and a 3D field (the flat-implies-smooth step holds in R^3);
    otherwise VerdictUnavailable is raised.  Both metrics must clear their
    thresholds at the two smallest scales.  There is deliberately no
    "singular" verdict.
    """
    if not flatness_report(model).passed:
        raise VerdictUnavailable(
            "density model fails the flatness condition; no verdict"
        )
    if u.grid.dim != 3:
        raise VerdictUnavailable("regularity verdict is only available in 3D")
    seq = build_sequence(u, z, scales=scales)
    finest = np.argsort(seq.scales)[:2]
    ok = all(
        seq.deviations[i] < dev_threshold and seq.deficits[i] < deficit_threshold
        for i in finest
    )
    return RegularityReport(
        base_point=seq.base_point,
        scales=seq.scales,
        deviations=seq.deviations,
        deficits=seq.deficits,
        directions=seq.directions,
        verdict="regular" if ok else "inconclusive",
    )
