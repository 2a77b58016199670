"""Ghost-corrected Weiss quantity, its derivative identities, and
oscillation/regular-point diagnostics.

The scanned quantity is

    A(z, r) = r^{-n} int_{B_r(z)} [F(|grad u|^2) + lam 1{u>0}]
              - F0 r^{-n-1} int_{dB_r(z)} u^2
              - r^{1-n} int_{dB_r(z)} phi,

where phi is the potential part of the flux splitting about z.  For
energy-critical fields A is nondecreasing in r, with derivative

    A'(z, r) = (2/r^n) int_{dB_r} F'(|grad u|^2) (u_nu - u/r)^2 >= 0,

and the correction terms satisfy d/dr[shell average of phi] = T(r), the
error term carrying the slope deviation F' - F0.  Everything here is
read-only diagnostics over immutable fields; rows of a scan are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityModel
from .errors import GeometryError
from .fieldio import write_csv
from .fields import (
    DEFAULT_SPHERE_POINTS,
    Grid,
    ScalarField,
    VectorField,
    _freeze,
    ball_integral_cells,
    ball_weights,
    cell_midpoint_values,
    gradient,
    interpolate,
    shell_average,
    sphere_quadrature,
)
from .ghost import FluxField, GhostFunction

__all__ = [
    "MonotonicityReport",
    "IdentityRecord",
    "VmoReport",
    "RegularPointFit",
    "CSV_COLUMNS",
    "cell_energy_density",
    "weiss_core",
    "radial_derivative",
    "error_term",
    "error_term_flux",
    "derivative_identity_report",
    "log_radius_derivative",
    "scan",
    "oscillation_profile",
    "vmo_check",
    "regular_point_fit",
    "write_report_csv",
]

CSV_COLUMNS = (
    "r",
    "weiss_core",
    "ghost_term",
    "A",
    "A_prime_fd",
    "A_prime_formula",
    "T",
    "mainid_gap",
    "osc_r",
)

TOL_MONO_FACTOR = 5.0
BASE_POINT_ATOL = 1e-12


def _resolve_f0(model: DensityModel, f0: float | None) -> float:
    return float(model.df(1.0)) if f0 is None else float(f0)


def _base_point(grid: Grid, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.size != grid.dim:
        raise ValueError("base point dimension mismatch")
    return z


def _cell_gradient_arrays(values: np.ndarray, h: float) -> list[np.ndarray]:
    """Cell-centered gradient: edge differences averaged over the cell."""
    dim = values.ndim
    out = []
    for a in range(dim):
        g = np.diff(values, axis=a) / h
        for b in range(dim):
            if b == a:
                continue
            lo = [slice(None)] * dim
            hi = [slice(None)] * dim
            lo[b] = slice(None, -1)
            hi[b] = slice(1, None)
            g = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        out.append(g)
    return out


def cell_energy_density(u: ScalarField, model: DensityModel, lam: float) -> np.ndarray:
    """F(|grad u|^2) + lam 1{u>0} sampled per cell.

    Gradients are cell-centered and the indicator takes the sharp sign of
    the cell-center value (no smoothing): the quantity diagnosed here is
    the limit functional, not the ramped one used during minimization.
    Cell centering keeps phase boundaries that lie on node planes exact.
    """
    grads = _cell_gradient_arrays(u.values, u.grid.h)
    q = sum(g * g for g in grads)
    centers = cell_midpoint_values(u.values, ndim=u.grid.dim)
    return model.f(q) + lam * (centers > 0.0)


def _bulk_integral(density: np.ndarray, grid: Grid, z: np.ndarray, r: float) -> float:
    return ball_integral_cells(density, grid, z, r)


def _surface_u2(u: ScalarField, z: np.ndarray, r: float, n_points: int | None) -> float:
    pts, w = sphere_quadrature(u.grid.dim, z, r, n_points)
    vals = interpolate(u, pts)
    return float(np.sum(w * vals * vals))


def weiss_core(
    u: ScalarField,
    model: DensityModel,
    lam: float,
    z,
    r: float,
    f0: float | None = None,
    n_sphere_points: int | None = None,
) -> float:
    """r^{-n} int_{B_r} [F + lam 1{u>0}]  -  F0 r^{-n-1} int_{dB_r} u^2."""
    grid = u.grid
    z = _base_point(grid, z)
    f0 = _resolve_f0(model, f0)
    grid.require_ball_inside(z, r)
    density = cell_energy_density(u, model, lam)
    bulk = _bulk_integral(density, grid, z, r)
    surf = _surface_u2(u, z, r, n_sphere_points)
    return _weiss(bulk, surf, f0, r, grid.dim)


def _weiss(bulk: float, surf: float, f0: float, r: float, n: int) -> float:
    """The Weiss combination of a ball integral and a sphere integral of u^2."""
    return bulk / r**n - f0 * surf / r ** (n + 1)


def _check_ghost_contract(g: GhostFunction, z: np.ndarray, f0: float) -> None:
    gz = np.asarray(g.base_point, dtype=float)
    if gz.size != z.size or np.max(np.abs(gz - z)) > BASE_POINT_ATOL:
        raise ValueError(
            f"ghost base point {g.base_point} does not match requested "
            f"{tuple(float(c) for c in z)}"
        )
    if abs(g.f0 - f0) > BASE_POINT_ATOL:
        raise ValueError(f"ghost reference slope {g.f0} does not match requested {f0}")


def _sphere_terms(
    u: ScalarField,
    grad_u: VectorField,
    model: DensityModel,
    z: np.ndarray,
    r: float,
    f0: float,
    n_points: int | None,
) -> tuple[float, float]:
    """The two (u_nu - u/r) sphere integrals of the scan at one radius.

    Returns (A' formula, T):
        (2/r^n)     int_{dB_r} F'(q) (u_nu - u/r)^2,
        (2/r^{n-1}) int_{dB_r} (F'(q) - f0) (u/r^2) (u_nu - u/r),
    with q = |grad u|^2 and grad_u = gradient(u), computed once by the caller.
    """
    n = u.grid.dim
    pts, w = sphere_quadrature(n, z, r, n_points)
    grads = interpolate(grad_u, pts)
    nu = (pts - z[None, :]) / r
    q = np.sum(grads * grads, axis=-1)
    uvals = interpolate(u, pts)
    u_nu = np.sum(grads * nu, axis=-1)
    slope = model.df(q)
    formula = 2.0 / r**n * np.sum(w * slope * (u_nu - uvals / r) ** 2)
    t = 2.0 / r ** (n - 1) * np.sum(w * (slope - f0) * (uvals / r**2) * (u_nu - uvals / r))
    return float(formula), float(t)


def radial_derivative(
    u: ScalarField,
    model: DensityModel,
    z,
    r: float,
    n_sphere_points: int | None = None,
) -> float:
    """(2/r^n) int_{dB_r} F'(|grad u|^2) (u_nu - u/r)^2.

    A quadrature of a nonnegative integrand with positive weights: the
    result is nonnegative exactly, not just up to round-off.
    """
    grid = u.grid
    z = _base_point(grid, z)
    grid.require_ball_inside(z, r)
    return _sphere_terms(u, gradient(u), model, z, r, 0.0, n_sphere_points)[0]


def error_term(
    u: ScalarField,
    model: DensityModel,
    z,
    r: float,
    f0: float | None = None,
    n_sphere_points: int | None = None,
) -> float:
    """(2/r^{n-1}) int_{dB_r} (F'(|grad u|^2) - F0) (u/r^2) (u_nu - u/r)."""
    grid = u.grid
    z = _base_point(grid, z)
    f0 = _resolve_f0(model, f0)
    grid.require_ball_inside(z, r)
    return _sphere_terms(u, gradient(u), model, z, r, f0, n_sphere_points)[1]


def error_term_flux(
    flux: FluxField, r: float, n_sphere_points: int | None = None
) -> float:
    """The same error term as the sphere flux r^{1-n} int_{dB_r} U . nu.

    An independent route: the integrand form evaluates slope, height and
    radial derivative separately on the sphere, while this one interpolates
    the assembled flux field.  The radius must clear the capped core for
    the two to describe the same quantity.
    """
    grid = flux.grid
    z = _base_point(grid, np.asarray(flux.base_point))
    if r <= flux.cap_radius:
        raise GeometryError(
            f"radius {r} does not clear the capped core {flux.cap_radius}"
        )
    grid.require_ball_inside(z, r)
    pts, w = sphere_quadrature(grid.dim, z, r, n_sphere_points)
    nu = (pts - z[None, :]) / r
    vals = interpolate(flux.field, pts)
    return float(r ** (1 - grid.dim) * np.sum(w * np.sum(vals * nu, axis=-1)))


def log_radius_derivative(values, radii) -> np.ndarray:
    """d(values)/dr by centered differences in log r.

    Interior points use the three-point centered rule in log spacing
    (suited to geometric radius ladders); the endpoints fall back to
    one-sided two-point differences.  A single radius yields NaN.
    """
    v = np.asarray(values, dtype=float)
    r = np.asarray(radii, dtype=float)
    out = np.full(v.shape, np.nan)
    if v.size >= 2:
        lr = np.log(r)
        out[0] = (v[1] - v[0]) / (r[0] * (lr[1] - lr[0]))
        out[-1] = (v[-1] - v[-2]) / (r[-1] * (lr[-1] - lr[-2]))
        if v.size >= 3:
            out[1:-1] = (v[2:] - v[:-2]) / (r[1:-1] * (lr[2:] - lr[:-2]))
    return out


def _validate_radii(radii) -> np.ndarray:
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("radii must be a nonempty 1d sequence")
    if r.size > 1 and not np.all(np.diff(r) > 0.0):
        raise ValueError("radii must be strictly increasing")
    if not np.all(r > 0.0):
        raise ValueError("radii must be positive")
    return r


@dataclass(frozen=True)
class IdentityRecord:
    r: float
    lhs: float
    rhs: float
    gap: float


def derivative_identity_report(
    u: ScalarField,
    model: DensityModel,
    lam: float,
    z,
    radii,
    n_sphere_points: int | None = None,
) -> list[IdentityRecord]:
    """Derivative of the rescaled bulk energy against its sphere identity.

    lhs: centered log-r differences of D(r) = r^{-n} int_{B_r} [F + lam 1].
    rhs: radial_derivative plus (2/r^{n-1}) int F' (u/r^2)(u_nu - u/r).
    The identity holds for energy-critical fields; the gap measures the
    distance from criticality plus discretization error.  Endpoint radii
    are dropped (no centered difference there).
    """
    grid = u.grid
    z = _base_point(grid, z)
    r = _validate_radii(radii)
    if r.size < 3:
        raise ValueError("need at least 3 radii for centered differences")
    for radius in r:
        grid.require_ball_inside(z, radius)
    density = cell_energy_density(u, model, lam)
    bulk = np.array(
        [_bulk_integral(density, grid, z, radius) / radius**grid.dim for radius in r]
    )
    lhs_all = log_radius_derivative(bulk, r)
    grad_u = gradient(u)
    out = []
    for i in range(1, r.size - 1):
        radius = float(r[i])
        # f0 = 0 turns T into the full F' term of the identity
        first, second = _sphere_terms(u, grad_u, model, z, radius, 0.0, n_sphere_points)
        rhs = first + second
        lhs = float(lhs_all[i])
        out.append(IdentityRecord(r=radius, lhs=lhs, rhs=rhs, gap=lhs - rhs))
    return out


@dataclass(frozen=True)
class MonotonicityReport:
    """Radius scan of the ghost-corrected quantity with its diagnostics.

    Column arrays share the index of `r` (strictly increasing).  Stored
    invariants: A = weiss_core - ghost_term elementwise as written, and
    mainid_gap = A_prime_fd - A_prime_formula - T + d/dr[ghost_term]
    with the derivative taken by log_radius_derivative on the stored
    columns, so every row recombines bit for bit.
    """

    r: np.ndarray
    weiss_core: np.ndarray
    ghost_term: np.ndarray
    a: np.ndarray
    a_prime_fd: np.ndarray
    a_prime_formula: np.ndarray
    t: np.ndarray
    mainid_gap: np.ndarray
    osc: np.ndarray
    z: tuple[float, ...]
    f0: float
    lam: float
    h: float
    n_sphere_points: int
    tol_mono: float
    violations: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in (
            "r",
            "weiss_core",
            "ghost_term",
            "a",
            "a_prime_fd",
            "a_prime_formula",
            "t",
            "mainid_gap",
            "osc",
        ):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "z", tuple(float(c) for c in self.z))
        object.__setattr__(self, "violations", tuple(int(i) for i in self.violations))

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return {
            "r": self.r,
            "weiss_core": self.weiss_core,
            "ghost_term": self.ghost_term,
            "A": self.a,
            "A_prime_fd": self.a_prime_fd,
            "A_prime_formula": self.a_prime_formula,
            "T": self.t,
            "mainid_gap": self.mainid_gap,
            "osc_r": self.osc,
        }


def oscillation_profile(phi: ScalarField, z, radii) -> np.ndarray:
    """Mean over B_r(z) of |phi - ball mean|^2, one value per radius.

    The squared-oscillation profile: bounded across dyadic radii for
    bounded-mean-oscillation prototypes, decaying to zero at vanishing
    ones.  Radii may come in any order.
    """
    grid = phi.grid
    z = _base_point(grid, z)
    out = []
    for r in np.asarray(radii, dtype=float):
        bw = ball_weights(grid, z, float(r))
        # ball means: the h^dim cell volume cancels between integral and volume
        vol = np.sum(bw.cells)
        window = phi.values[bw.node_window]
        mean = np.sum(bw.nodes * window) / vol
        out.append(np.sum(bw.nodes * (window - mean) ** 2) / vol)
    return np.array(out)


def scan(
    u: ScalarField,
    model: DensityModel,
    lam: float,
    z,
    radii,
    g: GhostFunction,
    f0: float | None = None,
    n_sphere_points: int | None = None,
) -> MonotonicityReport:
    """Evaluate the corrected quantity and its diagnostics on a radius ladder.

    Flags transitions where A drops by more than tol_mono, the O(h/r_min)
    quadrature ceiling 5 (h/r_min) |A(r_max)|.  The stored violation
    indices point at the left radius of each offending pair.
    """
    grid = u.grid
    z = _base_point(grid, z)
    f0 = _resolve_f0(model, f0)
    _check_ghost_contract(g, z, f0)
    r = _validate_radii(radii)
    for radius in r:
        grid.require_ball_inside(z, radius)
    n_points = (
        DEFAULT_SPHERE_POINTS[grid.dim] if n_sphere_points is None else n_sphere_points
    )

    density = cell_energy_density(u, model, lam)
    grad_u = gradient(u)
    core = np.empty(r.size)
    gt = np.empty(r.size)
    formula = np.empty(r.size)
    t_col = np.empty(r.size)
    for i, radius in enumerate(r):
        radius = float(radius)
        bulk = _bulk_integral(density, grid, z, radius)
        surf = _surface_u2(u, z, radius, n_points)
        core[i] = _weiss(bulk, surf, f0, radius, grid.dim)
        gt[i] = shell_average(g.potential, z, radius, n_points=n_points)
        formula[i], t_col[i] = _sphere_terms(u, grad_u, model, z, radius, f0, n_points)

    a = core - gt
    a_prime_fd = log_radius_derivative(a, r)
    ghost_rate = log_radius_derivative(gt, r)
    mainid_gap = a_prime_fd - formula - t_col + ghost_rate
    osc = oscillation_profile(g.potential, z, r)

    tol_mono = TOL_MONO_FACTOR * (grid.h / float(r[0])) * abs(float(a[-1]))
    violations = tuple(
        int(i) for i in range(r.size - 1) if a[i + 1] < a[i] - tol_mono
    )
    return MonotonicityReport(
        r=r,
        weiss_core=core,
        ghost_term=gt,
        a=a,
        a_prime_fd=a_prime_fd,
        a_prime_formula=formula,
        t=t_col,
        mainid_gap=mainid_gap,
        osc=osc,
        z=tuple(float(c) for c in z),
        f0=f0,
        lam=float(lam),
        h=grid.h,
        n_sphere_points=n_points,
        tol_mono=tol_mono,
        violations=violations,
    )


@dataclass(frozen=True)
class VmoReport:
    profile: np.ndarray
    limit_estimate: float
    floor: float
    passed: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", _freeze(self.profile))


def vmo_check(phi: ScalarField, z, radii) -> VmoReport:
    """Does the squared-oscillation profile vanish along decreasing radii?

    Passes when the last (smallest-radius) value drops to a quarter of the
    first or under the grid floor 10 h^2 sup|phi|^2, below which the
    interpolant cannot resolve oscillation anyway.
    """
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two radii")
    if not np.all(np.diff(r) < 0.0):
        raise ValueError("radii must be strictly decreasing")
    profile = oscillation_profile(phi, z, r)
    floor = 10.0 * phi.grid.h**2 * float(np.max(np.abs(phi.values))) ** 2
    last = float(profile[-1])
    passed = last <= 0.25 * float(profile[0]) or last <= floor
    return VmoReport(profile=profile, limit_estimate=last, floor=floor, passed=passed)


@dataclass(frozen=True)
class RegularPointFit:
    a0: float
    a1: float
    a2: float
    residual: float


def regular_point_fit(phi: ScalarField, z, radii) -> RegularPointFit:
    """Fit shell averages of phi to a0 + a1 r (+ a2 r^2 nuisance).

    The reported structure is the constant and slope of the shell-average
    expansion at a regular point; the quadratic term absorbs the O(r^2)
    remainder so that a0 and a1 are not polluted by it over a finite
    radius window.  residual is the max absolute deviation of the fit.
    """
    grid = phi.grid
    z = _base_point(grid, z)
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 4:
        raise ValueError("need at least 4 radii")
    if np.unique(r).size < 4:
        raise ValueError("radii are degenerate")
    for radius in r:
        grid.require_ball_inside(z, float(radius))
    averages = np.array([shell_average(phi, z, float(radius)) for radius in r])
    design = np.stack([np.ones_like(r), r, r * r], axis=-1)
    coef, *_ = np.linalg.lstsq(design, averages, rcond=None)
    residual = float(np.max(np.abs(design @ coef - averages)))
    return RegularPointFit(
        a0=float(coef[0]), a1=float(coef[1]), a2=float(coef[2]), residual=residual
    )


def write_report_csv(report: MonotonicityReport, path) -> None:
    """Write the scan as CSV with a fixed column order.

    Floats are written with repr (shortest round-trip form), so identical
    scans produce byte-identical files; fieldio.read_csv reads them back.
    """
    cols = report.columns
    write_csv(path, CSV_COLUMNS, list(zip(*(cols[name] for name in CSV_COLUMNS))))
