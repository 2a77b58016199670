"""Ghost-corrected Weiss quantity, its derivative identities, and
oscillation/regular-point diagnostics.

The scanned quantity is

    A(z, r) = r^{-n} int_{B_r(z)} [F(|grad u|^2) + lam] 1{u>l}
              - F0 r^{-n-1} int_{dB_r(z)} ((u - l)^+)^2
              - r^{1-n} int_{dB_r(z)} phi,

where phi is the potential part of the flux splitting about z and l is
the field's phase level (Scenario.phase_level): 0 for a field with an
exact zero phase, and for a minimizer of the ramped energy, whose zero
phase is a positive tail that decays node by node, the level where its
affine part vanishes (minimizer.ramp_free_boundary).  So A is the Weiss
quantity of the sharp field (u - l)^+.  For energy-critical fields A is
nondecreasing in r, with derivative

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
    ScalarField,
    _freeze,
    _shell_mean,
    _sphere_flux,
    _sphere_samples,
    as_base_point,
    ball_cells,
    ball_weights,
    drop_ball_weights,
    gradient_arrays,
    shell_average,
)
from .ghost import FluxField, GhostFunction, _check_ghost_contract

__all__ = [
    "MonotonicityReport",
    "VmoReport",
    "RegularPointFit",
    "CSV_COLUMNS",
    "cell_energy_density",
    "weiss_core",
    "radial_derivative",
    "error_term",
    "error_term_flux",
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
# the MonotonicityReport attribute behind each CSV column
_COLUMN_ATTRS = dict(zip(CSV_COLUMNS, (
    "r", "weiss_core", "ghost_term", "a", "a_prime_fd", "a_prime_formula", "t", "mainid_gap", "osc"
)))

TOL_MONO_FACTOR = 5.0


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


def cell_energy_density(
    u: ScalarField, model: DensityModel, lam: float, level: float
) -> np.ndarray:
    """[F(|grad u|^2) + lam] theta sampled per cell, theta the cell's phase fraction.

    Gradients are cell-centered.  theta = sum (v_c)^+ / sum |v_c| over the
    cell's corners c, v = u - level (0 where every v_c is zero), is the
    fraction of the cell above the phase level: exact for a linear u across
    an axis-aligned cut, 1 on a cell with no corner below the level and
    some corner above it, 0 on a cell with none above.  For a field with
    an exact zero phase (level 0, u >= 0) it is therefore the indicator of
    a positive cell center, and cell centering keeps phase boundaries that
    lie on node planes exact.  The quantity diagnosed here is the sharp
    functional, not the ramped one used during minimization.
    """
    return _energy_density(u.values, u.grid.h, model, lam, level)


def _phase_fraction(values: np.ndarray, level: float) -> np.ndarray:
    """theta of cell_energy_density for the cells spanned by a nodal array."""
    dim = values.ndim
    above = np.zeros(tuple(m - 1 for m in values.shape))
    total = np.zeros_like(above)
    for corner in range(2**dim):
        v = values[
            tuple(slice(1, None) if (corner >> a) & 1 else slice(None, -1) for a in range(dim))
        ] - level
        above += np.maximum(v, 0.0)
        total += np.abs(v)
    return np.divide(above, total, out=np.zeros_like(above), where=total > 0.0)


def _energy_density(
    values: np.ndarray, h: float, model: DensityModel, lam: float, level: float
) -> np.ndarray:
    """cell_energy_density of the cells spanned by a nodal array."""
    grads = _cell_gradient_arrays(values, h)
    q = sum(g * g for g in grads)
    return _phase_fraction(values, level) * (model.f(q) + lam)


def _above(samples: np.ndarray, level: float) -> np.ndarray:
    """Sphere samples whose u row (row 0) becomes (u - level)^+, in place."""
    np.maximum(np.subtract(samples[0], level, out=samples[0]), 0.0, out=samples[0])
    return samples


def _ball_energies(
    u: ScalarField, model: DensityModel, lam: float, level: float, balls
) -> list[float]:
    """int_{B_r(z)} [F + lam] 1{u>level} for each ball, by the cell ball rule.

    balls are the cell weights of the balls (BallCells or BallWeights); only
    their cell windows and cells are read.  The density is evaluated only on
    the window holding every ball's.  A cell's value depends on its own
    corners alone, so it is bitwise the value of cell_energy_density there;
    each ball's window is sliced at its offset.
    """
    grid = u.grid
    outer = tuple(
        slice(min(w.start for w in ws), max(w.stop for w in ws))
        for ws in zip(*(b.cell_window for b in balls))
    )
    density = _energy_density(
        u.values[tuple(slice(w.start, w.stop + 1) for w in outer)], grid.h, model, lam, level
    )
    out = []
    for bw in balls:
        win = tuple(
            slice(w.start - o.start, w.stop - o.start) for w, o in zip(bw.cell_window, outer)
        )
        out.append(float(grid.h**grid.dim * np.sum(bw.cells * density[win])))
    return out


def _sphere_rows(u: ScalarField, *extra: ScalarField) -> list[np.ndarray]:
    """The nodal arrays [u, d_1 u, ..., d_n u, extra...] of one sphere gather.

    u and extra are their fields' own values, uncopied; only the dim
    derivatives, gradient_arrays(u), are new arrays.
    """
    return [u.values, *gradient_arrays(u.values, u.grid.h), *(f.values for f in extra)]


def weiss_core(
    u: ScalarField,
    model: DensityModel,
    lam: float,
    z,
    r: float,
    *,
    level: float,
) -> float:
    """r^{-n} int_{B_r} [F + lam] 1{u>l}  -  F0 r^{-n-1} int_{dB_r} ((u - l)^+)^2, l = level."""
    grid = u.grid
    z = as_base_point(grid, z)
    bulk = _ball_energies(u, model, lam, level, [ball_cells(grid, z, r)])[0]
    _, w, samples = _sphere_samples([u.values], grid, z, r)
    return _weiss(bulk, w, _above(samples, level)[0], model.f0, r, grid.dim)


def _weiss(bulk: float, w: np.ndarray, uvals: np.ndarray, f0: float, r: float, n: int) -> float:
    """The Weiss combination of a ball integral and the sphere integral of u^2.

    w are the sphere quadrature weights and uvals the sampled u.
    """
    surf = float(np.sum(w * uvals * uvals))
    return bulk / r**n - f0 * surf / r ** (n + 1)


def _sphere_terms(
    model: DensityModel,
    z: np.ndarray,
    r: float,
    f0: float,
    pts: np.ndarray,
    w: np.ndarray,
    samples: np.ndarray,
) -> tuple[float, float]:
    """The two (u_nu - u/r) sphere integrals of the scan at one radius.

    Returns (A' formula, T):
        (2/r^n)     int_{dB_r} F'(q) (u_nu - u/r)^2,
        (2/r^{n-1}) int_{dB_r} (F'(q) - f0) (u/r^2) (u_nu - u/r),
    with q = |grad u|^2, from samples of the rows [u, grad u, ...] of
    _sphere_rows at the quadrature points pts.
    """
    n = pts.shape[1]
    uvals = samples[0]
    # one row per axis; q = |grad u|^2 and u_nu = grad u . nu add the axes in
    # order onto +0.0, bitwise np.sum over the short last axis of a point-major copy
    nu = np.subtract(pts.T, z[:, None], order="C")
    nu /= r
    q, u_nu = np.zeros(uvals.size), np.zeros(uvals.size)
    for g, nu_a in zip(samples[1 : 1 + n], nu):
        q += g * g
        u_nu += g * nu_a
    slope = model.df(q)
    formula = 2.0 / r**n * np.sum(w * slope * (u_nu - uvals / r) ** 2)
    t = 2.0 / r ** (n - 1) * np.sum(w * (slope - f0) * (uvals / r**2) * (u_nu - uvals / r))
    return float(formula), float(t)


def _sphere_terms_of(
    u: ScalarField,
    model: DensityModel,
    z,
    r: float,
    f0: float,
    level: float,
) -> tuple[float, float]:
    """_sphere_terms of (u - level)^+ on one sphere (the sphere rule checks r and the box)."""
    grid = u.grid
    z = as_base_point(grid, z)
    pts, w, samples = _sphere_samples(_sphere_rows(u), grid, z, r)
    return _sphere_terms(model, z, r, f0, pts, w, _above(samples, level))


def radial_derivative(
    u: ScalarField,
    model: DensityModel,
    z,
    r: float,
    *,
    level: float,
) -> float:
    """(2/r^n) int_{dB_r} F'(|grad u|^2) (u_nu - u/r)^2, with (u - level)^+ for u.

    A quadrature of a nonnegative integrand with positive weights: the
    result is nonnegative exactly, not just up to round-off.
    """
    return _sphere_terms_of(u, model, z, r, 0.0, level)[0]


def error_term(u: ScalarField, model: DensityModel, z, r: float, *, level: float) -> float:
    """(2/r^{n-1}) int_{dB_r} (F'(|grad u|^2) - F0) (u/r^2) (u_nu - u/r), (u - level)^+ for u."""
    return _sphere_terms_of(u, model, z, r, model.f0, level)[1]


def error_term_flux(flux: FluxField, r: float) -> float:
    """The same error term as the sphere flux r^{1-n} int_{dB_r} U . nu.

    An independent route: the integrand form evaluates slope, height and
    radial derivative separately on the sphere, while this one interpolates
    the assembled flux field.  The radius must clear the capped core for
    the two to describe the same quantity.
    """
    grid = flux.grid
    z = as_base_point(grid, flux.base_point)
    if r <= flux.cap_radius:
        raise GeometryError(
            f"radius {r} does not clear the capped core {flux.cap_radius}"
        )
    pts, w, samples = _sphere_samples(list(flux.field.values), grid, z, r)
    return _sphere_flux(z, r, pts, w, samples)


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
        raise GeometryError("radii must be positive")
    return r


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
    tol_mono: float
    violations: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in _COLUMN_ATTRS.values():
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "violations", tuple(int(i) for i in self.violations))

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return {col: getattr(self, name) for col, name in _COLUMN_ATTRS.items()}


def _is_zero(phi: ScalarField) -> bool:
    """Whether every node of phi is +-0 (a NaN counts as nonzero): the one test
    of a zero potential, read from the values as flux_field reads its slope gap."""
    return not np.any(phi.values)


def oscillation_profile(phi: ScalarField, z, radii) -> np.ndarray:
    """Mean over B_r(z) of |phi - ball mean|^2, one value per radius.

    The squared-oscillation profile: bounded across dyadic radii for
    bounded-mean-oscillation prototypes, decaying to zero at vanishing
    ones.  Radii may come in any order.  Each ball passes the ball gate; a
    phi without a nonzero node then reads no ball and gives +0.0 per radius,
    the bits its sums give (every deviation from the mean is +-0).  A ball
    that holds no subsample point has no volume and no mean; it gives +0.0
    too, the value its ball_integral takes.
    """
    grid = phi.grid
    z = as_base_point(grid, z)
    radii = np.asarray(radii, dtype=float)
    if _is_zero(phi):
        for r in radii:
            grid.require_ball_inside(z, float(r))
        return np.zeros(radii.size)
    out = []
    for r in radii:
        bw = ball_weights(grid, z, float(r))
        # ball means: the h^dim cell volume cancels between integral and volume
        vol = np.sum(bw.cells)
        if vol == 0.0:
            out.append(0.0)
            continue
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
    *,
    level: float,
) -> MonotonicityReport:
    """Evaluate the corrected quantity and its diagnostics on a radius ladder.

    level is the field's phase level (see the module docstring): the bulk
    counts the cells' fractions above it and the sphere terms read
    (u - level)^+ for u.  g must be the ghost about z with the model's
    reference slope F0 = f'(1), built at this level (ValueError otherwise).
    Flags transitions where A drops by more than tol_mono, the O(h/r_min)
    quadrature ceiling 5 (h/r_min) |A(r_max)|.  The stored violation indices
    point at the left radius of each offending pair.  The scan, the last
    reader of the point's ball ladder, empties the ball weight cache on any exit.

    Whether the potential has a nonzero node is decided once, from its
    values (a read-back ghost's iterations may say otherwise).  A zero
    potential is not sampled: its ghost_term and osc columns are the +0.0
    that the shell means and oscillation_profile give, and the bulk reads
    the ladder's cell weights, built once each outside the cache.
    """
    try:
        grid = u.grid
        z = as_base_point(grid, z)
        f0 = model.f0
        _check_ghost_contract(g, grid, z, f0, level)
        r = _validate_radii(radii)
        zero = _is_zero(g.potential)
        # the largest ball is built first, so a ladder that leaves the box fails here
        ball = ball_cells if zero else ball_weights
        bulks = _ball_energies(
            u, model, lam, level, [ball(grid, z, float(x)) for x in r[::-1]][::-1]
        )
        # one gather per radius samples u, grad u and a nonzero phi together
        rows = _sphere_rows(u) if zero else _sphere_rows(u, g.potential)
        core, gt, formula, t_col = (np.zeros(r.size) for _ in range(4))
        for i, radius in enumerate(r):
            radius = float(radius)
            pts, w, samples = _sphere_samples(rows, grid, z, radius)
            _above(samples, level)
            core[i] = _weiss(bulks[i], w, samples[0], f0, radius, grid.dim)
            if not zero:
                gt[i] = _shell_mean(w, samples[-1], radius, grid.dim)
            formula[i], t_col[i] = _sphere_terms(model, z, radius, f0, pts, w, samples)

        a = core - gt
        a_prime_fd = log_radius_derivative(a, r)
        ghost_rate = log_radius_derivative(gt, r)
        mainid_gap = a_prime_fd - formula - t_col + ghost_rate
        osc = oscillation_profile(g.potential, z, r)

        tol_mono = TOL_MONO_FACTOR * (grid.h / float(r[0])) * abs(float(a[-1]))
        violations = tuple(int(i) for i in range(r.size - 1) if a[i + 1] < a[i] - tol_mono)
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
            tol_mono=tol_mono,
            violations=violations,
        )
    finally:
        drop_ball_weights()


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
    z = as_base_point(phi.grid, z)
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 4:
        raise ValueError("need at least 4 radii")
    if np.unique(r).size < 4:
        raise ValueError("radii are degenerate")
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
