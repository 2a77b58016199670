"""Nonlinear flux field and its gradient/divergence-free splitting.

For a field u and base point z the flux

    U(x) = (f'(|grad u|^2) - f0) * (2 u / d^2) * (grad u - u (x-z) / d^2),
    d = max(|x - z|, cap_radius),

measures how far the density slope wanders from the reference constant f0
along u.  A linear density makes U vanish identically; perturbed densities
produce an O(eps/d) field.  The potential part of U is recovered by solving
the weak Neumann problem on the whole box,

    sum_nodes w grad(phi) . grad(psi) = sum_nodes w U . grad(psi)  for all psi,

directly, by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6,
1964): with D the nodal derivative and w the trapezoid weights, the operator
is the Kronecker sum over axes of K_a = D_a^T diag(w_a) D_a against the
weights of the other axes, so one symmetric eigendecomposition per axis
length diagonalizes it exactly.  The constant mode is dropped, giving a
mean-zero potential and a remainder U - grad(phi) that is weakly divergence
free; the remainder is never stored, it is derived from the flux when a
check needs it.  Shell averages of the potential are what later corrects
the monotonicity quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .blowup import rescale, unit_box
from .density import DensityModel, slope_deviation
from .errors import GeometryError, SolverError
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    ball_integral,
    ball_volume,
    gradient_arrays,
    gradient_transpose,
    interpolate,
    shell_average,
    sphere_quadrature,
    trapezoid_weights,
)

__all__ = [
    "FluxField",
    "GhostFunction",
    "FluxBoundReport",
    "StabilityReport",
    "ShellIdentityRecord",
    "RadialIdentityRecord",
    "flux_field",
    "flux_bound_report",
    "neumann_solve",
    "weak_divergence_residual",
    "stability_report",
    "shell_identity_report",
    "radial_identity_report",
    "rescaled_flux",
    "flux_reach",
    "flux_l2_profile",
]

DEFAULT_TOL = 1e-8
BOUND_SLACK = 1e-8


@dataclass(frozen=True)
class FluxField:
    field: VectorField
    base_point: tuple[float, ...]
    f0: float
    cap_radius: float

    def __post_init__(self) -> None:
        if not self.cap_radius > 0.0:
            raise ValueError("cap_radius must be positive")
        object.__setattr__(self, "base_point", tuple(float(c) for c in self.base_point))

    @property
    def grid(self) -> Grid:
        return self.field.grid


@dataclass(frozen=True)
class GhostFunction:
    """Potential part of the flux splitting with its solve statistics.

    residual is the checked relative residual of the weak Neumann system;
    iterations is 0 for a zero load (exact zero potential) and 1 otherwise.
    """

    potential: ScalarField
    base_point: tuple[float, ...]
    f0: float
    cap_radius: float
    residual: float
    iterations: int

    @property
    def grid(self) -> Grid:
        return self.potential.grid


def _capped_distance(grid: Grid, z: np.ndarray, cap: float):
    mesh = grid.node_mesh()
    diffs = [mesh[a] - z[a] for a in range(grid.dim)]
    d_true = np.sqrt(sum(d * d for d in diffs))
    return diffs, d_true, np.maximum(d_true, cap)


def flux_field(
    u: ScalarField,
    model: DensityModel,
    z,
    f0: float | None = None,
    cap_radius: float | None = None,
) -> FluxField:
    """Nodewise flux of u about z with the singular denominator capped."""
    grid = u.grid
    z = np.asarray(z, dtype=float)
    if z.size != grid.dim:
        raise ValueError("base point dimension mismatch")
    if not bool(grid.contains_points(z[None, :])[0]):
        raise GeometryError(f"base point {tuple(float(c) for c in z)} outside the grid box")
    if f0 is None:
        f0 = float(model.df(1.0))
    if cap_radius is None:
        cap_radius = 0.5 * grid.h
    if not cap_radius > 0.0:
        raise ValueError("cap_radius must be positive")
    grads = gradient_arrays(u.values, grid.h)
    q = sum(g * g for g in grads)
    gap = model.df(q) - f0
    diffs, _, d = _capped_distance(grid, z, cap_radius)
    lead = gap * 2.0 * u.values / (d * d)
    comps = [
        lead * (grads[a] - u.values * diffs[a] / (d * d))
        for a in range(grid.dim)
    ]
    return FluxField(
        field=VectorField(grid, np.stack(comps, axis=-1)),
        base_point=tuple(float(c) for c in z),
        f0=float(f0),
        cap_radius=float(cap_radius),
    )


@dataclass(frozen=True)
class FluxBoundReport:
    max_violation: float
    eps_star: float
    lip: float
    c_lip: float
    passed: bool


def flux_bound_report(flux: FluxField, model: DensityModel, u: ScalarField) -> FluxBoundReport:
    """Check |U(x)| * |x-z| <= eps_star * C_lip outside the capped core.

    eps_star is the slope deviation of the model over the realized gradient
    range and C_lip = 2 Lip (Lip + Lip^2) collects the Lipschitz factors.
    The check fails when the flux reference constant f0 is not f'(1).
    """
    grads = gradient_arrays(u.values, u.grid.h)
    lip = float(np.max(np.sqrt(sum(g * g for g in grads))))
    eps_star = slope_deviation(model, t_hi=max(1.0, lip * lip))
    c_lip = 2.0 * lip * (lip + lip * lip)
    violation = flux_reach(flux) - eps_star * c_lip
    return FluxBoundReport(
        max_violation=violation,
        eps_star=eps_star,
        lip=lip,
        c_lip=c_lip,
        passed=violation <= BOUND_SLACK,
    )


def _weak_divergence(comps, w: np.ndarray, h: float) -> np.ndarray:
    """h^dim sum_a D_a^T(w v_a) with its mean removed: the Galerkin load of v."""
    out = np.zeros(w.shape)
    for a, v in enumerate(comps):
        out += gradient_transpose(w * v, a, h)
    out *= h ** w.ndim
    return out - out.mean()


def _relative_residual(flux: FluxField, phi: np.ndarray) -> float:
    """||P(b - A phi)|| / ||P b||: weak divergence of U - grad(phi) over the load.

    P removes the constant mode.  A zero load returns the absolute norm.
    """
    h = flux.grid.h
    w = trapezoid_weights(flux.grid.node_shape)
    u = np.moveaxis(flux.field.values, -1, 0)
    b = _weak_divergence(u, w, h)
    r = _weak_divergence([ua - da for ua, da in zip(u, gradient_arrays(phi, h))], w, h)
    b_norm = float(np.linalg.norm(b))
    r_norm = float(np.linalg.norm(r))
    if b_norm == 0.0:
        return r_norm
    return r_norm / b_norm


@lru_cache(maxsize=16)
def _axis_modes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    for arr in (forward, inverse, lam):
        arr.setflags(write=False)
    return forward, inverse, lam


def _apply_along(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, x, axes=(1, axis)), 0, axis)


def _fast_diagonal_solve(b: np.ndarray, h: float) -> np.ndarray:
    """Minimum-norm solve of the weak Neumann system for a load b.

    phi = W^{-1/2} (x Q_a) (sum Lambda_a)^+ (x Q_a)^T W^{-1/2} b / h^dim,
    with Lambda_a the spacing-h eigenvalues (the h = 1 ones over h^2),
    applied one axis at a time; the constant mode's coefficient is zeroed.
    """
    modes = [_axis_modes(m) for m in b.shape]
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


def neumann_solve(flux: FluxField, tol: float = DEFAULT_TOL) -> GhostFunction:
    """Mean-zero potential whose gradient is the flux's gradient part.

    The weak Neumann system (natural boundary condition taken from the flux
    itself) is singular with constant nullspace; it is solved directly by
    fast diagonalization and the true residual is checked against tol.
    A zero load short-circuits to an exactly zero potential in 0 iterations.
    """
    grid = flux.grid
    w = trapezoid_weights(grid.node_shape)
    b = _weak_divergence(np.moveaxis(flux.field.values, -1, 0), w, grid.h)
    if float(np.linalg.norm(b)) == 0.0:
        phi, res, it = np.zeros(grid.node_shape), 0.0, 0
    else:
        phi = _fast_diagonal_solve(b, grid.h)
        phi -= phi.mean()
        res, it = _relative_residual(flux, phi), 1
        if not res <= tol:
            raise SolverError(
                f"Neumann solve residual {res:.3e} exceeds tol {tol:.1e}"
            )
    return GhostFunction(
        potential=ScalarField(grid, phi),
        base_point=flux.base_point,
        f0=flux.f0,
        cap_radius=flux.cap_radius,
        residual=res,
        iterations=it,
    )


def weak_divergence_residual(flux: FluxField, g: GhostFunction) -> float:
    """Weak divergence of the remainder U - grad(phi), relative to the load.

    Assembles the same Galerkin functional the solve uses; the value is the
    norm of sum_a D^T(w (U_a - D_a phi)) over the norm of sum_a D^T(w U_a),
    both with the constant mode removed.  Zero flux returns the absolute
    norm, 0 for the zero potential.
    """
    if g.grid != flux.grid:
        raise ValueError("ghost and flux live on different grids")
    return _relative_residual(flux, g.potential.values)


@dataclass(frozen=True)
class StabilityReport:
    phi_norm: float
    flux_norm: float
    ratio: float
    s: float


def stability_report(flux: FluxField, g: GhostFunction, s: float = 1.5) -> StabilityReport:
    """W^{1,s} norm of the potential over the L^s norm of the flux.

    The ratio tracks the stability constant of the splitting; it is a
    regression statistic, not an asserted bound.  s must sit strictly
    between 1 and the dimension.
    """
    grid = g.grid
    if not 1.0 < s < grid.dim:
        raise ValueError(f"s must lie in (1, {grid.dim}), got {s}")
    w = trapezoid_weights(grid.node_shape)
    cell = grid.h**grid.dim
    phi = g.potential.values
    dphi = np.sqrt(sum(d * d for d in gradient_arrays(phi, grid.h)))
    phi_norm = float((cell * np.sum(w * (np.abs(phi) ** s + dphi**s))) ** (1.0 / s))
    mag = np.sqrt(np.sum(flux.field.values**2, axis=-1))
    flux_norm = float((cell * np.sum(w * mag**s)) ** (1.0 / s))
    ratio = phi_norm / flux_norm if flux_norm > 0.0 else 0.0
    return StabilityReport(phi_norm=phi_norm, flux_norm=flux_norm, ratio=ratio, s=s)


@dataclass(frozen=True)
class ShellIdentityRecord:
    r: float
    flux_side: float
    potential_side: float
    gap: float


def shell_identity_report(
    flux: FluxField, g: GhostFunction, radii, dr: float | None = None
) -> list[ShellIdentityRecord]:
    """Flux through spheres against the radial derivative of shell averages.

    Compares r^{1-n} * surface integral of U . nu with the centered finite
    difference of shell_average(potential) in r.  The remainder drops out of
    the flux side because its weak divergence vanishes.
    """
    grid = g.grid
    z = np.asarray(g.base_point, dtype=float)
    if dr is None:
        dr = 0.5 * grid.h
    out = []
    for r in radii:
        r = float(r)
        grid.require_ball_inside(z, r + dr)
        pts, wts = sphere_quadrature(grid.dim, z, r)
        nu = (pts - z[None, :]) / r
        uvals = interpolate(flux.field, pts)
        flux_side = float(r ** (1 - grid.dim) * np.sum(wts * np.sum(uvals * nu, axis=-1)))
        hi = shell_average(g.potential, z, r + dr)
        lo = shell_average(g.potential, z, r - dr)
        potential_side = (hi - lo) / (2.0 * dr)
        out.append(
            ShellIdentityRecord(
                r=r,
                flux_side=flux_side,
                potential_side=potential_side,
                gap=flux_side - potential_side,
            )
        )
    return out


@dataclass(frozen=True)
class RadialIdentityRecord:
    r: float
    average_derivative: float
    radial_average: float
    gap: float


def radial_identity_report(
    flux: FluxField,
    g: GhostFunction,
    radii,
    dr: float | None = None,
) -> list[RadialIdentityRecord]:
    """Ball-average derivative of the potential against radial flux averages.

    The right hand side averages U . (x-z)/r over the ball, the form that
    closes the identity in the continuum; the gap is reported, not asserted.
    """
    grid = g.grid
    z = np.asarray(g.base_point, dtype=float)
    if dr is None:
        dr = grid.h
    mesh = grid.node_mesh()
    diffs = [mesh[a] - z[a] for a in range(grid.dim)]
    radial = sum(flux.field.values[..., a] * diffs[a] for a in range(grid.dim))

    def ball_mean(f: ScalarField, r: float) -> float:
        return ball_integral(f, z, r) / ball_volume(grid, z, r)

    out = []
    for r in radii:
        r = float(r)
        grid.require_ball_inside(z, r + dr)
        rhs = ball_mean(ScalarField(grid, radial / r), r)
        hi = ball_mean(g.potential, r + dr)
        lo = ball_mean(g.potential, r - dr)
        lhs = (hi - lo) / (2.0 * dr)
        out.append(
            RadialIdentityRecord(
                r=r, average_derivative=lhs, radial_average=rhs, gap=lhs - rhs
            )
        )
    return out


def rescaled_flux(
    u: ScalarField,
    model: DensityModel,
    z,
    theta: float,
    f0: float | None = None,
    ref_cells: int | None = None,
) -> FluxField:
    """Flux of the rescaled field u(z + theta y)/theta on the unit box.

    Algebraically this equals theta * U(z + theta y); the reach statistic
    max |U_theta| * |y| is therefore expected to be theta-independent.
    """
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    grid = u.grid
    if ref_cells is None:
        ref_cells = int(min(grid.n_cells))
    ref = unit_box(grid.dim, ref_cells)
    v = rescale(u, z, theta, ref)
    return flux_field(
        v,
        model,
        (0.0,) * grid.dim,
        f0=f0,
        cap_radius=0.5 * ref.h,
    )


def flux_reach(flux: FluxField) -> float:
    """max |U(x)| * |x - z| over nodes outside the capped core."""
    grid = flux.grid
    z = np.asarray(flux.base_point, dtype=float)
    _, d_true, _ = _capped_distance(grid, z, flux.cap_radius)
    mag = np.sqrt(np.sum(flux.field.values**2, axis=-1))
    outside = d_true > flux.cap_radius
    if not np.any(outside):
        return 0.0
    return float(np.max(mag[outside] * d_true[outside]))


def flux_l2_profile(flux: FluxField, radii) -> list[tuple[float, float]]:
    """(1/r) * integral of |U|^2 over B_r(z) for each radius.

    This is the normalized flux energy of the smallness hypothesis in the
    blow-up analysis; reported for inspection, never asserted against the
    non-constructive smallness constant.
    """
    grid = flux.grid
    z = np.asarray(flux.base_point, dtype=float)
    mag2 = ScalarField(grid, np.sum(flux.field.values**2, axis=-1))
    out = []
    for r in radii:
        r = float(r)
        out.append((r, float(ball_integral(mag2, z, r) / r)))
    return out
