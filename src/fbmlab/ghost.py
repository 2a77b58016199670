"""Nonlinear flux field and its gradient/divergence-free splitting.

For a field u and base point z the flux

    U(x) = (f'(|grad u|^2) - F0) * (2 u / d^2) * (grad u - u (x-z) / d^2),
    d = max(|x - z|, h/2),

measures how far the density slope wanders from the reference slope
F0 = f'(1) (DensityModel.f0) along u.  A linear density makes U vanish
identically; perturbed densities produce an O(eps/d) field.  flux_field
decides once, from the slope gap f'(q) - F0, whether U is identically zero
(FluxField.is_zero); the solve and every report then return their exact
zeros without a pass over the grid.
The potential part of U is recovered by solving the weak Neumann problem on
the whole box,

    sum_a sum_edges W_a (E_a phi)(E_a psi) = sum_a sum_edges W_a Ubar_a (E_a psi)
    for all psi,

with E_a the edge differences along axis a (the minimizer's stencil),
Ubar_a the mean of U_a over each edge's two end nodes, and W_a the
trapezoid weights of the other axes.  Unlike the centered difference, the
edges see every mode but the constant, so a node-scale checkerboard in the
load is not amplified.  The system is solved directly by the Neumann
variant of fast diagonalization (see fastdiag), whose per-axis modes are
the DCT-I cosines.  The constant mode is dropped, giving a potential
whose trapezoid-rule integral is zero and a remainder U - grad(phi) that is
weakly divergence free; the remainder is never stored, it is derived from
the flux when a check needs it.  Shell averages of the potential are what
later corrects the monotonicity quantity.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from .density import DensityModel, slope_deviation
from .errors import GeometryError, SolverError
from .fastdiag import neumann_solve as fast_neumann_solve
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _interp_core,
    _node_rows,
    _shell_mean,
    _sphere_flux,
    _sphere_samples,
    ball_integral,
    edge_differences,
    edge_differences_transpose,
    gradient_arrays,
    require_positive_radius,
    sphere_quadrature,
    trapezoid_weights,
    weigh,
)

__all__ = [
    "FluxField",
    "GhostFunction",
    "FluxBoundReport",
    "StabilityReport",
    "ShellIdentityRecord",
    "flux_field",
    "flux_bound_report",
    "neumann_solve",
    "weak_divergence_residual",
    "stability_report",
    "shell_identity_report",
    "flux_reach",
    "flux_l2_profile",
]

DEFAULT_TOL = 1e-8
BOUND_SLACK = 1e-8
BASE_POINT_ATOL = 1e-12
STABILITY_EXPONENT = 1.5
SHELL_STEP_CELLS = 0.5


@dataclass(frozen=True)
class FluxField:
    """Nodewise flux U about base_point.

    is_zero records that the slope gap f'(q) - F0 has no nonzero entry, so
    U is +-0 at every node; flux_field then leaves U unassembled (field
    holds +0 everywhere), and neumann_solve and the reports return their
    exact zeros without sampling or a pass over the grid.  flux_field sets
    it; a flux built by hand keeps False and takes the full path.
    """

    field: VectorField
    base_point: tuple[float, ...]
    f0: float
    _: KW_ONLY
    is_zero: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_point", tuple(float(c) for c in self.base_point))

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def cap_radius(self) -> float:
        """The floor h/2 on the singular distance |x - z|."""
        return 0.5 * self.grid.h

    @cached_property
    def norm_sq(self) -> np.ndarray:
        """Nodewise |U|^2, computed once per flux and shared by its reports (read-only)."""
        out = np.sum(self.field.values**2, axis=-1)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class GhostFunction:
    """Potential part of the flux splitting with its solve statistics.

    residual is the checked relative residual of the weak Neumann system;
    iterations is 0 for a zero load (exact zero potential) and 1 otherwise.
    """

    potential: ScalarField
    base_point: tuple[float, ...]
    f0: float
    residual: float
    iterations: int

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    @property
    def cap_radius(self) -> float:
        """The cap h/2 of the flux this potential splits."""
        return 0.5 * self.grid.h


def _check_ghost_contract(g: GhostFunction, grid: Grid, z, f0: float) -> None:
    """Raise ValueError unless g was built on grid, about z, with reference slope f0."""
    if g.grid != grid:
        raise ValueError("ghost and field live on different grids")
    z = np.asarray(z, dtype=float)
    gz = np.asarray(g.base_point, dtype=float)
    if gz.size != z.size or np.max(np.abs(gz - z)) > BASE_POINT_ATOL:
        raise ValueError(
            f"ghost base point {g.base_point} does not match requested "
            f"{tuple(float(c) for c in z)}"
        )
    if abs(g.f0 - f0) > BASE_POINT_ATOL:
        raise ValueError(f"ghost reference slope {g.f0} does not match requested {f0}")


def _capped_distance(grid: Grid, z: np.ndarray, cap: float):
    """Open-mesh offsets x - z, the distance |x - z| and its value capped below at cap.

    The squares are summed in axis order as over a full mesh, so every
    distance has the same bits.
    """
    diffs = grid.node_offsets(z)
    d_true = np.sqrt(sum(d * d for d in diffs))
    return diffs, d_true, np.maximum(d_true, cap)


def flux_field(u: ScalarField, model: DensityModel, z) -> FluxField:
    """Nodewise flux of u about z with the singular denominator capped at h/2.

    The reference slope is the model's F0 = f'(1).  A slope gap without a
    nonzero entry makes U +-0 at every node, since u and its gradient are
    finite wherever the density accepted q; the flux is then marked is_zero
    and not assembled.
    """
    grid = u.grid
    z = np.asarray(z, dtype=float)
    if z.size != grid.dim:
        raise ValueError("base point dimension mismatch")
    if not bool(grid.contains_points(z[None, :])[0]):
        raise GeometryError(f"base point {tuple(float(c) for c in z)} outside the grid box")
    f0 = model.f0
    grads = gradient_arrays(u.values, grid.h)
    q = sum(g * g for g in grads)
    gap = model.df(q) - f0
    is_zero = not np.any(gap)
    if is_zero:
        # read-only, so the field keeps the lazily zeroed pages uncopied
        values = np.zeros(grid.node_shape + (grid.dim,))
        values.setflags(write=False)
    else:
        diffs, _, d = _capped_distance(grid, z, 0.5 * grid.h)
        lead = gap * 2.0 * u.values / (d * d)
        comps = [
            lead * (grads[a] - u.values * diffs[a] / (d * d))
            for a in range(grid.dim)
        ]
        values = np.stack(comps, axis=-1)
    return FluxField(
        field=VectorField(grid, values),
        base_point=tuple(float(c) for c in z),
        f0=f0,
        is_zero=is_zero,
    )


@dataclass(frozen=True)
class FluxBoundReport:
    max_violation: float
    eps_star: float
    lip: float
    c_lip: float
    passed: bool


def flux_bound_report(flux: FluxField, model: DensityModel, lip: float) -> FluxBoundReport:
    """Check |U(x)| * |x-z| <= eps_star * C_lip outside the capped core.

    lip is fields.lipschitz(u) of the field u the flux was built from; it
    does not depend on the base point, so one value serves every point.
    eps_star is the slope deviation of the model over the realized gradient
    range and C_lip = 2 Lip (Lip + Lip^2) collects the Lipschitz factors.
    A flux built for another density is not held to this bound and can
    fail it.
    """
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


def _flux_edges(flux: FluxField) -> list[np.ndarray]:
    """W_a Ubar_a per axis, Ubar_a the mean of U_a over each edge's two end nodes.

    Stored at the edge's lower node like edge_differences, zero on the last
    plane along the axis.
    """
    out = []
    for a in range(flux.grid.dim):
        t = np.zeros(flux.grid.node_shape)
        edges, nodes = t.swapaxes(0, a), flux.field.values[..., a].swapaxes(0, a)
        np.add(nodes[:-1], nodes[1:], out=edges[:-1])
        t *= 0.5
        out.append(weigh(t, skip=a))
    return out


def _weak_divergence(edges: list[np.ndarray], h: float, phi=None) -> np.ndarray:
    """sum_a E_a^T t_a with its mean removed, t_a = W_a Ubar_a: the Galerkin load.

    With phi, t_a - W_a E_a phi in place of t_a: the weak divergence of the
    remainder U - grad(phi).  The halvings of W_a are exact, so this is
    W_a (Ubar_a - E_a phi) to the bit.
    """
    shape = edges[0].shape
    out, work, spare = np.zeros(shape), np.empty(shape), np.empty(shape)
    for a, t in enumerate(edges):
        if phi is not None:
            t = np.subtract(t, weigh(edge_differences(phi, a, h, out=work), skip=a), out=work)
        out += edge_differences_transpose(t, a, h, out=spare)
    out -= out.mean()
    return out


def _relative_residual(edges, b: np.ndarray, phi: np.ndarray, h: float) -> float:
    """||P(b - A phi)|| / ||P b||, the weak divergence of U - grad(phi) over the load.

    b = _weak_divergence(edges, h); P removes the constant mode.  A zero load
    returns the absolute norm.
    """
    r_norm = float(np.linalg.norm(_weak_divergence(edges, h, phi)))
    b_norm = float(np.linalg.norm(b))
    return r_norm / b_norm if b_norm else r_norm


def neumann_solve(flux: FluxField, tol: float = DEFAULT_TOL) -> GhostFunction:
    """Potential, with zero trapezoid-rule mean, whose gradient is the flux's gradient part.

    The weak Neumann system (natural boundary condition taken from the flux
    itself) is singular with constant nullspace; it is solved directly by
    fast diagonalization and the true residual is checked against tol.
    A zero flux or a zero load short-circuits to an exactly zero potential
    in 0 iterations; a zero flux skips assembling the load as well.
    """
    grid = flux.grid
    if not flux.is_zero:
        edges = _flux_edges(flux)
        b = _weak_divergence(edges, grid.h)
    if flux.is_zero or float(np.linalg.norm(b)) == 0.0:
        phi, res, it = np.zeros(grid.node_shape), 0.0, 0
    else:
        phi = fast_neumann_solve(b, grid.h)
        res, it = _relative_residual(edges, b, phi, grid.h), 1
        if not res <= tol:
            raise SolverError(
                f"Neumann solve residual {res:.3e} exceeds tol {tol:.1e}"
            )
    phi.setflags(write=False)  # the potential keeps phi (and zero pages) uncopied
    return GhostFunction(
        potential=ScalarField(grid, phi),
        base_point=flux.base_point,
        f0=flux.f0,
        residual=res,
        iterations=it,
    )


def weak_divergence_residual(flux: FluxField, g: GhostFunction) -> float:
    """Weak divergence of the remainder U - grad(phi), relative to the load.

    Assembles the same Galerkin functional the solve uses; the value is the
    norm of sum_a E_a^T(W_a (Ubar_a - E_a phi)) over the norm of
    sum_a E_a^T(W_a Ubar_a), both with the constant mode removed.  Zero flux
    returns the absolute norm, 0 for the zero potential.  g must be the
    potential of this flux.
    """
    _check_ghost_contract(g, flux.grid, flux.base_point, flux.f0)
    edges = _flux_edges(flux)
    b = _weak_divergence(edges, flux.grid.h)
    return _relative_residual(edges, b, g.potential.values, flux.grid.h)


@dataclass(frozen=True)
class StabilityReport:
    phi_norm: float
    flux_norm: float
    ratio: float
    s: float


def stability_report(flux: FluxField, g: GhostFunction) -> StabilityReport:
    """W^{1,s} norm of the potential over the L^s norm of the flux, s = STABILITY_EXPONENT.

    The ratio tracks the stability constant of the splitting; it is a
    regression statistic, not an asserted bound.  s lies strictly between 1
    and the dimension.  g must be the potential of this flux.
    """
    _check_ghost_contract(g, flux.grid, flux.base_point, flux.f0)
    grid = g.grid
    s = STABILITY_EXPONENT
    if flux.is_zero:
        return StabilityReport(phi_norm=0.0, flux_norm=0.0, ratio=0.0, s=s)
    w = trapezoid_weights(grid.node_shape)
    cell = grid.h**grid.dim
    phi = g.potential.values
    dphi = np.sqrt(sum(d * d for d in gradient_arrays(phi, grid.h)))
    phi_norm = float((cell * np.sum(w * (np.abs(phi) ** s + dphi**s))) ** (1.0 / s))
    mag = np.sqrt(flux.norm_sq)
    flux_norm = float((cell * np.sum(w * mag**s)) ** (1.0 / s))
    ratio = phi_norm / flux_norm if flux_norm > 0.0 else 0.0
    return StabilityReport(phi_norm=phi_norm, flux_norm=flux_norm, ratio=ratio, s=s)


@dataclass(frozen=True)
class ShellIdentityRecord:
    r: float
    flux_side: float
    potential_side: float
    gap: float


def shell_identity_report(flux: FluxField, g: GhostFunction, radii) -> list[ShellIdentityRecord]:
    """Flux through spheres against the radial derivative of shell averages.

    Compares r^{1-n} * surface integral of U . nu with the centered finite
    difference of shell_average(potential) in r, with step
    dr = SHELL_STEP_CELLS * h.  The remainder drops out of the flux side
    because its weak divergence vanishes.  g must be the potential of this
    flux.  A zero flux samples nothing: every side is the +0.0 its sphere
    sums would give, after the same radius checks.
    """
    _check_ghost_contract(g, flux.grid, flux.base_point, flux.f0)
    grid = g.grid
    z = np.asarray(g.base_point, dtype=float)
    dr = SHELL_STEP_CELLS * grid.h
    if not flux.is_zero:
        flux_rows = _node_rows(flux.field.values, flux.grid)
        phi_rows = _node_rows(g.potential.values, grid)
    out = []
    for r in radii:
        r = float(r)
        grid.require_ball_inside(z, r + dr)
        if flux.is_zero:
            for rad in (r, r + dr, r - dr):
                require_positive_radius(rad)
            flux_side = hi = lo = 0.0
        else:
            pts, wts, samples = _sphere_samples(flux_rows, flux.grid, z, r)
            flux_side = _sphere_flux(z, r, pts, wts, samples)
            # both shifted shells in one gather
            pts_hi, w_hi = sphere_quadrature(grid.dim, z, r + dr)
            pts_lo, w_lo = sphere_quadrature(grid.dim, z, r - dr)
            phi = _interp_core(phi_rows, grid, np.concatenate([pts_hi, pts_lo]))[0]
            m = w_hi.size
            hi = _shell_mean(w_hi, phi[:m], r + dr, grid.dim)
            lo = _shell_mean(w_lo, phi[m:], r - dr, grid.dim)
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


def flux_reach(flux: FluxField) -> float:
    """max |U(x)| * |x - z| over nodes outside the capped core (0.0 for a zero flux)."""
    if flux.is_zero:
        return 0.0
    grid = flux.grid
    z = np.asarray(flux.base_point, dtype=float)
    _, d_true, _ = _capped_distance(grid, z, flux.cap_radius)
    mag = np.sqrt(flux.norm_sq)
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
    if not flux.is_zero:
        mag2 = ScalarField(grid, flux.norm_sq)
    out = []
    for r in radii:
        r = float(r)
        if flux.is_zero:
            # the ball must fit all the same; its integral of +0 is 0.0
            grid.require_ball_inside(z, r)
            integral = 0.0
        else:
            integral = ball_integral(mag2, z, r)
        out.append((r, float(integral / r)))
    return out
