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

A ghost file (write_ghost, read_ghost) is the potential's field pair whose
sidecar meta block holds the contract GHOST_META_KEYS and, from a stage,
the full report; read_ghost admits only a whole contract whose cap is h/2.

Grid-array budget (one array is a float64 per node; the flux is dim of
them, one contiguous array per component).  flux_field works in two more:
q, turned in place into the slope gap and the lead factor, and one for each
derivative and then d^2; component a is built in values[a] in the
formula's operation order, its d_a u taken again into values[a + 1] (the
last into the spent d^2).  The load and the residual take three arrays,
assembled one axis at a time from U; the solve works in the load's array
plus one; the norms and the reach stream through two, and
FluxField.norm_sq keeps one.  The sphere samples read the components in
place.  On 41^3 nodes stage_ghost stays within 9 arrays above its entry
and flux_field within 6.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

import numpy as np

from .density import DensityModel, slope_deviation
from .errors import GeometryError, SolverError
from .fastdiag import neumann_solve as fast_neumann_solve
from .fieldio import FINITE, INTEGER, NUMBER, NUMBERS, check_keys, read_field, write_field
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _interp_core,
    _shell_mean,
    _sphere_flux,
    as_base_point,
    axis_derivative,
    ball_integral,
    edge_differences,
    edge_differences_transpose,
    gradient_square,
    require_positive_radius,
    sphere_quadrature,
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
    "GHOST_META_KEYS",
    "write_ghost",
    "read_ghost",
]

DEFAULT_TOL = 1e-8
BOUND_SLACK = 1e-8
BASE_POINT_ATOL = 1e-12
STABILITY_EXPONENT = 1.5
SHELL_STEP_CELLS = 0.5
GHOST_META_KEYS = {"base_point": NUMBERS, "f0": FINITE, "cap_radius": NUMBER,
                   "residual": FINITE, "iterations": INTEGER, "level": FINITE}


def _cap(grid: Grid) -> float:
    """The cap h/2, the floor on the singular distance |x - z| of every flux."""
    return 0.5 * grid.h


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
        return _cap(self.grid)

    @cached_property
    def norm_sq(self) -> np.ndarray:
        """Nodewise |U|^2, shared by the reports: squares added in axis order (read-only)."""
        out, work = np.zeros(self.grid.node_shape), np.empty(self.grid.node_shape)
        for c in self.field.values:
            out += np.multiply(c, c, out=work)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class GhostFunction:
    """Potential part of the flux splitting with its solve statistics.

    residual is the checked relative residual of the weak Neumann system;
    iterations is 0 for a zero load (exact zero potential) and 1 otherwise.
    level is the phase level l of the (u - l)^+ whose flux it splits (0 by default).
    """

    potential: ScalarField
    base_point: tuple[float, ...]
    f0: float
    residual: float
    iterations: int
    level: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    @property
    def cap_radius(self) -> float:
        """The cap h/2 of the flux this potential splits."""
        return _cap(self.grid)


def _check_ghost_contract(g: GhostFunction, grid: Grid, z, f0: float, level=None) -> None:
    """Raise ValueError unless g was built on grid, about z, with slope f0, at level if given."""
    if g.grid != grid:
        raise ValueError("ghost and field live on different grids")
    z = np.asarray(z, dtype=float)
    gz = np.asarray(g.base_point, dtype=float)
    # written as not (gap <= atol), so a NaN gap fails the contract
    if gz.size != z.size or not np.max(np.abs(gz - z)) <= BASE_POINT_ATOL:
        raise ValueError(
            f"ghost base point {g.base_point} does not match requested "
            f"{tuple(float(c) for c in z)}"
        )
    if not abs(g.f0 - f0) <= BASE_POINT_ATOL:
        raise ValueError(f"ghost reference slope {g.f0} does not match requested {f0}")
    if level is not None and not abs(g.level - level) <= BASE_POINT_ATOL:
        raise ValueError(f"ghost phase level {g.level} does not match requested {level}")


def write_ghost(g: GhostFunction, path, report: dict | None = None) -> None:
    """Persist the potential with the ghost contract in the sidecar header.

    The sidecar JSON doubles as the ghost report: its meta block always
    carries the contract keys and, when given, the full diagnostic report.
    The divergence-free remainder U - grad(phi) is not stored: it is derived
    from the flux whenever a check needs it (see weak_divergence_residual).
    """
    meta = _ghost_contract(g)
    if report is not None:
        meta = {**meta, **report}
    write_field(g.potential, path, meta=meta)


def _ghost_contract(g: GhostFunction) -> dict:
    """The GHOST_META_KEYS of g, with the base point as a list of floats."""
    meta = {key: getattr(g, key) for key in GHOST_META_KEYS}
    meta["base_point"] = [float(c) for c in g.base_point]
    return meta


def read_ghost(path, grid: Grid | None = None) -> GhostFunction:
    """The ghost stored at path; ValueError naming path unless its contract is whole,
    of the JSON types GHOST_META_KEYS gives, with the cap h/2 of its grid.  Given
    a grid, read_field checks that the potential lives on it; whether the ghost
    belongs to a run (grid, base point, F0, level) is _check_ghost_contract's to decide."""
    phi, meta = read_field(path, grid)
    values, problems = check_keys(meta or {}, GHOST_META_KEYS, where="meta.")
    if problems:
        raise ValueError(f"{path} is not a ghost file: " + "; ".join(problems.values()))
    z, dim, cap = values["base_point"], phi.grid.dim, values["cap_radius"]
    if not (len(z) == dim and all(map(math.isfinite, z))):
        raise ValueError(f"{path}: ghost base_point must be {dim} finite numbers, got {z!r}")
    if cap != _cap(phi.grid):
        raise ValueError(f"{path}: ghost cap_radius must be h/2 = {_cap(phi.grid)!r} "
                         f"of its grid, got {cap!r}")
    return GhostFunction(phi, z, values["f0"], values["residual"], values["iterations"],
                         values["level"])


def _node_distance(grid: Grid, z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Open-mesh offsets x - z and the distance |x - z| in one grid array.

    The squares are summed in axis order as over a full mesh, so every
    distance has the same bits.
    """
    diffs = grid.node_offsets(z)
    squares = [d * d for d in diffs]
    dist = np.add(sum(squares[:-1]), squares[-1])
    return diffs, np.sqrt(dist, out=dist)


def flux_field(u: ScalarField, model: DensityModel, z) -> FluxField:
    """Nodewise flux of u about z with the singular denominator capped at h/2.

    The reference slope is the model's F0 = f'(1).  A slope gap without a
    nonzero entry makes U +-0 at every node, since u and its gradient are
    finite wherever the density accepted q; the flux is then marked is_zero
    and not assembled.  The build order is the module's grid-array budget.
    """
    grid = u.grid
    z = as_base_point(grid, z)
    if not bool(grid.balls_inside(z, 0.0)[0]):
        raise GeometryError(f"base point {tuple(float(c) for c in z)} outside the grid box")
    f0 = model.f0
    h, dim = grid.h, grid.dim
    lead = gradient_square(u.values, h, np.empty(grid.node_shape), np.empty(grid.node_shape))
    np.subtract(model.df(lead, out=lead), f0, out=lead)
    is_zero = not np.any(lead)
    if is_zero:
        values = np.zeros((dim,) + grid.node_shape)
    else:
        diffs, d2 = _node_distance(grid, z)
        np.square(np.maximum(d2, _cap(grid), out=d2), out=d2)
        lead *= 2.0
        lead *= u.values
        lead /= d2
        values = np.empty((dim,) + grid.node_shape)
        for a in range(dim):
            comp = np.multiply(u.values, diffs[a], out=values[a])
            comp /= d2
            slot = values[a + 1] if a + 1 < dim else d2
            np.subtract(axis_derivative(u.values, a, h, slot, slot.reshape(-1)), comp, out=comp)
            np.multiply(lead, comp, out=comp)
    # read-only, so the field keeps the array (or the lazily zeroed pages) uncopied
    values.setflags(write=False)
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

    lip is u.lipschitz of the field u the flux was built from; it does not
    depend on the base point, so one value serves every point.
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


def _weak_divergence(flux: FluxField, phi=None) -> np.ndarray:
    """sum_a E_a^T t_a with its mean removed, t_a = W_a Ubar_a: the Galerkin load.

    Ubar_a is the mean of U_a over each edge's two end nodes, stored at the
    edge's lower node like edge_differences and zero on the last plane along
    the axis.  With phi, t_a - W_a E_a phi in place of t_a: the weak
    divergence of the remainder U - grad(phi).  The halvings of W_a are
    exact, so this is W_a (Ubar_a - E_a phi) to the bit.
    """
    grid = flux.grid
    out, t, work = np.zeros(grid.node_shape), np.empty(grid.node_shape), np.empty(grid.node_shape)
    for a in range(grid.dim):
        edges, nodes = t.swapaxes(0, a), flux.field.values[a].swapaxes(0, a)
        np.add(nodes[:-1], nodes[1:], out=edges[:-1])
        edges[-1] = 0.0
        t *= 0.5
        weigh(t, skip=a)
        if phi is not None:
            np.subtract(t, weigh(edge_differences(phi, a, grid.h, out=work), skip=a), out=t)
        out += edge_differences_transpose(t, a, grid.h, out=work)
    out -= out.mean()
    return out


def neumann_solve(flux: FluxField, tol: float = DEFAULT_TOL) -> GhostFunction:
    """Potential, with zero trapezoid-rule mean, whose gradient is the flux's gradient part.

    The weak Neumann system (natural boundary condition taken from the flux
    itself) is singular with constant nullspace; it is solved directly by
    fast diagonalization and the true residual is checked against tol.
    A zero flux or a zero load short-circuits to an exactly zero potential
    in 0 iterations; a zero flux skips assembling the load as well.
    """
    grid = flux.grid
    b = None if flux.is_zero else _weak_divergence(flux)
    b_norm = 0.0 if b is None else float(np.linalg.norm(b))
    if b_norm == 0.0:
        phi, res, it = np.zeros(grid.node_shape), 0.0, 0
    else:
        phi = fast_neumann_solve(b, grid.h)  # solved in b's own array
        res, it = float(np.linalg.norm(_weak_divergence(flux, phi))) / b_norm, 1
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
    b_norm = float(np.linalg.norm(_weak_divergence(flux)))
    r_norm = float(np.linalg.norm(_weak_divergence(flux, g.potential.values)))
    return r_norm / b_norm if b_norm else r_norm


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
    cell = grid.h**grid.dim
    work = np.sqrt(flux.norm_sq)
    flux_norm = float((cell * np.sum(weigh(np.power(work, s, out=work)))) ** (1.0 / s))
    # |grad phi|^s + |phi|^s in two arrays, weighed in place
    phi = g.potential.values
    total = gradient_square(phi, grid.h, np.empty(grid.node_shape), work)
    np.power(np.sqrt(total, out=total), s, out=total)
    total += np.power(np.abs(phi, out=work), s, out=work)
    phi_norm = float((cell * np.sum(weigh(total))) ** (1.0 / s))
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
    flux.  One gate admits the three spheres: the ball of radius r + dr, which
    holds them, must fit the box and r - dr must be positive.  A zero flux
    then samples nothing: every side is the +0.0 its sphere sums would give.
    """
    _check_ghost_contract(g, flux.grid, flux.base_point, flux.f0)
    grid = g.grid
    z = np.asarray(g.base_point, dtype=float)
    dr = SHELL_STEP_CELLS * grid.h
    out = []
    for r in radii:
        r = float(r)
        grid.require_ball_inside(z, r + dr)
        require_positive_radius(r - dr)
        if flux.is_zero:
            flux_side = hi = lo = 0.0
        else:
            pts, wts = sphere_quadrature(grid.dim, z, r)
            samples = _interp_core(list(flux.field.values), grid, pts)
            flux_side = _sphere_flux(z, r, pts, wts, samples)
            # both shifted shells in one gather
            pts_hi, w_hi = sphere_quadrature(grid.dim, z, r + dr)
            pts_lo, w_lo = sphere_quadrature(grid.dim, z, r - dr)
            phi = _interp_core([g.potential.values], grid, np.concatenate([pts_hi, pts_lo]))[0]
            m = w_hi.size
            hi = _shell_mean(w_hi, phi[:m], r + dr, grid.dim)
            lo = _shell_mean(w_lo, phi[m:], r - dr, grid.dim)
        potential_side = (hi - lo) / (2.0 * dr)
        out.append(ShellIdentityRecord(r, flux_side, potential_side, flux_side - potential_side))
    return out


def flux_reach(flux: FluxField) -> float:
    """max |U(x)| * |x - z| over nodes outside the capped core (0.0 for a zero flux)."""
    if flux.is_zero:
        return 0.0
    _, d_true = _node_distance(flux.grid, np.asarray(flux.base_point, dtype=float))
    reach = np.sqrt(flux.norm_sq)
    reach *= d_true
    # every product is >= +0, so the empty maximum 0.0 is the no-node answer
    return float(np.max(reach, where=d_true > flux.cap_radius, initial=0.0))


def flux_l2_profile(flux: FluxField, radii) -> list[tuple[float, float]]:
    """(1/r) * integral of |U|^2 over B_r(z) for each radius.

    This is the normalized flux energy of the smallness hypothesis in the
    blow-up analysis; reported for inspection, never asserted against the
    non-constructive smallness constant.  A nonzero flux meets the ball rule's
    gate in ball_integral; a zero flux passes the same gate and integrates
    nothing: its integral of +0 is 0.0.
    """
    grid = flux.grid
    z = np.asarray(flux.base_point, dtype=float)
    if not flux.is_zero:
        mag2 = ScalarField(grid, flux.norm_sq)
    out = []
    for r in radii:
        r = float(r)
        if flux.is_zero:
            grid.require_ball_inside(z, r)
        integral = 0.0 if flux.is_zero else ball_integral(mag2, z, r)
        out.append((r, float(integral / r)))
    return out
