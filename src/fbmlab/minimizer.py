"""Discrete local minimizers of the smoothed one-phase energy.

The energy of a nodal field u is

    E(u) = sum_cells [ f(|grad u|^2) + lam * H_eps(u) ] * h^dim

with cell values obtained by corner averaging of the nodal integrand, which
is the same thing as a trapezoid-weighted nodal sum.  H_eps is a piecewise
linear ramp standing in for the positivity indicator; its width eps defaults
to two grid spacings so the smeared band vanishes under refinement.

The descent direction is the exact discrete adjoint of the energy, so the
analytic gradient matches finite differences of E to round-off and Armijo
line search inherits a true descent guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DensityModel, bernoulli_lambda
from .errors import GeometryError, SolverError
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    gradient_arrays,
    gradient_transpose,
    trapezoid_weights,
)

__all__ = [
    "BOUNDARY_KINDS",
    "BoundaryData",
    "Problem",
    "MinimizeReport",
    "energy",
    "energy_gradient",
    "minimize",
    "initial_guess",
    "domain_variation_residual",
]

BOUNDARY_KINDS = ("halfplane", "radial", "wedge", "file")

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class BoundaryData:
    """Named generator for boundary (and initial) data.

    kinds:
      halfplane: u = max(x . e, 0) for the unit direction e.
      radial:    u = |x - c|, the distance cone about c.
      wedge:     2D sector of opening `angle` about the +x axis,
                 u = r cos(theta pi / angle) inside, 0 outside; angle = pi
                 reduces to halfplane((1, 0)).
      file:      nodal values read back from a stored field.
    """

    kind: str
    direction: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None
    angle: float | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in BOUNDARY_KINDS:
            raise ValueError(f"kind must be one of {BOUNDARY_KINDS}, got {self.kind!r}")
        if self.kind == "halfplane":
            e = () if self.direction is None else tuple(float(c) for c in self.direction)
            if not (all(np.isfinite(e)) and any(c != 0.0 for c in e)):
                raise ValueError("direction must be a finite nonzero vector")
            object.__setattr__(self, "direction", e)
        elif self.kind == "radial":
            c = () if self.center is None else tuple(float(v) for v in self.center)
            if not (c and all(np.isfinite(c))):
                raise ValueError("center must be a finite point")
            object.__setattr__(self, "center", c)
        elif self.kind == "wedge":
            if self.angle is None or not 0.0 < self.angle < 2.0 * np.pi:
                raise ValueError("angle must lie in (0, 2 pi)")
        elif self.kind == "file":
            if not self.path:
                raise ValueError("path must name a stored field")

    def profile(self, grid: Grid) -> np.ndarray:
        """Evaluate the generator at every grid node.

        The dimension checks live in Problem, which pairs data with a grid.
        """
        mesh = grid.node_mesh()
        if self.kind == "halfplane":
            e = np.asarray(self.direction, dtype=float)
            e = e / np.linalg.norm(e)
            plane = sum(e[a] * mesh[a] for a in range(grid.dim))
            return np.maximum(plane, 0.0)
        if self.kind == "radial":
            c = np.asarray(self.center, dtype=float)
            return np.sqrt(sum((mesh[a] - c[a]) ** 2 for a in range(grid.dim)))
        if self.kind == "wedge":
            r = np.hypot(mesh[0], mesh[1])
            theta = np.arctan2(mesh[1], mesh[0])
            inside = np.abs(theta) < 0.5 * self.angle
            return np.where(inside, r * np.cos(theta * np.pi / self.angle), 0.0)
        from .fieldio import read_field

        f, _ = read_field(self.path)
        if f.grid != grid:
            raise ValueError(f"stored field grid does not match: {self.path}")
        return np.array(f.values)


@dataclass(frozen=True)
class Problem:
    """One minimization instance: geometry, density model, weights.

    The box boundary nodes are pinned to the boundary data (fixed_mask).
    """

    grid: Grid
    model: DensityModel
    boundary: BoundaryData
    lam: float | None = None
    eps: float | None = None
    fixed_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dim, b = self.grid.dim, self.boundary
        if b.kind == "halfplane" and len(b.direction) != dim:
            raise ValueError(f"direction must have {dim} components, got {len(b.direction)}")
        if b.kind == "radial" and len(b.center) != dim:
            raise ValueError(f"center must have {dim} coordinates, got {len(b.center)}")
        if b.kind == "wedge" and dim != 2:
            raise ValueError("wedge data is two dimensional only")
        if self.lam is None:
            object.__setattr__(self, "lam", bernoulli_lambda(self.model))
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.eps is None:
            object.__setattr__(self, "eps", 2.0 * self.grid.h)
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        mask = self.grid.boundary_mask()
        mask.setflags(write=False)
        object.__setattr__(self, "fixed_mask", mask)


@dataclass
class MinimizeReport:
    iterations: int
    final_energy: float
    gradient_norm: float
    step_history: list[float]
    converged: bool
    energy_history: list[float]
    lipschitz: float
    stop_reason: str


def _ramp(t: np.ndarray, eps: float) -> np.ndarray:
    return np.clip(t / eps, 0.0, 1.0)


def _ramp_slope(t: np.ndarray, eps: float) -> np.ndarray:
    return np.where((t > 0.0) & (t < eps), 1.0 / eps, 0.0)


def _require_on_grid(p: Problem, u: ScalarField) -> None:
    if u.grid != p.grid:
        raise ValueError("field does not live on the problem grid")


def _derivatives(values: np.ndarray, h: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Nodal derivatives of values and the squared gradient modulus q."""
    with np.errstate(over="ignore", invalid="ignore"):
        grads = gradient_arrays(values, h)
        q = sum(g * g for g in grads)
    return grads, q


def _energy_core(
    p: Problem, values: np.ndarray, w: np.ndarray
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Energy of values, with the derivatives it used (for the gradient)."""
    grads, q = _derivatives(values, p.grid.h)
    if not np.all(np.isfinite(q)):
        # overflowing iterate; report +inf instead of tripping the model
        return float("inf"), grads, q
    integrand = p.model.f(q) + p.lam * _ramp(values, p.eps)
    return float(p.grid.h**p.grid.dim * np.sum(w * integrand)), grads, q


def energy(p: Problem, u: ScalarField) -> float:
    """Total smoothed energy of u on the problem box."""
    _require_on_grid(p, u)
    w = trapezoid_weights(p.grid.node_shape)
    return _energy_core(p, u.values, w)[0]


def _gradient_core(
    p: Problem,
    values: np.ndarray,
    w: np.ndarray,
    grads: list[np.ndarray],
    q: np.ndarray,
) -> np.ndarray:
    """Energy gradient at values, given its derivatives grads and q."""
    h = p.grid.h
    slope = p.model.df(q)
    out = np.zeros_like(values)
    for axis, g in enumerate(grads):
        out += gradient_transpose(2.0 * w * slope * g, axis, h)
    out += w * p.lam * _ramp_slope(values, p.eps)
    out[p.fixed_mask] = 0.0
    return out


def energy_gradient(p: Problem, u: ScalarField) -> ScalarField:
    """Nodal energy gradient G with <G, v> h^dim the first variation of E.

    G realizes -2 div(f'(|grad u|^2) grad u) + lam H_eps'(u) through the
    exact adjoint of the discrete derivative, and is zeroed on fixed nodes.
    """
    _require_on_grid(p, u)
    w = trapezoid_weights(p.grid.node_shape)
    grads, q = _derivatives(u.values, p.grid.h)
    return ScalarField(p.grid, _gradient_core(p, u.values, w, grads, q))


def default_step(p: Problem) -> float:
    # explicit-descent stability scale for diffusion coefficient <= 2 C0
    return p.grid.h**2 / (8.0 * p.grid.dim * p.model.C0)


def minimize(
    p: Problem,
    u0: ScalarField,
    tol: float = 1e-6,
    max_iter: int = 10_000,
    step0: float | None = None,
) -> tuple[ScalarField, MinimizeReport]:
    """Armijo gradient descent from u0; fixed nodes are never touched.

    Stops for one of three reasons, named in the report's stop_reason:

      gradient_tol: the sup-norm of the masked gradient is at most tol
                    (the only stop with converged=True);
      stalled:      the last accepted step's Armijo decrease
                    ARMIJO_C * step * h^dim |G|^2 was at most one ulp of the
                    energy, so the test no longer certified a decrease, and
                    the gradient at the new iterate still exceeds tol;
      budget:       max_iter steps were taken (max_iter = 0 never converges).

    gradient_norm is the masked gradient sup-norm at the returned iterate.
    Raises SolverError if the energy is not finite or the line search
    collapses.
    """
    _require_on_grid(p, u0)
    w = trapezoid_weights(p.grid.node_shape)
    u = u0.values.copy()
    e_now, grads, q = _energy_core(p, u, w)
    if not np.isfinite(e_now):
        raise SolverError("initial energy is not finite")
    cell = p.grid.h**p.grid.dim
    step = default_step(p) if step0 is None else float(step0)
    steps: list[float] = []
    energies = [e_now]
    stalled = False
    while True:
        grad = _gradient_core(p, u, w, grads, q)
        g_sup = float(np.max(np.abs(grad)))
        if len(steps) >= max_iter:
            # spent the budget; max_iter = 0 never claims convergence
            stop_reason = "gradient_tol" if max_iter > 0 and g_sup <= tol else "budget"
            break
        if g_sup <= tol:
            stop_reason = "gradient_tol"
            break
        if stalled:
            stop_reason = "stalled"
            break
        with np.errstate(over="ignore"):
            # an infinite slope estimate is fine: the line search rejects it
            gg = cell * float(np.sum(grad * grad))
        step *= 2.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = u - step * grad
            e_trial, trial_grads, trial_q = _energy_core(p, trial, w)
            if np.isfinite(e_trial) and e_trial <= e_now - ARMIJO_C * step * gg:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise SolverError("line search collapsed; energy may be diverging")
        # a required decrease below one ulp of E certifies nothing (round-off)
        stalled = ARMIJO_C * step * gg <= np.spacing(abs(e_now))
        u, e_now, grads, q = trial, e_trial, trial_grads, trial_q
        steps.append(step)
        energies.append(e_now)
    out = ScalarField(p.grid, u)
    report = MinimizeReport(
        iterations=len(steps),
        final_energy=e_now,
        gradient_norm=g_sup,
        step_history=steps,
        converged=stop_reason == "gradient_tol",
        energy_history=energies,
        lipschitz=float(np.max(np.sqrt(q))),
        stop_reason=stop_reason,
    )
    return out, report


def initial_guess(p: Problem) -> ScalarField:
    """Starting iterate: the boundary generator evaluated on every node."""
    return ScalarField(p.grid, p.boundary.profile(p.grid))


def domain_variation_residual(
    p: Problem, u: ScalarField, test_fields: list[VectorField]
) -> list[float]:
    """Inner variation residuals R(phi) certifying a variational solution.

    R(phi) = sum_cells [2 f'(|g|^2) g . (Dphi g) - (f(|g|^2) + lam H_eps(u))
    div phi] h^dim with g = grad u; a minimizer drives |R| to O(h) |phi|.
    Every test field must vanish on the box boundary.
    """
    _require_on_grid(p, u)
    h = p.grid.h
    dim = p.grid.dim
    w = trapezoid_weights(p.grid.node_shape)
    boundary = p.grid.boundary_mask()
    grads = np.stack(gradient_arrays(u.values, h), axis=-1)
    q = np.sum(grads * grads, axis=-1)
    slope = p.model.df(q)
    bulk = p.model.f(q) + p.lam * _ramp(u.values, p.eps)
    out = []
    for phi in test_fields:
        if phi.grid != p.grid:
            raise ValueError("test field does not live on the problem grid")
        if np.any(phi.values[boundary] != 0.0):
            raise GeometryError("test field support touches the box boundary")
        jac = np.stack(
            [
                np.stack(gradient_arrays(phi.values[..., i], h), axis=-1)
                for i in range(dim)
            ],
            axis=-2,
        )
        quad = np.einsum("...i,...ij,...j->...", grads, jac, grads)
        div = np.einsum("...ii->...", jac)
        integrand = 2.0 * slope * quad - bulk * div
        out.append(float(h**dim * np.sum(w * integrand)))
    return out
