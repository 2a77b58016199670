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

One kernel evaluates E and, from the derivatives it just computed, the
gradient.  A minimize call allocates its buffers once: two iterates (current
and trial, each with its derivatives) that swap on acceptance, the gradient
and two scratch arrays; the gradient also borrows the idle trial iterate.
No Armijo trial and no gradient allocates an array of the grid's size, and
the iterates are bitwise those of the plain formulas.
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


def _ramp(t: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    return np.clip(np.divide(t, eps, out=out), 0.0, 1.0, out=out)


def _ramp_slope(t: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    return np.multiply((t > 0.0) & (t < eps), 1.0 / eps, out=out)


def _require_on_grid(p: Problem, u: ScalarField) -> None:
    if u.grid != p.grid:
        raise ValueError("field does not live on the problem grid")


class _Iterate:
    """Nodal values and the derivatives of them the kernel last computed."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.grads = [np.empty_like(values) for _ in range(values.ndim)]
        self.q = np.empty_like(values)


class _Kernel:
    """Energy and energy gradient of one problem on buffers allocated once.

    energy(s) differentiates s.values into s.grads and s.q and returns E;
    gradient(s, out, adj, work) turns those same derivatives into the
    gradient.  Two scratch arrays serve every call, so neither allocates a
    float array of the grid's size (only boolean masks).  Each step keeps
    the operation order of the plain formulas: q = (g0^2 + g1^2) + g2^2,
    f(q) + lam H_eps(u) weighted and summed, and per axis an adjoint stencil
    built in scratch, then added.
    """

    def __init__(self, p: Problem) -> None:
        shape = p.grid.node_shape
        self.p = p
        self.w = trapezoid_weights(shape)
        self.cell = p.grid.h**p.grid.dim
        self.scratch = [np.empty(shape) for _ in range(2)]

    def differentiate(self, s: _Iterate) -> bool:
        """Fill s.grads and s.q; False if q overflowed."""
        sq = self.scratch[0]
        with np.errstate(over="ignore", invalid="ignore"):
            gradient_arrays(s.values, self.p.grid.h, out=s.grads)
            np.multiply(s.grads[0], s.grads[0], out=s.q)
            for g in s.grads[1:]:
                s.q += np.multiply(g, g, out=sq)
        return bool(np.all(np.isfinite(s.q)))

    def energy(self, s: _Iterate) -> float:
        """Energy of s.values; leaves its derivatives in s.grads and s.q."""
        p = self.p
        if not self.differentiate(s):
            # overflowing iterate; report +inf instead of tripping the model
            return float("inf")
        integrand, ramp = self.scratch[:2]
        p.model.f(s.q, out=integrand, work=ramp)
        _ramp(s.values, p.eps, out=ramp)
        ramp *= p.lam
        integrand += ramp
        integrand *= self.w
        return float(self.cell * np.sum(integrand))

    def gradient(
        self, s: _Iterate, out: np.ndarray, adj: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """Gradient at s.values from the derivatives s already holds.

        adj and work are two more arrays of the grid's shape that the call
        overwrites: minimize lends it the idle trial iterate's.
        """
        p, w = self.p, self.w
        ws, v = self.scratch
        p.model.df(s.q, out=ws)
        ws *= np.multiply(w, 2.0, out=v)
        out.fill(0.0)
        for axis, g in enumerate(s.grads):
            np.multiply(ws, g, out=v)
            out += gradient_transpose(v, axis, p.grid.h, out=adj, work=work)
        wl = np.multiply(w, p.lam, out=v)
        wl *= _ramp_slope(s.values, p.eps, out=adj)
        out += wl
        out[p.fixed_mask] = 0.0
        return out


def energy(p: Problem, u: ScalarField) -> float:
    """Total smoothed energy of u on the problem box."""
    _require_on_grid(p, u)
    return _Kernel(p).energy(_Iterate(u.values))


def energy_gradient(p: Problem, u: ScalarField) -> ScalarField:
    """Nodal energy gradient G with <G, v> h^dim the first variation of E.

    G realizes -2 div(f'(|grad u|^2) grad u) + lam H_eps'(u) through the
    exact adjoint of the discrete derivative, and is zeroed on fixed nodes.
    """
    _require_on_grid(p, u)
    kernel, s = _Kernel(p), _Iterate(u.values)
    kernel.differentiate(s)
    out, adj, work = (np.empty_like(s.values) for _ in range(3))
    return ScalarField(p.grid, kernel.gradient(s, out, adj, work))


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

    The buffers are allocated once per call: the current iterate and the
    trial one, each with its derivatives, swap roles when a trial is
    accepted, and no trial or gradient allocates an array of the grid's size.
    """
    _require_on_grid(p, u0)
    kernel = _Kernel(p)
    scratch = kernel.scratch[0]
    now = _Iterate(u0.values.copy())
    trial = _Iterate(np.empty_like(now.values))
    grad = np.empty_like(now.values)
    e_now = kernel.energy(now)
    if not np.isfinite(e_now):
        raise SolverError("initial energy is not finite")
    step = default_step(p) if step0 is None else float(step0)
    steps: list[float] = []
    energies = [e_now]
    stalled = False
    while True:
        kernel.gradient(now, grad, trial.values, trial.q)
        g_sup = float(np.max(np.abs(grad, out=scratch)))
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
            gg = kernel.cell * float(np.sum(np.multiply(grad, grad, out=scratch)))
        step *= 2.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            np.subtract(now.values, np.multiply(grad, step, out=trial.values), out=trial.values)
            e_trial = kernel.energy(trial)
            if np.isfinite(e_trial) and e_trial <= e_now - ARMIJO_C * step * gg:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise SolverError("line search collapsed; energy may be diverging")
        # a required decrease below one ulp of E certifies nothing (round-off)
        stalled = ARMIJO_C * step * gg <= np.spacing(abs(e_now))
        now, trial, e_now = trial, now, e_trial
        steps.append(step)
        energies.append(e_now)
    lipschitz = float(np.max(np.sqrt(now.q, out=scratch)))
    now.values.setflags(write=False)  # the returned field adopts it, uncopied
    report = MinimizeReport(
        iterations=len(steps),
        final_energy=e_now,
        gradient_norm=g_sup,
        step_history=steps,
        converged=stop_reason == "gradient_tol",
        energy_history=energies,
        lipschitz=lipschitz,
        stop_reason=stop_reason,
    )
    return ScalarField(p.grid, now.values), report


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
