"""Discrete local minimizers of the smoothed one-phase energy.

The energy of a nodal field u is the trapezoid-weighted nodal sum

    E(u) = sum_nodes w [ f(q) + lam * H_eps(u) ] * h^dim,
    q = sum_a A_a[(D_a u)^2],

with q the edge-quotient squared gradient of fields.edge_gradient_square:
D_a u are the edge quotients along axis a and A_a takes the mean of the
two edges at a node.  A converged minimizer of f(|centered grad u|^2)
instead settles into a staircase of two decoupled sublattices with offsets
of about h, since the centered difference cannot see (-1)^k.

H_eps is the C^1 ramp s^2 (3 - 2 s), s = clip(u / eps, 0, 1), standing in
for the positivity indicator; its width eps defaults to two grid spacings
so the smeared band vanishes under refinement.  The sharp free boundary
a minimizer approximates sits at the level ramp_free_boundary(eps).  One implementation (ramp)
gives H_eps and its first two derivatives to the energy, the gradient and
the Hessian.  The gradient and the Hessian-vector product are the exact
first and second derivatives of E, zeroed on the fixed boundary nodes.

minimize is a truncated Newton method (Nocedal & Wright, Numerical
Optimization, ch. 7.1): each step solves the Newton system inexactly by
conjugate gradients and then backtracks until the Armijo test certifies a
decrease.  The preconditioner is the nearest separable operator to the
Newton system (Concus & Golub 1973): the edge Laplacian on the interior
nodes plus the additive part of the ramp curvature, which fast
diagonalization inverts directly (Lynch, Rice & Thomas 1964).
initial_guess starts half-plane data from the ramped 1-D profile
(ramp_profile), so the Hessian sees the ramp from the first step.
The ramp is C^1, so the gradient is continuous and can reach the
tolerance; a piecewise linear ramp kept the gradient's sup-norm near
lam w / eps at its kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityModel, Kind, bernoulli_lambda
from .errors import SolverError
from .fastdiag import DirichletSolver
from .fields import (
    Grid,
    ScalarField,
    add_edge_means,
    edge_differences,
    edge_differences_transpose,
    edge_gradient_square,
    edge_means_transpose,
    face_planes,
    weigh,
)

__all__ = [
    "BOUNDARY_KINDS",
    "BoundaryData",
    "Problem",
    "MinimizeReport",
    "energy",
    "energy_gradient",
    "hessian_product",
    "minimize",
    "ramp",
    "ramp_free_boundary",
    "ramp_profile",
    "initial_guess",
]

BOUNDARY_KINDS = ("halfplane", "radial", "wedge", "file")

# the solver defaults, which Scenario takes as its own
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DEFAULT_EPS_CELLS = 2.0

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
CG_RTOL = 0.1
CG_MAX_ITER = 50
STALL_ULPS = 16


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

    def plane(self, grid: Grid) -> np.ndarray:
        """x . e at every grid node for halfplane data, e normalized."""
        e = np.asarray(self.direction, dtype=float)
        e = e / np.linalg.norm(e)
        mesh = grid.node_mesh()
        return sum(e[a] * mesh[a] for a in range(grid.dim))

    def profile(self, grid: Grid) -> np.ndarray:
        """Evaluate the generator at every grid node.

        The dimension checks live in Problem, which pairs data with a grid.
        """
        if self.kind == "halfplane":
            return np.maximum(self.plane(grid), 0.0)
        mesh = grid.node_mesh()
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

    The nodes on the box faces (fields.face_planes) are pinned to the
    boundary data.  eps defaults to DEFAULT_EPS_CELLS grid spacings.
    """

    grid: Grid
    model: DensityModel
    boundary: BoundaryData
    lam: float | None = None
    eps: float | None = None

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
            object.__setattr__(self, "eps", DEFAULT_EPS_CELLS * self.grid.h)
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


@dataclass
class MinimizeReport:
    iterations: int
    final_energy: float
    gradient_norm: float
    step_history: list[float]
    converged: bool
    energy_history: list[float]
    stop_reason: str
    cg_iterations: int
    cg_history: list[int]
    refit_steps: list[int]


def ramp(
    t: np.ndarray,
    eps: float,
    order: int = 0,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """The C^1 ramp H_eps(t) = s^2 (3 - 2 s), s = clip(t / eps, 0, 1), or a derivative.

    order 0 gives H_eps, order 1 H_eps' = 6 s (1 - s) / eps (zero outside
    (0, eps) because s is clipped), order 2 H_eps'' = 6 (1 - 2 s) / eps^2 on
    0 < t < eps and zero elsewhere; H_eps'' jumps at 0 and eps.  out
    receives the values and work holds s; with both given for an array t,
    no float array of its size is allocated.
    """
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty_like(t)
    if work is None:
        work = np.empty_like(t)
    s = np.clip(np.divide(t, eps, out=work), 0.0, 1.0, out=work)
    if order == 0:
        np.multiply(s, -2.0, out=out)
        out += 3.0
        out *= s
        out *= s
    elif order == 1:
        np.subtract(1.0, s, out=out)
        out *= s
        out *= 6.0 / eps
    else:
        np.multiply(s, -2.0, out=out)
        out += 1.0
        out *= 6.0 / (eps * eps)
        out *= (t > 0.0) & (t < eps)
    return out


# The linear density's 1-D profile is P = 1.5 eps / cosh^2 v with
# v = V1 + sqrt(3)/2 (1 - xi / eps): P = eps at v = V1, and s* = P(0) / eps
_RAMP_V1 = math.atanh(1.0 / math.sqrt(3.0))
_RAMP_EDGE = 1.5 / math.cosh(_RAMP_V1 + 0.5 * math.sqrt(3.0)) ** 2
# ramp_profile's table: v on [V1, V1 + span], so P / eps falls from 1 to 6e-11
_TAIL_NODES = 400
_TAIL_SPAN = 12.0


def ramp_free_boundary(eps: float) -> float:
    """The level s* eps (s* = 0.2593) at which a ramped minimizer's sharp free boundary sits.

    Across a flat free boundary, a minimizer of f(u'^2) + lam H_eps(u) with
    lam = psi(1) satisfies the first integral psi(u'^2) = lam H_eps(u)
    (ramp_profile): it is affine where u >= eps and below that decays
    towards 0 without reaching it, so it has no zero phase and its zero
    level is round-off.  Its affine part, the sharp half-plane profile it
    approximates, vanishes where u = s* eps.  For the linear density
    u'^2 = H_eps(u) and int_{s*}^1 ds / sqrt(s^2 (3 - 2 s)) = 1, which
    integrates in closed form to the s* above, ramp_profile(0) for that
    density.  s* belongs to this ramp's shape (ramp) and must follow it; it
    does not depend on lam.  For a curved density the profile bends slightly
    and s* is its linear-density estimate.
    """
    return _RAMP_EDGE * eps


def ramp_profile(xi: np.ndarray, model: DensityModel, eps: float) -> np.ndarray:
    """P(xi): the 1-D minimizer of f(P'^2) + lam H_eps(P) at lam = psi(1) that is xi for xi >= eps.

    Below eps, P is the tail of the first integral psi(P'^2) = lam H_eps(P),
    Bernoulli's balance with the ramp, and decays towards 0 as xi falls.
    The tail is tabulated explicitly, without inverting psi: at
    _TAIL_NODES values of t = P'^2, y = psi(t) / lam gives the level
    s = P / eps = H^{-1}(y) = 1/2 + cos((arccos(1 - 2 y) - 2 pi) / 3), the
    cubic's root in [0, 1] (here in a form without cancellation at small
    y), and xi(s) = eps - eps int_s^1 ds' / sqrt(t) by the trapezoid rule.
    The table is uniform in v = arcosh(sqrt(1.5 / s)), the variable in
    which the linear density's tail is affine (s = 1.5 / cosh^2 v): its t
    are that density's P'^2, geometric along the tail, and for it the
    trapezoid rule and the linear interpolation of v at xi are exact up to
    round-off.  Below the table's last level (P / eps = 6e-11 for the
    linear density), P = 0: far from the free boundary the start keeps the
    data's exact zero phase, where H_eps'' = 0.  A positive P there gives
    every zero-phase node the ramp's full curvature 6 lam / eps^2, which
    the preconditioner's additive part fits far worse (on 256^2
    half-planes, up to 29 CG iterations per Newton step instead of 1-2).
    """
    xi = np.asarray(xi, dtype=float)
    out = xi.copy()
    tail = xi < eps
    v = np.linspace(_RAMP_V1, _RAMP_V1 + _TAIL_SPAN, _TAIL_NODES)
    level = 1.5 / np.cosh(v) ** 2
    t = 3.0 * (level * np.tanh(v)) ** 2  # the linear density's P'^2 = H_eps at P = level eps
    y = np.minimum(model.psi(t) / bernoulli_lambda(model), 1.0)
    # with phi = arccos(1 - 2 y) / 3: 1/2 + cos(phi - 2 pi / 3) = sin^2(phi / 2) + sqrt(3)/2 sin(phi)
    phi = (2.0 / 3.0) * np.arcsin(np.sqrt(y))
    s = np.sin(0.5 * phi) ** 2 + 0.5 * math.sqrt(3.0) * np.sin(phi)
    v = np.arccosh(np.sqrt(1.5 / s))
    # -d(xi / eps)/dv = -(ds/dv) / sqrt(t), with ds/dv = -2 s tanh v
    slope = 2.0 * s * np.sqrt(1.0 - s / 1.5) / np.sqrt(t)
    table = np.empty_like(v)
    table[0] = eps
    table[1:] = eps - eps * np.cumsum(0.5 * (slope[1:] + slope[:-1]) * np.diff(v))
    at = np.interp(xi[tail], table[::-1], v[::-1], left=np.inf)
    out[tail] = 1.5 * eps / np.cosh(at) ** 2
    return out


def _ramp_support(u: np.ndarray, eps: float) -> np.ndarray:
    """The ramp's support 0 < u < eps, a new boolean array; H_eps''(u) = 0 off it."""
    return (u > 0.0) & (u < eps)


def _require_on_grid(p: Problem, u: ScalarField) -> None:
    if u.grid != p.grid:
        raise ValueError("field does not live on the problem grid")


class _Kernel:
    """Energy, gradient and Hessian-vector product of one problem.

    The squared gradient at a node is q = sum_a A_a[(D_a u)^2]: D_a u are
    the edge quotients along axis a and A_a averages the two edges at a node
    (a face node takes its one edge).  The edge quotients stream one axis at
    a time and are recomputed wherever they are read, so no method keeps dim
    of them.  Every method writes into arrays the caller owns and allocates
    no float array of the grid's size (only boolean masks and face planes).
    energy() leaves q in q; gradient() and hessian_setup() read it.
    """

    def __init__(self, p: Problem) -> None:
        self.p = p
        self.h = p.grid.h
        self.cell = p.grid.h**p.grid.dim
        self.curved = p.model.kind is not Kind.LINEAR

    def differentiate(self, u, q, work) -> bool:
        """Fill q; False if it overflowed."""
        with np.errstate(over="ignore", invalid="ignore"):
            edge_gradient_square(u, self.h, q, work)
        return bool(np.all(np.isfinite(q)))

    def energy(self, u, q, work) -> float:
        """E(u) from three work arrays; leaves q in q."""
        p = self.p
        integrand, a, b = work
        if not self.differentiate(u, q, work=a):
            # an overflowing iterate reports +inf instead of tripping the model
            return float("inf")
        p.model.f(q, out=integrand, work=a)
        integrand += np.multiply(ramp(u, p.eps, out=a, work=b), p.lam, out=a)
        return float(self.cell * np.sum(weigh(integrand)))

    def gradient(self, u, q, out, work) -> np.ndarray:
        """G = sum_a D_a^T[2 D_a u A_a^T(w f'(q))] + lam w H_eps'(u), zero on fixed nodes.

        Reads the q that energy() left for u; work is three arrays.
        """
        p, h = self.p, self.h
        ws, v, adj = work
        weigh(np.multiply(p.model.df(q, out=ws), 2.0, out=ws))
        out.fill(0.0)
        for axis in range(u.ndim):
            edge_means_transpose(ws, axis, out=v)
            v *= edge_differences(u, axis, h, out=adj)
            out += edge_differences_transpose(v, axis, h, out=adj)
        ramp(u, p.eps, order=1, out=v, work=adj)
        out += weigh(np.multiply(v, p.lam, out=v))
        for plane in face_planes(out):
            plane.fill(0.0)
        return out

    def hessian_setup(self, u, q, hcurv, fcurv, work) -> None:
        """Turn an iterate's q into the Hessian's coefficients, in place.

        q becomes 2 w f'(q), hcurv lam w H_eps''(u) and, for a curved
        density, fcurv w f''(q); the linear density's f'' is identically
        zero, so its fcurv is None and its term is skipped.
        """
        p = self.p
        if fcurv is not None:
            weigh(p.model.d2f(q, out=fcurv))
        weigh(np.multiply(p.model.df(q, out=q), 2.0, out=q))
        weigh(np.multiply(ramp(u, p.eps, order=2, out=hcurv, work=work), p.lam, out=hcurv))

    def hessian_product(self, coef, u, fcurv, hcurv, v, out, work) -> np.ndarray:
        """Hv, zero on fixed nodes, for the coefficients of hessian_setup at u.

        Hv = sum_a D_a^T[A_a^T(coef) D_a v + 2 D_a u A_a^T(fcurv dq)]
        + hcurv v, with dq = sum_b A_b[2 D_b u D_b v] the first variation of
        q along v.  work is two arrays, or four for a curved density (fcurv
        not None), whose last two hold fcurv dq and D_a u.
        """
        h = self.h
        t, x = work[0], work[1]
        if fcurv is not None:
            s, y = work[2], work[3]
            s.fill(0.0)
            for axis in range(v.ndim):
                edge_differences(u, axis, h, out=t)
                t *= edge_differences(v, axis, h, out=x)
                t *= 2.0
                add_edge_means(t, axis, s)
            s *= fcurv
        for axis in range(v.ndim):
            edge_means_transpose(coef, axis, out=t)
            t *= edge_differences(v, axis, h, out=x)
            if fcurv is not None:
                edge_means_transpose(s, axis, out=x)
                x *= edge_differences(u, axis, h, out=y)
                x *= 2.0
                t += x
            if axis == 0:
                edge_differences_transpose(t, axis, h, out=out)
            else:
                out += edge_differences_transpose(t, axis, h, out=x)
        out += np.multiply(hcurv, v, out=t)
        for plane in face_planes(out):
            plane.fill(0.0)
        return out


def _buffers(shape: tuple[int, ...], count: int) -> list[np.ndarray]:
    return [np.empty(shape) for _ in range(count)]


def energy(p: Problem, u: ScalarField) -> float:
    """Total smoothed energy of u on the problem box."""
    _require_on_grid(p, u)
    shape = p.grid.node_shape
    return _Kernel(p).energy(u.values, np.empty(shape), _buffers(shape, 3))


def energy_gradient(p: Problem, u: ScalarField) -> ScalarField:
    """Nodal energy gradient G with <G, v> h^dim the first variation of E.

    G realizes -2 div(f'(|grad u|^2) grad u) + lam H_eps'(u) through the
    exact adjoint of the discrete energy, and is zeroed on fixed nodes.
    """
    _require_on_grid(p, u)
    kernel = _Kernel(p)
    shape = p.grid.node_shape
    q, work = np.empty(shape), _buffers(shape, 3)
    kernel.differentiate(u.values, q, work[0])
    return ScalarField(p.grid, kernel.gradient(u.values, q, np.empty(shape), work))


def hessian_product(p: Problem, u: ScalarField, v: ScalarField) -> ScalarField:
    """Hv with <Hv, v'> h^dim the second variation of E at u along v and v'.

    Fixed nodes are zeroed in Hv; v should vanish there.
    """
    _require_on_grid(p, u)
    _require_on_grid(p, v)
    kernel = _Kernel(p)
    shape = p.grid.node_shape
    q, hcurv = np.empty(shape), np.empty(shape)
    fcurv = np.empty(shape) if kernel.curved else None
    work = _buffers(shape, 4 if kernel.curved else 2)
    kernel.differentiate(u.values, q, work[0])
    kernel.hessian_setup(u.values, q, hcurv, fcurv, work[0])
    out = kernel.hessian_product(q, u.values, fcurv, hcurv, v.values, np.empty(shape), work)
    return ScalarField(p.grid, out)


def _newton_direction(kernel, precond, hessian, grad, d, cg, work) -> int:
    """d ~ H^{-1} grad by preconditioned CG from d = 0; returns the inner iterations.

    hessian is the (coef, u, fcurv, hcurv) tuple of hessian_product.
    Stops when |r| <= CG_RTOL |grad| or after CG_MAX_ITER Hessian products.
    On nonpositive curvature it keeps the current d, or takes d = P^{-1}
    grad if the first product meets it.  cg is three arrays (residual,
    search direction, and the preconditioned residual, which also holds the
    Hessian product); work is the Hessian product's work, whose first two
    arrays also serve the preconditioner.
    """
    r, pdir, z = cg
    np.copyto(r, grad)
    precond.solve(r, z, work[:2])
    rz = float(np.vdot(r, z))
    np.copyto(pdir, z)
    d.fill(0.0)
    stop = CG_RTOL * float(np.linalg.norm(grad.reshape(-1)))
    for k in range(1, CG_MAX_ITER + 1):
        hp = kernel.hessian_product(*hessian, pdir, z, work)
        php = float(np.vdot(pdir, hp))
        if not php > 0.0:
            if k == 1:
                np.copyto(d, pdir)
            return k
        alpha = rz / php
        d += np.multiply(pdir, alpha, out=work[0])
        r -= np.multiply(hp, alpha, out=work[0])
        if float(np.linalg.norm(r.reshape(-1))) <= stop:
            return k
        precond.solve(r, z, work[:2])
        rz, rz_old = float(np.vdot(r, z)), rz
        pdir *= rz / rz_old
        pdir += z
    return CG_MAX_ITER


def minimize(
    p: Problem,
    u0: ScalarField,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ScalarField, MinimizeReport]:
    """Truncated Newton-PCG from u0; fixed nodes are never touched.

    From initial_guess's ramped profile the bundled half-plane runs take 5
    (2D) and 4 (3D) full Newton steps; from the sharp data (x . e)^+ their
    first step backtracks (to 1/256 in 2D, 1/16 in 3D) and they take 7 and 6.

    Each outer step solves H d = G by preconditioned CG to the relative
    residual CG_RTOL, in at most CG_MAX_ITER inner iterations (see
    _newton_direction), then backtracks from u - d by halving the step until
    E(u - step d) <= E(u) - ARMIJO_C step h^dim <G, d>.  The preconditioner
    is P = 2 f'(0) sum_a D_a^T W D_a + diag(sum_a sigma_a(x_a)) + delta on
    the interior nodes: the Hessian of the linear density's bulk term, with
    f'(0) = scale the density's smallest slope, plus the plane means sigma_a
    of the step's ramp curvature lam w H_eps''(u), shifted so that its
    smallest eigenvalue is at least the edge Laplacian's.  It is solved by
    fast diagonalization (fastdiag.DirichletSolver) and refit at the first
    step, and after that only when the ramp's support 0 < u < eps
    (_ramp_support), off which H_eps''(u) = 0, differs at some node from
    its support at the last refit; otherwise the last fit, still positive
    definite, is kept (a lagged preconditioner; Knoll & Keyes, J. Comput.
    Phys. 193, 2004).

    Stops for one of three reasons, named in the report's stop_reason:

      gradient_tol: the sup-norm of the gradient, zero on the box faces,
                    is at most tol (the only stop with converged=True);
      stalled:      the last accepted step lowered E by at most STALL_ULPS
                    = 16 ulps of E, and the gradient at the new iterate
                    still exceeds tol.  The count sits in a measured gap:
                    on half-plane, wedge and cone runs at 64^2-384^2 (tol
                    1e-6) the step this stops on lowers E by 0-6 ulps, and
                    every step before it by 21 or more;
      budget:       max_iter outer steps were taken (max_iter = 0 never
                    converges).

    iterations counts outer steps, step_history their accepted steps,
    cg_history their inner iterations and cg_iterations the sum of those;
    refit_steps lists the 0-based steps at which the preconditioner was refit.
    gradient_norm is the gradient's sup-norm at the returned iterate;
    the returned field's lipschitz is its largest |grad u|, computed when
    first read, after these buffers are gone.  Raises SolverError if the
    energy is not finite or the line search collapses.

    Buffers are allocated once per call: 10 arrays of the grid's size for
    the linear density and 13 for a curved one, in any dimension, one
    interior-sized array, and the preconditioner's per-axis eigenvector
    matrices of (m - 2)^2 entries, which a refit replaces one at a time.
    One boolean array holds the ramp's support at the last refit; each
    step's support and its comparison with that one are transient booleans.
      u                      the iterate;
      q                      its q; during the inner solve 2 w f'(q), the
                             Hessian's coefficients, and once the direction
                             is found each trial iterate's q;
      grad, d                the gradient and the Newton direction;
      r, pdir, z             the inner solve's vectors, and the work of the
                             energy and of the gradient;
      hcurv                  lam w H_eps''(u);
      spare (2)              the trial iterate, which swaps with u on
                             acceptance, and one more; in the inner solve
                             the Hessian product's work and the
                             preconditioner's;
      fcurv, spare (2 more)  curved density only: w f''(q), and the Hessian
                             product's w f''(q) dq and D_a u;
      one interior-sized     the preconditioner's reciprocal eigenvalue sums,
                             and during a refit each axis matrix it
                             diagonalizes.
    u0 is copied before the others are allocated and not held after that, so
    a caller that passes its only reference does not keep the initial guess.
    """
    _require_on_grid(p, u0)
    shape = p.grid.node_shape
    kernel = _Kernel(p)
    precond = DirichletSolver(shape, p.grid.h, 2.0 * p.model.df(0.0))
    u = u0.values.copy()
    del u0
    q, grad, d, hcurv = _buffers(shape, 4)
    cg, spare = _buffers(shape, 3), _buffers(shape, 4 if kernel.curved else 2)
    fcurv = np.empty(shape) if kernel.curved else None
    fitted = None
    e_now = kernel.energy(u, q, cg)
    if not np.isfinite(e_now):
        raise SolverError("initial energy is not finite")
    steps: list[float] = []
    energies = [e_now]
    cg_counts: list[int] = []
    refits: list[int] = []
    stalled = False
    while True:
        kernel.gradient(u, q, grad, cg)
        g_sup = max(float(np.max(grad)), -float(np.min(grad)))
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
        kernel.hessian_setup(u, q, hcurv, fcurv, spare[0])
        support = _ramp_support(u, p.eps)
        if not refits or np.any(support != fitted):
            precond.update(hcurv)
            fitted = support
            refits.append(len(steps))
        del support
        hessian = (q, u, fcurv, hcurv)
        with np.errstate(over="ignore", invalid="ignore"):
            # a direction or slope that overflows fails every Armijo test below
            cg_counts.append(_newton_direction(kernel, precond, hessian, grad, d, cg, spare))
            slope = kernel.cell * float(np.vdot(grad, d))
        # the direction is found, so the coefficients in q are spent: trials write their q there
        values = spare[0]
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            np.subtract(u, np.multiply(d, step, out=values), out=values)
            e_trial = kernel.energy(values, q, cg)
            if np.isfinite(e_trial) and e_trial <= e_now - ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            raise SolverError("line search collapsed; energy may be diverging")
        # a decrease of a few ulps of E is round-off, not descent
        stalled = e_now - e_trial <= STALL_ULPS * np.spacing(abs(e_now))
        spare[0], u = u, values
        e_now = e_trial
        steps.append(step)
        energies.append(e_now)
    u.setflags(write=False)  # the returned field adopts it, uncopied
    report = MinimizeReport(
        iterations=len(steps),
        final_energy=e_now,
        gradient_norm=g_sup,
        step_history=steps,
        converged=stop_reason == "gradient_tol",
        energy_history=energies,
        stop_reason=stop_reason,
        cg_iterations=sum(cg_counts),
        cg_history=cg_counts,
        refit_steps=refits,
    )
    return ScalarField(p.grid, u), report


def initial_guess(p: Problem) -> ScalarField:
    """Starting iterate: the ramped half-plane profile, else the boundary generator.

    For halfplane data at the Bernoulli weight lam = psi(1), Problem's
    default, every node off the fixed boundary starts from
    ramp_profile(x . e), the 1-D minimizer the data trace; fixed nodes keep
    the data.  Started from the sharp data (x . e)^+ instead, the zero
    phase has H_eps'' = 0, the Hessian cannot see the ramp and the first
    Newton step backtracks.  Every other case starts from the generator on
    every node: other kinds, and any other lam, for which the data are no
    1-D minimizer's trace.
    """
    b = p.boundary
    if b.kind != "halfplane" or p.lam != bernoulli_lambda(p.model):
        return ScalarField(p.grid, b.profile(p.grid))
    plane = b.plane(p.grid)
    u = ramp_profile(plane, p.model, p.eps)
    # H_eps'' jumps at u = eps, and the discrete minimizer lifts a node there
    # above eps; one that sits at eps only up to its coordinates' rounding
    # starts at eps, not an ulp below on the side of negative curvature
    np.maximum(u, p.eps, out=u, where=plane >= (1.0 - 1e-9) * p.eps)
    for face, data in zip(face_planes(u), face_planes(plane)):
        np.maximum(data, 0.0, out=face)
    return ScalarField(p.grid, u)
