"""Catalog of quasilinear energy densities f(t), evaluated at t = |grad u|^2.

Two model densities are provided.  The linear one, f(t) = t, recovers the
classical Dirichlet-plus-measure energy.  The arctan-perturbed family

    f(t) = t + alpha * (t*arctan(t) - log(1 + t^2)/2)

has f'(t) = 1 + alpha*arctan(t) and f''(t) = alpha/(1 + t^2), so it stays
uniformly elliptic with a curvature that decays like 1/(1 + t).  Both can be
multiplied by a positive scale factor, which scales the whole energy.

Both kinds have f' nondecreasing and f'' nonincreasing on t >= 0, so the
curvature-to-slope ratio f''/f' is largest at t = 0 and the slope deviation
|f' - f'(1)| over [0, t_hi] is largest at an endpoint.  The structural
constants are therefore read off the endpoints in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Kind(str, enum.Enum):
    LINEAR = "linear"
    ARCTAN = "arctan"


@dataclass(frozen=True)
class DensityModel:
    """A density from the catalog.

    scale multiplies f (and therefore f', f'', psi and the Bernoulli
    constant) by a fixed positive factor.  f' is smallest at t = 0, where
    it equals scale for both kinds.
    """

    kind: Kind
    alpha: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in tuple(Kind):
            raise ValueError(
                f"kind must be one of {tuple(k.value for k in Kind)}, got {self.kind!r}"
            )
        object.__setattr__(self, "kind", Kind(self.kind))
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.kind is Kind.LINEAR and self.alpha != 0.0:
            raise ValueError("the linear density has no alpha parameter")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")

    @property
    def f0(self) -> float:
        """F0 = f'(1), the slope at the free-boundary gradient level |grad u| = 1."""
        return float(self.df(1.0))

    def f(self, t, out=None, work=None):
        """Density value f(t).

        out receives the values and work (arctan only) one intermediate;
        with both given for an array t, no float array of its size is allocated.
        """
        t = _check_t(t)
        if out is None:
            out = np.empty_like(t)
        if self.kind is Kind.LINEAR:
            np.multiply(t, self.scale, out=out)
        else:
            # t + alpha * (t arctan(t) - log(1 + t^2) / 2), times scale
            if work is None:
                work = np.empty_like(t)
            np.arctan(t, out=out)
            out *= t
            np.multiply(t, t, out=work)
            np.log1p(work, out=work)
            work *= 0.5
            out -= work
            out *= self.alpha
            out += t
            out *= self.scale
        return _like(t, out)

    def df(self, t, out=None):
        """First derivative f'(t), written into out when given."""
        t = _check_t(t)
        if out is None:
            out = np.empty_like(t)
        if self.kind is Kind.LINEAR:
            out.fill(self.scale)
        else:
            np.arctan(t, out=out)
            out *= self.alpha
            out += 1.0
            out *= self.scale
        return _like(t, out)

    def d2f(self, t, out=None):
        """Second derivative f''(t), written into out when given."""
        t = _check_t(t)
        if out is None:
            out = np.empty_like(t)
        if self.kind is Kind.LINEAR:
            out.fill(0.0)
        else:
            # alpha / (1 + t^2), times scale
            np.multiply(t, t, out=out)
            out += 1.0
            np.divide(self.alpha, out, out=out)
            out *= self.scale
        return _like(t, out)

    def psi(self, t):
        """psi(t) = 2*t*f'(t) - f(t), the free boundary balance quantity."""
        t = _check_t(t)
        return _like(t, 2.0 * t * self.df(t) - self.f(t))


def bernoulli_lambda(model: DensityModel) -> float:
    """The weight psi(1) that makes |grad u| = 1 on the free boundary."""
    return float(model.psi(1.0))


@dataclass(frozen=True)
class FlatnessReport:
    passed: bool
    sup_ratio: float
    lhs: float


def flatness_report(model: DensityModel) -> FlatnessReport:
    """Improvement-of-flatness condition: 1 + 2*sup(f''/f') < 4 on [0, 1].

    For the arctan family the ratio alpha/((1 + alpha*arctan(t))(1 + t^2)) is
    maximal at t = 0 where it equals alpha, so the condition reads alpha < 3/2.
    """
    sup = model.d2f(0.0) / model.df(0.0)
    lhs = 1.0 + 2.0 * sup
    return FlatnessReport(passed=lhs < 4.0, sup_ratio=sup, lhs=lhs)


def slope_deviation(model: DensityModel, t_hi: float = 1.0) -> float:
    """sup of |f'(t) - f'(1)| over [0, t_hi].

    The reference slope is always taken at t = 1 (the free boundary gradient
    level), also when t_hi < 1.  For the arctan family with t_hi >= 1 the sup
    equals scale*alpha*pi/4, attained at t = 0.
    """
    if not (t_hi > 0.0 and math.isfinite(t_hi)):
        raise ValueError(f"t_hi must be finite and > 0, got {t_hi}")
    f0 = model.f0
    return max(abs(model.df(0.0) - f0), abs(model.df(t_hi) - f0))


def _check_t(t):
    arr = np.asarray(t, dtype=float)
    if arr.size:
        # min and max propagate NaN, so these two reductions see every bad entry
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("density argument must be finite")
        if lo < 0.0:
            raise ValueError("density argument must be >= 0")
    return arr


def _like(t: np.ndarray, out: np.ndarray):
    if np.ndim(t) == 0:
        return float(out)
    return out
