"""Catalog of quasilinear energy densities f(t), evaluated at t = |grad u|^2.

Two model densities are provided.  The linear one, f(t) = t, recovers the
classical Dirichlet-plus-measure energy.  The arctan-perturbed family

    f(t) = t + alpha * (t*arctan(t) - log(1 + t^2)/2)

has f'(t) = 1 + alpha*arctan(t) and f''(t) = alpha/(1 + t^2), so it stays
uniformly elliptic with a curvature that decays like 1/(1 + t).  Both can be
multiplied by a positive scale factor, which scales the whole energy.

Structural quantities (slope bounds, curvature-to-slope ratio, sup of the
slope deviation) are estimated by dense sampling on a log-spaced grid that
always contains t = 0 and the interval endpoints; the model densities attain
their extrema at those points, so the sampled value is exact there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_SAMPLES = 100_000


class Kind(str, enum.Enum):
    LINEAR = "linear"
    ARCTAN = "arctan"


@dataclass(frozen=True)
class DensityModel:
    """A density from the catalog together with its claimed structural bounds.

    c0 and C0 are the slope bounds the caller claims for f'; they are claims,
    not guarantees, and `structural_report` checks them by sampling.  t_max is
    the upper end of the interval the claims refer to.  scale multiplies f
    (and therefore f', f'', psi and the Bernoulli constant) by a fixed
    positive factor.
    """

    kind: Kind
    alpha: float = 0.0
    scale: float = 1.0
    c0: float = 1.0
    C0: float = 1.0
    t_max: float = 1.0

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
        if not (0.0 < self.c0 <= self.C0):
            raise ValueError(f"need 0 < c0 <= C0, got c0={self.c0}, C0={self.C0}")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")

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

    def d2f(self, t):
        """Second derivative f''(t)."""
        t = _check_t(t)
        if self.kind is Kind.LINEAR:
            base = np.zeros_like(t)
        else:
            base = self.alpha / (1.0 + t * t)
        return _like(t, self.scale * base)

    def psi(self, t):
        """psi(t) = 2*t*f'(t) - f(t), the free boundary balance quantity."""
        t = _check_t(t)
        return _like(t, 2.0 * t * self.df(t) - self.f(t))


def linear_density(scale: float = 1.0) -> DensityModel:
    return DensityModel(kind=Kind.LINEAR, scale=scale, c0=scale, C0=scale)


def arctan_density(alpha: float, t_max: float = 1.0, scale: float = 1.0) -> DensityModel:
    """Arctan-perturbed density with the tight slope bounds on [0, t_max]."""
    hi = scale * (1.0 + alpha * math.atan(t_max))
    return DensityModel(
        kind=Kind.ARCTAN, alpha=alpha, scale=scale, c0=scale, C0=hi, t_max=t_max
    )


def bernoulli_lambda(model: DensityModel) -> float:
    """The weight psi(1) that makes |grad u| = 1 on the free boundary."""
    return float(model.psi(1.0))


@dataclass(frozen=True)
class StructuralReport:
    passed: bool
    slope_min: float
    slope_max: float
    curvature_min: float
    curvature_margin: float
    n_samples: int


@dataclass(frozen=True)
class FlatnessReport:
    passed: bool
    sup_ratio: float
    lhs: float
    n_samples: int


@lru_cache(maxsize=8)
def _t_samples(t_max: float, n: int, extra: tuple[float, ...] = ()) -> np.ndarray:
    """Read-only sorted distinct sample points of [0, t_max] (cached)."""
    # t = 0 must be in the scan: the model densities attain their slope and
    # curvature extrema there.
    body = np.geomspace(t_max * 1e-10, t_max, n - 1)
    pts = np.sort(np.concatenate(([0.0], body, [e for e in extra if 0.0 <= e <= t_max])))
    # drop repeats with a mask rather than np.unique, whose first call imports numpy.ma
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    pts.setflags(write=False)
    return pts


def structural_report(model: DensityModel, n_samples: int = DEFAULT_SAMPLES) -> StructuralReport:
    """Check the claimed bounds c0 <= f' <= C0 and 0 <= f'' <= C0/(1+t) by sampling."""
    t = _t_samples(model.t_max, n_samples)
    slope = np.asarray(model.df(t))
    curv = np.asarray(model.d2f(t))
    slack = 1e-12 * max(1.0, model.C0)
    margin = float(np.min(model.C0 / (1.0 + t) - curv))
    ok = (
        float(slope.min()) >= model.c0 - slack
        and float(slope.max()) <= model.C0 + slack
        and float(curv.min()) >= -slack
        and margin >= -slack
    )
    return StructuralReport(
        passed=ok,
        slope_min=float(slope.min()),
        slope_max=float(slope.max()),
        curvature_min=float(curv.min()),
        curvature_margin=margin,
        n_samples=t.size,
    )


def flatness_report(model: DensityModel, n_samples: int = DEFAULT_SAMPLES) -> FlatnessReport:
    """Improvement-of-flatness condition: 1 + 2*sup(f''/f') < 4 on [0, t_max].

    For the arctan family the ratio alpha/((1 + alpha*arctan(t))(1 + t^2)) is
    maximal at t = 0 where it equals alpha, so the condition reads alpha < 3/2.
    """
    t = _t_samples(model.t_max, n_samples)
    ratio = np.asarray(model.d2f(t)) / np.asarray(model.df(t))
    sup = float(ratio.max())
    lhs = 1.0 + 2.0 * sup
    return FlatnessReport(passed=lhs < 4.0, sup_ratio=sup, lhs=lhs, n_samples=t.size)


def slope_deviation(model: DensityModel, t_hi: float = 1.0, n_samples: int = DEFAULT_SAMPLES) -> float:
    """sup of |f'(t) - f'(1)| over [0, t_hi].

    The reference slope is always taken at t = 1 (the free boundary gradient
    level), also when t_hi < 1.  For the arctan family with t_hi >= 1 the sup
    equals scale*alpha*pi/4, attained at t = 0.
    """
    if not (t_hi > 0.0 and math.isfinite(t_hi)):
        raise ValueError(f"t_hi must be finite and > 0, got {t_hi}")
    t = _t_samples(t_hi, n_samples, extra=(1.0,))
    ref = model.df(1.0)
    return float(np.max(np.abs(np.asarray(model.df(t)) - ref)))


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
