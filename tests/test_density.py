"""Density catalog: values, derivatives, flatness and slope checks, Bernoulli weight.

Expected values are either closed forms evaluated here from math constants or
independent finite-difference / dense-scan oracles computed in the test body.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmlab.density import (
    DensityModel,
    Kind,
    bernoulli_lambda,
    flatness_report,
    slope_deviation,
)


def central_diff(fn, t, h=1e-5):
    return (fn(t + h) - fn(max(t - h, 0.0) if t - h < 0 else t - h)) / (
        (t + h) - (max(t - h, 0.0) if t - h < 0 else t - h)
    )


class TestValues:
    def test_linear_is_identity(self):
        m = DensityModel(kind="linear")
        assert m.f(1.0) == 1.0
        assert m.f(0.0) == 0.0
        t = np.linspace(0, 7, 23)
        assert np.allclose(m.f(t), t, rtol=0, atol=0)

    def test_arctan_alpha_zero_matches_linear(self):
        a = DensityModel(kind=Kind.ARCTAN, alpha=0.0)
        lin = DensityModel(kind="linear")
        t = np.geomspace(1e-9, 50.0, 400)
        assert np.allclose(a.f(t), lin.f(t), rtol=0, atol=0)
        assert np.allclose(a.df(t), lin.df(t), rtol=0, atol=0)
        assert a.f(7.3) == 7.3

    def test_arctan_value_at_one(self):
        # f(1) = 1 + alpha*(pi/4 - log(2)/2)
        m = DensityModel(kind="arctan", alpha=0.1)
        expected = 1.0 + 0.1 * (math.pi / 4.0 - math.log(2.0) / 2.0)
        assert m.f(1.0) == pytest.approx(expected, abs=1e-15)

    def test_f_vanishes_at_zero(self):
        for kind, alpha in (("linear", 0.0), ("arctan", 0.3), ("arctan", 1.2)):
            assert DensityModel(kind=kind, alpha=alpha).f(0.0) == 0.0

    def test_scale_multiplies_everything(self):
        base = DensityModel(kind="arctan", alpha=0.2)
        scaled = DensityModel(kind="arctan", alpha=0.2, scale=4.0)
        t = np.linspace(0.0, 3.0, 50)
        assert np.array_equal(scaled.f(t), 4.0 * base.f(t))
        assert np.array_equal(scaled.df(t), 4.0 * base.df(t))
        assert bernoulli_lambda(scaled) == 4.0 * bernoulli_lambda(base)

    def test_smallest_slope_is_scale(self):
        # the minimizer's preconditioner reads its slope bound as f'(0)
        for kind, alpha in (("linear", 0.0), ("arctan", 0.1), ("arctan", 1.4)):
            for scale in (0.25, 1.0, 4.0):
                m = DensityModel(kind=kind, alpha=alpha, scale=scale)
                assert m.df(0.0) == scale
                assert np.min(m.df(np.geomspace(1e-9, 50.0, 400))) >= scale

    def test_domain_validation(self):
        m = DensityModel(kind="linear")
        with pytest.raises(ValueError):
            m.f(-0.5)
        with pytest.raises(ValueError):
            m.df(float("nan"))
        with pytest.raises(ValueError):
            m.f(np.array([0.0, -1e-12]))


    @pytest.mark.parametrize(
        "model",
        [DensityModel(kind="linear", scale=2.0), DensityModel(kind="arctan", alpha=0.3, scale=1.5)],
    )
    def test_out_path_is_the_plain_formula(self, model):
        t = np.random.default_rng(5).uniform(0.0, 4.0, (7, 9))
        a = model.scale * (t + model.alpha * (t * np.arctan(t) - 0.5 * np.log1p(t * t)))
        da = model.scale * (1.0 + model.alpha * np.arctan(t))
        out, work = np.empty_like(t), np.empty_like(t)
        assert model.f(t, out=out, work=work) is out
        assert out.tobytes() == a.tobytes() == model.f(t).tobytes()
        assert model.df(t, out=out) is out
        assert out.tobytes() == da.tobytes() == model.df(t).tobytes()

    def test_out_path_checks_the_argument(self):
        m = DensityModel(kind="arctan", alpha=0.1)
        t = np.array([0.5, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            m.f(t, out=np.empty(2), work=np.empty(2))
        with pytest.raises(ValueError, match=">= 0"):
            m.df(-t[:1], out=np.empty(1))

    @pytest.mark.parametrize(
        "t,message",
        [
            (float("nan"), "must be finite"),
            (np.array([0.5, np.inf]), "must be finite"),
            (np.array([-np.inf, 0.5]), "must be finite"),
            (np.array([-1.0, np.nan, 2.0]), "must be finite"),
            (-1e-12, "must be >= 0"),
            (np.array([[0.0, 2.0], [-3.0, 1.0]]), "must be >= 0"),
            (np.empty(0), None),
            (np.empty((0, 3)), None),
            (np.array(0.25), None),
            (0.0, None),
        ],
        ids=["nan", "+inf", "-inf", "nan-and-negative", "negative", "negative-2d",
             "empty", "empty-2d", "0-d", "zero"],
    )
    def test_argument_check(self, t, message):
        for model in (DensityModel(kind="linear"), DensityModel(kind="arctan", alpha=0.1)):
            for fn in (model.f, model.df, model.d2f, model.psi):
                if message is None:
                    assert np.shape(fn(t)) == np.shape(t)
                else:
                    with pytest.raises(ValueError, match=f"density argument {message}"):
                        fn(t)


class TestDerivatives:
    def test_df_matches_central_differences_dense(self):
        # Finite-difference oracle on a dense grid, both models.
        for kind, alpha in (("linear", 0.0), ("arctan", 0.1), ("arctan", 1.4)):
            m = DensityModel(kind=kind, alpha=alpha)
            t = np.linspace(1e-3, 10.0, 10_000)
            h = 1e-5
            fd = (np.asarray(m.f(t + h)) - np.asarray(m.f(t - h))) / (2 * h)
            assert np.max(np.abs(np.asarray(m.df(t)) - fd) / (1.0 + t)) < 1e-6

    def test_d2f_matches_central_differences_dense(self):
        m = DensityModel(kind="arctan", alpha=0.7)
        t = np.linspace(1e-2, 10.0, 5_000)
        h = 1e-4
        fd = (np.asarray(m.df(t + h)) - np.asarray(m.df(t - h))) / (2 * h)
        assert np.max(np.abs(np.asarray(m.d2f(t)) - fd)) < 1e-6

    @given(
        alpha=st.floats(0.0, 2.0),
        t=st.floats(1e-3, 50.0),
    )
    def test_df_pointwise_fd(self, alpha, t):
        m = DensityModel(kind=Kind.ARCTAN, alpha=alpha)
        h = 1e-6 * (1.0 + t)
        fd = (m.f(t + h) - m.f(t - h)) / (2 * h)
        assert m.df(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_monotone_nondecreasing(self):
        for m in (DensityModel(kind="linear"), DensityModel(kind="arctan", alpha=0.9)):
            t = np.linspace(0.0, 20.0, 2_000)
            v = np.asarray(m.f(t))
            assert np.all(np.diff(v) >= 0.0)


class TestPsiAndBernoulli:
    def test_psi_composition_exact(self):
        m = DensityModel(kind="arctan", alpha=0.37)
        t = np.geomspace(1e-6, 30.0, 500)
        lhs = np.asarray(m.psi(t))
        rhs = 2.0 * t * np.asarray(m.df(t)) - np.asarray(m.f(t))
        assert np.array_equal(lhs, rhs)

    def test_psi_linear(self):
        m = DensityModel(kind="linear")
        t = np.linspace(0.0, 5.0, 100)
        assert np.allclose(m.psi(t), t, rtol=0, atol=0)
        assert m.psi(0.0) == 0.0

    def test_psi_arctan_at_one(self):
        # psi(1) = 2(1 + a*pi/4) - (1 + a*(pi/4 - log2/2)) = 1 + a*pi/4 + a*log2/2
        m = DensityModel(kind="arctan", alpha=0.1)
        expected = 1.0 + 0.1 * math.pi / 4.0 + 0.05 * math.log(2.0)
        assert m.psi(1.0) == pytest.approx(expected, abs=1e-14)

    def test_bernoulli_lambda_values(self):
        assert bernoulli_lambda(DensityModel(kind="linear")) == 1.0
        assert bernoulli_lambda(DensityModel(kind=Kind.ARCTAN, alpha=0.0)) == 1.0
        got = bernoulli_lambda(DensityModel(kind="arctan", alpha=0.1))
        expected = 1.0 + 0.1 * math.pi / 4.0 + 0.05 * math.log(2.0)
        assert abs(got - expected) < 1e-12

    def test_bernoulli_lambda_linear_in_alpha(self):
        # lambda(alpha) = 1 + alpha*(pi/4 + log(2)/2) identically.
        slope = math.pi / 4.0 + math.log(2.0) / 2.0
        for alpha in (1e-6, 1e-3, 0.5):
            got = bernoulli_lambda(DensityModel(kind="arctan", alpha=alpha))
            assert got == pytest.approx(1.0 + alpha * slope, rel=1e-13)


class TestFlatnessCondition:
    def test_linear(self):
        rep = flatness_report(DensityModel(kind="linear"))
        assert rep.passed
        assert rep.sup_ratio == 0.0
        assert rep.lhs == 1.0

    def test_arctan_alpha_01(self):
        # ratio alpha/((1+alpha*atan t)(1+t^2)) is maximal at t = 0, value alpha
        rep = flatness_report(DensityModel(kind="arctan", alpha=0.1))
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(0.1, abs=1e-15)
        assert rep.lhs == pytest.approx(1.2, abs=1e-14)

    def test_arctan_large_alpha_fails(self):
        rep = flatness_report(DensityModel(kind="arctan", alpha=2.0))
        assert not rep.passed
        assert rep.lhs == pytest.approx(5.0, abs=1e-13)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_sup_ratio_monotone_in_alpha(self, a1, a2):
        lo, hi = sorted((a1, a2))
        r_lo = flatness_report(DensityModel(kind="arctan", alpha=lo)).sup_ratio
        r_hi = flatness_report(DensityModel(kind="arctan", alpha=hi)).sup_ratio
        assert r_lo <= r_hi + 1e-15

    def test_threshold_alpha(self):
        # Bisection on the pass flag: boundary sits at alpha = 1.5 within 1e-3.
        lo, hi = 1.0, 2.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if flatness_report(DensityModel(kind="arctan", alpha=mid)).passed:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 1.5) < 1e-3


class TestSlopeDeviation:
    def test_linear_zero(self):
        assert slope_deviation(DensityModel(kind="linear")) == 0.0

    def test_arctan_01_unit_interval(self):
        # sup |alpha*atan(t) - alpha*pi/4| on [0,1] is attained at t = 0.
        got = slope_deviation(DensityModel(kind="arctan", alpha=0.1), t_hi=1.0)
        assert got == pytest.approx(0.1 * math.pi / 4.0, abs=1e-12)

    def test_wide_interval_same_sup(self):
        # atan(t) - pi/4 < pi/4 for every finite t, so t = 0 still attains the sup.
        got = slope_deviation(DensityModel(kind="arctan", alpha=0.1), t_hi=1e6)
        assert got == pytest.approx(0.1 * math.pi / 4.0, abs=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            slope_deviation(DensityModel(kind="linear"), t_hi=0.0)


# The dense scan the closed forms replaced: 100,000 log-spaced points of
# [0, t_hi] with t = 0, the endpoints and the extra points added.
DENSE_POINTS = 100_000
REFERENCE_ALPHAS = (0.0, 1e-12, 0.1, 0.5, 1.0, 1.4999999, 1.5, 2.0, 12.0, 1e6)
REFERENCE_SCALES = (1.0, 0.25, 4.0, 3.7)
REFERENCE_T_HI = (0.5, 1.0, 1.7, 4.0, 100.0, 1e8)


def dense_scan(t_hi: float, extra: tuple[float, ...] = ()) -> np.ndarray:
    body = np.geomspace(t_hi * 1e-10, t_hi, DENSE_POINTS - 1)
    pts = np.concatenate(([0.0], body, [e for e in extra if 0.0 <= e <= t_hi]))
    return np.unique(pts)


REFERENCE_MODELS = [DensityModel(kind="linear", scale=s) for s in REFERENCE_SCALES] + [
    DensityModel(kind="arctan", alpha=a, scale=s)
    for a in REFERENCE_ALPHAS
    for s in REFERENCE_SCALES
]


class TestDenseScanReference:
    """The endpoint closed forms equal the dense scan bit for bit."""

    def test_flatness_report_bitwise(self):
        t = dense_scan(1.0)
        for model in REFERENCE_MODELS:
            sup = float(np.max(model.d2f(t) / model.df(t)))
            rep = flatness_report(model)
            assert rep.sup_ratio == sup, model
            assert rep.lhs == 1.0 + 2.0 * sup, model
            assert rep.passed == (1.0 + 2.0 * sup < 4.0), model

    @pytest.mark.parametrize("t_hi", REFERENCE_T_HI)
    def test_slope_deviation_bitwise(self, t_hi):
        t = dense_scan(t_hi, extra=(1.0,))
        for model in REFERENCE_MODELS:
            want = float(np.max(np.abs(model.df(t) - model.df(1.0))))
            assert slope_deviation(model, t_hi=t_hi) == want, model

    def test_nan_interval_raises(self):
        with pytest.raises(ValueError):
            slope_deviation(DensityModel(kind="linear"), t_hi=float("nan"))


class TestModelValidation:
    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            DensityModel(kind=Kind.ARCTAN, alpha=-0.1)

    def test_linear_with_alpha(self):
        with pytest.raises(ValueError):
            DensityModel(kind=Kind.LINEAR, alpha=0.2)

    def test_bad_bounds(self):
        # scale is the smallest slope f'(0), which must be positive and finite
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scale must be finite and > 0"):
                DensityModel(kind=Kind.LINEAR, scale=scale)

    def test_kind_from_string(self):
        m = DensityModel(kind="arctan", alpha=0.5)
        assert m.kind is Kind.ARCTAN
