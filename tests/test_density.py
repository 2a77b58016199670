"""Density catalog: values, derivatives, structure checks, Bernoulli weight.

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
    arctan_density,
    bernoulli_lambda,
    flatness_report,
    linear_density,
    slope_deviation,
    structural_report,
)


def central_diff(fn, t, h=1e-5):
    return (fn(t + h) - fn(max(t - h, 0.0) if t - h < 0 else t - h)) / (
        (t + h) - (max(t - h, 0.0) if t - h < 0 else t - h)
    )


class TestValues:
    def test_linear_is_identity(self):
        m = linear_density()
        assert m.f(1.0) == 1.0
        assert m.f(0.0) == 0.0
        t = np.linspace(0, 7, 23)
        assert np.allclose(m.f(t), t, rtol=0, atol=0)

    def test_arctan_alpha_zero_matches_linear(self):
        a = DensityModel(kind=Kind.ARCTAN, alpha=0.0)
        lin = linear_density()
        t = np.geomspace(1e-9, 50.0, 400)
        assert np.allclose(a.f(t), lin.f(t), rtol=0, atol=0)
        assert np.allclose(a.df(t), lin.df(t), rtol=0, atol=0)
        assert a.f(7.3) == 7.3

    def test_arctan_value_at_one(self):
        # f(1) = 1 + alpha*(pi/4 - log(2)/2)
        m = arctan_density(0.1)
        expected = 1.0 + 0.1 * (math.pi / 4.0 - math.log(2.0) / 2.0)
        assert m.f(1.0) == pytest.approx(expected, abs=1e-15)

    def test_f_vanishes_at_zero(self):
        for m in (linear_density(), arctan_density(0.3), arctan_density(1.2)):
            assert m.f(0.0) == 0.0

    def test_scale_multiplies_everything(self):
        base = arctan_density(0.2)
        scaled = arctan_density(0.2, scale=4.0)
        t = np.linspace(0.0, 3.0, 50)
        assert np.array_equal(scaled.f(t), 4.0 * base.f(t))
        assert np.array_equal(scaled.df(t), 4.0 * base.df(t))
        assert bernoulli_lambda(scaled) == 4.0 * bernoulli_lambda(base)

    def test_domain_validation(self):
        m = linear_density()
        with pytest.raises(ValueError):
            m.f(-0.5)
        with pytest.raises(ValueError):
            m.df(float("nan"))
        with pytest.raises(ValueError):
            m.f(np.array([0.0, -1e-12]))


    @pytest.mark.parametrize("model", [linear_density(2.0), arctan_density(0.3, scale=1.5)])
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
        m = arctan_density(0.1)
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
        for model in (linear_density(), arctan_density(0.1)):
            for fn in (model.f, model.df, model.d2f, model.psi):
                if message is None:
                    assert np.shape(fn(t)) == np.shape(t)
                else:
                    with pytest.raises(ValueError, match=f"density argument {message}"):
                        fn(t)


class TestDerivatives:
    def test_df_matches_central_differences_dense(self):
        # Finite-difference oracle on a dense grid, both models.
        for m in (linear_density(), arctan_density(0.1, t_max=10.0), arctan_density(1.4)):
            t = np.linspace(1e-3, 10.0, 10_000)
            h = 1e-5
            fd = (np.asarray(m.f(t + h)) - np.asarray(m.f(t - h))) / (2 * h)
            assert np.max(np.abs(np.asarray(m.df(t)) - fd) / (1.0 + t)) < 1e-6

    def test_d2f_matches_central_differences_dense(self):
        m = arctan_density(0.7, t_max=10.0)
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
        for m in (linear_density(), arctan_density(0.9)):
            t = np.linspace(0.0, 20.0, 2_000)
            v = np.asarray(m.f(t))
            assert np.all(np.diff(v) >= 0.0)


class TestPsiAndBernoulli:
    def test_psi_composition_exact(self):
        m = arctan_density(0.37)
        t = np.geomspace(1e-6, 30.0, 500)
        lhs = np.asarray(m.psi(t))
        rhs = 2.0 * t * np.asarray(m.df(t)) - np.asarray(m.f(t))
        assert np.array_equal(lhs, rhs)

    def test_psi_linear(self):
        m = linear_density()
        t = np.linspace(0.0, 5.0, 100)
        assert np.allclose(m.psi(t), t, rtol=0, atol=0)
        assert m.psi(0.0) == 0.0

    def test_psi_arctan_at_one(self):
        # psi(1) = 2(1 + a*pi/4) - (1 + a*(pi/4 - log2/2)) = 1 + a*pi/4 + a*log2/2
        m = arctan_density(0.1)
        expected = 1.0 + 0.1 * math.pi / 4.0 + 0.05 * math.log(2.0)
        assert m.psi(1.0) == pytest.approx(expected, abs=1e-14)

    def test_bernoulli_lambda_values(self):
        assert bernoulli_lambda(linear_density()) == 1.0
        assert bernoulli_lambda(DensityModel(kind=Kind.ARCTAN, alpha=0.0)) == 1.0
        got = bernoulli_lambda(arctan_density(0.1))
        expected = 1.0 + 0.1 * math.pi / 4.0 + 0.05 * math.log(2.0)
        assert abs(got - expected) < 1e-12

    def test_bernoulli_lambda_linear_in_alpha(self):
        # lambda(alpha) = 1 + alpha*(pi/4 + log(2)/2) identically.
        slope = math.pi / 4.0 + math.log(2.0) / 2.0
        for alpha in (1e-6, 1e-3, 0.5):
            got = bernoulli_lambda(arctan_density(alpha))
            assert got == pytest.approx(1.0 + alpha * slope, rel=1e-13)


class TestStructuralChecks:
    def test_linear_passes(self):
        rep = structural_report(linear_density())
        assert rep.passed
        assert rep.slope_min == 1.0 == rep.slope_max
        assert rep.curvature_min == 0.0

    def test_arctan_tight_bounds_pass(self):
        m = arctan_density(0.1, t_max=1.0)
        rep = structural_report(m)
        assert rep.passed
        assert rep.slope_min == pytest.approx(1.0, abs=1e-12)
        assert rep.slope_max == pytest.approx(1.0 + 0.1 * math.pi / 4.0, rel=1e-9)

    def test_underclaimed_upper_bound_fails(self):
        m = DensityModel(kind=Kind.ARCTAN, alpha=0.1, c0=1.0, C0=1.01, t_max=100.0)
        assert not structural_report(m).passed

    def test_overclaimed_lower_bound_fails(self):
        m = DensityModel(kind=Kind.ARCTAN, alpha=0.1, c0=1.05, C0=2.0, t_max=1.0)
        assert not structural_report(m).passed


class TestFlatnessCondition:
    def test_linear(self):
        rep = flatness_report(linear_density())
        assert rep.passed
        assert rep.sup_ratio == 0.0
        assert rep.lhs == 1.0

    def test_arctan_alpha_01(self):
        # ratio alpha/((1+alpha*atan t)(1+t^2)) is maximal at t = 0, value alpha
        rep = flatness_report(arctan_density(0.1, t_max=50.0))
        assert rep.passed
        assert rep.sup_ratio == pytest.approx(0.1, abs=1e-15)
        assert rep.lhs == pytest.approx(1.2, abs=1e-14)

    def test_arctan_large_alpha_fails(self):
        rep = flatness_report(arctan_density(2.0))
        assert not rep.passed
        assert rep.lhs == pytest.approx(5.0, abs=1e-13)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_sup_ratio_monotone_in_alpha(self, a1, a2):
        lo, hi = sorted((a1, a2))
        r_lo = flatness_report(arctan_density(lo), n_samples=2_000).sup_ratio
        r_hi = flatness_report(arctan_density(hi), n_samples=2_000).sup_ratio
        assert r_lo <= r_hi + 1e-15

    def test_threshold_alpha(self):
        # Bisection on the pass flag: boundary sits at alpha = 1.5 within 1e-3.
        lo, hi = 1.0, 2.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if flatness_report(arctan_density(mid), n_samples=4_000).passed:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 1.5) < 1e-3


class TestSlopeDeviation:
    def test_linear_zero(self):
        assert slope_deviation(linear_density()) == 0.0

    def test_arctan_01_unit_interval(self):
        # sup |alpha*atan(t) - alpha*pi/4| on [0,1] is attained at t = 0.
        got = slope_deviation(arctan_density(0.1), t_hi=1.0)
        assert got == pytest.approx(0.1 * math.pi / 4.0, abs=1e-12)

    def test_wide_interval_same_sup(self):
        # atan(t) - pi/4 < pi/4 for every finite t, so t = 0 still attains the sup.
        got = slope_deviation(arctan_density(0.1), t_hi=1e6)
        assert got == pytest.approx(0.1 * math.pi / 4.0, abs=1e-12)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            slope_deviation(linear_density(), t_hi=0.0)


class TestModelValidation:
    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            DensityModel(kind=Kind.ARCTAN, alpha=-0.1)

    def test_linear_with_alpha(self):
        with pytest.raises(ValueError):
            DensityModel(kind=Kind.LINEAR, alpha=0.2)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            DensityModel(kind=Kind.LINEAR, c0=2.0, C0=1.0)

    def test_kind_from_string(self):
        m = DensityModel(kind="arctan", alpha=0.5)
        assert m.kind is Kind.ARCTAN
