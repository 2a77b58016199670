import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fbmlab import blowup
from fbmlab.blowup import (
    BlowupSequence,
    build_sequence,
    default_scales,
    flatness_deficit,
    homogeneity_deviation,
    regularity_verdict,
    rescale,
    unit_box,
)
from fbmlab.density import arctan_density, linear_density
from fbmlab.errors import GeometryError, VerdictUnavailable
from fbmlab.fields import Grid, ScalarField


def box_grid(dim, n, half=1.0):
    return Grid((-half,) * dim, (half,) * dim, (n,) * dim)


def sample(grid, fn):
    return ScalarField(grid, fn(*grid.node_mesh()))


class TestRescale:
    def test_identity(self):
        g = box_grid(2, 16)
        u = sample(g, lambda x, y: x * y + 0.3 * x)
        v = rescale(u, (0.0, 0.0), 1.0, g)
        assert np.allclose(v.values, u.values, atol=1e-13)

    def test_degree_one_field_scale_free(self):
        g = box_grid(2, 64)
        u = sample(g, np.hypot)
        ref = unit_box(2, 32)
        a = rescale(u, (0.0, 0.0), 0.5, ref)
        b = rescale(u, (0.0, 0.0), 0.25, ref)
        assert np.max(np.abs(a.values - b.values)) <= g.h

    def test_quadratic_is_linear_in_scale(self):
        g = box_grid(2, 64)
        u = sample(g, lambda x, y: x * x + y * y)
        ref = unit_box(2, 32)
        for r in (0.5, 0.25):
            v = rescale(u, (0.0, 0.0), r, ref)
            yy = sum(m * m for m in ref.node_mesh())
            assert np.allclose(v.values, r * yy, atol=g.h**2 / r)

    def test_composition(self):
        g = box_grid(2, 96)
        u = sample(g, lambda x, y: np.hypot(x, y) + 0.2 * x)
        ref = unit_box(2, 48)
        once = rescale(u, (0.1, 0.0), 0.4, ref)
        twice = rescale(once, (0.0, 0.0), 0.5, ref)
        direct = rescale(u, (0.1, 0.0), 0.2, ref)
        assert np.max(np.abs(twice.values - direct.values)) <= 2.0 * g.h

    def test_bad_inputs(self):
        g = box_grid(2, 16)
        u = sample(g, lambda x, y: x)
        with pytest.raises(ValueError):
            rescale(u, (0.0, 0.0), 0.0, g)
        with pytest.raises(GeometryError):
            rescale(u, (0.5, 0.0), 1.0, g)

    @pytest.mark.parametrize("r", [-0.5, float("nan")])
    def test_nan_scale_raises_like_negative(self, r):
        g = box_grid(2, 16)
        u = sample(g, lambda x, y: x)
        with pytest.raises(ValueError, match="scale must be positive"):
            rescale(u, (0.0, 0.0), r, g)


class TestHomogeneityDeviation:
    def test_quadratic_oracle_3d(self):
        # integrand is |x|^2; integral over the unit ball is 4*pi/5
        g = box_grid(3, 64, half=1.05)
        u = sample(g, lambda x, y, z: x * x + y * y + z * z)
        dev = homogeneity_deviation(u, (0.0, 0.0, 0.0), 1.0)
        assert dev == pytest.approx(4.0 * math.pi / 5.0, rel=1e-2)

    def test_linear_in_amplitude(self):
        g = box_grid(2, 48)
        u = sample(g, lambda x, y: x * x + 0.5 * np.abs(y))
        u3 = ScalarField(g, 3.0 * u.values)
        d1 = homogeneity_deviation(u, (0.0, 0.0), 0.6)
        d3 = homogeneity_deviation(u3, (0.0, 0.0), 0.6)
        assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_tilted_halfplane_small(self):
        g = box_grid(3, 48)
        e = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        u = sample(g, lambda x, y, z: np.maximum(e[0] * x + e[1] * y + e[2] * z, 0.0))
        dev = homogeneity_deviation(u, (0.0, 0.0, 0.0), 0.5)
        assert dev <= 1e-2

    def test_cone_small(self):
        g = box_grid(2, 64)
        u = sample(g, np.hypot)
        dev = homogeneity_deviation(u, (0.0, 0.0), 0.5)
        assert dev <= 2e-2


class TestFlatnessDeficit:
    def test_exact_profile_recovered(self):
        ref = unit_box(3, 32)
        e0 = np.array([2.0, 1.0, 2.0]) / 3.0
        u = sample(ref, lambda x, y, z: np.maximum(e0[0] * x + e0[1] * y + e0[2] * z, 0.0))
        fit = flatness_deficit(u)
        assert float(np.dot(fit.direction, e0)) >= 1.0 - 1e-4
        assert fit.deficit <= ref.h

    def test_zero_field(self):
        for dim in (2, 3):
            ref = unit_box(dim, 16)
            u = ScalarField(ref, np.zeros(ref.node_shape))
            fit = flatness_deficit(u)
            assert fit.deficit == pytest.approx(0.5, rel=1e-2)

    def test_two_sided_wedge(self):
        ref = unit_box(3, 24)
        u = sample(ref, lambda x, y, z: np.abs(x))
        fit = flatness_deficit(u)
        assert fit.deficit == pytest.approx(0.5, rel=5e-2)

    def test_rotation_equivariant(self):
        ref = unit_box(2, 32)
        e0 = np.array([0.6, 0.8])
        u = sample(ref, lambda x, y: np.maximum(e0[0] * x + e0[1] * y, 0.0))
        # rotate node data by 90 degrees: (x, y) -> (-y, x)
        rot_vals = np.rot90(u.values)
        fit = flatness_deficit(u)
        fit_rot = flatness_deficit(ScalarField(ref, rot_vals))
        rotated = np.array([-fit.direction[1], fit.direction[0]])
        assert float(np.dot(fit_rot.direction, rotated)) >= 1.0 - 1e-3


def scipy_bounded_min(func, lo, hi):
    """The reference the port follows: scipy's bounded Brent with default options."""
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded")
    return res.x, res.fun, res.nfev


def bits(x, fun, nfev):
    return np.float64(x).tobytes(), np.float64(fun).tobytes(), int(nfev)


def fit_bits(fit):
    return np.array(fit.direction).tobytes(), np.float64(fit.deficit).tobytes()


class TestBoundedMin:
    @pytest.mark.parametrize(
        "func,lo,hi",
        [
            (lambda t: (t - 0.3) ** 2, -1.0, 2.0),
            (lambda t: abs(t - 0.123456789), -1.0, 1.0),
            (lambda t: 2.5, 0.0, 1.0),
            (lambda t: 0.0 if t > 0.42 else 1.0, 0.0, 1.0),
            (lambda t: 1.0 if t > 0.42 else 0.0, 0.0, 1.0),
            # a bracket this wide overflows the parabola arithmetic to inf and
            # NaN and runs into the evaluation cap; scipy's numpy scalars warn
            pytest.param(
                lambda t: abs(t - 1.0), -1e300, 1e300,
                marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
            ),
        ],
        ids=["quadratic", "kink", "constant", "step-down", "step-up", "cap"],
    )
    def test_matches_scipy_bitwise(self, func, lo, hi):
        assert bits(*blowup._bounded_min(func, lo, hi)) == bits(*scipy_bounded_min(func, lo, hi))

    def test_evaluation_cap(self):
        assert blowup._bounded_min(lambda t: abs(t - 1.0), -1e300, 1e300)[2] == 500


def halfplane_blowup(dim):
    """A tilted, slightly curved half-plane field rescaled at a boundary point."""
    g = box_grid(dim, 24)
    e = np.array([0.3, -0.2, 1.0][-dim:])
    e /= np.linalg.norm(e)
    u = sample(g, lambda *x: np.maximum(sum(c * xa for c, xa in zip(e, x)) + 0.2 * x[0] ** 2, 0.0))
    return rescale(u, (0.0,) * dim, 0.5, unit_box(dim))


class TestFlatnessFitMatchesScipy:
    """The fit with the ported minimizer is bitwise the fit that calls scipy."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fit_and_every_line_search(self, monkeypatch, dim):
        u = halfplane_blowup(dim)
        fit = flatness_deficit(u)
        port = blowup._bounded_min
        searches = []

        def reference(func, lo, hi):
            # compare on the fit's own line function, before the fit moves on
            searches.append((bits(*port(func, lo, hi)), bits(*scipy_bounded_min(func, lo, hi))))
            return scipy_bounded_min(func, lo, hi)

        monkeypatch.setattr(blowup, "_bounded_min", reference)
        ref = flatness_deficit(u)
        assert len(searches) == blowup.REFINE_ROUNDS * (dim - 1)
        for got, want in searches:
            assert got == want
        assert fit_bits(fit) == fit_bits(ref)


class TestSequence:
    def test_scales_must_decrease(self):
        with pytest.raises(ValueError):
            BlowupSequence((0.0, 0.0), (0.2, 0.4), (), (), (), ())

    @pytest.mark.parametrize("s", [-0.5, float("nan")])
    def test_nan_scale_raises_like_negative(self, s):
        with pytest.raises(ValueError, match="scales must be positive"):
            BlowupSequence((0.0, 0.0), (0.4, s), (), (), (), ())

    def test_default_scales_ladder(self):
        g = box_grid(2, 64)
        scales = default_scales(g, (0.0, 0.0))
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert scales[-1] >= 8 * g.h
        assert scales[0] <= 1.0
        ratios = [a / b for a, b in zip(scales, scales[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_default_scales_near_edge(self):
        g = box_grid(2, 64)
        with pytest.raises(GeometryError):
            default_scales(g, (0.95, 0.0))

    def test_base_point_off_boundary_rejected(self):
        g = box_grid(2, 32)
        u = sample(g, lambda x, y: np.maximum(x, 0.0) + 0.5)
        with pytest.raises(ValueError):
            build_sequence(u, (0.0, 0.0), scales=(0.5, 0.25))

    def test_halfplane_sequence_metrics(self):
        g = box_grid(2, 64)
        u = sample(g, lambda x, y: np.maximum(x, 0.0))
        seq = build_sequence(u, (0.0, 0.0), scales=(0.5, 0.25))
        assert seq.scales == (0.5, 0.25)
        assert all(d <= 2e-2 for d in seq.deviations)
        assert all(d <= 2e-2 for d in seq.deficits)
        assert all(abs(d[0] - 1.0) <= 1e-2 for d in seq.directions)


class TestVerdict:
    def test_halfplane_regular(self):
        g = box_grid(3, 48)
        u = sample(g, lambda x, y, z: np.maximum(x, 0.0))
        rep = regularity_verdict(u, linear_density(), (0.0, 0.0, 0.0))
        assert rep.verdict == "regular"
        assert len(rep.scales) >= 2

    def test_sphere_cap_regular(self):
        # positive part of a gently curved sphere profile, radius 8
        g = Grid((6.5, -1.5, -1.5), (9.5, 1.5, 1.5), (48, 48, 48))
        x, y, z = g.node_mesh()
        u = ScalarField(g, np.clip(np.sqrt(x * x + y * y + z * z) - 8.0, 0.0, None))
        rep = regularity_verdict(u, linear_density(), (8.0, 0.0, 0.0), scales=(0.75, 0.5))
        assert rep.verdict == "regular"

    def test_cone_inconclusive(self):
        g = box_grid(3, 32)
        u = sample(g, lambda x, y, z: np.sqrt(x * x + y * y + z * z))
        rep = regularity_verdict(u, linear_density(), (0.0, 0.0, 0.0))
        assert rep.verdict == "inconclusive"

    def test_dim_gate(self):
        g = box_grid(2, 32)
        u = sample(g, lambda x, y: np.maximum(x, 0.0))
        with pytest.raises(VerdictUnavailable):
            regularity_verdict(u, linear_density(), (0.0, 0.0))

    def test_model_gate(self):
        g = box_grid(3, 16)
        u = sample(g, lambda x, y, z: np.maximum(x, 0.0))
        with pytest.raises(VerdictUnavailable):
            regularity_verdict(u, arctan_density(2.0), (0.0, 0.0, 0.0))
