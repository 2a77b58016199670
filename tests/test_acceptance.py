"""End-to-end acceptance suite: eleven headline guarantees, one test each.

Covered, in order: radius-independence of the corrected scan on the exact
half-plane profile and its tightening under grid refinement; smallness of
both derivative estimates there plus a closed-form derivative oracle on
the quadratic cone; exact degeneration of the whole correction machinery
for a linear density; second-order recovery of a manufactured potential
by the weak Neumann splitting; agreement of the two independent error-term
quadratures on a genuinely minimized nonlinear field; monotonicity of the
corrected quantity on that same field; the analytic flatness threshold of
the arctan family; the closed-form Bernoulli constant; homogeneity
deviation oracles for the cone and the half-plane; vanishing-oscillation
classification of affine versus logarithmic perturbations; and the
shell-average polynomial fit.

Each test prints a single PASS/FAIL line carrying the measured numbers,
and asserts exactly the advertised tolerance, no looser.
"""

from __future__ import annotations

import math
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from fbmlab import (
    DensityModel,
    FluxField,
    Grid,
    ScalarField,
    VectorField,
    bernoulli_lambda,
    error_term,
    error_term_flux,
    flatness_report,
    flux_field,
    geometric_radii,
    homogeneity_deviation,
    load_scenario,
    neumann_solve,
    radial_derivative,
    regular_point_fit,
    scan,
    vmo_check,
    weak_divergence_residual,
)
from fbmlab.fields import trapezoid_weights
from fbmlab.pipeline import select_points, stage_ghost, stage_minimize, stage_scan

LINEAR = DensityModel(kind="linear")
ORIGIN3 = (0.0, 0.0, 0.0)
ORIGIN2 = (0.0, 0.0)
SCENARIO_2D = Path(__file__).resolve().parent.parent / "scenarios" / "arctan_halfplane_2d.json"


def check(label: str, ok: bool, detail: str) -> None:
    """Emit the one-line verdict for a test, then enforce it."""
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def box3(n: int, half: float = 1.0) -> Grid:
    return Grid((-half,) * 3, (half,) * 3, (n,) * 3)


def box2(n: int, half: float = 1.0) -> Grid:
    return Grid((-half,) * 2, (half,) * 2, (n,) * 2)


def halfplane_scan(n: int):
    """Exact profile (x3)+ with its flux, ghost and corrected scan."""
    t0 = perf_counter()
    grid = box3(n)
    u = ScalarField(grid, np.maximum(grid.node_mesh()[2], 0.0))
    flux = flux_field(u, LINEAR, ORIGIN3)
    g = neumann_solve(flux)
    report = scan(u, LINEAR, 1.0, ORIGIN3, geometric_radii(0.15, 0.4, 1.1), g, level=0.0)
    return u, g, report, perf_counter() - t0


@pytest.fixture(scope="module")
def halfplane48():
    return halfplane_scan(96)


@pytest.fixture(scope="module")
def halfplane96():
    return halfplane_scan(192)


@pytest.fixture(scope="module")
def quad3d():
    """|x|^2 at the same spacing as halfplane48 but with room for r = 1."""
    t0 = perf_counter()
    grid = Grid((-1.25,) * 3, (1.25,) * 3, (120,) * 3)
    mesh = grid.node_mesh()
    u = ScalarField(grid, sum(m * m for m in mesh))
    return u, mesh, perf_counter() - t0


@pytest.fixture(scope="module")
def minimized2d():
    """Bundled 2d arctan scenario, minimized, with per-point ghost scans."""
    t0 = perf_counter()
    s = load_scenario(SCENARIO_2D)
    u, _ = stage_minimize(s)
    per_point = []
    for z in select_points(s, u):
        g, _ = stage_ghost(s, u, z)
        per_point.append((z, g, stage_scan(s, u, g)))
    return s, u, per_point, perf_counter() - t0


def test_01_halfplane_scan_constancy(halfplane48, halfplane96):
    t0 = perf_counter()
    _, _, rep48, dt48 = halfplane48
    _, _, rep96, dt96 = halfplane96
    med48 = float(np.median(rep48.a))
    err48 = float(np.max(np.abs(rep48.a - med48)))
    med96 = float(np.median(rep96.a))
    err96 = float(np.max(np.abs(rep96.a - med96)))
    elapsed = dt48 + dt96 + (perf_counter() - t0)
    ok = (
        err48 <= 0.02 * abs(med48)
        and err96 <= 0.6 * err48
        and elapsed <= 120.0
    )
    check(
        "01 half-plane constancy",
        ok,
        f"err/|median| = {err48 / abs(med48):.5f} (<= 0.02), "
        f"refinement factor = {err96 / err48:.3f} (<= 0.6), "
        f"median = {med48:.5f}, {elapsed:.1f}s (<= 120s)",
    )


def test_02_derivative_smallness_and_cone_oracle(halfplane48, quad3d):
    t0 = perf_counter()
    _, _, rep, dt48 = halfplane48
    uq, _, dtq = quad3d
    bound = 0.05 * np.abs(rep.a) / rep.r
    worst_formula = float(np.max(np.abs(rep.a_prime_formula) / bound))
    worst_fd = float(np.max(np.abs(rep.a_prime_fd) / bound))
    ap = radial_derivative(uq, LINEAR, ORIGIN3, 0.5, level=0.0)
    target = 4.0 * math.pi
    cone_rel = abs(ap - target) / target
    elapsed = dt48 + dtq + (perf_counter() - t0)
    ok = (
        worst_formula <= 1.0
        and worst_fd <= 1.0
        and cone_rel <= 0.02
        and elapsed <= 60.0
    )
    check(
        "02 derivative smallness",
        ok,
        f"max |A'_formula| / (0.05 |A| / r) = {worst_formula:.3f} (<= 1), "
        f"max |A'_fd| / bound = {worst_fd:.3f} (<= 1), "
        f"cone derivative {ap:.5f} vs 4*pi rel err {cone_rel:.4f} (<= 0.02), "
        f"{elapsed:.1f}s (<= 60s)",
    )


def test_03_linear_density_degeneration():
    t0 = perf_counter()
    grid = box2(64)
    x, y = grid.node_mesh()
    u = ScalarField(grid, np.sin(2.0 * x) + 0.5 * np.cos(3.0 * y))
    flux = flux_field(u, LINEAR, ORIGIN2)
    g = neumann_solve(flux)
    rep = scan(u, LINEAR, 0.7, ORIGIN2, geometric_radii(0.1, 0.4, 1.3), g, level=0.0)
    flux_zero = not np.any(flux.field.values)
    phi_zero = not np.any(g.potential.values) and g.iterations == 0
    t_zero = not np.any(rep.t)
    bitwise = rep.a.tobytes() == rep.weiss_core.tobytes()
    elapsed = perf_counter() - t0
    ok = flux_zero and phi_zero and t_zero and bitwise and elapsed <= 30.0
    check(
        "03 linear degeneration",
        ok,
        f"flux == 0: {flux_zero}, phi == 0 in {g.iterations} iterations: {phi_zero}, "
        f"T == 0: {t_zero}, A == core bitwise: {bitwise}, {elapsed:.2f}s",
    )


def manufactured_load(n: int):
    """Gradient of cos(pi x) cos(pi y) on [-1,1]^2 with its potential.

    Every face has zero normal trace and the box mean vanishes, so the
    load is exactly compatible with the weak Neumann splitting.
    """
    grid = box2(n)
    x, y = grid.node_mesh()
    phi = np.cos(np.pi * x) * np.cos(np.pi * y)
    load = np.stack(
        [
            -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        ]
    )
    flux = FluxField(VectorField(grid, load), ORIGIN2, 1.0)
    return flux, ScalarField(grid, phi)


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    w = trapezoid_weights(grid.node_shape)
    return float(np.sqrt(grid.h**grid.dim * np.sum(w * values**2)))


def test_04_manufactured_neumann_recovery():
    t0 = perf_counter()
    errors = {}
    residuals = {}
    for n in (64, 128):
        flux, phi_star = manufactured_load(n)
        g = neumann_solve(flux, tol=1e-10)
        errors[n] = l2_norm(g.grid, g.potential.values - phi_star.values)
        residuals[n] = weak_divergence_residual(flux, g)
    ratio = errors[64] / errors[128]
    worst_residual = max(residuals.values())
    elapsed = perf_counter() - t0
    ok = 3.5 <= ratio <= 4.5 and worst_residual <= 1e-7 and elapsed <= 60.0
    check(
        "04 manufactured recovery",
        ok,
        f"L2 error ratio h=1/32 vs h=1/64 = {ratio:.3f} (in [3.5, 4.5]), "
        f"weak divergence residual = {worst_residual:.2e} (<= 1e-7), "
        f"{elapsed:.1f}s (<= 60s)",
    )


def interp_sensitivity(u: ScalarField, model: DensityModel, f0: float, flux, z, r):
    """Evaluation-error scale of the two error-term quadratures at (z, r).

    Both forms are circle quadratures of interpolants of the same nodal
    data; the honest uncertainty of each is how much it moves when the
    interpolation order changes.  Returns |dT_int| + |dT_flux| between
    linear and cubic interpolation over one shared midpoint-angle rule.
    """
    grid = u.grid
    axes = tuple(grid.axis_nodes(a) for a in range(grid.dim))
    gx, gy = np.gradient(u.values, grid.h, edge_order=2)
    n = 2048
    theta = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    nu = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = np.asarray(z, dtype=float)[None, :] + r * nu
    w = 2.0 * np.pi * r / n

    def forms(method: str) -> tuple[float, float]:
        def ev(a: np.ndarray) -> np.ndarray:
            return RegularGridInterpolator(axes, a, method=method)(pts)

        uv, gxv, gyv = ev(u.values), ev(gx), ev(gy)
        u_nu = gxv * nu[:, 0] + gyv * nu[:, 1]
        q = gxv**2 + gyv**2
        t_int = float(
            2.0 / r * np.sum(w * (model.df(q) - f0) * (uv / r**2) * (u_nu - uv / r))
        )
        uvec = np.stack([ev(c) for c in flux.field.values], axis=-1)
        t_flux = float(1.0 / r * np.sum(w * np.sum(uvec * nu, axis=-1)))
        return t_int, t_flux

    til, tfl = forms("linear")
    tic, tfc = forms("cubic")
    return abs(til - tic) + abs(tfl - tfc)


def test_05_error_term_form_equivalence(minimized2d):
    s, u, per_point, _ = minimized2d
    f0 = s.model.df(1.0)
    radii = s.radii()[1:6]
    worst_cover = np.inf
    max_gap = 0.0
    rows = 0
    ok = True
    for z, _, _ in per_point[:3]:
        flux = flux_field(u, s.model, z)
        for r in radii:
            gap = abs(
                error_term(u, s.model, z, r, level=0.0) - error_term_flux(flux, r)
            )
            tol_q = interp_sensitivity(u, s.model, f0, flux, z, r)
            ok = ok and gap <= 2.0 * tol_q
            worst_cover = min(worst_cover, 2.0 * tol_q / gap if gap > 0 else np.inf)
            max_gap = max(max_gap, gap)
            rows += 1
    check(
        "05 error-term equivalence",
        ok and rows == 15,
        f"{rows} (point, radius) pairs, max |T_int - T_flux| = {max_gap:.2e}, "
        f"worst tolerance cover = {worst_cover:.2f}x (>= 1 required)",
    )


def test_06_monotonicity_on_minimized_field(minimized2d):
    t0 = perf_counter()
    s, u, per_point, dt = minimized2d
    h = u.grid.h
    radii = s.radii()
    enough_points = len(per_point) >= 3
    ladder_ok = (
        radii[0] >= 8.0 * h - 1e-12
        and radii[-1] <= 0.35 + 1e-12
        and np.allclose(radii[1:] / radii[:-1], s.ratio)
    )
    flags_ok = True
    flag_counts = []
    for _, _, rep in per_point:
        flag_counts.append(len(rep.violations))
        flags_ok = flags_ok and len(rep.violations) <= 1
        flags_ok = flags_ok and all(i == 0 for i in rep.violations)
    elapsed = dt + (perf_counter() - t0)
    ok = enough_points and ladder_ok and flags_ok and elapsed <= 600.0
    check(
        "06 monotonicity (minimized arctan field)",
        ok,
        f"{len(per_point)} points (>= 3), radii in [8h, 0.35]: {ladder_ok}, "
        f"flagged drops per point {flag_counts} (<= 1 each, smallest radius only), "
        f"tol_mono = {per_point[0][2].tol_mono:.3f}, {elapsed:.0f}s (<= 600s)",
    )


def test_07_flatness_threshold():
    alphas = (1.49, 1.5 - 1e-3, 1.5 + 1e-3, 1.51)
    passed = {
        a: flatness_report(DensityModel(kind="arctan", alpha=a)).passed
        for a in alphas
    }
    ok = (
        passed[1.49]
        and passed[1.5 - 1e-3]
        and not passed[1.5 + 1e-3]
        and not passed[1.51]
    )
    check(
        "07 flatness threshold",
        ok,
        f"passed at alpha 1.49/{1.5 - 1e-3}: {passed[1.49]}/{passed[1.5 - 1e-3]}, "
        f"failed at {1.5 + 1e-3}/1.51: {not passed[1.5 + 1e-3]}/{not passed[1.51]} "
        f"(threshold alpha < 1.5 resolved to 1e-3)",
    )


def test_08_bernoulli_constant_closed_form():
    lam = bernoulli_lambda(DensityModel(kind="arctan", alpha=0.1))
    target = 1.0 + 0.1 * math.pi / 4.0 + 0.05 * math.log(2.0)
    err = abs(lam - target)
    check(
        "08 Bernoulli constant",
        err <= 1e-12,
        f"lambda(arctan, 0.1) = {lam!r}, closed form {target!r}, |diff| = {err:.2e} (<= 1e-12)",
    )


def test_09_homogeneity_deviation_oracles(quad3d):
    uq, mesh, _ = quad3d
    dev_cone = homogeneity_deviation(uq, ORIGIN3, 1.0)
    target = 4.0 * math.pi / 5.0
    rel = abs(dev_cone - target) / target
    uh = ScalarField(uq.grid, np.maximum(mesh[2], 0.0))
    dev_half = homogeneity_deviation(uh, ORIGIN3, 1.0)
    lip = 1.0
    ok = rel <= 0.01 and dev_half <= 1e-2 * lip
    check(
        "09 homogeneity deviation",
        ok,
        f"dev(|x|^2, r=1) = {dev_cone:.5f} vs 4*pi/5 rel err {rel:.4f} (<= 0.01), "
        f"dev(half-plane) = {dev_half:.2e} (<= 1e-2 * Lip)",
    )


def test_10_oscillation_classification():
    grid = box2(192)
    x, y = grid.node_mesh()
    levels = [0.32, 0.16, 0.08, 0.04]
    affine = vmo_check(ScalarField(grid, 2.0 * x + y), ORIGIN2, levels)
    d2 = np.maximum(x * x + y * y, (grid.h / 2.0) ** 2)
    logarithmic = vmo_check(ScalarField(grid, 0.5 * np.log(d2)), ORIGIN2, levels)
    ok = affine.passed and not logarithmic.passed
    check(
        "10 oscillation classification",
        ok,
        f"affine passes at 4 dyadic levels: {affine.passed} "
        f"(limit {affine.limit_estimate:.2e} <= floor {affine.floor:.2e}), "
        f"log fails: {not logarithmic.passed} "
        f"(limit {logarithmic.limit_estimate:.3f} > floor {logarithmic.floor:.2e})",
    )


def test_11_shell_polynomial_fit():
    grid = box2(192)
    x, y = grid.node_mesh()
    d = np.sqrt(x * x + y * y)
    phi = ScalarField(grid, (2.0 + 3.0 * d + d * d) / (2.0 * np.pi))
    fit = regular_point_fit(phi, ORIGIN2, np.linspace(0.1, 0.2, 6))
    ok = (
        1.99 <= fit.a0 <= 2.01
        and 2.8 <= fit.a1 <= 3.2
        and fit.residual <= 0.045
    )
    check(
        "11 shell polynomial fit",
        ok,
        f"a0 = {fit.a0:.4f} (in [1.99, 2.01]), a1 = {fit.a1:.3f} (in [2.8, 3.2]), "
        f"a2 = {fit.a2:.3f}, residual = {fit.residual:.4f} (<= 0.045)",
    )
