"""fbmlab: a desk-scale lab for one-phase free boundary energies.

The package discretizes the energy  integral of f(|grad u|^2) + lambda*1{u>0}
on a box, minimizes it over nodal fields with prescribed boundary values, and
then probes the minimizer with a family of radius-indexed diagnostics: a
corrected monotonicity quantity built from a Neumann potential of a nonlinear
flux, its derivative identities, oscillation profiles of the potential, and
blow-up flatness metrics at free boundary points.
"""

from __future__ import annotations

from .density import DensityModel, bernoulli_lambda, flatness_report
from .fields import Grid, ScalarField, VectorField, geometric_radii
from .ghost import FluxField, flux_field, neumann_solve, weak_divergence_residual
from .monotonicity import (
    error_term,
    error_term_flux,
    radial_derivative,
    regular_point_fit,
    scan,
    vmo_check,
)
from .blowup import homogeneity_deviation
from .scenario import load_scenario
from .pipeline import run_pipeline

__all__ = [
    "DensityModel",
    "bernoulli_lambda",
    "flatness_report",
    "Grid",
    "ScalarField",
    "VectorField",
    "geometric_radii",
    "FluxField",
    "flux_field",
    "neumann_solve",
    "weak_divergence_residual",
    "error_term",
    "error_term_flux",
    "radial_derivative",
    "regular_point_fit",
    "scan",
    "vmo_check",
    "homogeneity_deviation",
    "load_scenario",
    "run_pipeline",
]

__version__ = "0.1.0"
