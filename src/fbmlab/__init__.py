"""fbmlab: a desk-scale lab for one-phase free boundary energies.

The package discretizes the energy  integral of f(|grad u|^2) + lambda*1{u>0}
on a box, minimizes it over nodal fields with prescribed boundary values, and
then probes the minimizer with a family of radius-indexed diagnostics: a
corrected monotonicity quantity built from a Neumann potential of a nonlinear
flux, its derivative identities, oscillation profiles of the potential, and
blow-up flatness metrics at free boundary points.
"""

from __future__ import annotations

from .density import (
    DensityModel,
    Kind,
    bernoulli_lambda,
    flatness_report,
    slope_deviation,
)
from .errors import GeometryError, ScenarioError, SolverError, VerdictUnavailable
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    ball_integral,
    free_boundary_points,
    geometric_radii,
    gradient,
    interpolate,
    lipschitz,
    shell_average,
    sphere_quadrature,
)
from .fieldio import read_field, write_field
from .minimizer import (
    BoundaryData,
    MinimizeReport,
    Problem,
    energy,
    energy_gradient,
    initial_guess,
    minimize,
)
from .ghost import (
    FluxField,
    GhostFunction,
    flux_bound_report,
    flux_field,
    neumann_solve,
    shell_identity_report,
    stability_report,
    weak_divergence_residual,
)
from .monotonicity import (
    MonotonicityReport,
    error_term,
    error_term_flux,
    radial_derivative,
    regular_point_fit,
    scan,
    vmo_check,
    weiss_core,
)
from .blowup import (
    BlowupSequence,
    RegularityReport,
    build_sequence,
    flatness_deficit,
    homogeneity_deviation,
    regularity_verdict,
    rescale,
)
from .scenario import Scenario, load_scenario, validate_dict
from .pipeline import run_pipeline

__all__ = [
    "DensityModel",
    "Kind",
    "bernoulli_lambda",
    "flatness_report",
    "slope_deviation",
    "GeometryError",
    "ScenarioError",
    "SolverError",
    "VerdictUnavailable",
    "Grid",
    "ScalarField",
    "VectorField",
    "ball_integral",
    "free_boundary_points",
    "geometric_radii",
    "gradient",
    "interpolate",
    "lipschitz",
    "shell_average",
    "sphere_quadrature",
    "read_field",
    "write_field",
    "BoundaryData",
    "MinimizeReport",
    "Problem",
    "energy",
    "energy_gradient",
    "initial_guess",
    "minimize",
    "FluxField",
    "GhostFunction",
    "flux_bound_report",
    "flux_field",
    "neumann_solve",
    "shell_identity_report",
    "stability_report",
    "weak_divergence_residual",
    "MonotonicityReport",
    "error_term",
    "error_term_flux",
    "radial_derivative",
    "regular_point_fit",
    "scan",
    "vmo_check",
    "weiss_core",
    "BlowupSequence",
    "RegularityReport",
    "build_sequence",
    "flatness_deficit",
    "homogeneity_deviation",
    "regularity_verdict",
    "rescale",
    "Scenario",
    "load_scenario",
    "validate_dict",
    "run_pipeline",
]

__version__ = "0.1.0"
