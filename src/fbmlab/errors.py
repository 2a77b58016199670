"""Exception types shared across the lab.

The command line layer maps these onto process exit codes, so solver,
geometry and configuration failures stay distinguishable end to end.
"""

from __future__ import annotations


class GeometryError(ValueError):
    """A ball, sphere or sample point does not fit inside the grid box."""


class SolverError(RuntimeError):
    """An iterative solve diverged or exhausted its iteration budget."""


class ScenarioError(ValueError):
    """A scenario file violates the configuration schema."""
