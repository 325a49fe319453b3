"""Attitude optimal control for a foldable quadrotor on SO(3).

Layers: liealg (group/algebra primitives), plant (forced rigid-body model with
control-dependent inertia), ocp (continuous necessary conditions), varint
(variational discretization and discrete KKT system), solver (Newton/marching
solvers), harness (config, scenarios, CSV/SVG output, CLI). published holds
the as-published componentwise forms for comparison; it is imported on
demand, not here.
"""

__version__ = "0.1.0"

from . import liealg, plant, ocp, varint, solver, svgplot, harness, cli  # noqa: F401
