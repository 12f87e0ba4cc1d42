"""Unstable spectrum and normal modes of a viscous stratified ocean.

Library + CLI for the linear Rayleigh-Taylor problem of an infinitely
deep, smoothly stratified viscous fluid bounded above by a free surface:
growth rates over the wavenumber lattice, full normal-mode profiles, and
a numerical verification suite for the identities the solver relies on.
"""

from .equilibria import DensityProfile, PhysicalParams, char_length
from .discretization import HermiteFunction, Mesh, build_mesh
from .spectral_core import (
    PencilAssembly,
    SpectrumResult,
    assemble_B,
    gamma_spectrum,
    gamma_values,
)
from .growth_solver import (
    GrowthRecord,
    LambdaMaxResult,
    SolverSettings,
    dispersion,
    lambda_max,
    lattice_magnitudes,
    refinement_agreement,
    solve_lambda_n,
)
from .modes import (
    FieldSample,
    HalfLineFunction,
    NormalMode,
    SurfaceSeries,
    build_normal_mode,
    evaluate_field,
    horizontal_velocity,
    mode_table,
    poisson_extend,
    poisson_gradient_l2,
    surface_l2,
)
from .verify import (
    CheckReport,
    boundary_quotient_spectrum,
    check_variational_inequality,
    coercivity_bound,
    coercivity_ratio,
    energy_identity_residual,
    fixed_point_residual,
    monotonicity_probe,
    quotient_stationary_values,
    random_trial,
    run_suite,
)
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    CoercivityError,
    NoUnstableBranchError,
    NumericalError,
)

__all__ = [
    "DensityProfile", "PhysicalParams", "char_length",
    "Mesh", "build_mesh", "HermiteFunction",
    "PencilAssembly", "SpectrumResult",
    "assemble_B", "gamma_spectrum", "gamma_values",
    "GrowthRecord", "LambdaMaxResult", "SolverSettings",
    "dispersion", "lambda_max", "lattice_magnitudes",
    "refinement_agreement", "solve_lambda_n",
    "FieldSample", "HalfLineFunction", "NormalMode", "SurfaceSeries",
    "build_normal_mode", "evaluate_field", "horizontal_velocity", "mode_table",
    "poisson_extend", "poisson_gradient_l2", "surface_l2",
    "CheckReport", "check_variational_inequality",
    "energy_identity_residual", "fixed_point_residual",
    "monotonicity_probe", "random_trial", "run_suite",
    "boundary_quotient_spectrum", "coercivity_bound", "coercivity_ratio",
    "quotient_stationary_values",
    "RunConfig", "load_config",
    "ConfigError", "CoercivityError", "NoUnstableBranchError", "NumericalError",
]
