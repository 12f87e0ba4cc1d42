"""Unstable spectrum and normal modes of a viscous stratified ocean.

Library + CLI for the linear Rayleigh-Taylor problem of an infinitely
deep, smoothly stratified viscous fluid bounded above by a free surface:
growth rates over the wavenumber lattice, full normal-mode profiles, and
a numerical verification suite for the identities the solver relies on.

The package is lazy: ``import rtspec`` loads no submodule (so no numpy),
and each public name imports its module on first access (PEP 562).  So
``rtspec.cli`` can choose how BLAS loads before numpy is imported.
"""

from importlib import import_module

# module -> the public names it provides; the one list of the exports.
_EXPORTS = {
    "equilibria": ("DensityProfile", "PhysicalParams", "char_length"),
    "discretization": ("Mesh", "build_mesh", "HermiteFunction"),
    "spectral_core": ("PencilAssembly", "SpectrumResult", "assemble_B",
                      "gamma_spectrum", "gamma_values"),
    "growth_solver": ("GrowthRecord", "LambdaMaxResult", "SolverSettings",
                      "dispersion", "lambda_max", "lattice_magnitudes",
                      "refinement_agreement", "solve_lambda_n"),
    "modes": ("FieldSample", "HalfLineFunction", "NormalMode", "SurfaceSeries",
              "build_normal_mode", "evaluate_field", "horizontal_velocity",
              "mode_table", "poisson_extend", "poisson_gradient_l2",
              "surface_l2"),
    "verify": ("CheckReport", "check_variational_inequality",
               "energy_identity_residual", "fixed_point_residual",
               "monotonicity_probe", "random_trial", "run_suite",
               "boundary_quotient_spectrum", "coercivity_bound",
               "coercivity_ratio", "quotient_stationary_values"),
    "config": ("RunConfig", "load_config"),
    "errors": ("ConfigError", "CoercivityError", "NoUnstableBranchError",
               "NumericalError"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
