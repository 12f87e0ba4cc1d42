"""Numerical verification of the identities the solver is built on.

Each check returns a CheckReport with a scalar residual and a tolerance;
pass means residual <= tolerance.  Interior integrals are quadrature sums
over the layer; tail integrals below the layer use closed forms for the
exponential branches, so every check covers the half line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import Mesh, build_mesh, form_cache, quadrature_values
from .equilibria import DensityProfile, PhysicalParams, char_length
from .errors import ConfigError
from .growth_solver import (
    FIXED_POINT_RTOL,
    GrowthRecord,
    SolverSettings,
    lambda_max,
    lattice_magnitudes,
    solve_lambda_n,
)
from .modes import NormalMode, build_normal_mode
from .spectral_core import (
    assemble_B,
    boundary_quotient_spectrum,
    branch_evaluation,
    gamma_values,
    quotient_stationary_values,
)

ENERGY_RTOL = 1e-5
INEQUALITY_SLACK = 1e-6
TIGHTNESS_GAP = 1e-4
APPENDIX_D_ATOL = 1e-6


@dataclass(frozen=True)
class CheckReport:
    name: str
    residual: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def make(name: str, residual: float, tolerance: float,
             **metadata) -> "CheckReport":
        return CheckReport(name=name, residual=float(residual),
                           tolerance=float(tolerance),
                           passed=bool(residual <= tolerance),
                           metadata=metadata)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name:<38s} residual={self.residual: .6e} "
                f"tolerance={self.tolerance: .6e} {status}")


# -- closed-form tail integrals ------------------------------------------------

def tail_integrals(c1: float, c2: float, alpha: float, beta: float,
                   k: float) -> tuple[float, float, float]:
    """(mass, gradient, stress) integrals of c1 e^{alpha s} + c2 e^{beta s}
    over s < 0, where stress means (phi'' + k^2 phi)^2.
    """

    def pair(d1, d2):
        return (d1 * d1 / (2.0 * alpha) + 2.0 * d1 * d2 / (alpha + beta)
                + d2 * d2 / (2.0 * beta))

    mass = pair(c1, c2)
    grad = pair(alpha * c1, beta * c2)
    stress = pair((alpha**2 + k**2) * c1, (beta**2 + k**2) * c2)
    return mass, grad, stress


@dataclass(frozen=True, eq=False)
class TrialFunction:
    """H2 trial on the layer with a C1 exponential tail below it.

    ``coeffs`` is one DOF vector, or a (dof, m) matrix whose columns are a
    block of m trials on one mesh with one ``tau``; ``A1`` and ``A2`` are
    then scalars or length-m vectors.
    """

    mesh: Mesh
    coeffs: np.ndarray
    A1: float | np.ndarray
    A2: float | np.ndarray
    tau: float

    @classmethod
    def from_mode(cls, mode: NormalMode) -> "TrialFunction":
        return cls(mesh=mode.mesh, coeffs=mode.coeffs, A1=mode.A1,
                   A2=mode.A2, tau=mode.tau_minus)


# Trials checked per matrix product.  Blocks of 32 run as fast as larger
# ones; larger blocks leave more of the heap fragmented, which makes
# verify's later 128-element solves peak about 2 MB higher more often.
_TRIAL_BLOCK = 32


def _random_trials(mesh: Mesh, k: float, rng: np.random.Generator,
                   count: int) -> TrialFunction:
    """A block of ``count`` random trials, column j drawn as the j-th
    ``random_trial`` call on ``rng`` would draw it."""
    a = mesh.a
    amps, centers, widths = np.empty((3, 5, count))
    for j in range(count):
        amps[:, j] = rng.uniform(0.2, 1.0, 5) * rng.choice([-1.0, 1.0], 5)
        centers[:, j] = rng.uniform(-a, 0.0, 5)
        widths[:, j] = rng.uniform(a / 20.0, a / 4.0, 5)
    x = mesh.nodes[:, None]
    vals = np.zeros((x.size, count))
    slopes = np.zeros((x.size, count))
    for amp, c, w in zip(amps, centers, widths):
        e = amp * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        vals += e
        slopes += e * (c - x) / (w * w)
    coeffs = np.empty((mesh.dof_count, count))
    coeffs[0::2] = vals
    coeffs[1::2] = slopes
    coeffs[1] = k * coeffs[0]
    return TrialFunction(mesh=mesh, coeffs=coeffs, A1=coeffs[0], A2=0.0,
                         tau=2.0 * k)


def random_trial(mesh: Mesh, k: float, rng: np.random.Generator) -> TrialFunction:
    """Sum of 5 Gaussian bumps interpolated onto the C1 element space.

    The left slope DOF is overwritten by k * value so the single
    decaying tail A1 e^{k(x+a)} attaches with C1 continuity.
    """
    coeffs = _random_trials(mesh, k, rng, 1).coeffs[:, 0]
    return TrialFunction(mesh=mesh, coeffs=coeffs, A1=coeffs[0], A2=0.0,
                         tau=2.0 * k)


def _layer_integrals(trial: TrialFunction, profile: DensityProfile, k: float):
    """Layer integrals of rho0 (k^2 v^2 + v'^2), (v'' + k^2 v)^2 + 4 k^2 v'^2
    and drho0 v^2 at the quadrature points of the trial's mesh, one value
    per trial of a block."""
    w, rho, drho = form_cache(trial.mesh, profile).layer
    v, dv, ddv = quadrature_values(trial.mesh, trial.coeffs)
    weighted_grad = (w * rho) @ (k * k * v * v + dv * dv)
    stress = w @ ((ddv + k * k * v) ** 2 + 4.0 * k * k * dv * dv)
    strat_mass = (w * drho) @ (v * v)
    return weighted_grad, stress, strat_mass


def energy_identity_residual(mode: NormalMode) -> CheckReport:
    """Defect of the mode's energy balance over the whole half line.

    The balance equates the kinetic and viscous quadratic terms at rate
    lambda with the buoyancy terms; for an exact mode it vanishes
    identically, so the relative defect measures discretization error.
    """
    profile, params = mode.profile, mode.params
    k, lam = mode.k, mode.lambda_n
    weighted_grad, stress, strat_mass = _layer_integrals(
        TrialFunction.from_mode(mode), profile, k)
    mass_out, grad_out, stress_out = tail_integrals(
        mode.A1, mode.A2, k, mode.tau_minus, k)
    rho_m = profile.rho_minus
    phi0 = mode.coeffs[-2]
    t_kinetic = lam**2 * (weighted_grad
                          + rho_m * (k * k * mass_out + grad_out))
    t_viscous = lam * params.mu * (stress + stress_out + 4.0 * k * k * grad_out)
    t_surface = params.g * k * k * profile.rho_plus * phi0**2
    t_buoyancy = -params.g * k * k * strat_mass
    total = t_kinetic + t_viscous + t_surface + t_buoyancy
    scale = abs(t_kinetic) + abs(t_viscous) + abs(t_surface) + abs(t_buoyancy)
    return CheckReport.make("energy-identity", abs(total) / scale, ENERGY_RTOL,
                            k=k, n=mode.n, lam=lam,
                            n_elements=mode.mesh.n_elements)


def check_variational_inequality(Lambda: float, trial: TrialFunction, k: float,
                                 profile: DensityProfile,
                                 params: PhysicalParams) -> CheckReport:
    """Maximal-growth bound: stratification energy vs rate-weighted norms.

    Signed residual (lhs - rhs) / rhs must stay below INEQUALITY_SLACK; equality
    is approached by the extremal mode at the lattice argmax.  A block of
    trials reports its worst residual.
    """
    residuals = _inequality_residuals(Lambda, trial, k, profile, params)
    return CheckReport.make("variational-inequality", np.max(residuals),
                            INEQUALITY_SLACK, k=k, Lambda=Lambda)


def _inequality_residuals(Lambda: float, trial: TrialFunction, k: float,
                          profile: DensityProfile,
                          params: PhysicalParams) -> np.ndarray:
    """The bound's signed residual, one per trial of a block.  The layer
    norms are ``_layer_integrals`` divided by k^2."""
    weighted_grad, stress, strat_mass = _layer_integrals(trial, profile, k)
    mass_out, grad_out, stress_out = tail_integrals(trial.A1, trial.A2, k,
                                                    trial.tau, k)
    weighted = weighted_grad / k**2 + profile.rho_minus * (mass_out
                                                           + grad_out / k**2)
    stress = stress / k**2 + stress_out / k**2 + 4.0 * grad_out
    phi0 = trial.coeffs[-2]
    lhs = params.g * strat_mass
    rhs = (params.g * profile.rho_plus * phi0**2
           + Lambda**2 * weighted + Lambda * params.mu * stress)
    # a zero trial has lhs = rhs = 0 and residual 0
    return np.divide(lhs - rhs, np.abs(rhs), out=np.zeros(np.shape(rhs)),
                     where=(lhs != 0.0) | (rhs != 0.0))


def fixed_point_residual(mesh: Mesh, profile: DensityProfile,
                         params: PhysicalParams, record: GrowthRecord) -> CheckReport:
    """Recompute the branch's gamma at the solved rate and check the root.

    gamma comes from a dense eigensolve and the noise-free Rayleigh
    quotient the root finder reads (``branch_evaluation``).
    """
    if not record.converged:
        return CheckReport.make("fixed-point", 0.0, FIXED_POINT_RTOL,
                                vacuous=True, k=record.k, n=record.n)
    pencil = assemble_B(mesh, profile, params, record.k, record.lambda_n)
    ev = branch_evaluation(pencil, record.n)
    gk2 = params.g * record.k**2
    res = (math.inf if ev is None
           else abs(gk2 * ev.gamma - record.lambda_n) / record.lambda_n)
    return CheckReport.make("fixed-point", res, FIXED_POINT_RTOL,
                            k=record.k, n=record.n, lam=record.lambda_n)


def _leading_gammas(mesh: Mesh, profile: DensityProfile,
                    params: PhysicalParams, k: float, n: int,
                    grid: np.ndarray) -> np.ndarray:
    """gamma_1..gamma_n at each rate of ``grid``, one pencil per rate;
    shape (grid.size, n)."""
    gam = np.empty((grid.size, n))
    for i, lam in enumerate(grid):
        g = gamma_values(assemble_B(mesh, profile, params, k, float(lam)), n)
        if g.size < n:
            raise ValueError(f"branch n={n} absent at lam={lam}")
        gam[i] = g
    return gam


def _monotone_report(grid: np.ndarray, gam: np.ndarray, k: float, n: int,
                     quantity: str) -> CheckReport:
    """The probe's report from branch n's gamma_n on ``grid``."""
    if grid.size < 2:
        return CheckReport.make(f"monotone-{quantity}", 0.0, 0.0,
                                vacuous=True, k=k, n=n)
    if quantity == "gamma":
        residual = float(np.diff(gam).max())
    else:
        residual = float((-np.diff(grid / gam)).max())
    return CheckReport.make(f"monotone-{quantity}", residual, 0.0,
                            k=k, n=n, points=grid.size,
                            lam_min=float(grid[0]), lam_max=float(grid[-1]))


def monotonicity_probe(mesh: Mesh, profile: DensityProfile,
                       params: PhysicalParams, k: float, n: int,
                       lambda_grid, quantity: str = "gamma") -> CheckReport:
    """Sign of consecutive differences of gamma_n (or lam/gamma_n) on a grid.

    quantity="gamma" asserts strict decrease; "rate-ratio" asserts strict
    increase of lam/gamma_n.  Residual is the worst signed violation, so
    single-point grids pass vacuously.
    """
    if quantity not in ("gamma", "rate-ratio"):
        raise ValueError("quantity must be 'gamma' or 'rate-ratio'")
    grid = np.asarray(lambda_grid, dtype=float)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("lambda grid must be strictly increasing")
    gam = _leading_gammas(mesh, profile, params, k, n, grid)[:, n - 1]
    return _monotone_report(grid, gam, k, n, quantity)


# -- suites ---------------------------------------------------------------------

MONOTONE_GRID_FLOOR = 1e-3
MONOTONE_GRID_POINTS = 20

# The wavenumber of the energy, monotone and convergence suites.
SUITE_K = 1.0


def appendix_d_suite(a: float = 1.0,
                     ka_values=(0.5, 1.0, 2.0)) -> list[CheckReport]:
    """Endpoint-quotient pencil eigenvalues against their closed forms."""
    mesh = build_mesh(a, 64)
    reports = []
    for ka in ka_values:
        computed = boundary_quotient_spectrum(mesh, ka / a)
        closed = quotient_stationary_values(ka)
        residual = (float(np.abs(computed - closed).max())
                    if computed.size == 4 else math.inf)
        reports.append(CheckReport.make(f"appendix-d ka={ka:g}", residual,
                                        APPENDIX_D_ATOL,
                                        n_elements=mesh.n_elements))
    return reports


def energy_suite(profile: DensityProfile,
                 params: PhysicalParams) -> list[CheckReport]:
    mesh = build_mesh(profile.a, 128)
    mode = build_normal_mode(mesh, profile, params, (SUITE_K, 0.0), 1)
    return [energy_identity_residual(mode)]


def inequality_suite(profile: DensityProfile, params: PhysicalParams,
                     seed: int = 0, n_trials: int = 1000, n_wavenumbers: int = 5,
                     Kmax: float = 8.0, n_elements: int = 64,
                     settings: SolverSettings = SolverSettings()) -> list[CheckReport]:
    """Randomized trials of the maximal-growth bound, plus its tightness.

    Trial functions are seeded and checked in blocks of ``_TRIAL_BLOCK``;
    the wavenumbers are the smallest lattice magnitudes, where the bound is
    sharpest.
    """
    mesh = build_mesh(profile.a, n_elements)
    result = lambda_max(mesh, profile, params, Kmax, settings)
    if not result.any_unstable:
        if char_length(profile, params.g)[1] == 0.0:
            return [CheckReport.make("inequality (vacuous: stable profile)",
                                     0.0, INEQUALITY_SLACK, trials=0)]
        return [CheckReport.make("inequality (growth solves not converged)",
                                 math.inf, INEQUALITY_SLACK, trials=0)]
    rng = np.random.default_rng(seed)
    ks = lattice_magnitudes(params.L1, params.L2, Kmax)[:n_wavenumbers]
    reports = []
    for k in ks:
        worst = -math.inf
        for start in range(0, n_trials, _TRIAL_BLOCK):
            block = _random_trials(mesh, float(k), rng,
                                   min(_TRIAL_BLOCK, n_trials - start))
            rep = check_variational_inequality(result.Lambda, block, float(k),
                                               profile, params)
            worst = max(worst, rep.residual)
        reports.append(CheckReport.make(f"inequality k={k:g}", worst,
                                        INEQUALITY_SLACK, trials=n_trials,
                                        seed=seed, Lambda=result.Lambda))
    # tightness at the argmax: the extremal mode nearly saturates the bound
    mode = build_normal_mode(mesh, profile, params, (result.argmax_k, 0.0), 1,
                             settings, record=result.argmax_record)
    rep = check_variational_inequality(result.Lambda,
                                       TrialFunction.from_mode(mode),
                                       result.argmax_k, profile, params)
    reports.append(CheckReport.make("inequality-tightness", -rep.residual,
                                    TIGHTNESS_GAP, k=result.argmax_k,
                                    Lambda=result.Lambda))
    return reports


def monotone_suite(profile: DensityProfile, params: PhysicalParams,
                   n_branches: int = 4,
                   n_elements: int = 64) -> list[CheckReport]:
    mesh = build_mesh(profile.a, n_elements)
    _, cap = char_length(profile, params.g)
    if cap == 0.0:
        return [CheckReport.make("monotone (vacuous: stable profile)", 0.0, 0.0)]
    grid = np.geomspace(MONOTONE_GRID_FLOOR, cap, MONOTONE_GRID_POINTS)
    gam = _leading_gammas(mesh, profile, params, SUITE_K, n_branches, grid)
    return [_monotone_report(grid, gam[:, n - 1], SUITE_K, n, quantity)
            for n in range(1, n_branches + 1)
            for quantity in ("gamma", "rate-ratio")]


def convergence_suite(profile: DensityProfile, params: PhysicalParams,
                      settings: SolverSettings = SolverSettings()) -> list[CheckReport]:
    """Self-convergence of the leading rate and decrease of the energy
    defect; each mode is built while its mesh's forms are cached."""
    rates, residuals = {}, {}
    for n_el in (32, 64, 128):
        mesh = build_mesh(profile.a, n_el)
        rec = solve_lambda_n(mesh, profile, params, SUITE_K, 1, settings)
        if not rec.converged:
            if char_length(profile, params.g)[1] == 0.0:
                return [CheckReport.make("convergence (vacuous: stable "
                                         "profile)", 0.0, 0.0)]
            return [CheckReport.make(
                f"convergence (solve not converged: {rec.reason})",
                math.inf, 1e-6)]
        mode = build_normal_mode(mesh, profile, params, (SUITE_K, 0.0), 1,
                                 settings, record=rec)
        rates[n_el] = rec.lambda_n
        residuals[n_el] = energy_identity_residual(mode).residual
    rel = abs(rates[64] - rates[128]) / rates[128]
    # A discrete mode satisfies its own weak energy balance identically, so
    # the defect sits at eigensolver-noise level at every resolution and
    # monotone decrease is unobservable; assert the noise floor instead.
    return [CheckReport.make("convergence lambda1 64-vs-128", rel, 1e-6,
                             k=SUITE_K),
            CheckReport.make("convergence energy-defect floor",
                             max(residuals.values()), 1e-8,
                             **{str(m): r for m, r in residuals.items()})]


SUITES = ("appendixD", "energy", "inequality", "monotone", "convergence", "all")


def run_suite(name: str, profile: DensityProfile, params: PhysicalParams,
              seed: int = 0, Kmax: float = 8.0,
              settings: SolverSettings = SolverSettings()) -> list[CheckReport]:
    suites = {
        "appendixD": lambda: appendix_d_suite(a=profile.a),
        "energy": lambda: energy_suite(profile, params),
        "inequality": lambda: inequality_suite(profile, params, seed=seed,
                                               Kmax=Kmax, settings=settings),
        "monotone": lambda: monotone_suite(profile, params),
        "convergence": lambda: convergence_suite(profile, params,
                                                 settings=settings),
    }
    if name == "all":
        return [rep for suite in suites.values() for rep in suite()]
    if name not in suites:
        raise ConfigError(f"unknown verify suite {name!r}; choose from {SUITES}")
    return suites[name]()
