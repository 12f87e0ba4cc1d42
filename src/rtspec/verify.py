"""Numerical verification of the identities the solver is built on, and
the closed forms (Appendix D, the coercivity bound) it is checked against.

Each check returns a CheckReport with a scalar residual and a tolerance;
pass means residual <= tolerance.  Interior integrals are quadrature sums
over the layer; tail integrals below the layer are closed forms in its C1
matching data, so every check covers the half line.

The energy, inequality and convergence suites read branch-1 growth
records and normal modes at k = 1 (and at the lattice magnitudes).
``run_suite`` gives its suites one table of them, keyed by (mesh, k), and
drops it when it returns: ``verify --suite all`` solves each record and
builds each mode once, taking inequality's 64-element records from
``lambda_max``.  A suite called alone solves its own.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from . import _lapack
from .discretization import (
    ENDPOINT_DOFS,
    Mesh,
    assemble_h2_form,
    boundary_quotient_form,
    build_mesh,
    dense,
    layer_forms,
    quadrature_values,
)
from .equilibria import DensityProfile, PhysicalParams, char_length
from .errors import ConfigError
from .growth_solver import (
    FIXED_POINT_RTOL,
    NO_UNSTABLE_BRANCH,
    GrowthRecord,
    SolverSettings,
    lambda_max,
    lattice_magnitudes,
    solve_lambda_n,
)
from .modes import HalfLineFunction, NormalMode, build_normal_mode
from .spectral_core import assemble_B, branch_evaluation, gamma_values

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


# -- closed forms of the operator method ---------------------------------------

def boundary_quotient_spectrum(mesh: Mesh, k: float) -> np.ndarray:
    """Nonzero stationary values of the endpoint quotient, sorted decreasing.

    These are the eigenvalues of the rank-4 pencil BDRYQ x = beta H2 x
    (LAPACK ``dsygvd``, values only); at most four exceed 1e-10 in
    magnitude.  Closed forms exist: 1 (twice) and two negative values
    determined by sinh(ka) and ka.
    """
    q = np.zeros((mesh.dof_count, mesh.dof_count))
    q[np.ix_(ENDPOINT_DOFS, ENDPOINT_DOFS)] = boundary_quotient_form(k)
    vals = _lapack.eigh(q, dense(assemble_h2_form(mesh, k)), vectors=False)
    vals = vals[np.abs(vals) > 1e-10]
    return np.sort(vals)[::-1]


def coercivity_ratio(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                     k: float, lam: float) -> float:
    """Smallest eigenvalue of (K/mu) x = r H2 x (LAPACK ``dsygvx``).

    Bounded below by 2(sinh(ka) - ka)/(3 sinh(ka) - ka) uniformly in the
    rate and in the stratification shape.
    """
    kmat = dense(assemble_B(mesh, profile, params, k, lam).K_band)
    vals = _lapack.eigh(kmat / params.mu, dense(assemble_h2_form(mesh, k)),
                        (0, 0), vectors=False)
    return float(vals[0])


def coercivity_bound(ka: float) -> float:
    """Closed-form lower bound 2(sinh(ka) - ka)/(3 sinh(ka) - ka)."""
    s = math.sinh(ka)
    return 2.0 * (s - ka) / (3.0 * s - ka)


def quotient_stationary_values(ka: float) -> np.ndarray:
    """Closed-form stationary values of the endpoint quotient, decreasing.

    1 has multiplicity two; the remaining two roots are
    -(sinh(ka) - ka)/(3 sinh(ka) + ka) and -(sinh(ka) + ka)/(3 sinh(ka) - ka).
    """
    s = math.sinh(ka)
    return np.array([1.0, 1.0,
                     -(s - ka) / (3.0 * s + ka),
                     -(s + ka) / (3.0 * s - ka)])


# -- the energy functional ------------------------------------------------------

def tail_integrals(p, q, k: float, tau: float) -> tuple:
    """(mass, gradient, stress) integrals over s < 0 of the tail
    p e^{ks} + q D(s), D(s) = (e^{tau s} - e^{ks}) / (tau - k), where stress
    means (phi'' + k^2 phi)^2 and p = phi(-a), q = phi'(-a) - k phi(-a).

    Nothing here divides by tau - k: as tau nears k, the coefficients
    p - q / (tau - k) and q / (tau - k) of e^{ks} and e^{tau s} cancel.
    """

    def pair(u, v):
        # integral of (u e^{ks} + v D(s))^2 over s < 0
        return (u * u - 2.0 * u * v / (k + tau)
                + v * v / (tau * (k + tau))) / (2.0 * k)

    mass = pair(p, q)
    grad = pair(k * p + q, tau * q)
    stress = pair(2.0 * k**2 * p + (k + tau) * q, (tau**2 + k**2) * q)
    return mass, grad, stress


def _energy_terms(phi: HalfLineFunction, profile: DensityProfile,
                  params: PhysicalParams, rate: float) -> tuple:
    """Kinetic, viscous, surface and buoyancy terms of the energy balance
    of ``phi`` at ``rate`` over the half line, one value per function of
    a block.  A mode at its own rate sums them to zero."""
    k = phi.k
    w, rho, drho = layer_forms(phi.mesh, profile)[:3]
    v, dv, ddv = quadrature_values(phi.mesh, phi.coeffs)
    mass_out, grad_out, stress_out = tail_integrals(*phi.matching, k, phi.tau)
    weighted_grad = (w * rho) @ (k * k * v * v + dv * dv)
    stress = w @ ((ddv + k * k * v) ** 2 + 4.0 * k * k * dv * dv)
    kinetic = rate**2 * (weighted_grad
                         + profile.rho_minus * (k * k * mass_out + grad_out))
    viscous = rate * params.mu * (stress + stress_out + 4.0 * k * k * grad_out)
    surface = params.g * k * k * profile.rho_plus * phi.coeffs[-2] ** 2
    buoyancy = -params.g * k * k * ((w * drho) @ (v * v))
    return kinetic, viscous, surface, buoyancy


def energy_identity_residual(mode: NormalMode) -> CheckReport:
    """Defect of the mode's energy balance over the whole half line.

    The balance equates the kinetic and viscous quadratic terms at rate
    lambda with the buoyancy terms; for an exact mode it vanishes
    identically, so the relative defect measures discretization error.
    """
    terms = _energy_terms(mode.phi, mode.profile, mode.params, mode.lambda_n)
    residual = abs(sum(terms)) / sum(abs(t) for t in terms)
    return CheckReport.make("energy-identity", residual, ENERGY_RTOL,
                            k=mode.k, n=mode.n, lam=mode.lambda_n,
                            n_elements=mode.mesh.n_elements)


# Trials checked per matrix product.  Blocks of 32 run as fast as larger
# ones; larger blocks leave more of the heap fragmented, which makes
# verify's later 128-element solves peak about 2 MB higher more often.
_TRIAL_BLOCK = 32


def _random_trials(mesh: Mesh, k: float, rng: np.random.Generator,
                   count: int) -> HalfLineFunction:
    """A block of ``count`` trials like ``random_trial``'s, drawing each
    kind of random number for the whole block in one call."""
    a = mesh.a
    amps = (rng.uniform(0.2, 1.0, (5, count))
            * rng.choice([-1.0, 1.0], (5, count)))
    centers = rng.uniform(-a, 0.0, (5, count))
    widths = rng.uniform(a / 20.0, a / 4.0, (5, count))
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
    return HalfLineFunction(mesh=mesh, coeffs=coeffs, k=k, tau=2.0 * k)


def random_trial(mesh: Mesh, k: float,
                 rng: np.random.Generator) -> HalfLineFunction:
    """Sum of 5 Gaussian bumps interpolated onto the C1 element space.

    The left slope DOF is overwritten by k * value, so the C1 tail is the
    single decaying branch phi(-a) e^{k(x+a)}.
    """
    block = _random_trials(mesh, k, rng, 1)
    return replace(block, coeffs=block.coeffs[:, 0])


def check_variational_inequality(Lambda: float, trial: HalfLineFunction,
                                 profile: DensityProfile,
                                 params: PhysicalParams) -> CheckReport:
    """Maximal-growth bound: stratification energy vs rate-weighted norms.

    Signed residual (lhs - rhs) / rhs must stay below INEQUALITY_SLACK; equality
    is approached by the extremal mode at the lattice argmax.  A block of
    trials reports its worst residual.
    """
    residuals = _inequality_residuals(Lambda, trial, profile, params)
    return CheckReport.make("variational-inequality", np.max(residuals),
                            INEQUALITY_SLACK, k=trial.k, Lambda=Lambda)


def _inequality_residuals(Lambda: float, trial: HalfLineFunction,
                          profile: DensityProfile,
                          params: PhysicalParams) -> np.ndarray:
    """The bound's signed residual, one per trial of a block: the energy
    balance at rate Lambda over its kinetic, viscous and surface terms."""
    kinetic, viscous, surface, buoyancy = _energy_terms(trial, profile, params,
                                                        Lambda)
    rhs = kinetic + viscous + surface
    # a zero trial has every term 0 and residual 0
    return np.divide(-(rhs + buoyancy), rhs, out=np.zeros(np.shape(rhs)),
                     where=rhs != 0.0)


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

# Lowest monotone grid rate, times the cap if the cap is below 1.
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


def _unsolved_report(suite: str, record: GrowthRecord, profile: DensityProfile,
                     params: PhysicalParams, tolerance: float) -> CheckReport:
    """The one row of a suite whose growth solve did not converge: vacuous
    for a stable profile, else an infinite residual that names the reason."""
    if char_length(profile, params.g)[1] == 0.0:
        return CheckReport.make(f"{suite} (vacuous: stable profile)", 0.0, 0.0)
    return CheckReport.make(f"{suite} (solve not converged: {record.reason})",
                            math.inf, tolerance)


class _Branch1:
    """Branch-1 growth records and their modes by (mesh, k), each solved
    and built once."""

    def __init__(self, profile: DensityProfile, params: PhysicalParams,
                 settings: SolverSettings):
        self.profile, self.params, self.settings = profile, params, settings
        self.records, self.modes = {}, {}

    def solve(self, mesh: Mesh,
              k: float) -> tuple[GrowthRecord, NormalMode | None]:
        """The record at (mesh, k) and its mode, None unless it converged."""
        key = (mesh, k)
        if key not in self.records:
            self.records[key] = solve_lambda_n(mesh, self.profile, self.params,
                                               k, 1, self.settings)
        rec = self.records[key]
        if rec.converged and key not in self.modes:
            self.modes[key] = build_normal_mode(
                mesh, self.profile, self.params, (k, 0.0), 1, self.settings,
                record=rec)
        return rec, self.modes.get(key)


# The table of the run_suite call in progress; None outside one.
_SHARED: ContextVar[_Branch1 | None] = ContextVar("_SHARED", default=None)


def energy_suite(profile: DensityProfile, params: PhysicalParams,
                 settings: SolverSettings = SolverSettings()) -> list[CheckReport]:
    solved = _SHARED.get() or _Branch1(profile, params, settings)
    rec, mode = solved.solve(build_mesh(profile.a, 128), SUITE_K)
    if mode is None:
        return [_unsolved_report("energy", rec, profile, params, ENERGY_RTOL)]
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
    solved = _SHARED.get() or _Branch1(profile, params, settings)
    solved.records.update(((mesh, r.k), r) for r in result.records)
    if not result.any_unstable:
        failed = next((r for r in result.records
                       if r.reason != NO_UNSTABLE_BRANCH), result.records[0])
        return [_unsolved_report("inequality", failed, profile, params,
                                 INEQUALITY_SLACK)]
    rng = np.random.default_rng(seed)
    ks = lattice_magnitudes(params.L1, params.L2, Kmax)[:n_wavenumbers]
    reports = []
    for k in ks:
        worst = -math.inf
        for start in range(0, n_trials, _TRIAL_BLOCK):
            block = _random_trials(mesh, float(k), rng,
                                   min(_TRIAL_BLOCK, n_trials - start))
            rep = check_variational_inequality(result.Lambda, block, profile,
                                               params)
            worst = max(worst, rep.residual)
        reports.append(CheckReport.make(f"inequality k={k:g}", worst,
                                        INEQUALITY_SLACK, trials=n_trials,
                                        seed=seed, Lambda=result.Lambda))
    # tightness at the argmax: the extremal mode nearly saturates the bound
    mode = solved.solve(mesh, result.argmax_k)[1]
    rep = check_variational_inequality(result.Lambda, mode.phi, profile,
                                       params)
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
    grid = np.geomspace(MONOTONE_GRID_FLOOR * min(1.0, cap), cap,
                        MONOTONE_GRID_POINTS)
    gam = _leading_gammas(mesh, profile, params, SUITE_K, n_branches, grid)
    return [_monotone_report(grid, gam[:, n - 1], SUITE_K, n, quantity)
            for n in range(1, n_branches + 1)
            for quantity in ("gamma", "rate-ratio")]


def convergence_suite(profile: DensityProfile, params: PhysicalParams,
                      settings: SolverSettings = SolverSettings()) -> list[CheckReport]:
    """Self-convergence of the leading rate and decrease of the energy
    defect; each mode is built while its mesh's forms are cached."""
    solved = _SHARED.get() or _Branch1(profile, params, settings)
    rates, residuals = {}, {}
    for n_el in (32, 64, 128):
        rec, mode = solved.solve(build_mesh(profile.a, n_el), SUITE_K)
        if mode is None:
            return [_unsolved_report("convergence", rec, profile, params, 1e-6)]
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
        "energy": lambda: energy_suite(profile, params, settings=settings),
        "inequality": lambda: inequality_suite(profile, params, seed=seed,
                                               Kmax=Kmax, settings=settings),
        "monotone": lambda: monotone_suite(profile, params),
        "convergence": lambda: convergence_suite(profile, params,
                                                 settings=settings),
    }
    if name not in SUITES:
        raise ConfigError(f"unknown verify suite {name!r}; choose from {SUITES}")
    chosen = suites.values() if name == "all" else [suites[name]]
    token = _SHARED.set(_Branch1(profile, params, settings))
    try:
        return [rep for suite in chosen for rep in suite()]
    finally:
        _SHARED.reset(token)
