"""Growth rates: the fixed-point solve, dispersion sweeps, and the lattice maximum.

The n-th growth rate at wavenumber k is the unique root of
``f(lam) = g k^2 gamma_n(lam, k) - lam`` on (0, sqrt(g/L0)].  Uniqueness
comes from strict monotonicity of lam / gamma_n(lam, k) (every term of
the quadratic form lam * B_lam grows with lam), which pins the sign
structure of f: positive below the root, negative above.  The root is
found by Newton's method safeguarded by a bracket with f > 0 at one end and
f < 0 at the other, so it is safe even where f itself is not monotone.
Every step evaluates f and f' from ``branch_evaluation``: Rayleigh
quotients free of eigensolver noise, from vectors warm-started at the
previous step's.  A dense eigensolve at the returned rate certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import Mesh, build_mesh
from .equilibria import DensityProfile, PhysicalParams, char_length
from .errors import ConfigError, NumericalError
from .spectral_core import (
    BranchEvaluation,
    assemble_B,
    branch_evaluation,
    dense_branches,
    gamma_values,
)

NO_UNSTABLE_BRANCH = "no-unstable-branch"
RATE_BELOW_FLOOR = "rate-below-floor"
MAX_ITERATIONS = "max-iterations"
RESIDUAL_ABOVE_TOLERANCE = "residual-above-tolerance"

# The operator blows up as 1/lam at the bottom of the rate interval, so the
# bracket starts at a small positive fraction of the cap instead of 0.
BRACKET_FLOOR = 1e-12

# The solver squares rates down to BRACKET_FLOOR * cap; below this cap the
# square of that floor is no longer a normal float.
MIN_GROWTH_CAP = math.sqrt(np.finfo(float).tiny) / BRACKET_FLOOR

# A converged record must reproduce its own fixed point to this relative level.
FIXED_POINT_RTOL = 1e-8

# lattice_magnitudes refuses to enumerate more (i, j) points than this.
MAX_LATTICE_POINTS = 1_000_000


@dataclass(frozen=True)
class SolverSettings:
    tol_rel: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_rel < 1e-2:
            raise ConfigError("solver.tol_rel must lie in (0, 1e-2)")
        if self.max_iter < 10:
            raise ConfigError("solver.max_iter must be at least 10")


@dataclass(frozen=True)
class SolveStats:
    """How one growth record was found.

    Counts are of this solve's own eigen-evaluations: bracket ends a sweep
    solved once per k are not included.  ``dense_solves`` counts dense
    eigensolves (ends solved here, fallbacks of warm evaluations and the
    certificate at the returned rate), ``block_evaluations`` the warm
    evaluations and ``block_iterations`` their subspace iterations.
    ``residual_rel`` is the certificate's |f| / lambda.
    """

    dense_solves: int
    block_evaluations: int
    block_iterations: int
    start_bracket: tuple[float, float]
    final_bracket: tuple[float, float]
    residual_rel: float


@dataclass(frozen=True)
class GrowthRecord:
    """One (wavenumber, branch) growth-rate solve.

    ``residual`` is the absolute fixed-point defect |g k^2 gamma_n - lam_n|
    recomputed at the returned rate by a dense eigensolve; records without
    a branch carry NaN and a reason string.  ``stats`` (not compared)
    tells how a solved record was found.
    """

    k: float
    n: int
    lambda_n: float
    residual: float
    iterations: int
    converged: bool
    reason: str | None = None
    stats: SolveStats | None = field(default=None, compare=False)


@dataclass(frozen=True)
class LambdaMaxResult:
    """Maximal growth rate over the wavenumber lattice up to |k| <= Kmax."""

    Lambda: float
    argmax_k: float
    lattice_cutoff: float
    records: tuple[GrowthRecord, ...]

    @property
    def any_unstable(self) -> bool:
        return any(r.converged for r in self.records)

    @property
    def argmax_record(self) -> GrowthRecord | None:
        """The converged record whose rate is Lambda, or None."""
        return next((r for r in self.records
                     if r.converged and r.k == self.argmax_k), None)


def _no_branch(k: float, n: int, reason: str = NO_UNSTABLE_BRANCH) -> GrowthRecord:
    return GrowthRecord(k=k, n=n, lambda_n=math.nan, residual=math.nan,
                        iterations=0, converged=False, reason=reason)


def _bracket_ends(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                  k: float, n: int, cap: float
                  ) -> tuple[list[BranchEvaluation], np.ndarray]:
    """Bracket ends of branches 1..n: every dense branch at BRACKET_FLOOR *
    cap and the eigenvalues at the cap; ConfigError below MIN_GROWTH_CAP."""
    if cap < MIN_GROWTH_CAP:
        raise ConfigError(f"growth-rate cap sqrt(g/L0) = {cap:.3g} is below "
                          f"{MIN_GROWTH_CAP:.3g}")
    return (dense_branches(assemble_B(mesh, profile, params, k,
                                      BRACKET_FLOOR * cap), n),
            gamma_values(assemble_B(mesh, profile, params, k, cap), n))


def solve_lambda_n(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                   k: float, n: int, settings: SolverSettings = SolverSettings(),
                   *, ends: tuple[list[BranchEvaluation], np.ndarray] | None = None
                   ) -> GrowthRecord:
    """Solve for the n-th growth rate at wavenumber k by bracketed Newton.

    The root of f starts bracketed by [BRACKET_FLOOR * cap, cap]; the
    bracket shrinks until its width is at most ``settings.tol_rel`` times
    its upper end, or for at most ``settings.max_iter`` steps (one warm
    evaluation each).  A step is Newton's from the last point; it bisects
    when Newton leaves the bracket or f' >= 0, and steps a quarter
    tolerance past a root predicted within half a tolerance, so that one
    evaluation closes the bracket.  An exact root, or else the secant root
    of the final bracket, is returned with the residual of a dense solve
    there; ``iterations`` counts the steps after the two end evaluations.

    ``ends`` holds ``_bracket_ends`` for at least n branches; a sweep
    passes them to solve each end once per wavenumber.  Without it the
    ends are solved here.

    Returns a non-converged record with reason ``no-unstable-branch`` when
    the branch is absent (degenerate stratification, or n beyond the
    positive spectrum) rather than raising, and with ``rate-below-floor``
    when a present branch has f <= 0 at the bracket floor: its rate is lower.
    """
    if not k > 0.0:
        raise ValueError("wavenumber k must be strictly positive")
    if n < 1:
        raise ValueError("branch index n must be at least 1")
    _, cap = char_length(profile, params.g)
    if cap == 0.0:
        return _no_branch(k, n)
    gk2 = params.g * k * k
    dense_solves = block_evaluations = block_iterations = 0

    def evaluate(lam: float, block: np.ndarray | None = None):
        """(f, f', block) at lam, or None when branch n is absent there."""
        nonlocal dense_solves, block_evaluations, block_iterations
        ev = branch_evaluation(assemble_B(mesh, profile, params, k, lam),
                               n, block)
        if ev is None:
            return None
        block_evaluations += block is not None
        block_iterations += ev.iterations
        dense_solves += ev.dense
        return gk2 * ev.gamma - lam, gk2 * ev.slope - 1.0, ev.block

    lo, hi = BRACKET_FLOOR * cap, cap
    if ends is None:
        ends = _bracket_ends(mesh, profile, params, k, n, cap)
        dense_solves += 2
    lowers, upper = ends
    if len(lowers) < n:
        return _no_branch(k, n)
    lower = lowers[n - 1]
    f_lo = gk2 * lower.gamma - lo
    if f_lo <= 0.0:
        return _no_branch(k, n, RATE_BELOW_FLOOR)
    # A present branch under the cap's drop level has f(cap) = -cap there.
    f_hi = (gk2 * upper[n - 1] if upper.size >= n else 0.0) - hi
    if f_hi >= 0.0:
        raise NumericalError(
            f"fixed-point bracket failed at k={k}, n={n}: f({cap}) >= 0")

    # x is the last point evaluated; Newton steps from there.
    x, fx, dfx, block = lo, f_lo, gk2 * lower.slope - 1.0, lower.block
    iterations = 0
    while hi - lo > settings.tol_rel * hi and iterations < settings.max_iter:
        t = math.nan
        if dfx < 0.0:
            step = fx / dfx
            t = x - step
            # The tolerance is taken at the predicted root, not at hi: a
            # bracket that still ends at the cap would make it too wide.
            tol = settings.tol_rel * t
            if abs(step) <= 0.5 * tol:
                t += math.copysign(0.25 * tol, fx)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        found = evaluate(t, block)
        if found is None:
            return _no_branch(k, n)
        iterations += 1
        x, (fx, dfx, block) = t, found
        # At a bracket of adjacent floats the midpoint is an end, where a
        # second evaluation may round to the other sign: keep the bracket.
        if not lo < x < hi:
            continue
        if fx > 0.0:
            lo, f_lo = x, fx
        elif fx < 0.0:
            hi, f_hi = x, fx
        elif x < x + 0.25 * settings.tol_rel * x:
            # An exact root closes the bracket, unless the tolerance is
            # below the float spacing there: no bracket can then meet it.
            lo = hi = x

    # The secant root of a closed bracket is exact to its width squared.
    rate = lo if lo == hi else lo + f_lo * (hi - lo) / (f_lo - f_hi)
    interval_ok = hi - lo <= settings.tol_rel * hi
    certificate = evaluate(rate)
    if certificate is None:
        return _no_branch(k, n)
    residual = abs(certificate[0])
    converged = interval_ok and residual <= FIXED_POINT_RTOL * rate
    if converged:
        reason = None
    elif not interval_ok:
        reason = MAX_ITERATIONS
    else:
        reason = RESIDUAL_ABOVE_TOLERANCE
    stats = SolveStats(dense_solves=dense_solves,
                       block_evaluations=block_evaluations,
                       block_iterations=block_iterations,
                       start_bracket=(BRACKET_FLOOR * cap, cap),
                       final_bracket=(lo, hi), residual_rel=residual / rate)
    return GrowthRecord(k=k, n=n, lambda_n=rate, residual=residual,
                        iterations=iterations, converged=converged,
                        reason=reason, stats=stats)


def dispersion(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
               k_values, n_max: int,
               settings: SolverSettings = SolverSettings()) -> list[GrowthRecord]:
    """Growth records for every (k, n <= n_max), ordered by (k, n).

    Missing branches appear as non-converged records, not failures.  Once
    branch n is absent at some k, higher branches there are absent too.
    The pencils at the two bracket ends are solved once per k for all
    n_max branches.
    """
    _, cap = char_length(profile, params.g)
    records: list[GrowthRecord] = []
    for k in k_values:
        k = float(k)
        ends = (None if cap == 0.0
                else _bracket_ends(mesh, profile, params, k, n_max, cap))
        absent = False
        for n in range(1, n_max + 1):
            if absent:
                records.append(_no_branch(k, n))
                continue
            rec = solve_lambda_n(mesh, profile, params, k, n, settings,
                                 ends=ends)
            if rec.reason == NO_UNSTABLE_BRANCH:
                absent = True
            records.append(rec)
    return records


def refinement_agreement(mesh: Mesh, profile: DensityProfile,
                         params: PhysicalParams, record: GrowthRecord,
                         settings: SolverSettings = SolverSettings()) -> float:
    """Relative change of the rate when the mesh is refined by a factor 2.

    How many branches are trustworthy at a given resolution cannot be
    declared a priori; this probe quantifies it per record.  NaN when
    either solve fails to converge.
    """
    if not record.converged:
        return math.nan
    finer = build_mesh(mesh.a, 2 * mesh.n_elements,
                       mesh.quadrature_points)
    refined = solve_lambda_n(finer, profile, params, record.k, record.n,
                             settings)
    if not refined.converged:
        return math.nan
    return abs(refined.lambda_n - record.lambda_n) / refined.lambda_n


def lattice_magnitudes(L1: float, L2: float, Kmax: float) -> np.ndarray:
    """Distinct nonzero magnitudes of the lattice (i/L1, j/L2), |k| <= Kmax.

    Magnitudes equal to 12 decimals count as one; the first one found is
    kept exactly as ``math.hypot`` gives it.
    """
    if not 0.0 < Kmax < math.inf:
        raise ConfigError("lattice.Kmax must be strictly positive and finite")
    # Clamped, so that a span that overflows to inf still counts as too many.
    i_max, j_max = (math.floor(min(Kmax * L, MAX_LATTICE_POINTS) + 1e-12)
                    for L in (L1, L2))
    if (i_max + 1) * (j_max + 1) > MAX_LATTICE_POINTS:
        raise ConfigError(f"lattice.Kmax={Kmax} spans more than "
                          f"{MAX_LATTICE_POINTS} lattice points")
    mags: dict[float, float] = {}
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            if i == 0 and j == 0:
                continue
            m = math.hypot(i / L1, j / L2)
            if m <= Kmax * (1.0 + 1e-12):
                mags.setdefault(round(m, 12), m)
    if not mags:
        raise ConfigError(
            f"no lattice wavenumbers with magnitude <= Kmax={Kmax}")
    return np.array(sorted(mags.values()))


def lambda_max(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
               Kmax: float,
               settings: SolverSettings = SolverSettings()) -> LambdaMaxResult:
    """Maximize the leading growth rate over lattice magnitudes up to Kmax.

    Lattice directions sharing a magnitude are solved once.  With no
    converged branch anywhere (degenerate stratification) Lambda is 0 and
    argmax_k is NaN.
    """
    mags = lattice_magnitudes(params.L1, params.L2, Kmax)
    records = tuple(dispersion(mesh, profile, params, mags, 1, settings))
    best = max((r for r in records if r.converged),
               key=lambda r: r.lambda_n, default=None)
    return LambdaMaxResult(Lambda=best.lambda_n if best else 0.0,
                           argmax_k=best.k if best else math.nan,
                           lattice_cutoff=Kmax, records=records)
