"""Growth rates: the fixed-point solve, dispersion sweeps, and the lattice maximum.

The n-th growth rate at wavenumber k is the unique root of
``f(lam) = g k^2 gamma_n(lam, k) - lam`` on (0, sqrt(g/L0)].  Uniqueness
comes from strict monotonicity of lam / gamma_n(lam, k) (every term of
the quadratic form lam * B_lam grows with lam), which pins the sign
structure of f: positive below the root, negative above.  The root is
found by Brent's method, which keeps a bracket with f > 0 at one end and
f < 0 at the other, so it is safe even where gamma_n itself is not
monotone, and converges superlinearly where f is smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import Mesh
from .equilibria import DensityProfile, PhysicalParams, char_length
from .errors import ConfigError, NumericalError
from .spectral_core import FormCache, assemble_B, gamma_values

NO_UNSTABLE_BRANCH = "no-unstable-branch"
MAX_ITERATIONS = "max-iterations"
RESIDUAL_ABOVE_TOLERANCE = "residual-above-tolerance"

# The operator blows up as 1/lam at the bottom of the rate interval, so the
# bracket starts at a small positive fraction of the cap instead of 0.
BRACKET_FLOOR = 1e-12

# A converged record must reproduce its own fixed point to this relative level.
FIXED_POINT_RTOL = 1e-8

# lattice_magnitudes refuses to enumerate more (i, j) points than this.
MAX_LATTICE_POINTS = 1_000_000


@dataclass(frozen=True)
class SolverSettings:
    tol_rel: float = 1e-10
    max_iter: int = 200
    n_max: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_rel < 1e-2:
            raise ConfigError("solver.tol_rel must lie in (0, 1e-2)")
        if self.max_iter < 10:
            raise ConfigError("solver.max_iter must be at least 10")
        if self.n_max < 1:
            raise ConfigError("solver.n_max must be at least 1")


@dataclass(frozen=True)
class GrowthRecord:
    """One (wavenumber, branch) growth-rate solve.

    ``residual`` is the absolute fixed-point defect |g k^2 gamma_n - lam_n|
    recomputed at the returned rate; non-converged records carry NaN and a
    reason string.
    """

    k: float
    n: int
    lambda_n: float
    residual: float
    iterations: int
    converged: bool
    reason: str | None = None


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


def _no_branch(k: float, n: int) -> GrowthRecord:
    return GrowthRecord(k=k, n=n, lambda_n=math.nan, residual=math.nan,
                        iterations=0, converged=False, reason=NO_UNSTABLE_BRANCH)


def solve_lambda_n(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                   k: float, n: int, settings: SolverSettings = SolverSettings(),
                   cache: FormCache | None = None, *,
                   ends: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> GrowthRecord:
    """Solve for the n-th growth rate at wavenumber k with Brent's method.

    The root of f starts bracketed by [BRACKET_FLOOR * cap, cap]; the
    bracket shrinks until its width is at most ``settings.tol_rel`` times
    its upper end, or for at most ``settings.max_iter`` steps (one
    evaluation each).  The bracket end with the smaller |f| is returned;
    ``iterations`` counts the steps after the two end evaluations.

    ``ends`` holds ``gamma_values`` at the two bracket ends, for at least n
    branches; a sweep passes them to solve each end once per wavenumber.
    Without it the ends are solved here.

    Returns a non-converged record with reason ``no-unstable-branch`` when
    the branch is absent (degenerate stratification, or n beyond the
    positive spectrum) rather than raising.
    """
    if not k > 0.0:
        raise ValueError("wavenumber k must be strictly positive")
    if n < 1:
        raise ValueError("branch index n must be at least 1")
    if cache is None:
        cache = FormCache(mesh, profile)
    _, cap = char_length(profile, params.g)
    if cap == 0.0:
        return _no_branch(k, n)
    gk2 = params.g * k * k

    def f(lam: float, gammas: np.ndarray | None = None) -> float | None:
        if gammas is None:
            gammas = gamma_values(
                assemble_B(mesh, profile, params, k, lam, cache=cache), n)
        if gammas.size < n:
            return None
        return gk2 * gammas[n - 1] - lam

    gammas_lo, gammas_hi = (None, None) if ends is None else ends
    lo = BRACKET_FLOOR * cap
    f_lo = f(lo, gammas_lo)
    if f_lo is None or f_lo <= 0.0:
        return _no_branch(k, n)
    hi = cap
    f_hi = f(hi, gammas_hi)
    if f_hi is None:
        return _no_branch(k, n)
    if f_hi >= 0.0:
        raise NumericalError(
            f"fixed-point bracket failed at k={k}, n={n}: f({cap}) >= 0")

    # Brent's zeroin (Brent 1973, ch. 4).  b is the best estimate, c the
    # contrapoint with f(c) of the opposite sign, so [b, c] (in either
    # order) always brackets the root; a is the previous b.
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    iterations = 0
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0:  # an exact root closes the bracket
            c = b
        tol = 0.5 * settings.tol_rel * max(b, c)
        m = 0.5 * (c - b)
        if abs(m) <= tol or iterations >= settings.max_iter:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb is None:
            return _no_branch(k, n)
        iterations += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a

    residual = abs(fb)
    interval_ok = abs(c - b) <= settings.tol_rel * max(b, c)
    converged = interval_ok and residual <= FIXED_POINT_RTOL * b
    if converged:
        reason = None
    elif not interval_ok:
        reason = MAX_ITERATIONS
    else:
        reason = RESIDUAL_ABOVE_TOLERANCE
    return GrowthRecord(k=k, n=n, lambda_n=b, residual=residual,
                        iterations=iterations, converged=converged,
                        reason=reason)


def dispersion(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
               k_values, n_max: int,
               settings: SolverSettings = SolverSettings()) -> list[GrowthRecord]:
    """Growth records for every (k, n <= n_max), ordered by (k, n).

    Missing branches appear as non-converged records, not failures.  Once
    branch n is absent at some k, higher branches there are absent too.
    One form cache serves the whole sweep, and the pencils at the two
    bracket ends are solved once per k for all n_max branches.
    """
    _, cap = char_length(profile, params.g)
    cache = FormCache(mesh, profile)
    records: list[GrowthRecord] = []
    for k in k_values:
        k = float(k)
        ends = None if cap == 0.0 else tuple(
            gamma_values(assemble_B(mesh, profile, params, k, lam, cache=cache),
                         n_max)
            for lam in (BRACKET_FLOOR * cap, cap))
        absent = False
        for n in range(1, n_max + 1):
            if absent:
                records.append(_no_branch(k, n))
                continue
            rec = solve_lambda_n(mesh, profile, params, k, n, settings,
                                 cache=cache, ends=ends)
            if rec.reason == NO_UNSTABLE_BRANCH:
                absent = True
            records.append(rec)
    return records


def refinement_agreement(mesh: Mesh, profile: DensityProfile,
                         params: PhysicalParams, record: GrowthRecord,
                         factor: int = 2,
                         settings: SolverSettings = SolverSettings()) -> float:
    """Relative change of the rate when the mesh is refined by ``factor``.

    How many branches are trustworthy at a given resolution cannot be
    declared a priori; this probe quantifies it per record.  NaN when
    either solve fails to converge.
    """
    if not record.converged:
        return math.nan
    from .discretization import build_mesh
    finer = build_mesh(mesh.a, mesh.n_elements * factor,
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
    i_max = int(math.floor(Kmax * L1 + 1e-12))
    j_max = int(math.floor(Kmax * L2 + 1e-12))
    if (i_max + 1) * (j_max + 1) > MAX_LATTICE_POINTS:
        raise ConfigError(
            f"lattice.Kmax={Kmax} spans {(i_max + 1) * (j_max + 1)} lattice "
            f"points, more than {MAX_LATTICE_POINTS}")
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
    if best is None:
        return LambdaMaxResult(Lambda=0.0, argmax_k=math.nan,
                               lattice_cutoff=Kmax, records=records)
    return LambdaMaxResult(Lambda=best.lambda_n, argmax_k=best.k,
                           lattice_cutoff=Kmax, records=records)
