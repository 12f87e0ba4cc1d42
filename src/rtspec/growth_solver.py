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
previous step's.  The last step's evaluation gives the returned rate's
residual, and with one inertia count on its pencil certifies it as branch
n's.  A sweep evaluates the two bracket ends once per k for all its
branches, and carries each branch's vectors at the bracket floor on to the
next k as the warm start of that branch's floor there.
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
    PencilAssembly,
    assemble_B,
    branch_evaluation,
    dense_branches,
    gamma_values,
    inertia_count,
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

# The certificate puts gamma_n within sigma * (1 -/+ COUNT_SHIFT), where
# sigma = lambda_n / (g k^2) is branch n's gamma at its own rate.
COUNT_SHIFT = 1e-6

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

    Counts are of this solve's own eigen-evaluations.  The bracket ends a
    sweep passes in are not included: it evaluates them once per k, its
    floors warm or dense, outside any record.  ``dense_solves`` counts
    dense eigensolves (the two ends when solved here, fallbacks of warm
    evaluations, and the certificate where the last step's fails),
    ``block_evaluations`` the warm evaluations, one per step (the
    certificate makes none of its own), and ``block_iterations`` their
    subspace iterations.  ``inertia_counts`` counts ``inertia_count``
    calls, one where the last step's gamma passes its bound.
    ``final_bracket`` may stay open: Newton's step test ends a record
    without closing it.  ``residual_rel`` is the certificate's |f| / lambda.
    """

    dense_solves: int
    block_evaluations: int
    block_iterations: int
    inertia_counts: int
    start_bracket: tuple[float, float]
    final_bracket: tuple[float, float]
    residual_rel: float


@dataclass(frozen=True)
class GrowthRecord:
    """One (wavenumber, branch) growth-rate solve.

    ``residual`` is the absolute fixed-point defect |g k^2 gamma_n - lam_n|
    at the returned rate: the last step's, where it and one inertia count
    show that the rate is branch n's, else a dense eigensolve's.  Records
    without a branch carry NaN and a reason string.
    ``stats`` (not compared) tells how a solved record was found.
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


def _no_branch(k: float, n: int, reason: str = NO_UNSTABLE_BRANCH) -> GrowthRecord:
    return GrowthRecord(k=k, n=n, lambda_n=math.nan, residual=math.nan,
                        iterations=0, converged=False, reason=reason)


def _bracket_ends(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                  k: float, n: int, cap: float,
                  previous: list[BranchEvaluation] | None = None
                  ) -> tuple[list[BranchEvaluation], np.ndarray]:
    """Bracket ends of branches 1..n: each present branch at BRACKET_FLOOR
    * cap and the eigenvalues at the cap; ConfigError below MIN_GROWTH_CAP.

    Branch m of ``previous`` (the lower ends at a sweep's previous k), if
    present, warm-starts branch m's floor evaluation from its own block:
    ``branch_evaluation``'s subspace iteration, or its dense subset solve
    where that fails.  So a branch's lower end depends on no other branch,
    and a record on no n_max.  The floor's full decomposition
    (``dense_branches``), made at most once, gives every other branch.
    This keeps what the root finder relies on:

    - f > 0 at the floor stays certified: a warm gamma is the m-th Ritz
      value of a subspace, a lower bound on gamma_m;
    - a branch is absent, or has f <= 0 at the floor, only where the
      dense spectrum says so: a warm evaluation that finds either falls
      through to it;
    - the certificate at the end of each solve still certifies the
      branch index, and the cap's eigenvalues, the reasons and the
      exit codes are as without ``previous``.
    """
    if cap < MIN_GROWTH_CAP:
        raise ConfigError(f"growth-rate cap sqrt(g/L0) = {cap:.3g} is below "
                          f"{MIN_GROWTH_CAP:.3g}")
    floor = BRACKET_FLOOR * cap
    pencil = assemble_B(mesh, profile, params, k, floor)
    lowers, full = [], None
    for m in range(1, n + 1):
        lower = (branch_evaluation(pencil, m, previous[m - 1].block)
                 if previous is not None and m <= len(previous) else None)
        if lower is None or params.g * k * k * lower.gamma <= floor:
            full = dense_branches(pencil, n) if full is None else full
            if m > len(full):
                break
            lower = full[m - 1]
        lowers.append(lower)
    return lowers, gamma_values(assemble_B(mesh, profile, params, k, cap), n)


def solve_lambda_n(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                   k: float, n: int, settings: SolverSettings = SolverSettings(),
                   *, ends: tuple[list[BranchEvaluation], np.ndarray] | None = None
                   ) -> GrowthRecord:
    """Solve for the n-th growth rate at wavenumber k by bracketed Newton.

    The root of f starts bracketed by [BRACKET_FLOOR * cap, cap].  A step
    (one warm evaluation) is Newton's from the last point x; it bisects
    when Newton leaves the bracket or f' >= 0.  x is the rate once its own
    Newton step is at most ``settings.tol_rel * x`` after a step of at
    most half that reached it (as f' < 0 at the root, the root lies within
    the tolerance), once its own step rounds to nothing, at an exact root,
    or once the bracket is as narrow as the tolerance at its upper end;
    after ``settings.max_iter`` steps it is returned unconverged.
    ``iterations`` counts the steps after the two end evaluations.

    The last step's evaluation certifies the rate: its gamma is a Ritz
    value, a lower bound on gamma_n.  Where it is at least sigma * (1 -
    COUNT_SHIFT) (sigma = rate / (g k^2)) and one inertia count on its
    pencil finds n - 1 eigenvalues above sigma * (1 + COUNT_SHIFT), the
    rate is branch n's, and that evaluation gives the residual |f(rate)|.
    Otherwise a dense subset eigensolve on that pencil gives it.

    ``ends`` holds ``_bracket_ends`` for at least n branches; a sweep
    passes them to solve each end once per wavenumber.  Without it the
    ends are solved here.

    Returns a non-converged record with reason ``no-unstable-branch`` when
    the branch is absent (degenerate stratification, or n beyond the
    positive spectrum) rather than raising, and with ``rate-below-floor``
    when a present branch has f <= 0 at the bracket floor: its rate is lower.
    Raises NumericalError when f is not finite there (the floor's pencil
    overflowed) or f >= 0 at the cap.
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

    def evaluate(pencil: PencilAssembly, lam: float,
                 block: np.ndarray | None = None):
        """(f, f', block) of branch n on lam's pencil, or None when the
        branch is absent there."""
        nonlocal dense_solves, block_evaluations, block_iterations
        ev = branch_evaluation(pencil, n, block)
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
    if not math.isfinite(f_lo):  # a NaN f would pass as positive
        raise NumericalError(f"fixed-point function is {f_lo} at the bracket "
                             f"floor lam={lo}, k={k}, n={n}")
    if f_lo <= 0.0:
        return _no_branch(k, n, RATE_BELOW_FLOOR)
    # A present branch under the cap's drop level has f(cap) = -cap there.
    f_hi = (gk2 * upper[n - 1] if upper.size >= n else 0.0) - hi
    if f_hi >= 0.0:
        raise NumericalError(
            f"fixed-point bracket failed at k={k}, n={n}: f({cap}) >= 0")

    # x is the last point evaluated, and pencil its pencil once a step is
    # made.  near: a Newton step of at most half a tolerance reached x.
    x, fx, dfx, block = lo, f_lo, gk2 * lower.slope - 1.0, lower.block
    pencil, near, reason, iterations = None, False, None, 0
    while hi - lo > settings.tol_rel * hi:
        # Newton's step from x: none where f' >= 0, unless x is a root.
        step = fx / dfx if dfx < 0.0 else math.nan if fx else 0.0
        t, tol = x - step, settings.tol_rel * x
        # Newton's step test, as in the docstring; no test meets a
        # tolerance below the float spacing.
        if abs(step) <= tol and x < x + tol and (near or t == x):
            break
        # The tolerance is taken at the predicted root, not at hi: a
        # bracket that still ends at the cap would make it too wide.
        near = abs(step) <= 0.5 * settings.tol_rel * t
        if iterations == settings.max_iter:
            reason = MAX_ITERATIONS
            break
        if not lo < t < hi:
            t, near = 0.5 * (lo + hi), False
        pencil = assemble_B(mesh, profile, params, k, t)
        found = evaluate(pencil, t, block)
        if found is None:
            return _no_branch(k, n)
        iterations += 1
        x, (fx, dfx, block) = t, found
        # At a bracket of adjacent floats the midpoint is an end, where a
        # second evaluation may round to the other sign: keep the bracket.
        if not lo < x < hi:
            continue
        if fx > 0.0:
            lo = x
        elif fx < 0.0:
            hi = x

    if pencil is None:  # the floor is the rate: no step was made
        pencil = assemble_B(mesh, profile, params, k, x)
    # The last evaluation's gamma, a Ritz value and so a lower bound on
    # gamma_n, and one count certify the rate; else a dense solve does, as
    # only it declares a branch absent.
    counted = fx >= -COUNT_SHIFT * x
    if not (counted and inertia_count(pencil, x / gk2 * (1.0 + COUNT_SHIFT))
            == n - 1):
        found = evaluate(pencil, x)
        if found is None:
            return _no_branch(k, n)
        fx = found[0]
    residual = abs(fx)
    if reason is None and not residual <= FIXED_POINT_RTOL * x:
        reason = RESIDUAL_ABOVE_TOLERANCE
    stats = SolveStats(dense_solves=dense_solves,
                       block_evaluations=block_evaluations,
                       block_iterations=block_iterations,
                       inertia_counts=int(counted),
                       start_bracket=(BRACKET_FLOOR * cap, cap),
                       final_bracket=(lo, hi), residual_rel=residual / x)
    return GrowthRecord(k=k, n=n, lambda_n=x, residual=residual,
                        iterations=iterations, converged=reason is None,
                        reason=reason, stats=stats)


def dispersion(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
               k_values, n_max: int,
               settings: SolverSettings = SolverSettings()) -> list[GrowthRecord]:
    """Growth records for every (k, n <= n_max), ordered by (k, n).

    Missing branches appear as non-converged records, not failures.  Once
    branch n is absent at some k, higher branches there are absent too.
    The pencils at the two bracket ends are solved once per k for all
    n_max branches: the cap's eigenvalues anew, and each branch's floor
    vectors carried on from the previous k (see ``_bracket_ends``), so
    only the first k, and a k where a branch's warm start fails, make the
    floor's full decomposition.
    """
    _, cap = char_length(profile, params.g)
    records: list[GrowthRecord] = []
    ends = None
    for k in k_values:
        k = float(k)
        ends = (None if cap == 0.0
                else _bracket_ends(mesh, profile, params, k, n_max, cap,
                                   ends and ends[0]))
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


def lattice_index(value: float, period: float) -> tuple[int, bool]:
    """Nearest i to a finite value * period (never 0 for a nonzero value),
    and whether value is i / period to 1e-12 relative (absolute below 1)."""
    steps = value * period
    index = round(steps) or (int(math.copysign(1.0, steps)) if value else 0)
    return index, abs(steps - index) <= 1e-12 * max(1.0, abs(steps))


def lattice_magnitudes(L1: float, L2: float, Kmax: float) -> np.ndarray:
    """Distinct nonzero magnitudes of the lattice (i/L1, j/L2), |k| <= Kmax.

    Magnitudes equal to 12 significant digits count as one, at any scale;
    the first one found is kept exactly as ``math.hypot`` gives it.
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
                mags.setdefault(f"{m:.11e}", m)
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
