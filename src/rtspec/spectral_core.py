"""Operator assembly and generalized eigensolves at fixed (rate, wavenumber).

The stability operator at rate lam > 0 and wavenumber k > 0 is
``K = lam * WGRAD + mu * H2 + BV0(lam) + BVA(lam)``: symmetric positive
definite as long as lam stays in the validated range.  The unstable
branches are the positive eigenvalues gamma of the singular pencil
``WMASS x = gamma K x`` (largest first); the SPD side carries the
Cholesky reduction, since the stratification mass WMASS is rank
deficient wherever drho0 vanishes.

The eigensolves run in the trial space of C1 functions that satisfy the
surface moment condition phi''(0) + k^2 phi(0) = 0 exactly: the surface
slope DOF is eliminated by ``PencilAssembly.moment_row``, so the reduced
pencil is the leading block of (WMASS, K) with its last 3x3 corner
updated; ``assemble_B`` factors K on it once per pencil.  Returned
eigenvectors are lifted back to the full DOF vector.

Every dense eigensolve of the pencil runs through ``_dense_pairs``.
``gamma_values`` and ``gamma_spectrum`` return the eigenvalues of the
pencil's matrices, with relative noise of about eps * cond(K).  The root
finder reads ``branch_evaluation`` instead: the Rayleigh quotient of each
eigenvector with both quadratic forms summed as squares at the quadrature
points, which is free of that noise, and its rate derivative.  The forms
are those of the mesh, profile and parameters the pencil carries, found
through the memoized functions of ``discretization``, which every pencil
of one mesh and profile shares.  ``inertia_count`` counts the eigenvalues
above a level from one LDL^T factorization, without an eigensolve.  Both
forms, full and reduced, are lower bands; only the dense eigensolve and
the count build N x N matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lapack
from .discretization import (
    ENDPOINT_DOFS,
    Mesh,
    assemble_boundary_forms,
    assemble_h2_form,
    assemble_weighted_gradient_form,
    dense,
    layer_forms,
    quadrature_values,
    tau_decay,
)
from .equilibria import DensityProfile, PhysicalParams
from .errors import CoercivityError

# Eigenvalues at or below this fraction of the largest one are treated as
# the rank-deficient zero block of WMASS.
DROP_THRESHOLD = 1e-12

# Each endpoint's entries on and below the diagonal of an endpoint block, and
# their places in K's band (the blocks couple no DOFs of different endpoints).
_ENDPOINT_ENTRIES = ([0, 1, 1, 2, 3, 3], [0, 0, 1, 2, 2, 3])
_ENDPOINT_BAND = ([0, 1, 0, 0, 1, 0], [0, 0, 1, -2, -2, -1])

# The lower triangle of the moment constraint's 3x3 corner: (row, column)
# in the corner, and its places in the band of the constrained matrix.
_CORNER = ([0, 1, 1, 2, 2, 2], [0, 0, 1, 0, 1, 2])
_CORNER_BAND = ([0, 1, 0, 2, 1, 0], [-3, -3, -2, -3, -2, -1])

# A warm evaluation stops once branch n's relative eigen-residual is at
# most _BLOCK_RTOL (gamma's error is second order in the vector error),
# and falls back to a dense solve after _BLOCK_MAX_ITERATIONS iterations.
# Its block carries _GUARD_VECTORS vectors beyond branch n.
_BLOCK_RTOL = 1e-6
_BLOCK_MAX_ITERATIONS = 8
_GUARD_VECTORS = 2


@dataclass(frozen=True)
class PencilAssembly:
    """Operator K and stratification mass Mw at fixed (lam, k), as lower
    bands: ``Mw_band`` is the read-only WMASS of ``layer_forms``.

    ``mesh``, ``profile`` and ``params`` are the ones the pencil was
    assembled from.  ``branch_evaluation`` recomputes its Rayleigh quotient
    from their forms, not from K and Mw.  A pencil whose bands were
    replaced (say with ``dataclasses.replace(K_band=..., Mw_band=...)``)
    is therefore for ``gamma_values`` and ``gamma_spectrum`` only.
    """

    K_band: np.ndarray
    Mw_band: np.ndarray
    lam: float
    k: float
    params: PhysicalParams
    mesh: Mesh
    profile: DensityProfile

    @property
    def moment_row(self) -> np.ndarray:
        """Surface slope d_N in terms of (v_{N-1}, d_{N-1}, v_N).

        On the top element phi''(0) = (6 v_{N-1} - 6 v_N)/h^2 + (2 d_{N-1}
        + 4 d_N)/h, so phi''(0) + k^2 phi(0) = 0 solves to
        d_N = -(3/2h) v_{N-1} - d_{N-1}/2 + (3/2h - k^2 h/4) v_N.
        """
        h, k = self.mesh.h, self.k
        return np.array([-1.5 / h, -0.5, 1.5 / h - 0.25 * k * k * h])

    @cached_property
    def constrained_bands(self) -> tuple:
        """Lower bands of the moment-constrained (Mw, K), built once: the
        dense solve and the warm step of one pencil both read them, and
        neither overwrites them."""
        row = self.moment_row
        return _constrained(self.Mw_band, row), _constrained(self.K_band, row)

    @cached_property
    def k_factor(self) -> np.ndarray:
        """Banded Cholesky factor of the constrained K (``dpbtrf``)."""
        return _lapack.cholesky_band(self.constrained_bands[1])


@dataclass(frozen=True)
class SpectrumResult:
    """Leading eigenpairs of Mw x = gamma K x, sorted by decreasing gamma.

    Vectors are K-orthonormal columns of full DOF vectors that satisfy
    the surface moment condition.  ``complete`` is False when fewer
    positive eigenvalues exist than were requested.  ``max_residual`` is
    the worst relative eigenpair residual in the constrained space.
    """

    gammas: np.ndarray
    vectors: np.ndarray
    complete: bool
    max_residual: float

    def __len__(self) -> int:
        return self.gammas.size


@dataclass(frozen=True)
class BranchEvaluation:
    """One branch at one rate, as the root finder reads it.

    ``gamma`` is the Rayleigh quotient of the branch's vector and ``slope``
    its derivative d gamma / d lam, both from sums of squares at the
    quadrature points.  ``block`` holds the vectors of this branch and the
    branches above it on the moment-constrained trial space, plus
    _GUARD_VECTORS more unless a dense subset solve without a warm start
    produced it: the start of the next warm evaluation.  ``iterations``
    counts block iterations; ``dense`` says whether a dense eigensolve
    produced the vectors.
    """

    gamma: float
    slope: float
    block: np.ndarray
    iterations: int
    dense: bool


def assemble_B(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
               k: float, lam: float) -> PencilAssembly:
    """Assemble the SPD operator K, as a band, and mass Mw; Cholesky-checks K.

    K is ``lam * WGRAD + mu * H2`` plus the endpoint blocks BV0 and then
    BVA, added at ``ENDPOINT_DOFS``.  The interior forms are symmetrized
    on scatter and the endpoint blocks are symmetric by construction.  The
    check is ``k_factor``: K factored on the moment-constrained trial space.
    """
    kband = (lam * assemble_weighted_gradient_form(mesh, profile, k)
             + params.mu * assemble_h2_form(mesh, k))
    for block in assemble_boundary_forms(k, lam, params, profile):
        kband[_ENDPOINT_BAND] += block[_ENDPOINT_ENTRIES]
    pencil = PencilAssembly(K_band=kband, Mw_band=layer_forms(mesh, profile)[3],
                            lam=lam, k=k, params=params, mesh=mesh, profile=profile)
    try:
        pencil.k_factor
    except np.linalg.LinAlgError as exc:
        raise CoercivityError("moment-constrained operator matrix lost positive "
                              f"definiteness at lam={lam}, k={k}") from exc
    return pencil


def _constrained(band: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Lower band of T^T A T (A symmetric, ``band`` its lower band) for the
    trial map T that fills the last DOF with row . x[-4:-1]: A's leading
    block, its last 3x3 corner's lower triangle updated by col row^T, then
    row col^T, then a_nn row row^T (col is A's last column above a_nn)."""
    i, j = _CORNER
    col, a_nn = band[[3, 2, 1], [-4, -3, -2]], band[0, -1]
    reduced = band[:, :-1].copy()
    reduced[_CORNER_BAND] = (reduced[_CORNER_BAND] + col[i] * row[j]
                             + row[i] * col[j] + a_nn * (row[i] * row[j]))
    return reduced


def _band_apply(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric A of lower band ``band``, x 1-D or 2-D."""
    diagonals = band.reshape(band.shape + (1,) * (x.ndim - 1))
    y = diagonals[0] * x
    for d in range(1, band.shape[0]):
        y[d:] += diagonals[d, :-d] * x[:-d]
        y[:-d] += diagonals[d, :-d] * x[d:]
    return y


def _dense_pairs(pencil: PencilAssembly, count: int | None = None):
    """Leading ``count`` eigenpairs (all without it) of the pencil on the
    moment-constrained trial space, by decreasing eigenvalue.

    Returns (values, constrained vectors); ``_lift`` gives full DOF
    vectors.  This is the one dense eigensolve of (Mw, K), by LAPACK
    ``dsygvd`` (all pairs) or ``dsygvx`` (a subset); it factors the
    constrained K and raises CoercivityError if that fails.
    """
    mw, kmat = map(dense, pencil.constrained_bands)
    dof = kmat.shape[0]
    subset = None if count is None else (max(0, dof - count), dof - 1)
    try:
        vals, vecs = _lapack.eigh(mw, kmat, subset)
    except np.linalg.LinAlgError as exc:
        raise CoercivityError(
            f"moment-constrained operator matrix lost positive definiteness "
            f"at lam={pencil.lam}, k={pencil.k}") from exc
    return vals[::-1], vecs[:, ::-1]


def _positive_count(vals: np.ndarray) -> int:
    """Leading entries of decreasing ``vals`` above the zero block of WMASS."""
    top = vals[0] if vals.size else 0.0
    return int(np.count_nonzero(vals > max(0.0, DROP_THRESHOLD * top)))


def gamma_spectrum(pencil: PencilAssembly, n_max: int) -> SpectrumResult:
    """Largest n_max eigenvalues of Mw x = gamma K x with K-orthonormal vectors.

    Zero and negative-by-roundoff eigenvalues of the rank-deficient mass
    are dropped; fewer than n_max positive branches sets complete=False.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    vals, vecs = _dense_pairs(pencil)
    count = min(n_max, _positive_count(vals))
    gammas, x = vals[:count].copy(), vecs[:, :count]
    mx, kx = (_band_apply(band, x) for band in pencil.constrained_bands)
    scale = np.maximum(np.linalg.norm(mx, axis=0),
                       gammas * np.linalg.norm(kx, axis=0))
    max_residual = float((np.linalg.norm(mx - kx * gammas, axis=0)
                          / scale).max(initial=0.0))
    return SpectrumResult(gammas=gammas, vectors=_lift(x, pencil.moment_row),
                          complete=count == n_max, max_residual=max_residual)


def gamma_values(pencil: PencilAssembly, n_max: int) -> np.ndarray:
    """Largest n_max eigenvalues, as the dense eigensolve returns them.

    They carry eps * cond(K) relative noise; ``branch_evaluation`` is the
    accurate evaluation.
    """
    vals = _dense_pairs(pencil, n_max)[0]
    return vals[:_positive_count(vals)]


def inertia_count(pencil: PencilAssembly, sigma: float) -> int:
    """Number of eigenvalues gamma > sigma of the constrained pencil.

    By Sylvester's law of inertia (K SPD) it is the number of positive
    eigenvalues of Mw - sigma K, read from that matrix's Bunch-Kaufman
    factor (``dsytrf``): a 1x1 pivot counts by its sign, and a 2x2 pivot,
    always indefinite, counts one.  No eigenvector is computed.

    The count is exact for a matrix within rounding of Mw - sigma K, so an
    eigenvalue within about eps * cond(K) * sigma of sigma may land on
    either side.  It means nothing at a sigma near the rounding floor of
    WMASS's zero block (eigenvalues that are 0 in exact arithmetic, and
    in floating point lie within about eps * |Mw| / lambda_min(K) of it):
    there it counts noise as branches.
    """
    mw, kmat = pencil.constrained_bands
    ldu, ipiv = _lapack.ldl(dense(mw - sigma * kmat))
    one_by_one = ipiv > 0
    return int(np.count_nonzero(ldu.diagonal()[one_by_one] > 0.0)
               + np.count_nonzero(~one_by_one) // 2)


def _rayleigh(pencil: PencilAssembly,
              vector: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient gamma = x^T Mw x / x^T K x of a full DOF vector and
    its rate derivative, from sums of squares of the pencil's forms.

    The interior parts of both forms are the quadrature sums that assemble
    them, evaluated as weighted squares of v, v', v''; the endpoint forms
    enter in closed form.  This avoids the cancellation of x^T K x formed
    from K's h^-3 entries.  d gamma / d lam = -gamma x^T K' x / x^T K x
    (Lancaster 1964) with K' = WGRAD - (g k^2 rho+ / lam^2) e e^T
    + (d BVA / d tau) rho- / (2 mu tau).
    """
    params, profile = pencil.params, pencil.profile
    k, lam, mu, k2 = pencil.k, pencil.lam, params.mu, pencil.k * pencil.k
    w, rho, drho = layer_forms(pencil.mesh, profile)[:3]
    v, dv, ddv = quadrature_values(pencil.mesh, vector)
    wgrad = (w * rho) @ (k2 * v * v + dv * dv)
    h2 = w @ (ddv * ddv + 2.0 * k2 * dv * dv + k2 * k2 * v * v)
    mass = (w * drho) @ (v * v)
    va, da, v0, d0 = vector[ENDPOINT_DOFS]
    tau = tau_decay(k, lam, profile.rho_minus, mu)
    surface = params.g * k2 * profile.rho_plus * v0 * v0
    depth = (k * tau * (k + tau) * va * va - 2.0 * k * tau * va * da
             + (k + tau) * da * da)
    kform = (lam * wgrad + mu * h2 + 2.0 * mu * k2 * v0 * d0 + surface / lam
             + mu * depth)
    dtau = k * (k + 2.0 * tau) * va * va - 2.0 * k * va * da + da * da
    dkform = (wgrad - surface / (lam * lam)
              + profile.rho_minus / (2.0 * tau) * dtau)
    gamma = float(mass / kform)
    return gamma, float(-gamma * dkform / kform)


def _lift(x: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Full DOF vectors from moment-constrained ones: T x."""
    return np.concatenate([x, [row @ x[-3:]]])


def _subspace_iteration(pencil: PencilAssembly, n: int, block: np.ndarray):
    """Ritz pairs of the reduced pencil from ``block`` by K^-1 Mw iteration.

    The block's first n + _GUARD_VECTORS columns start it.  Each iteration
    solves K Y = Mw X by ``dpbtrs`` with the pencil's ``k_factor``, then
    takes the Rayleigh-Ritz pairs on span(Y) (largest first, by ``dsygvd``);
    K Y = Mw X gives Y^T K Y and K x without a product with K.  Returns
    (ritz values, vectors, iterations) once branch n's relative residual
    is at most _BLOCK_RTOL, or None after _BLOCK_MAX_ITERATIONS, when
    ``dsygvd`` fails (say, the block lost rank) or when K overflowed.
    """
    if not np.isfinite(pencil.K_band[:, -4:]).all():
        return None  # g k^2 rho+ / lam overflowed; so would |Mw x|^2 below
    mw, factor = pencil.constrained_bands[0], pencil.k_factor
    try:
        mx = _band_apply(mw, block[:, :n + _GUARD_VECTORS])
        for iteration in range(1, _BLOCK_MAX_ITERATIONS + 1):
            y = _lapack.solve_band(factor, mx)
            my = _band_apply(mw, y)
            theta, z = _lapack.eigh(y.T @ my, y.T @ mx)
            theta, z = theta[::-1], z[:, ::-1]
            kx = theta[n - 1] * (mx @ z[:, n - 1])
            x, mx = y @ z, my @ z
            res, m_n = mx[:, n - 1] - kx, mx[:, n - 1]
            if res @ res <= _BLOCK_RTOL**2 * max(m_n @ m_n, kx @ kx):
                return theta, x, iteration
    except np.linalg.LinAlgError:
        pass
    return None


def _evaluation(pencil: PencilAssembly, n: int, vals: np.ndarray,
                vecs: np.ndarray, iterations: int = 0) -> BranchEvaluation | None:
    """Branch n of decreasing eigen- or Ritz pairs (dense ones without
    ``iterations``), or None if it is absent."""
    if _positive_count(vals) < n:
        return None
    gamma, slope = _rayleigh(pencil, _lift(vecs[:, n - 1], pencil.moment_row))
    return BranchEvaluation(gamma=gamma, slope=slope,
                            block=vecs[:, :n + _GUARD_VECTORS],
                            iterations=iterations, dense=iterations == 0)


def branch_evaluation(pencil: PencilAssembly, n: int,
                      block: np.ndarray | None = None
                      ) -> BranchEvaluation | None:
    """Accurate gamma_n and its rate derivative at one pencil.

    Without ``block`` the leading n eigenvectors come from a dense subset
    eigensolve.  With it (a previous evaluation's block) they come from
    warm subspace iteration; when that does not converge, a dense subset
    eigensolve of n + _GUARD_VECTORS vectors gives the block the next
    evaluation starts from.  None when branch n is absent.  The quotient
    reads the pencil's forms, not its matrices (see ``PencilAssembly``).
    """
    if block is not None:
        found = _subspace_iteration(pencil, n, block)
        if found is not None:
            return _evaluation(pencil, n, *found)
    count = n if block is None else n + _GUARD_VECTORS
    return _evaluation(pencil, n, *_dense_pairs(pencil, count))


def dense_branches(pencil: PencilAssembly, n: int) -> list[BranchEvaluation]:
    """``branch_evaluation`` of branches 1..n from one full dense
    eigendecomposition; fewer where the positive spectrum ends.

    A subset eigensolve rounds differently for different subset sizes; the
    full one gives every branch bit for bit whatever n is, so a sweep that
    shares one lower bracket end among n branches starts each branch
    exactly where a single solve would.  A sweep reads it at its first k
    and where a branch's floor carried from the previous k falls through.
    """
    vals, vecs = _dense_pairs(pencil)
    return [_evaluation(pencil, m, vals, vecs)
            for m in range(1, min(n, _positive_count(vals)) + 1)]
