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
slope DOF is eliminated by ``surface_moment_row``, so the reduced pencil
is the leading block of (WMASS, K) plus an update of its last three rows
and columns (a 3x3 corner for the banded element matrices).  Returned
eigenvectors are lifted back to the full DOF vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .discretization import (
    Mesh,
    SymForm,
    assemble_boundary_forms,
    assemble_h2_form,
    assemble_weighted_gradient_form,
    assemble_weighted_mass,
    boundary_quotient_form,
    quadrature,
    quadrature_basis,
)
from .equilibria import DensityProfile, PhysicalParams
from .errors import CoercivityError

# Eigenvalues at or below this fraction of the largest one are treated as
# the rank-deficient zero block of WMASS.
DROP_THRESHOLD = 1e-12

# Half-bandwidth of K: cubic Hermite elements couple the four value and
# slope DOFs of two adjacent nodes, and the endpoint forms stay in that band.
KMAT_BANDWIDTH = 3


@dataclass(frozen=True)
class PencilAssembly:
    """Full operator matrix K and stratification mass Mw at fixed (lam, k).

    ``h`` is the element width, which the surface moment condition needs.
    """

    K: SymForm
    Mw: SymForm
    lam: float
    k: float
    h: float


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
    n_max: int
    complete: bool
    max_residual: float

    def __len__(self) -> int:
        return self.gammas.size


class FormCache:
    """Per-(mesh, profile) cache of the interior forms and quadrature table.

    Boundary forms are rate-dependent and cheap, so only H2 / WGRAD /
    WMASS are cached, plus the ``layer`` table that interior integrals of
    element functions read.  H2 and WGRAD are kept for the last k asked
    for only, so a sweep's cache does not grow with its k values.
    Immutable inputs make this safe to share.
    """

    def __init__(self, mesh: Mesh, profile: DensityProfile):
        self.mesh = mesh
        self.profile = profile
        self._by_k: dict[float, tuple[SymForm, SymForm]] = {}

    @cached_property
    def wmass(self) -> SymForm:
        return assemble_weighted_mass(self.mesh, self.profile)

    @cached_property
    def layer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(weights, quadrature_basis, rho0, drho0) at the raveled points."""
        pts, wts = quadrature(self.mesh)
        x = pts.ravel()
        return (wts.ravel(), quadrature_basis(self.mesh), self.profile.rho0(x),
                self.profile.drho0(x))

    def interior(self, k: float) -> tuple[SymForm, SymForm]:
        if k not in self._by_k:
            self._by_k = {k: (assemble_h2_form(self.mesh, k),
                              assemble_weighted_gradient_form(self.mesh, self.profile, k))}
        return self._by_k[k]


def assemble_B(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
               k: float, lam: float, cache: FormCache | None = None) -> PencilAssembly:
    """Assemble the SPD operator K and mass Mw; Cholesky-checks K.

    K is exactly symmetric: the interior forms are symmetrized on scatter
    and the boundary forms are symmetric by construction.  The banded
    Cholesky of K's lower band is the only definiteness check of the full
    K: ``eigh`` factors the moment-constrained K, and ``coercivity_ratio``
    factors H2.
    """
    if cache is None:
        cache = FormCache(mesh, profile)
    h2, wgrad = cache.interior(k)
    bv0, bva = assemble_boundary_forms(mesh, k, lam, params, profile)
    kmat = lam * wgrad.matrix + params.mu * h2.matrix + bv0.matrix + bva.matrix
    band = np.zeros((KMAT_BANDWIDTH + 1, kmat.shape[0]))
    for d in range(KMAT_BANDWIDTH + 1):
        band[d, :band.shape[1] - d] = np.diagonal(kmat, -d)
    try:
        sla.cholesky_banded(band, overwrite_ab=True, lower=True,
                            check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise CoercivityError(
            f"operator matrix lost positive definiteness at lam={lam}, k={k}"
        ) from exc
    return PencilAssembly(K=SymForm(kmat, "B"), Mw=cache.wmass, lam=lam, k=k,
                          h=mesh.h)


def surface_moment_row(h: float, k: float) -> np.ndarray:
    """Surface slope d_N in terms of (v_{N-1}, d_{N-1}, v_N).

    On the top element phi''(0) = (6 v_{N-1} - 6 v_N)/h^2 + (2 d_{N-1}
    + 4 d_N)/h, so phi''(0) + k^2 phi(0) = 0 solves to
    d_N = -(3/2h) v_{N-1} - d_{N-1}/2 + (3/2h - k^2 h/4) v_N.
    """
    return np.array([-1.5 / h, -0.5, 1.5 / h - 0.25 * k * k * h])


def _constrained(matrix: np.ndarray, row: np.ndarray) -> np.ndarray:
    """T^T A T for the trial map T that fills the last DOF with row . x[-4:-1]."""
    reduced = np.array(matrix[:-1, :-1], order="F")
    reduced[:, -3:] += np.outer(matrix[:-1, -1], row)
    reduced[-3:, :] += np.outer(row, matrix[-1, :-1])
    reduced[-3:, -3:] += matrix[-1, -1] * np.outer(row, row)
    return reduced


def _reduced_pencil(pencil: PencilAssembly):
    """(Mw, K) on the moment-constrained trial space, and the moment row."""
    row = surface_moment_row(pencil.h, pencil.k)
    return (_constrained(pencil.Mw.matrix, row),
            _constrained(pencil.K.matrix, row), row)


def gamma_spectrum(pencil: PencilAssembly, n_max: int) -> SpectrumResult:
    """Largest n_max eigenvalues of Mw x = gamma K x with K-orthonormal vectors.

    Zero and negative-by-roundoff eigenvalues of the rank-deficient mass
    are dropped; fewer than n_max positive branches sets complete=False.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    mw, kmat, row = _reduced_pencil(pencil)
    vals, vecs = sla.eigh(mw, kmat)
    top = vals[-1] if vals.size else 0.0
    keep = vals > max(0.0, DROP_THRESHOLD * top)
    vals, vecs = vals[keep][::-1], vecs[:, keep][:, ::-1]
    count = min(n_max, vals.size)
    gammas, reduced = vals[:count].copy(), vecs[:, :count]
    if count:
        res = mw @ reduced - kmat @ reduced * gammas
        scale = np.maximum(np.linalg.norm(mw @ reduced, axis=0),
                           gammas * np.linalg.norm(kmat @ reduced, axis=0))
        max_residual = float((np.linalg.norm(res, axis=0) / scale).max())
    else:
        max_residual = 0.0
    vectors = np.vstack([reduced, row @ reduced[-3:]])
    return SpectrumResult(gammas=gammas, vectors=vectors, n_max=n_max,
                          complete=count == n_max, max_residual=max_residual)


def gamma_values(pencil: PencilAssembly, n_max: int) -> np.ndarray:
    """Largest n_max eigenvalues only (no vectors); cheap path for root finding."""
    mw, kmat, _ = _reduced_pencil(pencil)
    dof = kmat.shape[0]
    lo = max(0, dof - n_max)
    vals = sla.eigh(mw, kmat, eigvals_only=True, overwrite_a=True,
                    overwrite_b=True, subset_by_index=(lo, dof - 1))
    top = vals[-1] if vals.size else 0.0
    vals = vals[vals > max(0.0, DROP_THRESHOLD * top)]
    return vals[::-1]


def boundary_quotient_spectrum(mesh: Mesh, k: float,
                               magnitude_floor: float = 1e-10) -> np.ndarray:
    """Nonzero stationary values of the endpoint quotient, sorted decreasing.

    These are the eigenvalues of the rank-4 pencil BDRYQ x = beta H2 x; at
    most four survive the magnitude floor.  Closed forms exist: 1 (twice)
    and two negative values determined by sinh(ka) and ka.
    """
    q = boundary_quotient_form(mesh, k)
    h2 = assemble_h2_form(mesh, k)
    vals = sla.eigh(q.matrix, h2.matrix, eigvals_only=True)
    vals = vals[np.abs(vals) > magnitude_floor]
    return np.sort(vals)[::-1]


def coercivity_ratio(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                     k: float, lam: float, cache: FormCache | None = None) -> float:
    """Smallest eigenvalue of (K/mu) x = r H2 x.

    Bounded below by 2(sinh(ka) - ka)/(3 sinh(ka) - ka) uniformly in the
    rate and in the stratification shape.
    """
    pencil = assemble_B(mesh, profile, params, k, lam, cache=cache)
    h2 = (cache.interior(k)[0] if cache is not None
          else assemble_h2_form(mesh, k))
    vals = sla.eigh(pencil.K.matrix / params.mu, h2.matrix,
                    eigvals_only=True, subset_by_index=(0, 0))
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
