"""Full normal-mode reconstruction from an interior eigenfunction.

A converged growth-rate branch gives the vertical-velocity amplitude phi
on the stratified layer [-a, 0] as a C1 element function.  This module
glues on the closed-form decaying tail A1 e^{k x} + A2 e^{tau x} below
the layer, derives the pressure amplitude, takes the horizontal-velocity
amplitudes in closed form from incompressibility, and packages the
density and surface amplitudes that close the mode.  A small
Poisson-extension toolkit for surface data lives here as well.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .discretization import HermiteFunction, Mesh, tau_decay
from .equilibria import DensityProfile, PhysicalParams
from .errors import NoUnstableBranchError, NumericalError
from .growth_solver import (NO_UNSTABLE_BRANCH, GrowthRecord, SolverSettings,
                            solve_lambda_n)
from .spectral_core import assemble_B, gamma_spectrum

DEFAULT_DOMAIN_FACTOR = 10.0
DEFAULT_SAMPLES = 512


def outer_coefficients(phi_at_a: float, dphi_at_a: float, k: float,
                       tau: float) -> tuple[float, float]:
    """Tail coefficients (A1, A2) from C1 matching data at the layer bottom.

    The tail A1 e^{k(x+a)} + A2 e^{tau(x+a)} matches value and slope; tau
    exceeds k strictly for any positive rate, so the system is regular.
    """
    if not tau > k:
        raise ValueError("outer decay rate tau must exceed k (requires lam > 0)")
    den = tau - k
    a1 = (tau * phi_at_a - dphi_at_a) / den
    a2 = (dphi_at_a - k * phi_at_a) / den
    return a1, a2


# -- horizontal amplitudes ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class HorizontalAmplitude:
    """Horizontal-velocity amplitude w = -k_component phi' / k^2 on x <= 0.

    ``depth`` is that of the sampled interval [-a - domain_factor/k, 0]
    (rounded up to the interior element width); the closed form itself
    holds on the whole half line.
    """

    phi: Callable
    factor: float
    depth: float

    def __call__(self, x, deriv: int = 0):
        """Value (or x-derivative up to order 2) at points x <= 0."""
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0..2")
        return self.factor * self.phi(x, deriv + 1)


def horizontal_velocity(phi: Callable, k_component: float, k: float,
                        interior_mesh: Mesh,
                        domain_factor: float = DEFAULT_DOMAIN_FACTOR
                        ) -> HorizontalAmplitude:
    """Horizontal amplitude for wavenumber component k_component.

    Incompressibility k1 psi + k2 varphi + phi' = 0 gives w = -k_component
    phi' / k^2, and with the pressure of ``NormalMode.pressure`` this w
    solves -mu w'' + (lam rho0 + mu k^2) w = k_component * pressure
    identically, on the layer and on the tail.  Its slope at the surface
    is k_component * phi(0) because phi''(0) + k^2 phi(0) = 0 holds in the
    trial space.  ``phi`` is the vertical amplitude, called as phi(x, deriv);
    domain_factor only sets ``depth``.
    """
    h = interior_mesh.h
    n_out = max(2, math.ceil(domain_factor / (k * h)))
    return HorizontalAmplitude(phi=phi, factor=-k_component / k**2,
                               depth=interior_mesh.a + n_out * h)


# -- the assembled mode -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormalMode:
    """All amplitude profiles of one growing normal mode.

    phi is normalized to max |phi| = 1 on the layer; omega and the surface
    amplitude nu follow the closures omega = -drho0 phi / lambda and
    nu = phi(0) / lambda.
    """

    k_vec: tuple[float, float]
    k: float
    n: int
    lambda_n: float
    mesh: Mesh
    profile: DensityProfile
    params: PhysicalParams
    coeffs: np.ndarray
    A1: float
    A2: float
    tau_minus: float
    nu: float
    psi: HorizontalAmplitude
    varphi: HorizontalAmplitude
    record: GrowthRecord

    @property
    def interior(self) -> HermiteFunction:
        return HermiteFunction(self.mesh, self.coeffs)

    def phi(self, x, deriv: int = 0):
        """Vertical-velocity amplitude (or derivative up to 3) on x <= 0."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x > 0.0):
            raise ValueError("mode profiles are defined on x3 <= 0 only")
        out = np.empty_like(x)
        inner = x >= -self.profile.a
        if inner.any():
            out[inner] = self.interior(x[inner], deriv)
        if (~inner).any():
            xo = x[~inner] + self.profile.a
            k, tau = self.k, self.tau_minus
            out[~inner] = (self.A1 * k**deriv * np.exp(k * xo)
                           + self.A2 * tau**deriv * np.exp(tau * xo))
        return float(out[0]) if scalar else out

    def pressure(self, x):
        """Pressure amplitude; closed form below the layer, elementwise above.

        The interior third derivative comes from the cubic basis (piecewise
        constant), so the pressure carries one order less accuracy than phi.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x > 0.0):
            raise ValueError("mode profiles are defined on x3 <= 0 only")
        lam, k, mu = self.lambda_n, self.k, self.params.mu
        out = np.empty_like(x)
        inner = x >= -self.profile.a
        if inner.any():
            xi = x[inner]
            f = self.interior
            out[inner] = -(lam * self.profile.rho0(xi) * f(xi, 1)
                           + mu * (k * k * f(xi, 1) - f(xi, 3))) / k**2
        if (~inner).any():
            xo = x[~inner] + self.profile.a
            out[~inner] = -(lam * self.profile.rho_minus / k) * self.A1 * np.exp(k * xo)
        return float(out[0]) if scalar else out

    def omega(self, x):
        """Density amplitude -drho0 phi / lambda; supported on [-a, 0]."""
        return -self.profile.drho0(x) * self.phi(x) / self.lambda_n


def build_normal_mode(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                      k_vec: tuple[float, float], n: int,
                      settings: SolverSettings = SolverSettings(),
                      domain_factor: float = DEFAULT_DOMAIN_FACTOR,
                      record: GrowthRecord | None = None) -> NormalMode:
    """Assemble the full mode for lattice wavenumber k_vec and branch n."""
    k1, k2 = float(k_vec[0]), float(k_vec[1])
    k = math.hypot(k1, k2)
    if k == 0.0:
        raise ValueError("zero wavenumber excluded")
    if record is None:
        record = solve_lambda_n(mesh, profile, params, k, n, settings)
    if not record.converged:
        error = (NoUnstableBranchError if record.reason == NO_UNSTABLE_BRANCH
                 else NumericalError)
        raise error(
            f"no converged growth rate for |k|={k}, n={n} ({record.reason})")
    lam = record.lambda_n
    spectrum = gamma_spectrum(assemble_B(mesh, profile, params, k, lam), n)
    if len(spectrum) < n:
        raise NoUnstableBranchError(f"branch n={n} absent at lam={lam}")
    coeffs = spectrum.vectors[:, n - 1].copy()
    coeffs /= HermiteFunction(mesh, coeffs).peak()

    tau = tau_decay(k, lam, profile.rho_minus, params.mu)
    if not tau > k:
        raise NumericalError(f"outer decay rate tau rounds to k={k} at lam={lam}")
    a1, a2 = outer_coefficients(coeffs[0], coeffs[1], k, tau)
    nu = coeffs[-2] / lam

    partial = NormalMode(k_vec=(k1, k2), k=k, n=n, lambda_n=lam, mesh=mesh,
                         profile=profile, params=params, coeffs=coeffs,
                         A1=a1, A2=a2, tau_minus=tau, nu=nu,
                         psi=None, varphi=None, record=record)
    return replace(
        partial,
        psi=horizontal_velocity(partial.phi, k1, k, mesh, domain_factor),
        varphi=horizontal_velocity(partial.phi, k2, k, mesh, domain_factor))


@dataclass(frozen=True)
class FieldSample:
    zeta: float
    u1: float
    u2: float
    u3: float
    q: float
    eta: float


def evaluate_field(mode: NormalMode, t: float, x) -> FieldSample:
    """Physical perturbation fields of the mode at time t and point x."""
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    if x3 > 0.0:
        raise ValueError("field points must satisfy x3 <= 0")
    k1, k2 = mode.k_vec
    phase = k1 * x1 + k2 * x2
    growth = math.exp(mode.lambda_n * t)
    s, c = math.sin(phase), math.cos(phase)
    return FieldSample(
        zeta=growth * c * mode.omega(x3),
        u1=growth * s * mode.psi(x3),
        u2=growth * s * mode.varphi(x3),
        u3=growth * c * mode.phi(x3),
        q=growth * c * mode.pressure(x3),
        eta=growth * c * mode.nu,
    )


# -- Poisson extension of surface data ----------------------------------------

@dataclass(frozen=True)
class SurfaceSeries:
    """Finite Fourier series of zero-mean surface data on the torus.

    ``terms`` maps lattice wavevectors (k1, k2) to complex amplitudes; the
    represented field is Re sum c exp(i k . x_h).  The mean mode (0, 0) is
    excluded by the zero-average convention.
    """

    L1: float
    L2: float
    terms: tuple[tuple[tuple[float, float], complex], ...]

    def __post_init__(self) -> None:
        for (k1, k2), _ in self.terms:
            if k1 == 0.0 and k2 == 0.0:
                raise ValueError("surface series must have zero average "
                                 "(mode (0,0) excluded)")

    def eval(self, x1: float, x2: float) -> float:
        return sum((c * np.exp(1j * (k1 * x1 + k2 * x2))).real
                   for (k1, k2), c in self.terms)


def poisson_extend(series: SurfaceSeries, x) -> float:
    """Harmonic-type extension of the surface series at x = (x1, x2, x3 <= 0)."""
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    if x3 > 0.0:
        raise ValueError("extension is defined on x3 <= 0 only")
    total = 0.0
    for (k1, k2), c in series.terms:
        mag = math.hypot(k1, k2)
        total += (c * np.exp(1j * (k1 * x1 + k2 * x2))).real * math.exp(mag * x3)
    return total


def poisson_gradient_l2(series: SurfaceSeries) -> float:
    """Squared L2 norm of the extension gradient over the half space.

    Horizontal integrals are exact by mode orthogonality (terms are assumed
    to have pairwise distinct wavevectors, none opposite); the vertical
    factor, the integral of exp(2|k| x3) over x3 < 0, is 1/(2|k|).
    """
    area = 4.0 * math.pi**2 * series.L1 * series.L2
    return sum(abs(c) ** 2 * math.hypot(k1, k2)
               for (k1, k2), c in series.terms) * area / 2.0


def surface_l2(series: SurfaceSeries) -> float:
    """Squared L2 norm of the surface data itself (exact by orthogonality)."""
    area = 4.0 * math.pi**2 * series.L1 * series.L2
    return sum(abs(c) ** 2 for _, c in series.terms) * area / 2.0


# -- mode table for file output ------------------------------------------------

MODE_COLUMNS = ("x3", "phi", "dphi", "psi", "varphi", "pi", "omega")


def mode_table(mode: NormalMode, samples: int = DEFAULT_SAMPLES) -> tuple[dict, np.ndarray]:
    """Header fields and sampled profile rows for mode-file emission."""
    header = {
        "k1": mode.k_vec[0], "k2": mode.k_vec[1], "n": mode.n,
        "lambda": mode.lambda_n, "A1": mode.A1, "A2": mode.A2,
        "tau_minus": mode.tau_minus, "nu": mode.nu,
    }
    x = np.linspace(-mode.psi.depth, 0.0, samples)
    rows = np.column_stack([
        x,
        mode.phi(x),
        mode.phi(x, 1),
        mode.psi(x),
        mode.varphi(x),
        mode.pressure(x),
        mode.omega(x),
    ])
    return header, rows
