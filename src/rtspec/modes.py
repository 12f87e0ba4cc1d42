"""Full normal-mode reconstruction from an interior eigenfunction.

A converged growth-rate branch gives the vertical-velocity amplitude phi
on the stratified layer [-a, 0] as a C1 element function, and a
``HalfLineFunction`` (verify's trial functions too) continues it below
the layer by the decaying tail A1 e^{k x} + A2 e^{tau x} that C1 matching
fixes.  This module derives the pressure amplitude, takes the
horizontal-velocity amplitudes in closed form from incompressibility, and
packages the density and surface amplitudes that close the mode.  A small
Poisson-extension toolkit for surface data lives here as well.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .discretization import HermiteFunction, Mesh, tau_decay
from .equilibria import DensityProfile, PhysicalParams
from .errors import ConfigError, NoUnstableBranchError, NumericalError
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


# -- functions on the half line ----------------------------------------------

@dataclass(frozen=True, eq=False)
class HalfLineFunction:
    """An H2 function on x <= 0: a C1 element function on the layer
    [-a, 0] (a = ``mesh.a``), continued below by the decaying tail
    A1 e^{k(x+a)} + A2 e^{tau(x+a)} that matches its value and slope at -a
    (tau > k).  The tail is evaluated in the matching basis of
    ``verify.tail_integrals``, not from (A1, A2): those grow like
    1 / (tau - k) and cancel as tau nears k.

    ``coeffs`` is one DOF vector, or a (dof, m) block whose columns share
    the mesh, k and tau; only a single function is evaluated.
    """

    mesh: Mesh
    coeffs: np.ndarray
    k: float
    tau: float

    def __post_init__(self) -> None:
        if not self.tau > self.k:
            raise ValueError("outer decay rate tau must exceed k")

    @property
    def tail(self) -> tuple[float, float]:
        """Tail coefficients (A1, A2), from ``outer_coefficients``."""
        return outer_coefficients(self.coeffs[0], self.coeffs[1], self.k,
                                  self.tau)

    def __call__(self, x, deriv: int = 0):
        """Value (or x-derivative up to order 3) at points x <= 0."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x > 0.0):
            raise ValueError("half-line functions are defined on x3 <= 0 only")
        out = np.empty_like(x)
        inner = x >= -self.mesh.a
        if inner.any():
            out[inner] = HermiteFunction(self.mesh, self.coeffs)(x[inner], deriv)
        if (~inner).any():
            # e^{ks} (p + q E(s)), E(s) = expm1((tau - k) s) / (tau - k),
            # with p = phi(-a), q = phi'(-a) - k phi(-a) and s = x + a
            s = x[~inner] + self.mesh.a
            k, tau = self.k, self.tau
            p = self.coeffs[0]
            q = self.coeffs[1] - k * p
            rising = sum(tau**i * k**(deriv - 1 - i) for i in range(deriv))
            e = np.expm1((tau - k) * s) / (tau - k)
            out[~inner] = np.exp(k * s) * (p * k**deriv
                                           + q * (tau**deriv * e + rising))
        return float(out[0]) if scalar else out


# -- horizontal amplitudes ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class HorizontalAmplitude:
    """Horizontal-velocity amplitude w = -k_component phi' / k^2 on x <= 0,
    in closed form on the whole half line."""

    phi: Callable
    factor: float

    def __call__(self, x, deriv: int = 0):
        """Value (or x-derivative up to order 2) at points x <= 0."""
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0..2")
        return self.factor * self.phi(x, deriv + 1)


def horizontal_velocity(phi: Callable, k_component: float,
                        k: float) -> HorizontalAmplitude:
    """Horizontal amplitude for wavenumber component k_component.

    Incompressibility k1 psi + k2 varphi + phi' = 0 gives w = -k_component
    phi' / k^2, and with the pressure of ``NormalMode.pressure`` this w
    solves -mu w'' + (lam rho0 + mu k^2) w = k_component * pressure
    identically, on the layer and on the tail.  Its slope at the surface
    is k_component * phi(0) because phi''(0) + k^2 phi(0) = 0 holds in the
    trial space.  ``phi`` is the vertical amplitude, called as phi(x, deriv).
    """
    return HorizontalAmplitude(phi=phi, factor=-k_component / k**2)


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
    phi: HalfLineFunction
    nu: float
    psi: HorizontalAmplitude
    varphi: HorizontalAmplitude
    record: GrowthRecord

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
        inner = x >= -self.mesh.a
        if inner.any():
            xi = x[inner]
            slope = self.phi(xi, 1)
            out[inner] = -(lam * self.profile.rho0(xi) * slope
                           + mu * (k * k * slope - self.phi(xi, 3))) / k**2
        if (~inner).any():
            xo = x[~inner] + self.mesh.a
            a1 = self.phi.tail[0]
            out[~inner] = -(lam * self.profile.rho_minus / k) * a1 * np.exp(k * xo)
        return float(out[0]) if scalar else out

    def omega(self, x):
        """Density amplitude -drho0 phi / lambda; supported on [-a, 0]."""
        return -self.profile.drho0(x) * self.phi(x) / self.lambda_n


def build_normal_mode(mesh: Mesh, profile: DensityProfile, params: PhysicalParams,
                      k_vec: tuple[float, float], n: int,
                      settings: SolverSettings = SolverSettings(),
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
    phi = HalfLineFunction(mesh=mesh, coeffs=coeffs, k=k, tau=tau)
    return NormalMode(k_vec=(k1, k2), k=k, n=n, lambda_n=lam, mesh=mesh,
                      profile=profile, params=params, phi=phi,
                      nu=coeffs[-2] / lam,
                      psi=horizontal_velocity(phi, k1, k),
                      varphi=horizontal_velocity(phi, k2, k), record=record)


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


def mode_table(mode: NormalMode, samples: int = DEFAULT_SAMPLES,
               domain_factor: float = DEFAULT_DOMAIN_FACTOR
               ) -> tuple[dict, np.ndarray]:
    """Header fields and sampled profile rows for mode-file emission.

    The rows reach max(2, ceil(domain_factor / (k h))) element widths h
    below the layer, where the profiles are closed forms.
    """
    a1, a2 = mode.phi.tail
    header = {
        "k1": mode.k_vec[0], "k2": mode.k_vec[1], "n": mode.n,
        "lambda": mode.lambda_n, "A1": a1, "A2": a2,
        "tau_minus": mode.phi.tau, "nu": mode.nu,
    }
    h = mode.mesh.h
    widths = domain_factor / (mode.k * h)
    if not math.isfinite(widths):
        raise ConfigError("modes.domain_factor / (k h) overflows")
    depth = mode.mesh.a + max(2, math.ceil(widths)) * h
    x = np.linspace(-depth, 0.0, samples)
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
