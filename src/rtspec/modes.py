"""Full normal-mode reconstruction from an interior eigenfunction.

A converged growth-rate branch gives the vertical-velocity amplitude phi
on the stratified layer [-a, 0] as a C1 element function, and a
``HalfLineFunction`` (verify's trial functions too) continues it below
the layer by the decaying tail that C1 matching fixes.  Every other
amplitude reads that one function on the whole half line: the pressure
by the momentum balance, the horizontal velocities by incompressibility,
the density and surface amplitudes by closure.  A small Poisson-extension
toolkit for surface data lives here as well.
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
                            lattice_index, solve_lambda_n)
from .spectral_core import assemble_B, gamma_spectrum

DEFAULT_DOMAIN_FACTOR = 10.0
DEFAULT_SAMPLES = 512


# -- functions on the half line ----------------------------------------------

@dataclass(frozen=True, eq=False)
class HalfLineFunction:
    """An H2 function on x <= 0: a C1 element function on the layer
    [-a, 0] (a = ``mesh.a``), continued below by the decaying tail
    A1 e^{k(x+a)} + A2 e^{tau(x+a)} that matches its value and slope at -a
    (tau > k).  The tail is read through its data in the matching basis
    (``matching``, the basis of ``verify.tail_integrals``), not from
    (A1, A2): those grow like 1 / (tau - k) and cancel as tau nears k.

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
    def matching(self) -> tuple:
        """Tail data (p, q) = (phi(-a), phi'(-a) - k phi(-a)) of the
        matching basis e^{ks} (p + q E(s)), one value per column."""
        p = self.coeffs[0]
        return p, self.coeffs[1] - self.k * p

    def __call__(self, x, deriv: int = 0):
        """Value (or x-derivative up to order 3) at points x <= 0."""
        if deriv not in (0, 1, 2, 3):
            raise ValueError("deriv must be 0..3")
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
            # with s = x + a
            s = x[~inner] + self.mesh.a
            k, tau = self.k, self.tau
            p, q = self.matching
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
        """Pressure amplitude -(lam rho0 phi' + mu (k^2 phi' - phi''')) / k^2.

        The momentum balance, on the whole half line.  Below the layer rho0
        is rho_minus and the tail's e^{tau s} terms cancel (tau^2 - k^2 =
        lam rho_minus / mu), leaving -(lam rho_minus / k) A1 e^{k(x+a)}.  On
        the layer the third derivative comes from the cubic basis (piecewise
        constant), so the pressure carries one order less accuracy than phi.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if np.any(x > 0.0):
            raise ValueError("mode profiles are defined on x3 <= 0 only")
        lam, k, mu = self.lambda_n, self.k, self.params.mu
        slope = self.phi(x, 1)
        out = -(lam * self.profile.rho0(x) * slope
                + mu * (k * k * slope - self.phi(x, 3))) / k**2
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
    elif record.n != n or abs(record.k - k) > 1e-12 * k:
        raise ValueError(f"record of |k|={record.k}, n={record.n} given for "
                         f"|k|={k}, n={n}")
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
    excluded by the zero-average convention.  Each wavevector must lie on
    the torus lattice (Z/L1) x (Z/L2), as ``lattice_index`` decides: off
    it the field is not periodic and the norms do not hold.
    """

    L1: float
    L2: float
    terms: tuple[tuple[tuple[float, float], complex], ...]

    def __post_init__(self) -> None:
        seen = set()
        for (k1, k2), _ in self.terms:
            if k1 == 0.0 and k2 == 0.0:
                raise ValueError("surface series must have zero average "
                                 "(mode (0,0) excluded)")
            if not (lattice_index(k1, self.L1)[1]
                    and lattice_index(k2, self.L2)[1]):
                raise ValueError(f"wavevector ({k1}, {k2}) is off the torus "
                                 f"lattice (Z/{self.L1}) x (Z/{self.L2})")
            if (k1, k2) in seen or (-k1, -k2) in seen:
                raise ValueError(f"wavevector ({k1}, {k2}) repeats or opposes "
                                 "another term (orthogonality fails)")
            seen.add((k1, k2))

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

    The header's A2 = q / (tau - k) is q mu (tau + k) / (lam rho_minus),
    which subtracts nothing, and A1 = p - A2.  The rows reach
    max(2, ceil(domain_factor / (k h))) element widths h below the layer,
    where the profiles are closed forms.
    """
    p, q = mode.phi.matching
    a2 = q * mode.params.mu * (mode.phi.tau + mode.k) / (
        mode.lambda_n * mode.profile.rho_minus)
    header = {
        "k1": mode.k_vec[0], "k2": mode.k_vec[1], "n": mode.n,
        "lambda": mode.lambda_n, "A1": p - a2, "A2": a2,
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
