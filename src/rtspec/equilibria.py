"""Equilibrium density profiles for a stably-heavy-on-top stratified layer.

The equilibrium is a nondecreasing density rho0(x3) on the lower half line
x3 <= 0: constant rho_minus below depth -a, rising smoothly to rho_plus at
the surface x3 = 0, with all the variation (drho0 >= 0) supported on
[-a, 0].  Two derivative shapes are provided: an infinitely smooth bump
and a quintic smoothstep (cheap quadrature, cross-checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError

PROFILE_KINDS = ("bump", "quintic")

# Master integration table for the bump CDF: panels over y in [-1, 1],
# Gauss-Legendre nodes per panel.  Partial panels at query points stay
# below the panel width, so every query is resolved to machine precision.
_BUMP_PANELS = 2048
_BUMP_GL_POINTS = 16
_BUMP_GL_NODES = np.polynomial.legendre.leggauss(_BUMP_GL_POINTS)

# The search for max drho0/rho0 on [-a, 0]: a grid of _PEAK_CELLS cells,
# then _PEAK_ZOOMS zooms that each sample 2 * _PEAK_ZOOM + 1 points across
# the two cells around the best point so far and divide the spacing by
# _PEAK_ZOOM.  The spacing ends below 1e-10 a, past the point where the
# rounding of the ratio, not the spacing, limits the maximum.
_PEAK_CELLS = 1024
_PEAK_ZOOM = 16
_PEAK_ZOOMS = 6


def _bump_shape(y: np.ndarray) -> np.ndarray:
    """exp(-1/(1-y^2)) on (-1, 1), zero outside; all derivatives vanish at +-1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(-1.0 / (1.0 - yi * yi))
    return out


@cache
def _bump_table() -> tuple[np.ndarray, np.ndarray, float]:
    """(panel edges, cumulative integral at edges, total) for the bump shape."""
    edges = np.linspace(-1.0, 1.0, _BUMP_PANELS + 1)
    t, w = _BUMP_GL_NODES
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * t[None, :]
    panel = (half[:, None] * w[None, :] * _bump_shape(nodes)).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(panel)))
    return edges, cum, float(cum[-1])


def _bump_cdf(y: np.ndarray) -> np.ndarray:
    """Normalized integral of the bump shape from -1 to y, clipped to [0, 1]."""
    edges, cum, total = _bump_table()
    y = np.clip(np.asarray(y, dtype=float), -1.0, 1.0)
    idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, _BUMP_PANELS - 1)
    left = edges[idx]
    t, w = _BUMP_GL_NODES
    mid = 0.5 * (left + y)
    half = 0.5 * (y - left)
    nodes = mid[..., None] + half[..., None] * t
    partial = (half[..., None] * w * _bump_shape(nodes)).sum(axis=-1)
    return np.clip((cum[idx] + partial) / total, 0.0, 1.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Fluid constants: viscosity mu, gravity g, torus half-period scales L1, L2."""

    mu: float
    g: float
    L1: float = 1.0
    L2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mu", "g", "L1", "L2"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"params.{name} must be strictly positive")


@dataclass(frozen=True)
class DensityProfile:
    """Equilibrium density: rho_minus below -a, rho_plus at the surface.

    ``rho_plus == rho_minus`` is allowed and yields the degenerate profile
    with drho0 identically zero (no stratification jump, hence no unstable
    spectrum); it is useful as a control case.
    """

    rho_minus: float
    rho_plus: float
    a: float
    kind: str = "bump"

    def __post_init__(self) -> None:
        if not self.rho_minus > 0.0:
            raise ConfigError("profile.rho_minus must be strictly positive")
        if self.rho_plus < self.rho_minus:
            raise ConfigError("profile.rho_plus must be >= profile.rho_minus")
        if not self.a > 0.0:
            raise ConfigError("profile.a must be strictly positive")
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(
                f"profile.kind must be one of {PROFILE_KINDS}, got {self.kind!r}"
            )

    @property
    def delta(self) -> float:
        return self.rho_plus - self.rho_minus

    @cached_property
    def _peak_ratio(self) -> float:
        """max drho0/rho0 on [-a, 0], by a coarse grid refined by zooming.

        The ratio is smooth with one maximum, so the maximizer lies within
        one spacing of the best sample; 1,223 profile evaluations in all.
        A sample that overflows (a density jump near the largest double)
        is a ConfigError.
        """
        h = self.a / _PEAK_CELLS
        x = np.linspace(-self.a, 0.0, _PEAK_CELLS + 1)
        peak = -math.inf
        for _ in range(_PEAK_ZOOMS + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = self.drho0(x) / self.rho0(x)
            if not np.isfinite(ratio).all():
                raise ConfigError(
                    f"drho0 / rho0 overflows: profile.rho_plus={self.rho_plus!r}"
                    f" is too large for profile.a={self.a!r}")
            i = int(np.argmax(ratio))
            if ratio[i] > peak:
                peak, best = float(ratio[i]), x[i]
            x = np.clip(best + h * np.linspace(-1.0, 1.0, 2 * _PEAK_ZOOM + 1),
                        -self.a, 0.0)
            h /= _PEAK_ZOOM
        return peak

    # -- evaluation --------------------------------------------------------

    def _check_domain(self, x3: np.ndarray) -> np.ndarray:
        x3 = np.asarray(x3, dtype=float)
        if np.any(x3 > 0.0):
            raise ValueError("density profile is defined on x3 <= 0 only")
        return x3

    def rho0(self, x3):
        """Equilibrium density at x3 <= 0 (scalar or array)."""
        x = self._check_domain(x3)
        if self.kind == "quintic":
            t = np.clip((x + self.a) / self.a, 0.0, 1.0)
            f = t**3 * (6.0 * t**2 - 15.0 * t + 10.0)
        else:
            f = _bump_cdf((2.0 * x + self.a) / self.a)
        out = self.rho_minus + self.delta * f
        return out if out.ndim else float(out)

    def drho0(self, x3):
        """Density gradient at x3 <= 0; nonnegative, zero outside [-a, 0]."""
        x = self._check_domain(x3)
        if self.delta == 0.0:
            out = np.zeros_like(x)
        elif self.kind == "quintic":
            t = (x + self.a) / self.a
            inside = (t > 0.0) & (t < 1.0)
            out = np.zeros_like(x)
            ti = t[inside]
            out[inside] = 30.0 * self.delta / self.a * ti**2 * (1.0 - ti) ** 2
        else:
            _, _, total = _bump_table()
            scale = 2.0 * self.delta / (self.a * total)
            out = scale * _bump_shape((2.0 * x + self.a) / self.a)
        return out if out.ndim else float(out)


def char_length(profile: DensityProfile, g: float):
    """Characteristic length L0 and the universal growth-rate cap sqrt(g/L0).

    1/L0 is the maximum of drho0/rho0 on [-a, 0] (the ratio has no
    closed-form maximizer), found to rounding by a coarse grid and
    successive zooms around its best point.  The search runs once per
    profile instance and is cached on it, so repeated calls are cheap.
    A profile with drho0 identically zero returns (inf, 0.0).
    """
    peak = profile._peak_ratio
    if peak == 0.0:
        return math.inf, 0.0
    return 1.0 / peak, math.sqrt(g * peak)
