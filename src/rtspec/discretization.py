"""C1 finite elements on (-a, 0): mesh, cubic Hermite basis, assembly.

Every symmetric form the stability operator needs lives here as a plain
array.  The interior forms (H2, the density-weighted gradient form WGRAD
and the weighted mass WMASS) are lower bands in LAPACK's symmetric band
storage, ``band[d, j] = A[j + d, j]`` for d <= BANDWIDTH (``dense``
builds the matrix).  The boundary forms (surface and matching depth) and
the endpoint quotient form are 4x4 blocks on the endpoint DOFs.
H2 = S2 + 2 k^2 S1 + k^4 S0 and WGRAD = k^2 R0 + R1 combine parts
assembled once: ``h2_parts`` per mesh, ``layer_forms`` (the profile at
the Gauss points, WMASS, R0, R1) per (mesh, profile).  All are read-only
and shared; meshes compare by value.

Degrees of freedom are interleaved (value, slope) per node, so those are
``ENDPOINT_DOFS``: value and slope at x = -a, then at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .equilibria import DensityProfile, PhysicalParams
from .errors import ConfigError

DEFAULT_QUADRATURE_POINTS = 10

# Global DOFs of (value, slope) at x = -a and (value, slope) at x = 0.
ENDPOINT_DOFS = [0, 1, -2, -1]

# Half-bandwidth of the interior forms: an element couples two nodes' DOFs.
BANDWIDTH = 3


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh on [-a, 0] with two DOFs (value, slope) per node.

    Its fields determine every property, so meshes compare by value."""

    a: float
    n_elements: int
    quadrature_points: int = DEFAULT_QUADRATURE_POINTS

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.a, 0.0, self.n_elements + 1)

    @cached_property
    def reference_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss points xi in [0, 1] of one element and their weights,
        including the h/2 factor; read-only, since every caller shares them."""
        t, w = np.polynomial.legendre.leggauss(self.quadrature_points)
        return _read_only(0.5 * (t + 1.0)), _read_only(0.5 * w * self.h)

    @cached_property
    def quadrature_shapes(self) -> np.ndarray:
        """Shape values and first two derivatives at one element's quadrature
        points, shape (3, n_quad, 4): [derivative order, point, local DOF];
        read-only."""
        xi, _ = self.reference_quadrature
        return _read_only(hermite_shapes(xi, self.h)[:3].transpose(0, 2, 1))

    @cached_property
    def element_dofs(self) -> np.ndarray:
        """Global DOFs of each element, shape (n_elements, 4): (value left,
        slope left, value right, slope right); read-only."""
        e = np.arange(self.n_elements)
        return _read_only(np.stack([2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3],
                                    axis=1))

    @property
    def h(self) -> float:
        return self.a / self.n_elements

    @property
    def dof_count(self) -> int:
        return 2 * (self.n_elements + 1)


def build_mesh(a: float, n_elements: int,
               quadrature_points: int = DEFAULT_QUADRATURE_POINTS) -> Mesh:
    """Uniform mesh covering [-a, 0]; at least 2 elements."""
    if not a > 0.0:
        raise ConfigError("mesh depth a must be strictly positive")
    if n_elements < 2:
        raise ConfigError("mesh.n_elements must be at least 2")
    if quadrature_points < 4:
        raise ConfigError("mesh.quadrature_points must be at least 4")
    if not 1e-30 <= a / n_elements <= 1e30:
        # the basis scales with h^3 and h^-3, the forms with k^4 h as well
        raise ConfigError("element width a / n_elements must lie in [1e-30, 1e30]")
    return Mesh(a=a, n_elements=n_elements, quadrature_points=quadrature_points)


# -- Hermite shape functions ------------------------------------------------

def hermite_shapes(xi: np.ndarray, h: float) -> np.ndarray:
    """Shape values and x-derivatives up to third order on one element.

    Returns array of shape (4, 4, len(xi)): [derivative order, local DOF,
    point].  Local DOFs are (value left, slope left, value right, slope
    right); xi is the reference coordinate in [0, 1].
    """
    xi = np.asarray(xi, dtype=float)
    one = np.ones_like(xi)
    n = np.empty((4, 4, xi.size))
    # values
    n[0, 0] = 1.0 - 3.0 * xi**2 + 2.0 * xi**3
    n[0, 1] = h * (xi - 2.0 * xi**2 + xi**3)
    n[0, 2] = 3.0 * xi**2 - 2.0 * xi**3
    n[0, 3] = h * (xi**3 - xi**2)
    # first derivatives
    n[1, 0] = (-6.0 * xi + 6.0 * xi**2) / h
    n[1, 1] = 1.0 - 4.0 * xi + 3.0 * xi**2
    n[1, 2] = (6.0 * xi - 6.0 * xi**2) / h
    n[1, 3] = 3.0 * xi**2 - 2.0 * xi
    # second derivatives
    n[2, 0] = (-6.0 + 12.0 * xi) / h**2
    n[2, 1] = (-4.0 + 6.0 * xi) / h
    n[2, 2] = (6.0 - 12.0 * xi) / h**2
    n[2, 3] = (6.0 * xi - 2.0) / h
    # third derivatives (constant per element)
    n[3, 0] = 12.0 / h**3 * one
    n[3, 1] = 6.0 / h**2 * one
    n[3, 2] = -12.0 / h**3 * one
    n[3, 3] = 6.0 / h**2 * one
    return n


def quadrature(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points and weights, 1-D and element-major."""
    xi, wq = mesh.reference_quadrature
    return (mesh.nodes[:-1, None] + mesh.h * xi).ravel(), np.tile(wq, mesh.n_elements)


def quadrature_values(mesh: Mesh, coeffs: np.ndarray) -> np.ndarray:
    """Values and first two derivatives at the quadrature points.

    ``coeffs`` is one DOF vector or a matrix whose columns are DOF vectors.
    Returns shape (3, n_points) or (3, n_points, m): [derivative order,
    point, column], with the points ordered as ``quadrature(mesh)[0]``.
    Each element combines only its own four DOFs.
    """
    local = coeffs[mesh.element_dofs]
    if coeffs.ndim == 1:
        local = local[:, :, None]
    values = mesh.quadrature_shapes[:, None] @ local
    points = mesh.n_elements * mesh.quadrature_points
    return values.reshape(3, points, *coeffs.shape[1:])


def _scatter(mesh: Mesh, local: np.ndarray) -> np.ndarray:
    """Lower band of the symmetrized sum of (n_elements, 4, 4) element blocks."""
    rows, cols = np.tril_indices(4)
    at = (rows - cols, mesh.element_dofs[:, cols])
    lower, upper = np.zeros((2, BANDWIDTH + 1, mesh.dof_count))
    np.add.at(lower, at, local[:, rows, cols])
    np.add.at(upper, at, local[:, cols, rows])
    return 0.5 * (lower + upper)


def dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band is ``band``."""
    matrix = np.zeros((band.shape[1],) * 2)
    for d, row in enumerate(band):
        j = np.arange(row.size - d)
        matrix[j + d, j] = matrix[j, j + d] = row[:row.size - d]
    return matrix


def _interior_form(mesh: Mesh, order: int, c: np.ndarray | float) -> np.ndarray:
    """Band of integral c(x) * d^m v * d^m w over the mesh, m = ``order``;
    ``c`` is a constant or one value per point of ``quadrature(mesh)``."""
    _, wq = mesh.reference_quadrature
    n = mesh.quadrature_shapes[order]
    weight = (c * np.tile(wq, mesh.n_elements)).reshape(mesh.n_elements, -1)
    return _scatter(mesh, np.einsum("eq,qi,qj->eij", weight, n, n))


# -- assembled forms ---------------------------------------------------------

@lru_cache(maxsize=None)
def h2_parts(mesh: Mesh) -> tuple[np.ndarray, ...]:
    """Read-only bands of H2's parts S_m = integral d^m v d^m w, m = 0..2."""
    return tuple(_read_only(_interior_form(mesh, m, 1.0)) for m in range(3))


@lru_cache(maxsize=1)
def layer_forms(mesh: Mesh, profile: DensityProfile) -> tuple[np.ndarray, ...]:
    """(weights, rho0, drho0, WMASS, R0, R1), read-only: the one sampling of
    the profile at the points of ``quadrature(mesh)``, and the bands of
    drho0 v w, rho0 v w and rho0 v' w'; only the last key is kept."""
    x, w = quadrature(mesh)
    rho, drho = profile.rho0(x), profile.drho0(x)
    parts = (_interior_form(mesh, 0, drho), _interior_form(mesh, 0, rho),
             _interior_form(mesh, 1, rho))
    return tuple(_read_only(a) for a in (w, rho, drho, *parts))


def assemble_h2_form(mesh: Mesh, k: float) -> np.ndarray:
    """Band of integral(v'' w'' + 2 k^2 v' w' + k^4 v w); positive definite."""
    if not k > 0.0:
        raise ValueError("wavenumber k must be strictly positive")
    s0, s1, s2 = h2_parts(mesh)
    return s2 + 2.0 * k**2 * s1 + k**4 * s0


def assemble_weighted_gradient_form(mesh: Mesh, profile: DensityProfile,
                                    k: float) -> np.ndarray:
    """Band of integral rho0 (k^2 v w + v' w'); positive definite."""
    if not k > 0.0:
        raise ValueError("wavenumber k must be strictly positive")
    r0, r1 = layer_forms(mesh, profile)[4:]
    return k**2 * r0 + r1


def assemble_weighted_mass(mesh: Mesh, profile: DensityProfile) -> np.ndarray:
    """Band of WMASS from ``layer_forms``, read-only.  Nothing in the
    package calls it: it stays because ``perfbench/tracer.py`` wraps it by
    name, and can go once the tracer names its layers by role."""
    return layer_forms(mesh, profile)[3]


def tau_decay(k: float, lam: float, rho_minus: float, mu: float) -> float:
    """Decay rate of the slower outer branch: sqrt(k^2 + lam * rho_minus / mu)."""
    return float(np.sqrt(k**2 + lam * rho_minus / mu))


def assemble_boundary_forms(k: float, lam: float, params: PhysicalParams,
                            profile: DensityProfile
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Surface form BV0 and matching-depth form BVA, each of rank <= 2, as
    4x4 blocks on ``ENDPOINT_DOFS`` (they vanish off those DOFs)."""
    if not lam > 0.0:
        raise ValueError("rate lam must be strictly positive")
    if not k > 0.0:
        raise ValueError("wavenumber k must be strictly positive")
    mu, g = params.mu, params.g
    tau = tau_decay(k, lam, profile.rho_minus, mu)
    # block rows and columns: (value, slope) at -a, then (value, slope) at 0
    bv0 = np.zeros((4, 4))
    bv0[3, 2] = bv0[2, 3] = mu * k**2
    bv0[2, 2] = g * k**2 * profile.rho_plus / lam

    bva = np.zeros((4, 4))
    bva[0, 0] = mu * k * tau * (k + tau)
    bva[1, 0] = bva[0, 1] = -mu * k * tau
    bva[1, 1] = mu * (k + tau)
    return bv0, bva


def boundary_quotient_form(k: float) -> np.ndarray:
    """Endpoint quotient numerator k^2 (v'w + vw')(0) - k^2 (v'w + vw')(-a),
    as a 4x4 block of rank exactly 4 on ``ENDPOINT_DOFS``."""
    if not k > 0.0:
        raise ValueError("wavenumber k must be strictly positive")
    q = np.zeros((4, 4))
    q[3, 2] = q[2, 3] = k**2
    q[1, 0] = q[0, 1] = -k**2
    return q


# -- coefficient-vector evaluation -------------------------------------------

class HermiteFunction:
    """A function in the C1 element space, evaluated from its DOF vector."""

    def __init__(self, mesh: Mesh, coeffs: np.ndarray):
        if coeffs.shape != (mesh.dof_count,):
            raise ValueError("coefficient vector does not match mesh DOF count")
        self.mesh = mesh
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, x, deriv: int = 0):
        """Value (or x-derivative up to order 3) at points of [-a, 0]."""
        if deriv not in (0, 1, 2, 3):
            raise ValueError("deriv must be 0..3")
        mesh = self.mesh
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        slack = 1e-12 * mesh.a
        if np.any(x < -mesh.a - slack) or np.any(x > slack):
            raise ValueError("evaluation point outside [-a, 0]")
        elem = np.clip(((x + mesh.a) / mesh.h).astype(int), 0,
                       mesh.n_elements - 1)
        xi = (x - mesh.nodes[elem]) / mesh.h
        n = hermite_shapes(xi, mesh.h)[deriv]
        dofs = mesh.element_dofs[elem]
        out = np.einsum("pi,ip->p", self.coeffs[dofs], n)
        return float(out[0]) if scalar else out

    def peak(self) -> float:
        """Largest-magnitude value, with its sign, of 8 samples per element."""
        sub = np.linspace(0.0, 1.0, 9)
        pts = (self.mesh.nodes[:-1, None] + self.mesh.h * sub[None, :]).ravel()
        vals = self(np.minimum(pts, 0.0))  # nodes + h may overshoot 0
        return float(vals[np.argmax(np.abs(vals))])
