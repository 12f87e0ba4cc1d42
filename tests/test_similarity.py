"""The three similarity laws of the linearized equations, checked without
an oracle.

Scaling the densities and mu by c leaves every rate unchanged; scaling a
by alpha, k by 1/alpha, g by alpha and mu by alpha^2 leaves every rate
unchanged; scaling g by 1/beta^2 and mu by 1/beta divides every rate by
beta.  The mesh scales with a, so the discrete problem obeys the laws up
to rounding, whatever its discretization error; a unit error in an
endpoint form, the surface weight, the tail's tau, the pressure or the
mode-file header breaks them.  The scaled runs go through every
eigensolve of the package: the sweep's banded factorizations, warm
solves and dense subset and full solves, the mode's full solve and the
two eigenvalue-only checks of ``verify``.

Factors are fixed in advance, none a power of 2 (those scale most
floating-point steps exactly).  Bounds, from a 64-element run of these
factors with 11-40x margin: rates 1e-12 relative (measured at most
5.5e-14); each mode-file column 1e-9 of its largest value (6.3e-11) and
each header value 1e-9 relative (2.5e-11); the ``verify`` eigenvalues
1e-7 relative (3.2e-9, the eps cond(H2) noise of the endpoint quotient).
"""

from dataclasses import replace

import numpy as np
import pytest

import rtspec as rt
from rtspec.modes import MODE_COLUMNS

K_VALUES = np.geomspace(0.25, 4.0, 5)
N_MAX = 4
K_VEC, MODE_N = (0.6, 0.8), 2
ELEMENTS = 64
RATE_RTOL = 1e-12
COLUMN_RTOL = 1e-9
HEADER_RTOL = 1e-9
VERIFY_RTOL = 1e-7


def scaled(group: str, s: float, profile, params):
    """The problem scaled by one group's factor s, and how its outputs
    scale: (profile, params, k factor, rate factor, column weights,
    header weights); unnamed columns and header values do not change."""
    if group == "density":
        return (replace(profile, rho_minus=s * profile.rho_minus,
                        rho_plus=s * profile.rho_plus),
                replace(params, mu=s * params.mu), 1.0, 1.0,
                {"pi": s, "omega": s}, {})
    if group == "length":
        return (replace(profile, a=s * profile.a),
                replace(params, g=s * params.g, mu=s * s * params.mu),
                1.0 / s, 1.0,
                {"x3": s, "pi": s, "dphi": 1.0 / s, "omega": 1.0 / s},
                {"k1": 1.0 / s, "k2": 1.0 / s, "tau_minus": 1.0 / s})
    assert group == "time"
    return (profile, replace(params, g=params.g / s**2, mu=params.mu / s),
            1.0, 1.0 / s, {"pi": 1.0 / s, "omega": s},
            {"lambda": 1.0 / s, "nu": s})


def outputs(profile, params, k_factor, rate_factor):
    """Sweep rates, mode file, and the coercivity ratio (at rate 0.3) and
    endpoint quotient values at k = 1, each at the scaled k and rate."""
    mesh = rt.build_mesh(profile.a, ELEMENTS)
    records = rt.dispersion(mesh, profile, params, K_VALUES * k_factor, N_MAX)
    assert all(r.converged for r in records)
    mode = rt.build_normal_mode(mesh, profile, params,
                                (K_VEC[0] * k_factor, K_VEC[1] * k_factor),
                                MODE_N)
    header, rows = rt.mode_table(mode)
    ratio = rt.coercivity_ratio(mesh, profile, params, k_factor,
                                0.3 * rate_factor)
    return (np.array([r.lambda_n for r in records]), header, rows, ratio,
            rt.boundary_quotient_spectrum(mesh, k_factor))


@pytest.fixture(scope="module")
def unscaled(profile, params):
    return outputs(profile, params, 1.0, 1.0)


@pytest.mark.parametrize("group, factor",
                         [("density", 7.0), ("length", 3.0), ("time", 0.3)])
def test_similarity_law(group, factor, profile, params, unscaled):
    profile_s, params_s, k_factor, rate_factor, columns, header_weights = (
        scaled(group, factor, profile, params))
    rates, header, rows, ratio, quotient = outputs(profile_s, params_s,
                                                   k_factor, rate_factor)
    rates0, header0, rows0, ratio0, quotient0 = unscaled

    assert np.abs(rates / (rates0 * rate_factor) - 1.0).max() <= RATE_RTOL
    expected = rows0 * np.array([columns.get(c, 1.0) for c in MODE_COLUMNS])
    defect = np.abs(rows - expected).max(axis=0)
    assert (defect <= COLUMN_RTOL * np.abs(expected).max(axis=0)).all(), (
        dict(zip(MODE_COLUMNS, defect)))
    assert header.keys() == header0.keys()
    for key, value in header0.items():
        assert header[key] == pytest.approx(
            value * header_weights.get(key, 1.0), rel=HEADER_RTOL, abs=0.0), key
    assert ratio == pytest.approx(ratio0, rel=VERIFY_RTOL, abs=0.0)
    assert quotient.shape == quotient0.shape
    assert np.abs(quotient / quotient0 - 1.0).max() <= VERIFY_RTOL
