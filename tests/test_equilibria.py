import math

import numpy as np
import pytest
import scipy.integrate

import rtspec as rt
from rtspec import equilibria
from rtspec.errors import ConfigError


@pytest.mark.parametrize("kind", ["bump", "quintic"])
def test_plateau_and_endpoint_values(kind):
    p = rt.DensityProfile(1.0, 2.0, 1.0, kind)
    assert p.rho0(-3.0) == 1.0
    assert p.rho0(-1.0) == pytest.approx(1.0, rel=1e-12)
    assert p.rho0(0.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("kind", ["bump", "quintic"])
def test_midpoint_symmetry(kind):
    # both derivative shapes are symmetric about -a/2
    p = rt.DensityProfile(1.0, 2.0, 1.0, kind)
    assert p.rho0(-0.5) == pytest.approx(1.5, abs=1e-13)


def test_domain_error_above_surface(profile):
    with pytest.raises(ValueError):
        profile.rho0(0.5)
    with pytest.raises(ValueError):
        profile.drho0(np.array([-0.5, 1e-9]))


def test_gradient_support(profile):
    assert profile.drho0(-2.0) == 0.0
    assert profile.drho0(-1.0) == 0.0
    assert profile.drho0(0.0) == 0.0
    x = np.linspace(-0.999, -0.001, 101)
    assert np.all(profile.drho0(x) > 0.0)


@pytest.mark.parametrize("kind", ["bump", "quintic"])
def test_gradient_integral_matches_density_jump(kind):
    p = rt.DensityProfile(1.0, 2.5, 1.5, kind)
    val, err = scipy.integrate.quad(lambda x: p.drho0(x), -p.a, 0.0,
                                    epsabs=1e-13, limit=200)
    assert val == pytest.approx(p.rho_plus - p.rho_minus, abs=1e-10)


def test_bump_flat_at_support_edge(profile):
    # all one-sided difference quotients vanish at the C-infinity edge
    for h in (1e-2, 1e-3, 1e-4):
        assert profile.drho0(-1.0 + h) / h < 1e-8


def test_bump_cdf_against_independent_quadrature(profile):
    # composite 200-point rule on 16 panels: nothing shared with the
    # profile's internal 2048-panel / 16-point tables
    t, w = np.polynomial.legendre.leggauss(200)

    def reference(x):
        edges = np.linspace(-1.0, x, 17)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            total += half * np.dot(w, profile.drho0(mid + half * t))
        return total

    rng = np.random.default_rng(7)
    for x in rng.uniform(-1.0, 0.0, 8):
        assert profile.rho0(x) - 1.0 == pytest.approx(reference(x), abs=1e-13)


def test_bump_table_is_one_per_process(profile):
    # the table reads no profile parameter: unequal profiles share it,
    # and no profile holds a copy
    other = rt.DensityProfile(rho_minus=2.0, rho_plus=5.0, a=3.0)
    assert other != profile
    for p in (profile, other):
        p.rho0(-0.5 * p.a)
        assert not hasattr(p, "_bump_table")
    assert equilibria._bump_table() is equilibria._bump_table()
    assert equilibria._bump_table.cache_info().currsize == 1


def test_nonnegative_gradient_and_monotone_density(profile):
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 0.0, 10_000)
    assert np.all(profile.drho0(x) >= 0.0)
    xs = np.sort(x)
    rho = profile.rho0(xs)
    assert np.all(np.diff(rho) >= -1e-14)


def test_char_length_degenerate(degenerate_profile):
    L0, cap = rt.char_length(degenerate_profile, 1.0)
    assert math.isinf(L0)
    assert cap == 0.0


def test_char_length_gravity_scaling(profile):
    _, cap1 = rt.char_length(profile, 1.0)
    _, cap2 = rt.char_length(profile, 2.0)
    assert cap2 == pytest.approx(math.sqrt(2.0) * cap1, rel=1e-14)


def test_growth_cap_against_trapezoid_oracle(profile):
    # independent route: cumulative trapezoid of drho0 on a dense grid
    x = np.linspace(-1.0, 0.0, 1_000_001)
    d = profile.drho0(x)
    cdf = np.concatenate([[0.0],
                          np.cumsum((d[1:] + d[:-1]) * 0.5 * (x[1] - x[0]))])
    ratio = d / (profile.rho_minus + cdf)
    oracle_cap = math.sqrt(ratio.max())
    _, cap = rt.char_length(profile, 1.0)
    assert cap == pytest.approx(oracle_cap, rel=1e-8)
    assert cap == pytest.approx(1.0932532507, abs=1e-8)


def test_quintic_closed_forms(quintic_profile):
    p = quintic_profile
    t = 0.3
    x = -p.a + t * p.a
    assert p.drho0(x) == pytest.approx(30.0 * t**2 * (1 - t) ** 2 / p.a, rel=1e-13)
    assert p.rho0(x) == pytest.approx(1.0 + t**3 * (6 * t**2 - 15 * t + 10),
                                      rel=1e-13)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        rt.DensityProfile(-1.0, 2.0, 1.0)
    with pytest.raises(ConfigError):
        rt.DensityProfile(2.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        rt.DensityProfile(1.0, 2.0, 0.0)
    with pytest.raises(ConfigError):
        rt.DensityProfile(1.0, 2.0, 1.0, "cubic")
    with pytest.raises(ConfigError):
        rt.PhysicalParams(mu=0.0, g=1.0)
    with pytest.raises(ConfigError):
        rt.PhysicalParams(mu=1.0, g=-2.0)


def _ratio(profile, x):
    return profile.drho0(x) / profile.rho0(x)


def _independent_peak(profile):
    """Dense grid, then golden-section polish of the best cell pair."""
    x = np.linspace(-profile.a, 0.0, 20_001)
    r = _ratio(profile, x)
    i = int(np.argmax(r))
    h = x[1] - x[0]
    lo, hi = x[i] - h, min(x[i] + h, 0.0)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = float(_ratio(profile, c)), float(_ratio(profile, d))
    best = max(float(r[i]), fc, fd)
    for _ in range(80):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = float(_ratio(profile, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = float(_ratio(profile, d))
        best = max(best, fc, fd)
    return best


@pytest.mark.parametrize("kind", ["bump", "quintic"])
@pytest.mark.parametrize("rho_plus", [1.5, 2.0, 3.0])
def test_peak_ratio_is_exact_to_rounding(kind, rho_plus):
    p = rt.DensityProfile(1.0, rho_plus, 1.0, kind)
    peak = p._peak_ratio
    assert peak == pytest.approx(_independent_peak(p), rel=1e-13)
    # a fixed 100,000-point grid only undershoots the maximum
    grid = np.linspace(-p.a, 0.0, 100_000)
    grid_max = max(_ratio(p, part).max() for part in np.array_split(grid, 10))
    assert peak >= grid_max


@pytest.mark.parametrize("kind", ["bump", "quintic"])
def test_peak_search_evaluates_few_points(kind, monkeypatch):
    points = []
    for name in ("rho0", "drho0"):
        original = getattr(rt.DensityProfile, name)

        def counted(self, x3, _original=original, _name=name):
            points.append((_name, np.size(x3)))
            return _original(self, x3)

        monkeypatch.setattr(rt.DensityProfile, name, counted)
    rt.char_length(rt.DensityProfile(1.0, 2.0, 1.0, kind), 1.0)
    for name in ("rho0", "drho0"):
        assert 0 < sum(n for f, n in points if f == name) <= 2000
