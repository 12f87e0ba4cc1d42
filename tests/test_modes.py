import dataclasses
import decimal
import inspect
import math

import numpy as np
import pytest

import rtspec as rt
from rtspec.discretization import quadrature, tau_decay
from rtspec.errors import NoUnstableBranchError
from rtspec.modes import DEFAULT_DOMAIN_FACTOR, MODE_COLUMNS, HorizontalAmplitude


def divergence_residual(mode):
    """Max |k1 psi + k2 varphi + phi'| at layer quadrature nodes, and its scale."""
    x, _ = quadrature(mode.mesh)
    k1, k2 = mode.k_vec
    div = k1 * mode.psi(x) + k2 * mode.varphi(x) + mode.phi(x, 1)
    scale = np.max(np.abs(k1 * mode.psi(x)) + np.abs(k2 * mode.varphi(x))
                   + np.abs(mode.phi(x, 1)))
    return np.abs(div).max(), scale


def test_outer_coefficients_pure_branches():
    k, tau = 1.3, 2.1
    assert rt.outer_coefficients(1.0, k, k, tau) == pytest.approx((1.0, 0.0))
    assert rt.outer_coefficients(1.0, tau, k, tau) == pytest.approx((0.0, 1.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        v, d = rng.standard_normal(2)
        a1, a2 = rt.outer_coefficients(v, d, k, tau)
        assert a1 + a2 == pytest.approx(v, abs=1e-14)
        assert k * a1 + tau * a2 == pytest.approx(d, abs=1e-14)
    with pytest.raises(ValueError):
        rt.outer_coefficients(1.0, 1.0, 1.0, 1.0)
    # a half-line function's tail divides by tau - k wherever it is read
    mesh = rt.build_mesh(1.0, 4)
    with pytest.raises(ValueError):
        rt.HalfLineFunction(mesh=mesh, coeffs=np.ones(mesh.dof_count), k=k,
                            tau=k)


@pytest.mark.parametrize("x", [-3.0, -0.5, [-3.0, -0.5]])
def test_half_line_function_rejects_bad_derivative_orders(x):
    # below the layer too, where only the tail is evaluated
    mesh = rt.build_mesh(1.0, 4)
    coeffs = np.zeros(mesh.dof_count)
    coeffs[:2] = 1.0, 3.0
    f = rt.HalfLineFunction(mesh=mesh, coeffs=coeffs, k=1.0, tau=2.0)
    for deriv in (-1, 4, 1.5):
        with pytest.raises(ValueError, match="deriv must be 0..3"):
            f(x, deriv)
    assert np.all(np.isfinite(f(x, 3)))


def test_mode_basic_closures(mode64):
    mode = mode64
    coeffs = mode.phi.coeffs
    # surface amplitude closure is definitional
    assert mode.nu * mode.lambda_n == pytest.approx(coeffs[-2], abs=1e-14)
    # the tail is derived from the DOFs and matches them exactly
    a1, a2 = mode.phi.tail
    assert (mode.phi.k, mode.phi.mesh.a) == (mode.k, mode.profile.a)
    assert a1 + a2 == pytest.approx(coeffs[0], abs=1e-12)
    assert mode.k * a1 + mode.phi.tau * a2 == pytest.approx(coeffs[1],
                                                            abs=1e-12)
    # normalization
    assert abs(rt.HermiteFunction(mode.mesh, coeffs).peak()) == pytest.approx(
        1.0, rel=1e-12)
    # density amplitude vanishes outside the layer, matches the closure inside
    x_out = np.array([-1.5, -3.0, -8.0])
    assert np.abs(mode.omega(x_out)).max() == 0.0
    x_in = np.linspace(-0.9, -0.1, 7)
    expected = -mode.profile.drho0(x_in) * mode.phi(x_in) / mode.lambda_n
    assert np.allclose(mode.omega(x_in), expected, rtol=1e-13)


def test_phi_continuity_across_matching_depth(mode64):
    a = mode64.profile.a
    below, above = -a - 1e-10, -a + 1e-10
    assert mode64.phi(below) == pytest.approx(mode64.phi(above), abs=1e-8)
    assert mode64.phi(below, 1) == pytest.approx(mode64.phi(above, 1), abs=1e-7)


def test_surface_moment_condition(mode128):
    # mu (k^2 phi(0) + phi''(0)) = 0 is built into the trial space, so it
    # holds to rounding; the tolerance is the one criterion 9a states
    mode = mode128
    mu, k = mode.params.mu, mode.k
    phi0, ddphi0 = mode.phi(0.0), mode.phi(0.0, 2)
    residual = abs(mu * (k * k * phi0 + ddphi0))
    scale = mu * (k * k * abs(phi0) + abs(ddphi0))
    assert residual <= 1e-5 * scale


def test_neumann_data_exact(profile, params, mesh64):
    mode = rt.build_normal_mode(mesh64, profile, params, (0.6, 0.8), 1)
    phi0 = mode.phi(0.0)
    scale = mode.k * abs(phi0)
    assert abs(mode.psi(0.0, 1) - 0.6 * phi0) <= 1e-8 * scale
    assert abs(mode.varphi(0.0, 1) - 0.8 * phi0) <= 1e-8 * scale


def test_divergence_identity_tracks_natural_bc(profile, params):
    # the horizontal amplitudes come from the divergence identity, and
    # their Neumann data from the surface moment condition of the trial
    # space: both hold to rounding at every mesh, checked at the 1e-8 that
    # criteria 9a (Neumann) and 9b (divergence) state
    for n in (64, 128):
        mesh = rt.build_mesh(1.0, n)
        mode = rt.build_normal_mode(mesh, profile, params, (0.6, 0.8), 1)
        resid, scale = divergence_residual(mode)
        assert resid <= 1e-8 * scale
        k, phi0, ddphi0 = mode.k, mode.phi(0.0), mode.phi(0.0, 2)
        moment = abs(k * k * phi0 + ddphi0)
        assert moment <= 1e-8 * (k * k * abs(phi0) + abs(ddphi0))


def test_zero_component_gives_zero_velocity(profile, params, mesh64):
    mode = rt.build_normal_mode(mesh64, profile, params, (1.0, 0.0), 1)
    x = np.linspace(-1.0, 0.0, 50)
    assert np.abs(mode.varphi(x)).max() <= 1e-12


@pytest.mark.parametrize("factor", [DEFAULT_DOMAIN_FACTOR,
                                    2 * DEFAULT_DOMAIN_FACTOR])
def test_mode_table_depth_is_set_by_domain_factor(mode64, factor):
    # the sampled depth is a + factor/k rounded up to whole elements; the
    # profiles are closed forms, so the layer rows are the mode's own values
    header, rows = rt.mode_table(mode64, domain_factor=factor)
    h, a = mode64.mesh.h, mode64.mesh.a
    assert rows[0, 0] == -(a + max(2, math.ceil(factor / (mode64.k * h))) * h)
    assert header == rt.mode_table(mode64)[0]
    layer = rows[:, 0] >= -a
    assert layer.sum() >= 20
    np.testing.assert_array_equal(rows[layer, 3], mode64.psi(rows[layer, 0]))


def test_mode_depth_is_not_a_mode_parameter():
    assert "domain_factor" not in inspect.signature(
        rt.build_normal_mode).parameters
    assert list(inspect.signature(rt.horizontal_velocity).parameters) == [
        "phi", "k_component", "k"]
    fields = {f.name for f in dataclasses.fields(HorizontalAmplitude)}
    assert fields == {"phi", "factor"}


def _exact_tail(p, q, k, tau, s, deriv):
    """Derivative ``deriv`` of p e^{ks} + q (e^{tau s} - e^{ks}) / (tau - k)
    in 40-digit decimal arithmetic from the floats given."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        p, q, k, tau, s = map(decimal.Decimal, (p, q, k, tau, s))
        ek, et = (k * s).exp(), (tau * s).exp()
        value = p * k**deriv * ek + q * (tau**deriv * et - k**deriv * ek) / (
            tau - k)
        return float(value)


def test_tail_is_exact_as_tau_nears_k():
    # slow growth and strong viscosity: tau - k = 3.4e-7, and the tail
    # coefficients A1 = -A2 = 3.3e6 would cancel to 4e-10 here
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=1.1, a=1.0)
    params = rt.PhysicalParams(mu=20.0, g=0.04)
    mode = rt.build_normal_mode(rt.build_mesh(1.0, 64), profile, params,
                                (1.0, 0.0), 1)
    phi, k = mode.phi, mode.k
    assert phi.tau - k < 1e-6
    p, q = phi.coeffs[0], phi.coeffs[1] - k * phi.coeffs[0]
    x = np.linspace(-11.0, -1.001, 25)
    for deriv in (0, 1):
        exact = [_exact_tail(p, q, k, phi.tau, xi + 1.0, deriv) for xi in x]
        assert np.abs(phi(x, deriv) - exact).max() <= 1e-13


def test_pressure_uniform_profile_oracle(params):
    # direct substitution: uniform density and a pure e^{k(x+a)} profile give
    # pressure -(lam rho/k) e^{k(x+a)}; the cubic third derivative is
    # second-order accurate at element midpoints, first-order elsewhere
    prof = rt.DensityProfile(1.0, 1.0, 1.0, "bump")
    k, lam = 1.0, 0.3
    errs = {}
    for n in (64, 128):
        mesh = rt.build_mesh(1.0, n)
        coeffs = np.empty(mesh.dof_count)
        coeffs[0::2] = np.exp(k * (mesh.nodes + 1.0))
        coeffs[1::2] = k * np.exp(k * (mesh.nodes + 1.0))
        f = rt.HermiteFunction(mesh, coeffs)
        mids = mesh.nodes[:-1] + mesh.h / 2
        everywhere = np.linspace(-1.0, 0.0, 401)
        for label, xs in (("mid", mids), ("all", everywhere)):
            num = -(lam * prof.rho0(xs) * f(xs, 1)
                    + params.mu * (k * k * f(xs, 1) - f(xs, 3))) / k**2
            exact = -(lam * prof.rho_minus / k) * np.exp(k * (xs + 1.0))
            errs[label, n] = np.abs(num - exact).max() / np.abs(exact).max()
    assert errs["mid", 64] <= 1e-4
    assert errs["all", 64] <= 5e-2
    assert errs["mid", 128] <= 0.3 * errs["mid", 64]
    assert errs["all", 128] <= 0.65 * errs["all", 64]


def test_pressure_outer_form(profile, params, mesh64, mode64):
    # below the layer the pressure carries only the slow k-branch
    mode = mode64
    x = np.array([-1.5, -2.5, -4.0])
    expected = -(mode.lambda_n * profile.rho_minus / mode.k) * mode.phi.tail[0] \
        * np.exp(mode.k * (x + profile.a))
    assert np.allclose(mode.pressure(x), expected, rtol=1e-13)
    # pure fast-branch matching data, phi'(-a) = tau phi(-a), gives A1 = 0
    # and leaves the outer pressure identically zero
    coeffs = mode.phi.coeffs.copy()
    coeffs[1] = mode.phi.tau * coeffs[0]
    tweaked = dataclasses.replace(
        mode, phi=dataclasses.replace(mode.phi, coeffs=coeffs))
    assert tweaked.phi.tail[0] == 0.0
    assert np.abs(tweaked.pressure(x)).max() == 0.0


def test_pressure_evaluates_each_derivative_once(mode64, monkeypatch):
    # the layer pressure reads the first and third derivatives once each
    derivs = []
    call = rt.HalfLineFunction.__call__

    def counted(self, x, deriv=0):
        derivs.append(deriv)
        return call(self, x, deriv)

    monkeypatch.setattr(rt.HalfLineFunction, "__call__", counted)
    mode64.pressure(np.linspace(-1.0, 0.0, 9))
    assert sorted(derivs) == [1, 3]


def test_pressure_interface_jump_shrinks(profile, params):
    jumps = {}
    for n in (64, 128):
        mesh = rt.build_mesh(1.0, n)
        mode = rt.build_normal_mode(mesh, profile, params, (1.0, 0.0), 1)
        x = np.linspace(-1.0, 0.0, 301)
        scale = np.abs(mode.pressure(x)).max()
        jumps[n] = abs(mode.pressure(-1.0 + 1e-12) - mode.pressure(-1.0 - 1e-12)) / scale
    # first-order accurate third derivative at the element edge
    assert jumps[64] <= 1e-2
    assert 0.35 <= jumps[128] / jumps[64] <= 0.65


def test_build_normal_mode_error_paths(degenerate_profile, params, mesh64,
                                       profile):
    with pytest.raises(ValueError):
        rt.build_normal_mode(mesh64, profile, params, (0.0, 0.0), 1)
    with pytest.raises(NoUnstableBranchError):
        mesh = rt.build_mesh(1.0, 16)
        rt.build_normal_mode(mesh, degenerate_profile, params, (1.0, 0.0), 1)


def test_evaluate_field(mode64):
    mode = mode64
    lam = mode.lambda_n
    # cosine zero kills the vertical velocity
    s = rt.evaluate_field(mode, 0.0, (math.pi / 2, 0.0, -0.5))
    assert s.u3 == pytest.approx(0.0, abs=1e-12)
    # exponential time scaling, componentwise
    p = (0.3, 0.4, -0.2)
    s0 = rt.evaluate_field(mode, 0.0, p)
    s1 = rt.evaluate_field(mode, 1.5, p)
    for name in ("zeta", "u1", "u2", "u3", "q", "eta"):
        assert getattr(s1, name) == pytest.approx(
            math.exp(1.5 * lam) * getattr(s0, name), rel=1e-12)
    # surface kinematics: d/dt eta = u3 on the surface, i.e. lam nu = phi(0)
    assert lam * mode.nu == pytest.approx(mode.phi(0.0), abs=1e-14)
    surf = rt.evaluate_field(mode, 0.7, (0.3, 0.4, 0.0))
    assert lam * surf.eta == pytest.approx(surf.u3, rel=1e-12)
    with pytest.raises(ValueError):
        rt.evaluate_field(mode, 0.0, (0.0, 0.0, 0.1))


def test_field_below_sampled_depth_uses_closed_form(mode64):
    # the horizontal amplitudes are -k_c phi'/k^2 on the whole half line,
    # also below the sampled depth of psi
    lo = rt.mode_table(mode64)[1][0, 0]
    k1 = mode64.k_vec[0]
    for x3 in (lo - 1.0, lo - 5.0):
        sample = rt.evaluate_field(mode64, 0.0, (0.2, 0.0, x3))
        expected = math.sin(k1 * 0.2) * (-k1 / mode64.k**2) * mode64.phi(x3, 1)
        assert sample.u1 == pytest.approx(expected, rel=1e-12)


def test_mode_table_format(mode64):
    header, rows = rt.mode_table(mode64, samples=100)
    assert set(header) == {"k1", "k2", "n", "lambda", "A1", "A2",
                           "tau_minus", "nu"}
    assert rows.shape == (100, len(MODE_COLUMNS))
    assert rows[0, 0] == rt.mode_table(mode64)[1][0, 0]
    assert rows[-1, 0] == 0.0


def test_poisson_extension_pointwise():
    series = rt.SurfaceSeries(L1=1.0, L2=1.0,
                              terms=(((1.0, 0.0), 0.7 + 0.0j),))
    x_h = (0.3, 0.8)
    surface = rt.poisson_extend(series, (*x_h, 0.0))
    assert surface == pytest.approx(series.eval(*x_h), rel=1e-14)
    # single-mode decay bound
    for depth in (-0.5, -2.0, -7.0):
        val = rt.poisson_extend(series, (*x_h, depth))
        assert abs(val) <= math.exp(depth) * 0.7 + 1e-15
    with pytest.raises(ValueError):
        rt.poisson_extend(series, (0.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        rt.SurfaceSeries(L1=1.0, L2=1.0, terms=(((0.0, 0.0), 1.0 + 0.0j),))


def test_poisson_gradient_identity():
    # closed-form oracle: gradient mass equals |k| times the surface mass
    for k_vec, amp in (((1.0, 0.0), 0.9), ((2.0, 1.0), 0.4 + 0.3j)):
        series = rt.SurfaceSeries(L1=1.0, L2=1.0, terms=((k_vec, amp),))
        grad = rt.poisson_gradient_l2(series)
        expected = math.hypot(*k_vec) * rt.surface_l2(series)
        assert grad == pytest.approx(expected, rel=1e-10)


def test_poisson_gradient_additive_over_modes():
    terms = (((1.0, 0.0), 0.5 + 0.0j), ((0.0, 2.0), 0.25 - 0.1j))
    series = rt.SurfaceSeries(L1=1.0, L2=1.0, terms=terms)
    parts = [rt.poisson_gradient_l2(rt.SurfaceSeries(1.0, 1.0, (t,)))
             for t in terms]
    assert rt.poisson_gradient_l2(series) == pytest.approx(sum(parts),
                                                           rel=1e-12)
