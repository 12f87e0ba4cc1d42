import dataclasses
import math

import numpy as np
import pytest

import rtspec as rt
from rtspec.discretization import quadrature
from rtspec.errors import ConfigError
from rtspec.verify import (
    CheckReport,
    TrialFunction,
    appendix_d_suite,
    convergence_suite,
    monotone_suite,
    run_suite,
    tail_integrals,
)


def test_check_report_pass_rule():
    assert CheckReport.make("x", 1e-7, 1e-6).passed
    assert not CheckReport.make("x", 2e-6, 1e-6).passed
    line = CheckReport.make("x", 2e-6, 1e-6).line()
    assert "FAIL" in line


def test_tail_integrals_against_quadrature():
    import scipy.integrate
    c1, c2, alpha, beta, k = 0.8, -0.4, 1.0, 1.7, 1.0

    def phi(s, d=0):
        return c1 * alpha**d * np.exp(alpha * s) + c2 * beta**d * np.exp(beta * s)

    mass, grad, stress = tail_integrals(c1, c2, alpha, beta, k)
    q = scipy.integrate.quad
    assert mass == pytest.approx(q(lambda s: phi(s) ** 2, -np.inf, 0.0)[0],
                                 rel=1e-10)
    assert grad == pytest.approx(q(lambda s: phi(s, 1) ** 2, -np.inf, 0.0)[0],
                                 rel=1e-10)
    assert stress == pytest.approx(
        q(lambda s: (phi(s, 2) + k * k * phi(s)) ** 2, -np.inf, 0.0)[0],
        rel=1e-10)


def test_energy_identity_converged_mode(mode128):
    rep = rt.energy_identity_residual(mode128)
    assert rep.passed
    assert rep.residual <= 1e-5


def test_energy_identity_detects_wrong_rate(mode128):
    bad = dataclasses.replace(mode128, lambda_n=1.01 * mode128.lambda_n)
    rep = rt.energy_identity_residual(bad)
    assert rep.residual >= 1e-3


def test_fixed_point_residual_contract(profile, params, mesh64):
    rec = rt.solve_lambda_n(mesh64, profile, params, 1.0, 1)
    rep = rt.fixed_point_residual(mesh64, profile, params, rec)
    assert rep.passed
    tampered = dataclasses.replace(rec, lambda_n=1.1 * rec.lambda_n)
    rep_bad = rt.fixed_point_residual(mesh64, profile, params, tampered)
    assert rep_bad.residual > 1e-8


def test_fixed_point_residual_vacuous_for_stable(degenerate_profile, params):
    mesh = rt.build_mesh(1.0, 16)
    rec = rt.solve_lambda_n(mesh, degenerate_profile, params, 1.0, 1)
    rep = rt.fixed_point_residual(mesh, degenerate_profile, params, rec)
    assert rep.passed
    assert rep.metadata.get("vacuous")


def test_monotonicity_probe_contracts(profile, params, mesh64, growth_cap):
    # single-point grid is a vacuous pass
    rep = rt.monotonicity_probe(mesh64, profile, params, 1.0, 1, [0.1])
    assert rep.passed and rep.metadata.get("vacuous")
    # the rate ratio lam/gamma_n increases on the full range
    grid = np.geomspace(1e-3, growth_cap, 20)
    rep = rt.monotonicity_probe(mesh64, profile, params, 1.0, 1, grid,
                                "rate-ratio")
    assert rep.passed
    # gamma itself decreases only near the top of the rate interval; the
    # probe reports the increase on the full range honestly
    rep_full = rt.monotonicity_probe(mesh64, profile, params, 1.0, 1, grid,
                                     "gamma")
    assert not rep_full.passed
    top = np.linspace(0.97 * growth_cap, growth_cap, 6)
    rep_top = rt.monotonicity_probe(mesh64, profile, params, 1.0, 1, top,
                                    "gamma")
    assert rep_top.passed
    with pytest.raises(ValueError):
        rt.monotonicity_probe(mesh64, profile, params, 1.0, 1, [0.2, 0.1])
    with pytest.raises(ValueError):
        rt.monotonicity_probe(mesh64, profile, params, 1.0, 1, grid, "bogus")


def test_variational_inequality_zero_trial(profile, params, mesh64):
    trial = TrialFunction(mesh=mesh64, coeffs=np.zeros(mesh64.dof_count),
                          A1=0.0, A2=0.0, tau=2.0)
    rep = rt.check_variational_inequality(0.5, trial, 1.0, profile, params)
    assert rep.passed
    assert rep.residual == 0.0


def test_random_trials_are_seeded(mesh64):
    a = rt.random_trial(mesh64, 1.0, np.random.default_rng(42))
    b = rt.random_trial(mesh64, 1.0, np.random.default_rng(42))
    assert np.array_equal(a.coeffs, b.coeffs)
    # C1 tail gluing baked into the left DOFs
    assert a.coeffs[1] == pytest.approx(1.0 * a.coeffs[0], rel=1e-15)


def test_random_trials_respect_bound(profile, params, mesh64, lattice_max):
    rng = np.random.default_rng(123)
    for _ in range(50):
        trial = rt.random_trial(mesh64, 1.0, rng)
        rep = rt.check_variational_inequality(lattice_max.Lambda, trial, 1.0,
                                              profile, params)
        assert rep.passed


def test_inequality_tight_at_argmax(profile, params, mesh64, lattice_max):
    mode = rt.build_normal_mode(mesh64, profile, params,
                                (lattice_max.argmax_k, 0.0), 1)
    rep = rt.check_variational_inequality(lattice_max.Lambda,
                                          TrialFunction.from_mode(mode),
                                          lattice_max.argmax_k, profile, params)
    assert rep.passed
    assert -rep.residual <= 1e-4  # the two sides nearly coincide


def _pointwise_inequality_residual(Lambda, trial, k, profile, params):
    """The bound's residual with the layer norms evaluated point by point."""
    pts, wts = quadrature(trial.mesh)
    x, w = pts.ravel(), wts.ravel()
    f = rt.HermiteFunction(trial.mesh, trial.coeffs)
    v, dv, ddv = f(x), f(x, 1), f(x, 2)
    strat_mass = float(w @ (profile.drho0(x) * v * v))
    weighted = float(w @ (profile.rho0(x) * (v * v + dv * dv / k**2)))
    stress = float(w @ ((ddv / k + k * v) ** 2 + 4.0 * dv * dv))
    mass_out, grad_out, stress_out = tail_integrals(trial.A1, trial.A2, k,
                                                    trial.tau, k)
    weighted += profile.rho_minus * (mass_out + grad_out / k**2)
    stress += stress_out / k**2 + 4.0 * grad_out
    lhs = params.g * strat_mass
    rhs = (params.g * profile.rho_plus * trial.coeffs[-2] ** 2
           + Lambda**2 * weighted + Lambda * params.mu * stress)
    return (lhs - rhs) / abs(rhs)


def test_inequality_cache_matches_pointwise_formula(profile, params, mesh64,
                                                    lattice_max):
    Lambda, k_star = lattice_max.Lambda, lattice_max.argmax_k
    cache = rt.FormCache(mesh64, profile)
    rng = np.random.default_rng(7)
    cases = [(rt.random_trial(mesh64, 1.0, rng), 1.0) for _ in range(20)]
    mode = rt.build_normal_mode(mesh64, profile, params, (k_star, 0.0), 1)
    cases.append((TrialFunction.from_mode(mode), k_star))
    for trial, k in cases:
        shared = rt.check_variational_inequality(Lambda, trial, k, profile,
                                                 params, cache=cache)
        fresh = rt.check_variational_inequality(Lambda, trial, k, profile,
                                                params)
        assert shared.residual == fresh.residual
        # the residual is relative to the bound's right-hand side, so this
        # compares both sides to 1e-12 of their scale
        expected = _pointwise_inequality_residual(Lambda, trial, k, profile,
                                                  params)
        assert abs(shared.residual - expected) <= 1e-12 * max(1.0,
                                                               abs(expected))


def test_appendix_d_suite_passes():
    reports = appendix_d_suite()
    assert len(reports) == 3
    assert all(rep.passed for rep in reports)


def test_convergence_suite_passes(profile, params):
    reports = convergence_suite(profile, params)
    assert all(rep.passed for rep in reports)


def test_monotone_suite_shape(profile, params):
    reports = monotone_suite(profile, params, n_branches=2, n_elements=32)
    names = [rep.name for rep in reports]
    assert names == ["monotone-gamma", "monotone-rate-ratio"] * 2
    ratio_reports = [rep for rep in reports if rep.name == "monotone-rate-ratio"]
    assert all(rep.passed for rep in ratio_reports)


def test_run_suite_validation(profile, params):
    with pytest.raises(ConfigError):
        run_suite("bogus", profile, params)


def test_suites_reuse_solved_records(profile, params, monkeypatch):
    # the tightness mode is built from lambda_max's own argmax record, so a
    # non-default tolerance gives it exactly the rate Lambda
    import rtspec.modes
    import rtspec.verify

    modes, rebuilt = [], []
    build = rtspec.verify.build_normal_mode

    def recorded_build(*args, **kwargs):
        mode = build(*args, **kwargs)
        modes.append(mode)
        return mode

    def counted_solve(*args, **kwargs):
        rebuilt.append(args)
        return rt.solve_lambda_n(*args, **kwargs)

    monkeypatch.setattr(rtspec.verify, "build_normal_mode", recorded_build)
    monkeypatch.setattr(rtspec.modes, "solve_lambda_n", counted_solve)
    loose = rt.SolverSettings(tol_rel=1e-6)
    mesh = rt.build_mesh(profile.a, 32)
    result = rt.lambda_max(mesh, profile, params, 2.0, loose)
    reports = rtspec.verify.inequality_suite(profile, params, n_trials=2,
                                             n_wavenumbers=1, Kmax=2.0,
                                             n_elements=32, settings=loose)
    assert reports[-1].name == "inequality-tightness"
    assert modes[-1].lambda_n == result.Lambda
    convergence_suite(profile, params, settings=loose)
    assert len(modes) == 4
    assert rebuilt == []
