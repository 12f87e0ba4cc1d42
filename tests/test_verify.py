import dataclasses
import math

import numpy as np
import pytest

import rtspec as rt
from rtspec import discretization, spectral_core, verify
from rtspec.discretization import quadrature
from rtspec.errors import ConfigError
from rtspec.verify import (
    MONOTONE_GRID_FLOOR,
    MONOTONE_GRID_POINTS,
    CheckReport,
    TrialFunction,
    _inequality_residuals,
    _random_trials,
    appendix_d_suite,
    convergence_suite,
    monotone_suite,
    run_suite,
    tail_integrals,
)


CLOSED_FORM_CHECKS = ("boundary_quotient_spectrum", "quotient_stationary_values",
                      "coercivity_ratio", "coercivity_bound")


@pytest.mark.parametrize("name", CLOSED_FORM_CHECKS)
def test_closed_form_checks_live_in_verify(name):
    # the solve path does not hold the checks of the operator method
    assert callable(getattr(verify, name))
    assert getattr(rt, name) is getattr(verify, name)
    assert name not in vars(spectral_core)


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
    rng = np.random.default_rng(7)
    cases = [(rt.random_trial(mesh64, 1.0, rng), 1.0) for _ in range(20)]
    mode = rt.build_normal_mode(mesh64, profile, params, (k_star, 0.0), 1)
    cases.append((TrialFunction.from_mode(mode), k_star))
    for trial, k in cases:
        shared = rt.check_variational_inequality(Lambda, trial, k, profile,
                                                 params)
        rt.form_cache.cache_clear()  # the forms are assembled anew
        fresh = rt.check_variational_inequality(Lambda, trial, k, profile,
                                                params)
        assert shared.residual == fresh.residual
        # the residual is relative to the bound's right-hand side, so this
        # compares both sides to 1e-12 of their scale
        expected = _pointwise_inequality_residual(Lambda, trial, k, profile,
                                                  params)
        assert abs(shared.residual - expected) <= 1e-12 * max(1.0,
                                                               abs(expected))


def _one_trial_coeffs(mesh, k, rng):
    """One trial's DOF vector, drawn and summed bump by bump on its own."""
    a = mesh.a
    amps = rng.uniform(0.2, 1.0, 5) * rng.choice([-1.0, 1.0], 5)
    centers = rng.uniform(-a, 0.0, 5)
    widths = rng.uniform(a / 20.0, a / 4.0, 5)
    x = mesh.nodes
    vals = np.zeros_like(x)
    slopes = np.zeros_like(x)
    for amp, c, w in zip(amps, centers, widths):
        e = amp * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        vals += e
        slopes += e * (c - x) / (w * w)
    coeffs = np.empty(mesh.dof_count)
    coeffs[0::2] = vals
    coeffs[1::2] = slopes
    coeffs[1] = k * coeffs[0]
    return coeffs


def test_trial_block_columns_are_the_single_trials(mesh64):
    # two blocks drawn in a row hold the trials of as many random_trial
    # calls on the same seed, bit for bit, and leave the stream in step
    rngs = [np.random.default_rng(11) for _ in range(3)]
    blocks = [_random_trials(mesh64, 1.5, rngs[0], m) for m in (37, 27)]
    columns = np.hstack([b.coeffs for b in blocks])
    tails = np.concatenate([b.A1 for b in blocks])
    for j in range(columns.shape[1]):
        single = rt.random_trial(mesh64, 1.5, rngs[1])
        assert np.array_equal(columns[:, j], single.coeffs)
        assert np.array_equal(single.coeffs,
                              _one_trial_coeffs(mesh64, 1.5, rngs[2]))
        assert tails[j] == single.A1
        assert blocks[0].tau == single.tau and single.A2 == 0.0
    assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def test_block_residuals_match_single_checks(profile, params, mesh64,
                                             lattice_max):
    Lambda = lattice_max.Lambda
    for k in (1.0, 2.0):
        seed = int(10 * k)
        block = _random_trials(mesh64, k, np.random.default_rng(seed), 40)
        residuals = _inequality_residuals(Lambda, block, k, profile, params)
        assert residuals.shape == (40,)
        rng = np.random.default_rng(seed)
        for res in residuals:
            trial = rt.random_trial(mesh64, k, rng)
            single = rt.check_variational_inequality(Lambda, trial, k,
                                                     profile, params)
            expected = _pointwise_inequality_residual(Lambda, trial, k,
                                                      profile, params)
            assert abs(res - single.residual) <= 1e-12 * max(1.0, abs(res))
            assert abs(res - expected) <= 1e-12 * max(1.0, abs(expected))
        rep = rt.check_variational_inequality(Lambda, block, k, profile,
                                              params)
        assert rep.residual == residuals.max()
        assert rep.passed


def test_zero_trial_in_block_has_zero_residual(profile, params, mesh64):
    block = _random_trials(mesh64, 1.0, np.random.default_rng(3), 8)
    coeffs = block.coeffs.copy()
    coeffs[:, 5] = 0.0
    zeroed = TrialFunction(mesh=mesh64, coeffs=coeffs, A1=coeffs[0], A2=0.0,
                           tau=block.tau)
    before = _inequality_residuals(0.5, block, 1.0, profile, params)
    after = _inequality_residuals(0.5, zeroed, 1.0, profile, params)
    assert after[5] == 0.0
    assert np.array_equal(np.delete(after, 5), np.delete(before, 5))


def test_monotone_suite_solves_one_pencil_per_rate(profile, params, mesh64,
                                                   growth_cap, monkeypatch):
    import rtspec.verify

    solves = []

    def counted(*args, **kwargs):
        solves.append(args[1])
        return rt.gamma_values(*args, **kwargs)

    monkeypatch.setattr(rtspec.verify, "gamma_values", counted)
    reports = monotone_suite(profile, params)
    assert solves == [4] * MONOTONE_GRID_POINTS
    monkeypatch.undo()
    grid = np.geomspace(MONOTONE_GRID_FLOOR, growth_cap, MONOTONE_GRID_POINTS)
    probes = [rt.monotonicity_probe(mesh64, profile, params, 1.0, n, grid,
                                    quantity)
              for n in range(1, 5) for quantity in ("gamma", "rate-ratio")]
    assert [rep.name for rep in reports] == [rep.name for rep in probes]
    for rep, probe in zip(reports, probes):
        assert rep.metadata == probe.metadata
        assert rep.passed == probe.passed
        assert abs(rep.residual - probe.residual) <= 1e-10 * abs(probe.residual)


def test_fixed_point_residual_shares_a_cache(profile, params, mesh64):
    for n in (1, 2):
        rec = rt.solve_lambda_n(mesh64, profile, params, 1.0, n)
        shared = rt.fixed_point_residual(mesh64, profile, params, rec)
        rt.form_cache.cache_clear()  # the forms are assembled anew
        assert shared == rt.fixed_point_residual(mesh64, profile, params, rec)
    assert rt.form_cache(mesh64, profile).__dict__.get("wmass") is not None


def test_appendix_d_suite_passes():
    reports = appendix_d_suite()
    assert len(reports) == 3
    assert all(rep.passed for rep in reports)


def test_convergence_suite_passes(profile, params):
    reports = convergence_suite(profile, params)
    assert all(rep.passed for rep in reports)


def test_convergence_suite_assembles_each_mass_once(profile, params,
                                                    monkeypatch):
    # each resolution's mode is built while its mesh's forms are cached
    assembled = []
    assemble = discretization.assemble_weighted_mass

    def counted(mesh, prof):
        assembled.append(mesh.n_elements)
        return assemble(mesh, prof)

    monkeypatch.setattr(discretization, "assemble_weighted_mass", counted)
    convergence_suite(profile, params)
    assert assembled == [32, 64, 128]


def test_monotone_grid_rises_below_a_unit_cap(profile):
    # a cap sqrt(g/L0) below the grid floor once reversed the grid and
    # failed every row
    params = rt.PhysicalParams(mu=1.0, g=1e-8, L1=1.0, L2=1.0)
    cap = rt.char_length(profile, params.g)[1]
    assert cap < MONOTONE_GRID_FLOOR
    reports = monotone_suite(profile, params)
    assert len(reports) == 8
    for rep in reports:
        assert rep.metadata["lam_min"] == pytest.approx(
            MONOTONE_GRID_FLOOR * cap, rel=1e-12)
        assert rep.metadata["lam_max"] == pytest.approx(cap, rel=1e-12)
    ratio_reports = [rep for rep in reports if rep.name == "monotone-rate-ratio"]
    assert len(ratio_reports) == 4
    assert all(rep.passed for rep in ratio_reports)


def test_energy_suite_solves_with_run_suite_settings(profile, params,
                                                     monkeypatch):
    # the energy mode is built from the suite's own record, solved with
    # the settings run_suite is given
    import rtspec.modes

    solved, rebuilt = [], []

    def recorded_solve(*args, **kwargs):
        solved.append(args[5])
        return rt.solve_lambda_n(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        rebuilt.append(args)
        return rt.solve_lambda_n(*args, **kwargs)

    monkeypatch.setattr(verify, "solve_lambda_n", recorded_solve)
    monkeypatch.setattr(rtspec.modes, "solve_lambda_n", counted_solve)
    loose = rt.SolverSettings(tol_rel=1e-6)
    [report] = run_suite("energy", profile, params, settings=loose)
    assert report.name == "energy-identity" and report.passed
    assert solved == [loose]
    assert rebuilt == []


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
