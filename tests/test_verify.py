import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rtspec as rt
from rtspec import discretization, spectral_core, verify
from rtspec.discretization import quadrature
from rtspec.errors import ConfigError
from rtspec.verify import (
    MONOTONE_GRID_FLOOR,
    MONOTONE_GRID_POINTS,
    CheckReport,
    _inequality_residuals,
    _random_trials,
    appendix_d_suite,
    convergence_suite,
    energy_suite,
    inequality_suite,
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
    # the tail with phi(-a) = p and phi'(-a) = k p + q is
    # e^{ks} (p + q expm1((tau - k) s) / (tau - k)); it solves
    # phi' = k phi + q e^{tau s}, which gives its derivatives without the
    # coefficients of e^{ks} and e^{tau s}, which cancel as tau nears k
    import scipy.integrate
    p, q, k = 0.8, -0.4, 1.3

    def quad(f):
        return scipy.integrate.quad(f, -np.inf, 0.0, epsabs=0.0,
                                    epsrel=1e-12)[0]

    for tau in (1.7 * k, k * (1.0 + 1e-7)):
        def phi(s, d=0):
            value = np.exp(k * s) * (p + q * np.expm1((tau - k) * s)
                                     / (tau - k))
            if d == 0:
                return value
            slope = k * value + q * np.exp(tau * s)
            return slope if d == 1 else k * slope + q * tau * np.exp(tau * s)

        mass, grad, stress = tail_integrals(p, q, k, tau)
        assert mass == pytest.approx(quad(lambda s: phi(s) ** 2), rel=1e-10)
        assert grad == pytest.approx(quad(lambda s: phi(s, 1) ** 2), rel=1e-10)
        assert stress == pytest.approx(
            quad(lambda s: (phi(s, 2) + k * k * phi(s)) ** 2), rel=1e-10)


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
    trial = rt.HalfLineFunction(mesh=mesh64, coeffs=np.zeros(mesh64.dof_count),
                                k=1.0, tau=2.0)
    rep = rt.check_variational_inequality(0.5, trial, profile, params)
    assert rep.passed
    assert rep.residual == 0.0


def test_random_trials_are_seeded(mesh64):
    a = rt.random_trial(mesh64, 1.0, np.random.default_rng(42))
    b = rt.random_trial(mesh64, 1.0, np.random.default_rng(42))
    assert np.array_equal(a.coeffs, b.coeffs)
    # C1 tail gluing baked into the left DOFs: the tail is phi(-a) e^{k(x+a)}
    assert a.coeffs[1] == pytest.approx(1.0 * a.coeffs[0], rel=1e-15)
    assert (a.k, a.tau) == (1.0, 2.0)
    assert a.tail == (a.coeffs[0], 0.0)


def test_random_trials_respect_bound(profile, params, mesh64, lattice_max):
    rng = np.random.default_rng(123)
    for _ in range(50):
        trial = rt.random_trial(mesh64, 1.0, rng)
        rep = rt.check_variational_inequality(lattice_max.Lambda, trial,
                                              profile, params)
        assert rep.passed


def test_inequality_tight_at_argmax(profile, params, mesh64, lattice_max):
    mode = rt.build_normal_mode(mesh64, profile, params,
                                (lattice_max.argmax_k, 0.0), 1)
    rep = rt.check_variational_inequality(lattice_max.Lambda, mode.phi,
                                          profile, params)
    assert rep.passed
    assert -rep.residual <= 1e-4  # the two sides nearly coincide


def _pointwise_inequality_residual(Lambda, trial, profile, params):
    """The bound's residual, (lhs - rhs) / rhs, with the layer norms
    evaluated point by point."""
    x, w = quadrature(trial.mesh)
    k = trial.k
    v, dv, ddv = trial(x), trial(x, 1), trial(x, 2)
    strat_mass = float(w @ (profile.drho0(x) * v * v))
    weighted = float(w @ (profile.rho0(x) * (v * v + dv * dv / k**2)))
    stress = float(w @ ((ddv / k + k * v) ** 2 + 4.0 * dv * dv))
    p = trial.coeffs[0]
    mass_out, grad_out, stress_out = tail_integrals(p, trial.coeffs[1] - k * p,
                                                    k, trial.tau)
    weighted += profile.rho_minus * (mass_out + grad_out / k**2)
    stress += stress_out / k**2 + 4.0 * grad_out
    lhs = params.g * strat_mass
    rhs = (params.g * profile.rho_plus * trial.coeffs[-2] ** 2
           + Lambda**2 * weighted + Lambda * params.mu * stress)
    return (lhs - rhs) / abs(rhs)


def test_inequality_cache_matches_pointwise_formula(profile, params, mesh64,
                                                    lattice_max, clear_forms):
    Lambda, k_star = lattice_max.Lambda, lattice_max.argmax_k
    rng = np.random.default_rng(7)
    cases = [rt.random_trial(mesh64, 1.0, rng) for _ in range(20)]
    mode = rt.build_normal_mode(mesh64, profile, params, (k_star, 0.0), 1)
    cases.append(mode.phi)
    for trial in cases:
        shared = rt.check_variational_inequality(Lambda, trial, profile,
                                                 params)
        clear_forms()  # the forms are assembled anew
        fresh = rt.check_variational_inequality(Lambda, trial, profile,
                                                params)
        assert shared.residual == fresh.residual
        # the residual is relative to the bound's right-hand side, so this
        # compares both sides to 1e-12 of their scale
        expected = _pointwise_inequality_residual(Lambda, trial, profile,
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


def test_trial_block_of_one_is_random_trial(mesh64):
    # a block of one is random_trial's trial bit for bit, drawn bump by
    # bump, and leaves the stream in step
    rngs = [np.random.default_rng(11) for _ in range(3)]
    for _ in range(5):
        block = _random_trials(mesh64, 1.5, rngs[0], 1)
        single = rt.random_trial(mesh64, 1.5, rngs[1])
        assert block.coeffs.shape == (mesh64.dof_count, 1)
        assert np.array_equal(block.coeffs[:, 0], single.coeffs)
        assert np.array_equal(single.coeffs,
                              _one_trial_coeffs(mesh64, 1.5, rngs[2]))
        assert (block.k, block.tau) == (single.k, single.tau) == (1.5, 3.0)
    assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def test_trial_blocks_are_reproducible_from_the_seed(mesh64):
    def draw(seed):
        rng = np.random.default_rng(seed)
        blocks = [_random_trials(mesh64, 1.5, rng, m) for m in (37, 27)]
        return blocks, rng.random()

    (first, after), (second, again) = draw(11), draw(11)
    assert after == again
    for a, b in zip(first, second):
        assert np.array_equal(a.coeffs, b.coeffs)
        # every column carries the pure e^{ks} tail
        assert np.array_equal(a.coeffs[1], 1.5 * a.coeffs[0])
        assert np.array_equal(a.tail[1], np.zeros(a.coeffs.shape[1]))
    assert not np.array_equal(draw(12)[0][0].coeffs, first[0].coeffs)


def test_block_residuals_match_single_checks(profile, params, mesh64,
                                             lattice_max):
    Lambda = lattice_max.Lambda
    for k in (1.0, 2.0):
        seed = int(10 * k)
        block = _random_trials(mesh64, k, np.random.default_rng(seed), 40)
        residuals = _inequality_residuals(Lambda, block, profile, params)
        assert residuals.shape == (40,)
        for j, res in enumerate(residuals):
            trial = dataclasses.replace(block, coeffs=block.coeffs[:, j])
            single = rt.check_variational_inequality(Lambda, trial, profile,
                                                     params)
            expected = _pointwise_inequality_residual(Lambda, trial, profile,
                                                      params)
            assert abs(res - single.residual) <= 1e-12 * max(1.0, abs(res))
            assert abs(res - expected) <= 1e-12 * max(1.0, abs(expected))
        rep = rt.check_variational_inequality(Lambda, block, profile, params)
        assert rep.residual == residuals.max()
        assert rep.passed


def test_zero_trial_in_block_has_zero_residual(profile, params, mesh64):
    block = _random_trials(mesh64, 1.0, np.random.default_rng(3), 8)
    coeffs = block.coeffs.copy()
    coeffs[:, 5] = 0.0
    zeroed = dataclasses.replace(block, coeffs=coeffs)
    before = _inequality_residuals(0.5, block, profile, params)
    after = _inequality_residuals(0.5, zeroed, profile, params)
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


def counted_profile_forms(monkeypatch) -> list[int]:
    """The mesh sizes at which the parts weighted by the profile (WMASS,
    R0 and R1, three quadratures) are assembled, one entry per assembly."""
    assembled = []
    interior_form = discretization._interior_form

    def counted(mesh, order, c):
        if np.ndim(c) == 1:
            assembled.append(mesh.n_elements)
        return interior_form(mesh, order, c)

    monkeypatch.setattr(discretization, "_interior_form", counted)
    return assembled


def test_fixed_point_residual_shares_a_cache(profile, params, mesh64,
                                             clear_forms, monkeypatch):
    assembled = counted_profile_forms(monkeypatch)
    for n in (1, 2):
        rec = rt.solve_lambda_n(mesh64, profile, params, 1.0, n)
        before = len(assembled)
        shared = rt.fixed_point_residual(mesh64, profile, params, rec)
        assert len(assembled) == before  # the solve's WMASS is reused
        clear_forms()  # the forms are assembled anew
        assert shared == rt.fixed_point_residual(mesh64, profile, params, rec)
    assert assembled == [64] * 9


def test_appendix_d_suite_passes():
    reports = appendix_d_suite()
    assert len(reports) == 3
    assert all(rep.passed for rep in reports)


def test_convergence_suite_passes(profile, params):
    reports = convergence_suite(profile, params)
    assert all(rep.passed for rep in reports)


def test_convergence_suite_assembles_each_mass_once(profile, params,
                                                    clear_forms, monkeypatch):
    # each resolution's mode is built while its mesh's forms are cached
    assembled = counted_profile_forms(monkeypatch)
    convergence_suite(profile, params)
    assert assembled == [32] * 3 + [64] * 3 + [128] * 3


def test_run_suite_assembles_each_mesh_once(profile, params, clear_forms,
                                            monkeypatch):
    # equal meshes built again share H2's parts (S0, S1, S2): the suite
    # builds meshes of 64 elements four times, but assembles them once
    assembled = []
    interior_form = discretization._interior_form

    def counted(mesh, order, c):
        if np.ndim(c) == 0:
            assembled.append(mesh.n_elements)
        return interior_form(mesh, order, c)

    monkeypatch.setattr(discretization, "_interior_form", counted)
    run_suite("all", profile, params)
    assert sorted(assembled) == [32] * 3 + [64] * 3 + [128] * 3


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


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(("bump", "quintic")),
       rho_plus=_log_uniform(1.1, 1e3), mu=_log_uniform(1e-2, 1e2),
       g=_log_uniform(1e-2, 1e2), a=st.sampled_from((0.5, 1.0, 2.0)))
def test_suites_pass_on_drawn_physics(kind, rho_plus, mu, g, a):
    # every check but the documented monotone-gamma rows passes for any
    # unstable stratification, viscosity and gravity in these ranges
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=rho_plus, a=a,
                                kind=kind)
    params = rt.PhysicalParams(mu=mu, g=g, L1=1.0, L2=1.0)
    reports = (energy_suite(profile, params)
               + convergence_suite(profile, params)
               + inequality_suite(profile, params, n_trials=64,
                                  n_wavenumbers=2, Kmax=3.0, n_elements=32)
               + monotone_suite(profile, params, n_branches=2, n_elements=32))
    failed = [rep.line() for rep in reports
              if not rep.passed and rep.name != "monotone-gamma"]
    assert failed == []


# The closed forms hold to APPENDIX_D_ATOL on appendix_d_suite's 64-element
# mesh only for ka in [0.4, 8].  Below it the residual is rounding, which
# grows as the mesh is refined (at ka = 0.3 and a = 1: 2.1e-6 on 64
# elements, 2.8e-5 on 128); above it, discretization error, which falls by
# 16 per halving of h (at ka = 16: 5.5e-6 on 64 elements).
_KA = _log_uniform(0.4, 8.0)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(ka=_KA, a=st.sampled_from((0.5, 1.0, 2.0)))
def test_appendix_d_closed_forms_on_drawn_depths(ka, a):
    [report] = appendix_d_suite(a, ka_values=(ka,))
    assert report.passed, report.line()


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(("bump", "quintic")),
       rho_plus=_log_uniform(1.1, 1e3), mu=_log_uniform(1e-2, 1e2),
       g=_log_uniform(1e-2, 1e2), a=st.sampled_from((0.5, 1.0, 2.0)),
       ka=_KA, rate=_log_uniform(1e-3, 1.0))
def test_coercivity_bound_on_drawn_physics(kind, rho_plus, mu, g, a, ka,
                                           rate):
    # the bound holds uniformly in the rate and the stratification; rate is
    # the fraction of the growth-rate cap
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=rho_plus, a=a,
                                kind=kind)
    params = rt.PhysicalParams(mu=mu, g=g)
    lam = rate * rt.char_length(profile, g)[1]
    ratio = rt.coercivity_ratio(rt.build_mesh(a, 32), profile, params, ka / a,
                                lam)
    assert ratio >= rt.coercivity_bound(ka)
