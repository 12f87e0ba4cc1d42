import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

import rtspec as rt
from rtspec import discretization, growth_solver, spectral_core
from rtspec.errors import ConfigError
from rtspec.growth_solver import (
    BRACKET_FLOOR,
    COUNT_SHIFT,
    MAX_ITERATIONS,
    MIN_GROWTH_CAP,
    NO_UNSTABLE_BRANCH,
    RATE_BELOW_FLOOR,
)
from rtspec.spectral_core import (
    BranchEvaluation,
    branch_evaluation,
    dense_branches,
    gamma_values,
)

from oracle_collocation import oracle_lambda


def test_degenerate_profile_has_no_branches(degenerate_profile, params):
    mesh = rt.build_mesh(1.0, 16)
    for n in (1, 2, 3):
        rec = rt.solve_lambda_n(mesh, degenerate_profile, params, 1.0, n)
        assert not rec.converged
        assert rec.reason == NO_UNSTABLE_BRANCH
        assert math.isnan(rec.lambda_n)


def test_input_validation(profile, params, mesh64):
    with pytest.raises(ValueError):
        rt.solve_lambda_n(mesh64, profile, params, -1.0, 1)
    with pytest.raises(ValueError):
        rt.solve_lambda_n(mesh64, profile, params, 1.0, 0)


def test_leading_rate_cross_discretization(profile, params, mesh64, mesh128):
    rec64 = rt.solve_lambda_n(mesh64, profile, params, 1.0, 1)
    rec128 = rt.solve_lambda_n(mesh128, profile, params, 1.0, 1)
    assert rec64.converged and rec128.converged
    assert abs(rec64.lambda_n - rec128.lambda_n) <= 1e-6 * rec128.lambda_n
    lam_oracle = oracle_lambda(profile, params, 1.0, 1)
    assert abs(rec64.lambda_n - lam_oracle) <= 1e-6 * lam_oracle
    assert abs(rec128.lambda_n - lam_oracle) <= 1e-6 * lam_oracle


def test_branches_decrease_and_stay_below_cap(profile, params, mesh64,
                                              growth_cap):
    lams = []
    for n in (1, 2, 3, 4):
        rec = rt.solve_lambda_n(mesh64, profile, params, 1.0, n)
        assert rec.converged
        assert 0.0 < rec.lambda_n < growth_cap
        assert rec.residual <= 1e-8 * rec.lambda_n
        lams.append(rec.lambda_n)
    assert all(a > b for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_point_function_single_sign_change(profile, params, mesh64,
                                                 growth_cap, n):
    k = 1.0
    grid = np.geomspace(1e-12 * growth_cap, growth_cap, 50)
    signs = []
    for lam in grid:
        g = gamma_values(rt.assemble_B(mesh64, profile, params, k, float(lam)),
                         n)
        signs.append(np.sign(params.g * k * k * g[n - 1] - lam))
    changes = np.count_nonzero(np.diff(signs))
    assert changes == 1


def _fixed_point(mesh, profile, params, k, n, lam):
    gammas = gamma_values(rt.assemble_B(mesh, profile, params, k, lam), n)
    return params.g * k * k * gammas[n - 1] - lam


def _assert_bracketed(mesh, profile, params, rec):
    lam = rec.lambda_n
    assert _fixed_point(mesh, profile, params, rec.k, rec.n,
                        lam * (1.0 - 1e-6)) > 0.0
    assert _fixed_point(mesh, profile, params, rec.k, rec.n,
                        lam * (1.0 + 1e-6)) < 0.0


def test_root_finder_converges_in_few_steps(profile, params, mesh64):
    # bisection to the default 1e-10 width takes 38-48 steps here
    for n in (1, 2, 3, 4):
        rec = rt.solve_lambda_n(mesh64, profile, params, 1.0, n)
        assert rec.converged
        assert rec.iterations <= 15
        _assert_bracketed(mesh64, profile, params, rec)


def test_unreachable_tolerance_stops_at_max_iter(profile, params, mesh64):
    settings_ = rt.SolverSettings(tol_rel=1e-20)
    rec = rt.solve_lambda_n(mesh64, profile, params, 1.0, 1, settings_)
    assert not rec.converged
    assert rec.reason == MAX_ITERATIONS
    assert rec.iterations == settings_.max_iter


def _solve_synthetic(monkeypatch, mesh, profile, params, defect, slope):
    # f(lam) = defect(lam) on the rate interval (0, 1]: gamma_1 = lam + defect,
    # with f'(lam) = slope(lam)
    def evaluation(lam, n, block=None):
        return BranchEvaluation(gamma=lam + defect(lam), slope=1.0 + slope(lam),
                                block=np.zeros((1, 1)), iterations=0,
                                dense=block is None)

    monkeypatch.setattr(growth_solver, "char_length", lambda prof, g: (1.0, 1.0))
    monkeypatch.setattr(growth_solver, "assemble_B",
                        lambda mesh, prof, par, k, lam: lam)
    monkeypatch.setattr(growth_solver, "gamma_values",
                        lambda lam, n: np.array([lam + defect(lam)]))
    monkeypatch.setattr(growth_solver, "branch_evaluation", evaluation)
    monkeypatch.setattr(growth_solver, "dense_branches",
                        lambda *args: [evaluation(*args)])
    # the one branch's gamma against sigma, as an inertia count reads it
    monkeypatch.setattr(growth_solver, "inertia_count",
                        lambda lam, sigma: int(lam + defect(lam) > sigma))
    return rt.solve_lambda_n(mesh, profile, params, 1.0, 1)


def test_exact_zero_ends_the_root_finder(monkeypatch, profile, params, mesh64):
    # f vanishes on [0.3, 0.5]; the first Newton step lands there
    rec = _solve_synthetic(
        monkeypatch, mesh64, profile, params,
        lambda lam: max(0.3 - lam, 0.0) + min(0.5 - lam, 0.0),
        lambda lam: 0.0 if 0.3 <= lam <= 0.5 else -1.0)
    assert rec.converged
    assert rec.residual == 0.0
    assert 0.3 <= rec.lambda_n <= 0.5
    assert rec.iterations == 1


def test_newton_step_that_rounds_to_nothing_ends_the_root_finder(
        monkeypatch, profile, params, mesh64):
    # the first Newton step lands on 0.3, where f is one ulp and its own
    # step a third of one: 0.3 is the rate, with no further evaluation
    rec = _solve_synthetic(monkeypatch, mesh64, profile, params,
                           lambda lam: 3.0 * (0.3 - lam) + 3.33e-17,
                           lambda lam: -3.0)
    assert rec.converged
    assert rec.lambda_n == 0.3
    assert rec.iterations == 1


def test_floor_that_is_the_rate_is_certified(monkeypatch, profile, params,
                                             mesh64):
    # the floor's own Newton step rounds to nothing: no step is made, and
    # the count reads a pencil assembled at the floor
    rec = _solve_synthetic(monkeypatch, mesh64, profile, params,
                           lambda lam: 3.0 * (1e-12 - lam) + 1.2e-28,
                           lambda lam: -3.0)
    assert rec.converged
    assert rec.lambda_n == BRACKET_FLOOR
    assert rec.iterations == 0
    assert rec.stats.inertia_counts == 1


def test_root_finder_survives_poor_interpolation(monkeypatch, profile, params,
                                                 mesh64):
    # flat above the root and steep below it: Newton from the lower end
    # advances about 1/50 per step until it nears the root
    rec = _solve_synthetic(monkeypatch, mesh64, profile, params,
                           lambda lam: math.exp(-50.0 * lam) - math.exp(-15.0),
                           lambda lam: -50.0 * math.exp(-50.0 * lam))
    assert rec.converged
    assert abs(rec.lambda_n - 0.3) <= 1e-10
    assert rec.iterations <= 40  # bisection needs 35 steps here


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(["bump", "quintic"]),
       rho_plus=st.floats(1.1, 3.0),
       k=st.floats(0.2, 4.0))
def test_solver_invariants_on_random_profiles(params, kind, rho_plus, k):
    prof = rt.DensityProfile(rho_minus=1.0, rho_plus=rho_plus, a=1.0,
                             kind=kind)
    mesh = rt.build_mesh(prof.a, 32)
    _, cap = rt.char_length(prof, params.g)
    records = rt.dispersion(mesh, prof, params, [k], 3)
    assert all(r.reason != MAX_ITERATIONS for r in records)
    converged = [r for r in records if r.converged]
    for rec in converged:
        assert 0.0 < rec.lambda_n <= cap
        _assert_bracketed(mesh, prof, params, rec)
    lams = [r.lambda_n for r in converged]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_wavenumber_enters_through_magnitude_only(profile, params, mesh64):
    rec_a = rt.solve_lambda_n(mesh64, profile, params, 1.0, 1)
    rec_b = rt.solve_lambda_n(mesh64, profile, params, math.hypot(0.6, 0.8), 1)
    assert abs(rec_a.lambda_n - rec_b.lambda_n) <= 1e-12 * rec_a.lambda_n


def test_dispersion_table_shape_and_gaps(profile, params):
    mesh = rt.build_mesh(1.0, 32)
    ks = [0.5, 1.0]
    records = rt.dispersion(mesh, profile, params, ks, 3)
    assert [(r.k, r.n) for r in records] == [(0.5, 1), (0.5, 2), (0.5, 3),
                                             (1.0, 1), (1.0, 2), (1.0, 3)]
    for k in ks:
        branch = [r.lambda_n for r in records if r.k == k and r.converged]
        assert all(a > b for a, b in zip(branch, branch[1:]))


def test_dispersion_gap_reporting(degenerate_profile, params):
    mesh = rt.build_mesh(1.0, 16)
    records = rt.dispersion(mesh, degenerate_profile, params, [1.0], 3)
    assert len(records) == 3
    assert all(r.reason == NO_UNSTABLE_BRANCH for r in records)


def test_more_branches_do_not_move_earlier_ones(profile, params):
    # each branch carries only its own floor vectors from k to k
    mesh = rt.build_mesh(1.0, 32)
    k_values = np.geomspace(0.25, 4.0, 20)
    two = rt.dispersion(mesh, profile, params, k_values, 2)
    four = [r for r in rt.dispersion(mesh, profile, params, k_values, 4)
            if r.n <= 2]
    assert len(two) == len(four) == 40
    for a, b in zip(two, four):
        assert (a.k, a.n) == (b.k, b.n)
        assert a.lambda_n == b.lambda_n and a.iterations == b.iterations


def test_lattice_magnitudes():
    assert np.allclose(rt.lattice_magnitudes(1.0, 1.0, 1.0), [1.0])
    assert np.allclose(rt.lattice_magnitudes(1.0, 1.0, 1.5),
                       [1.0, math.sqrt(2.0)])
    mags = rt.lattice_magnitudes(2.0, 1.0, 1.0)
    assert np.allclose(mags, [0.5, 1.0, math.hypot(0.5, 1.0)][:len(mags)])
    with pytest.raises(ConfigError):
        rt.lattice_magnitudes(1.0, 1.0, 0.4)


def test_lattice_magnitudes_are_exact():
    assert math.sqrt(2.0) in rt.lattice_magnitudes(1.0, 1.0, 1.5)
    assert math.hypot(1.0, 2.0) in rt.lattice_magnitudes(1.0, 1.0, 2.5)


@pytest.mark.parametrize("alpha", [1e-13, 1e13])
def test_lattice_magnitudes_do_not_depend_on_scale(alpha):
    # magnitudes were merged when equal to 12 decimals, so every magnitude
    # of a lattice below about 1e-12 collapsed into the first
    for L1, L2, Kmax in ((1.0, 1.0, 3.0), (1.0, 1.0, 8.0), (1.0, 2.0, 8.0)):
        unit = rt.lattice_magnitudes(L1, L2, Kmax)
        scaled = rt.lattice_magnitudes(alpha * L1, alpha * L2, Kmax / alpha)
        assert scaled.size == unit.size
        np.testing.assert_allclose(scaled * alpha, unit, rtol=1e-14)


@pytest.mark.parametrize("value, period, expected", [
    (1.0 + 5e-13, 1.0, (1, True)),
    (1.0 + 5e-10, 1.0, (1, False)),
    (3e12 + 2.0, 1.0, (3_000_000_000_002, True)),  # relative above 1
    (2e-13, 1.0, (1, False)),  # a nonzero value is never point 0
    (-2e-13, 1.0, (-1, False)),
    (-0.0, 1.0, (0, True)),
    (0.75, 4.0, (3, True)),
    (0.5, 1.0, (1, False)),
])
def test_lattice_index(value, period, expected):
    assert growth_solver.lattice_index(value, period) == expected


def test_lattice_size_is_bounded():
    with pytest.raises(ConfigError, match="lattice points"):
        rt.lattice_magnitudes(1.0, 1.0, 1e7)
    with pytest.raises(ConfigError, match="lattice points"):
        rt.lattice_magnitudes(1e300, 1.0, 1e300)  # the span overflows to inf
    with pytest.raises(ConfigError, match="finite"):
        rt.lattice_magnitudes(1.0, 1.0, math.inf)


def test_lambda_max_small_lattice(profile, params, growth_cap):
    mesh = rt.build_mesh(1.0, 32)
    res = rt.lambda_max(mesh, profile, params, 1.0)
    assert len(res.records) == 1
    assert res.Lambda == res.records[0].lambda_n
    assert res.argmax_k == 1.0
    assert res.Lambda <= growth_cap
    res2 = rt.lambda_max(mesh, profile, params, 1.5)
    assert {r.k for r in res2.records} == {1.0, math.sqrt(2.0)}
    assert res2.Lambda == max(r.lambda_n for r in res2.records
                              if r.converged)


def test_lambda_max_degenerate(degenerate_profile, params):
    mesh = rt.build_mesh(1.0, 16)
    res = rt.lambda_max(mesh, degenerate_profile, params, 1.5)
    assert not res.any_unstable
    assert res.Lambda == 0.0
    assert math.isnan(res.argmax_k)


def test_quintic_profile_end_to_end(quintic_profile, params):
    # the second derivative family drives the same pipeline
    mesh = rt.build_mesh(1.0, 64)
    rec = rt.solve_lambda_n(mesh, quintic_profile, params, 1.0, 1)
    assert rec.converged
    _, cap = rt.char_length(quintic_profile, params.g)
    assert 0.0 < rec.lambda_n < cap
    mode = rt.build_normal_mode(mesh, quintic_profile, params, (1.0, 0.0), 1,
                                record=rec)
    assert rt.energy_identity_residual(mode).residual <= 1e-5


def test_refinement_agreement_probe(profile, params):
    mesh = rt.build_mesh(1.0, 32)
    rec = rt.solve_lambda_n(mesh, profile, params, 1.0, 1)
    agreement = rt.refinement_agreement(mesh, profile, params, rec)
    assert agreement <= 1e-6
    stale = rt.GrowthRecord(k=1.0, n=1, lambda_n=math.nan, residual=math.nan,
                            iterations=0, converged=False,
                            reason=NO_UNSTABLE_BRANCH)
    assert math.isnan(rt.refinement_agreement(mesh, profile, params, stale))


def test_solver_settings_validation():
    with pytest.raises(ConfigError):
        rt.SolverSettings(tol_rel=0.0)
    with pytest.raises(ConfigError):
        rt.SolverSettings(max_iter=1)
    # the branch count is an argument of dispersion, not a solver setting
    fields = {f.name for f in dataclasses.fields(rt.SolverSettings)}
    assert fields == {"tol_rel", "max_iter"}


def test_dispersion_matches_single_solves(profile, params, mesh64):
    k_values = np.geomspace(0.25, 4.0, 5)
    records = rt.dispersion(mesh64, profile, params, k_values, 4)
    assert len(records) == 20
    for rec in records:
        single = rt.solve_lambda_n(mesh64, profile, params, rec.k, rec.n)
        assert rec.converged == single.converged
        assert abs(rec.lambda_n - single.lambda_n) <= 1e-12 * single.lambda_n


def test_dispersion_on_a_descending_grid_with_a_repeated_k(profile, params,
                                                          mesh64):
    records = rt.dispersion(mesh64, profile, params, [4.0, 1.0, 1.0, 0.25], 4)
    assert [r.k for r in records] == [4.0] * 4 + [1.0] * 8 + [0.25] * 4
    for rec in records:
        single = rt.solve_lambda_n(mesh64, profile, params, rec.k, rec.n)
        assert rec.converged and single.converged
        assert abs(rec.lambda_n - single.lambda_n) <= 1e-12 * single.lambda_n


def test_dispersion_solves_bracket_ends_once_per_k(profile, params, mesh64,
                                                   monkeypatch):
    calls = {}

    def counted(name):
        solve = getattr(growth_solver, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return solve(*args)
        return wrapper

    for name in ("gamma_values", "dense_branches", "branch_evaluation",
                 "inertia_count"):
        monkeypatch.setattr(growth_solver, name, counted(name))
    k_values = np.geomspace(0.25, 4.0, 5)
    records = rt.dispersion(mesh64, profile, params, k_values, 4)
    assert all(rec.converged for rec in records)
    warm = [args for args in calls["branch_evaluation"] if args[2] is not None]
    dense = (len(calls["gamma_values"]) + len(calls["dense_branches"])
             + len(calls["branch_evaluation"]) - len(warm))
    # the cap's eigenvalues once per k; the floor's full decomposition at
    # the first k only, and each later floor one warm evaluation per
    # branch; each record's certificate is its last step's evaluation
    # and one count
    assert len(calls["gamma_values"]) == len(k_values)
    assert len(calls["dense_branches"]) == 1
    assert dense == len(k_values) + 1
    assert len(warm) == (sum(r.iterations for r in records)
                         + 4 * (len(k_values) - 1))
    assert len(calls["inertia_count"]) == len(records)
    for rec in records:
        assert rec.stats.dense_solves == 0
        assert rec.stats.block_evaluations == rec.iterations
        assert rec.stats.inertia_counts == 1


def test_sweep_assembles_only_the_k_free_parts(profile, params, monkeypatch,
                                              clear_forms):
    # quadrature runs only for the parts that do not depend on k: three
    # for the mesh (constant coefficient) and three for the profile
    quadratures = []
    interior_form = discretization._interior_form

    def counted_quadrature(mesh, order, c):
        quadratures.append((order, np.ndim(c)))
        return interior_form(mesh, order, c)

    combined = {"h2": set(), "wgrad": set()}

    def count_combinations(name, key):
        assemble = getattr(spectral_core, name)

        def counted(*args):
            combined[key].add(args[-1])
            return assemble(*args)
        monkeypatch.setattr(spectral_core, name, counted)

    monkeypatch.setattr(discretization, "_interior_form", counted_quadrature)
    count_combinations("assemble_h2_form", "h2")
    count_combinations("assemble_weighted_gradient_form", "wgrad")
    mesh = rt.build_mesh(1.0, 16)
    x_quad = discretization.quadrature(mesh)[0]
    sampled = {"rho0": 0, "drho0": 0}

    def count_samples(name):
        method = getattr(rt.DensityProfile, name)

        def counted(self, x3):
            if np.shape(x3) == x_quad.shape and np.array_equal(x3, x_quad):
                sampled[name] += 1
            return method(self, x3)
        monkeypatch.setattr(rt.DensityProfile, name, counted)

    count_samples("rho0")
    count_samples("drho0")
    k_values = np.geomspace(0.25, 4.0, 50)
    rt.dispersion(mesh, profile, params, k_values, 1)
    assert sorted(quadratures) == [(0, 0), (0, 1), (0, 1), (1, 0), (1, 1),
                                   (2, 0)]
    # every pencil combines the parts' bands at its own k
    assert combined == {"h2": set(k_values), "wgrad": set(k_values)}
    # the profile is sampled at the quadrature points once, not once per k
    assert sampled == {"rho0": 1, "drho0": 1}
    w, rho, drho, wmass, *r_parts = discretization.layer_forms(mesh, profile)
    h2_parts = discretization.h2_parts(mesh)
    for part in (*h2_parts, wmass, *r_parts):
        assert part.shape == (discretization.BANDWIDTH + 1, mesh.dof_count)
    for part in (*h2_parts, w, rho, drho, wmass, *r_parts):
        assert not part.flags.writeable


@pytest.mark.parametrize("n_elements", [64, 128])
@pytest.mark.parametrize("k", [0.25, 1.0])
def test_fixed_point_function_is_smooth_near_the_root(profile, params, k,
                                                      n_elements):
    # eigh's own eigenvalues scatter by up to 1e-7 relative in this scan
    mesh = rt.build_mesh(profile.a, n_elements)
    root = rt.solve_lambda_n(mesh, profile, params, k, 1).lambda_n
    offsets = np.linspace(-1.0, 1.0, 13)
    ratio = []
    for lam in root * (1.0 + 1e-8 * offsets):
        pencil = rt.assemble_B(mesh, profile, params, k, lam)
        gamma = branch_evaluation(pencil, 1).gamma
        ratio.append(params.g * k * k * gamma / lam - 1.0)
    fit = np.polyval(np.polyfit(offsets, ratio, 1), offsets)
    assert np.abs(np.array(ratio) - fit).max() <= 1e-12


def test_fine_mesh_sweep_converges(profile, params, mesh128):
    records = rt.dispersion(mesh128, profile, params,
                            np.geomspace(0.25, 4.0, 20), 4)
    assert all(rec.converged for rec in records)


@pytest.mark.parametrize("k", [0.25, 1.0])
def test_leading_rate_on_fine_mesh_matches_oracle(profile, params, k):
    rec = rt.solve_lambda_n(rt.build_mesh(profile.a, 192), profile, params,
                            k, 1)
    assert rec.converged
    lam_oracle = oracle_lambda(profile, params, k, 1)
    assert abs(rec.lambda_n - lam_oracle) <= 1e-9 * lam_oracle


def test_warm_and_dense_evaluations_agree(profile, params, mesh64):
    k = 1.0
    start = dense_branches(rt.assemble_B(mesh64, profile, params, k, 0.05), 4)
    for lam in (0.06, 0.09, 0.12):
        pencil = rt.assemble_B(mesh64, profile, params, k, lam)
        for n in (1, 2, 3, 4):
            warm = branch_evaluation(pencil, n, start[n - 1].block)
            dense = branch_evaluation(pencil, n)
            assert not warm.dense and warm.iterations >= 1
            assert dense.dense and dense.iterations == 0
            assert abs(warm.gamma - dense.gamma) <= 1e-12 * dense.gamma


def test_warm_evaluations_fall_back_to_dense_solves(profile, params, mesh64,
                                                    monkeypatch):
    k_values = np.geomspace(0.25, 4.0, 5)
    warm = rt.dispersion(mesh64, profile, params, k_values, 4)
    monkeypatch.setattr(spectral_core, "_BLOCK_MAX_ITERATIONS", 0)
    dense = rt.dispersion(mesh64, profile, params, k_values, 4)
    for a, b in zip(warm, dense):
        assert a.converged and b.converged
        assert a.stats.dense_solves == 0
        assert a.stats.block_iterations >= a.iterations + 1
        assert b.stats.block_iterations == 0
        # every warm evaluation falls back; the certificate makes none
        assert b.stats.dense_solves == b.stats.block_evaluations
        assert b.stats.block_evaluations == b.iterations
        assert a.stats.inertia_counts == b.stats.inertia_counts == 1
        assert abs(a.lambda_n - b.lambda_n) <= 1e-12 * b.lambda_n


@pytest.mark.parametrize("fail", ["absent", "unconverged"])
@pytest.mark.parametrize("depth, n_converged", [(1.0, 4), (1e-4, 1)])
def test_failed_warm_floors_fall_back_to_dense_ones(params, monkeypatch,
                                                    fail, depth, n_converged):
    # a warm floor that finds its branch absent reads the full
    # decomposition; one whose subspace iteration fails, a subset solve;
    # on the thin layer, branches 2-4 have f < 0 at the floor
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=2.0, a=depth)
    mesh = rt.build_mesh(depth, 64)
    k_values = np.geomspace(0.25, 4.0, 5)
    floor = BRACKET_FLOOR * rt.char_length(profile, params.g)[1]
    chained = rt.dispersion(mesh, profile, params, k_values, 4)
    evaluate = growth_solver.branch_evaluation
    iterate = spectral_core._subspace_iteration
    fell_back = []

    def absent(pencil, n, block=None):
        if block is not None and pencil.lam == floor:
            fell_back.append(n)
            return None
        return evaluate(pencil, n, block)

    def unconverged(pencil, n, block):
        if pencil.lam == floor:
            fell_back.append(n)
            return None
        return iterate(pencil, n, block)
    if fail == "absent":
        monkeypatch.setattr(growth_solver, "branch_evaluation", absent)
    else:
        monkeypatch.setattr(spectral_core, "_subspace_iteration", unconverged)
    dense = rt.dispersion(mesh, profile, params, k_values, 4)
    assert len(fell_back) == 4 * (len(k_values) - 1)
    assert [r.converged for r in chained] == [
        n <= n_converged for n in (1, 2, 3, 4)] * len(k_values)
    for rec, fallback in zip(chained, dense):
        assert (rec.k, rec.n, rec.reason) == (fallback.k, fallback.n,
                                              fallback.reason)
        if rec.converged:
            assert (abs(rec.lambda_n - fallback.lambda_n)
                    <= 1e-12 * fallback.lambda_n)


def test_records_report_how_they_were_found(profile, params, mesh64,
                                            growth_cap):
    settings_ = rt.SolverSettings()
    k, n = 1.0, 2
    rec = rt.solve_lambda_n(mesh64, profile, params, k, n, settings_)
    stats = rec.stats
    assert stats.dense_solves == 2  # the two bracket ends
    # the certificate: the last step's warm evaluation and one count
    assert stats.inertia_counts == 1
    assert stats.block_evaluations == rec.iterations
    assert stats.start_bracket == (BRACKET_FLOOR * growth_cap, growth_cap)
    lo, hi = stats.final_bracket
    assert lo <= rec.lambda_n <= hi
    # the record stops on Newton's step test with its bracket still open
    # at the cap, yet f changes sign within the tolerance of the rate (by
    # the noise-free quotient: the dense gamma_n is too noisy here)
    for scale, sign in ((1.0 - settings_.tol_rel, 1.0),
                        (1.0 + settings_.tol_rel, -1.0)):
        lam = rec.lambda_n * scale
        gamma = branch_evaluation(
            rt.assemble_B(mesh64, profile, params, k, lam), n).gamma
        assert sign * (params.g * k * k * gamma - lam) > 0.0
    assert stats.residual_rel == rec.residual / rec.lambda_n
    assert dataclasses.replace(rec, stats=None) == rec


@pytest.mark.parametrize("miss", ["above", "below"])
def test_certificate_falls_back_to_a_dense_solve(profile, params, mesh64,
                                                 monkeypatch, miss):
    # a warm gamma under sigma (1 - COUNT_SHIFT), so that no count is
    # made, or a count of n eigenvalues above sigma (1 + COUNT_SHIFT)
    k, n = 1.0, 2
    counted = rt.solve_lambda_n(mesh64, profile, params, k, n)
    if miss == "above":
        evaluate = growth_solver.branch_evaluation

        def lowered(pencil, m, block=None):
            ev = evaluate(pencil, m, block)
            if block is None or pencil.lam != counted.lambda_n:
                return ev
            return dataclasses.replace(
                ev, gamma=ev.gamma * (1.0 - 2.0 * COUNT_SHIFT))
        monkeypatch.setattr(growth_solver, "branch_evaluation", lowered)
    else:
        monkeypatch.setattr(growth_solver, "inertia_count",
                            lambda pencil, sigma: n)
    rec = rt.solve_lambda_n(mesh64, profile, params, k, n)
    dense = branch_evaluation(
        rt.assemble_B(mesh64, profile, params, k, rec.lambda_n), n)
    assert dense.dense
    residual = abs(params.g * k * k * dense.gamma - rec.lambda_n)
    assert rec == dataclasses.replace(counted, residual=residual)
    assert rec.converged
    # the warm evaluation is still made, and the dense one after it
    assert rec.stats.dense_solves == counted.stats.dense_solves + 1
    assert rec.stats.block_evaluations == counted.stats.block_evaluations
    assert rec.stats.inertia_counts == (miss == "below")


def test_certificate_gamma_is_a_lower_bound(profile, params, mesh64,
                                            monkeypatch):
    # the certificate's warm gamma is a Ritz value, so interlacing keeps it
    # at or below the dense gamma_n, up to rounding
    warm = {}
    evaluate = growth_solver.branch_evaluation

    def recorded(pencil, n, block=None):
        ev = evaluate(pencil, n, block)
        if block is not None and ev is not None:
            warm[pencil.lam, n] = ev.gamma
        return ev
    monkeypatch.setattr(growth_solver, "branch_evaluation", recorded)
    records = rt.dispersion(mesh64, profile, params,
                            np.geomspace(0.25, 4.0, 5), 4)
    for rec in records:
        assert rec.converged and rec.stats.dense_solves == 0
        dense = evaluate(rt.assemble_B(mesh64, profile, params, rec.k,
                                       rec.lambda_n), rec.n)
        assert warm[rec.lambda_n, rec.n] <= dense.gamma * (1.0 + 1e-10)


@pytest.mark.parametrize("mu, solved", [(1e12, set()),
                                        (1e10, {(0.25, 1), (1.0, 1), (4.0, 1)})])
def test_rate_below_floor_is_not_an_absent_branch(profile, mu, solved):
    # both branches are present, and f <= 0 at the bracket floor: their
    # rates lie below it (g k^2 gamma_1 is 7.5e-14 at k = 0.25 for mu = 1e12)
    params = rt.PhysicalParams(mu=mu, g=1.0)
    mesh = rt.build_mesh(1.0, 16)
    floor = BRACKET_FLOOR * rt.char_length(profile, params.g)[1]
    records = rt.dispersion(mesh, profile, params,
                            np.geomspace(0.25, 4.0, 3), 2)
    assert {(r.k, r.n) for r in records if r.converged} == solved
    for rec in records:
        if rec.converged:
            continue
        assert rec.reason == RATE_BELOW_FLOOR
        assert math.isnan(rec.lambda_n)
        gammas = gamma_values(rt.assemble_B(mesh, profile, params, rec.k,
                                            floor), 2)
        assert gammas.size == 2
        assert 0.0 < params.g * rec.k**2 * gammas[rec.n - 1] <= floor


def test_thin_layer_branch_under_the_drop_level_at_the_cap_is_present(params):
    # at a = 1e-4, gamma_4 at the cap (about 1e-16) lies under the drop
    # level there, yet branch 4 is present at the bracket floor, where f
    # is negative: its rate lies below the floor, and the branch exists
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=2.0, a=1e-4)
    mesh = rt.build_mesh(profile.a, 64)
    cap = rt.char_length(profile, params.g)[1]
    k_values = np.geomspace(0.25, 4.0, 5)
    records = rt.dispersion(mesh, profile, params, k_values, 4)
    assert [r.converged for r in records] == [True, False, False, False] * 5
    assert {r.reason for r in records if not r.converged} == {RATE_BELOW_FLOOR}
    for k in k_values:
        lowers, upper = growth_solver._bracket_ends(mesh, profile, params, k,
                                                    4, cap)
        assert len(lowers) == 4 and upper.size < 4
    assert rt.solve_lambda_n(mesh, profile, params, 1.0, 4).reason == (
        RATE_BELOW_FLOOR)


# (kind, rho_plus, mu, g, k, a), chosen before the law was checked on them
WEYL_SETS = [("bump", 2.0, 1.0, 1.0, 1.0, 1.0),
             ("quintic", 1e3, 0.1, 2.0, 0.25, 0.5),
             ("bump", 1.1, 20.0, 0.04, 2.0, 2.0),
             ("quintic", 10.0, 1.0, 1.0, 8.0, 1.0),
             ("bump", 100.0, 5.0, 0.5, 0.5, 1.0)]


@pytest.mark.parametrize("kind, rho_plus, mu, g, k, a", WEYL_SETS)
def test_high_branches_follow_the_weyl_law(kind, rho_plus, mu, g, k, a):
    # infinitely many modes, and how they accumulate at 0: as lambda_n -> 0
    # the pencil tends to drho0 phi = gamma mu (d^2 - k^2)^2 phi, whose
    # Liouville-Green phase gives lambda_n ~ C / (n - beta)^4 with
    # C = (g k^2 / mu) (I / pi)^4, I = integral of drho0^(1/4) over the
    # layer; so x_n = (lambda_n / C)^(-1/4) is spaced by 1 as n grows
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=rho_plus, a=a,
                                kind=kind)
    params = rt.PhysicalParams(mu=mu, g=g)
    records = rt.dispersion(rt.build_mesh(a, 128), profile, params, [k], 24)
    assert all(r.converged for r in records)
    integral = scipy.integrate.quad(lambda x: float(profile.drho0(x)) ** 0.25,
                                    -a, 0.0, epsabs=0.0, epsrel=1e-12,
                                    limit=200)[0]
    c = g * k * k / mu * (integral / math.pi) ** 4
    x = (np.array([r.lambda_n for r in records]) / c) ** -0.25
    spacing = np.diff(x)[11:20]  # x_{n+1} - x_n for n = 12 ... 20
    assert np.abs(spacing - 1.0).max() <= 0.035


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_surface_weight_is_solved(params):
    # at rho+ = 1e300 the surface weight g k^2 rho+ / lam of K overflows
    # near the bracket floor; the rates there agree with rho+ = 1e250,
    # where it does not, as both are in the limit of a heavy surface
    mesh = rt.build_mesh(1.0, 8)
    k_values = np.geomspace(0.25, 4.0, 3)
    heavy, lighter = (
        rt.dispersion(mesh, rt.DensityProfile(1.0, rho_plus, 1.0), params,
                      k_values, 2)
        for rho_plus in (1e300, 1e250))
    for a, b in zip(heavy, lighter):
        assert a.converged and b.converged
        assert abs(a.lambda_n - b.lambda_n) <= 1e-9 * b.lambda_n


def test_growth_cap_below_its_minimum_is_a_config_error(profile):
    # the square of the bracket floor BRACKET_FLOOR * cap would underflow
    params = rt.PhysicalParams(mu=1.0, g=1e-300)
    assert 0.0 < rt.char_length(profile, params.g)[1] < MIN_GROWTH_CAP
    with pytest.raises(ConfigError, match="growth-rate cap"):
        rt.solve_lambda_n(rt.build_mesh(1.0, 8), profile, params, 1.0, 1)
