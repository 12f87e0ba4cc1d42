import itertools
import math

import numpy as np
import pytest

import rtspec as rt
from rtspec import _lapack, growth_solver, spectral_core
from rtspec.discretization import (
    BANDWIDTH,
    ENDPOINT_DOFS,
    assemble_boundary_forms,
    assemble_h2_form,
    assemble_weighted_gradient_form,
    dense,
    layer_forms,
)
from rtspec.errors import CoercivityError
from rtspec.spectral_core import (
    DROP_THRESHOLD,
    branch_evaluation,
    dense_branches,
)

from oracle_collocation import oracle_gammas


class ReshapedGradientProfile:
    """Same rho0 as the wrapped profile, different drho0 shape.

    Duck-typed stand-in used to show the coercivity ratio never sees the
    stratification gradient.
    """

    def __init__(self, base):
        self._base = base
        self.rho_minus = base.rho_minus
        self.rho_plus = base.rho_plus
        self.a = base.a

    def rho0(self, x):
        return self._base.rho0(x)

    def drho0(self, x):
        x = np.asarray(x, dtype=float)
        t = np.clip((x + self.a) / self.a, 0.0, 1.0)
        return np.sin(np.pi * t) ** 2


def test_assemble_B_structure(profile, params, mesh64):
    pencil = rt.assemble_B(mesh64, profile, params, 1.0, 0.1)
    kmat = dense(pencil.K_band)
    assert np.abs(kmat - kmat.T).max() == 0.0
    np.linalg.cholesky(kmat)  # SPD


@pytest.mark.parametrize("n_elements", [64, 128])
def test_assemble_B_adds_endpoint_blocks_at_endpoint_dofs(profile, params,
                                                          n_elements):
    # K is lam WGRAD + mu H2 + BV0 + BVA bit for bit, with each 4x4
    # endpoint block standing for the N x N matrix it is embedded in
    k, lam = 1.3, 0.2
    mesh = rt.build_mesh(profile.a, n_elements)
    h2 = dense(assemble_h2_form(mesh, k))
    wgrad = dense(assemble_weighted_gradient_form(mesh, profile, k))
    embedded = []
    for form in assemble_boundary_forms(k, lam, params, profile):
        full = np.zeros_like(h2)
        full[np.ix_(ENDPOINT_DOFS, ENDPOINT_DOFS)] = form
        embedded.append(full)
    expected = lam * wgrad + params.mu * h2 + embedded[0] + embedded[1]
    pencil = rt.assemble_B(mesh, profile, params, k, lam)
    assert pencil.K_band.shape == (BANDWIDTH + 1, mesh.dof_count)
    assert np.array_equal(dense(pencil.K_band), expected)
    assert pencil.Mw_band is layer_forms(mesh, profile)[3]


def test_degenerate_profile_keeps_operator_spd(degenerate_profile, params,
                                               mesh64):
    pencil = rt.assemble_B(mesh64, degenerate_profile, params, 1.0, 0.1)
    assert np.abs(pencil.Mw_band).max() == 0.0
    np.linalg.cholesky(dense(pencil.K_band))


def test_rate_dependence_is_gradient_form_plus_boundary(profile, params,
                                                        mesh64):
    lam1, lam2, k = 0.2, 0.7, 1.0
    k1 = dense(rt.assemble_B(mesh64, profile, params, k, lam1).K_band)
    k2 = dense(rt.assemble_B(mesh64, profile, params, k, lam2).K_band)
    wgrad = dense(assemble_weighted_gradient_form(mesh64, profile, k))
    interior = np.ones(mesh64.dof_count, bool)
    interior[[0, 1, -2, -1]] = False
    diff = (k2 - k1)[np.ix_(interior, interior)]
    expected = (lam2 - lam1) * wgrad[np.ix_(interior, interior)]
    # cancellation noise scales with the large fourth-order entries of K
    tol = 16 * np.finfo(float).eps * np.abs(k2).max()
    assert np.abs(diff - expected).max() <= tol


def test_operator_coercivity_on_random_vectors(profile, params, mesh64):
    k, lam = 1.0, 0.3
    pencil = rt.assemble_B(mesh64, profile, params, k, lam)
    kmat, h2 = dense(pencil.K_band), dense(assemble_h2_form(mesh64, k))
    bound = rt.coercivity_bound(k * mesh64.a)
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = rng.standard_normal(mesh64.dof_count)
        assert (c @ kmat @ c / params.mu
                >= bound * (c @ h2 @ c) * (1.0 - 1e-12))


def test_gamma_spectrum_contract(profile, params, mesh64):
    pencil = rt.assemble_B(mesh64, profile, params, 1.0, 0.1)
    spec = rt.gamma_spectrum(pencil, 6)
    assert spec.complete
    assert np.all(np.diff(spec.gammas) < 0.0)
    assert np.all(spec.gammas > 0.0)
    # the relative-residual floor is eps * cond(K) ~ 3e-9 at this mesh;
    # the pairs themselves cannot be measured more accurately in doubles
    assert spec.max_residual <= 1e-8
    # vectors are K-orthonormal (same eps * cond(K) floor)
    gram = spec.vectors.T @ dense(pencil.K_band) @ spec.vectors
    assert np.abs(gram - np.eye(6)).max() <= 1e-8
    # eigenvalue-only path agrees
    vals = rt.gamma_values(pencil, 6)
    assert np.allclose(vals, spec.gammas, rtol=1e-12)


@pytest.mark.parametrize("k", [0.3, 1.0, 3.0])
def test_branch_evaluation_against_dense_pencil(profile, params, mesh64, k):
    # the refined gammas are the pencil's eigenvalues (to the noise of the
    # dense eigenvalues, 2.4e-8 at k = 0.3 and lam = 1e-4), and their slopes
    # the central differences of the refined gammas
    def evaluation(lam):
        pencil = rt.assemble_B(mesh64, profile, params, k, lam)
        branches = dense_branches(pencil, 4)
        gammas = np.array([ev.gamma for ev in branches])
        subset = [branch_evaluation(pencil, n).gamma
                  for n in (1, 2, 3, 4)]
        assert np.allclose(subset, gammas, rtol=1e-12)
        return (rt.gamma_values(pencil, 4), gammas,
                np.array([ev.slope for ev in branches]))

    for lam in (1e-4, 0.02, 0.1):
        values, gammas, slopes = evaluation(lam)
        assert np.allclose(gammas, values, rtol=1e-7)
        step = 1e-4 * lam
        central = (evaluation(lam + step)[1]
                   - evaluation(lam - step)[1]) / (2.0 * step)
        assert np.abs(central - slopes).max() <= 1e-6 * np.abs(slopes).max()


def test_gamma_spectrum_empty_for_degenerate(degenerate_profile, params,
                                             mesh64):
    pencil = rt.assemble_B(mesh64, degenerate_profile, params, 1.0, 0.1)
    spec = rt.gamma_spectrum(pencil, 3)
    assert len(spec) == 0
    assert not spec.complete
    assert dense_branches(pencil, 3) == []
    assert branch_evaluation(pencil, 1) is None


def test_gamma_scales_linearly_with_mass(profile, params, mesh64):
    import dataclasses
    pencil = rt.assemble_B(mesh64, profile, params, 1.0, 0.1)
    scaled = dataclasses.replace(
        pencil, Mw_band=3.0 * pencil.Mw_band)
    g1 = rt.gamma_spectrum(pencil, 4).gammas
    g3 = rt.gamma_spectrum(scaled, 4).gammas
    assert np.allclose(g3, 3.0 * g1, rtol=1e-12)


def test_positive_branch_count_grows_with_refinement(profile, params):
    counts = []
    for n in (16, 32, 64):
        mesh = rt.build_mesh(1.0, n)
        pencil = rt.assemble_B(mesh, profile, params, 1.0, 0.1)
        spec = rt.gamma_spectrum(pencil, 10_000)
        counts.append(len(spec))
    assert counts[0] < counts[1] < counts[2]


def test_gamma_against_collocation_oracle(profile, params):
    # Two unrelated discretizations of the same pencil.  Branch 4 needs a
    # finer mesh for its share of the tolerance; the first three sit at
    # the double-precision floor already at 128 elements.
    oracle = oracle_gammas(profile, params, 1.0, 0.1, 4)
    spec128 = rt.gamma_spectrum(
        rt.assemble_B(rt.build_mesh(1.0, 128), profile, params, 1.0, 0.1), 4)
    rel = np.abs(spec128.gammas[:3] - oracle[:3]) / oracle[:3]
    assert rel.max() <= 2e-8
    spec256 = rt.gamma_spectrum(
        rt.assemble_B(rt.build_mesh(1.0, 256), profile, params, 1.0, 0.1), 4)
    assert abs(spec256.gammas[3] - oracle[3]) / oracle[3] <= 2e-8


def test_boundary_quotient_spectrum_closed_forms(mesh64):
    for ka in (0.5, 1.0, 2.0):
        computed = rt.boundary_quotient_spectrum(mesh64, ka)
        s = math.sinh(ka)
        closed = np.array([1.0, 1.0,
                           -(s - ka) / (3.0 * s + ka),
                           -(s + ka) / (3.0 * s - ka)])
        assert computed.size == 4
        assert np.abs(computed - closed).max() <= 1e-6


def test_boundary_quotient_max_is_one(mesh64):
    for ka in (0.5, 0.8, 1.0, 1.7, 2.0, 3.0, 6.0):
        vals = rt.boundary_quotient_spectrum(mesh64, ka)
        assert abs(vals[0] - 1.0) <= 1e-6
        assert abs(vals[1] - 1.0) <= 1e-6


def test_boundary_quotient_min_limit(mesh64):
    vals = rt.boundary_quotient_spectrum(mesh64, 20.0)
    assert abs(vals.min() + 1.0 / 3.0) <= 1e-3


def test_coercivity_ratio_respects_bound(profile, params, mesh64, growth_cap):
    for k in (0.5, 1.0, 2.0):
        bound = rt.coercivity_bound(k * mesh64.a)
        for lam in np.linspace(growth_cap / 10, growth_cap, 10):
            ratio = rt.coercivity_ratio(mesh64, profile, params, k, float(lam))
            assert ratio >= bound - 1e-9


def test_coercivity_bound_value():
    s1 = math.sinh(1.0)
    assert rt.coercivity_bound(1.0) == pytest.approx(
        2 * (s1 - 1.0) / (3 * s1 - 1.0), rel=1e-15)


def test_coercivity_ratio_ignores_gradient_shape(profile, params, mesh64):
    reshaped = ReshapedGradientProfile(profile)
    r1 = rt.coercivity_ratio(mesh64, profile, params, 1.0, 0.3)
    r2 = rt.coercivity_ratio(mesh64, reshaped, params, 1.0, 0.3)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_drop_threshold_is_tiny():
    assert DROP_THRESHOLD <= 1e-12


def indefinite_h2_form(variant):
    """``assemble_h2_form`` with H2 replaced by the band of a symmetric
    indefinite matrix."""

    def form(mesh, k):
        h2 = assemble_h2_form(mesh, k)
        bad = -h2
        if variant == "outer-band":
            # positive diagonal, but a 2x2 principal minor on the outermost
            # band diagonal is negative
            bad = h2.copy()
            bad[BANDWIDTH, bad.shape[1] // 2] = 10.0 * np.abs(bad).max()
        return bad

    return form


@pytest.mark.parametrize("n_elements", [64, 128])
@pytest.mark.parametrize("variant", ["negated", "outer-band"])
def test_assemble_B_rejects_indefinite_operator(profile, params, n_elements,
                                                variant, monkeypatch):
    mesh = rt.build_mesh(profile.a, n_elements)
    monkeypatch.setattr(spectral_core, "assemble_h2_form",
                        indefinite_h2_form(variant))
    with pytest.raises(CoercivityError):
        rt.assemble_B(mesh, profile, params, 1.0, 0.5)


def test_dense_matrices_are_built_only_for_dense_solves(profile, params,
                                                         mesh64, monkeypatch):
    k, lam = 1.0, 0.3
    start = branch_evaluation(rt.assemble_B(mesh64, profile, params, k, lam), 2)
    built = []

    def counted(band):
        built.append(band.shape)
        return dense(band)
    monkeypatch.setattr(spectral_core, "dense", counted)
    pencil = rt.assemble_B(mesh64, profile, params, k, 1.01 * lam)
    assert built == []
    warm = branch_evaluation(pencil, 2, start.block)
    assert not warm.dense and built == []
    cold = branch_evaluation(pencil, 2)
    assert cold.dense
    # the constrained Mw and K, one DOF short of the full pencil
    assert built == [(BANDWIDTH + 1, mesh64.dof_count - 1)] * 2


def test_gamma_spectrum_constrains_each_band_once(profile, params, mesh64,
                                                   monkeypatch):
    calls = []

    def counted(band, row):
        calls.append(band.shape)
        return constrained(band, row)
    constrained = spectral_core._constrained
    monkeypatch.setattr(spectral_core, "_constrained", counted)
    rt.gamma_spectrum(rt.assemble_B(mesh64, profile, params, 1.0, 0.3), 3)
    assert len(calls) == 2


def test_each_pencil_is_factored_once(profile, params, mesh64, monkeypatch):
    # assemble_B factors the constrained K and the warm step reuses it
    factored = []

    def counted(band):
        factored.append(band.shape)
        return cholesky(band)
    cholesky = _lapack.cholesky_band
    monkeypatch.setattr(_lapack, "cholesky_band", counted)
    k, lam = 1.0, 0.3
    start = branch_evaluation(rt.assemble_B(mesh64, profile, params, k, lam), 2)
    pencil = rt.assemble_B(mesh64, profile, params, k, 1.01 * lam)
    assert factored == [(BANDWIDTH + 1, mesh64.dof_count - 1)] * 2
    warm = branch_evaluation(pencil, 2, start.block)
    assert not warm.dense and warm.iterations > 0
    assert len(factored) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho_plus", [1e303, 1e306])
def test_warm_step_where_the_surface_weight_overflows(params, mesh64,
                                                      rho_plus):
    # at the bracket floor g k^2 rho+ / lam overflows in K's corner, and
    # the stopping test's squares of |Mw x| overflow; the warm step from
    # the floor at the previous k still converges, to the dense branch
    profile = rt.DensityProfile(rho_minus=1.0, rho_plus=rho_plus, a=1.0)
    floor = growth_solver.BRACKET_FLOOR * rt.char_length(profile, params.g)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # in the assembly
        start, pencil = (rt.assemble_B(mesh64, profile, params, k, floor)
                         for k in (1.0, 1.1))
    assert np.isinf(pencil.K_band[:, -4:]).any()
    blocks = dense_branches(start, 4)
    for n in (1, 4):
        warm = branch_evaluation(pencil, n, blocks[n - 1].block)
        cold = branch_evaluation(pencil, n)
        assert not warm.dense and cold.dense
        assert abs(warm.gamma - cold.gamma) <= 1e-11 * cold.gamma


def test_stopping_test_does_not_depend_on_the_scale():
    # the warm step's residual test decides alike on vectors scaled by 2^e,
    # whether their squared norms overflow (e >= 512 here) or not, and
    # fails wherever an entry is not finite
    rng = np.random.default_rng(7)
    m_n = rng.standard_normal(129)
    decisions = []
    with np.errstate(over="ignore"):  # as in _subspace_iteration
        for rel in (1e-7, 1e-5):  # residuals below and above _BLOCK_RTOL
            kx = m_n + rel * np.abs(m_n).max() * rng.standard_normal(129)
            decisions.append({bool(spectral_core._converged(np.ldexp(m_n, e),
                                                            np.ldexp(kx, e)))
                              for e in (0, 300, 600, 1000)})
        for bad in (np.inf, np.nan):
            for scale in (1.0, 2.0**600):
                broken = m_n.copy()
                broken[3] = bad
                assert not spectral_core._converged(scale * broken, scale * m_n)
                assert not spectral_core._converged(scale * m_n, scale * broken)
    assert decisions == [{True}, {False}]


def test_sweep_factors_once_per_pencil(profile, params, mesh64, monkeypatch):
    factored, assembled = [], []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(None)
            return fn(*args)
        return wrapper
    monkeypatch.setattr(_lapack, "cholesky_band",
                        counted(factored, _lapack.cholesky_band))
    monkeypatch.setattr(growth_solver, "assemble_B",
                        counted(assembled, growth_solver.assemble_B))
    records = rt.dispersion(mesh64, profile, params,
                            np.geomspace(0.25, 4.0, 20), 4)
    assert all(r.converged for r in records)
    # one factorization per pencil: every warm step reuses assemble_B's
    assert len(factored) == len(assembled) == 395


def test_sweep_certifies_records_by_counts(profile, params, mesh64,
                                           monkeypatch):
    calls = {"dsygvx": 0, "dsytrf": 0}

    def counted(name):
        routine = getattr(_lapack, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(_lapack, name, counted(name))
    records = rt.dispersion(mesh64, profile, params,
                            np.geomspace(0.25, 4.0, 20), 4)
    assert all(r.converged for r in records)
    # the only subset eigensolves are the upper bracket ends, one per k;
    # every record is certified by two inertia counts
    assert calls == {"dsygvx": 20, "dsytrf": 2 * len(records)}


@pytest.mark.parametrize("run", ["sweep", "lambda-max"])
def test_sweeps_decompose_only_the_first_floor(profile, params, mesh64,
                                               monkeypatch, run):
    # one full dsygvd of the pencil, at the first k's bracket floor: each
    # later floor starts from its branch's vectors at the previous k (the
    # small dsygvd calls are the warm steps' Rayleigh-Ritz pencils)
    rows = []
    dsygvd = _lapack.dsygvd

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return dsygvd(a, *args, **kwargs)
    monkeypatch.setattr(_lapack, "dsygvd", counted)
    if run == "sweep":
        records = rt.dispersion(mesh64, profile, params,
                                np.geomspace(0.25, 4.0, 20), 4)
    else:
        records = rt.lambda_max(mesh64, profile, params, 8.0).records
        assert len(records) == 29
    assert all(r.converged for r in records)
    assert rows.count(mesh64.dof_count - 1) == 1
    assert max(rows[1:]) <= 4 + spectral_core._GUARD_VECTORS


def test_inertia_count_is_the_number_of_eigenvalues_above(
        profile, params, growth_cap, monkeypatch):
    two_by_two = []

    def recorded(a):
        ldu, ipiv = ldl(a)
        two_by_two.append(np.count_nonzero(ipiv < 0))
        return ldu, ipiv
    ldl = _lapack.ldl
    monkeypatch.setattr(_lapack, "ldl", recorded)
    for n_elements, k in itertools.product((16, 64, 128), (0.25, 1.0, 4.0)):
        mesh = rt.build_mesh(profile.a, n_elements)
        for lam in growth_cap * np.array([1e-6, 1e-2, 0.3, 1.0]):
            pencil = rt.assemble_B(mesh, profile, params, k, lam)
            vals = spectral_core._dense_pairs(pencil)[0]
            top = vals[:6]
            # above the spectrum, between branches, and on either side of
            # each branch as a certificate counts
            sigmas = np.concatenate([[2.0 * top[0]], np.sqrt(top[:-1] * top[1:]),
                                     top * (1.0 - 1e-6), top * (1.0 + 1e-6)])
            for sigma in sigmas:
                assert (spectral_core.inertia_count(pencil, sigma)
                        == np.count_nonzero(vals > sigma))
    # 2x2 pivots are common at 16 elements and rare at 64 and 128
    assert sum(two_by_two) > 0


def _trial_map(n, row):
    """The N x (N - 1) trial map T that fills the last DOF with
    row . x[-4:-1]."""
    t = np.eye(n, n - 1)
    t[-1, -3:] = row
    return t


def _random_band(n, seed):
    """The lower band of a random symmetric matrix, empty past its last row."""
    band = np.random.default_rng(seed).standard_normal((BANDWIDTH + 1, n))
    for d in range(1, BANDWIDTH + 1):
        band[d, n - d:] = 0.0
    return band


@pytest.mark.parametrize("n_elements", [2, 16])
def test_constrained_band_is_the_reduced_form(profile, params, n_elements):
    mesh = rt.build_mesh(profile.a, n_elements)
    pencil = rt.assemble_B(mesh, profile, params, 1.3, 0.2)
    row = pencil.moment_row
    t = _trial_map(mesh.dof_count, row)
    for band in (_random_band(mesh.dof_count, n_elements), pencil.K_band,
                 pencil.Mw_band):
        reduced = dense(spectral_core._constrained(band, row))
        expected = t.T @ dense(band) @ t
        assert np.abs(reduced - expected).max() <= (
            1e-15 * np.abs(expected).max())


@pytest.mark.parametrize("columns", [None, 1, 3])
def test_band_apply_is_the_dense_product(columns):
    n = 34
    band = _random_band(n, 5)
    shape = (n,) if columns is None else (n, columns)
    x = np.random.default_rng(6).standard_normal(shape)
    matrix = dense(band)
    expected = matrix @ x
    product = spectral_core._band_apply(band, x)
    assert product.shape == expected.shape
    # both sums of 2 * BANDWIDTH + 1 products round within that many eps
    # of the sum of magnitudes
    terms = 2 * BANDWIDTH + 1
    bound = 2 * terms * np.finfo(float).eps * (np.abs(matrix) @ np.abs(x))
    assert np.all(np.abs(product - expected) <= bound)
