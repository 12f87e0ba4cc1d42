import math

import numpy as np
import pytest
import scipy.integrate

import rtspec as rt
from rtspec import discretization
from rtspec.discretization import (
    BANDWIDTH,
    ENDPOINT_DOFS,
    assemble_boundary_forms,
    assemble_h2_form,
    assemble_weighted_gradient_form,
    assemble_weighted_mass,
    boundary_quotient_form,
    dense,
    h2_parts,
    layer_forms,
    quadrature,
    quadrature_values,
    tau_decay,
)
from rtspec.errors import ConfigError


def constant_vector(mesh, value=1.0):
    c = np.zeros(mesh.dof_count)
    c[0::2] = value
    return c


def endpoint_value(block, v):
    """v^T A v for the N x N matrix A that a 4x4 endpoint block stands for."""
    return v[ENDPOINT_DOFS] @ block @ v[ENDPOINT_DOFS]


def linear_vector(mesh):
    c = np.empty(mesh.dof_count)
    c[0::2] = mesh.nodes
    c[1::2] = 1.0
    return c


def test_build_mesh_geometry():
    mesh = rt.build_mesh(1.0, 4)
    assert np.allclose(mesh.nodes, [-1.0, -0.75, -0.5, -0.25, 0.0])
    assert mesh.dof_count == 10
    assert rt.build_mesh(2.0, 2).h == 1.0


def test_mesh_nodes_derive_from_depth():
    assert np.array_equal(rt.Mesh(a=1.0, n_elements=4).nodes,
                          np.linspace(-1.0, 0.0, 5))
    assert np.array_equal(rt.build_mesh(0.7, 64).nodes,
                          np.linspace(-0.7, 0.0, 65))


def test_build_mesh_validation():
    with pytest.raises(ConfigError):
        rt.build_mesh(1.0, 1)
    with pytest.raises(ConfigError):
        rt.build_mesh(0.0, 4)


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_h2_form_on_polynomials(k):
    mesh = rt.build_mesh(1.0, 8)
    h2 = dense(assemble_h2_form(mesh, k))
    a = mesh.a
    one = constant_vector(mesh)
    assert one @ h2 @ one == pytest.approx(k**4 * a, rel=1e-13)
    lin = linear_vector(mesh)
    assert lin @ h2 @ lin == pytest.approx(2 * k**2 * a + k**4 * a**3 / 3,
                                           rel=1e-13)
    assert np.abs(h2 - h2.T).max() == 0.0


def test_h2_form_requires_positive_wavenumber(mesh64):
    with pytest.raises(ValueError):
        assemble_h2_form(mesh64, 0.0)


def test_weighted_gradient_uniform_density(degenerate_profile):
    mesh = rt.build_mesh(1.0, 8)
    k = 1.3
    wgrad = dense(assemble_weighted_gradient_form(mesh, degenerate_profile, k))
    one, lin = constant_vector(mesh), linear_vector(mesh)
    assert one @ wgrad @ one == pytest.approx(k**2, rel=1e-13)
    assert lin @ wgrad @ lin == pytest.approx(1.0 + k**2 / 3, rel=1e-13)


def test_weighted_forms_against_adaptive_quadrature(profile, mesh64):
    # independent oracle: scipy adaptive quadrature on the piecewise cubic
    k = 1.0
    wgrad = dense(assemble_weighted_gradient_form(mesh64, profile, k))
    wmass = dense(assemble_weighted_mass(mesh64, profile))
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(mesh64.dof_count)
        f = rt.HermiteFunction(mesh64, c)

        def grad_integrand(x):
            return profile.rho0(x) * (k**2 * f(x) ** 2 + f(x, 1) ** 2)

        def mass_integrand(x):
            return profile.drho0(x) * f(x) ** 2

        # the trial is only C1: split at every element boundary
        pieces = mesh64.nodes
        expected_g = sum(scipy.integrate.quad(grad_integrand, lo, hi,
                                              epsabs=1e-13, limit=100)[0]
                         for lo, hi in zip(pieces[:-1], pieces[1:]))
        expected_m = sum(scipy.integrate.quad(mass_integrand, lo, hi,
                                              epsabs=1e-13, limit=100)[0]
                         for lo, hi in zip(pieces[:-1], pieces[1:]))
        assert c @ wgrad @ c == pytest.approx(expected_g, rel=1e-10)
        assert c @ wmass @ c == pytest.approx(expected_m, rel=1e-10)


def test_weighted_mass_basics(profile, degenerate_profile, mesh64):
    zero = assemble_weighted_mass(rt.build_mesh(1.0, 16), degenerate_profile)
    assert np.abs(zero).max() == 0.0
    wm = dense(assemble_weighted_mass(mesh64, profile))
    one = constant_vector(mesh64)
    assert one @ wm @ one == pytest.approx(1.0, rel=1e-12)
    eigs = np.linalg.eigvalsh(wm)
    assert eigs.min() >= -1e-12 * np.abs(wm).max()


def test_tau_decay_value():
    assert tau_decay(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0),
                                                          rel=1e-15)


def test_boundary_forms_structure(profile, params):
    k, lam = 1.2, 0.4
    bv0, bva = assemble_boundary_forms(k, lam, params, profile)
    for form in (bv0, bva):
        assert form.shape == (4, 4)
        assert np.abs(form - form.T).max() == 0.0
        assert np.linalg.matrix_rank(form) <= 2
    with pytest.raises(ValueError):
        assemble_boundary_forms(k, 0.0, params, profile)


def test_bottom_form_completed_square_identity(profile, params, mesh64):
    # expansion oracle: (k+t)(y + k(k-t)/(k+t) x)^2
    #   + k(t(k+t)^2 - k(k-t)^2)/(k+t) x^2 - 2 k^2 x y  ==  BVA(x, y)/mu
    k, lam = 0.7, 0.9
    t = tau_decay(k, lam, profile.rho_minus, params.mu)
    _, bva = assemble_boundary_forms(k, lam, params, profile)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = rng.standard_normal(2)
        c = np.zeros(mesh64.dof_count)
        c[0], c[1] = x, y
        expanded = ((k + t) * (y + k * (k - t) / (k + t) * x) ** 2
                    + k * (t * (k + t) ** 2 - k * (k - t) ** 2) / (k + t) * x**2
                    - 2 * k**2 * x * y)
        assert endpoint_value(bva, c) == pytest.approx(params.mu * expanded,
                                                       rel=1e-12)
        # the bound used for coercivity
        assert endpoint_value(bva, c) / params.mu >= -2 * k**2 * x * y - 1e-12


def test_bottom_form_value_at_pure_slow_branch(profile, params, mesh64):
    k, lam = 1.0, 0.5
    t = tau_decay(k, lam, profile.rho_minus, params.mu)
    _, bva = assemble_boundary_forms(k, lam, params, profile)
    c = np.zeros(mesh64.dof_count)
    c[0], c[1] = 1.0, k
    expected = params.mu * (k * t * (k + t) - 2 * k**2 * t + k**2 * (k + t))
    assert endpoint_value(bva, c) == pytest.approx(expected, rel=1e-13)


def test_boundary_quotient_form(mesh64):
    k = 1.0
    q = boundary_quotient_form(k)
    assert np.linalg.matrix_rank(q) == 4
    # oracle: direct endpoint evaluation for the cosh interpolant
    c = np.empty(mesh64.dof_count)
    c[0::2] = np.cosh(k * mesh64.nodes)
    c[1::2] = k * np.sinh(k * mesh64.nodes)
    direct = 2 * k**2 * (c[-1] * c[-2] - c[1] * c[0])
    assert endpoint_value(q, c) == pytest.approx(direct, rel=1e-13)
    # interior-supported vector sees nothing
    rng = np.random.default_rng(1)
    c = rng.standard_normal(mesh64.dof_count)
    c[[0, 1, -2, -1]] = 0.0
    assert endpoint_value(q, c) == 0.0


def test_form_values_converge_at_fourth_order(profile):
    # fixed smooth target, interpolated per mesh; form error = O(h^4)
    k = 1.0

    def f(x):
        return np.sin(2.0 * x) * np.exp(x)

    def df(x):
        return (2.0 * np.cos(2.0 * x) + np.sin(2.0 * x)) * np.exp(x)

    def integrand(x):
        ddf = (4.0 * np.cos(2.0 * x) - 3.0 * np.sin(2.0 * x)) * np.exp(x)
        return ddf**2 + 2 * k**2 * df(x) ** 2 + k**4 * f(x) ** 2

    exact = scipy.integrate.quad(integrand, -1.0, 0.0, epsabs=1e-14)[0]
    errors = []
    for n in (8, 16, 32):
        mesh = rt.build_mesh(1.0, n)
        c = np.empty(mesh.dof_count)
        c[0::2] = f(mesh.nodes)
        c[1::2] = df(mesh.nodes)
        errors.append(abs(c @ dense(assemble_h2_form(mesh, k)) @ c - exact))
    rate1 = math.log2(errors[0] / errors[1])
    rate2 = math.log2(errors[1] / errors[2])
    assert rate1 > 3.7
    assert rate2 > 3.7


def test_hermite_function_evaluation(mesh64):
    rng = np.random.default_rng(9)
    c = rng.standard_normal(mesh64.dof_count)
    f = rt.HermiteFunction(mesh64, c)
    # nodal DOFs are reproduced exactly
    assert f(mesh64.nodes[3]) == pytest.approx(c[6], abs=1e-14)
    assert f(mesh64.nodes[3], 1) == pytest.approx(c[7], abs=1e-14)
    # derivatives consistent with finite differences mid-element
    x = float(mesh64.nodes[10]) + 0.4 * mesh64.h
    h = 1e-6
    fd = (f(x + h) - f(x - h)) / (2 * h)
    assert f(x, 1) == pytest.approx(fd, rel=1e-7)
    with pytest.raises(ValueError):
        f(0.5)
    with pytest.raises(ValueError):
        f(0.0, 4)


def test_hermite_function_domain_check_scales_with_the_layer():
    # the slack outside [-a, 0] was an absolute 1e-12: on a layer 1e-15
    # deep, a point 500 a above the surface was extrapolated to -3.2e10
    mesh = rt.build_mesh(1e-15, 4)
    f = rt.HermiteFunction(mesh, np.arange(mesh.dof_count, dtype=float))
    for x in (5e-13, -mesh.a - 5e-13):
        with pytest.raises(ValueError, match="outside"):
            f(x)
    assert f(0.0) == 8.0
    assert f(1e-28) == pytest.approx(8.0, rel=1e-12)  # rounding above 0


def test_interior_forms_positive_definite(profile, mesh64):
    for k in (0.5, 1.0, 2.0):
        np.linalg.cholesky(dense(assemble_h2_form(mesh64, k)))
        np.linalg.cholesky(dense(assemble_weighted_gradient_form(mesh64,
                                                                 profile, k)))


def test_quadrature_weights_integrate_exactly(mesh64):
    pts, wts = quadrature(mesh64)
    assert wts.sum() == pytest.approx(mesh64.a, rel=1e-14)
    assert (wts * pts).sum() == pytest.approx(-mesh64.a**2 / 2, rel=1e-13)


@pytest.mark.parametrize("n_elements", [64, 128])
def test_quadrature_values_match_hermite_evaluation(n_elements):
    mesh = rt.build_mesh(1.0, n_elements)
    x = quadrature(mesh)[0]
    assert x.ndim == 1
    c = np.random.default_rng(n_elements).standard_normal((mesh.dof_count, 2))
    values = quadrature_values(mesh, c)
    assert values.shape == (3, x.size, 2)
    single = quadrature_values(mesh, c[:, 0])
    assert np.abs(single - values[:, :, 0]).max() <= (
        1e-15 * np.abs(values).max())
    for col in range(2):
        f = rt.HermiteFunction(mesh, c[:, col])
        for m in range(3):
            expected = f(x, m)
            assert np.abs(values[m, :, col] - expected).max() <= (
                1e-13 * np.abs(expected).max())


FORM_MEMOS = (layer_forms,)


def _forms(mesh, profile):
    """The memos' values at one key, in ``FORM_MEMOS`` order."""
    return (layer_forms(mesh, profile),)


def test_form_cache_is_one_per_mesh_and_profile(profile):
    # meshes compare by value: an equal mesh built again shares the forms
    mesh, again = rt.build_mesh(1.0, 8), rt.build_mesh(1.0, 8)
    assert mesh == again and hash(mesh) == hash(again) and mesh is not again
    assert mesh != rt.build_mesh(1.0, 8, quadrature_points=12)
    first = _forms(mesh, profile)
    for shared, fresh in zip(first, _forms(again, profile)):
        assert shared is fresh


def test_form_cache_keeps_only_the_last_mesh_and_profile(profile,
                                                         quintic_profile):
    mesh = rt.build_mesh(1.0, 8)
    first = _forms(mesh, profile)
    _forms(mesh, quintic_profile)
    assert [memo.cache_info().currsize for memo in FORM_MEMOS] == [1]
    for old, new in zip(first, _forms(mesh, profile)):
        assert old is not new


def test_form_cache_arrays_are_read_only(profile):
    mesh = rt.build_mesh(1.0, 8)
    layer, = _forms(mesh, profile)
    assert assemble_weighted_mass(mesh, profile) is layer[3]
    for array in (*layer, *h2_parts(mesh)):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
def test_forms_combine_their_k_free_parts(profile, k):
    # H2 and WGRAD are the quadrature sums of their integrands at every k,
    # though quadrature ran only for the parts that do not depend on k
    mesh = rt.build_mesh(1.0, 16)
    w, rho = layer_forms(mesh, profile)[:2]
    c = np.random.default_rng(7).standard_normal((mesh.dof_count, 3))
    v, dv, ddv = quadrature_values(mesh, c)
    expected_h2 = w @ (ddv**2 + 2 * k**2 * dv**2 + k**4 * v**2)
    expected_wgrad = (w * rho) @ (k**2 * v**2 + dv**2)
    for form, expected in ((assemble_h2_form(mesh, k), expected_h2),
                           (assemble_weighted_gradient_form(mesh, profile, k),
                            expected_wgrad)):
        assert np.allclose(np.einsum("ij,ik,kj->j", c, dense(form), c),
                           expected, rtol=1e-12, atol=0.0)


def _dense_scatter(mesh, local):
    """The N x N symmetrized sum of element blocks, the reference for the
    banded ``_scatter``."""
    dofs = mesh.element_dofs
    full = np.zeros((mesh.dof_count, mesh.dof_count))
    np.add.at(full, (dofs[:, :, None], dofs[:, None, :]), local)
    return 0.5 * (full + full.T)


@pytest.mark.parametrize("n_elements", [2, 3, 16])
def test_band_scatter_holds_the_dense_sum_bit_for_bit(n_elements):
    # an unsymmetric local block: both triangles' sums enter the band
    mesh = rt.build_mesh(0.7, n_elements)
    local = np.random.default_rng(n_elements).standard_normal(
        (n_elements, 4, 4))
    band = discretization._scatter(mesh, local)
    assert band.shape == (BANDWIDTH + 1, mesh.dof_count)
    assert np.array_equal(dense(band), _dense_scatter(mesh, local))
    # the band positions past the matrix's last row stay empty
    for d in range(1, BANDWIDTH + 1):
        assert not band[d, mesh.dof_count - d:].any()


def test_peak_of_a_deep_layer_stays_on_the_layer():
    # nodes[:-1] + h overshoots x = 0 by 1.1e-11 on this mesh
    mesh = rt.build_mesh(243099.09876846595, 64)
    assert mesh.nodes[-2] + mesh.h > 1e-12
    coeffs = constant_vector(mesh)
    coeffs[-2] = -3.0
    assert rt.HermiteFunction(mesh, coeffs).peak() == pytest.approx(-3.0,
                                                                    rel=1e-14)
