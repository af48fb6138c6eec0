"""Tests for the kernel construction.

Oracles: hand Gram-Schmidt for the uniform base (Var of U(0, 1/2) is 1/48,
so psi_1 = sqrt(48) (x - 1/4)); the reproducing-kernel closed form for the
coefficient vector, c_i = (-1)^i sqrt(2i + 1), which follows from
psi_i(x) = sqrt(2i+1) P_i(4x - 1) with P_i the Legendre polynomials and
psi_i(0) = sqrt(2i+1) (-1)^i; and independent Gauss-Legendre quadrature
written out in this file.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from mirrorsobol.errors import MirrorSobolError
from mirrorsobol.kernels import (
    KernelD,
    build_kernel,
    build_kernel_1d,
    build_orthonormal_basis,
    custom_base,
    kernel_from_spec,
    kernel_to_spec,
    monomial_coordinates,
    solve_kernel_coefficients,
    tensorize,
    uniform_half,
    verify_order,
)

SQRT48 = np.sqrt(48.0)


def gl_nodes(n, a, b):
    """Independent Gauss-Legendre rule on [a, b] for use as a test oracle."""
    x, w = np.polynomial.legendre.leggauss(n)
    return a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w


# ---------------------------------------------------------------- base density


def test_uniform_half_moments_closed_form():
    base = uniform_half(4)
    j = np.arange(9)
    np.testing.assert_allclose(base.moments, 0.5**j / (j + 1.0), rtol=0, atol=1e-15)


def test_uniform_half_moments_match_quadrature():
    base = uniform_half(3)
    for j in range(7):
        ref, _ = quad(lambda x, j=j: x**j * 2.0, 0.0, 0.5)
        assert abs(base.moments[j] - ref) < 1e-14, f"moment {j}: {base.moments[j]} vs {ref}"


def test_custom_base_requires_unit_mass():
    with pytest.raises(MirrorSobolError):
        custom_base(lambda x: np.full_like(np.asarray(x, float), 3.0), (0.0, 0.5), 1)


def test_custom_base_recovers_uniform():
    base = custom_base(lambda x: np.full_like(np.asarray(x, float), 2.0), (0.0, 0.5), 2)
    np.testing.assert_allclose(base.moments, uniform_half(2).moments, atol=1e-12)


# ------------------------------------------------------------ orthonormal basis


def test_psi0_is_constant_one():
    basis = build_orthonormal_basis(uniform_half(0), 0)
    np.testing.assert_allclose(basis.coeffs, [[1.0]], atol=1e-14)


def test_psi1_hand_gram_schmidt():
    # center x at its mean 1/4, normalize by std of U(0, 1/2) = 1/sqrt(48)
    basis = build_orthonormal_basis(uniform_half(1), 1)
    np.testing.assert_allclose(basis.coeffs[1], [-SQRT48 / 4.0, SQRT48], rtol=1e-13)


def test_basis_is_lower_triangular_with_positive_diagonal():
    basis = build_orthonormal_basis(uniform_half(5), 5)
    assert np.allclose(np.triu(basis.coeffs, 1), 0.0)
    assert np.all(np.diag(basis.coeffs) > 0)


@pytest.mark.parametrize("k", [1, 3, 6, 10])
def test_orthonormality_by_quadrature(k):
    basis = build_orthonormal_basis(uniform_half(k), k)
    x, w = gl_nodes(64, 0.0, 0.5)
    vals = np.array([basis.eval(m, x) for m in range(k + 1)])
    gram = (vals * (2.0 * w)) @ vals.T
    resid = np.max(np.abs(gram - np.eye(k + 1)))
    assert resid < 1e-10, f"orthonormality residual {resid:.3e} at k={k}"


def test_basis_rejects_bad_order():
    with pytest.raises(MirrorSobolError):
        build_orthonormal_basis(uniform_half(1), -1)
    with pytest.raises(MirrorSobolError):
        uniform_half(11)


# -------------------------------------------------------- monomial coordinates


def test_lambda0_is_first_unit_vector():
    basis = build_orthonormal_basis(uniform_half(3), 3)
    np.testing.assert_allclose(monomial_coordinates(0, basis), [1, 0, 0, 0], atol=1e-14)


def test_lambda1_hand_value():
    # x = (1/4) psi_0 + (1/sqrt(48)) psi_1
    basis = build_orthonormal_basis(uniform_half(2), 2)
    np.testing.assert_allclose(monomial_coordinates(1, basis), [0.25, 1.0 / SQRT48, 0.0], atol=1e-13)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_lambda_matches_quadrature(m):
    # lambda_i^m = int x^m psi_i f_0
    k = 3
    basis = build_orthonormal_basis(uniform_half(k), k)
    lam = monomial_coordinates(m, basis)
    x, w = gl_nodes(64, 0.0, 0.5)
    for i in range(k + 1):
        ref = np.sum(w * x**m * basis.eval(i, x) * 2.0)
        assert abs(lam[i] - ref) < 1e-12, f"lambda_{i}^{m}: {lam[i]} vs {ref}"


def test_lambda_leading_entry_nonzero():
    k = 4
    basis = build_orthonormal_basis(uniform_half(k), k)
    assert monomial_coordinates(k, basis)[k] != 0.0


def test_lambda_degree_out_of_range():
    basis = build_orthonormal_basis(uniform_half(1), 1)
    with pytest.raises(MirrorSobolError):
        monomial_coordinates(2, basis)


# ------------------------------------------------------------ kernel coefficients


def test_coefficients_k0():
    basis = build_orthonormal_basis(uniform_half(0), 0)
    np.testing.assert_allclose(solve_kernel_coefficients(basis), [1.0], atol=1e-14)


def test_coefficients_k1_hand_solve():
    # c_0 = 1 and (1/4) c_0 + (1/sqrt(48)) c_1 = 0  =>  c_1 = -sqrt(3)
    basis = build_orthonormal_basis(uniform_half(1), 1)
    np.testing.assert_allclose(solve_kernel_coefficients(basis), [1.0, -np.sqrt(3.0)], rtol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6])
def test_coefficients_reproducing_kernel_form(k):
    # c_i = psi_i(0) = (-1)^i sqrt(2i + 1) for the uniform base
    basis = build_orthonormal_basis(uniform_half(k), k)
    c = solve_kernel_coefficients(basis)
    i = np.arange(k + 1)
    np.testing.assert_allclose(c, (-1.0) ** i * np.sqrt(2 * i + 1.0), rtol=1e-10)


# ----------------------------------------------------------------- 1-D kernels


def test_kernel_k0_is_base_density():
    k1 = build_kernel_1d(uniform_half(0), 0)
    x = np.array([0.0, 0.2, 0.5])
    np.testing.assert_allclose(k1.eval(x), [2.0, 2.0, 2.0], atol=1e-14)
    assert k1.eval(np.array([0.6]))[0] == 0.0
    assert k1.eval(np.array([-0.01]))[0] == 0.0


def test_kernel_k1_closed_form():
    # K_1(x) = 2 (1 - sqrt(3) psi_1(x)) = 8 - 24 x on [0, 1/2]
    k1 = build_kernel_1d(uniform_half(1), 1)
    x = np.linspace(0.0, 0.5, 11)
    np.testing.assert_allclose(k1.eval(x), 8.0 - 24.0 * x, rtol=1e-12)
    np.testing.assert_allclose(k1.full_coeffs, [8.0, -24.0], rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_moment_conditions_by_quadrature(k):
    k1 = build_kernel_1d(uniform_half(k), k)
    x, w = gl_nodes(64, 0.0, 0.5)
    vals = k1.eval(x)
    assert abs(np.sum(w * vals) - 1.0) < 1e-10
    for m in range(1, k + 1):
        mom = np.sum(w * x**m * vals)
        assert abs(mom) < 1e-8, f"moment {m} of order-{k} kernel is {mom:.3e}"


def test_kernel_k2_changes_sign():
    k1 = build_kernel_1d(uniform_half(2), 2)
    vals = k1.eval(np.linspace(0.0, 0.5, 201))
    assert vals.min() < 0.0 < vals.max()


def test_kernel_l2_norm_closed_form():
    # int K_1^2 dx = 2 sum c_i^2 = 2 (1 + 3 + 5) = 18 for k = 2
    k1 = build_kernel_1d(uniform_half(2), 2)
    x, w = gl_nodes(64, 0.0, 0.5)
    np.testing.assert_allclose(np.sum(w * k1.eval(x) ** 2), 18.0, rtol=1e-12)


# -------------------------------------------------------------- tensor kernels


def test_tensorize_d1_equals_factor():
    k1 = build_kernel_1d(uniform_half(2), 2)
    kd = tensorize(k1, 1)
    x = np.linspace(0.0, 0.5, 7)
    np.testing.assert_array_equal(kd.eval(x[:, None]), k1.eval(x))


def test_tensorize_rejects_zero_dim():
    k1 = build_kernel_1d(uniform_half(1), 1)
    with pytest.raises(MirrorSobolError):
        tensorize(k1, 0)


def test_tensor_moments_d2():
    kd = build_kernel(2, 2)
    x, w = gl_nodes(32, 0.0, 0.5)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    kvals = kd.eval(np.stack([xx1.ravel(), xx2.ravel()], axis=1)).reshape(xx1.shape)
    assert abs(np.sum(ww * kvals) - 1.0) < 1e-9
    assert abs(np.sum(ww * xx1 * xx2 * kvals)) < 1e-8
    assert abs(np.sum(ww * xx1**2 * kvals)) < 1e-8


def test_point_outside_support_is_zero():
    kd = build_kernel(1, 3)
    assert kd.eval(np.array([0.1, 0.7, 0.1])) == 0.0
    assert kd.eval(np.array([0.1, 0.2, -0.1])) == 0.0


# --------------------------------------------------------------------- scaling


def test_eval_scaled_at_zero_and_h1():
    kd = build_kernel(1, 2)
    h = 0.25
    np.testing.assert_allclose(kd.eval_scaled(np.zeros(2), h), kd.eval(np.zeros(2)) / h**2, rtol=1e-14)
    x = np.array([0.1, 0.3])
    np.testing.assert_allclose(kd.eval_scaled(x, 1.0), kd.eval(x), rtol=0, atol=0)


def test_eval_scaled_identity():
    kd = build_kernel(2, 2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 0.2, size=(40, 2))
    h = 0.37
    np.testing.assert_allclose(kd.eval_scaled(pts, h) * h**2, kd.eval(pts / h), rtol=1e-14)


@pytest.mark.parametrize("h", [0.1, 0.5])
def test_scaled_kernel_mass(h):
    kd = build_kernel(2, 1)
    x, w = gl_nodes(64, 0.0, h / 2.0)
    mass = np.sum(w * kd.eval_scaled(x[:, None], h))
    assert abs(mass - 1.0) < 1e-9, f"mass at h={h}: {mass}"


def test_eval_scaled_invalid_h():
    kd = build_kernel(1, 1)
    with pytest.raises(MirrorSobolError):
        kd.eval_scaled(np.array([0.1]), 0.0)
    with pytest.raises(MirrorSobolError):
        kd.eval_scaled(np.array([0.1]), -1.0)


def test_kernel_evaluation_is_deterministic():
    kd = build_kernel(3, 2)
    pts = np.random.default_rng(0).uniform(0, 0.5, size=(50, 2))
    np.testing.assert_array_equal(kd.eval(pts), kd.eval(pts.copy()))


# ---------------------------------------------------------------- verify_order


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_order_passes(k, d):
    report = verify_order(build_kernel(k, d), tol=1e-8)
    assert report["passed"], f"k={k} d={d}: {report}"
    assert report["mass_error"] <= 1e-9


def test_verify_order_high_order():
    report = verify_order(build_kernel(10, 1), tol=1e-8)
    assert report["passed"], report


def test_verify_order_nodes_rule():
    assert verify_order(build_kernel(1, 1))["nodes_per_axis"] == 16
    assert verify_order(build_kernel(8, 1))["nodes_per_axis"] == 18


# --------------------------------------------------------------- serialization


def test_kernel_spec_roundtrip():
    kd = build_kernel(3, 2)
    spec = kernel_to_spec(kd)
    assert spec == {"order": 3, "dim": 2, "base": "uniform_half"}
    again = kernel_from_spec(spec)
    assert isinstance(again, KernelD)
    pts = np.random.default_rng(1).uniform(0, 0.5, size=(20, 2))
    np.testing.assert_array_equal(again.eval(pts), kd.eval(pts))


def test_kernel_spec_rejects_custom_base():
    base = custom_base(lambda x: np.full_like(np.asarray(x, float), 2.0), (0.0, 0.5), 1)
    kd = tensorize(build_kernel_1d(base, 1), 1)
    with pytest.raises(MirrorSobolError):
        kernel_to_spec(kd)
    with pytest.raises(MirrorSobolError):
        kernel_from_spec({"order": 1, "dim": 1, "base": "gauss"})
