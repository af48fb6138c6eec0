"""Tests for the kernel construction.

Oracles: the closed form of the kernel polynomial,
P(x) = sum_{i<=k} (2i+1) (-1)^i P_i(4x - 1) with P_i the Legendre
polynomials (the reproducing kernel at 0 of the orthonormal polynomials
psi_i(x) = sqrt(2i+1) P_i(4x - 1) of U(0, 1/2)), built in exact arithmetic by
the Bonnet recursion, and independent Gauss-Legendre quadrature written out
in this file.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mirrorsobol.errors import MirrorSobolError
from mirrorsobol.kernels import MAX_ORDER, KernelD, build_kernel


def gl_nodes(n, a, b):
    """Independent Gauss-Legendre rule on [a, b] for use as a test oracle."""
    x, w = np.polynomial.legendre.leggauss(n)
    return a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w


# ------------------------------------------------------------ kernel coefficients


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return [ai + bi for ai, bi in zip(a, b)]


def _closed_form_poly(k):
    """Exact monomial coefficients of sum_{i<=k} (2i+1) (-1)^i P_i(4x - 1)."""
    t = [Fraction(-1), Fraction(4)]
    legendre = [[Fraction(1)], t]
    for n in range(1, k):
        # Bonnet: (n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}
        lead = [Fraction(2 * n + 1, n + 1) * c for c in _poly_mul(t, legendre[n])]
        legendre.append(_poly_add(lead, [Fraction(-n, n + 1) * c for c in legendre[n - 1]]))
    total = [Fraction(0)]
    for i in range(k + 1):
        total = _poly_add(total, [(2 * i + 1) * (-1) ** i * c for c in legendre[i]])
    return total


def test_coefficients_k0():
    # K_1 = 2 P = f_0
    np.testing.assert_array_equal(build_kernel(0).coeffs, [2.0])


def test_coefficients_k1_hand_solve():
    # p_0 + p_1 / 4 = 1 and p_0 / 4 + p_1 / 12 = 0  =>  P(x) = 4 - 12 x, K_1 = 2 P
    np.testing.assert_array_equal(build_kernel(1).coeffs, [8.0, -24.0])


@pytest.mark.parametrize("k", range(MAX_ORDER + 1))
def test_coefficients_reproducing_kernel_form(k):
    # the exact solve rounds once, so every coefficient is the rounded closed form of 2 P
    want = [float(2 * c) for c in _closed_form_poly(k)]
    assert build_kernel(k).coeffs.tolist() == want


def test_kernel_rejects_bad_order():
    with pytest.raises(MirrorSobolError, match="nonnegative"):
        build_kernel(-1)
    with pytest.raises(MirrorSobolError, match="maximum"):
        build_kernel(MAX_ORDER + 1)
    with pytest.raises(MirrorSobolError, match="integer"):
        build_kernel(1.0)


# ----------------------------------------------------------------- 1-D kernels


def test_kernel_k0_is_base_density():
    k1 = build_kernel(0)
    x = np.array([0.0, 0.2, 0.5])
    np.testing.assert_allclose(k1.eval(x[:, None]), [2.0, 2.0, 2.0], atol=1e-14)
    assert k1.eval(np.array([[0.6]]))[0] == 0.0
    assert k1.eval(np.array([[-0.01]]))[0] == 0.0


def test_kernel_k1_closed_form():
    # K_1(x) = 2 (1 - sqrt(3) psi_1(x)) = 8 - 24 x on [0, 1/2]
    k1 = build_kernel(1)
    x = np.linspace(0.0, 0.5, 11)
    np.testing.assert_allclose(k1.eval(x[:, None]), 8.0 - 24.0 * x, rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_moment_conditions_by_quadrature(k):
    k1 = build_kernel(k)
    x, w = gl_nodes(64, 0.0, 0.5)
    vals = k1.eval(x[:, None])
    assert abs(np.sum(w * vals) - 1.0) < 1e-10
    for m in range(1, k + 1):
        mom = np.sum(w * x**m * vals)
        assert abs(mom) < 1e-8, f"moment {m} of order-{k} kernel is {mom:.3e}"


def test_kernel_k2_changes_sign():
    k1 = build_kernel(2)
    vals = k1.eval(np.linspace(0.0, 0.5, 201)[:, None])
    assert vals.min() < 0.0 < vals.max()


def test_kernel_l2_norm_closed_form():
    # int K_1^2 dx = 2 sum c_i^2 = 2 (1 + 3 + 5) = 18 for k = 2
    k1 = build_kernel(2)
    x, w = gl_nodes(64, 0.0, 0.5)
    np.testing.assert_allclose(np.sum(w * k1.eval(x[:, None]) ** 2), 18.0, rtol=1e-12)


# -------------------------------------------------------------- tensor kernels


def test_tensorize_d1_equals_factor():
    # K_1 is the polynomial with coefficients `coeffs` on the closed support, 0 outside
    kd = build_kernel(2)
    assert KernelD.support == kd.support == (0.0, 0.5)
    x = np.linspace(-0.25, 0.75, 9)
    want = np.where((x >= 0.0) & (x <= 0.5), np.polynomial.polynomial.polyval(x, kd.coeffs), 0.0)
    np.testing.assert_array_equal(kd.eval(x[:, None]), want)
    # and the d-dimensional kernel is the product of its 1-D factors
    pts = np.random.default_rng(5).uniform(-0.1, 0.6, size=(30, 3))
    factors = [kd.eval(pts[:, j : j + 1]) for j in range(3)]
    np.testing.assert_array_equal(build_kernel(2).eval(pts), factors[0] * factors[1] * factors[2])


def test_kernel_is_its_coefficients():
    # the order is the degree of P and the dimension is that of the points
    assert tuple(f.name for f in dataclasses.fields(KernelD)) == ("coeffs",)
    for k in (0, 1, 4):
        assert build_kernel(k).order == k
    kd = KernelD(build_kernel(2).coeffs)
    assert kd.order == 2
    u = np.full((1, 3), 0.1)
    h = 0.3
    for d in (1, 2, 3):
        assert kd.eval_scaled(u[:, :d], h)[0] == kd.eval(u[:, :d] / h)[0] / h**d


def test_tensor_moments_d2():
    kd = build_kernel(2)
    x, w = gl_nodes(32, 0.0, 0.5)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    kvals = kd.eval(np.stack([xx1.ravel(), xx2.ravel()], axis=1)).reshape(xx1.shape)
    assert abs(np.sum(ww * kvals) - 1.0) < 1e-9
    assert abs(np.sum(ww * xx1 * xx2 * kvals)) < 1e-8
    assert abs(np.sum(ww * xx1**2 * kvals)) < 1e-8


def test_point_outside_support_is_zero():
    kd = build_kernel(1)
    assert kd.eval(np.array([0.1, 0.7, 0.1])) == 0.0
    assert kd.eval(np.array([0.1, 0.2, -0.1])) == 0.0


# --------------------------------------------------------------------- scaling


def test_eval_scaled_at_zero_and_h1():
    kd = build_kernel(1)
    h = 0.25
    np.testing.assert_allclose(kd.eval_scaled(np.zeros(2), h), kd.eval(np.zeros(2)) / h**2, rtol=1e-14)
    x = np.array([0.1, 0.3])
    np.testing.assert_allclose(kd.eval_scaled(x, 1.0), kd.eval(x), rtol=0, atol=0)


def test_eval_scaled_identity():
    kd = build_kernel(2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 0.2, size=(40, 2))
    h = 0.37
    np.testing.assert_allclose(kd.eval_scaled(pts, h) * h**2, kd.eval(pts / h), rtol=1e-14)


@pytest.mark.parametrize("h", [0.1, 0.5])
def test_scaled_kernel_mass(h):
    kd = build_kernel(2)
    x, w = gl_nodes(64, 0.0, h / 2.0)
    mass = np.sum(w * kd.eval_scaled(x[:, None], h))
    assert abs(mass - 1.0) < 1e-9, f"mass at h={h}: {mass}"


def test_eval_scaled_invalid_h():
    kd = build_kernel(1)
    with pytest.raises(MirrorSobolError):
        kd.eval_scaled(np.array([0.1]), 0.0)
    with pytest.raises(MirrorSobolError):
        kd.eval_scaled(np.array([0.1]), -1.0)


def test_kernel_evaluation_is_deterministic():
    kd = build_kernel(3)
    pts = np.random.default_rng(0).uniform(0, 0.5, size=(50, 2))
    np.testing.assert_array_equal(kd.eval(pts), kd.eval(pts.copy()))


@pytest.mark.parametrize("k", range(MAX_ORDER + 1))
def test_kernel_evaluation_rounds_as_polyval_and_prod(k):
    # Horner's rule by whole columns: every bit as polyval and np.prod give,
    # signed zeros, support ends and points far outside included
    kd = build_kernel(k)
    rng = np.random.default_rng(k)
    for d in (1, 2, 3, 4):
        u = rng.uniform(-0.2, 0.7, size=(400, d))
        u[:40] = 0.0
        u[40:80] = -0.0
        u[80:120] = 0.5
        u[120:130] = 1e20
        want = np.prod(np.where((u >= 0.0) & (u <= 0.5), np.polynomial.polynomial.polyval(u, kd.coeffs), 0.0), axis=-1)
        assert np.array_equal(kd.eval(u).view(np.int64), want.view(np.int64)), d


# ---------------------------------------------------------------- verify_order

_ORDER_TOL = 1e-8  # mass and moment errors verify_order accepts


def verify_order(kernel, d):
    """Mass error and worst moment, 0 < |beta| <= order, of the kernel in dimension d.

    Tensor Gauss-Legendre, max(2*order + 2, 16) nodes per axis; passes within _ORDER_TOL.
    """
    nodes = max(2 * kernel.order + 2, 16)
    x, w = gl_nodes(nodes, *kernel.support)
    points = np.array(list(itertools.product(x, repeat=d)))
    kvals = np.prod(list(itertools.product(w, repeat=d)), axis=1) * kernel.eval(points)
    mass_error = abs(float(np.sum(kvals)) - 1.0)
    worst = 0.0
    for beta in itertools.product(range(kernel.order + 1), repeat=d):
        if 0 < sum(beta) <= kernel.order:
            worst = max(worst, abs(float(np.sum(kvals * np.prod(points ** np.asarray(beta), axis=1)))))
    passed = mass_error <= _ORDER_TOL and worst <= _ORDER_TOL
    return {"nodes_per_axis": nodes, "mass_error": mass_error, "max_moment_violation": worst, "passed": passed}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_order_passes(k, d):
    report = verify_order(build_kernel(k), d)
    assert report["passed"], f"k={k} d={d}: {report}"
    assert report["mass_error"] <= 1e-9


def test_verify_order_high_order():
    report = verify_order(build_kernel(10), 1)
    assert report["passed"], report


def test_verify_order_nodes_rule():
    assert verify_order(build_kernel(1), 1)["nodes_per_axis"] == 16
    assert verify_order(build_kernel(8), 1)["nodes_per_axis"] == 18

