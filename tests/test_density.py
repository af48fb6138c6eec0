"""Tests for the density plug-ins."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from mirrorsobol.density import (
    FALLBACK_ETA,
    beta_moment_estimator,
    mirror_kde,
    plugin_mse_diagnostic,
    uniform_max_estimator,
)
from mirrorsobol.domain import Domain, apply_mirror, sigma_at
from mirrorsobol.errors import (
    BandwidthTooLargeError,
    DomainViolationError,
    InsufficientSampleError,
    MirrorSobolError,
)
from mirrorsobol.estimator import FullSample, SubsetSpec, estimate_t
from mirrorsobol.kernels import build_kernel

UNIT = Domain(np.array([0.0]), np.array([1.0]))


# ------------------------------------------------------------------
# uniform endpoint plug-in
# ------------------------------------------------------------------


def test_uniform_max_basic():
    est = uniform_max_estimator(np.array([0.2, 0.9, 0.5]))
    assert est.kind == "uniform_max"
    assert est.params["theta_hat"] == 0.9, f"theta_hat {est.params['theta_hat']} != 0.9"
    want = 1.0 / 0.9
    assert est.eval(0.3) == want
    rows = est.eval_rows(np.array([[0.0], [0.9], [0.45]]))
    assert np.all(rows == want), f"constant density violated: {rows}"
    assert est.floor == want


def test_uniform_max_query_beyond_endpoint_errors():
    est = uniform_max_estimator(np.array([0.2, 0.9, 0.5]))
    with pytest.raises(DomainViolationError):
        est.eval(0.95)
    with pytest.raises(DomainViolationError):
        est.eval(-0.01)


def test_uniform_max_all_equal():
    est = uniform_max_estimator(np.full(5, 0.5))
    assert est.eval(0.5) == 2.0
    assert est.eval(0.0) == 2.0


def test_uniform_max_validation():
    with pytest.raises(InsufficientSampleError):
        uniform_max_estimator(np.array([]))
    with pytest.raises(MirrorSobolError):
        uniform_max_estimator(np.array([0.3, -0.1]))
    with pytest.raises(MirrorSobolError):
        uniform_max_estimator(np.zeros(4))
    with pytest.raises(MirrorSobolError):
        uniform_max_estimator(np.array([0.3, np.nan]))


def test_uniform_max_endpoint_mse():
    # for Uniform(0, 1), E[(theta_hat - theta)^2] = 2 / ((n+1)(n+2)) exactly
    n, reps = 10_000, 1000
    rng = np.random.default_rng(77)
    theta_hat = rng.random((reps, n)).max(axis=1)
    mse = np.mean((theta_hat - 1.0) ** 2)
    want = 2.0 / ((n + 1) * (n + 2))
    assert want / 3 <= mse <= 3 * want, f"endpoint MSE {mse:.3e} not within 3x of {want:.3e}"
    assert np.all(theta_hat <= 1.0), "theta_hat exceeded the true endpoint"
    # n (theta - theta_hat) has an Exp(1/theta) limit, so its mean tends to theta
    scaled = n * (1.0 - theta_hat)
    se = scaled.std(ddof=1) / math.sqrt(reps)
    assert abs(scaled.mean() - 1.0) <= 3 * se + 0.01, (
        f"mean of n(theta - theta_hat) = {scaled.mean():.4f}, se {se:.4f}"
    )


# ------------------------------------------------------------------
# beta moment plug-in
# ------------------------------------------------------------------


def test_beta_moment_accepted_branch():
    aux = np.array([0.4, 0.6, 0.5, 0.5])  # mean exactly 0.5
    est = beta_moment_estimator(aux, b=1.2)
    assert est.params["fallback"] is False
    assert est.params["a_hat"] == pytest.approx(1.2, abs=1e-15)
    for x in (0.1, 0.5, 0.93):
        want = stats.beta.pdf(x, est.params["a_hat"], 1.2)
        assert est.eval(x) == pytest.approx(want, rel=1e-12), f"pdf mismatch at {x}"


def test_beta_moment_fallback_branch():
    est = beta_moment_estimator(np.full(10, 0.9), b=1.2)
    assert est.params["fallback"] is True
    assert est.params["a_hat"] == pytest.approx(10.8, rel=1e-14)
    assert est.eval(0.123) == FALLBACK_ETA
    assert est.eval(0.9) == pytest.approx(1.2732395447, abs=1e-9)


def test_beta_fallback_constant_matches_quadrature():
    # eta = ( 2 * integral_0^1 sqrt(x(1-x)) dx )^{-1}; the integral is pi/8
    val, err = integrate.quad(lambda x: math.sqrt(x * (1.0 - x)), 0.0, 1.0)
    assert abs(val - math.pi / 8) < 1e-10
    assert FALLBACK_ETA == pytest.approx(1.0 / (2.0 * val), rel=1e-10)
    assert FALLBACK_ETA == pytest.approx(4.0 / math.pi, rel=0)


def test_beta_moment_fallback_set_is_the_mean_interval():
    # fallback happens exactly when the sample mean leaves
    # [1/(1+b), (3/2)/((3/2)+b)]
    b = 1.2
    lo, hi = 1.0 / (1.0 + b), 1.5 / (1.5 + b)
    for m in np.linspace(0.05, 0.95, 181):
        est = beta_moment_estimator(np.full(8, m), b=b)
        in_interval = lo <= m <= hi
        assert est.params["fallback"] == (not in_interval), (
            f"mean {m:.3f}: fallback {est.params['fallback']} but interval "
            f"[{lo:.4f}, {hi:.4f}] membership {in_interval}"
        )


def test_beta_moment_validation():
    with pytest.raises(MirrorSobolError):
        beta_moment_estimator(np.ones(6), b=1.2)  # mean >= 1
    with pytest.raises(MirrorSobolError):
        beta_moment_estimator(np.array([0.5, 1.2]), b=1.2)
    with pytest.raises(MirrorSobolError):
        beta_moment_estimator(np.array([0.5, -0.2]), b=1.2)
    with pytest.raises(InsufficientSampleError):
        beta_moment_estimator(np.array([]), b=1.2)
    for bad_b in (1.0, 1.5, 0.7, 2.0):
        with pytest.raises(MirrorSobolError):
            beta_moment_estimator(np.array([0.4, 0.5]), b=bad_b)
    with pytest.raises(DomainViolationError):
        beta_moment_estimator(np.array([0.4, 0.6]), b=1.2).eval(1.3)


def test_beta_moment_recovers_true_density():
    rng = np.random.default_rng(5)
    aux = rng.beta(1.3, 1.2, size=40_000)
    est = beta_moment_estimator(aux, b=1.2)
    assert est.params["fallback"] is False
    assert abs(est.params["a_hat"] - 1.3) < 0.03, f"a_hat {est.params['a_hat']}"
    grid = np.linspace(0.05, 0.95, 60)
    err = np.max(np.abs(est.eval_rows(grid[:, None]) - stats.beta.pdf(grid, 1.3, 1.2)))
    assert err < 0.05, f"sup error {err} on the interior grid"


# ------------------------------------------------------------------
# mirror KDE
# ------------------------------------------------------------------


def test_mirror_kde_single_point_hand_values():
    # m = 1, k = 0, h = 1/2: at the data point the sum is K(0)/h = 2/h = 4;
    # far from it the floor eta/2 takes over
    kern = build_kernel(0, 1)
    est = mirror_kde(np.array([[0.5]]), kern, h_kde=0.5, eta=1.0, domain=UNIT)
    assert est.eval(0.5) == 4.0
    assert est.eval(0.1) == 0.5
    assert est.floor == 0.5


def test_mirror_kde_eta_is_required():
    kern = build_kernel(0, 1)
    with pytest.raises(MirrorSobolError, match="eta"):
        mirror_kde(np.array([[0.5]]), kern, h_kde=0.5, domain=UNIT)
    with pytest.raises(MirrorSobolError):
        mirror_kde(np.array([[0.5]]), kern, h_kde=0.5, eta=-1.0, domain=UNIT)


def test_mirror_kde_default_bandwidth():
    kern = build_kernel(2, 1)
    est = mirror_kde(np.full((100, 1), 0.5), kern, eta=0.5, domain=UNIT)
    assert est.params["h_kde"] == pytest.approx(100 ** (-1.0 / 5.0), rel=1e-14)
    kern2 = build_kernel(1, 2)
    dom2 = Domain(np.zeros(2), np.ones(2))
    est2 = mirror_kde(np.full((64, 2), 0.5), kern2, eta=0.5, domain=dom2)
    assert est2.params["h_kde"] == pytest.approx(64 ** (-1.0 / 4.0), rel=1e-14)


def test_mirror_kde_validation():
    kern = build_kernel(0, 1)
    with pytest.raises(BandwidthTooLargeError):
        mirror_kde(np.array([[0.5]]), kern, h_kde=1.5, eta=1.0, domain=UNIT)
    with pytest.raises(DomainViolationError):
        mirror_kde(np.array([[1.2]]), kern, h_kde=0.2, eta=1.0, domain=UNIT)
    with pytest.raises(InsufficientSampleError):
        mirror_kde(np.empty((0, 1)), kern, h_kde=0.2, eta=1.0, domain=UNIT)
    est = mirror_kde(np.array([[0.5]]), kern, h_kde=0.2, eta=1.0, domain=UNIT)
    with pytest.raises(DomainViolationError):
        est.eval(1.4)
    with pytest.raises(MirrorSobolError):
        mirror_kde(np.array([[0.5, 0.5]]), kern, h_kde=0.2, eta=1.0, domain=UNIT)


def test_mirror_kde_floor_everywhere():
    rng = np.random.default_rng(11)
    kern = build_kernel(2, 1)
    est = mirror_kde(rng.random((200, 1)), kern, h_kde=0.05, eta=0.8, domain=UNIT)
    vals = est.eval_rows(np.linspace(0.0, 1.0, 400)[:, None])
    assert np.all(vals >= 0.4), f"floor violated: min {vals.min()}"


def test_mirror_kde_uniform_mise():
    # Uniform(0,1) target: order-2 kernel, h = m^{-1/5}, MISE on a 200-point
    # grid should be small, and the mirror correction keeps the boundary flat
    rng = np.random.default_rng(3)
    m = 5000
    kern = build_kernel(2, 1)
    est = mirror_kde(rng.random((m, 1)), kern, eta=1.0, domain=UNIT)
    grid = (np.arange(200) + 0.5) / 200.0
    vals = est.eval_rows(grid[:, None])
    mise = float(np.mean((vals - 1.0) ** 2))
    assert mise <= 0.05, f"MISE {mise} > 0.05"
    assert abs(est.eval(0.0) - 1.0) <= 0.3, f"boundary value {est.eval(0.0)}"
    assert abs(est.eval(1.0) - 1.0) <= 0.3, f"boundary value {est.eval(1.0)}"


def test_mirror_kde_blocked_queries_match():
    rng = np.random.default_rng(9)
    kern = build_kernel(1, 1)
    est = mirror_kde(rng.random((50, 1)), kern, h_kde=0.2, eta=0.5, domain=UNIT)
    grid = np.linspace(0.0, 1.0, 37)[:, None]
    whole = est.eval_rows(grid)
    single = np.array([est.eval(x) for x in grid[:, 0]])
    assert np.allclose(whole, single, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_mirror_kde_matches_literal_formula(d):
    # ties in the auxiliary sample; queries on the box edges, on the axis
    # midpoint and on the auxiliary points; dyadic points with h = 1/4 put
    # pairs exactly on the window boundary
    rng = np.random.default_rng(17 + d)
    dom = Domain(np.full(d, -1.0), np.full(d, 1.0))
    dyadic = rng.choice(np.arange(-8, 9) / 8.0, size=(60, d))
    aux = np.vstack([dyadic, dyadic[:10], rng.uniform(-1.0, 1.0, (30, d))])
    special = rng.choice(np.array([-1.0, 0.0, 1.0, 0.125, -0.375]), size=(25, d))
    queries = np.vstack([special, aux[:20], rng.uniform(-1.0, 1.0, (20, d))])
    kern = build_kernel(2, d)
    h, eta = 0.25, 0.2
    est = mirror_kde(aux, kern, h_kde=h, eta=eta, domain=dom)
    literal = []
    for q in queries:
        signs = sigma_at(dom, q)
        total = 0.0
        for x in aux:
            total += float(kern.eval_scaled(apply_mirror(signs, x - q), h))
        literal.append(max(total / aux.shape[0], eta / 2.0))
    np.testing.assert_allclose(est.eval_rows(queries), literal, rtol=1e-12, atol=0)


# ------------------------------------------------------------------
# plugging estimates into the U-statistic
# ------------------------------------------------------------------


def test_estimator_accepts_uniform_max_plugin():
    # with f_hat = 1/theta_hat constant and f = 1, the U-statistic scales
    # exactly by theta_hat
    rng = np.random.default_rng(21)
    v = rng.random((300, 1))
    y = v[:, 0] + 0.5
    sample = FullSample(V=v, Y=y)
    spec = SubsetSpec(mask=(0,))
    kern = build_kernel(1, 1)
    t_exact = estimate_t(sample, spec, kern, 0.2, lambda x: np.ones(x.shape[0]), domain=UNIT)
    est = uniform_max_estimator(v[:, 0])
    t_plug = estimate_t(sample, spec, kern, 0.2, est, domain=UNIT)
    assert t_plug == estimate_t(sample, spec, kern, 0.2, est.eval_rows, domain=UNIT)
    assert t_plug == pytest.approx(est.params["theta_hat"] * t_exact, rel=1e-12)


def test_estimator_accepts_mirror_kde_plugin():
    rng = np.random.default_rng(42)
    n = 2000
    v = rng.random((n, 1))
    y = v[:, 0] + 0.5
    sample = FullSample(V=v, Y=y)
    spec = SubsetSpec(mask=(0,))
    kern = build_kernel(1, 1)
    aux = rng.random((4000, 1))  # separate draw; the model is never run on it
    f_hat = mirror_kde(aux, build_kernel(2, 1), eta=1.0, domain=UNIT)
    t_exact = estimate_t(sample, spec, kern, 0.15, lambda x: np.ones(x.shape[0]), domain=UNIT)
    t_plug = estimate_t(sample, spec, kern, 0.15, f_hat, domain=UNIT)
    assert t_plug == estimate_t(sample, spec, kern, 0.15, f_hat.eval_rows, domain=UNIT)
    assert abs(t_plug - t_exact) < 0.12, f"plug-in t {t_plug} vs exact-density t {t_exact}"


# ------------------------------------------------------------------
# relative-MSE diagnostic
# ------------------------------------------------------------------


def test_plugin_mse_diagnostic_zero_when_exact():
    f = np.full(50, 1.7)
    rep = plugin_mse_diagnostic(f, f, h=0.1, n=1000)
    assert rep["mean_squared_relative_error"] == 0.0
    assert rep["ratio"] == 0.0
    assert rep["reference"] == pytest.approx(0.1 / 1000)
    assert set(rep) == {"mean_squared_relative_error", "reference", "ratio", "h", "n", "d"}


def test_plugin_mse_diagnostic_uniform_endpoint():
    # uniform endpoint plug-in at n = 1e4, h = n^{-0.4}: the relative MSE is
    # (theta_hat - theta)^2 / theta^2, far below h/n
    n = 10_000
    h = n ** (-0.4)
    rng = np.random.default_rng(8)
    reps = 400
    mses = np.empty(reps)
    for r in range(reps):
        theta_hat = rng.random(n).max()
        rep = plugin_mse_diagnostic(np.ones(32), np.full(32, 1.0 / theta_hat), h=h, n=n)
        mses[r] = rep["mean_squared_relative_error"]
    mean_mse = mses.mean()
    want = 2.0 / ((n + 1) * (n + 2))
    assert want / 3 <= mean_mse <= 3 * want, f"mean MSE {mean_mse:.3e} vs {want:.3e}"
    assert mean_mse <= 0.1 * h / n, f"not small next to h/n: {mean_mse:.3e} vs {h / n:.3e}"


def test_plugin_mse_diagnostic_monotone_and_validation():
    f = np.ones(20)
    small = plugin_mse_diagnostic(f * 1.01, f, h=0.1, n=100)
    large = plugin_mse_diagnostic(f * 1.10, f, h=0.1, n=100)
    assert large["mean_squared_relative_error"] > small["mean_squared_relative_error"]
    rep3 = plugin_mse_diagnostic(f, f * 0.9, h=0.2, n=50, d=3)
    assert rep3["reference"] == pytest.approx(0.2**3 / 50)
    with pytest.raises(MirrorSobolError):
        plugin_mse_diagnostic(np.ones(3), np.ones(4), h=0.1, n=10)
    with pytest.raises(MirrorSobolError):
        plugin_mse_diagnostic(np.ones(3), np.zeros(3), h=0.1, n=10)
    with pytest.raises(MirrorSobolError):
        plugin_mse_diagnostic(np.ones(3), np.ones(3), h=-0.1, n=10)
