"""Tests for the pairwise kernel estimator and its variance plug-ins."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from mirrorsobol import _window
from mirrorsobol._window import window_sums
from mirrorsobol.density import mirror_kde
from mirrorsobol.domain import Domain, sign_matrix
from mirrorsobol.errors import (
    BandwidthTooLargeError,
    DegenerateOutputError,
    DomainViolationError,
    InsufficientSampleError,
    MirrorSobolError,
    SingularDensityError,
)
from mirrorsobol.estimator import (
    FullSample,
    SubsetSpec,
    _row_sums_sorted_1d,
    asymptotic_variance_sobol,
    asymptotic_variance_t,
    default_bandwidth,
    estimate_first_order_all,
    estimate_g1_loo,
    estimate_sobol,
    estimate_t,
    estimate_total_sobol,
)
from mirrorsobol.inputs import InputModel, Uniform
from mirrorsobol.kernels import build_kernel, custom_base
from mirrorsobol.testbed import (
    brute_force_t,
    curved_model,
    ishigami_model,
    linear_model,
    product_model,
)

UNIT1 = InputModel((Uniform(0.0, 1.0),))
UNIT2 = InputModel((Uniform(0.0, 1.0), Uniform(0.0, 1.0)))


def test_hand_case_n2():
    # k=0 kernel on [0,1]: K_h(u) = (2/h) 1[0 <= u <= h/2].  x1=0.2, x2=0.3,
    # h=0.4: forward difference 0.1 lands in [0, 0.2] -> 5, backward is
    # mirrored to -0.1 -> 0.  T = (2*3/2)*(5+0) = 15.
    fs = FullSample(V=np.array([[0.2], [0.3]]), Y=np.array([2.0, 3.0]))
    t = estimate_t(fs, SubsetSpec((0,)), build_kernel(0, 1), 0.4, UNIT1)
    assert abs(t - 15.0) < 1e-12, f"hand-computed n=2 value is 15, got {t}"


def test_hand_case_n3_g1_loo():
    # x = (0.1, 0.2, 0.9), h=0.4, k=0; only the pair (0.1 -> 0.2) is inside a
    # mirrored window, so g1_loo = (5, 0, 0) and T = mean(Y*g1_loo) = 5/3.
    fs = FullSample(V=np.array([[0.1], [0.2], [0.9]]), Y=np.array([1.0, 2.0, 3.0]))
    spec = SubsetSpec((0,))
    k = build_kernel(0, 1)
    g1 = estimate_g1_loo(fs, spec, k, 0.4, UNIT1)
    assert np.allclose(g1, [5.0, 0.0, 0.0], atol=1e-12), f"g1_loo mismatch: {g1}"
    t = estimate_t(fs, spec, k, 0.4, UNIT1)
    assert abs(t - 5.0 / 3.0) < 1e-13, f"hand-computed n=3 value is 5/3, got {t}"


def test_grouped_identity_t_equals_mean_y_g1():
    m = linear_model(3)
    fs = m.draw(200, seed=5)
    spec = SubsetSpec((2,))
    k = build_kernel(2, 1)
    t = estimate_t(fs, spec, k, 0.2, m.input_model)
    g1 = estimate_g1_loo(fs, spec, k, 0.2, m.input_model)
    t2 = float(np.mean(fs.Y * g1))
    assert abs(t - t2) <= 1e-12 * abs(t), f"grouped identity broken: {t} vs {t2}"


def _random_config(rng):
    p = int(rng.integers(1, 4))
    d = int(rng.integers(1, p + 1))
    mask = tuple(sorted(rng.choice(p, size=d, replace=False).tolist()))
    order = int(rng.integers(0, 4))
    n = int(rng.integers(8, 49))
    lo = rng.uniform(-1.0, 0.5, size=p)
    hi = lo + rng.uniform(0.5, 2.0, size=p)
    model = InputModel(tuple(Uniform(a, b) for a, b in zip(lo, hi)))
    h = float(rng.uniform(0.1, 1.0) * min(hi[list(mask)] - lo[list(mask)]))
    return model, mask, order, n, h


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(20240817)
    for trial in range(12):
        model, mask, order, n, h = _random_config(rng)
        v = np.vstack([model.marginals[i].a + (model.marginals[i].b - model.marginals[i].a) * rng.random(n) for i in range(model.p)]).T
        y = rng.normal(size=n)
        fs = FullSample(V=v, Y=y)
        spec = SubsetSpec(mask)
        kernel = build_kernel(order, len(mask))
        t_fast = estimate_t(fs, spec, kernel, h, model)
        t_ref = brute_force_t(fs, spec, kernel, h, model)
        scale = max(abs(t_ref), 1e-8)
        assert abs(t_fast - t_ref) <= 1e-12 * scale, (
            f"trial {trial}: estimate_t {t_fast} vs brute force {t_ref} "
            f"(mask={mask}, k={order}, n={n}, h={h:.4f})"
        )


def test_matches_brute_force_with_boundary_points_and_ties():
    # midpoint (sign +1), both boundaries, and exact duplicates in one sample
    v = np.array([[0.5], [0.0], [1.0], [0.25], [0.25], [0.7], [0.5]])
    y = np.array([1.0, -2.0, 0.5, 3.0, 3.0, -1.0, 2.0])
    fs = FullSample(V=v, Y=y)
    spec = SubsetSpec((0,))
    for order in (0, 1, 2):
        kernel = build_kernel(order, 1)
        for h in (0.15, 0.5, 1.0):
            t_fast = estimate_t(fs, spec, kernel, h, UNIT1)
            t_ref = brute_force_t(fs, spec, kernel, h, UNIT1)
            assert abs(t_fast - t_ref) <= 1e-12 * max(abs(t_ref), 1e-8), (
                f"boundary/tie case k={order}, h={h}: {t_fast} vs {t_ref}"
            )


def test_sorted_path_agrees_with_sparse_path():
    rng = np.random.default_rng(3)
    model = UNIT1
    dom = model.domain
    for n, h, order in [(50, 0.3, 1), (300, 0.12, 2), (150, 0.5, 3)]:
        x = rng.random((n, 1))
        y = rng.normal(size=n)
        w = np.column_stack([y, y - y.mean()])
        kernel = build_kernel(order, 1)
        fast = _row_sums_sorted_1d(x[:, 0], w, kernel.factor.full_coeffs, h, dom)
        sparse = window_sums(x, w, kernel, h, dom)
        err = np.max(np.abs(fast - sparse)) / max(np.max(np.abs(sparse)), 1e-12)
        assert err <= 1e-10, f"sorted path deviates from sparse path by {err} (n={n}, h={h}, k={order})"
        # each weight column is computed as it would be on its own
        for c in range(2):
            alone = _row_sums_sorted_1d(x[:, 0], w[:, c : c + 1], kernel.factor.full_coeffs, h, dom)
            assert np.array_equal(fast[:, c : c + 1], alone)
            assert np.array_equal(sparse[:, c : c + 1], window_sums(x, w[:, c : c + 1], kernel, h, dom))


def test_sparse_path_spans_multiple_blocks(monkeypatch):
    # a budget of 64 candidate pairs splits n=150 in d=2 into many anchor blocks
    monkeypatch.setattr(_window, "_PAIR_BUDGET", 64)
    rng = np.random.default_rng(11)
    v = rng.random((150, 2))
    y = rng.normal(size=150)
    fs = FullSample(V=v, Y=y)
    spec = SubsetSpec((0, 1))
    kernel = build_kernel(1, 2)
    t_fast = estimate_t(fs, spec, kernel, 0.4, UNIT2)
    t_ref = brute_force_t(fs, spec, kernel, 0.4, UNIT2)
    assert abs(t_fast - t_ref) <= 1e-12 * abs(t_ref), f"{t_fast} vs {t_ref}"


# order-1 and order-2 kernels on the non-constant base 8x on [0, 1/2]; they
# have no polynomial form, so d = 1 runs on the sparse backend too
def _ramp(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.0) & (x <= 0.5), 8.0 * x, 0.0)


_KERNELS = {(k, 1): build_kernel(k, 1, base=custom_base(_ramp, (0.0, 0.5), k)) for k in (1, 2)}
_KERNELS.update({(k, d): build_kernel(k, d) for k in (0, 1, 2) for d in (2, 3)})


@st.composite
def _window_cases(draw):
    """Samples that stress the range query: ties, edges, midpoints, window boundaries, far boxes."""
    d = draw(st.integers(1, 3))
    order = draw(st.sampled_from([1, 2] if d == 1 else [0, 1, 2]))
    far = draw(st.booleans())
    lo = np.array([1e6 if far else draw(st.sampled_from([0.0, -1.0, 0.5])) for _ in range(d)])
    width = np.array([draw(st.sampled_from([1.0, 2.0])) for _ in range(d)])
    hi = lo + width
    # dyadic coordinates with h = 1/4 put pairs exactly on the window boundary
    h = draw(st.sampled_from([0.25, float(width.min()), draw(st.floats(0.05, 1.0)) * float(width.min())]))

    def coord(i):
        dyadic = lo[i] + draw(st.integers(0, 8 * int(width[i]))) / 8.0
        return draw(st.one_of(st.sampled_from([lo[i], hi[i], 0.5 * (lo[i] + hi[i]), dyadic]), st.floats(lo[i], hi[i])))

    pool = [[coord(i) for i in range(d)] for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        # the far corner of the first row's window, rounded as it may be
        first = np.array(pool[0])
        pool.append((first + np.where(first <= 0.5 * (lo + hi), 0.5, -0.5) * h).tolist())
    n = draw(st.integers(2, 12))
    rows = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    y = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n)])
    budget = draw(st.sampled_from([1, _window._PAIR_BUDGET]))
    return rows, y, _KERNELS[(order, d)], h, InputModel(tuple(Uniform(a, b) for a, b in zip(lo, hi))), budget


def _absolute_scale(rows, y, kernel, h, model):
    """The U-statistic with every term replaced by its absolute value: the size of its rounding."""
    signs = sign_matrix(model.domain, rows)
    kvals = np.abs(kernel.eval_scaled(signs[:, None, :] * (rows[None, :, :] - rows[:, None, :]), h))
    np.fill_diagonal(kvals, 0.0)
    n = y.size
    # uniform inputs: 1 / f_X is the box volume
    return float(np.abs(y) @ kvals @ np.abs(y)) * float(np.prod(model.domain.widths)) / (n * (n - 1))


@settings(max_examples=150, deadline=None)
@given(_window_cases())
def test_sparse_backend_matches_brute_force(case):
    rows, y, kernel, h, model, budget = case
    fs = FullSample(V=rows, Y=y)
    spec = SubsetSpec(tuple(range(rows.shape[1])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_PAIR_BUDGET", budget)
        t_fast = estimate_t(fs, spec, kernel, h, model)
    t_ref = brute_force_t(fs, spec, kernel, h, model)
    scale = max(abs(t_ref), _absolute_scale(rows, y, kernel, h, model))
    assert abs(t_fast - t_ref) <= 1e-12 * scale, f"sparse {t_fast!r} vs brute force {t_ref!r} (h={h})"


def test_row_permutation_invariance():
    m = linear_model(2)
    fs = m.draw(120, seed=9)
    spec = SubsetSpec((0,))
    k = build_kernel(2, 1)
    t = estimate_t(fs, spec, k, 0.25, m.input_model)
    perm = np.random.default_rng(1).permutation(120)
    fs_perm = FullSample(V=fs.V[perm], Y=fs.Y[perm])
    t_perm = estimate_t(fs_perm, spec, k, 0.25, m.input_model)
    assert abs(t - t_perm) <= 1e-13 * abs(t), f"permutation changed the estimate: {t} vs {t_perm}"


def test_row_permutation_invariance_2d():
    m = product_model()
    fs = m.draw(400, seed=9)
    spec = SubsetSpec((0, 1))
    k = build_kernel(1, 2)
    t = estimate_t(fs, spec, k, 0.3, m.input_model)
    perm = np.random.default_rng(1).permutation(400)
    fs_perm = FullSample(V=fs.V[perm], Y=fs.Y[perm])
    t_perm = estimate_t(fs_perm, spec, k, 0.3, m.input_model)
    assert abs(t - t_perm) <= 1e-13 * abs(t), f"permutation changed the estimate: {t} vs {t_perm}"


def test_scale_equivariance_exact():
    m = product_model()
    fs = m.draw(80, seed=2)
    spec = SubsetSpec((1,))
    k = build_kernel(1, 1)
    t = estimate_t(fs, spec, k, 0.3, m.input_model)
    fs2 = FullSample(V=fs.V, Y=2.0 * fs.Y)
    t2 = estimate_t(fs2, spec, k, 0.3, m.input_model)
    assert t2 == 4.0 * t, f"t(2Y) must equal 4 t(Y) exactly: {t2} vs {4.0 * t}"


def test_sobol_affine_invariance():
    m = curved_model()
    fs = m.draw(400, seed=4)
    spec = SubsetSpec((0,))
    k = build_kernel(2, 1)
    base = estimate_sobol(fs, spec, k, 0.2, m.input_model)
    shifted = estimate_sobol(FullSample(V=fs.V, Y=1.7 * fs.Y - 3.2), spec, k, 0.2, m.input_model)
    assert abs(base.sobol - shifted.sobol) <= 1e-12 * abs(base.sobol), (
        f"sobol not invariant under affine output map: {base.sobol} vs {shifted.sobol}"
    )


def test_g1_loo_constant_and_zero_output():
    rng = np.random.default_rng(8)
    v = rng.random((2000, 1))
    k = build_kernel(1, 1)
    ones = estimate_g1_loo(FullSample(V=v, Y=np.ones(2000)), SubsetSpec((0,)), k, 0.2, UNIT1)
    assert abs(ones.mean() - 1.0) < 0.05, f"g1_loo of Y=1 should average near 1, got {ones.mean()}"
    zeros = estimate_g1_loo(FullSample(V=v, Y=np.zeros(2000)), SubsetSpec((0,)), k, 0.2, UNIT1)
    assert np.all(zeros == 0.0), "g1_loo of Y=0 must be identically zero"


# ---------------------------------------------------------------------------
# variance plug-ins


def test_variance_t_zero_output():
    fs = FullSample(V=np.array([[0.1], [0.6], [0.9]]), Y=np.array([1.0, 2.0, 3.0]))
    assert asymptotic_variance_t(fs, np.zeros(3)) == 0.0


def test_variance_t_scaling():
    m = linear_model(2)
    fs = m.draw(500, seed=7)
    g1 = estimate_g1_loo(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.25, m.input_model)
    v1 = asymptotic_variance_t(fs, g1)
    v2 = asymptotic_variance_t(FullSample(V=fs.V, Y=2.0 * fs.Y), 2.0 * g1)
    assert abs(v2 - 16.0 * v1) <= 1e-10 * v1, f"doubling Y must scale 4*Var(Yg1) by 16: {v2} vs {16 * v1}"


def test_variance_t_linear_p2_oracle():
    # Y = V1 + V2, mask {0}: g1 = x + 1/2.  Hand integration of uniform
    # moments gives tau^2 = E[(Yg1)^2] - E[Yg1]^2 = 577/360 - (13/12)^2
    # = 103/240, so 4 tau^2 = 103/60.
    m = linear_model(2)
    fs = m.draw(10_000, seed=12)
    g1 = estimate_g1_loo(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.3, m.input_model)
    value = asymptotic_variance_t(fs, g1)
    truth = 103.0 / 60.0
    assert abs(value - truth) <= 0.10 * truth, f"plug-in 4*tau^2 {value} not within 10% of {truth}"


def test_variance_sobol_linear_p3_oracle():
    # Linear p=3, mask {1}: hand integration of the covariance matrix of
    # (2Yg1, Y, Y^2) and the gradient (1/v)(1, 2m(S-1), -S) gives
    # sigma^2 = (0.827778 - 0.044444 + 0.011111)/0.0625 = 12.7111.
    m = linear_model(3)
    fs = m.draw(20_000, seed=31)
    g1_true = m.g1((1,), fs.V[:, [1]])
    value = asymptotic_variance_sobol(fs, g1_true)
    truth = 12.7111
    assert abs(value - truth) <= 0.10 * truth, f"sigma^2 plug-in {value} not within 10% of {truth}"


def test_variance_sobol_reduces_to_first_block_when_independent():
    # Y depends only on V2; mask {0} has S ~ 0, so blocks 2 and 3 vanish
    rng = np.random.default_rng(21)
    v = rng.random((20_000, 2))
    y = np.sin(6.0 * v[:, 1]) + 0.3 * rng.normal(size=20_000)
    fs = FullSample(V=v, Y=y)
    g1 = estimate_g1_loo(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.3, UNIT2)
    full = asymptotic_variance_sobol(fs, g1)
    yg = y * g1
    mm, vv = y.mean(), y.var()
    block1 = 4.0 * (yg.var() - 2.0 * np.mean((yg - yg.mean()) * (y - mm)) * mm + mm * mm * vv) / vv**2
    assert abs(full - block1) <= 0.05 * abs(block1), f"independent case: {full} vs first block {block1}"


def test_variance_sobol_relabeling_invariance():
    m = curved_model()
    fs = m.draw(300, seed=6)
    g1 = estimate_g1_loo(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.3, m.input_model)
    base = asymptotic_variance_sobol(fs, g1)
    perm = np.random.default_rng(0).permutation(300)
    permuted = asymptotic_variance_sobol(FullSample(V=fs.V[perm], Y=fs.Y[perm]), g1[perm])
    assert abs(base - permuted) <= 1e-10 * base, f"row relabeling changed sigma^2: {base} vs {permuted}"


def test_variance_sobol_degenerate_output():
    fs = FullSample(V=np.array([[0.1], [0.5], [0.9]]), Y=np.full(3, 2.0))
    with pytest.raises(DegenerateOutputError):
        asymptotic_variance_sobol(fs, np.ones(3))


# ---------------------------------------------------------------------------
# estimate_sobol / result plumbing


def test_estimate_sobol_result_fields():
    m = linear_model(3)
    fs = m.draw(1500, seed=13)
    res = estimate_sobol(fs, SubsetSpec((1,)), build_kernel(1, 1), 0.2, m.input_model, ci_level=0.9)
    assert res.n_used == 1500 and res.h_used == 0.2
    assert res.ci[0] <= res.sobol <= res.ci[1], f"CI {res.ci} should bracket the estimate {res.sobol}"
    wide = estimate_sobol(fs, SubsetSpec((1,)), build_kernel(1, 1), 0.2, m.input_model, ci_level=0.99)
    assert wide.ci[1] - wide.ci[0] > res.ci[1] - res.ci[0], "0.99 interval should be wider than 0.90"
    payload = res.to_json()
    assert payload["sobol"] == res.sobol and payload["ci_level"] == 0.9


def test_estimate_sobol_rejects_bad_level():
    m = linear_model(2)
    fs = m.draw(50, seed=1)
    with pytest.raises(MirrorSobolError):
        estimate_sobol(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.2, m.input_model, ci_level=1.0)


def test_estimate_sobol_degenerate_output():
    v = np.random.default_rng(5).random((40, 1))
    fs = FullSample(V=v, Y=np.full(40, 3.0))
    with pytest.raises(DegenerateOutputError):
        estimate_sobol(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.2, UNIT1)


def test_total_sobol_linear():
    m = linear_model(3)
    fs = m.draw(4000, seed=17)
    res = estimate_total_sobol(fs, SubsetSpec((0, 1)), build_kernel(1, 1), 0.15, m.input_model)
    # total effect of {0,1} = 1 - S({2}) = 2/3 for the additive model
    assert abs(res.sobol - 2.0 / 3.0) < 0.1, f"total index {res.sobol} far from 2/3"
    # exactly the complement's estimate, reflected
    for mask, complement in (((0, 1), (2,)), ((0,), (1, 2))):
        kern = build_kernel(1, len(complement))
        total = estimate_total_sobol(fs, SubsetSpec(mask), kern, 0.15, m.input_model, ci_level=0.9)
        comp = estimate_sobol(fs, SubsetSpec(complement), kern, 0.15, m.input_model, ci_level=0.9)
        assert total == dataclasses.replace(comp, sobol=1.0 - comp.sobol, ci=(1.0 - comp.ci[1], 1.0 - comp.ci[0]))
    with pytest.raises(MirrorSobolError):
        estimate_total_sobol(fs, SubsetSpec((0, 1, 2)), build_kernel(2, 3), 0.15, m.input_model)
    with pytest.raises(MirrorSobolError):
        estimate_total_sobol(fs, SubsetSpec((0,)), build_kernel(1, 2), 0.15, lambda x: np.ones(len(x)))


def test_density_estimate_variant_matches_exact_callable():
    m = linear_model(2)
    fs = m.draw(150, seed=19)
    spec = SubsetSpec((0,))
    k = build_kernel(1, 1)
    dom = m.input_model.domain
    t_model = estimate_t(fs, spec, k, 0.3, m.input_model)
    t_callable = estimate_t(fs, spec, k, 0.3, lambda x: np.ones(x.shape[0]), domain=dom)
    assert abs(t_model - t_callable) <= 1e-13 * abs(t_model), f"{t_model} vs {t_callable}"
    # a DensityEstimate goes in as f_x directly, bit-equal to its eval_rows
    f_hat = mirror_kde(m.draw(400, seed=20).V[:, :1], build_kernel(2, 1), eta=0.5, domain=dom.subdomain((0,)))
    t_plug = estimate_t(fs, spec, k, 0.3, f_hat, domain=dom)
    assert t_plug == estimate_t(fs, spec, k, 0.3, f_hat.eval_rows, domain=dom)
    assert estimate_sobol(fs, spec, k, 0.3, f_hat, domain=dom) == estimate_sobol(
        fs, spec, k, 0.3, f_hat.eval_rows, domain=dom
    )


# ---------------------------------------------------------------------------
# vector of first-order estimates


def test_first_order_all_p1_reduces_to_estimate_sobol():
    # p = 1 and three multi-input models: every axis of the sweep is estimate_sobol on that axis
    k = build_kernel(1, 1)
    cases = ((linear_model(1), 0.2), (linear_model(3), 0.2), (ishigami_model(), 0.9), (product_model(), 0.25))
    for model, h in cases:
        fs = model.draw(600, seed=23)
        results, sigma = estimate_first_order_all(fs, k, h, model.input_model, ci_level=0.9)
        assert len(results) == model.input_model.p
        for i, res in enumerate(results):
            single = estimate_sobol(fs, SubsetSpec((i,)), k, h, model.input_model, ci_level=0.9)
            assert res == single, f"axis {i}: the sweep must equal estimate_sobol field for field"
            assert abs(sigma[i, i] - single.var_sobol) <= 1e-9 * max(single.var_sobol, 1e-12), (
                f"covariance diagonal {sigma[i, i]} vs scalar variance {single.var_sobol}"
            )


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
def test_first_order_all_rejects_bad_level(level):
    m = linear_model(3)
    fs = m.draw(500, seed=1)
    with pytest.raises(MirrorSobolError):
        estimate_first_order_all(fs, build_kernel(1, 1), 0.2, m.input_model, ci_level=level)


def test_first_order_all_linear_symmetric():
    m = linear_model(3)
    fs = m.draw(5000, seed=29)
    results, sigma = estimate_first_order_all(fs, build_kernel(2, 1), 0.12, m.input_model)
    assert sigma.shape == (3, 3)
    assert np.allclose(sigma, sigma.T, atol=1e-12), "covariance must be symmetric"
    eigs = np.linalg.eigvalsh(sigma)
    assert eigs.min() >= -1e-10, f"covariance must be PSD, eigenvalues {eigs}"
    ests = np.array([r.sobol for r in results])
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs(ests[i] - ests[j])
            bound = 3.0 * math.sqrt((sigma[i, i] + sigma[j, j]) / 5000)
            assert gap <= bound, f"symmetric model: estimates {i},{j} differ by {gap} > {bound}"
    for i, r in enumerate(results):
        assert abs(sigma[i, i] - r.var_sobol) <= 1e-9 * max(r.var_sobol, 1e-12), (
            f"diagonal {i} disagrees with per-mask variance"
        )


# ---------------------------------------------------------------------------
# validation errors


def test_insufficient_sample():
    with pytest.raises(InsufficientSampleError):
        FullSample(V=np.array([[0.5]]), Y=np.array([1.0]))


def test_bandwidth_too_large():
    m = linear_model(2)
    fs = m.draw(30, seed=3)
    with pytest.raises(BandwidthTooLargeError):
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1, 1), 1.5, m.input_model)


def test_singular_density_reports_indices():
    fs = FullSample(V=np.array([[0.1], [0.4], [0.8]]), Y=np.array([1.0, 2.0, 3.0]))

    def holey(x):
        out = np.ones(x.shape[0])
        out[x[:, 0] > 0.5] = 0.0
        return out

    with pytest.raises(SingularDensityError) as exc:
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.3, holey, domain=Domain((0.0,), (1.0,)))
    assert 2 in exc.value.indices, f"offending row index missing from {exc.value.indices}"


def test_domain_violation():
    fs = FullSample(V=np.array([[0.2], [1.4]]), Y=np.array([1.0, 2.0]))
    with pytest.raises(DomainViolationError):
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1, 1), 0.3, UNIT1)


def test_dimension_mismatches():
    m = linear_model(2)
    fs = m.draw(20, seed=2)
    with pytest.raises(MirrorSobolError):
        estimate_t(fs, SubsetSpec((0, 1)), build_kernel(1, 1), 0.2, m.input_model)  # kernel dim 1, mask dim 2
    with pytest.raises(MirrorSobolError):
        estimate_t(fs, SubsetSpec((5,)), build_kernel(1, 1), 0.2, m.input_model)  # mask out of range


def test_default_bandwidth():
    dom = Domain((0.0, 0.0), (1.0, 2.0))
    h1 = default_bandwidth(1000, 2, 1, dom)
    h2 = default_bandwidth(8000, 2, 1, dom)
    assert 0.0 < h2 < h1 <= 1.0, f"default bandwidth should shrink with n: {h1}, {h2}"
    with pytest.raises(MirrorSobolError):
        default_bandwidth(1000, 1, 2, dom)  # 2k <= d leaves no valid rate window


# ---------------------------------------------------------------------------
# distributional behaviour


def test_clt_normality_linear():
    # Linear g1 is degree 1, so a k=1 kernel has no smoothing bias at any h
    # and (T - t) * sqrt(n / (4 tau^2)) should look standard normal.
    # tau^2 = 103/240 by hand integration (see test_variance_t_linear_p2_oracle).
    m = linear_model(2)
    spec = SubsetSpec((0,))
    k = build_kernel(1, 1)
    n = 2000
    truth = m.t_of((0,))
    zs = []
    for seed in range(200):
        fs = m.draw(n, seed)
        t = estimate_t(fs, spec, k, 0.25, m.input_model)
        zs.append((t - truth) * math.sqrt(n / (4.0 * 103.0 / 240.0)))
    stat, pvalue = kstest(zs, "norm")
    assert pvalue > 0.005, f"standardized estimates fail KS normality: stat={stat}, p={pvalue}"


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    order=st.integers(min_value=0, max_value=2),
    h=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_matches_brute_force(n, order, h, seed):
    rng = np.random.default_rng(seed)
    v = rng.random((n, 1))
    y = rng.normal(size=n)
    fs = FullSample(V=v, Y=y)
    kernel = build_kernel(order, 1)
    t = estimate_t(fs, SubsetSpec((0,)), kernel, h, UNIT1)
    t_ref = brute_force_t(fs, SubsetSpec((0,)), kernel, h, UNIT1)
    # absolute floor: the fast path reconstructs kernel values (scale ~ 1/h)
    # from prefix sums, so exact zeros can come back as O(eps/h) leakage
    tol = 1e-11 * abs(t_ref) + 1e-10 * (1.0 + float(np.max(np.abs(y))) ** 2 / h)
    assert abs(t - t_ref) <= tol, f"{t} vs {t_ref} (n={n}, k={order}, h={h})"
