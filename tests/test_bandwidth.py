"""Tests for pilot-based bandwidth selection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from mirrorsobol import bandwidth
from mirrorsobol.bandwidth import (
    H0_FLOOR,
    PilotConfig,
    bandwidth_curve,
    compute_beta_single,
    default_grid,
    pilot_target,
    rule_of_thumb_h0,
    virtual_outputs,
)
from mirrorsobol.domain import Domain, check_mirror_condition
from mirrorsobol.errors import (
    BandwidthTooLargeError,
    InsufficientSampleError,
    MirrorSobolError,
    PilotTargetError,
)
from mirrorsobol.estimator import FullSample, SubsetSpec
from mirrorsobol.inputs import Beta, Custom, Uniform
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import ishigami_model, linear_model


def _sample(n, p, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.random((n, p))
    y = v.sum(axis=1) + 0.25
    return FullSample(V=v, Y=y)


UNIT_MARGINALS = (Uniform(0.0, 1.0),) * 3


# ------------------------------------------------------------------
# rule of thumb
# ------------------------------------------------------------------


def test_rule_of_thumb_formula_and_magnitude():
    s = _sample(1000, 3, seed=2)
    h0 = rule_of_thumb_h0(s)
    want = s.V.std(axis=0) * 1000 ** (-1.0 / 7.0)
    assert np.array_equal(h0, want)
    # uniform columns: std about 1/sqrt(12), so h0 about 0.1075
    assert np.all(np.abs(h0 - 0.1075) < 0.011), f"h0 {h0} far from 0.1075"


def test_rule_of_thumb_scale_equivariance():
    s = _sample(500, 2, seed=3)
    doubled = FullSample(V=s.V * 2.0, Y=s.Y)
    assert np.array_equal(rule_of_thumb_h0(doubled), 2.0 * rule_of_thumb_h0(s))


def test_rule_of_thumb_constant_column_errors():
    v = np.column_stack([np.linspace(0, 1, 50), np.full(50, 0.3)])
    with pytest.raises(MirrorSobolError, match="constant"):
        rule_of_thumb_h0(FullSample(V=v, Y=np.ones(50)))
    with pytest.raises(InsufficientSampleError):
        rule_of_thumb_h0(FullSample(V=np.array([[0.5]]), Y=np.array([1.0])))


# ------------------------------------------------------------------
# pair-sum oracle for the pilot target
# ------------------------------------------------------------------


def _pair_table(v, h0_i, marginal):
    """beta(j, k): integral of K_h0(v_j - x) K_h0(v_k - x) / f(x) over the support.

    Uniform marginals use the exact Gaussian closed form; anything else goes
    through adaptive quadrature, one call per pair.
    """
    a, b = marginal.support
    if isinstance(marginal, Uniform):
        diff = v[:, None] - v[None, :]
        mid = 0.5 * (v[:, None] + v[None, :])
        s = h0_i / math.sqrt(2)
        gauss = norm.pdf(diff / (math.sqrt(2) * h0_i)) / (math.sqrt(2) * h0_i)
        return (b - a) * gauss * (norm.cdf((b - mid) / s) - norm.cdf((a - mid) / s))

    def integrand(x, vj, vk):
        f = float(marginal.pdf(np.array([x]))[0])
        if f <= 0.0:
            return 0.0
        return norm.pdf(vj - x, scale=h0_i) * norm.pdf(vk - x, scale=h0_i) / f

    n = v.shape[0]
    out = np.empty((n, n))
    for j in range(n):
        for k in range(j, n):
            val, _ = integrate.quad(integrand, a, b, args=(v[j], v[k]), epsabs=1e-14, epsrel=1e-11, limit=200)
            out[j, k] = out[k, j] = val
    return out


def _oracle_tables(sample, mask, h0, marginals):
    """Pair tables on the mask axes, off-mask kernel masses elsewhere."""
    pair, single = [], []
    for i, marg in enumerate(marginals):
        if i in mask:
            pair.append(_pair_table(sample.V[:, i], max(h0[i], H0_FLOOR), marg))
        else:
            single.append(compute_beta_single(sample, i, h0[i], support=marg.support))
    return pair, single


def _naive_target(y, pair, single, full=False):
    n = y.shape[0]
    acc = 0.0
    for j in range(n):
        for k in range(n):
            if not full and k < j:
                continue
            term = y[j] * y[k]
            for mat in pair:
                term *= mat[j, k]
            for vec in single:
                term *= vec[j] * vec[k]
            acc += term
    return acc / n**2


def _assert_matches_oracle(sample, mask, h0, marginals, rtol):
    got = pilot_target(sample, SubsetSpec(mask=mask), h0, marginals)
    pair, single = _oracle_tables(sample, mask, h0, marginals)
    y = np.asarray(sample.Y, dtype=float)
    # signed outputs can cancel, so the scale is the all-positive sum
    for full, g in zip((True, False), got):
        want = _naive_target(y, pair, single, full=full)
        scale = _naive_target(np.abs(y), pair, single, full=full)
        assert abs(g - want) <= rtol * scale, f"quadrature {g} vs pair sum {want} (scale {scale})"


def _flat(a, b):
    return Custom(
        density=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / (b - a)),
        support_interval=(a, b),
        sampler=lambda n, rng: rng.uniform(a, b, n),
    )


# ------------------------------------------------------------------
# pilot target
# ------------------------------------------------------------------


def test_beta_pair_hand_value():
    # coincident points at 0.5 with h0 = 0.1: every pair overlap is
    # (1/(sqrt(2) 0.1)) phi(0) times essentially all the normal mass inside
    # [0,1] -> about 2.8209; the half-open sum keeps 3 of the 4 pairs
    v = np.column_stack([np.array([0.5, 0.5])])
    s = FullSample(V=v, Y=np.ones(2))
    full, printed = pilot_target(s, SubsetSpec(mask=(0,)), [0.1], [Uniform(0.0, 1.0)])
    want = (
        norm.pdf(0.0) / (math.sqrt(2) * 0.1)
        * (norm.cdf(0.5 / (0.1 / math.sqrt(2))) - norm.cdf(-0.5 / (0.1 / math.sqrt(2))))
    )
    assert full == pytest.approx(want, rel=1e-12)
    assert printed == pytest.approx(0.75 * want, rel=1e-12)
    assert full == pytest.approx(2.8209, abs=2e-4)


def test_beta_pair_closed_form_matches_quadrature():
    # a flat Custom density takes the Legendre rule with its convergence
    # check; it must equal the Uniform marginal and the closed-form oracle
    s = _sample(15, 1, seed=7)
    spec = SubsetSpec(mask=(0,))
    uniform = pilot_target(s, spec, [0.09], [Uniform(0.0, 1.0)])
    flat = pilot_target(s, spec, [0.09], [_flat(0.0, 1.0)])
    assert flat == pytest.approx(uniform, rel=1e-12, abs=0.0)
    _assert_matches_oracle(s, (0,), [0.09], [Uniform(0.0, 1.0)], rtol=1e-12)


def test_beta_pair_shifted_uniform_support():
    rng = np.random.default_rng(12)
    v = rng.uniform(0.0, 2.0, size=(8, 1))
    s = FullSample(V=v, Y=np.ones(8))
    _assert_matches_oracle(s, (0,), [0.15], [Uniform(0.0, 2.0)], rtol=1e-12)
    spec = SubsetSpec(mask=(0,))
    closed = pilot_target(s, spec, [0.15], [Uniform(0.0, 2.0)])
    flat = pilot_target(s, spec, [0.15], [_flat(0.0, 2.0)])
    assert flat == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_beta_pair_symmetric_nonnegative():
    # the target is an integral of a square: nonnegative for signed outputs,
    # and symmetric in the rows
    s = _sample(40, 2, seed=5)
    signed = FullSample(V=s.V, Y=s.Y - s.Y.mean())
    spec = SubsetSpec(mask=(1,))
    marg = [Uniform(0.0, 1.0)] * 2
    full, printed = pilot_target(signed, spec, [0.1, 0.12], marg)
    assert full >= 0.0 and printed >= 0.0
    perm = np.random.default_rng(3).permutation(40)
    shuffled = FullSample(V=signed.V[perm], Y=signed.Y[perm])
    assert pilot_target(shuffled, spec, [0.1, 0.12], marg) == pytest.approx((full, printed), rel=1e-13)


def test_beta_single_values():
    v = np.column_stack([np.array([0.5, 0.0, 0.9])])
    s = FullSample(V=v, Y=np.ones(3))
    out = compute_beta_single(s, 0, 0.05)
    assert abs(out[0] - 1.0) < 1e-12, f"interior mass {out[0]}"
    assert out[1] == pytest.approx(norm.cdf(1.0 / 0.05) - 0.5, rel=1e-14)
    assert np.all(out <= 1.0) and np.all(out > 0.0)
    # interior mass increases toward 1 as h0 shrinks
    wide = compute_beta_single(s, 0, 0.3)
    assert wide[0] < out[0]


def test_target_zero_output():
    s = FullSample(V=np.random.default_rng(0).random((12, 2)), Y=np.zeros(12))
    assert pilot_target(s, SubsetSpec(mask=(0,)), [0.1, 0.1], [Uniform(0.0, 1.0)] * 2) == (0.0, 0.0)


def test_target_single_point():
    # the target is well defined for a single row even though the
    # U-statistic is not, so feed a bare container
    from types import SimpleNamespace

    s = SimpleNamespace(V=np.array([[0.4, 0.6]]), Y=np.array([3.0]), n=1)
    marg = [Uniform(0.0, 1.0)] * 2
    pair, single = _oracle_tables(s, (0,), [0.1, 0.1], marg)
    want = 9.0 * pair[0][0, 0] * single[0][0] ** 2
    full, printed = pilot_target(s, SubsetSpec(mask=(0,)), [0.1, 0.1], marg)
    assert full == pytest.approx(want, rel=1e-14)
    assert printed == pytest.approx(want, rel=1e-14)


def test_target_matches_naive_loops():
    s = _sample(30, 3, seed=9)
    h0 = [0.1, 0.12, 0.14]
    marg = [Uniform(0.0, 1.0)] * 3
    full, printed = pilot_target(s, SubsetSpec(mask=(0, 2)), h0, marg)
    pair, single = _oracle_tables(s, (0, 2), h0, marg)
    assert printed == pytest.approx(_naive_target(s.Y, pair, single), rel=1e-12)
    assert full == pytest.approx(_naive_target(s.Y, pair, single, full=True), rel=1e-12)


@st.composite
def _uniform_cases(draw):
    """Small samples on shifted boxes with ties, edge and midpoint coordinates."""
    p = draw(st.integers(1, 3))
    mask = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))))
    lo = [draw(st.floats(-3.0, 3.0)) for _ in range(p)]
    hi = [a + draw(st.floats(0.25, 2.0)) for a in lo]
    floor = len(mask) <= 2 and draw(st.booleans())
    h0 = [draw(st.floats(0.02, 0.5)) * (b - a) for a, b in zip(lo, hi)]
    if floor:
        # the first mask axis at the pilot floor: 4000 nodes per unit width
        h0[mask[0]] = H0_FLOOR
        hi[mask[0]] = lo[mask[0]] + min(hi[mask[0]] - lo[mask[0]], 1.0)

    def coord(i):
        a, b = lo[i], hi[i]
        return draw(st.one_of(st.sampled_from([a, b, 0.5 * (a + b)]), st.floats(a, b)))

    pool = [[coord(i) for i in range(p)] for _ in range(draw(st.integers(1, 6)))]
    n = draw(st.integers(2, 10))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    y = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    sample = FullSample(V=np.array(rows, dtype=float), Y=np.array(y))
    return sample, mask, h0, [Uniform(a, b) for a, b in zip(lo, hi)]


@settings(max_examples=40, deadline=None)
@given(_uniform_cases())
def test_target_uniform_matches_pair_sum_oracle(case):
    sample, mask, h0, marginals = case
    _assert_matches_oracle(sample, mask, h0, marginals, rtol=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    a=st.floats(0.6, 1.9),
    b=st.floats(0.6, 1.9),
    both=st.booleans(),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_target_beta_matches_pair_sum_oracle(a, b, both, n, seed):
    rng = np.random.default_rng(seed)
    marginals = [Beta(a, b), Beta(b, a) if both else Uniform(0.0, 1.0)]
    v = np.column_stack([rng.beta(a, b, n), rng.beta(b, a, n) if both else rng.random(n)])
    sample = FullSample(V=v, Y=v.sum(axis=1) + rng.normal(size=n))
    mask = (0, 1) if both else (0,)
    _assert_matches_oracle(sample, mask, [0.12, 0.09], marginals, rtol=1e-9)


@settings(max_examples=12, deadline=None)
@given(a=st.floats(0.6, 1.95), b=st.floats(0.6, 1.95), seed=st.integers(0, 2**16))
@example(a=1.949, b=1.949, seed=0)
@example(a=1.8, b=0.7, seed=0)
def test_target_beta_stable_as_nodes_grow(a, b, seed):
    # the Jacobi end panels keep the rule's accuracy fixed as G grows 8-fold
    rng = np.random.default_rng(seed)
    v = rng.beta(a, b, (5, 1))
    sample = FullSample(V=v, Y=v[:, 0] + rng.normal(size=5))
    targets = []
    for per_h0 in (4.0, 32.0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bandwidth, "_NODES_PER_H0", per_h0)
            targets.append(pilot_target(sample, SubsetSpec(mask=(0,)), [0.12], [Beta(a, b)])[0])
    assert targets[1] == pytest.approx(targets[0], rel=1e-11, abs=0)


def test_target_smooth_custom_matches_pair_sum_oracle():
    tilted = Custom(
        density=lambda x: 0.5 + np.asarray(x, dtype=float),
        support_interval=(0.0, 1.0),
        sampler=lambda n, rng: (np.sqrt(1.0 + 8.0 * rng.random(n)) - 1.0) / 2.0,
    )
    s = _sample(6, 2, seed=4)
    _assert_matches_oracle(s, (1,), [0.1, 0.08], [Uniform(0.0, 1.0), tilted], rtol=1e-9)


def test_target_infinite_for_beta_shape_two():
    # 1/f ~ x^(1-a) is not integrable at 0 once a >= 2
    s = FullSample(V=np.array([[0.2], [0.5], [0.8]]), Y=np.array([1.0, 2.0, 3.0]))
    for shape in ((2.5, 1.2), (1.2, 2.0)):
        with pytest.raises(PilotTargetError, match="--h or --rule") as err:
            pilot_target(s, SubsetSpec(mask=(0,)), [0.1], [Beta(*shape)])
        assert err.value.axis == 0 and "axis 0" in str(err.value)
    # the same marginal off the mask only contributes closed-form masses
    v = np.column_stack([s.V[:, 0], s.V[:, 0]])
    pilot_target(FullSample(V=v, Y=s.Y), SubsetSpec(mask=(1,)), [0.1, 0.1], [Beta(2.5, 1.2), Uniform(0.0, 1.0)])


def test_target_work_budget():
    # four mask axes at the pilot floor need 4000^4 nodes; axis 2 has the
    # widest support, so it needs the most
    s = _sample(3, 4, seed=0)
    marg = [Uniform(0.0, 1.0), Uniform(0.0, 1.0), Uniform(0.0, 2.0), Uniform(0.0, 1.0)]
    with pytest.raises(PilotTargetError, match="--h or --rule") as err:
        pilot_target(s, SubsetSpec(mask=(0, 1, 2, 3)), [H0_FLOOR] * 4, marg)
    assert err.value.axis == 2 and "axis 2" in str(err.value)


def test_target_budget_admits_masks_up_to_three_at_ten_thousand():
    model = linear_model(3)
    s = model.draw(10_000, seed=0)
    h0 = rule_of_thumb_h0(s)
    for mask in ((0,), (0, 1), (0, 1, 2)):
        full, printed = pilot_target(s, SubsetSpec(mask=mask), h0, model.input_model.marginals)
        assert 0.0 < printed < full


def test_target_custom_singular_density_fails_convergence():
    # f(x) = 1.5 sqrt(x): 1/f is integrable but singular at 0, where the
    # Legendre rule converges too slowly to trust
    root = Custom(
        density=lambda x: 1.5 * np.sqrt(np.clip(np.asarray(x, dtype=float), 0.0, None)),
        support_interval=(0.0, 1.0),
        sampler=lambda n, rng: rng.random(n) ** (2.0 / 3.0),
    )
    s = FullSample(V=np.array([[0.9, 0.01], [0.4, 0.3], [0.1, 0.7]]), Y=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(PilotTargetError, match="does not converge") as err:
        pilot_target(s, SubsetSpec(mask=(0, 1)), [0.1, 0.1], [Uniform(0.0, 1.0), root])
    assert err.value.axis == 1 and "--h or --rule" in str(err.value)


# ------------------------------------------------------------------
# virtual outputs
# ------------------------------------------------------------------


def test_virtual_outputs_hand_n2():
    v = np.array([[0.3], [0.7]])
    y = np.array([2.0, 6.0])
    s = FullSample(V=v, Y=y)
    h0 = np.array([0.2])
    k_cross = norm.pdf(0.4 / 0.2) / 0.2
    # with n = 2, each leave-one-out value is just the other point's term
    out = virtual_outputs(s, h0, (Uniform(0.0, 1.0),))
    assert out[0] == pytest.approx(6.0 * k_cross, rel=1e-12)
    assert out[1] == pytest.approx(2.0 * k_cross, rel=1e-12)
    # and it is divided by f_V = 1/2 on [0, 2]
    wide = virtual_outputs(s, h0, (Uniform(0.0, 2.0),))
    assert np.allclose(wide, 2.0 * out, rtol=1e-14), f"{wide} vs {2.0 * out}"


def test_virtual_outputs_h0_floor():
    s = _sample(50, 1, seed=14)
    tiny = virtual_outputs(s, [1e-9], UNIT_MARGINALS[:1])
    floored = virtual_outputs(s, [H0_FLOOR], UNIT_MARGINALS[:1])
    assert np.array_equal(tiny, floored), "h0 floor not applied"


def test_virtual_outputs_pilot_regression_sanity():
    model = linear_model(1)
    s = model.draw(2000, seed=4)
    yv = virtual_outputs(s, rule_of_thumb_h0(s), model.input_model.marginals)
    corr = np.corrcoef(yv, s.Y)[0, 1]
    assert corr >= 0.9, f"pilot correlation {corr} below 0.9"
    # more axes mean more uncorrected boundary shrinkage, but the pilot
    # must stay strongly informative
    model3 = linear_model(3)
    s3 = model3.draw(2000, seed=4)
    corr3 = np.corrcoef(virtual_outputs(s3, rule_of_thumb_h0(s3), model3.input_model.marginals), s3.Y)[0, 1]
    assert corr3 >= 0.6, f"pilot correlation {corr3} collapsed for p=3"


def test_virtual_outputs_validation():
    s = _sample(20, 2, seed=1)
    with pytest.raises(MirrorSobolError):
        virtual_outputs(s, [0.1], UNIT_MARGINALS[:2])  # wrong h0 length
    with pytest.raises(MirrorSobolError):
        virtual_outputs(s, [0.1, 0.1], UNIT_MARGINALS[:1])  # wrong marginal count
    with pytest.raises(MirrorSobolError):
        # every row lies outside [2, 3], where the density is zero
        virtual_outputs(s, [0.1, 0.1], (Uniform(0.0, 1.0), Uniform(2.0, 3.0)))


# ------------------------------------------------------------------
# selection
# ------------------------------------------------------------------


def test_pilot_config_validation():
    with pytest.raises(MirrorSobolError):
        PilotConfig(h0=[], grid=[0.1])
    with pytest.raises(MirrorSobolError):
        PilotConfig(h0=[0.1], grid=[])
    with pytest.raises(MirrorSobolError):
        PilotConfig(h0=[0.1], grid=[0.2, 0.1])
    with pytest.raises(MirrorSobolError):
        PilotConfig(h0=[-0.1], grid=[0.1])


def test_default_grid_shape_and_mirror():
    dom = Domain(np.zeros(2), np.ones(2))
    grid = default_grid(1000, 1, dom)
    assert grid.shape == (25,)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx((0.05 * 1000) ** (-1.0), rel=1e-12)
    assert grid[-1] == pytest.approx(1.0, rel=1e-12)
    assert all(check_mirror_condition(dom, float(h)) for h in grid)
    # lower endpoint stays above the pair-informative threshold scale
    grid2 = default_grid(1000, 2, dom)
    assert grid2[0] == pytest.approx(50.0 ** (-0.5), rel=1e-12)


def test_virtual_outputs_loo_drops_self_term():
    # the virtual output of a row does not depend on that row's own Y
    s = _sample(30, 2, seed=9)
    y = s.Y.copy()
    y[7] += 5.0
    base = virtual_outputs(s, [0.2, 0.3], UNIT_MARGINALS[:2])
    moved = virtual_outputs(FullSample(V=s.V, Y=y), [0.2, 0.3], UNIT_MARGINALS[:2])
    assert moved[7] == pytest.approx(base[7], rel=1e-13)
    assert np.all(moved[np.arange(30) != 7] > base[np.arange(30) != 7])


def test_select_grid_of_one():
    s = _sample(60, 1, seed=21)
    cfg = PilotConfig(h0=rule_of_thumb_h0(s), grid=[0.17])
    kern = build_kernel(1, 1)
    h = bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, cfg, lambda x: np.ones(x.shape[0]))["h_star"]
    assert h == 0.17


def test_select_mirror_violation():
    s = _sample(60, 1, seed=21)
    cfg = PilotConfig(h0=[0.1], grid=[0.5, 1.7])
    kern = build_kernel(1, 1)
    with pytest.raises(BandwidthTooLargeError):
        bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, cfg, lambda x: np.ones(x.shape[0]))


def test_select_scale_invariance():
    # both the target and the virtual U-statistic are quadratic in Y, so
    # scaling Y leaves the argmin unchanged
    s = _sample(300, 2, seed=8)
    spec = SubsetSpec(mask=(0,))
    kern = build_kernel(2, 1)
    cfg = PilotConfig(h0=rule_of_thumb_h0(s), grid=default_grid(300, 1, Domain(np.zeros(2), np.ones(2))))
    f_x = lambda x: np.ones(x.shape[0])
    h_base = bandwidth_curve(s, spec, kern, cfg, f_x)["h_star"]
    for lam in (4.0, 3.0, -2.0):
        scaled = FullSample(V=s.V, Y=lam * s.Y)
        h_lam = bandwidth_curve(scaled, spec, kern, cfg, f_x)["h_star"]
        assert h_lam == h_base, f"lambda={lam}: h* moved {h_base} -> {h_lam}"


def test_bandwidth_curve_fields_and_determinism():
    s = _sample(200, 1, seed=2)
    cfg = PilotConfig(h0=rule_of_thumb_h0(s), grid=default_grid(200, 1, Domain(np.zeros(1), np.ones(1))))
    kern = build_kernel(2, 1)
    f_x = lambda x: np.ones(x.shape[0])
    out1 = bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, cfg, f_x)
    out2 = bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, cfg, f_x)
    assert out1 == out2
    assert set(out1) == {"h_star", "target", "target_printed", "curve"}
    assert len(out1["curve"]) == len(cfg.grid)
    hs = [h for h, _ in out1["curve"]]
    assert out1["h_star"] in hs
    vals = [v for _, v in out1["curve"]]
    assert min(vals) == dict(out1["curve"])[out1["h_star"]]


def test_curve_checks_the_grid_on_the_mask_subdomain():
    # the off-mask axis is 10x narrower than the mask axis; the grid runs to
    # the mask axis's mirror limit and must be accepted
    rng = np.random.default_rng(12)
    v = rng.random((300, 2)) * np.array([1.0, 0.1])
    s = FullSample(V=v, Y=v[:, 0] + 5.0 * v[:, 1])
    dom = Domain(np.zeros(2), np.array([1.0, 0.1]))
    cfg = PilotConfig(h0=rule_of_thumb_h0(s), grid=default_grid(300, 1, dom.subdomain((0,))))
    spec, kern = SubsetSpec(mask=(0,)), build_kernel(2, 1)
    f_x = lambda x: np.ones(x.shape[0])
    out = bandwidth_curve(s, spec, kern, cfg, f_x, domain=dom)
    assert out["h_star"] in cfg.grid
    # beyond the mask axis's own limit the grid is still rejected
    too_wide = PilotConfig(h0=cfg.h0, grid=(0.5, 2.5))
    with pytest.raises(BandwidthTooLargeError):
        bandwidth_curve(s, spec, kern, too_wide, f_x, domain=dom)


def test_curve_uses_the_input_density_off_the_unit_cube():
    # ishigami lives on [-pi, pi]^3: virtual outputs divided by a unit
    # density come out (2 pi)^3 too small and the objective is flat at the target
    model = ishigami_model()
    s = model.draw(600, seed=0)
    spec = SubsetSpec(mask=(0,))
    dom = model.input_model.domain
    cfg = PilotConfig(h0=rule_of_thumb_h0(s), grid=default_grid(600, 1, dom.subdomain((0,))))
    out = bandwidth_curve(s, spec, build_kernel(2, 1), cfg, model.input_model, input_model=model.input_model)
    vals = [v for _, v in out["curve"]]
    assert max(vals) > 10.0 * min(vals), f"flat objective curve {vals}"
    assert min(vals) < 0.1 * out["target"]
