"""Tests for pilot-based bandwidth selection."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import norm

from mirrorsobol import _window, bandwidth
from mirrorsobol.bandwidth import (
    H0_FLOOR,
    bandwidth_curve,
    default_grid,
    pilot_target,
    rule_of_thumb_h0,
    virtual_outputs,
)
from mirrorsobol.domain import Domain, check_mirror_condition
from mirrorsobol.errors import (
    BandwidthTooLargeError,
    DomainViolationError,
    InsufficientSampleError,
    MirrorSobolError,
    PilotTargetError,
    SingularDensityError,
)
from mirrorsobol.estimator import FullSample, SubsetSpec, estimate_sobol, estimate_t
from mirrorsobol.inputs import Beta, Uniform
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import ishigami_model, linear_model, product_model


def _sample(n, p, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.random((n, p))
    y = v.sum(axis=1) + 0.25
    return FullSample(V=v, Y=y)


UNIT_MARGINALS = (Uniform(0.0, 1.0),) * 3


def _unit(p):
    return Domain(np.zeros(p), np.ones(p))


# ------------------------------------------------------------------
# rule of thumb
# ------------------------------------------------------------------


def test_rule_of_thumb_formula_and_magnitude():
    s = _sample(1000, 3, seed=2)
    h0 = rule_of_thumb_h0(s)
    want = np.sort(s.V, axis=0).std(axis=0) * 1000 ** (-1.0 / 7.0)
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

    Uniform marginals use the exact Gaussian closed form.  A Beta(p, q)
    marginal has 1/f = B(p, q) x^(1-p) (1-x)^(1-q): the integral is split at
    the two kernel centres, and each end piece goes to quad with its
    singular factor as the algebraic weight (QUADPACK's QAWS), one call per
    piece.  Plain quad over the whole support, 1/f in the integrand, missed
    a narrow bump beside a singular end by 8e-9 with an error estimate of
    9e-12 and no warning.
    """
    a, b = marginal.support
    if isinstance(marginal, Uniform):
        diff = v[:, None] - v[None, :]
        mid = 0.5 * (v[:, None] + v[None, :])
        s = h0_i / math.sqrt(2)
        gauss = norm.pdf(diff / (math.sqrt(2) * h0_i)) / (math.sqrt(2) * h0_i)
        return (b - a) * gauss * (norm.cdf((b - mid) / s) - norm.cdf((a - mid) / s))
    assert isinstance(marginal, Beta) and (a, b) == (0.0, 1.0)
    ea, eb = 1.0 - marginal.a, 1.0 - marginal.b
    norm_const = special.beta(marginal.a, marginal.b)
    tol = dict(epsabs=1e-14, epsrel=1e-11, limit=200)
    n = v.shape[0]
    out = np.empty((n, n))
    for j in range(n):
        for k in range(j, n):
            lo, hi = sorted((v[j], v[k]))

            def bumps(x):
                return norm_const * norm.pdf(v[j] - x, scale=h0_i) * norm.pdf(v[k] - x, scale=h0_i)

            left = integrate.quad(lambda x: bumps(x) * (1.0 - x) ** eb, 0.0, lo, weight="alg", wvar=(ea, 0.0), **tol)
            middle = integrate.quad(lambda x: bumps(x) * x**ea * (1.0 - x) ** eb, lo, hi, **tol)
            right = integrate.quad(lambda x: bumps(x) * x**ea, hi, 1.0, weight="alg", wvar=(0.0, eb), **tol)
            out[j, k] = out[k, j] = left[0] + middle[0] + right[0]
    return out


def _oracle_tables(sample, mask, h0, marginals):
    """Pair tables on the mask axes, off-mask kernel masses elsewhere."""
    pair, single = [], []
    for i, marg in enumerate(marginals):
        if i in mask:
            pair.append(_pair_table(sample.V[:, i], max(h0[i], H0_FLOOR), marg))
        else:
            single.append(bandwidth._beta_single(sample, i, max(h0[i], H0_FLOOR), marg.support))
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
    # gradual underflow: a product with a subnormal output keeps only the bits
    # above the smallest subnormal, a few of them per pair, times the largest
    # kernel factor of a pair
    k_max = np.prod([m.max() for m in pair]) * np.prod([np.max(v) ** 2 for v in single])
    underflow = 4.0 * y.size**2 * k_max * np.finfo(float).smallest_subnormal
    # signed outputs can cancel, so the scale is the all-positive sum
    for full, g in zip((True, False), got):
        want = _naive_target(y, pair, single, full=full)
        scale = _naive_target(np.abs(y), pair, single, full=full)
        assert abs(g - want) <= rtol * scale + underflow, f"quadrature {g} vs pair sum {want} (scale {scale})"


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
    s = _sample(15, 1, seed=7)
    _assert_matches_oracle(s, (0,), [0.09], [Uniform(0.0, 1.0)], rtol=1e-12)


def test_beta_pair_shifted_uniform_support():
    rng = np.random.default_rng(12)
    v = rng.uniform(0.0, 2.0, size=(8, 1))
    s = FullSample(V=v, Y=np.ones(8))
    _assert_matches_oracle(s, (0,), [0.15], [Uniform(0.0, 2.0)], rtol=1e-12)


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
    out = bandwidth._beta_single(s, 0, 0.05, (0.0, 1.0))
    assert abs(out[0] - 1.0) < 1e-12, f"interior mass {out[0]}"
    assert out[1] == pytest.approx(norm.cdf(1.0 / 0.05) - 0.5, rel=1e-14)
    assert np.all(out <= 1.0) and np.all(out > 0.0)
    # interior mass increases toward 1 as h0 shrinks
    wide = bandwidth._beta_single(s, 0, 0.3, (0.0, 1.0))
    assert wide[0] < out[0]


def test_normal_cdf_keeps_the_bits_of_the_scalar_loop():
    z = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 40.0, -40.0], np.random.default_rng(6).standard_normal(4000)])
    want = np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in z.tolist()])
    got = bandwidth._normal_cdf(z)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert bandwidth._normal_cdf(np.empty(0)).shape == (0,)


def test_pilot_rejects_a_foreign_marginal():
    # the pilot quadrature has rules for Uniform and Beta marginals only
    class Flat:
        support = (0.0, 1.0)

        def pdf(self, x):
            return np.ones_like(np.asarray(x, dtype=float))

    s = _sample(5, 2, seed=1)
    marginals = [Uniform(0.0, 1.0), Flat()]
    with pytest.raises(MirrorSobolError, match="marginal 1 is a Flat"):
        pilot_target(s, SubsetSpec(mask=(0,)), [0.1, 0.1], marginals)
    with pytest.raises(MirrorSobolError, match="marginal 1 is a Flat"):
        virtual_outputs(s, [0.1, 0.1], marginals)


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
# 176 nodes on each of three unit axes: 176^3 passes the node budget
@example((FullSample(V=np.zeros((2, 3)), Y=np.zeros(2)), (0, 1, 2), [0.0234375] * 3, [Uniform(0.0, 1.0)] * 3))
def test_target_uniform_matches_pair_sum_oracle(case):
    sample, mask, h0, marginals = case
    h = bandwidth._clipped_h0(h0)
    if math.prod(bandwidth._node_count(i, h[i], marginals[i]) for i in mask) > bandwidth._NODE_BUDGET:
        with pytest.raises(PilotTargetError, match="beyond the budget"):
            pilot_target(sample, SubsetSpec(mask=mask), h0, marginals)
    else:
        _assert_matches_oracle(sample, mask, h0, marginals, rtol=1e-12)


# an oracle value that quad warns about is of unknown accuracy
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=12, deadline=None)
@given(
    a=st.floats(0.6, 1.9),
    b=st.floats(0.6, 1.9),
    both=st.booleans(),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
@example(a=1.188618137445915, b=0.6, both=False, n=2, seed=54)
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


def _virtual_outputs_reference(sample, h0, marginals):
    """The dense formula of virtual_outputs in 512-row blocks, allocating each block afresh.

    One block serves n <= 512 and a one-row tail joins the block before it,
    since numpy sums a one-row product otherwise than a matrix-vector one.
    Larger blocks are not used: past about 4.6e5 entries OpenBLAS splits a
    matrix-vector product between threads, which moves the last bit of
    some rows.
    """
    v, y = sample.V, sample.Y
    n, p = v.shape
    h0 = np.maximum(np.asarray(h0, dtype=float), H0_FLOOR)
    fvals = np.prod([m.pdf(v[:, i]) for i, m in enumerate(marginals)], axis=0)
    inv_h = 1.0 / h0
    log_norm = -np.sum(np.log(h0)) - 0.5 * p * math.log(2 * math.pi)
    out = np.empty(n)
    starts = list(range(0, n, 512)) + [n]
    if len(starts) > 2 and starts[-1] - starts[-2] == 1:
        del starts[-2]
    for start, stop in zip(starts[:-1], starts[1:]):
        blk = slice(start, stop)
        expo = np.zeros((blk.stop - blk.start, n))
        for i in range(p):
            z = (v[None, :, i] - v[blk, i][:, None]) * inv_h[i]
            expo -= 0.5 * z * z
        out[blk] = np.exp(expo + log_norm) @ y
    return (out - y * math.exp(log_norm)) / ((n - 1) * fvals)


def _extended_virtual_outputs(sample, h0, marginals):
    """The virtual outputs in np.longdouble, and the bound within which a double evaluation lies.

    With u = 2^-53, the offsets of a pair at distance d (in pilot
    bandwidths) carry a relative error of at most 3u: a difference, the
    rounded 1/h0 and a product.  The exponent log_norm - d^2/2 is a sum of
    at most p + 2 products of offsets, or of p squares and log_norm in the
    dense formula.  Taken from the first row s of a block of radius rho,
    |log_norm| + |a|^2/2 + |a.b| + |b|^2/2 <= |log_norm| + (d + 2 rho)^2/2,
    so the exponent is off by at most (p + 10) u (|log_norm| + (d + 2 rho)^2),
    and exp adds 4u relative.  virtual_outputs keeps rho below the cell
    diagonal _VIRT_CELL sqrt(p); the dense formula has rho = 0 and meets the
    same bound.  Summing over k (one gemv of n terms, or a gemv and up to n
    later additions) adds (2n + 1) u sum_k |Y_k| K_jk, the self-term K(0)
    |Y_j| included, since the dense formula adds and then subtracts it, and
    dividing by (n - 1) f_j adds (p + 3) u.  Below the normal range each
    kernel value, product and quotient may be off by 2^-1074 in absolute
    terms, which also covers an entry that rounds to 0 or is skipped
    because its value is below 2^-1075.  The bound doubles the sum of the
    terms before the division, for the terms of second order.
    """
    v, y = sample.V.astype(np.longdouble), sample.Y.astype(np.longdouble)
    n, p = v.shape
    h0 = np.maximum(np.asarray(h0, dtype=float), H0_FLOOR).astype(np.longdouble)
    fvals = np.prod([m.pdf(sample.V[:, i]) for i, m in enumerate(marginals)], axis=0)
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    log_norm = -np.sum(np.log(h0)) - p * np.log(two_pi) / 2
    rho = bandwidth._VIRT_CELL * math.sqrt(p)
    u, tiny = np.longdouble(2.0**-53), np.longdouble(2.0**-1074)
    value, bound = np.empty(n, dtype=np.longdouble), np.empty(n, dtype=np.longdouble)
    for j in range(n):
        d2 = np.sum(((v - v[j]) / h0) ** 2, axis=1)
        weights = np.abs(y) * np.exp(log_norm - d2 / 2)
        value[j] = np.sum(y * np.exp(log_norm - d2 / 2)) - y[j] * np.exp(log_norm)
        per_pair = (p + 10) * (abs(log_norm) + (np.sqrt(d2) + 2 * rho) ** 2) + 2 * n + p + 8
        bound[j] = 2 * (u * np.sum(weights * per_pair) + tiny * (np.sum(np.abs(y)) + 2 * n))
    scale = (n - 1) * fvals.astype(np.longdouble)
    return value / scale, bound / scale + tiny


def _assert_both_meet_the_extended_bound(sample, h0, marginals):
    # returns both outputs, the dense formula's first, for further checks
    value, bound = _extended_virtual_outputs(sample, h0, marginals)
    with np.errstate(over="ignore"):
        want = _virtual_outputs_reference(sample, h0, marginals)
    got = virtual_outputs(sample, h0, marginals)
    for name, out in (("dense formula", want), ("virtual_outputs", got)):
        miss = np.abs(out.astype(np.longdouble) - value) / bound
        assert np.all(miss <= 1.0), f"{name} misses the bound by {float(miss.max()):.3g}x at row {int(np.argmax(miss))}"
    return want, got


@pytest.mark.parametrize("model, n", [(linear_model(3), 700), (ishigami_model(), 600), (product_model(), 650)])
def test_virtual_outputs_bit_equal_to_the_dense_formula(model, n):
    # both the blocked Gram evaluation and the dense formula lie within the
    # rounding bound of the extended-precision value
    s = model.draw(n, seed=4)
    _assert_both_meet_the_extended_bound(s, rule_of_thumb_h0(s), model.input_model.marginals)


@pytest.mark.parametrize("n", [2, 17, 33, 257])
@pytest.mark.parametrize("ties", [False, True])
def test_virtual_outputs_bit_equal_to_the_dense_formula_one_axis(n, ties):
    # as above on one axis, with and without tied rows, at the rule of
    # thumb and at the floor, where most rows are alone in their window
    s = _sample(n, 1, seed=n)
    if ties:
        v = s.V.copy()
        v[2::3] = v[1]
        s = FullSample(V=v, Y=s.Y)
    for h0 in (rule_of_thumb_h0(s), [H0_FLOOR]):
        _assert_both_meet_the_extended_bound(s, h0, UNIT_MARGINALS[:1])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("width, h0", [(3e154, 3e153), (3e154, H0_FLOOR), (1e-160, H0_FLOOR)])
def test_virtual_outputs_bit_equal_to_the_dense_formula_at_extreme_scales(width, h0):
    # on (0, 3e154) at the floor the scaled offsets are clipped and their
    # squares overflow in the dense formula; on (0, 1e-160) the squared
    # offsets are subnormal
    rng = np.random.default_rng(17)
    for n in (33, 100):
        s = FullSample(V=width * rng.random((n, 1)), Y=rng.standard_normal(n))
        marginals = (Uniform(0.0, width),)
        want, got = _assert_both_meet_the_extended_bound(s, [h0], marginals)
    if width > 1.0 and h0 == H0_FLOOR:
        assert np.all(want == 0.0), "the Gaussian kernel underflows between points this far apart"
        assert np.all(got == 0.0), "the Gaussian kernel underflows between points this far apart"


def _partial_sums_below(limit):
    return lambda logs: all(abs(sum(logs[:k])) < limit for k in range(1, len(logs) + 1))


@st.composite
def _scaled_samples(draw):
    """(sample, h0, marginals): p in 1..6, n in 2..300, axis widths 1e-160 to 3e154, tied rows.

    h0 is the floor on every axis, or a fraction of each axis's width
    (clipped to the floor in the code).  Every partial product of the
    densities 1/width_i stays inside the float range, so f_V is positive
    and finite.
    """
    p = draw(st.integers(1, 6))
    n = draw(st.integers(2, 300))
    logs = draw(st.lists(st.floats(-160.0, math.log10(3e154)), min_size=p, max_size=p).filter(_partial_sums_below(300.0)))
    widths = [10.0**x for x in logs]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.random((n, p)) * widths
    for i in range(p):
        if draw(st.booleans()):
            v[rng.random(n) < 0.4, i] = v[0, i]
    fraction = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0]))
    h0 = [H0_FLOOR] * p if fraction == 0.0 else [fraction * w for w in widths]
    return FullSample(V=v, Y=rng.standard_normal(n)), h0, tuple(Uniform(0.0, w) for w in widths)


@settings(max_examples=60, deadline=None)
@given(_scaled_samples())
def test_virtual_outputs_meet_the_extended_bound_at_any_scale(case):
    _assert_both_meet_the_extended_bound(*case)


def test_virtual_outputs_skip_only_exact_zeros_between_far_clusters(monkeypatch):
    # two clusters 60 pilot bandwidths apart on axis 0, beyond the reach of
    # 38.6 at which exp underflows: the blocks of the first cluster take no
    # column of the second, and the outputs of each cluster keep their bits
    # whatever the outputs of the other are
    rng = np.random.default_rng(21)
    near = 0.05 * rng.random((150, 2))
    v = np.concatenate([near, near + [0.6, 0.0]])
    y = rng.standard_normal(300)
    h0 = [0.01, 0.01]
    blocks = []
    split = bandwidth._blocks

    def recorded(*args):
        blocks.append(split(*args))
        return blocks[-1]

    monkeypatch.setattr(bandwidth, "_blocks", recorded)
    out = virtual_outputs(FullSample(V=v, Y=y), h0, UNIT_MARGINALS[:2])
    starts, _, ends = blocks[0]
    assert max(e for s, e in zip(starts, ends) if s < 150) <= 150
    for lo, hi in ((0, 150), (150, 300)):
        other = y.copy()
        other[lo:hi] = rng.standard_normal(150)
        moved = virtual_outputs(FullSample(V=v, Y=other), h0, UNIT_MARGINALS[:2])
        kept = np.r_[0:lo, hi:300]
        assert np.array_equal(moved[kept], out[kept])
    _assert_both_meet_the_extended_bound(FullSample(V=v, Y=y), h0, UNIT_MARGINALS[:2])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_virtual_outputs_at_the_ends_of_the_float_range():
    # beside a row at -1e24, the rows 0, 1e7 and 1e7 + 0.01 all round to
    # -1e24 + 0 when measured from the minimum, yet the last two are 10
    # pilot bandwidths apart and 1e10 from the first: cells measured that
    # way would put them in one block of radius 1e10, whose exponents are
    # off by eps 1e20.  In the second sample the rows are close on axis 0,
    # so no column is skipped, and 4e308 pilot bandwidths apart on axis 1,
    # an offset that overflows to inf before its clip
    signs = np.array([0.5, -1.0, 2.0, 0.25, -0.75])
    far = 2e305
    cases = (
        (np.array([[-1e24], [0.0], [1e7], [1e7 + 0.01], [3.0]]), signs, (Uniform(-1e24, 1e24),)),
        (
            np.array([[0.0, -far], [1e-3, far], [2e-3, 0.0], [3e-3, 1e-3], [4e-3, far]]),
            1e-3 * signs,  # f_V is 2.5e-306 here, and Y~ divides by it
            (Uniform(-1.0, 1.0), Uniform(-far, far)),
        ),
    )
    for v, y, marginals in cases:
        s = FullSample(V=v, Y=y)
        h0 = [H0_FLOOR] * v.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = virtual_outputs(s, h0, marginals)
        assert np.all(np.isfinite(got)) and np.any(got != 0.0)
        _assert_both_meet_the_extended_bound(s, h0, marginals)


@pytest.mark.parametrize("floor", [False, True])
def test_virtual_outputs_working_set_is_linear_in_n(floor):
    # the (_VIRT_BLOCK, n) exponents, p + 2 rows of offsets, the sorted
    # copies and the block list: at most 96 doubles per row at n = 10^4,
    # where one (n, n) kernel matrix would take 763 MiB
    model = linear_model(3)
    s = model.draw(10_000, seed=0)
    h0 = [H0_FLOOR] * 3 if floor else rule_of_thumb_h0(s)
    peak = _peak_mib(lambda: virtual_outputs(s, h0, model.input_model.marginals))
    assert peak <= 96 * 8 * s.n / 2**20, f"virtual_outputs peaked at {peak:.2f} MiB"


def test_virtual_outputs_do_not_report_an_overflow_of_squared_offsets():
    rng = np.random.default_rng(17)
    s = FullSample(V=3e154 * rng.random((40, 1)), Y=rng.standard_normal(40))
    marginals = (Uniform(0.0, 3e154),)
    with np.errstate(over="ignore"):
        want = _virtual_outputs_reference(s, [H0_FLOOR], marginals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = virtual_outputs(s, [H0_FLOOR], marginals)
    assert np.array_equal(got, want)


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


class _PilotCalled(Exception):
    pass


def test_curve_checks_h0_and_grid_before_pilot_work(monkeypatch):
    def pilot(*args, **kwargs):
        raise _PilotCalled

    # pilot_target checks h0 first; its pilot work starts with the node count
    monkeypatch.setattr(bandwidth, "_node_count", pilot)
    s = _sample(60, 1, seed=21)
    f_x = lambda x: np.ones(x.shape[0])
    curve = lambda **kw: bandwidth_curve(s, SubsetSpec(mask=(0,)), build_kernel(1), f_x, domain=_unit(1), **kw)
    with pytest.raises(MirrorSobolError):
        curve(h0=[], grid=[0.1])
    with pytest.raises(MirrorSobolError):
        curve(h0=[0.1], grid=[])
    with pytest.raises(MirrorSobolError):
        curve(h0=[0.1], grid=[0.2, 0.1])
    with pytest.raises(MirrorSobolError):
        curve(h0=[-0.1], grid=[0.1])
    # the sample and the largest grid entry: a row off the mask's box, a
    # density at the floor, a grid entry past the mirror limit
    outside = s.V.copy()
    outside[5, 0] = 1.5
    with pytest.raises(DomainViolationError, match=r"rows \[5\] fall outside the domain"):
        bandwidth_curve(FullSample(V=outside, Y=s.Y), SubsetSpec(mask=(0,)), build_kernel(1), f_x, domain=_unit(1), h0=[0.1])
    with pytest.raises(SingularDensityError):
        bandwidth_curve(s, SubsetSpec(mask=(0,)), build_kernel(1), lambda x: np.zeros(x.shape[0]), domain=_unit(1), h0=[0.1])
    with pytest.raises(BandwidthTooLargeError):
        curve(h0=[0.1], grid=[0.1, 1.5])
    with pytest.raises(_PilotCalled):  # the patch is live: valid inputs reach the pilot
        curve(h0=[0.1], grid=[0.1, 0.2])


def test_default_grid_shape_and_mirror():
    dom = Domain(np.zeros(2), np.ones(2))
    grid = default_grid(1000, dom.subdomain((0,)))
    assert grid.shape == (25,)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx((0.05 * 1000) ** (-1.0), rel=1e-12)
    assert grid[-1] == pytest.approx(1.0, rel=1e-12)
    assert all(check_mirror_condition(dom, float(h)) for h in grid)
    # lower endpoint stays above the pair-informative threshold scale
    grid2 = default_grid(1000, dom)
    assert grid2[0] == pytest.approx(50.0 ** (-0.5), rel=1e-12)


def test_curve_needs_a_domain_for_a_bare_density():
    s = _sample(60, 1, seed=21)
    with pytest.raises(MirrorSobolError, match="a domain is required when f_x is not an InputModel"):
        bandwidth_curve(s, SubsetSpec(mask=(0,)), build_kernel(1), lambda x: np.ones(x.shape[0]), grid=[0.17])


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
    kern = build_kernel(1)
    f_x = lambda x: np.ones(x.shape[0])
    h = bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, f_x, grid=[0.17], domain=_unit(1))["h_star"]
    assert h == 0.17


def test_select_mirror_violation():
    s = _sample(60, 1, seed=21)
    kern = build_kernel(1)
    f_x = lambda x: np.ones(x.shape[0])
    with pytest.raises(BandwidthTooLargeError):
        bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, f_x, h0=[0.1], grid=[0.5, 1.7], domain=_unit(1))


def test_select_scale_invariance():
    # both the target and the virtual U-statistic are quadratic in Y, so
    # scaling Y leaves the argmin unchanged
    s = _sample(300, 2, seed=8)
    spec = SubsetSpec(mask=(0,))
    kern = build_kernel(2)
    grid = default_grid(300, _unit(1))
    f_x = lambda x: np.ones(x.shape[0])
    h_base = bandwidth_curve(s, spec, kern, f_x, grid=grid, domain=_unit(2))["h_star"]
    for lam in (4.0, 3.0, -2.0):
        scaled = FullSample(V=s.V, Y=lam * s.Y)
        h_lam = bandwidth_curve(scaled, spec, kern, f_x, grid=grid, domain=_unit(2))["h_star"]
        assert h_lam == h_base, f"lambda={lam}: h* moved {h_base} -> {h_lam}"


def test_bandwidth_curve_fields_and_determinism():
    s = _sample(200, 1, seed=2)
    grid = default_grid(200, _unit(1))
    kern = build_kernel(2)
    f_x = lambda x: np.ones(x.shape[0])
    out1 = bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, f_x, grid=grid, domain=_unit(1))
    out2 = bandwidth_curve(s, SubsetSpec(mask=(0,)), kern, f_x, grid=grid, domain=_unit(1))
    assert out1 == out2
    assert set(out1) == {"h_star", "target", "target_printed", "curve"}
    assert len(out1["curve"]) == len(grid)
    hs = [h for h, _ in out1["curve"]]
    assert out1["h_star"] in hs
    vals = [v for _, v in out1["curve"]]
    assert min(vals) == dict(out1["curve"])[out1["h_star"]]


def test_curve_selects_only_a_bandwidth_whose_windows_hold_a_pair(monkeypatch):
    # on product n = 5, seed 0, the windows hold a pair from h = 0.46 up;
    # below it T~ is 0.0, which a target near 0 made the minimum at h = 0.01
    monkeypatch.setattr(bandwidth, "pilot_target", lambda *args: (1e-300, 1e-300))
    m, spec, kern = product_model(), SubsetSpec(mask=(0, 1)), build_kernel(2)
    s = m.draw(5, 0)
    out = bandwidth_curve(s, spec, kern, m.input_model)
    grid = default_grid(5, m.input_model.domain.subdomain((0, 1)))
    assert [h for h, _ in out["curve"]] == grid.tolist()
    # the curve keeps every grid value, the unpaired ones included
    unpaired = [v for h, v in out["curve"] if h < 0.46]
    assert len(unpaired) == 20 and all(v == 1e-300 for v in unpaired)
    assert out["h_star"] > 0.46
    assert out["h_star"] == min((v, h) for h, v in out["curve"] if h > 0.46)[1]
    assert estimate_sobol(s, spec, kern, out["h_star"], m.input_model).n_used == 5


def test_curve_checks_the_grid_on_the_mask_subdomain():
    # the off-mask axis is 10x narrower than the mask axis; the grid runs to
    # the mask axis's mirror limit and must be accepted
    rng = np.random.default_rng(12)
    v = rng.random((300, 2)) * np.array([1.0, 0.1])
    s = FullSample(V=v, Y=v[:, 0] + 5.0 * v[:, 1])
    dom = Domain(np.zeros(2), np.array([1.0, 0.1]))
    grid = default_grid(300, dom.subdomain((0,)))
    spec, kern = SubsetSpec(mask=(0,)), build_kernel(2)
    f_x = lambda x: np.ones(x.shape[0])
    out = bandwidth_curve(s, spec, kern, f_x, grid=grid, domain=dom)
    assert out["h_star"] in grid
    # beyond the mask axis's own limit the grid is still rejected
    with pytest.raises(BandwidthTooLargeError):
        bandwidth_curve(s, spec, kern, f_x, grid=(0.5, 2.5), domain=dom)


def test_curve_uses_the_input_density_off_the_unit_cube():
    # ishigami lives on [-pi, pi]^3: virtual outputs divided by a unit
    # density come out (2 pi)^3 too small and the objective is flat at the target
    model = ishigami_model()
    s = model.draw(600, seed=0)
    spec = SubsetSpec(mask=(0,))
    dom = model.input_model.domain
    grid = default_grid(600, dom.subdomain((0,)))
    out = bandwidth_curve(s, spec, build_kernel(2), model.input_model, grid=grid, input_model=model.input_model)
    vals = [v for _, v in out["curve"]]
    assert max(vals) > 10.0 * min(vals), f"flat objective curve {vals}"
    assert min(vals) < 0.1 * out["target"]


def test_curve_takes_domain_and_marginals_from_an_input_model_density():
    # f_x alone carries the [-pi, pi]^3 box: no unit-cube grid, no unit pilot marginals
    model = ishigami_model()
    s = model.draw(400, seed=0)
    spec, kern = SubsetSpec(mask=(0,)), build_kernel(2)
    alone = bandwidth_curve(s, spec, kern, model.input_model)
    explicit = bandwidth_curve(
        s, spec, kern, model.input_model, domain=model.input_model.domain, input_model=model.input_model
    )
    assert alone == explicit
    assert alone["curve"][-1][0] == pytest.approx(2.0 * np.pi)  # the grid runs to the box's mirror limit


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_curve_lists_pairs_once_within_the_memory_of_one_call_per_bandwidth(monkeypatch):
    # the 20 smallest of the 25 bandwidths share one grid listing; blocks of
    # 64 candidate pairs change no bit, and the whole curve, pilot included,
    # peaks no higher than the grid values taken one estimate_t at a time
    model = product_model()
    s = model.draw(2000, seed=0)
    spec, kern, im = SubsetSpec(mask=(0, 1)), build_kernel(2), model.input_model
    out = bandwidth_curve(s, spec, kern, im)
    virtual = FullSample(V=s.V, Y=virtual_outputs(s, rule_of_thumb_h0(s), im.marginals))
    values = np.array([v for _, v in out["curve"]])
    per_h = np.array([estimate_t(virtual, spec, kern, h, im) for h, _ in out["curve"]])
    assert np.all(np.abs(values - np.abs(per_h - out["target"])) <= 1e-13 * np.abs(per_h))
    curve_peak = _peak_mib(lambda: bandwidth_curve(s, spec, kern, im))
    loop_peak = _peak_mib(lambda: [estimate_t(virtual, spec, kern, h, im) for h, _ in out["curve"]])
    assert curve_peak <= loop_peak, (curve_peak, loop_peak)
    monkeypatch.setattr(_window, "_PAIR_BUDGET", 64)
    assert bandwidth_curve(s, spec, kern, im) == out


def _drain(window_sums_call):
    """Run every block of a window_sums call, one at a time: an undrained generator computes nothing."""
    for _ in window_sums_call[1]:
        pass


def test_curve_grid_listing_peaks_within_one_single_bandwidth_call(monkeypatch):
    # the grid phase of the auto-2d curve alone: one window_sums call on the
    # bandwidths that take the grid shares a listing in half-size blocks, so
    # it holds no more than the largest of those bandwidths taken one call
    # each on the grid; the virtual sample is built before either is measured
    model = product_model()
    s = model.draw(2000, seed=0)
    kern, im = build_kernel(2), model.input_model
    sub = im.domain.subdomain((0, 1))
    x, y = s.V[:, [0, 1]], virtual_outputs(s, rule_of_thumb_h0(s), im.marginals)[:, None]
    order = _window._stable_order(*y.T[::-1], *x.T[::-1])
    tied = np.all(x[order[1:]] == x[order[:-1]], axis=1)
    grid = default_grid(s.n, sub)
    hs = grid[: _window._grid_count(tied, (kern.support[1] - kern.support[0]) * grid, sub)]
    assert len(hs) == 20, hs
    monkeypatch.setattr(_window, "_grid_count", lambda tied, sides, domain: sides.size)
    shared = _peak_mib(lambda: _drain(_window.window_sums(x, y, kern, hs, sub)))
    single = max(_peak_mib(lambda: _drain(_window.window_sums(x, y, kern, [h], sub))) for h in hs)
    assert shared <= single, (shared, single)


def test_target_working_set_does_not_grow_with_n():
    # row blocks of about 2^15 kernel values: at n = 10^4 the 80 x 80 nodes
    # of product (0, 1) hold a 50 KiB g^, and no array grows with n but the
    # O(n) inputs (blocks of 2^21 values peaked at 21.6 MiB)
    model = product_model()
    s = model.draw(10_000, seed=0)
    h0 = rule_of_thumb_h0(s)
    peak = _peak_mib(lambda: pilot_target(s, SubsetSpec(mask=(0, 1)), h0, model.input_model.marginals))
    assert peak <= 2.0, f"pilot target peaked at {peak:.2f} MiB"
