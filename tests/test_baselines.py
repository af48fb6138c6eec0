"""Tests for the baseline estimators and limiting-variance evaluators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from mirrorsobol import baselines
from mirrorsobol.baselines import (
    PickFreezeSample,
    VarianceOracles,
    efficient_variance_forms,
    limiting_variance_efficient,
    limiting_variance_nn,
    limiting_variance_sobol_efficient,
    limiting_variance_sobol_plugin,
    nn_estimate,
    pick_freeze_estimate,
    rank_estimate,
)
from mirrorsobol.errors import DegenerateOutputError, InsufficientSampleError, MirrorSobolError
from mirrorsobol.testbed import (
    curved_model,
    ishigami_model,
    linear_model,
    pick_freeze_design,
    product_model,
    variance_oracles,
    weighted_linear_model,
)


def test_pick_freeze_identical_outputs_give_one():
    y = np.array([0.3, -1.2, 2.0, 0.7])
    assert pick_freeze_estimate(PickFreezeSample(Y=y, Y_pf=y.copy())) == 1.0


def test_pick_freeze_independent_outputs_near_zero():
    m = linear_model(3)
    rng_a = m.draw(100_000, seed=1, stream=0)
    rng_b = m.draw(100_000, seed=1, stream=1)
    est = pick_freeze_estimate(PickFreezeSample(Y=rng_a.Y, Y_pf=rng_b.Y))
    assert abs(est) <= 0.05, f"independent PF outputs should estimate ~0, got {est}"


def test_pick_freeze_linear_first_order():
    m = linear_model(3)
    est = pick_freeze_estimate(pick_freeze_design(m, (0,), 100_000, seed=2))
    assert abs(est - 1.0 / 3.0) <= 0.02, f"PF estimate {est} far from 1/3"


def test_pick_freeze_product_model():
    m = product_model()
    est = pick_freeze_estimate(pick_freeze_design(m, (0,), 100_000, seed=3))
    assert abs(est - 3.0 / 7.0) <= 0.02, f"PF estimate {est} far from 3/7"


def test_pick_freeze_degenerate():
    with pytest.raises(DegenerateOutputError):
        pick_freeze_estimate(PickFreezeSample(Y=np.ones(5), Y_pf=np.ones(5)))
    with pytest.raises(InsufficientSampleError):
        PickFreezeSample(Y=np.array([1.0]), Y_pf=np.array([2.0]))


def test_nn_self_match():
    rng = np.random.default_rng(4)
    x = rng.random(200)
    y = rng.normal(size=200)
    est = nn_estimate((x, y), (x, y))
    assert abs(est - np.mean(y * y)) < 1e-12, "matching a sample against itself must give mean(Y^2)"


def test_nn_tie_breaks_to_lowest_index():
    first = (np.array([0.5, 0.5]), np.array([1.0, 9.9]))
    second = (np.array([0.5]), np.array([2.0]))
    assert nn_estimate(first, second) == 2.0 * 1.0, "equidistant neighbors must resolve to the lowest index"


def test_nn_linear_oracle():
    # linear p=2, mask {0}: E[E[Y|X]^2] = E[(x+1/2)^2] = 13/12
    m = linear_model(2)
    fs1 = m.draw(10_000, seed=5, stream=0)
    fs2 = m.draw(10_000, seed=5, stream=1)
    est = nn_estimate((fs1.V[:, 0], fs1.Y), (fs2.V[:, 0], fs2.Y))
    truth = 13.0 / 12.0
    assert abs(est - truth) <= 0.02 * truth, f"NN estimate {est} not within 2% of {truth}"


def test_nn_warns_in_dimension_four():
    rng = np.random.default_rng(6)
    first = (rng.random((50, 4)), rng.normal(size=50))
    second = (rng.random((50, 4)), rng.normal(size=50))
    with pytest.warns(UserWarning, match="d <= 3"):
        nn_estimate(first, second)


def test_nn_empty_and_mismatch():
    with pytest.raises(InsufficientSampleError):
        nn_estimate((np.empty(0), np.empty(0)), (np.array([0.5]), np.array([1.0])))
    with pytest.raises(MirrorSobolError):
        nn_estimate((np.zeros((4, 2)), np.zeros(4)), (np.zeros((4, 3)), np.zeros(4)))


def _dense_nearest(x1, x2):
    """The dense search the tree replaced; argmin takes the lowest index on ties."""
    return np.argmin(cdist(x2, x1), axis=1)


@st.composite
def _nn_cases(draw):
    d = draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0.0, 1e6]))

    def coord():
        # eighths put many first-sample points at the same distance
        return draw(st.one_of(st.integers(0, 8).map(lambda k: k / 8.0), st.floats(0.0, 1.0)))

    pool = offset + np.array([[coord() for _ in range(d)] for _ in range(draw(st.integers(1, 6)))])
    n1 = draw(st.sampled_from([1, 2, draw(st.integers(3, 30))]))
    x1 = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n1, max_size=n1))]

    def second_row():
        kind = draw(st.integers(0, 2))
        if kind == 0:  # a duplicate of a pool point, often of a first-sample row
            return pool[draw(st.integers(0, len(pool) - 1))]
        if kind == 1:  # the midpoint of two first-sample rows
            i, j = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n1 - 1))
            return 0.5 * (x1[i] + x1[j])
        return offset + np.array([coord() for _ in range(d)])

    x2 = np.array([second_row() for _ in range(draw(st.integers(1, 30)))])
    y1 = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n1)])
    y2 = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(x2.shape[0])])
    return x1, y1, x2, y2


@settings(max_examples=200, deadline=None)
@given(_nn_cases())
@example((np.array([[0.25]]), np.array([1.5]), np.array([[0.0], [0.25], [1.0]]), np.array([1.0, -1.0, 2.0])))
@example((np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), np.array([[0.5], [1.0]]), np.array([2.0, 1.0])))
def test_nn_tree_matches_dense_search(case):
    x1, y1, x2, y2 = case
    dense = _dense_nearest(x1, x2)
    assert np.array_equal(baselines._nearest(x1, x2), dense), "tree and dense search picked different neighbours"
    assert nn_estimate((x1, y1), (x2, y2)) == float(np.mean(y2 * y1[dense])), "estimate not bit-identical"


def test_nn_many_way_tie_takes_lowest_index(monkeypatch):
    calls = []

    class CountingTree(cKDTree):
        def query_ball_point(self, *args, **kwargs):
            calls.append(args)
            return super().query_ball_point(*args, **kwargs)

    monkeypatch.setattr(baselines, "cKDTree", CountingTree)
    # the four corners of the unit square are equidistant from its center
    x1 = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [3.0, 3.0]])
    first = (x1, np.array([7.0, 2.0, 3.0, 4.0, 5.0]))
    second = (np.array([[0.5, 0.5], [3.0, 2.9]]), np.array([2.0, 1.0]))
    assert nn_estimate(first, second) == 0.5 * (2.0 * 7.0 + 1.0 * 5.0)
    assert len(calls) == 1, "the tied row must be settled by the ball lookup"


def test_nn_duplicate_rows_stay_out_of_the_tie_lookup(monkeypatch):
    sizes = []

    class CountingTree(cKDTree):
        def query_ball_point(self, *args, **kwargs):
            found = super().query_ball_point(*args, **kwargs)
            sizes.extend(len(c) for c in found)
            return found

    monkeypatch.setattr(baselines, "cKDTree", CountingTree)
    rng = np.random.default_rng(3)
    x1 = rng.integers(0, 2, (5000, 1)).astype(float)
    x2 = np.array([[0.0], [0.5], [1.0], [0.25]])
    assert np.array_equal(baselines._nearest(x1, x2), _dense_nearest(x1, x2))
    # only 0.5 is tied, between the two distinct values, not their 5000 copies
    assert sizes == [2], sizes


def test_nn_matches_dense_search_where_tree_rounding_differs():
    # permuted coordinates are at the same exact distance from the origin;
    # the tree sums the squares of d = 8 in another order than cdist, so
    # the rounded distances can tie in one and not in the other
    rng = np.random.default_rng(0)
    origin = np.zeros((1, 8))
    for a in rng.random((200, 8)):
        x1 = np.array([a[rng.permutation(8)] for _ in range(3)])
        assert np.array_equal(baselines._nearest(x1, origin), _dense_nearest(x1, origin))


@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_baselines_reject_non_finite_inputs(where, bad):
    x = np.array([0.1, 0.5, 0.9])
    y = np.array([1.0, 2.0, 3.0])
    bx, by = x.copy(), y.copy()
    (bx if where == "x" else by)[1] = bad
    with pytest.raises(MirrorSobolError, match="finite"):
        nn_estimate((bx, by), (x, y))
    with pytest.raises(MirrorSobolError, match="finite"):
        nn_estimate((x, y), (bx, by))
    with pytest.raises(MirrorSobolError, match="finite"):
        rank_estimate(bx, by)


def test_rank_hand_case_n2():
    # sorted by X: Y_(1)=1, Y_(2)=3; numerator (1/2)(1*3) - 2^2 = -2.5; Var(Y)=1
    est = rank_estimate(np.array([0.7, 0.2]), np.array([3.0, 1.0]))
    assert est == -2.5, f"hand value is -2.5, got {est}"


def test_rank_perfect_dependence():
    rng = np.random.default_rng(7)
    x = rng.random(10_000)
    est = rank_estimate(x, x)
    assert est >= 0.95, f"Y = X should give a rank estimate near 1, got {est}"


def test_rank_independence():
    rng = np.random.default_rng(8)
    est = rank_estimate(rng.random(10_000), rng.normal(size=10_000))
    assert abs(est) <= 0.05, f"independent Y should give ~0, got {est}"


def test_rank_curved_model_truth():
    m = curved_model()
    fs = m.draw(50_000, seed=9)
    est = rank_estimate(fs.V[:, 0], fs.Y)
    assert abs(est - 27.0 / 55.0) <= 0.05, f"rank estimate {est} far from 27/55"


def test_rank_ties_deterministic():
    x = np.repeat([0.1, 0.5, 0.9], 5)
    y = np.arange(15.0)
    assert rank_estimate(x, y) == rank_estimate(x.copy(), y.copy())


def test_rank_rejects_multidimensional():
    with pytest.raises(MirrorSobolError):
        rank_estimate(np.zeros((5, 2)), np.zeros(5))


# ---------------------------------------------------------------------------
# limiting variances


def test_engine_reproduces_model_moments():
    for model in (linear_model(3), weighted_linear_model(2.0, 3), ishigami_model(), product_model()):
        orc = variance_oracles(model, (0,))
        mean = orc.moments(lambda y, x: y)
        second = orc.moments(lambda y, x: y * y)
        assert abs(mean - model.mean_y) < 1e-9, f"{model.name}: engine mean {mean} vs {model.mean_y}"
        assert abs(second - (model.var_y + model.mean_y**2)) < 1e-8, f"{model.name}: second moment off"


def test_engine_t_matches_closed_form():
    for model in (linear_model(2), product_model(), curved_model()):
        orc = variance_oracles(model, (0,))
        t = orc.moments(lambda y, x: y * orc.g1(x))
        assert abs(t - model.t_of((0,))) < 1e-10, f"{model.name}: E[Y g1] {t} vs {model.t_of((0,))}"


def test_sigma_t_linear_p2_hand_value():
    # 4 tau^2 - 3 Var(g1^2) = 103/60 - 3*61/180 = 7/10 by hand integration
    orc = variance_oracles(linear_model(2), (0,))
    value = limiting_variance_efficient(orc)
    assert abs(value - 0.7) < 1e-9, f"sigma_T^2 for the linear model should be 0.7, got {value}"


def test_sigma_t_forms_agree_on_models():
    for model, mask in [(linear_model(2), (0,)), (product_model(), (0,)), (ishigami_model(), (1,))]:
        f1, f2 = efficient_variance_forms(variance_oracles(model, mask))
        assert abs(f1 - f2) <= 1e-6 * max(abs(f1), 1e-12), f"{model.name}: {f1} vs {f2}"


def test_sigma_t_no_noise_model_reduces_to_var_g1sq():
    # Y a deterministic function of X alone: sigma_T^2 = Var(g1^2)
    m = curved_model()
    orc = variance_oracles(m, (0, 1))  # full mask: g1 = g exactly
    value = limiting_variance_efficient(orc)
    g1sq_var = orc.moments(lambda y, x: orc.g1(x) ** 4) - orc.moments(lambda y, x: orc.g1(x) ** 2) ** 2
    assert abs(value - g1sq_var) <= 1e-9 * g1sq_var, f"{value} vs Var(g1^2) = {g1sq_var}"


def test_sigma_t_below_4tau2():
    for model, mask in [(linear_model(3), (1,)), (product_model(), (0,)), (ishigami_model(), (0,))]:
        orc = variance_oracles(model, mask)
        sigma_t = limiting_variance_efficient(orc)
        yg_mean = orc.moments(lambda y, x: y * orc.g1(x))
        tau2 = orc.moments(lambda y, x: (y * orc.g1(x)) ** 2) - yg_mean**2
        assert sigma_t <= 4.0 * tau2 + 1e-12, f"{model.name}: sigma_T^2 {sigma_t} exceeds 4 tau^2 {4 * tau2}"


def test_sigma_d_linear_p2_hand_value():
    # 2(E[g2^2] - E[g1^2]^2 + (E[g2 g1^2] - E[g1^4])/2) with E[g1^2]=13/12,
    # E[g1^4]=121/80, E[g2 g1^2]=577/360, E[g2^2]=17/10 -> 1.1430555...
    orc = variance_oracles(linear_model(2), (0,))
    value = limiting_variance_nn(orc)
    truth = 2.0 * (17.0 / 10.0 - (13.0 / 12.0) ** 2 + 0.5 * (577.0 / 360.0 - 121.0 / 80.0))
    assert abs(value - truth) < 1e-9, f"sigma_D^2 {value} vs hand value {truth}"


def test_sigma_d_nonnegative_and_deterministic_case():
    for model, mask in [(linear_model(2), (0,)), (product_model(), (1,)), (ishigami_model(), (2,))]:
        assert limiting_variance_nn(variance_oracles(model, mask)) >= -1e-12
    m = curved_model()
    orc = variance_oracles(m, (0, 1))
    value = limiting_variance_nn(orc)
    var_g1sq = orc.moments(lambda y, x: orc.g1(x) ** 4) - orc.moments(lambda y, x: orc.g1(x) ** 2) ** 2
    assert abs(value - 2.0 * var_g1sq) <= 1e-9 * var_g1sq, f"g2 = g1^2 case: {value} vs {2 * var_g1sq}"


def test_sigma_min_centered_drops_first_term():
    # with E[Y] = 0 the 2E[Y](1-S)Y term vanishes identically
    m = linear_model(2)
    orc = variance_oracles(m, (0,))
    s = m.sobol_of((0,))
    full = limiting_variance_sobol_efficient(orc, 0.0, m.var_y, s)

    def z_no_first(y, x):
        return s * y * y + orc.g1(x) * (orc.g1(x) - 2.0 * y)

    manual = (orc.moments(lambda y, x: z_no_first(y, x) ** 2) - orc.moments(z_no_first) ** 2) / m.var_y**2
    assert full == manual, "mean_y = 0 must make the first term drop exactly"


def test_sigma_min_scale_invariant():
    m = product_model()
    mask = (0,)
    s = m.sobol_of(mask)
    base = limiting_variance_sobol_efficient(variance_oracles(m, mask), m.mean_y, m.var_y, s)

    import dataclasses

    scaled_model = dataclasses.replace(
        m,
        name="product2x",
        g=lambda v: 2.0 * m.g(v),
        g1_funcs={k: (lambda f: (lambda xm: 2.0 * f(xm)))(f) for k, f in m.g1_funcs.items()},
        g2_funcs={k: (lambda f: (lambda xm: 4.0 * f(xm)))(f) for k, f in m.g2_funcs.items()},
        true_t={k: 4.0 * v_ for k, v_ in m.true_t.items()},
        mean_y=2.0 * m.mean_y,
        var_y=4.0 * m.var_y,
    )
    scaled = limiting_variance_sobol_efficient(
        variance_oracles(scaled_model, mask), scaled_model.mean_y, scaled_model.var_y, s
    )
    assert scaled == base, f"sigma_min^2 must be exactly scale-free: {base} vs {scaled}"


def test_sigma_min_below_ratio_variance():
    for model, mask in [(linear_model(2), (0,)), (linear_model(3), (1,)), (product_model(), (0,))]:
        orc = variance_oracles(model, mask)
        s = model.sobol_of(mask)
        sigma_min = limiting_variance_sobol_efficient(orc, model.mean_y, model.var_y, s)
        sigma_ratio = limiting_variance_sobol_plugin(orc)
        assert sigma_min <= sigma_ratio + 1e-10, (
            f"{model.name}: sigma_min {sigma_min} should not exceed the ratio variance {sigma_ratio}"
        )


def test_ratio_variance_linear_p3_hand_value():
    # same hand integration as the empirical plug-in test: sigma^2 = 12.7111...
    value = limiting_variance_sobol_plugin(variance_oracles(linear_model(3), (1,)))
    assert abs(value - 12.711111111) < 1e-6, f"population sigma^2 {value} vs hand value 12.7111"


def test_centered_ratio_variance_linear_p3_hand_value():
    # hand integration with Z = Y - 3/2, U_i = V_i - 1/2:
    # Var(Z g1) = 7/360, Cov(Z g1, Z^2) = 1/30, Var(Z^2) = 1/10, v = 1/4, S = 1/3
    # sigma_c^2 = (4*7/360 - 4/(3*30) + 1/90) * 16 = 32/45
    from mirrorsobol.baselines import limiting_variance_sobol_centered

    value = limiting_variance_sobol_centered(variance_oracles(linear_model(3), (0,)))
    assert abs(value - 32.0 / 45.0) < 1e-9, f"centered sigma^2 {value} vs hand value 32/45"


def test_centered_ratio_variance_never_exceeds_raw():
    from mirrorsobol.baselines import limiting_variance_sobol_centered

    for model, mask in [(linear_model(3), (0,)), (product_model(), (0,)), (curved_model(), (1,))]:
        orc = variance_oracles(model, mask)
        raw = limiting_variance_sobol_plugin(orc)
        centered = limiting_variance_sobol_centered(orc)
        assert centered <= raw + 1e-10, f"{model.name}: centered {centered} exceeds raw {raw}"
        assert centered > 0, f"{model.name}: centered variance {centered} must be positive"


def test_variance_oracles_rejects_bad_conditional_variance():
    import dataclasses

    m = product_model()
    bad = dataclasses.replace(
        m, name="bad", g2_funcs={**m.g2_funcs, (0,): lambda xm: np.zeros(xm.shape[0])}
    )
    with pytest.raises(MirrorSobolError):
        variance_oracles(bad, (0,))


def test_kernel_and_pf_agree_on_product_model():
    from mirrorsobol.estimator import SubsetSpec, estimate_sobol
    from mirrorsobol.kernels import build_kernel

    m = product_model()
    n, reps = 5000, 12
    kern, pf_vals = [], []
    kernel = build_kernel(1, 1)
    for seed in range(reps):
        fs = m.draw(n, seed)
        kern.append(estimate_sobol(fs, SubsetSpec((0,)), kernel, 0.2, m.input_model).sobol)
        pf_vals.append(pick_freeze_estimate(pick_freeze_design(m, (0,), n, seed)))
    gap = abs(np.mean(kern) - np.mean(pf_vals))
    bound = 3.0 * math.sqrt(np.var(kern) / reps + np.var(pf_vals) / reps)
    assert gap <= bound, f"kernel and PF disagree: gap {gap} > {bound}"
