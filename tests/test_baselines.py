"""Tests for the baseline estimators and limiting-variance evaluators."""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from efficiency import efficient_bounds, rule_arrays, sigma_t_second_form
from scipy import spatial
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from mirrorsobol import baselines, cli, testbed
from mirrorsobol.baselines import PickFreezeSample, nn_estimate, pick_freeze_estimate, rank_estimate
from mirrorsobol.cli import RunConfig, run
from mirrorsobol.errors import DegenerateOutputError, InsufficientSampleError, MirrorSobolError
from mirrorsobol.estimator import _ratio_covariance
from mirrorsobol.testbed import (
    builtin_models,
    curved_model,
    ishigami_model,
    limiting_variances,
    linear_model,
    product_model,
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
    est = pick_freeze_estimate(testbed._freeze(m, (0,), m.draw(100_000, 2), m.draw(100_000, 2, stream=1).V))
    assert abs(est - 1.0 / 3.0) <= 0.02, f"PF estimate {est} far from 1/3"


def test_pick_freeze_product_model():
    m = product_model()
    est = pick_freeze_estimate(testbed._freeze(m, (0,), m.draw(100_000, 3), m.draw(100_000, 3, stream=1).V))
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
# both squared offsets underflow to 0, so cdist ties the two rows
@example((np.array([[1.11253693e-308], [0.0]]), np.array([1.0, 3.0]), np.array([[0.0]]), np.array([2.0])))
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

    # _nearest imports the tree where d >= 2 needs it
    monkeypatch.setattr(spatial, "cKDTree", CountingTree)
    # the four corners of the unit square are equidistant from its center
    x1 = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [3.0, 3.0]])
    first = (x1, np.array([7.0, 2.0, 3.0, 4.0, 5.0]))
    second = (np.array([[0.5, 0.5], [3.0, 2.9]]), np.array([2.0, 1.0]))
    assert nn_estimate(first, second) == 0.5 * (2.0 * 7.0 + 1.0 * 5.0)
    assert len(calls) == 1, "the tied row must be settled by the ball lookup"


def test_nn_duplicate_rows_stay_out_of_the_tie_lookup(monkeypatch):
    sizes = []
    settle = baselines._settle_ties

    def counting_settle(idx, x2, rows1, lowest, rows, cand):
        sizes.extend(np.unique(rows, return_counts=True)[1].tolist())
        return settle(idx, x2, rows1, lowest, rows, cand)

    # in 1-D the candidates are a run of the sorted distinct values
    monkeypatch.setattr(baselines, "_settle_ties", counting_settle)
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
        w, y, _, _ = rule_arrays(model, (0,))
        mean = float(w @ y)
        second = float(w @ (y * y))
        assert abs(mean - model.mean_y) < 1e-9, f"{model.name}: engine mean {mean} vs {model.mean_y}"
        assert abs(second - (model.var_y + model.mean_y**2)) < 1e-8, f"{model.name}: second moment off"


def test_engine_t_matches_closed_form():
    for model in (linear_model(2), product_model(), curved_model()):
        w, y, g1, _ = rule_arrays(model, (0,))
        t = float(w @ (y * g1))
        assert abs(t - model.t_of((0,))) < 1e-10, f"{model.name}: E[Y g1] {t} vs {model.t_of((0,))}"


def test_sigma_t_linear_p2_hand_value():
    # 4 tau^2 - 3 Var(g1^2) = 103/60 - 3*61/180 = 7/10 by hand integration
    value = efficient_bounds(linear_model(2), (0,))[0]
    assert abs(value - 0.7) < 1e-9, f"sigma_T^2 for the linear model should be 0.7, got {value}"


def test_sigma_t_forms_agree_on_models():
    for model, mask in [(linear_model(2), (0,)), (product_model(), (0,)), (ishigami_model(), (1,))]:
        f1, f2 = efficient_bounds(model, mask)[0], sigma_t_second_form(model, mask)
        assert abs(f1 - f2) <= 1e-6 * max(abs(f1), 1e-12), f"{model.name}: {f1} vs {f2}"


def test_sigma_t_no_noise_model_reduces_to_var_g1sq():
    # Y a deterministic function of X alone: sigma_T^2 = Var(g1^2)
    m = curved_model()
    value = efficient_bounds(m, (0, 1))[0]  # full mask: g1 = g exactly
    w, _, g1, _ = rule_arrays(m, (0, 1))
    g1sq_var = float(w @ g1**4) - float(w @ g1**2) ** 2
    assert abs(value - g1sq_var) <= 1e-9 * g1sq_var, f"{value} vs Var(g1^2) = {g1sq_var}"


def test_sigma_t_below_4tau2():
    for model, mask in [(linear_model(3), (1,)), (product_model(), (0,)), (ishigami_model(), (0,))]:
        sigma_t = efficient_bounds(model, mask)[0]
        w, y, g1, _ = rule_arrays(model, mask)
        yg_mean = float(w @ (y * g1))
        tau2 = float(w @ (y * g1) ** 2) - yg_mean**2
        assert sigma_t <= 4.0 * tau2 + 1e-12, f"{model.name}: sigma_T^2 {sigma_t} exceeds 4 tau^2 {4 * tau2}"


def test_sigma_d_linear_p2_hand_value():
    # 2(E[g2^2] - E[g1^2]^2 + (E[g2 g1^2] - E[g1^4])/2) with E[g1^2]=13/12,
    # E[g1^4]=121/80, E[g2 g1^2]=577/360, E[g2^2]=17/10 -> 1.1430555...
    value = limiting_variances(linear_model(2), (0,))[2]
    truth = 2.0 * (17.0 / 10.0 - (13.0 / 12.0) ** 2 + 0.5 * (577.0 / 360.0 - 121.0 / 80.0))
    assert abs(value - truth) < 1e-9, f"sigma_D^2 {value} vs hand value {truth}"


def test_sigma_d_nonnegative_and_deterministic_case():
    for model, mask in [(linear_model(2), (0,)), (product_model(), (1,)), (ishigami_model(), (2,))]:
        assert limiting_variances(model, mask)[2] >= -1e-12
    m = curved_model()
    value = limiting_variances(m, (0, 1))[2]
    w, _, g1, _ = rule_arrays(m, (0, 1))
    var_g1sq = float(w @ g1**4) - float(w @ g1**2) ** 2
    assert abs(value - 2.0 * var_g1sq) <= 1e-9 * var_g1sq, f"g2 = g1^2 case: {value} vs {2 * var_g1sq}"


def test_sigma_min_scale_invariant():
    m = product_model()
    mask = (0,)
    base = efficient_bounds(m, mask)[1]

    scaled_model = dataclasses.replace(
        m,
        name="product2x",
        g=lambda v: 2.0 * m.g(v),
        mean_y=2.0 * m.mean_y,
        terms={u: 4.0 * v_ for u, v_ in m.terms.items()},
    )
    scaled = efficient_bounds(scaled_model, mask)[1]
    assert scaled == base, f"sigma_min^2 must be exactly scale-free: {base} vs {scaled}"


def test_sigma_min_below_ratio_variance():
    # the bound lies below the limiting variance of the shipped (centered) estimator
    for model, mask in [(linear_model(2), (0,)), (linear_model(3), (1,)), (product_model(), (0,))]:
        sigma_min, centered = efficient_bounds(model, mask)[1], limiting_variances(model, mask)[1]
        assert sigma_min <= centered + 1e-10, f"{model.name}: sigma_min {sigma_min} exceeds {centered}"


def test_sigma_min_matches_the_direct_formula_on_every_builtin_mask():
    # algebraic oracle: sigma_min^2 = Var(2m(1-S)Y + S Y^2 + g1(g1 - 2Y)) / v^2
    for model in builtin_models():
        for mask in model.masks():
            w, y, g1, _ = rule_arrays(model, mask)
            m = float(w @ y)
            v = float(w @ (y * y)) - m * m
            s = (float(w @ g1**2) - m * m) / v
            z = 2.0 * m * (1.0 - s) * y + s * y * y + g1 * (g1 - 2.0 * y)
            z_mean = float(w @ z)
            direct = (float(w @ z**2) - z_mean * z_mean) / (v * v)
            bound = efficient_bounds(model, mask)[1]
            tol = 1e-11 * abs(direct) if abs(direct) > 1e-12 else 1e-14
            assert abs(bound - direct) <= tol, f"{model.name} {mask}: sigma_min^2 {bound} vs direct {direct}"


def test_centered_ratio_variance_linear_p3_hand_value():
    # hand integration with Z = Y - 3/2, U_i = V_i - 1/2:
    # Var(Z g1) = 7/360, Cov(Z g1, Z^2) = 1/30, Var(Z^2) = 1/10, v = 1/4, S = 1/3
    # sigma_c^2 = (4*7/360 - 4/(3*30) + 1/90) * 16 = 32/45
    value = limiting_variances(linear_model(3), (0,))[1]
    assert abs(value - 32.0 / 45.0) < 1e-9, f"centered sigma^2 {value} vs hand value 32/45"


def test_variance_oracles_refuse_more_than_three_inputs():
    # the tensor rule would hold 64^4 nodes
    with pytest.raises(MirrorSobolError, match=r"4 inputs.*64\^4 = 16777216 nodes"):
        limiting_variances(linear_model(4), (0,))


def test_variance_oracles_refuse_a_mask_out_of_range():
    for mask in [(2,), (0, 2), (-1,)]:
        with pytest.raises(MirrorSobolError, match=rf"mask \({mask[0]},.*p = 2"):
            limiting_variances(product_model(), mask)


def test_variance_oracles_refuse_a_repeated_axis():
    for model, mask in [(product_model(), (1, 1)), (product_model(), (0, 0)), (linear_model(3), (0, 1, 2, 2))]:
        with pytest.raises(MirrorSobolError, match=r"repeats an axis"):
            limiting_variances(model, mask)


def _full_array_limiting_variances(w, y, g1, g2):
    """(kernel t, centered kernel Sobol', nn) from dot products over whole arrays."""

    def ratio(shift):
        y_s = y - shift
        rows = (2.0 * y_s * (g1 - shift), y_s, y_s * y_s)
        means = [float(w @ r) for r in rows]
        gamma = np.array([[float(w @ (a * b)) - ma * mb for b, mb in zip(rows, means)] for a, ma in zip(rows, means)])
        m, v = means[1], gamma[1, 1]
        return gamma, float(_ratio_covariance(gamma, (0.5 * means[0] - m * m) / v, m, v)[0, 0])

    e_g1_sq = float(w @ g1**2)
    nn = 2.0 * (float(w @ g2**2) - e_g1_sq * e_g1_sq + 0.5 * (float(w @ (g2 * g1**2)) - float(w @ g1**4)))
    return float(ratio(0.0)[0][0, 0]), ratio(float(w @ y))[1], nn


# the products of the conditional moments c_j = E[(Y - mean_y)^j | X] and
# of g1 = E[Y | X], g2 = E[Y^2 | X] whose expectations `_mask_moments` names
_PRODUCTS = {
    "c1": lambda c, g1, g2: c[1],
    "c2": lambda c, g1, g2: c[2],
    "c3": lambda c, g1, g2: c[3],
    "c4": lambda c, g1, g2: c[4],
    "c1*c1": lambda c, g1, g2: c[1] * c[1],
    "c1*c2": lambda c, g1, g2: c[1] * c[2],
    "c1*c3": lambda c, g1, g2: c[1] * c[3],
    "c1*c1*c2": lambda c, g1, g2: c[1] * c[1] * c[2],
    "g1*g1": lambda c, g1, g2: g1 * g1,
    "g1*g1*g2": lambda c, g1, g2: g1 * g1 * g2,
    "g1*g1*g1*g1": lambda c, g1, g2: g1**4,
    "g2*g2": lambda c, g1, g2: g2 * g2,
}


@pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
def test_slab_oracles_bit_equal_to_the_tensor_rule_formula(model):
    # the walk's expectations against whole-grid sums of the meshgrid
    # formula; they are summed in another order, slab by slab, so they are
    # compared to within rounding of their terms' magnitudes: the product
    # taken at bounds of E[|Y - mean_y|^j | X] (Cauchy-Schwarz from c2 and c4)
    for mask in model.masks():
        got = testbed._mask_moments(model, mask)
        assert set(got) == set(_PRODUCTS)
        w, _, g1, g2 = rule_arrays(model, mask)
        c = [None, *rule_arrays(model, mask, model.mean_y, (1, 2, 3, 4))[2:]]
        mu = abs(model.mean_y)
        a = [None, np.sqrt(c[2]), c[2], np.sqrt(c[2] * c[4]), c[4]]
        for name, product in _PRODUCTS.items():
            values = product(c, g1, g2)
            want = float(w @ values)
            scale = float(w @ product(a, a[1] + mu, a[2] + 2.0 * mu * a[1] + mu * mu))
            assert abs(got[name] - want) <= 1e-13 * scale, f"{model.name} {mask} E[{name}]: {got[name]} vs {want}"


@pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
def test_slab_limiting_variances_match_the_full_array_formulas(model):
    for mask in model.masks():
        got = limiting_variances(model, mask)
        want = _full_array_limiting_variances(*rule_arrays(model, mask))
        for name, g, v in zip(("t", "sobol_centered", "nn"), got, want):
            assert abs(g - v) <= 1e-13 * max(abs(v), 1.0), f"{model.name} {mask} {name}: {g} vs {v}"


@pytest.mark.parametrize("mask", [(0,), (0, 1, 2), (1, 2)])
def test_oracles_and_limiting_variances_hold_no_full_size_temporary(mask):
    # nothing is stored on the 64^3 rule of linear3: a full-size row would
    # take 2 MiB and a (64^3, 3) node array 6 MiB; (0,) walks one conditional
    # law per slab, (1, 2), off the leading axis, 64 of them, and the full
    # mask 4096 nodes that are each their own law
    tracemalloc.start()
    try:
        limiting_variances(linear_model(3), mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, f"limiting variances peaked at {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("mask", [(0,), (0, 2), (0, 1, 2)])
def test_compare_walks_the_rule_once_for_its_three_limiting_variances(mask, monkeypatch, tmp_path):
    # model.g sees each node of the 64^3 rule once per call, and once per
    # compare beside its draws
    seen = []
    base = ishigami_model()

    def g(v):
        seen.append(np.array(v))
        return base.g(v)

    model = dataclasses.replace(base, g=g)
    want = _full_array_limiting_variances(*rule_arrays(base, mask))
    got = limiting_variances(model, mask)
    nodes = np.concatenate(seen)
    assert nodes.shape == (64**3, 3) and np.unique(nodes, axis=0).shape[0] == 64**3
    for name, g_, v in zip(("t", "sobol_centered", "nn"), got, want):
        assert abs(g_ - v) <= 1e-13 * max(abs(v), 1.0), f"{mask} {name}: {g_} vs {v}"
    seen.clear()
    monkeypatch.setattr(cli, "model_by_name", lambda name: model)
    out = tmp_path / "compare.csv"
    # at h = 0.5 no window of the 3-axis mask holds a second point, which the kernel estimate refuses
    config = RunConfig(command="compare", model="ishigami", n=50, mask=tuple(i + 1 for i in mask), h=2.0, seeds=1, estimators=("kernel", "nn"), output=str(out))
    assert run(config) == 0
    rows = np.concatenate(seen)
    assert rows.shape[0] == 64**3 + 2 * 50  # the rule, and the seed's two draws
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    cells = {row["estimator"]: float(row["limiting_variance"]) for row in csv.DictReader(line for line in open(out) if not line.startswith("#"))}
    assert (cells["kernel_t"], cells["kernel_sobol"], cells["nn_t"]) == got


def test_kernel_and_pf_agree_on_product_model():
    from mirrorsobol.estimator import SubsetSpec, estimate_sobol
    from mirrorsobol.kernels import build_kernel

    m = product_model()
    n, reps = 5000, 12
    kern, pf_vals = [], []
    kernel = build_kernel(1)
    for seed in range(reps):
        fs = m.draw(n, seed)
        kern.append(estimate_sobol(fs, SubsetSpec((0,)), kernel, 0.2, m.input_model).sobol)
        pf_vals.append(pick_freeze_estimate(testbed._freeze(m, (0,), fs, m.draw(n, seed, stream=1).V)))
    gap = abs(np.mean(kern) - np.mean(pf_vals))
    bound = 3.0 * math.sqrt(np.var(kern) / reps + np.var(pf_vals) / reps)
    assert gap <= bound, f"kernel and PF disagree: gap {gap} > {bound}"
