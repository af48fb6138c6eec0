"""Tests for the pairwise kernel estimator and its variance plug-ins."""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from mirrorsobol import _window
from mirrorsobol._window import _grid_count
from mirrorsobol.bandwidth import bandwidth_curve, default_grid
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
    _empirical_covariance,
    _ratio_covariance,
    estimate_first_order_all,
    estimate_sobol,
    estimate_t,
    estimate_total_sobol,
    _prepare,
    _t_values,
)
from mirrorsobol.inputs import InputModel, Uniform, sample, subset_density_fn
from mirrorsobol.kernels import KernelD, build_kernel
from mirrorsobol.testbed import (
    brute_force_t,
    curved_model,
    ishigami_model,
    linear_model,
    product_model,
)

UNIT1 = InputModel((Uniform(0.0, 1.0),))
UNIT2 = InputModel((Uniform(0.0, 1.0), Uniform(0.0, 1.0)))
UNIT3 = InputModel((Uniform(0.0, 1.0),) * 3)


def _sums_in_input_order(x, weights, kernel, hs, domain, anchors=None):
    """S[j, a, c]: the window sums of every bandwidth of hs in one array, in the input row order.

    With anchors, the grid's sums at those anchors over every point.
    """
    hs = np.asarray(hs, dtype=float).ravel()
    if anchors is not None:
        return _window._grid_sums(x, weights, kernel, hs, domain, anchors, self_pairs=False)
    order, blocks = _window.window_sums(x, weights, kernel, hs, domain)
    out = np.empty((hs.size,) + weights.shape)
    for js, sums in blocks:
        out[np.ix_(js, order)] = sums
    return out


def _g1_loo(fs, spec, kernel, h, model):
    """Leave-one-out plug-in g1_hat_a = G_a / ((n-1) f_X(X_a)) from the window row sums."""
    xm = fs.V[:, spec.mask]
    g = _sums_in_input_order(xm, fs.Y[:, None], kernel, [h], model.domain.subdomain(spec.mask))[0, :, 0]
    return g / ((fs.n - 1) * subset_density_fn(model, spec.mask)(xm))


def _sobol_variance(y, g1):
    """Delta-method variance of the plug-in ratio (mean(Y g1) - Ybar^2) / Var(Y)."""
    m, v = float(np.mean(y)), float(np.var(y))
    sobol = (float(np.mean(y * g1)) - m * m) / v
    gamma = _empirical_covariance(np.stack([2.0 * y * g1, y, y * y]))
    return float(_ratio_covariance(gamma, sobol, m, v)[0, 0])


def test_hand_case_n2():
    # k=0 kernel on [0,1]: K_h(u) = (2/h) 1[0 <= u <= h/2].  x1=0.2, x2=0.3,
    # h=0.4: forward difference 0.1 lands in [0, 0.2] -> 5, backward is
    # mirrored to -0.1 -> 0.  T = (2*3/2)*(5+0) = 15.
    fs = FullSample(V=np.array([[0.2], [0.3]]), Y=np.array([2.0, 3.0]))
    t = estimate_t(fs, SubsetSpec((0,)), build_kernel(0), 0.4, UNIT1)
    assert abs(t - 15.0) < 1e-12, f"hand-computed n=2 value is 15, got {t}"


def test_hand_case_n3_g1_loo():
    # x = (0.1, 0.2, 0.9), h=0.4, k=0; only the pair (0.1 -> 0.2) is inside a
    # mirrored window, so g1_loo = (5, 0, 0) and T = mean(Y*g1_loo) = 5/3.
    fs = FullSample(V=np.array([[0.1], [0.2], [0.9]]), Y=np.array([1.0, 2.0, 3.0]))
    spec = SubsetSpec((0,))
    k = build_kernel(0)
    g1 = _g1_loo(fs, spec, k, 0.4, UNIT1)
    assert np.allclose(g1, [5.0, 0.0, 0.0], atol=1e-12), f"g1_loo mismatch: {g1}"
    t = estimate_t(fs, spec, k, 0.4, UNIT1)
    assert abs(t - 5.0 / 3.0) < 1e-13, f"hand-computed n=3 value is 5/3, got {t}"


def test_grouped_identity_t_equals_mean_y_g1():
    m = linear_model(3)
    fs = m.draw(200, seed=5)
    spec = SubsetSpec((2,))
    k = build_kernel(2)
    t = estimate_t(fs, spec, k, 0.2, m.input_model)
    g1 = _g1_loo(fs, spec, k, 0.2, m.input_model)
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
        kernel = build_kernel(order)
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
        kernel = build_kernel(order)
        for h in (0.15, 0.5, 1.0):
            t_fast = estimate_t(fs, spec, kernel, h, UNIT1)
            t_ref = brute_force_t(fs, spec, kernel, h, UNIT1)
            assert abs(t_fast - t_ref) <= 1e-12 * max(abs(t_ref), 1e-8), (
                f"boundary/tie case k={order}, h={h}: {t_fast} vs {t_ref}"
            )


def _grid_sums(x, w, kernel, h, dom):
    """The cell-grid backend, whatever backend window_sums would choose."""
    return _window._grid_sums(x, w, kernel, np.array([h]), dom, x, self_pairs=True)[0]


@pytest.mark.parametrize(
    "xa, xb, h, box",
    [
        # x_b = x_a + h/2 rounded up: (x_b - x_a) / h rounds to 0.5000000000000001, out
        (-0.5150372933919337, -0.5150372933919337 + 0.5 * 0.20261940833637054, 0.20261940833637054, (-1.0, 0.0)),
        # x_b one float past x_a + h/2 rounded: (x_b - x_a) / h rounds to 0.5, in
        (-0.9972614998298519, np.nextafter(-0.9972614998298519 + 0.5 * 1.6501217528309111, 1.0), 1.6501217528309111, (-1.0, 1.0)),
        # x_b below x_a by the smallest subnormal: (x_b - x_a) / h underflows to -0.0, in
        (5e-324, 0.0, 2.0, (0.0, 2.0)),
    ],
)
def test_sorted_path_decides_the_window_edge_as_the_kernel_does(xa, xb, h, box):
    fs = FullSample(V=np.array([[xa], [xb]]), Y=np.array([1.0, 1.0]))
    model = InputModel((Uniform(*box),))
    spec = SubsetSpec((0,))
    for order in (0, 2):
        kernel = build_kernel(order)
        t_ref = brute_force_t(fs, spec, kernel, h, model)
        assert abs(estimate_t(fs, spec, kernel, h, model) - t_ref) <= 1e-12 * abs(t_ref), (order, t_ref)


def test_sorted_path_agrees_with_sparse_path():
    rng = np.random.default_rng(3)
    model = UNIT1
    dom = model.domain
    for n, h, order in [(50, 0.3, 1), (300, 0.12, 2), (150, 0.5, 3)]:
        x = rng.random((n, 1))
        y = rng.normal(size=n)
        w = np.column_stack([y, y - y.mean()])
        kernel = build_kernel(order)
        # d = 1 takes the sorted range-moment path
        fast = _sums_in_input_order(x, w, kernel, [h], dom)[0]
        sparse = _grid_sums(x, w, kernel, h, dom)
        err = np.max(np.abs(fast - sparse)) / max(np.max(np.abs(sparse)), 1e-12)
        assert err <= 1e-10, f"sorted path deviates from sparse path by {err} (n={n}, h={h}, k={order})"
        # each weight column is computed as it would be on its own
        for c in range(2):
            alone = _sums_in_input_order(x, w[:, c : c + 1], kernel, [h], dom)[0]
            assert np.array_equal(fast[:, c : c + 1], alone)
            assert np.array_equal(sparse[:, c : c + 1], _grid_sums(x, w[:, c : c + 1], kernel, h, dom))


def test_sparse_path_spans_multiple_blocks(monkeypatch):
    # a budget of 64 candidate pairs splits n=150 in d=2 into many anchor blocks
    monkeypatch.setattr(_window, "_PAIR_BUDGET", 64)
    rng = np.random.default_rng(11)
    v = rng.random((150, 2))
    y = rng.normal(size=150)
    fs = FullSample(V=v, Y=y)
    spec = SubsetSpec((0, 1))
    kernel = build_kernel(1)
    t_fast = estimate_t(fs, spec, kernel, 0.4, UNIT2)
    t_ref = brute_force_t(fs, spec, kernel, 0.4, UNIT2)
    assert abs(t_fast - t_ref) <= 1e-12 * abs(t_ref), f"{t_fast} vs {t_ref}"


# one kernel per order serves every mask size
_KERNELS = {k: build_kernel(k) for k in (0, 1, 2)}


@st.composite
def _window_cases(draw, moments=False):
    """Samples that stress the range query: ties, edges, midpoints, window boundaries, far boxes.

    With moments=True, d is 1 or 2, the cases of the range-moment backend.
    """
    d = draw(st.integers(1, 2 if moments else 4))
    order = draw(st.sampled_from([0, 1, 2]))
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
    return rows, y, _KERNELS[order], h, InputModel(tuple(Uniform(a, b) for a, b in zip(lo, hi))), budget


def _absolute_scale(rows, y, kernel, h, model):
    """The U-statistic with every term replaced by its absolute value: the size of its rounding."""
    signs = sign_matrix(model.domain, rows)
    kvals = np.abs(kernel.eval_scaled(signs[:, None, :] * (rows[None, :, :] - rows[:, None, :]), h))
    np.fill_diagonal(kvals, 0.0)
    n = y.size
    # uniform inputs: 1 / f_X is the box volume
    return float(np.abs(y) @ kvals @ np.abs(y)) * float(np.prod(model.domain.widths)) / (n * (n - 1))


def _underflow(n, kernel, h, model):
    """Gradual underflow: a product with a subnormal factor keeps only the bits above the
    smallest subnormal, so two summation orders may differ by a few smallest subnormals
    per pair, scaled by the largest |K_h / f_X|."""
    t = np.linspace(*kernel.support, 1025)
    d = model.domain.dim
    k_max = float(np.max(np.abs(np.polynomial.polynomial.polyval(t, kernel.coeffs)))) ** d / h**d
    return 4.0 * n * n * k_max * float(np.prod(model.domain.widths)) * np.finfo(float).smallest_subnormal


@settings(max_examples=150, deadline=None)
@given(_window_cases())
@example(
    (
        np.zeros((3, 2)),
        np.array([2.2e-313, 0.0, 0.5]),
        _KERNELS[0],
        0.25,
        UNIT2,
        _window._PAIR_BUDGET,
    )
)
def test_sparse_backend_matches_brute_force(case):
    rows, y, kernel, h, model, budget = case
    fs = FullSample(V=rows, Y=y)
    spec = SubsetSpec(tuple(range(rows.shape[1])))
    # every call takes the grid, d = 1 and 2 included
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_grid_count", lambda tied, sides, domain: sides.size)
        mp.setattr(_window, "_PAIR_BUDGET", budget)
        t_fast = estimate_t(fs, spec, kernel, h, model)
    t_ref = brute_force_t(fs, spec, kernel, h, model)
    scale = max(abs(t_ref), _absolute_scale(rows, y, kernel, h, model))
    tol = 1e-12 * scale + _underflow(y.size, kernel, h, model)
    assert abs(t_fast - t_ref) <= tol, f"sparse {t_fast!r} vs brute force {t_ref!r} (h={h})"


@st.composite
def _anchor_cases(draw):
    """A window case and anchors that are not its points, as mirror_kde queries them.

    Each anchor coordinate is a point's coordinate on that axis or an edge
    or the midpoint of the box, so windows end on points and anchors sit on
    the mirror midpoint.
    """
    rows, y, kernel, h, model, budget = draw(_window_cases())
    dom = model.domain

    def coord(i):
        return draw(st.sampled_from([dom.lower[i], dom.upper[i], dom.midpoints[i]] + rows[:, i].tolist()))

    anchors = np.array([[coord(i) for i in range(dom.dim)] for _ in range(draw(st.integers(1, 8)))])
    return rows, y, kernel, h, model, budget, anchors


@settings(max_examples=150, deadline=None)
@given(_anchor_cases())
def test_grid_matches_brute_force_at_other_anchors(case):
    rows, y, kernel, h, model, budget, anchors = case
    dom = model.domain
    w = np.column_stack([y, np.ones_like(y)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_PAIR_BUDGET", budget)
        sums = _sums_in_input_order(rows, w, kernel, [h], dom, anchors=anchors)[0]
    signs = sign_matrix(dom, anchors)
    tol_floor = _underflow(y.size, kernel, h, model)
    for a, q in enumerate(anchors):
        kvals = np.array([float(kernel.eval_scaled(signs[a] * (x - q), h)) for x in rows])
        for c in range(2):
            want = math.fsum(kvals * w[:, c])
            tol = 1e-12 * float(np.abs(kvals) @ np.abs(w[:, c])) + tol_floor
            assert abs(sums[a, c] - want) <= tol, f"anchor {q}: grid {sums[a, c]!r} vs brute force {want!r} (h={h})"


def _scanned_runs(grid, x, centers, reach):
    """`_CellGrid.runs` by a direct scan over the grid order.

    For each center and each leading cell that meets its ball, the grid
    positions of the points whose last coordinate lies within `reach`, as
    maximal runs of consecutive positions.
    """
    xs = x[grid.order]
    lower = np.asarray(grid.lower)[: x.shape[1] - 1]
    cells = np.floor((xs[:, :-1] - lower) / grid.side)
    owner, first, stop = [], [], []
    for i, c in enumerate(centers):
        lo = np.floor(((c[:-1] - reach) - lower) / grid.side)
        hi = np.floor(((c[:-1] + reach) - lower) / grid.side)
        near = (xs[:, -1] >= c[-1] - reach) & (xs[:, -1] <= c[-1] + reach)
        at = np.flatnonzero(np.all((cells >= lo) & (cells <= hi), axis=1) & near)
        # a run ends where the positions jump or the leading cell changes
        ends = np.flatnonzero((np.diff(at) != 1) | np.any(cells[at[1:]] != cells[at[:-1]], axis=1))
        for part in np.split(at, ends + 1):
            if part.size:
                owner.append(i)
                first.append(part[0])
                stop.append(part[-1] + 1)
    return [np.array(v, dtype=np.int64) for v in (owner, first, stop)]


def _check_runs(x, lower, centers, reach, m):
    grid = _window._CellGrid(x, lower, 2.0 * reach / m)
    got = grid.runs(centers, reach)
    want = _scanned_runs(grid, x, centers, reach)
    for name, g, w in zip(("owner", "first", "stop"), got, want):
        assert np.array_equal(g, w), (name, g, w)


@st.composite
def _run_cases(draw):
    """Points with ties in d = 2 or 3, centers that are points or not, a ball radius and cells per ball side."""
    d = draw(st.integers(2, 3))
    lower = np.array([draw(st.sampled_from([0.0, -1.0, 1e6])) for _ in range(d)])

    def coord(i):
        # sixteenths put ball edges (a sixteenth apart from a center) on points and cell edges
        sixteenth = st.integers(0, 16).map(lambda k: lower[i] + k / 16.0)
        return draw(st.one_of(sixteenth, sixteenth, st.floats(lower[i], lower[i] + 1.0)))

    pool = [[coord(i) for i in range(d)] for _ in range(draw(st.integers(1, 12)))]
    x = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(draw(st.integers(1, 40)))])
    others = [[coord(i) for i in range(d)] for _ in range(draw(st.integers(0, 6)))]
    centers = np.array([draw(st.sampled_from(pool + others)) for _ in range(draw(st.integers(1, 20)))])
    reach = draw(st.one_of(st.integers(1, 8).map(lambda k: k / 16.0), st.floats(1e-3, 1.0)))
    return x, lower, centers, reach, draw(st.integers(1, _window._MAX_CELLS))


@settings(max_examples=200, deadline=None)
@given(_run_cases())
def test_cell_grid_runs_match_a_direct_scan(case):
    _check_runs(*case)


def _fixed_run_case(name):
    rng = np.random.default_rng(5)
    x = rng.random((60, 3))
    lower = np.zeros(3)
    if name == "shuffled and repeated centers":
        centers = x[np.r_[rng.permutation(60), rng.integers(0, 60, 20)]]
    elif name == "centers off the sample":  # mirror_kde's anchors
        centers = rng.uniform(-0.1, 1.1, size=(30, 3))
    elif name == "ties on the last axis":
        x[:, -1] = rng.integers(0, 4, 60) / 4.0
        centers = x[rng.permutation(60)]
    else:  # ball edges on points' values: c +- reach lands on a sixteenth, cell edges too
        x = rng.integers(0, 17, (60, 3)) / 16.0
        centers = x[rng.permutation(60)] + np.array([0.0, 0.0, 1.0 / 16.0])
    return x, lower, centers, 0.125


@pytest.mark.parametrize(
    "name", ["shuffled and repeated centers", "centers off the sample", "ties on the last axis", "ball edges on point values"]
)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_cell_grid_runs_match_a_direct_scan_on_fixed_cases(name, d, m):
    x, lower, centers, reach = _fixed_run_case(name)
    _check_runs(x[:, -d:], lower[-d:], centers[:, -d:], reach, m)


def _moment_scale(rows, y, kernel, h, model):
    """The absolute-term scale of the range-moment backend.

    Each window sum is a difference of prefix sums over the moments of every
    point, with the self pair added and taken out again, so the rounding
    scales with all pairs, not only the window's: sum_a sum_b |y_a y_b| with
    |K_1| bounded by sum_m |c_m| (the re-expanded terms have |t| <= 1).
    """
    n, d = rows.shape
    k_abs = (float(np.sum(np.abs(kernel.coeffs))) / h) ** d
    return float(np.sum(np.abs(y))) ** 2 * k_abs * float(np.prod(model.domain.widths)) / (n * (n - 1))


@settings(max_examples=200, deadline=None)
@given(_window_cases(moments=True))
@example(
    (
        np.zeros((3, 2)),
        np.array([2.2e-313, 0.0, 0.5]),
        build_kernel(0),
        0.25,
        UNIT2,
        _window._PAIR_BUDGET,
    )
)
def test_range_moment_backend_matches_brute_force(case):
    rows, y, kernel, h, model, _ = case
    fs = FullSample(V=rows, Y=y)
    spec = SubsetSpec(tuple(range(rows.shape[1])))
    # every d = 2 call takes range moments, whatever the sample's occupancy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_MOMENT_CROSSOVER", 0.0)
        mp.setattr(_window, "_grid_sums", None)
        t_fast = estimate_t(fs, spec, kernel, h, model)
    t_ref = brute_force_t(fs, spec, kernel, h, model)
    scale = max(abs(t_ref), _moment_scale(rows, y, kernel, h, model))
    tol = 1e-12 * scale + _underflow(y.size, kernel, h, model)
    assert abs(t_fast - t_ref) <= tol, f"range moments {t_fast!r} vs brute force {t_ref!r} (h={h})"


_ANTI_DIAGONAL = np.random.default_rng(0).uniform(0.0, 0.5, size=12)


@settings(max_examples=200, deadline=None)
@given(_window_cases(moments=True))
# on the anti-diagonal (t, 1/2 - t) every window at h = 1 holds its anchor alone
@example((np.column_stack([_ANTI_DIAGONAL, 0.5 - _ANTI_DIAGONAL]), np.linspace(-1.0, 2.0, 12), _KERNELS[2], 1.0, UNIT2, _window._PAIR_BUDGET))
# the mirror midpoint, a point on a cell edge (side h/2 = 0.125) and a tie
@example((np.array([[0.5], [0.125], [0.875], [0.875]]), np.array([1.0, -2.0, 0.5, 3.0]), _KERNELS[1], 0.25, UNIT1, 1))
def test_a_window_that_holds_only_its_anchor_sums_to_zero_on_every_backend(case):
    rows, y, kernel, h, model, budget = case
    dom = model.domain
    signs = sign_matrix(dom, rows)
    scaled = signs[:, None, :] * (rows[None, :, :] - rows[:, None, :]) / h
    inside = np.all((scaled >= kernel.support[0]) & (scaled <= kernel.support[1]), axis=2)
    alone = inside.sum(axis=1) == 1  # the anchor is in its own window
    w = np.column_stack([y, y - y.mean()])
    for backend, split in (("range moments", lambda sides: 0), ("grid", lambda sides: sides.size)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_window, "_grid_count", lambda tied, sides, domain: split(sides))
            mp.setattr(_window, "_PAIR_BUDGET", budget)
            sums = _sums_in_input_order(rows, w, kernel, [h], dom)[0]
        assert np.array_equal(sums[alone], np.zeros((np.count_nonzero(alone), 2))), (backend, sums[alone])


@st.composite
def _sort_keys(draw):
    """1 to 3 keys of one length from 1 to 60: heavy ties, -0.0 beside 0.0, continuous floats or int64."""
    n = draw(st.integers(1, 60))
    kinds = {
        "ties": st.integers(0, 2).map(float),
        "zeros": st.sampled_from([0.0, -0.0, 1.0]),
        "floats": st.floats(-1e3, 1e3),
        "ints": st.integers(-3, 3),
    }
    keys = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=3)):
        values = draw(st.lists(kinds[kind], min_size=n, max_size=n))
        keys.append(np.array(values, dtype=np.int64 if kind == "ints" else float))
    return keys


@settings(max_examples=300, deadline=None)
@given(_sort_keys())
def test_stable_order_is_lexsort(keys):
    assert np.array_equal(_window._stable_order(*keys), np.lexsort(keys))


def test_range_moments_agree_with_tree_on_spread_and_tied_samples():
    rng = np.random.default_rng(7)
    dom = Domain(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    for n, h, order in [(400, 0.1, 1), (400, 0.35, 2), (300, 1.0, 3), (200, 0.6, 0)]:
        x = dom.lower + rng.random((n, 2)) * dom.widths
        x[: n // 4] = x[0]  # a cluster of tied rows
        x[n // 4 : n // 2, 1] = np.round(x[n // 4 : n // 2, 1] * 8) / 8  # ties on one axis
        w = np.column_stack([rng.normal(size=n), rng.random(n)])
        kernel = build_kernel(order)
        grid = _grid_sums(x, w, kernel, h, dom)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_window, "_MOMENT_CROSSOVER", 0.0)
            moments = _sums_in_input_order(x, w, kernel, [h], dom)[0]
        err = np.max(np.abs(moments - grid)) / np.max(np.abs(grid))
        assert err <= 1e-12, f"range moments deviate from the grid by {err} (n={n}, h={h}, k={order})"


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("reps, crossover", [(1, 0.0), (2, 0.0), (100, _window._MOMENT_CROSSOVER)])
def test_range_moments_skip_an_empty_middle_cell(axis, reps, crossover):
    # cells of side h/2 = 0.25: a sits just below the edge of cell 1 and b
    # on the edge of cell 2, and (0.5 - a) / h rounds to 0.5, so a's window
    # meets cells 0 to 2 on one axis while cell 1 holds no point; 100 tied
    # rows of each reach range moments at the default crossover
    a, b = [0.3, 0.3], [0.3, 0.3]
    a[axis], b[axis] = 0.25 - 2.0**-55, 0.5
    fs = FullSample(V=np.array([a] * reps + [b] * reps), Y=np.linspace(1.0, 2.0, 2 * reps))
    spec = SubsetSpec((0, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_MOMENT_CROSSOVER", crossover)
        mp.setattr(_window, "_grid_sums", None)
        for order in (0, 2):
            kernel = build_kernel(order)
            t_fast = estimate_t(fs, spec, kernel, 0.5, UNIT2)
            t_ref = brute_force_t(fs, spec, kernel, 0.5, UNIT2)
            assert abs(t_fast - t_ref) <= 1e-12 * _moment_scale(fs.V, fs.Y, kernel, 0.5, UNIT2), (order, t_fast, t_ref)


@pytest.mark.parametrize("middle", [[], [0.375]])
@pytest.mark.parametrize("reps", [1, 2, 100])
def test_range_moments_1d_reach_a_third_cell(middle, reps, monkeypatch):
    # cells of side h/2 = 0.25: a sits just below the edge of cell 1 and b
    # on the edge of cell 2, and (0.5 - a) / h rounds to 0.5, so a's window
    # meets cells 0 to 2.  With a point in cell 1 that is three occupied
    # cells, and the third pass sums them; with cell 1 empty the table of
    # occupied cells steps from cell 0 to cell 2 and no window needs a third
    a, b = 0.25 - 2.0**-55, 0.5
    v = np.array([a] * reps + middle * reps + [b] * reps)
    fs = FullSample(V=v[:, None], Y=np.linspace(1.0, 2.0, v.size))
    spec = SubsetSpec((0,))
    anchors_per_pass = []
    kernel_rows = _window._kernel_rows

    def recording(coeffs, ratio, delta):
        anchors_per_pass.append(delta.size)
        return kernel_rows(coeffs, ratio, delta)

    monkeypatch.setattr(_window, "_kernel_rows", recording)
    monkeypatch.setattr(_window, "_grid_sums", None)
    for order in (0, 2):
        kernel = build_kernel(order)
        anchors_per_pass.clear()
        t_fast = estimate_t(fs, spec, kernel, 0.5, UNIT1)
        t_ref = brute_force_t(fs, spec, kernel, 0.5, UNIT1)
        assert abs(t_fast - t_ref) <= 1e-12 * _moment_scale(fs.V, fs.Y, kernel, 0.5, UNIT1), (order, t_fast, t_ref)
        first, second, third = anchors_per_pass
        assert first == second == v.size
        assert third == (reps if middle else 0), anchors_per_pass


def test_range_moments_2d_columns_are_bit_equal_to_one_column_calls():
    # every moment, prefix sum and contraction is taken column by column, so
    # a second weight column changes no bit of the first
    rng = np.random.default_rng(5)
    x = rng.random((700, 2))
    x[:100] = x[100:200]
    w = rng.standard_normal((700, 2))
    for order in (0, 2, 4):
        kernel = build_kernel(order)
        for h in (0.05, 0.3, 1.0):
            both = _window._moment_sums_2d(x, w, kernel.coeffs, kernel.support, h, UNIT2.domain)
            for c in range(2):
                one = _window._moment_sums_2d(x, w[:, [c]], kernel.coeffs, kernel.support, h, UNIT2.domain)
                assert np.array_equal(both[:, c], one[:, 0]), (order, h, c)


def test_range_moments_leave_int64_overflow_to_the_tree():
    # cell indices reach widths / side and the d = 2 layout keys (n + 1)^3
    ok = np.zeros(999, dtype=bool)
    assert _window._grid_count(ok, np.array([0.25]), UNIT1.domain) == 0
    assert _window._grid_count(ok, np.array([2.0**-62]), UNIT1.domain) == 1
    assert _window._grid_count(ok, np.array([2.0**-62]), UNIT2.domain) == 1
    assert _window._grid_count(np.ones(2**20, dtype=bool), np.array([0.5]), UNIT2.domain) == 0
    assert _window._grid_count(np.ones(2**21, dtype=bool), np.array([0.5]), UNIT2.domain) == 1
    # in a call of several bandwidths the guards hold the grid on theirs alone
    assert _window._grid_count(ok, np.array([2.0**-62, 2.0**-61, 0.25]), UNIT1.domain) == 1
    assert _window._grid_count(np.ones(2**21, dtype=bool), np.array([0.25, 0.5]), UNIT2.domain) == 2
    # a bandwidth far below the cell-index range is summed right by the grid
    fs = FullSample(V=np.array([[0.3], [0.3], [0.7]]), Y=np.array([1.0, 2.0, 3.0]))
    kernel = build_kernel(0)
    t_ref = brute_force_t(fs, SubsetSpec((0,)), kernel, 1e-300, UNIT1)
    assert estimate_t(fs, SubsetSpec((0,)), kernel, 1e-300, UNIT1) == pytest.approx(t_ref, rel=1e-12)


def test_window_sums_backend_choice(monkeypatch):
    # range moments need, in d = 2, about 60 expected window pairs per anchor,
    # tied rows counted; the grid takes the rest
    def moments_called(*args):
        raise AssertionError("range moments")

    monkeypatch.setattr(_window, "_moment_sums_2d", moments_called)
    rng = np.random.default_rng(3)
    x = rng.random((2000, 2))
    w = rng.normal(size=(2000, 1))
    kernel = build_kernel(2)
    _sums_in_input_order(x, w, kernel, [0.06], UNIT2.domain)  # about 2 pairs per anchor: the grid
    mirror_kde(x, kernel, 0.6, eta=0.5, domain=UNIT2.domain).eval_rows(x[:10])  # other anchors: the grid
    for sample, h in [(x, 0.6), (np.repeat(x[:20], 100, axis=0), 0.06)]:
        with pytest.raises(AssertionError, match="range moments"):
            _sums_in_input_order(sample, w, kernel, [h], UNIT2.domain)


# --------------------------------------------------------------------------
# several bandwidths in one call: one grid listing for the smallest, range
# moments for the rest


def _grid_split(rows, kernel, hs, dom):
    """How many of the smallest bandwidths of hs window_sums gives to the grid, under the current crossover."""
    s = rows[np.lexsort(rows.T[::-1])]
    sides = (kernel.support[1] - kernel.support[0]) * np.asarray(hs, dtype=float)
    return _window._grid_count(np.all(s[1:] == s[:-1], axis=1), sides, dom)


def _dense_row_sums(rows, w, kernel, h, dom):
    """(sum_b w_b K_h(A_a(x_b - x_a)), sum_b |w_b K_h(A_a(x_b - x_a))|) over b != a: each window sum and the size of its rounding."""
    signs = sign_matrix(dom, rows)
    kvals = kernel.eval_scaled(signs[:, None, :] * (rows[None, :, :] - rows[:, None, :]), h)
    np.fill_diagonal(kvals, 0.0)
    return kvals @ w, np.abs(kvals) @ np.abs(w)


def _moments_pay_alone(tied, side, dom):
    """The rule for one bandwidth: whether range moments serve the window side `side` of points whose sorted rows repeat where `tied` is set.

    d = 1 takes range moments and d >= 3 the grid.  In d = 2 range moments
    serve from _MOMENT_CROSSOVER expected window pairs per anchor, spread
    pairs n^2 prod min(1, side / width) and tied ones.  The grid serves
    where cell indices (widths / side) or the d = 2 layout keys
    ((n + 1)^3) would not fit in int64.
    """
    n, d = tied.size + 1, dom.dim
    if float(np.max(dom.widths)) / side >= 2.0**62 or (d == 2 and float(n + 1) ** 3 >= 2.0**63):
        return False
    if d != 2:
        return d == 1
    pairs = n * n * float(np.prod(np.minimum(1.0, side / dom.widths))) + _window._tied_pairs(tied)
    return pairs >= _window._MOMENT_CROSSOVER * n


def _joint_costs(tied, sides, dom):
    """{J: 7/8 P_J + 1/8 (P_1 + ... + P_J) + (N - J) C n} in rationals, for every J that leaves no int64-guarded side to range moments."""
    n, count = tied.size + 1, sides.size
    tied_pairs = _window._tied_pairs(tied)
    pairs = [Fraction(n * n * float(np.prod(np.minimum(1.0, side / dom.widths))) + tied_pairs) for side in sides]
    guarded = int(np.sum(float(np.max(dom.widths)) / sides >= 2.0**62))
    per_moment_pass = Fraction(_window._MOMENT_CROSSOVER) * n
    return {
        j: Fraction(7, 8) * (pairs[j - 1] if j else 0) + Fraction(1, 8) * sum(pairs[:j]) + (count - j) * per_moment_pass
        for j in range(guarded, count + 1)
    }


@st.composite
def _split_cases(draw):
    """Tied sorted rows, a box of one to three axes, one to six ascending window sides and a crossover.

    Sides reach the cell-index guard, max(widths) 2^-62, from both sides,
    and the crossover may sit at the pairs per anchor of a side.
    """
    d = draw(st.integers(1, 3))
    widths = np.array([draw(st.sampled_from([1.0, 2.0, 2e-9, 3e9])) for _ in range(d)])
    dom = Domain(np.zeros(d), widths)
    n = draw(st.integers(2, 64))
    tied = np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)), dtype=bool)
    guard = float(np.max(widths)) * 2.0**-62
    side = st.one_of(
        st.sampled_from([guard, np.nextafter(guard, 0.0), np.nextafter(guard, np.inf), 0.5 * float(widths.min())]),
        st.floats(1e-4, 0.5).map(lambda f: f * float(widths.min())),
    )
    sides = np.unique(draw(st.lists(side, min_size=1, max_size=6)))
    crossover = draw(st.sampled_from([0.0, _window._MOMENT_CROSSOVER, None, None]))
    if crossover is None:
        at = float(sides[draw(st.integers(0, sides.size - 1))])
        crossover = (n * n * float(np.prod(np.minimum(1.0, at / widths))) + _window._tied_pairs(tied)) / n
    return tied, sides, dom, crossover


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_grid_count_of_one_bandwidth_keeps_the_rule_for_one_bandwidth(case):
    tied, sides, dom, crossover = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_MOMENT_CROSSOVER", crossover)
        for side in sides:
            want = 0 if _moments_pay_alone(tied, side, dom) else 1
            assert _window._grid_count(tied, np.array([side]), dom) == want, side


@pytest.mark.parametrize("n", [2**21 - 2, 2**21 - 1])
def test_grid_count_at_the_layout_key_guard(n):
    # (n + 1)^3 reaches 2^63 at n = 2^21 - 1, and the grid serves every 2-D
    # bandwidth from there; below it these tied rows take range moments
    tied = np.ones(n - 1, dtype=bool)
    moments = _moments_pay_alone(tied, 0.5, UNIT2.domain)
    assert moments == (n < 2**21 - 1)
    assert _window._grid_count(tied, np.array([0.5]), UNIT2.domain) == (0 if moments else 1)
    assert _window._grid_count(tied, np.array([0.25, 0.5]), UNIT2.domain) == (0 if moments else 2)


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_grid_count_is_the_prefix_of_least_joint_cost(case):
    tied, sides, dom, crossover = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_MOMENT_CROSSOVER", crossover)
        split = _window._grid_count(tied, sides, dom)
        alone = [_window._grid_count(tied, np.array([side]), dom) for side in sides]
        guarded = int(np.sum(float(np.max(dom.widths)) / sides >= 2.0**62))
        if dom.dim == 1:
            assert split == guarded
        elif dom.dim >= 3:
            assert split == sides.size
        else:
            cost = _joint_costs(tied, sides, dom)
            best = min(cost, key=lambda j: (cost[j], j))
            # the float cost rounds, so a J as cheap to within its rounding also stands
            rounding = 1e-12 * max(cost.values())
            assert split == best or (split in cost and cost[split] - cost[best] <= rounding), (split, best, cost)
    # a bandwidth that range moments serve in the call takes them alone too
    assert all(j == 0 for j in alone[split:]), (split, alone)


def test_grid_count_on_the_auto_2d_grid():
    # product (0, 1) at n = 2000: the default grid holds 6 to 501 expected
    # pairs per anchor, and a range-moment pass costs about 60 n.  CPU time
    # of the 25 grid values (_t_values on the virtual outputs, best of 5) at
    # forced splits J = 13 / 16 / 18 / 20 / 21 / 22 / 25: 128 / 111 / 106 /
    # 102 / 102 / 112 / 145 ms.  The rule for one bandwidth at a time gave
    # the grid the 13 smallest
    fs = product_model().draw(2000, seed=0)
    dom = UNIT2.domain
    grid = default_grid(2000, dom)
    kernel = build_kernel(2)
    assert _grid_split(fs.V, kernel, grid, dom) == 20
    assert sum(_grid_split(fs.V, kernel, [h], dom) for h in grid) == 13


_ORDERS = {k: build_kernel(k) for k in range(5)}


@st.composite
def _grid_cases(draw):
    """A window case in d = 2 or 3 with an ascending grid of one to five bandwidths.

    Rows repeat, sit on box edges, mirror midpoints and dyadic points, and
    one may sit on the far corner of another's window at a grid bandwidth.
    Crossover 0 gives every 2-D bandwidth to range moments, the default
    none at these sizes.  The others are taken at a grid bandwidth h_k: the
    pairs per anchor P_k / n, from which h_k alone takes range moments, or
    (P_k - 7/8 P_{k-1}) / n, at which one more grid bandwidth costs as much
    as it saves, so that the call's split sits next to k.
    """
    d = draw(st.integers(2, 3))
    order = draw(st.integers(0, 4))
    far = draw(st.booleans())
    lo = np.array([1e6 if far else draw(st.sampled_from([0.0, -1.0, 0.5])) for _ in range(d)])
    width = np.array([draw(st.sampled_from([1.0, 2.0])) for _ in range(d)])
    hi = lo + width
    limit = float(width.min())
    free = st.floats(0.02, 1.0).map(lambda f: f * limit)
    hs = np.unique(draw(st.lists(st.one_of(st.sampled_from([0.25, 0.5, limit]), free), min_size=1, max_size=5)))

    def coord(i):
        dyadic = lo[i] + draw(st.integers(0, 8 * int(width[i]))) / 8.0
        return draw(st.one_of(st.sampled_from([lo[i], hi[i], 0.5 * (lo[i] + hi[i]), dyadic]), st.floats(lo[i], hi[i])))

    pool = [[coord(i) for i in range(d)] for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        first = np.array(pool[0])
        pool.append((first + np.where(first <= 0.5 * (lo + hi), 0.5, -0.5) * draw(st.sampled_from(hs.tolist()))).tolist())
    n = draw(st.integers(2, 12))
    rows = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    y = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n)])
    crossover = draw(st.sampled_from([0.0, _window._MOMENT_CROSSOVER, None, None]))
    if crossover is None:
        # the expected window pairs that _grid_count weighs at each grid bandwidth
        s = rows[np.lexsort(rows.T[::-1])]
        tied = _window._tied_pairs(np.all(s[1:] == s[:-1], axis=1))
        pairs = [n * n * float(np.prod(np.minimum(1.0, 0.5 * h / width))) + tied for h in hs]
        k = draw(st.integers(0, len(pairs) - 1))
        crossover = draw(st.sampled_from([pairs[k], pairs[k] - 0.875 * (pairs[k - 1] if k else 0.0)])) / n
    budget = draw(st.sampled_from([1, _window._PAIR_BUDGET]))
    model = InputModel(tuple(Uniform(a, b) for a, b in zip(lo, hi)))
    return rows, y, _ORDERS[order], hs, model, crossover, budget


def _check_grid_case(rows, y, kernel, hs, model, crossover, budget):
    """window_sums over the grid against one call per bandwidth, and its T against brute_force_t.

    A bandwidth that takes range moments in the call takes them alone too,
    with the same bits.  One that the grid serves in the call is compared
    with the grid alone, or, where range moments serve it alone, with the
    dense sums.
    """
    dom = model.domain
    fs = FullSample(V=rows, Y=y)
    spec = SubsetSpec(tuple(range(rows.shape[1])))
    w = np.column_stack([y, np.ones_like(y)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_MOMENT_CROSSOVER", crossover)
        mp.setattr(_window, "_PAIR_BUDGET", budget)
        split = _grid_split(rows, kernel, hs, dom)
        sums = _sums_in_input_order(rows, w, kernel, hs, dom)
        t = _t_values(_prepare(fs, spec, hs[-1], model, None), fs.Y, kernel, hs)
        for j, h in enumerate(hs):
            alone = _sums_in_input_order(rows, w, kernel, [h], dom)[0]
            moments_alone = _grid_split(rows, kernel, [h], dom) == 0
            floor = _underflow(y.size, kernel, h, model)
            t_ref = brute_force_t(fs, spec, kernel, h, model)
            scale = max(abs(t_ref), _absolute_scale(rows, y, kernel, h, model))
            if j >= split:
                # the same backend on the same canonical rows
                assert moments_alone, (j, h, split)
                assert np.array_equal(sums[j], alone), (j, h)
                scale = max(scale, _moment_scale(rows, y, kernel, h, model))
            else:
                dense, absolute = _dense_row_sums(rows, w, kernel, h, dom)
                want = dense if moments_alone else alone
                assert np.all(np.abs(sums[j] - want) <= 1e-12 * absolute + floor), (j, h, sums[j], want)
            assert abs(t[j] - t_ref) <= 1e-12 * scale + floor, f"h={h}: {t[j]!r} vs brute force {t_ref!r}"


@settings(max_examples=150, deadline=None)
@given(_grid_cases())
@example((np.array([[0.0, 0.5], [0.5, 0.5]]), np.array([1.0, -2.0]), _ORDERS[3], np.array([0.5]), UNIT2, 0.0, 1))
@example(
    # a lattice of 12 rows: crossover 1 sends each h alone to range moments,
    # and in one call h = 0.1 and 0.5 to the grid, h = 1 to range moments
    (
        np.array([[i / 3.0, j / 2.0] for i in range(4) for j in range(3)]),
        np.linspace(-1.0, 1.0, 12),
        _ORDERS[2],
        np.array([0.1, 0.5, 1.0]),
        UNIT2,
        1.0,
        _window._PAIR_BUDGET,
    )
)
def test_grid_of_bandwidths_matches_per_bandwidth_sums_and_brute_force(case):
    _check_grid_case(*case)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("crossover", [0.0, _window._MOMENT_CROSSOVER])
@pytest.mark.parametrize(
    "xa, xb, h, box",
    [
        (-0.5150372933919337, -0.5150372933919337 + 0.5 * 0.20261940833637054, 0.20261940833637054, (-1.0, 0.0)),
        (-0.9972614998298519, np.nextafter(-0.9972614998298519 + 0.5 * 1.6501217528309111, 1.0), 1.6501217528309111, (-1.0, 1.0)),
        (5e-324, 0.0, 2.0, (0.0, 2.0)),
    ],
)
def test_grid_of_bandwidths_decides_the_window_edge_as_the_kernel_does(xa, xb, h, box, crossover, axis):
    # the 1-D window-edge cases of the sorted path, with a second axis on
    # which both rows agree; h sits alone, first and last in a grid
    a, b = [xa, xa], [xa, xa]
    b[axis] = xb
    model = InputModel((Uniform(*box), Uniform(*box)))
    for hs in ([h], [h, min(1.5 * h, box[1] - box[0])], [0.5 * h, 0.9 * h, h]):
        hs = np.unique(hs)
        for order in (0, 2):
            _check_grid_case(np.array([a, b]), np.array([1.0, 1.0]), _ORDERS[order], hs, model, crossover, _window._PAIR_BUDGET)


def _entries_by_division(mirrored, hs, support):
    """The first bandwidth at which each pair is in the window, by the kernel's own test on every quotient."""
    lo, hi = support
    q = mirrored[:, None, :] / hs[None, :, None]
    out = ~np.all((q >= lo) & (q <= hi), axis=2)
    # a pair that is in stays in as h grows
    assert np.all(out[:, 1:] <= out[:, :-1])
    return np.sum(out, axis=1)


@st.composite
def _entry_cases(draw):
    # the widest box holds h = 1e6; its mirror limit, like the unit box's, is its width
    limit = draw(st.sampled_from([1.0, 2e6]))
    hs = np.unique(draw(st.lists(st.one_of(st.sampled_from([limit, min(limit, 1e6)]), st.floats(1e-3, 1.0).map(lambda f: f * limit)), min_size=1, max_size=5)))
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), -1e-310]
    for h in hs:
        top, zero = 0.5 * h, -(h * 2.0**-1000) * 2.0**-75
        edges += [top, np.nextafter(top, np.inf), np.nextafter(top, -np.inf), zero, np.nextafter(zero, np.inf), np.nextafter(zero, -np.inf)]
    offset = st.one_of(st.sampled_from(edges), st.floats(-limit, limit))
    d = draw(st.integers(1, 3))
    mirrored = np.array([[draw(offset) for _ in range(d)] for _ in range(draw(st.integers(1, 20)))])
    return mirrored, hs


@settings(max_examples=300, deadline=None)
@given(_entry_cases())
@example((np.array([[0.0, -0.0], [5e-324, -5e-324], [0.5, np.nextafter(0.5, 1.0)], [-1e-310, 0.25]]), np.array([0.01, 1.0])))
@example((np.array([[-1e-318], [-2e-318], [5e5], [np.nextafter(5e5, np.inf)]]), np.array([1.0, 1e3, 1e6])))
def test_entries_match_the_kernels_support_test_by_division(case):
    mirrored, hs = case
    support = build_kernel(0).support
    want = _entries_by_division(mirrored, hs, support)
    assert np.array_equal(_window._entries(mirrored, *_window._limits(hs, support)), want)


def test_default_grid_straddles_the_crossover_and_matches_per_bandwidth_sums():
    m = product_model()
    fs = m.draw(2000, seed=4)
    dom = m.input_model.domain
    grid = default_grid(2000, dom)
    kernel = build_kernel(2)
    w = fs.Y[:, None]
    split = _grid_split(fs.V, kernel, grid, dom)
    moments_alone = [_grid_split(fs.V, kernel, [h], dom) == 0 for h in grid]
    # range moments take the largest bandwidths, and alone some the call gives to the grid
    assert 0 < split < grid.size and any(moments_alone[:split]) and all(moments_alone[split:])
    sums = _sums_in_input_order(fs.V, w, kernel, grid, dom)
    for j, h in enumerate(grid):
        alone = _sums_in_input_order(fs.V, w, kernel, [h], dom)[0]
        if j >= split:
            assert np.array_equal(sums[j], alone)
        else:
            dense, absolute = _dense_row_sums(fs.V, w, kernel, h, dom)
            assert np.all(np.abs(sums[j] - (dense if moments_alone[j] else alone)) <= 1e-12 * absolute), h


@pytest.mark.parametrize("model, mask", [(product_model(), (0, 1)), (linear_model(3), (0, 1, 2))])
def test_grid_of_bandwidths_is_row_permutation_invariant(model, mask):
    fs = model.draw(400, seed=9)
    spec = SubsetSpec(mask)
    kernel = build_kernel(2)
    grid = default_grid(400, model.input_model.domain.subdomain(mask))
    t = np.array(_t_values(_prepare(fs, spec, grid[-1], model.input_model, None), fs.Y, kernel, grid))
    perm = np.random.default_rng(1).permutation(400)
    t_perm = np.array(_t_values(_prepare(FullSample(V=fs.V[perm], Y=fs.Y[perm]), spec, grid[-1], model.input_model, None), fs.Y[perm], kernel, grid))
    assert np.all(np.abs(t - t_perm) <= 1e-13 * np.abs(t)), np.max(np.abs(t - t_perm) / np.abs(t))


def test_wavelet_sums_gather_only_the_levels_each_query_takes():
    # against a descent in which every query gathers at every level (row 0
    # twice where it does not take the level): equal up to the sign of a zero
    rng = np.random.default_rng(2)
    n = 500
    seq = rng.integers(0, 300, n)
    values = rng.standard_normal((n, 9))
    values[:50] = 0.0
    values[50:100] = -0.0
    lo = rng.integers(0, n, 2000)
    hi = np.minimum(n, lo + rng.integers(0, 100, lo.size))
    bound = rng.integers(0, 320, lo.size)

    def every_query(seq, values, lo, hi, bound):
        out = np.zeros((lo.size, values.shape[1]))
        for level in reversed(range(max(1, int(seq.max()).bit_length()))):
            bit = (seq >> level) & 1
            zeros = np.concatenate(([0], np.cumsum(1 - bit)))
            split = np.concatenate([np.flatnonzero(bit == 0), np.flatnonzero(bit)])
            seq, values = seq[split], values[split]
            z_lo, z_hi = zeros[lo], zeros[hi]
            take = ((bound >> level) & 1).astype(bool)
            prefix = _window._prefix(values)
            out += prefix[np.where(take, z_hi, 0)] - prefix[np.where(take, z_lo, 0)]
            lo = np.where(take, zeros[-1] + lo - z_lo, z_lo)
            hi = np.where(take, zeros[-1] + hi - z_hi, z_hi)
        return out

    # kernel rows of one order-0 term, all ones, contract each gathered row
    # to itself; the descent overwrites its copies of lo and hi
    ones = np.ones((1, lo.size))
    got, count = _window._wavelet_sums(seq, values, lo.copy(), hi.copy(), bound, ones, ones)
    assert np.array_equal(got, every_query(seq, values, lo, hi, bound))
    for q in range(lo.size):
        sel = np.arange(lo[q], hi[q])
        want = values[sel[seq[sel] < bound[q]]].sum(axis=0)
        assert np.allclose(got[q], want, rtol=0.0, atol=1e-12), q
        assert count[q] == np.count_nonzero(seq[sel] < bound[q]), q


@st.composite
def _moment_cases_2d(draw):
    """A 2-D window case for range moments: ties, box edges, mirror midpoints, dyadic points, h up to the mirror limit."""
    lo = np.array([draw(st.sampled_from([0.0, -1.0, 0.5, 1e6])) for _ in range(2)])
    width = np.array([draw(st.sampled_from([1.0, 2.0])) for _ in range(2)])
    hi = lo + width
    limit = float(width.min())
    h = draw(st.one_of(st.sampled_from([0.25, 0.5 * limit, limit]), st.floats(0.02, 1.0).map(lambda f: f * limit)))

    def coord(i):
        dyadic = lo[i] + draw(st.integers(0, 8 * int(width[i]))) / 8.0
        return draw(st.one_of(st.sampled_from([lo[i], hi[i], 0.5 * (lo[i] + hi[i]), dyadic]), st.floats(lo[i], hi[i])))

    pool = [[coord(0), coord(1)] for _ in range(draw(st.integers(1, 10)))]
    rows = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(draw(st.integers(2, 16)))])
    y = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(rows.shape[0])])
    return rows, y, _ORDERS[draw(st.integers(0, 4))], h, InputModel(tuple(Uniform(a, b) for a, b in zip(lo, hi)))


@settings(max_examples=200, deadline=None)
@given(_moment_cases_2d())
@example((np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.5], [1.0, 1.0]]), np.array([1.0, -2.0, 0.5, 1.5]), _ORDERS[4], 1.0, UNIT2))
# anchors shuffled on axis 2 against the axis-1 order, with ties and window ends on points
@example(
    (
        np.array([[0.0, 0.875], [0.125, 0.25], [0.25, 0.875], [0.5, 0.0], [0.5, 0.5], [0.75, 0.25], [0.875, 1.0], [1.0, 0.125]]),
        np.array([1.0, -2.0, 0.5, 1.5, -1.0, 2.0, 0.25, -0.5]),
        _ORDERS[2],
        0.5,
        UNIT2,
    )
)
def test_forced_2d_range_moments_match_brute_force(case):
    # every bandwidth takes range moments, however few pairs its windows hold
    rows, y, kernel, h, model = case
    fs = FullSample(V=rows, Y=y)
    spec = SubsetSpec((0, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_window, "_grid_count", lambda tied, sides, domain: 0)
        mp.setattr(_window, "_grid_sums", None)
        t_fast = estimate_t(fs, spec, kernel, h, model)
    t_ref = brute_force_t(fs, spec, kernel, h, model)
    tol = 1e-12 * max(abs(t_ref), _moment_scale(rows, y, kernel, h, model)) + _underflow(y.size, kernel, h, model)
    assert abs(t_fast - t_ref) <= tol, f"range moments {t_fast!r} vs brute force {t_ref!r} (h={h})"


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_range_moments_2d_hold_no_query_by_moment_array():
    # n = 10^4 at h = 0.3 makes about 4.4 queries per point; two weight
    # columns of 9 moments each were 36 MiB as (query, moment) arrays, and
    # the moments with their prefix sums are about 3 MiB
    m = product_model()
    fs = m.draw(10_000, seed=0)
    w = np.column_stack([fs.Y, fs.Y - fs.Y.mean()])
    kernel = build_kernel(2)
    peak = _peak_mib(lambda: _window._moment_sums_2d(fs.V, w, kernel.coeffs, kernel.support, 0.3, UNIT2.domain))
    assert peak <= 12.0, f"range moments peaked at {peak:.2f} MiB"


def test_grid_call_at_one_bandwidth_keeps_blocks_small():
    # the final estimate of product (0, 1) at n = 2000, seed 0: the grid
    # serves its h, with two weight columns; blocks of 2^16 candidate pairs
    # peaked at 3.9 MiB
    m = product_model()
    fs = m.draw(2000, seed=0)
    h = 0.1778279410038923
    kernel = build_kernel(2)
    assert _grid_split(fs.V, kernel, [h], UNIT2.domain) == 1
    w = np.column_stack([fs.Y, fs.Y - fs.Y.mean()])
    peak = _peak_mib(lambda: _sums_in_input_order(fs.V, w, kernel, [h], UNIT2.domain))
    assert peak <= 2.0, f"grid call peaked at {peak:.2f} MiB"


def _check_tied_rows(model):
    """1500 identical rows peak under 16 MiB and give the closed-form estimate."""
    n, d = 1500, model.domain.dim
    v = np.tile([0.3, 0.7, 0.5][:d], (n, 1))
    y = np.random.default_rng(0).normal(size=n)
    h = n**-0.375
    kernel = build_kernel(2)
    tracemalloc.start()
    try:
        t = estimate_t(FullSample(V=v, Y=y), SubsetSpec(tuple(range(d))), kernel, h, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    k0 = float(kernel.coeffs[0]) ** d / h**d
    want = k0 * (math.fsum(y) ** 2 - math.fsum(y * y)) / (n * (n - 1))
    assert abs(t - want) <= 1e-12 * k0 * float(np.sum(np.abs(y))) ** 2 / (n * (n - 1))


def test_tied_rows_keep_memory_bounded():
    # range moments serve tied rows in d = 2
    _check_tied_rows(UNIT2)


def test_tied_rows_keep_tree_blocks_bounded_in_3d():
    # the grid serves d = 3, in anchor blocks cut by each anchor's exact candidate count
    _check_tied_rows(UNIT3)


def test_clustered_rows_keep_grid_blocks_bounded_in_3d():
    # 1500 distinct rows within 1e-6 of one point: a spread-sample guess of
    # the pairs per anchor would put all 2.25M candidate pairs in one block
    n = 1500
    rng = np.random.default_rng(0)
    v = np.array([0.3, 0.7, 0.5]) + rng.uniform(-1e-6, 1e-6, (n, 3))
    fs = FullSample(V=v, Y=rng.normal(size=n))
    kernel = build_kernel(2)
    h = n**-0.375
    tracemalloc.start()
    try:
        t = estimate_t(fs, SubsetSpec((0, 1, 2)), kernel, h, UNIT3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # the dense double sum, 100 anchors at a time; f_X = 1 on the unit cube
    signs = sign_matrix(UNIT3.domain, v)
    t_ref = scale = 0.0
    for a0 in range(0, n, 100):
        k = kernel.eval_scaled(signs[a0 : a0 + 100, None, :] * (v[None, :, :] - v[a0 : a0 + 100, None, :]), h)
        k[np.arange(k.shape[0]), np.arange(a0, a0 + k.shape[0])] = 0.0
        t_ref += float(fs.Y[a0 : a0 + 100] @ k @ fs.Y)
        scale += float(np.abs(fs.Y[a0 : a0 + 100]) @ np.abs(k) @ np.abs(fs.Y))
    assert abs(t - t_ref / (n * (n - 1))) <= 1e-12 * scale / (n * (n - 1)), (t, t_ref / (n * (n - 1)))


def test_row_permutation_invariance():
    m = linear_model(2)
    fs = m.draw(120, seed=9)
    spec = SubsetSpec((0,))
    k = build_kernel(2)
    t = estimate_t(fs, spec, k, 0.25, m.input_model)
    perm = np.random.default_rng(1).permutation(120)
    fs_perm = FullSample(V=fs.V[perm], Y=fs.Y[perm])
    t_perm = estimate_t(fs_perm, spec, k, 0.25, m.input_model)
    assert abs(t - t_perm) <= 1e-13 * abs(t), f"permutation changed the estimate: {t} vs {t_perm}"


def test_row_permutation_invariance_2d():
    m = product_model()
    fs = m.draw(400, seed=9)
    spec = SubsetSpec((0, 1))
    k = build_kernel(1)
    t = estimate_t(fs, spec, k, 0.3, m.input_model)
    perm = np.random.default_rng(1).permutation(400)
    fs_perm = FullSample(V=fs.V[perm], Y=fs.Y[perm])
    t_perm = estimate_t(fs_perm, spec, k, 0.3, m.input_model)
    assert abs(t - t_perm) <= 1e-13 * abs(t), f"permutation changed the estimate: {t} vs {t_perm}"


def test_row_permutation_invariance_range_moments(monkeypatch):
    monkeypatch.setattr(_window, "_MOMENT_CROSSOVER", 0.0)
    m = product_model()
    fs = m.draw(400, seed=9)
    v = fs.V.copy()
    v[:50] = v[0]  # tied rows
    fs = FullSample(V=v, Y=fs.Y)
    spec = SubsetSpec((0, 1))
    k = build_kernel(2)
    t = estimate_t(fs, spec, k, 0.3, m.input_model)
    perm = np.random.default_rng(1).permutation(400)
    t_perm = estimate_t(FullSample(V=fs.V[perm], Y=fs.Y[perm]), spec, k, 0.3, m.input_model)
    assert abs(t - t_perm) <= 1e-13 * abs(t), f"permutation changed the estimate: {t} vs {t_perm}"



def _tied(fs):
    """fs with tied rows: a tenth of the rows repeat others' inputs, half of those their outputs too, and a run ties on axis 0."""
    n = fs.n
    v, y = fs.V.copy(), fs.Y.copy()
    v[n // 2 : n // 2 + n // 10] = v[: n // 10]
    y[n // 2 : n // 2 + n // 20] = y[: n // 20]
    v[n // 4 : n // 3, 0] = v[n // 4, 0]
    return FullSample(V=v, Y=y)


def _shuffles(fs, count=3):
    rng = np.random.default_rng(8)
    for _ in range(count):
        perm = rng.permutation(fs.n)
        yield FullSample(V=fs.V[perm], Y=fs.Y[perm])


@pytest.mark.parametrize(
    "model, mask, h, grid",
    [
        (linear_model(3), (0,), 0.2, False),  # 1-D range moments
        (product_model(), (0, 1), 0.8, False),  # 2-D range moments: large windows
        (product_model(), (0, 1), 0.05, True),  # 2-D grid: small windows
        (linear_model(3), (0, 1, 2), 0.3, True),  # 3-D grid
    ],
)
def test_every_reported_number_is_free_of_the_row_order(model, mask, h, grid):
    # the estimator is a symmetric U-statistic: a function of the sample as a
    # set, so a row permutation may move no bit of any reported number
    fs = _tied(model.draw(1000, seed=3))
    spec, kernel, im = SubsetSpec(mask), build_kernel(2), model.input_model
    assert (_grid_split(fs.V[:, mask], kernel, [h], im.domain.subdomain(mask)) == 1) == grid
    base = estimate_sobol(fs, spec, kernel, h, im)
    for shuffled in _shuffles(fs):
        assert estimate_sobol(shuffled, spec, kernel, h, im) == base
    if len(mask) <= 2:
        curve = bandwidth_curve(fs, spec, kernel, im)
        for shuffled in _shuffles(fs, 2):
            assert bandwidth_curve(shuffled, spec, kernel, im) == curve
    if mask == (0,):
        results, sigma = estimate_first_order_all(fs, kernel, h, im)
        for shuffled in _shuffles(fs, 2):
            shuffled_results, shuffled_sigma = estimate_first_order_all(shuffled, kernel, h, im)
            assert shuffled_results == results and np.array_equal(shuffled_sigma, sigma)


def test_scale_equivariance_exact():
    m = product_model()
    fs = m.draw(80, seed=2)
    spec = SubsetSpec((1,))
    k = build_kernel(1)
    t = estimate_t(fs, spec, k, 0.3, m.input_model)
    fs2 = FullSample(V=fs.V, Y=2.0 * fs.Y)
    t2 = estimate_t(fs2, spec, k, 0.3, m.input_model)
    assert t2 == 4.0 * t, f"t(2Y) must equal 4 t(Y) exactly: {t2} vs {4.0 * t}"


def test_sobol_affine_invariance():
    m = curved_model()
    fs = m.draw(400, seed=4)
    spec = SubsetSpec((0,))
    k = build_kernel(2)
    base = estimate_sobol(fs, spec, k, 0.2, m.input_model)
    shifted = estimate_sobol(FullSample(V=fs.V, Y=1.7 * fs.Y - 3.2), spec, k, 0.2, m.input_model)
    assert abs(base.sobol - shifted.sobol) <= 1e-12 * abs(base.sobol), (
        f"sobol not invariant under affine output map: {base.sobol} vs {shifted.sobol}"
    )


@pytest.mark.parametrize("shift", [1e3, 1e6, 1e7])
def test_sobol_survives_a_large_output_shift(shift):
    # the output variance is taken on the centered column, so a mean far
    # above sd(Y) costs no digits (the one-pass raw variance moved the index
    # by 3e-4 at a shift of 1e6 and 0.18 at 1e7)
    m = curved_model()
    fs = m.draw(400, seed=0)
    spec = SubsetSpec((0,))
    k = build_kernel(2)
    base = estimate_sobol(fs, spec, k, 0.2, m.input_model)
    shifted = estimate_sobol(FullSample(V=fs.V, Y=fs.Y + shift), spec, k, 0.2, m.input_model)
    assert abs(shifted.sobol - base.sobol) <= 1e-8 * abs(base.sobol), (shift, base.sobol, shifted.sobol)


def test_g1_loo_constant_and_zero_output():
    rng = np.random.default_rng(8)
    v = rng.random((2000, 1))
    k = build_kernel(1)
    ones = _g1_loo(FullSample(V=v, Y=np.ones(2000)), SubsetSpec((0,)), k, 0.2, UNIT1)
    assert abs(ones.mean() - 1.0) < 0.05, f"g1_loo of Y=1 should average near 1, got {ones.mean()}"
    zeros = _g1_loo(FullSample(V=v, Y=np.zeros(2000)), SubsetSpec((0,)), k, 0.2, UNIT1)
    assert np.all(zeros == 0.0), "g1_loo of Y=0 must be identically zero"


# ---------------------------------------------------------------------------
# variance plug-ins


def test_variance_t_zero_output():
    # k=0, h=0.2: no point lies in another's mirrored window [x, x +- 0.1], so
    # g1 = 0 and there is no index to estimate; range moments serve 1-D sums
    fs = FullSample(V=np.array([[0.1], [0.6], [0.9]]), Y=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InsufficientSampleError, match=r"h=0.2; raise h or n"):
        estimate_sobol(fs, SubsetSpec((0,)), build_kernel(0), 0.2, UNIT1)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200])
def test_outputs_that_overflow_the_sums_are_refused_with_their_scale(scale):
    # at 1e150 the variances overflowed, and max(0.0, nan) reported them as
    # 0.0 with a zero-width interval; at 1e160 fsum met -inf + inf; at 1e200
    # the output variance overflowed and read as zero
    m = linear_model(3)
    fs = m.draw(500, seed=0)
    big = FullSample(V=fs.V, Y=fs.Y * scale)
    with pytest.raises(DegenerateOutputError, match=re.escape(f"outputs up to |Y| = {float(np.max(np.abs(big.Y))):.3g} overflow")):
        estimate_sobol(big, SubsetSpec((0,)), build_kernel(2), 0.2, m.input_model)
    if scale > 1e150:  # at 1e150 the point estimate itself is finite
        with pytest.raises(DegenerateOutputError, match="overflow"):
            estimate_t(big, SubsetSpec((0,)), build_kernel(2), 0.2, m.input_model)


def test_outputs_below_the_overflow_scale_keep_a_scale_free_index():
    m = linear_model(3)
    fs = m.draw(500, seed=0)
    unit = estimate_sobol(fs, SubsetSpec((0,)), build_kernel(2), 0.2, m.input_model)
    big = estimate_sobol(FullSample(V=fs.V, Y=fs.Y * 1e70), SubsetSpec((0,)), build_kernel(2), 0.2, m.input_model)
    assert big.sobol == pytest.approx(unit.sobol, rel=1e-12)
    assert big.var_sobol == pytest.approx(unit.var_sobol, rel=1e-10) and big.var_sobol > 0.0


def test_a_bandwidth_curve_whose_sums_overflow_is_refused():
    m = linear_model(3)
    fs = m.draw(1000, seed=0)
    with pytest.raises(DegenerateOutputError, match=r"outputs up to \|Y\| = .*e\+155 overflow"):
        bandwidth_curve(FullSample(V=fs.V, Y=fs.Y * 1e155), SubsetSpec((0,)), build_kernel(2), m.input_model)


def test_variance_t_scaling():
    m = linear_model(2)
    fs = m.draw(500, seed=7)
    v1 = estimate_sobol(fs, SubsetSpec((0,)), build_kernel(1), 0.25, m.input_model).var_t
    v2 = estimate_sobol(FullSample(V=fs.V, Y=2.0 * fs.Y), SubsetSpec((0,)), build_kernel(1), 0.25, m.input_model).var_t
    assert abs(v2 - 16.0 * v1) <= 1e-10 * v1, f"doubling Y must scale 4*Var(Yg1) by 16: {v2} vs {16 * v1}"


def test_variance_t_linear_p2_oracle():
    # Y = V1 + V2, mask {0}: g1 = x + 1/2.  Hand integration of uniform
    # moments gives tau^2 = E[(Yg1)^2] - E[Yg1]^2 = 577/360 - (13/12)^2
    # = 103/240, so 4 tau^2 = 103/60.
    m = linear_model(2)
    fs = m.draw(10_000, seed=12)
    value = estimate_sobol(fs, SubsetSpec((0,)), build_kernel(1), 0.3, m.input_model).var_t
    truth = 103.0 / 60.0
    assert abs(value - truth) <= 0.10 * truth, f"plug-in 4*tau^2 {value} not within 10% of {truth}"


def test_variance_sobol_linear_p3_oracle():
    # Linear p=3, mask {1}: hand integration of the covariance matrix of
    # (2Yg1, Y, Y^2) and the gradient (1/v)(1, 2m(S-1), -S) gives
    # sigma^2 = (0.827778 - 0.044444 + 0.011111)/0.0625 = 12.7111.
    m = linear_model(3)
    fs = m.draw(20_000, seed=31)
    g1_true = fs.V[:, 1] + 1.0  # E[Y | V2 = x] = x + 1
    value = _sobol_variance(fs.Y, g1_true)
    truth = 12.7111
    assert abs(value - truth) <= 0.10 * truth, f"sigma^2 plug-in {value} not within 10% of {truth}"


def test_variance_sobol_reduces_to_first_block_when_independent():
    # Y depends only on V2; mask {0} has S ~ 0, so blocks 2 and 3 vanish
    rng = np.random.default_rng(21)
    v = rng.random((20_000, 2))
    y = np.sin(6.0 * v[:, 1]) + 0.3 * rng.normal(size=20_000)
    fs = FullSample(V=v, Y=y)
    g1 = _g1_loo(fs, SubsetSpec((0,)), build_kernel(1), 0.3, UNIT2)
    full = _sobol_variance(y, g1)
    yg = y * g1
    mm, vv = y.mean(), y.var()
    block1 = 4.0 * (yg.var() - 2.0 * np.mean((yg - yg.mean()) * (y - mm)) * mm + mm * mm * vv) / vv**2
    assert abs(full - block1) <= 0.05 * abs(block1), f"independent case: {full} vs first block {block1}"


def test_variance_sobol_relabeling_invariance():
    m = curved_model()
    fs = m.draw(300, seed=6)
    g1 = _g1_loo(fs, SubsetSpec((0,)), build_kernel(1), 0.3, m.input_model)
    base = _sobol_variance(fs.Y, g1)
    perm = np.random.default_rng(0).permutation(300)
    permuted = _sobol_variance(fs.Y[perm], g1[perm])
    assert abs(base - permuted) <= 1e-10 * base, f"row relabeling changed sigma^2: {base} vs {permuted}"


def test_variance_sobol_degenerate_output():
    # the sweep's joint covariance has no rule for a constant output either
    fs = FullSample(V=np.array([[0.1], [0.5], [0.9]]), Y=np.full(3, 2.0))
    with pytest.raises(DegenerateOutputError):
        estimate_first_order_all(fs, build_kernel(1), 0.2, UNIT1)


def _three_block_variance(m, v, s, var_yg, cov_yg_y, cov_yg_y2, cov_y_y2, var_y2):
    """Closed form of the delta-method variance of S = (E[Y g1] - E[Y]^2) / Var(Y).

    m = E[Y], v = Var(Y), s the index; the rest are the (co)variances of
    Y g1, Y and Y^2 that their names spell out.
    """
    block1 = 4.0 * (var_yg - 2.0 * cov_yg_y * m + m * m * v)
    block2 = 4.0 * s * (2.0 * cov_yg_y * m - cov_yg_y2 - 2.0 * m * m * v + m * cov_y_y2)
    block3 = s * s * (4.0 * m * m * v - 4.0 * m * cov_y_y2 + var_y2)
    return (block1 + block2 + block3) / (v * v)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=80),
    mean=st.floats(min_value=-5.0, max_value=5.0).filter(lambda x: abs(x) >= 0.1),
    coupling=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ratio_covariance_matches_three_block_form(n, mean, coupling, seed):
    rng = np.random.default_rng(seed)
    y = mean + rng.normal(size=n)
    g1s = coupling * y + rng.normal(size=(3, n))
    m, v = float(np.mean(y)), float(np.var(y))
    singles = []
    for g1 in g1s:
        yg = y * g1
        s = (float(np.mean(yg)) - m * m) / v
        gamma = _empirical_covariance(np.stack([2.0 * yg, y, y * y]))
        rule = float(_ratio_covariance(gamma, s, m, v)[0, 0])
        cov = np.cov(np.stack([yg, y, y * y]), bias=True)
        oracle = _three_block_variance(m, v, s, cov[0, 0], cov[0, 1], cov[0, 2], cov[1, 2], cov[2, 2])
        # relative to the rounding scale |J|' |Gamma| |J| of the quadratic form:
        # at n = 4 with a nearly constant Y (S ~ -500) both forms cancel 5 digits
        jac = np.abs(np.array([1.0, 2.0 * m * (s - 1.0), -s]) / v)
        assert abs(rule - oracle) <= 1e-12 * float(jac @ np.abs(gamma) @ jac), (rule, oracle)
        singles.append((rule, s))
    # q = 3: the joint rule's diagonal is the three single-ratio rules
    sobol = np.array([s for _, s in singles])
    joint = _ratio_covariance(_empirical_covariance(np.vstack([2.0 * y * g1s, y, y * y])), sobol, m, v)
    assert joint.shape == (3, 3)
    for i, (rule, _) in enumerate(singles):
        assert abs(joint[i, i] - rule) <= 1e-13 * abs(rule), (i, joint[i, i], rule)


# ---------------------------------------------------------------------------
# estimate_sobol / result plumbing


def test_estimate_sobol_result_fields():
    m = linear_model(3)
    fs = m.draw(1500, seed=13)
    res = estimate_sobol(fs, SubsetSpec((1,)), build_kernel(1), 0.2, m.input_model, ci_level=0.9)
    assert res.n_used == 1500 and res.h_used == 0.2
    assert res.ci[0] <= res.sobol <= res.ci[1], f"CI {res.ci} should bracket the estimate {res.sobol}"
    wide = estimate_sobol(fs, SubsetSpec((1,)), build_kernel(1), 0.2, m.input_model, ci_level=0.99)
    assert wide.ci[1] - wide.ci[0] > res.ci[1] - res.ci[0], "0.99 interval should be wider than 0.90"
    payload = res.to_json()
    assert payload["sobol"] == res.sobol and payload["ci_level"] == 0.9


def test_estimate_sobol_rejects_bad_level():
    m = linear_model(2)
    fs = m.draw(50, seed=1)
    with pytest.raises(MirrorSobolError):
        estimate_sobol(fs, SubsetSpec((0,)), build_kernel(1), 0.2, m.input_model, ci_level=1.0)


def test_estimate_sobol_degenerate_output():
    v = np.random.default_rng(5).random((40, 1))
    fs = FullSample(V=v, Y=np.full(40, 3.0))
    with pytest.raises(DegenerateOutputError):
        estimate_sobol(fs, SubsetSpec((0,)), build_kernel(1), 0.2, UNIT1)


def test_total_sobol_linear():
    m = linear_model(3)
    fs = m.draw(4000, seed=17)
    res = estimate_total_sobol(fs, SubsetSpec((0, 1)), build_kernel(1), 0.15, m.input_model)
    # total effect of {0,1} = 1 - S({2}) = 2/3 for the additive model
    assert abs(res.sobol - 2.0 / 3.0) < 0.1, f"total index {res.sobol} far from 2/3"
    # exactly the complement's estimate, reflected; one kernel serves complements of size 1 and 2
    kern = build_kernel(1)
    for mask, complement in (((0, 1), (2,)), ((0,), (1, 2))):
        total = estimate_total_sobol(fs, SubsetSpec(mask), kern, 0.15, m.input_model, ci_level=0.9)
        comp = estimate_sobol(fs, SubsetSpec(complement), kern, 0.15, m.input_model, ci_level=0.9)
        assert total == dataclasses.replace(comp, sobol=1.0 - comp.sobol, ci=(1.0 - comp.ci[1], 1.0 - comp.ci[0]))
    with pytest.raises(MirrorSobolError):
        estimate_total_sobol(fs, SubsetSpec((0, 1, 2)), build_kernel(2), 0.15, m.input_model)
    with pytest.raises(MirrorSobolError):
        estimate_total_sobol(fs, SubsetSpec((0,)), build_kernel(1), 0.15, lambda x: np.ones(len(x)))


def test_density_estimate_variant_matches_exact_callable():
    m = linear_model(2)
    fs = m.draw(150, seed=19)
    spec = SubsetSpec((0,))
    k = build_kernel(1)
    dom = m.input_model.domain
    t_model = estimate_t(fs, spec, k, 0.3, m.input_model)
    t_callable = estimate_t(fs, spec, k, 0.3, lambda x: np.ones(x.shape[0]), domain=dom)
    assert abs(t_model - t_callable) <= 1e-13 * abs(t_model), f"{t_model} vs {t_callable}"
    # a DensityEstimate goes in as f_x directly, bit-equal to its eval_rows
    f_hat = mirror_kde(m.draw(400, seed=20).V[:, :1], build_kernel(2), eta=0.5, domain=dom.subdomain((0,)))
    t_plug = estimate_t(fs, spec, k, 0.3, f_hat, domain=dom)
    assert t_plug == estimate_t(fs, spec, k, 0.3, f_hat.eval_rows, domain=dom)
    assert estimate_sobol(fs, spec, k, 0.3, f_hat, domain=dom) == estimate_sobol(
        fs, spec, k, 0.3, f_hat.eval_rows, domain=dom
    )


# ---------------------------------------------------------------------------
# vector of first-order estimates


def test_first_order_all_p1_reduces_to_estimate_sobol():
    # p = 1 and three multi-input models: every axis of the sweep is estimate_sobol on that axis
    k = build_kernel(1)
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
        estimate_first_order_all(fs, build_kernel(1), 0.2, m.input_model, ci_level=level)


def test_first_order_all_linear_symmetric():
    m = linear_model(3)
    fs = m.draw(5000, seed=29)
    results, sigma = estimate_first_order_all(fs, build_kernel(2), 0.12, m.input_model)
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


def test_constructors_copy_the_callers_arrays():
    v, y, lo, hi, c = np.full((4, 2), 0.5), np.arange(4.0), np.zeros(2), np.ones(2), np.array([8.0, -24.0])
    fs, box, kernel = FullSample(V=v, Y=y), Domain(lo, hi), KernelD(c)
    for own in (v, y, lo, hi, c):
        own[0] = 7.0  # the caller's arrays stay writable
    for frozen, before in ((fs.V, 0.5), (fs.Y, 0.0), (box.lower, 0.0), (box.upper, 1.0), (kernel.coeffs, 8.0)):
        assert not frozen.flags.writeable
        assert frozen.flat[0] == before


# ---------------------------------------------------------------------------
# validation errors


def test_insufficient_sample():
    with pytest.raises(InsufficientSampleError):
        FullSample(V=np.array([[0.5]]), Y=np.array([1.0]))


def test_no_second_point_in_any_window_is_an_insufficient_sample():
    # h = 1e-160 on a box this thin: every window holds its anchor alone, so
    # the grid sums every row to 0.0 and the index would read 0 with an
    # interval of width 1e-17
    im = InputModel((Uniform(0.0, 1e-149), Uniform(0.0, 3.16e-160), Uniform(0.0, 1e9)))
    fs = FullSample(V=sample(im, 200, seed=0), Y=np.random.default_rng(0).normal(size=200))
    with pytest.raises(InsufficientSampleError, match=r"h=1e-160.*raise h or n"):
        estimate_sobol(fs, SubsetSpec((0, 1, 2)), build_kernel(2), 1e-160, im)


def test_empty_windows_under_range_moments_are_an_insufficient_sample():
    # on the anti-diagonal (t, 1/2 - t) every window [t, t + 1/2] x [1/2 - t, 1 - t]
    # holds its anchor alone, yet at h = 1 the expected 75 pairs per anchor
    # give h to range moments, whose sums are rounding residue, not 0.0
    t = np.random.default_rng(0).uniform(0.0, 0.5, size=300)
    v = np.column_stack([t, 0.5 - t])
    fs = FullSample(V=v, Y=product_model().g(v))
    assert _grid_count(np.zeros(299, dtype=bool), np.array([0.5]), UNIT2.domain) == 0  # window side h/2
    for order in (0, 1, 2, 4):
        with pytest.raises(InsufficientSampleError, match=r"h=1.0; raise h or n"):
            estimate_sobol(fs, SubsetSpec((0, 1)), build_kernel(order), 1.0, UNIT2)


def test_estimate_t_sums_zero_pairs_to_zero_where_the_index_refuses_the_sample():
    # no window of this sample at h = 0.1 holds a second point: estimate_t is
    # the exact U-statistic over zero pairs, as the double sum gives it, and
    # the index refuses the sample
    model = product_model()
    fs, spec, kernel = model.draw(5, 0), SubsetSpec((0, 1)), build_kernel(2)
    assert estimate_t(fs, spec, kernel, 0.1, model.input_model) == 0.0
    assert brute_force_t(fs, spec, kernel, 0.1, model.input_model) == 0.0
    with pytest.raises(InsufficientSampleError, match=r"no window holds a second sample point at h=0.1"):
        estimate_sobol(fs, spec, kernel, 0.1, model.input_model)


def test_bandwidth_too_large():
    m = linear_model(2)
    fs = m.draw(30, seed=3)
    with pytest.raises(BandwidthTooLargeError):
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1), 1.5, m.input_model)


def test_singular_density_reports_indices():
    fs = FullSample(V=np.array([[0.1], [0.4], [0.8]]), Y=np.array([1.0, 2.0, 3.0]))

    def holey(x):
        out = np.ones(x.shape[0])
        out[x[:, 0] > 0.5] = 0.0
        return out

    with pytest.raises(SingularDensityError) as exc:
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1), 0.3, holey, domain=Domain((0.0,), (1.0,)))
    assert 2 in exc.value.indices, f"offending row index missing from {exc.value.indices}"


def test_infinite_density_is_rejected_with_its_rows():
    fs = FullSample(V=np.array([[0.1], [0.4], [0.8]]), Y=np.array([1.0, 2.0, 3.0]))

    def spiked(x):
        out = np.ones(x.shape[0])
        out[1] = np.inf
        return out

    with pytest.raises(SingularDensityError, match=r"rows \[1\] is not finite") as exc:
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1), 0.3, spiked, domain=Domain((0.0,), (1.0,)))
    assert exc.value.indices == (1,)


def test_domain_violation():
    fs = FullSample(V=np.array([[0.2], [1.4]]), Y=np.array([1.0, 2.0]))
    with pytest.raises(DomainViolationError):
        estimate_t(fs, SubsetSpec((0,)), build_kernel(1), 0.3, UNIT1)


def test_dimension_mismatches():
    m = linear_model(2)
    fs = m.draw(20, seed=2)
    with pytest.raises(MirrorSobolError):
        estimate_t(fs, SubsetSpec((5,)), build_kernel(1), 0.2, m.input_model)  # mask out of range


# ---------------------------------------------------------------------------
# distributional behaviour


def test_clt_normality_linear():
    # Linear g1 is degree 1, so a k=1 kernel has no smoothing bias at any h
    # and (T - t) * sqrt(n / (4 tau^2)) should look standard normal.
    # tau^2 = 103/240 by hand integration (see test_variance_t_linear_p2_oracle).
    m = linear_model(2)
    spec = SubsetSpec((0,))
    k = build_kernel(1)
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
    kernel = build_kernel(order)
    t = estimate_t(fs, SubsetSpec((0,)), kernel, h, UNIT1)
    t_ref = brute_force_t(fs, SubsetSpec((0,)), kernel, h, UNIT1)
    # absolute floor: the fast path reconstructs kernel values (scale ~ 1/h)
    # from prefix sums, so exact zeros can come back as O(eps/h) leakage
    tol = 1e-11 * abs(t_ref) + 1e-10 * (1.0 + float(np.max(np.abs(y))) ** 2 / h)
    assert abs(t - t_ref) <= tol, f"{t} vs {t_ref} (n={n}, k={order}, h={h})"
