"""Tests for domains and the mirror transform.

Oracle values are direct geometry: signs follow the closed lower half of
each axis, and the mirror condition is h <= min axis width.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsobol.domain import Domain, check_mirror_condition, sign_matrix
from mirrorsobol.errors import MirrorSobolError
from mirrorsobol.estimator import SubsetSpec, estimate_t
from mirrorsobol.inputs import subset_density_fn
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import ExperimentPlan, limiting_variances, product_model

UNIT = Domain(np.array([0.0]), np.array([1.0]))
UNIT2 = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def _signs(dom, x):
    """Signs of A_x at one point, through a one-row sign_matrix call."""
    return sign_matrix(dom, np.array([x], dtype=float))[0]


def test_sigma_lower_half_is_plus_one():
    assert _signs(UNIT, [0.25])[0] == 1.0


def test_sigma_midpoint_is_plus_one():
    # the flip happens strictly above the midpoint
    assert _signs(UNIT, [0.5])[0] == 1.0
    assert _signs(UNIT, [0.5 + 1e-12])[0] == -1.0


def test_sigma_upper_boundary_is_minus_one():
    assert _signs(UNIT, [1.0])[0] == -1.0


def test_sigma_componentwise():
    np.testing.assert_array_equal(_signs(UNIT2, [0.1, 0.9]), [1.0, -1.0])


def test_sigma_shifted_domain():
    dom = Domain(np.array([2.0]), np.array([6.0]))  # midpoint 4
    assert _signs(dom, [3.9])[0] == 1.0
    assert _signs(dom, [4.1])[0] == -1.0


def test_sign_matrix_rows_match_one_row_calls():
    rows = np.array([[0.1, 0.9], [0.6, 0.2], [0.5, 0.5], [1.0, 0.0]])
    got = sign_matrix(UNIT2, rows)
    np.testing.assert_array_equal(got, [[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(got, np.array([_signs(UNIT2, r) for r in rows]))


def test_mirror_condition_examples():
    # unit box: h/2 = 1/2 fits exactly; anything larger does not
    assert check_mirror_condition(UNIT2, 1.0)
    assert not check_mirror_condition(UNIT2, 1.01)
    # narrow first axis 0.2 wide: h = 0.3 gives a window 0.15 > 0.1
    narrow = Domain(np.array([0.0, 0.0]), np.array([0.2, 1.0]))
    assert not check_mirror_condition(narrow, 0.3)
    assert check_mirror_condition(narrow, 0.2)


def test_mirror_condition_invalid_h():
    with pytest.raises(MirrorSobolError):
        check_mirror_condition(UNIT, 0.0)
    with pytest.raises(MirrorSobolError):
        check_mirror_condition(UNIT, -0.1)


def test_domain_validation():
    with pytest.raises(MirrorSobolError):
        Domain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(MirrorSobolError):
        Domain(np.array([0.0]), np.array([np.inf]))


def test_domain_subdomain_and_contains():
    dom = Domain(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 5.0]))
    sub = dom.subdomain([2, 0])
    np.testing.assert_array_equal(sub.lower, [2.0, 0.0])
    np.testing.assert_array_equal(sub.upper, [5.0, 1.0])
    assert dom.contains([0.5, 0.0, 3.0])
    assert not dom.contains([0.5, 0.0, 5.5])


_PRODUCT = product_model()  # p = 2
_FS = _PRODUCT.draw(50, seed=0)
# every library entry point that takes a group of 0-based axes
_MASK_ENTRY_POINTS = {
    "SubsetSpec": SubsetSpec,
    "Domain.subdomain": _PRODUCT.input_model.domain.subdomain,
    "subset_density_fn": lambda mask: subset_density_fn(_PRODUCT.input_model, mask),
    "AnalyticModel.t_of": _PRODUCT.t_of,
    "AnalyticModel.sobol_of": _PRODUCT.sobol_of,
    "limiting_variances": lambda mask: limiting_variances(_PRODUCT, mask),
    "ExperimentPlan": lambda mask: ExperimentPlan(
        model=_PRODUCT, mask=mask, n_grid=(50,), h_rule=lambda n: 0.5, kernel_order=1, seeds=1, estimators=("kernel",), threads=1
    ),
    "estimate_t": lambda mask: estimate_t(_FS, SubsetSpec(mask), build_kernel(1), 0.5, _PRODUCT.input_model),
    "estimate_t, bare density": lambda mask: estimate_t(
        _FS, SubsetSpec(mask), build_kernel(1), 0.5, lambda x: np.ones(len(x)), domain=_PRODUCT.input_model.domain
    ),
}


@pytest.mark.parametrize(
    "mask, text",
    [
        pytest.param((), "mask () is empty", id="empty"),
        pytest.param((0, 0), "mask (0, 0) repeats an axis", id="repeated"),
        pytest.param((1, 0, 1), "mask (1, 0, 1) repeats an axis", id="repeated-apart"),
        pytest.param((-1,), "mask (-1,) is out of range for p = 2 inputs (axes are 0-based)", id="negative"),
        pytest.param((0, 2), "mask (0, 2) is out of range for p = 2 inputs (axes are 0-based)", id="past-p"),
        # int() would read these as axes (0,), (0, 1) and (1, 0)
        pytest.param((0.7,), "mask (0.7,) has an axis that is not an integer", id="fraction"),
        pytest.param((0.5, 1.2), "mask (0.5, 1.2) has an axis that is not an integer", id="fractions"),
        pytest.param((True, False), "mask (True, False) has an axis that is not an integer", id="bools"),
    ],
)
@pytest.mark.parametrize("entry", list(_MASK_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_mask_in_the_same_words(entry, mask, text):
    # a spec knows no input count: it leaves an axis past p to the estimator,
    # and refuses the other masks, before the estimator reads them, naming no p
    if entry == "SubsetSpec" and mask == (0, 2):
        assert SubsetSpec(mask).mask == mask
        return
    if entry.startswith(("SubsetSpec", "estimate_t")) and mask != (0, 2):
        text = text.replace(" for p = 2 inputs", "")
    with pytest.raises(MirrorSobolError) as exc:
        _MASK_ENTRY_POINTS[entry](mask)
    assert type(exc.value) is MirrorSobolError and str(exc.value) == text


def test_sigma_has_all_sign_patterns_in_2d():
    # the sign field is piecewise constant with 2^d distinct values
    pts = [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)]
    seen = {tuple(row) for row in sign_matrix(UNIT2, np.array(pts))}
    assert len(seen) == 4, f"expected 4 sign patterns, saw {seen}"


@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    h_frac=st.floats(0.01, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_mirrored_window_stays_inside(d, seed, h_frac):
    # for any admissible h, x + h * A_x(u) lies in the domain for u in [0, 1/2]^d
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-2, 0, size=d)
    hi = lo + rng.uniform(0.5, 3.0, size=d)
    dom = Domain(lo, hi)
    h = h_frac * np.min(hi - lo)
    assert check_mirror_condition(dom, h)
    x = rng.uniform(lo, hi)
    u = rng.uniform(0, 0.5, size=d)
    moved = x + h * _signs(dom, x) * u
    assert dom.contains(moved), f"{moved} escaped {lo}..{hi} (h={h})"
