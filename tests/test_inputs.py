"""Tests for input marginals, subset densities, and sampling.

Oracles: hand values of the beta density (Beta(2,2) at 1/2 is
(1/2)(1/2)/B(2,2) = 1.5 with B(2,2) = 1/6), the beta CDF
F(x) = 3x^2 - 2x^3 for Beta(2,2), and CLT bounds on empirical means.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorsobol.errors import MirrorSobolError
from mirrorsobol.inputs import (
    Beta,
    InputModel,
    Uniform,
    input_model_from_json,
    sample,
    subset_density_fn,
)

UNIFORM3 = InputModel((Uniform(0, 1), Uniform(0, 1), Uniform(0, 1)))


def density_at(model, mask, x):
    """Subset density at one point, through a one-row subset_density_fn call."""
    return float(subset_density_fn(model, mask)(np.array([x], dtype=float))[0])


def test_uniform_density_is_one_on_unit_interval():
    assert density_at(UNIFORM3, [0, 1, 2], [0.2, 0.5, 0.9]) == 1.0


def test_uniform_density_scales_with_width():
    model = InputModel((Uniform(0, 2),))
    assert density_at(model, [0], [1.0]) == 0.5


def test_beta22_density_hand_value():
    model = InputModel((Beta(2, 2),))
    assert abs(density_at(model, [0], [0.5]) - 1.5) < 1e-12


def test_out_of_support_density_is_zero():
    assert density_at(UNIFORM3, [0], [1.5]) == 0.0
    assert density_at(InputModel((Beta(2, 2),)), [0], [-0.1]) == 0.0


def test_density_subset_mask_validation():
    for mask in ([], [0, 0], [3]):
        with pytest.raises(MirrorSobolError):
            subset_density_fn(UNIFORM3, mask)
    with pytest.raises(MirrorSobolError):
        density_at(UNIFORM3, [0, 1], [0.1])


def test_subset_density_fn_matches_scalar_version():
    # the whole-rows call equals one-row calls, and the hand product of pdfs:
    # Beta(2, 2) is 6 x (1 - x), Uniform(-1, 1) is 1/2
    model = InputModel((Uniform(0, 2), Beta(2, 2), Uniform(-1, 1)))
    f = subset_density_fn(model, [1, 2])
    rows = np.array([[0.5, 0.0], [0.25, 0.5], [0.9, -0.5]])
    got = f(rows)
    np.testing.assert_array_equal(got, [density_at(model, [1, 2], r) for r in rows])
    np.testing.assert_allclose(got, [0.75, 0.5625, 0.27], rtol=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(1.0, 9.99), st.integers(-300, 300), st.floats(0.0, 1.0)), min_size=1, max_size=5),
)
# 1e149 * 3.16e159 overflows before the factor 1e-9; the joint density is 3.16e299
@example([(1.0, -149, 0.5), (3.16, -160, 0.5), (1.0, 9, 0.5)])
def test_subset_density_fn_product_against_long_double(axes):
    # Uniform(0, c 10^e) at the fraction u of its width: the float64 factors
    # multiplied in np.longdouble, whose wider exponent holds every partial
    # product; the density is that product where it is a normal float
    assert np.finfo(np.longdouble).maxexp > np.finfo(float).maxexp
    model = InputModel(tuple(Uniform(0.0, c * 10.0**e) for c, e, _ in axes))
    row = np.array([[u * m.b for (_, _, u), m in zip(axes, model.marginals)]])
    got = float(subset_density_fn(model, range(model.p))(row)[0])
    want = np.prod([np.longdouble(m.pdf(x)) for m, x in zip(model.marginals, row[0])])
    if want > np.finfo(float).max:
        assert got == np.inf
    elif want < np.finfo(float).tiny:
        assert got < np.finfo(float).tiny
    else:
        assert abs(np.longdouble(got) - want) <= 1e-12 * want, f"{got} vs {want}"


def test_subset_density_fn_keeps_the_left_to_right_product():
    # where every partial product is a normal float the density is the plain
    # product, bit for bit: every builtin model, and beta marginals
    from mirrorsobol.testbed import builtin_models

    models = [m.input_model for m in builtin_models()] + [InputModel((Beta(2, 2), Beta(0.5, 3.0), Uniform(-1, 3)))]
    for model in models:
        v = sample(model, 500, seed=4)
        for d in range(1, model.p + 1):
            mask = list(range(model.p))[-d:]
            plain = np.ones(v.shape[0])
            for i in mask:
                plain = plain * model.marginals[i].pdf(v[:, i])
            assert np.array_equal(subset_density_fn(model, mask)(v[:, mask]), plain)


def test_subset_density_fn_rejects_bad_shape():
    f = subset_density_fn(UNIFORM3, [0, 1])
    with pytest.raises(MirrorSobolError):
        f(np.zeros((4, 3)))


def test_domain_built_from_supports():
    model = InputModel((Uniform(-2, 3), Beta(2, 2)))
    np.testing.assert_array_equal(model.domain.lower, [-2.0, 0.0])
    np.testing.assert_array_equal(model.domain.upper, [3.0, 1.0])


def test_sample_deterministic_in_seed_and_stream():
    a = sample(UNIFORM3, 50, seed=123)
    b = sample(UNIFORM3, 50, seed=123)
    np.testing.assert_array_equal(a, b)
    c = sample(UNIFORM3, 50, seed=124)
    assert not np.array_equal(a, c)
    d = sample(UNIFORM3, 50, seed=123, stream=1)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize(
    "n, seed, stream, field",
    [
        (True, 0, 0, "sample size"),
        (2.0, 0, 0, "sample size"),
        (5, 2.7, 0, "seed"),
        (5, True, 0, "seed"),
        (5, -1, 0, "seed"),
        (5, 0, 1.5, "stream"),
        (5, 0, -1, "stream"),
    ],
)
def test_sample_refuses_a_fraction_a_bool_or_a_negative_seed(n, seed, stream, field):
    # none of them is truncated, read as 1, or left to SeedSequence to refuse
    with pytest.raises(MirrorSobolError, match=field) as exc:
        sample(UNIFORM3, n, seed, stream=stream)
    assert type(exc.value) is MirrorSobolError
    np.testing.assert_array_equal(sample(UNIFORM3, np.int64(5), np.uint32(2), stream=np.int8(1)), sample(UNIFORM3, 5, 2, stream=1))


def test_sample_respects_domain():
    model = InputModel((Uniform(-1, 1), Beta(2, 3)))
    v = sample(model, 2000, seed=5)
    assert v.shape == (2000, 2)
    assert np.all(model.domain.contains(v))


def test_uniform_sample_mean_clt():
    n = 100_000
    v = sample(InputModel((Uniform(0, 1),)), n, seed=2024)
    # 4 standard errors of the mean of U(0,1)
    assert abs(v.mean() - 0.5) < 4.0 * np.sqrt(1.0 / (12 * n))


def test_beta_sample_mean_clt():
    n = 100_000
    v = sample(InputModel((Beta(2, 2),)), n, seed=77)
    # Var Beta(2,2) = 1/20
    assert abs(v.mean() - 0.5) < 5.0 * np.sqrt(0.05 / n)


def test_beta_transform_inverts_cdf():
    # Beta(2,2) CDF is F(x) = 3x^2 - 2x^3
    marg = Beta(2, 2)
    for x in [0.1, 0.3, 0.5, 0.8]:
        u = 3 * x**2 - 2 * x**3
        assert abs(marg.transform(u) - x) < 1e-10


def test_sampler_density_consistency():
    # points drawn by the model's own sampler always carry positive density
    model = InputModel((Beta(2, 2), Uniform(0, 1)))
    v = sample(model, 100_000, seed=9)
    f = subset_density_fn(model, [0, 1])(v)
    assert np.all(f > 0)
    # importance identity: mean of f/f is exactly 1
    assert abs(np.mean(f / f) - 1.0) < 1e-12


def test_full_mask_density_integrates_to_one_uniform():
    # exact for uniform marginals: density is 1/volume on the box
    model = InputModel((Uniform(0, 2), Uniform(-1, 1)))
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, 2, 40_000), rng.uniform(-1, 1, 40_000)])
    vol = 4.0
    integral = vol * subset_density_fn(model, [0, 1])(pts).mean()
    assert abs(integral - 1.0) < 1e-6


def test_input_model_rejects_foreign_marginal():
    # the sampler and the pilot quadrature know only Uniform and Beta; any
    # other known density goes in as a vectorized f_x with a domain
    class Triangular:
        support = (0.0, 1.0)

        def pdf(self, x):
            return 2.0 * np.asarray(x, dtype=float)

    with pytest.raises(MirrorSobolError, match="marginal 1 is a Triangular"):
        InputModel((Uniform(0, 1), Triangular()))


def test_json_roundtrip():
    again = input_model_from_json({"marginals": [{"uniform": [0, 2]}, {"beta": [1.2, 1.4]}]})
    assert again.marginals[0] == Uniform(0, 2)
    assert again.marginals[1] == Beta(1.2, 1.4)
    with pytest.raises(MirrorSobolError):
        input_model_from_json({"marginals": [{"gamma": [1, 2]}]})


def test_input_model_validation():
    with pytest.raises(MirrorSobolError):
        InputModel(())
    with pytest.raises(MirrorSobolError):
        Uniform(1, 1)
    with pytest.raises(MirrorSobolError):
        Beta(0, 1)
