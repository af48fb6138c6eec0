"""Tests for the analytic models, oracles, and study drivers."""

import math
import os
import pickle
import signal
import time

import numpy as np
import pytest

from mirrorsobol import testbed
from mirrorsobol.baselines import nn_estimate, pick_freeze_estimate, rank_estimate
from mirrorsobol.cli import ConfigError, main
from mirrorsobol.domain import Domain
from mirrorsobol.errors import DomainViolationError, MirrorSobolError, PilotTargetError, SingularDensityError
from mirrorsobol.estimator import FullSample, SubsetSpec, estimate_sobol
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import (
    ExperimentPlan,
    brute_force_t,
    builtin_models,
    convergence_study,
    curved_model,
    fit_loglog_slope,
    ishigami_model,
    linear_model,
    model_by_name,
    weighted_linear_model,
    product_model,
)


def test_builtin_models_present():
    names = [m.name for m in builtin_models()]
    assert names == ["linear3", "wlinear3", "ishigami", "product", "curved"], names
    assert model_by_name("ishigami").p == 3
    with pytest.raises(MirrorSobolError):
        model_by_name("nope")


def test_true_sobol_sums_and_bounds():
    for model in builtin_models():
        for mask in model.masks():
            s = model.sobol_of(mask)
            assert -1e-12 <= s <= 1.0 + 1e-12, f"{model.name} mask {mask}: S = {s}"
        assert abs(model.sobol_of(tuple(range(model.p))) - 1.0) < 1e-12, f"{model.name}: full-mask index must be 1"


# (t, S) of every builtin mask, written out from the hand integrals; the
# Hoeffding terms must reproduce t exactly and S to one ulp
_CLOSED_FORMS = {
    "linear3": {
        (0,): (1 / 12 + 9 / 4, 1 / 3),
        (1,): (1 / 12 + 9 / 4, 1 / 3),
        (2,): (1 / 12 + 9 / 4, 1 / 3),
        (0, 1): (2 / 12 + 9 / 4, 2 / 3),
        (0, 2): (2 / 12 + 9 / 4, 2 / 3),
        (1, 2): (2 / 12 + 9 / 4, 2 / 3),
        (0, 1, 2): (5 / 2, 1.0),
    },
    "wlinear3": {
        (0,): (4 / 12 + 4, 4 / 6),
        (1,): (1 / 12 + 4, 1 / 6),
        (2,): (1 / 12 + 4, 1 / 6),
        (0, 1): (5 / 12 + 4, 5 / 6),
        (0, 2): (5 / 12 + 4, 5 / 6),
        (1, 2): (2 / 12 + 4, 2 / 6),
        (0, 1, 2): (9 / 2, 1.0),
    },
    "ishigami": {
        (0,): (16.59588802389416, 0.31390519114781146),
        (1,): (18.375, 0.4424111447900409),
        (2,): (12.25, 0.0),
        (0, 1): (22.72088802389416, 0.7563163359378523),
        (0, 2): (19.969587940719254, 0.5575888552099592),
        (1, 2): (18.375, 0.4424111447900409),
        (0, 1, 2): (26.094587940719254, 1.0),
    },
    "product": {
        (0,): (1 / 12, 3 / 7),
        (1,): (1 / 12, 3 / 7),
        (0, 1): (1 / 9, 1.0),
    },
    "curved": {
        (0,): (9 / 14, 27 / 55),
        (1,): (31 / 48, 28 / 55),
        (0, 1): (61 / 84, 1.0),
    },
}


def test_hoeffding_terms_reproduce_the_closed_forms():
    for model in builtin_models():
        want = _CLOSED_FORMS[model.name]
        assert model.masks() == list(want)
        for mask, (t, s) in want.items():
            assert model.t_of(mask) == t, f"{model.name} {mask}: t {model.t_of(mask)} vs {t}"
            assert abs(model.sobol_of(mask) - s) <= math.ulp(s), f"{model.name} {mask}: S {model.sobol_of(mask)} vs {s}"
        with pytest.raises(MirrorSobolError, match="repeats an axis"):
            model.t_of((0, 0))
        with pytest.raises(MirrorSobolError, match="is out of range"):
            model.sobol_of((model.p,))


def test_linear_models_match_their_hand_formulas_exactly():
    rng = np.random.default_rng(5)
    for p in range(1, 5):
        m = linear_model(p)
        assert (m.name, m.mean_y, m.var_y) == (f"linear{p}", p / 2, p / 12)
        v = rng.random((50, p))
        assert np.array_equal(m.g(v), v.sum(axis=1))
        for mask in m.masks():
            d = len(mask)
            assert m.t_of(mask) == d / 12 + (p / 2) ** 2
            assert m.sobol_of(mask) == d / p
        unit = weighted_linear_model(1.0, p)
        assert (unit.terms, unit.mean_y, unit.var_y) == (m.terms, m.mean_y, m.var_y)
    w = weighted_linear_model(2.0, 3)
    assert w.name == "wlinear3" and w.sobol_of((0,)) == 4 / 6 and w.t_of((0,)) == 4 / 12 + 2.0**2


@pytest.mark.parametrize("model", [linear_model(1), linear_model(3), weighted_linear_model(2.0, 3), linear_model(5)], ids=lambda m: m.name)
def test_linear_model_g_keeps_the_bits_of_the_weighted_row_sum(model):
    # g adds one weighted column at a time; numpy's row sum of fewer than 8
    # columns runs in the same left-to-right order
    w = np.ones(model.p)
    w[0] = 2.0 if model.name.startswith("wlinear") else 1.0
    rng = np.random.default_rng(8)
    for v in (rng.random((4000, model.p)), np.asfortranarray(rng.random((257, model.p))), 1e6 * rng.standard_normal((100, model.p))):
        assert np.array_equal(model.g(v), (v * w).sum(axis=1))


def test_truth_consistency_t_vs_sobol():
    # t - mean^2 = S * var must hold for every closed form
    for model in builtin_models():
        for mask in model.masks():
            lhs = model.t_of(mask) - model.mean_y**2
            rhs = model.sobol_of(mask) * model.var_y
            assert abs(lhs - rhs) < 1e-10, f"{model.name} mask {mask}: {lhs} vs {rhs}"


def test_g1_g2_tower_property_on_the_rule():
    # E[g1(X)] = E[Y], E[g1(X)^2] = t and E[g2(X)] = E[Y^2]: the moments that
    # the walk of `limiting_variances` sums from Y meet the hand-derived truths
    for model in builtin_models():
        mu = model.mean_y
        for mask in model.masks():
            e = testbed._mask_moments(model, mask)
            for name, got, want in (
                ("E[g1]", e["c1"] + mu, mu),
                ("E[g1^2]", e["g1*g1"], model.t_of(mask)),
                ("E[g2]", e["c2"] + 2.0 * mu * e["c1"] + mu * mu, model.var_y + mu * mu),
            ):
                assert abs(got - want) <= 1e-12 * abs(want), f"{model.name} {mask}: {name} {got} vs {want}"


def test_g2_dominates_g1_squared():
    # a positively weighted sum of Y^2 dominates the square of that of Y, at
    # every node, so g2^2 >= g1^2 g2 >= g1^4 and c2 >= c1^2 hold on average
    for model in builtin_models():
        for mask in model.masks():
            e = testbed._mask_moments(model, mask)
            for big, small in (("g2*g2", "g1*g1*g2"), ("g1*g1*g2", "g1*g1*g1*g1"), ("c2", "c1*c1")):
                gap = e[big] - e[small]
                assert gap >= -1e-12 * abs(e[big]), f"{model.name} {mask}: E[{big}] < E[{small}] by {gap}"


def test_truth_against_pick_freeze_at_scale():
    # the PF design only uses g, so it cross-checks every closed-form index
    for model in builtin_models():
        for mask in model.masks():
            pf = testbed._freeze(model, mask, model.draw(1_000_000, 7), model.draw(1_000_000, 7, stream=1).V)
            est = pick_freeze_estimate(pf)
            y, y_pf = pf.Y, pf.Y_pf
            prods = (y - y.mean()) * (y_pf - y_pf.mean())
            se = 3.0 * np.std(prods) / np.sqrt(y.size) / model.var_y
            truth = model.sobol_of(mask)
            assert abs(est - truth) <= max(se, 0.004), (
                f"{model.name} mask {mask}: PF {est} vs truth {truth} (3se = {se})"
            )


def test_ishigami_variance_decomposition():
    m = ishigami_model()
    # classic decomposition: no first-order effect for V3, interaction only via {1,3}
    assert m.sobol_of((2,)) == 0.0
    assert m.sobol_of((0, 1)) == pytest.approx(m.sobol_of((0,)) + m.sobol_of((1,)))
    assert m.sobol_of((0, 2)) > m.sobol_of((0,)), "the (V1, V3) interaction must be positive"


def test_brute_force_guard():
    m = linear_model(2)
    fs = m.draw(8, seed=1)
    with pytest.raises(MirrorSobolError):
        brute_force_t(
            FullSample(V=np.zeros((10_001, 1)) + 0.5, Y=np.ones(10_001)),
            SubsetSpec((0,)),
            build_kernel(0),
            0.2,
            m.input_model,
        )
    with pytest.raises(MirrorSobolError):
        brute_force_t(fs, SubsetSpec((0,)), build_kernel(0), 0.2, lambda x: np.ones(len(x)))


def test_brute_force_rejects_rows_outside_the_box():
    # the mirror signs are defined on the box only; row 3 leaves it on the
    # masked axis, so the oracle names it rather than summing a sign for it
    fs = linear_model(2).draw(6, seed=2)
    v = fs.V.copy()
    v[3, 1] = 1.25
    bad = FullSample(V=v, Y=fs.Y)
    box = Domain(np.zeros(2), np.ones(2))
    with pytest.raises(DomainViolationError, match=r"rows \[3\]"):
        brute_force_t(bad, SubsetSpec((1,)), build_kernel(1), 0.2, lambda x: np.ones(len(x)), domain=box)
    # off the mask the row is never read
    brute_force_t(bad, SubsetSpec((0,)), build_kernel(1), 0.2, lambda x: np.ones(len(x)), domain=box)


def test_plan_validation():
    m = linear_model(2)
    rest = dict(model=m, mask=(0,), h_rule=lambda n: 0.2, kernel_order=2, threads=1)
    with pytest.raises(MirrorSobolError):
        ExperimentPlan(**rest, n_grid=(200, 100), seeds=2, estimators=("kernel",))
    with pytest.raises(MirrorSobolError):
        ExperimentPlan(**rest, n_grid=(100,), seeds=0, estimators=("kernel",))
    with pytest.raises(MirrorSobolError):
        ExperimentPlan(**rest, n_grid=(100,), seeds=100, estimators=("bogus",))


def test_convergence_study_shrinks_rmse():
    m = linear_model(2)
    plan = ExperimentPlan(
        model=m,
        mask=(0,),
        n_grid=(250, 1000, 4000),
        h_rule=lambda n: n**-0.35,
        kernel_order=1,
        seeds=30,
        estimators=("kernel", "pf", "rank"),
        threads=1,
    )
    out = convergence_study(plan)
    rows = out["rows"]
    assert {r["estimator"] for r in rows} == {"kernel_t", "kernel_sobol", "pf", "rank"}
    for est in ("kernel_sobol", "pf", "rank"):
        rmses = [r["rmse"] for r in rows if r["estimator"] == est]
        assert rmses[0] > rmses[-1], f"{est}: RMSE should shrink with n, got {rmses}"
    slope = out["slopes"][("kernel_sobol", "1")]
    assert -0.8 <= slope <= -0.2, f"kernel sobol slope {slope} wildly off sqrt(n)"


def test_convergence_study_threaded_matches_serial():
    m = product_model()
    kwargs = dict(
        model=m,
        mask=(0,),
        n_grid=(300,),
        h_rule=lambda n: 0.25,
        kernel_order=1,
        seeds=8,
        estimators=("kernel",),
    )
    serial = convergence_study(ExperimentPlan(**kwargs, threads=1))
    threaded = convergence_study(ExperimentPlan(**kwargs, threads=4))
    assert serial["rows"] == threaded["rows"], "thread count must not change study results"


def test_convergence_study_threaded_matches_serial_for_every_estimator():
    # each seed draws its streams once and hands them to all four estimators
    kwargs = dict(
        model=linear_model(3),
        mask=(1,),
        n_grid=(120, 240),
        h_rule=lambda n: 0.8 * n**-0.3,
        kernel_order=2,
        seeds=6,
        estimators=("kernel", "pf", "nn", "rank"),
    )
    serial = convergence_study(ExperimentPlan(**kwargs, threads=1))
    threaded = convergence_study(ExperimentPlan(**kwargs, threads=3))
    assert [r["estimator"] for r in serial["rows"][:5]] == ["kernel_t", "kernel_sobol", "pf", "nn_t", "rank"]
    assert serial == threaded, "thread count must not change study results"


@pytest.mark.parametrize(
    "estimators, streams",
    [("kernel,pf,nn,rank", (0, 1)), ("kernel", (0,)), ("kernel,rank", (0,)), ("nn", (0, 1))],
)
def test_a_compare_seed_draws_each_stream_once(estimators, streams, tmp_path, monkeypatch):
    draws = []
    real_sample = testbed.sample

    def counting_sample(model, n, seed, stream=0):
        draws.append((seed, stream))
        return real_sample(model, n, seed, stream=stream)

    # one worker: a forked worker's draws would not reach this list
    monkeypatch.setattr(testbed, "sample", counting_sample)
    argv = ["compare", "--model", "linear3", "--mask", "1", "--n", "150", "--seeds", "5", "--threads", "1"]
    argv += ["--estimators", estimators, "--output", str(tmp_path / "compare.csv")]
    if "kernel" in estimators:
        argv += ["--h", "0.3"]
    assert main(argv) == 0
    assert sorted(draws) == [(seed, stream) for seed in range(5) for stream in streams]


@pytest.mark.parametrize("threads", [0, -5])
def test_plan_rejects_nonpositive_threads(threads):
    with pytest.raises(MirrorSobolError, match="threads"):
        ExperimentPlan(
            model=linear_model(3),
            mask=(0,),
            n_grid=(100,),
            h_rule=lambda n: 0.2,
            kernel_order=2,
            seeds=100,
            estimators=("kernel",),
            threads=threads,
        )


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "error",
    [
        SingularDensityError("density at rows [4, 7] is at or below the floor", indices=(4, 7)),
        PilotTargetError(1, "no pilot target"),
        ConfigError("threads", "a field"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_a_replicate_error_keeps_its_type_and_fields_under_its_seed(monkeypatch, error, threads):
    # seeds 1 and 2 fail; at 2 workers seed 1 fails in the forked worker and
    # comes back by pickle, and seed 2 in the calling process
    real = testbed.estimate_sobol

    def estimate(sample, *args, **kwargs):
        if sample.Y[0] in failing:
            raise pickle.loads(pickle.dumps(error))
        return real(sample, *args, **kwargs)

    model = linear_model(3)
    failing = {model.draw(300, seed).Y[0] for seed in (1, 2)}
    monkeypatch.setattr(testbed, "estimate_sobol", estimate)
    plan = ExperimentPlan(model=model, mask=(0,), n_grid=(300,), h_rule=lambda n: 0.25, kernel_order=2, seeds=3, estimators=("kernel",), threads=threads)
    with pytest.raises(type(error)) as caught:
        convergence_study(plan)
    assert str(caught.value) == f"seed 1, n=300: {error}" and caught.value.args == (str(caught.value),)
    for field in ("axis", "indices", "field"):
        assert getattr(caught.value, field, None) == getattr(error, field, None), field


def test_over_seeds_starts_no_more_workers_than_seeds(monkeypatch):
    forks, real_fork = [], os.fork

    def recording_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    assert testbed._over_seeds(lambda s: s * s, (3, 1, 2), threads=8) == [9, 1, 4]
    assert testbed._over_seeds(lambda s: -s, (5,), threads=8) == [-5]
    assert len(forks) == 2, f"expected 2 worker processes beside the calling process, got {len(forks)}"


def test_over_seeds_runs_seeds_on_the_calling_thread():
    # the caller runs seeds 0 and 2 itself, one forked worker seeds 1 and 3
    ran_in = testbed._over_seeds(lambda s: os.getpid(), range(4), threads=2)
    caller = os.getpid()
    assert ran_in[0] == ran_in[2] == caller, ran_in
    assert ran_in[1] == ran_in[3] != caller, ran_in


@pytest.mark.parametrize("threads", [2, 3])
def test_over_seeds_keeps_seed_order(threads):
    # the later seeds finish first
    seeds = (4, 0, 3, 1, 2)

    def fn(s):
        time.sleep(0.002 * (5 - s))
        return (s, s * s)

    assert testbed._over_seeds(fn, seeds, threads=threads) == [(s, s * s) for s in seeds]


def test_over_seeds_raises_the_lowest_failing_seed_and_prints_nothing(capfd):
    # three workers: the caller fails on seed 3 and a worker on seed 2, both
    # before the other worker fails on seed 1; capfd sees the workers'
    # output too, since they write to the same descriptors
    def fn(s):
        if s == 1:
            time.sleep(0.05)
        if s in (1, 2, 3, 5):
            raise ValueError(f"seed {s}")
        return s

    with pytest.raises(ValueError, match="seed 1"):
        testbed._over_seeds(fn, range(6), threads=3)
    assert capfd.readouterr() == ("", "")


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_over_seeds_leaves_no_child_process():
    def fn(s):
        if s == 5:
            raise MirrorSobolError(f"seed {s}")
        return s

    assert testbed._over_seeds(fn, range(5), threads=3) == [0, 1, 2, 3, 4]
    _assert_no_child_process()
    with pytest.raises(MirrorSobolError, match="seed 5"):
        testbed._over_seeds(fn, range(8), threads=3)
    _assert_no_child_process()


def _exit_three(s):
    os._exit(3)


def _kill_self(s):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "death, how",
    [
        (_exit_three, "exited with status 3"),
        (_kill_self, f"was killed by signal {int(signal.SIGKILL)}"),
        (lambda s: (lambda: s), "exited with status 1"),  # a result that does not pickle
    ],
)
def test_a_worker_without_a_result_names_its_seeds_and_status(death, how, capfd):
    caller = os.getpid()

    def fn(s):
        # only ever in a forked worker, never in the test process
        return death(s) if s == 3 and os.getpid() != caller else s

    with pytest.raises(MirrorSobolError) as exc:
        testbed._over_seeds(fn, range(6), threads=2)
    assert type(exc.value) is MirrorSobolError
    assert str(exc.value) == f"the worker process of seeds [1, 3, 5] {how} and sent no readable result"
    assert capfd.readouterr() == ("", "")
    _assert_no_child_process()


@pytest.mark.parametrize("in_own_seeds", [True, False], ids=["in-own-seeds", "reading-a-worker"])
def test_an_interrupted_study_kills_and_reaps_its_workers(in_own_seeds):
    caller = os.getpid()

    def fn(s):
        if in_own_seeds or os.getpid() != caller:
            time.sleep(60)
        return s

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            testbed._over_seeds(fn, range(4), threads=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 10, "the caller waited for its sleeping worker"
    _assert_no_child_process()


def test_over_seeds_on_more_worker_processes_than_cores():
    # more workers than cores, each sending back more than a pipe buffer
    # (64 KiB) while the caller still runs its own seeds: every seed's slot
    # is filled once, in seed order, and the lowest failing seed is raised
    def fn(s):
        if s % 7 == 3:
            raise ValueError(f"seed {s}")
        return [s] * 50

    for threads in (5, 8):
        got = testbed._over_seeds(lambda s: np.full(10_000, float(s)), range(64), threads)
        assert all(np.array_equal(g, np.full(10_000, float(s))) for s, g in enumerate(got))
        assert testbed._over_seeds(lambda s: [s] * 50, range(64), threads) == [[s] * 50 for s in range(64)]
        with pytest.raises(ValueError, match="seed 3"):
            testbed._over_seeds(fn, range(64), threads)


def test_coverage_study_negative_control():
    m = linear_model(3)
    plan = ExperimentPlan(
        model=m,
        mask=(1,),
        n_grid=(1500,),
        h_rule=lambda n: 0.25,
        kernel_order=1,
        seeds=120,
        estimators=("kernel",),
        threads=1,
    )
    nominal = convergence_study(plan, 0.95)
    halved = convergence_study(plan, 0.95, variance_scale=0.5)
    cov = next(r for r in nominal["rows"] if r["estimator"] == "kernel_sobol")["coverage"]
    cov_half = next(r for r in halved["rows"] if r["estimator"] == "kernel_sobol")["coverage"]
    assert cov >= 0.85, f"nominal coverage {cov} implausibly low"
    assert cov_half < cov, f"halved-variance control should cover less: {cov_half} vs {cov}"


@pytest.mark.parametrize("ci_level", [0.0, 1.0])
def test_coverage_study_checks_its_level_before_any_replicate(ci_level, monkeypatch):
    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(testbed, "estimate_sobol", no_replicate)
    plan = ExperimentPlan(
        model=linear_model(3),
        mask=(0,),
        n_grid=(100,),
        h_rule=lambda n: 0.25,
        kernel_order=1,
        seeds=2,
        estimators=("kernel",),
        threads=1,
    )
    with pytest.raises(MirrorSobolError, match="ci level"):
        convergence_study(plan, ci_level=ci_level)


@pytest.mark.parametrize(
    "field, value",
    [
        ("threads", 2.5),
        ("seeds", 2.7),
        ("seeds", True),
        ("kernel_order", True),
        ("kernel_order", 2.0),
        ("n_grid", (200.9,)),
        ("n_grid", (True, 200)),
        ("n_grid", ()),
        ("n_grid", (200, 200)),
        ("n_grid", (1, 200)),
    ],
)
def test_plan_refuses_a_fraction_a_bool_or_a_bad_grid_before_any_replicate(field, value, monkeypatch):
    # no value is truncated or read as 1, and a grid is what RunConfig takes
    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(testbed, "estimate_sobol", no_replicate)
    fields = dict(
        model=linear_model(3),
        mask=(0,),
        n_grid=(200,),
        h_rule=lambda n: 0.25,
        kernel_order=1,
        seeds=2,
        estimators=("kernel",),
        threads=1,
    )
    with pytest.raises(MirrorSobolError, match=field) as exc:
        convergence_study(ExperimentPlan(**{**fields, field: value}))
    assert type(exc.value) is MirrorSobolError
    plan = ExperimentPlan(**{**fields, "n_grid": np.array([100, 200]), "seeds": np.int64(2), "threads": np.int32(1)})
    assert plan.n_grid == (100, 200) and type(plan.n_grid[0]) is int and type(plan.seeds) is int


@pytest.mark.parametrize("threads", [1, 2])
def test_study_rows_equal_a_direct_loop_over_the_estimators(threads):
    # every number of the one study loop, against the estimators called seed
    # by seed on the same stream-0 and stream-1 draws
    model, mask, h, seeds = linear_model(3), (0,), 0.25, 6
    plan = ExperimentPlan(
        model=model,
        mask=mask,
        n_grid=(300, 600),
        h_rule=lambda n: h,
        kernel_order=2,
        seeds=seeds,
        estimators=("kernel", "pf", "nn", "rank"),
        threads=threads,
    )
    rows = convergence_study(plan, 0.95)["rows"]
    spec, kernel = SubsetSpec(mask), build_kernel(2)
    s_true, t_true = model.sobol_of(mask), model.t_of(mask)
    expected = []
    for n in plan.n_grid:
        base = [model.draw(n, s) for s in range(seeds)]
        alt = [model.draw(n, s, stream=1) for s in range(seeds)]
        fits = [estimate_sobol(b, spec, kernel, h, model.input_model) for b in base]
        covered = float(np.mean([fit.ci[0] <= s_true <= fit.ci[1] for fit in fits]))
        pairs = list(zip(base, alt))
        expected += [
            (n, "kernel_t", h, [fit.t_hat for fit in fits], t_true, ""),
            (n, "kernel_sobol", h, [fit.sobol for fit in fits], s_true, covered),
            (n, "pf", "", [pick_freeze_estimate(testbed._freeze(model, mask, b, a.V)) for b, a in pairs], s_true, ""),
            (n, "nn_t", "", [nn_estimate((b.V[:, [0]], b.Y), (a.V[:, [0]], a.Y)) for b, a in pairs], t_true, ""),
            (n, "rank", "", [rank_estimate(b.V[:, 0], b.Y) for b in base], s_true, ""),
        ]
    assert [(r["n"], r["estimator"], r["h"]) for r in rows] == [e[:3] for e in expected]
    for row, (n, name, _, values, truth, coverage) in zip(rows, expected):
        values = np.array(values)
        assert row["seed_count"] == seeds
        assert row["mean"] == float(values.mean()), name
        assert row["rmse"] == float(np.sqrt(np.mean((values - truth) ** 2))), name
        assert row["var_scaled_by_n"] == float(n * values.var()), name
        assert row["coverage"] == coverage, name
    assert 0.0 < rows[1]["coverage"] <= 1.0


def test_fit_loglog_slope_exact():
    ns = np.array([100, 400, 1600])
    rmse = 3.0 * ns**-0.5
    assert abs(fit_loglog_slope(ns, rmse) + 0.5) < 1e-12
    with pytest.raises(MirrorSobolError, match="zero RMSE"):
        fit_loglog_slope(ns, [0.1, 0.0, 0.05])


def test_rank_requires_singleton_mask_in_study():
    with pytest.raises(MirrorSobolError, match="rank"):
        ExperimentPlan(
            model=curved_model(),
            mask=(0, 1),
            n_grid=(100,),
            h_rule=lambda n: 0.2,
            kernel_order=2,
            seeds=2,
            estimators=("rank",),
            threads=1,
        )
