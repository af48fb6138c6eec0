"""Tests for the analytic models, oracles, and study drivers."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mirrorsobol import testbed
from mirrorsobol.baselines import pick_freeze_estimate
from mirrorsobol.errors import MirrorSobolError
from mirrorsobol.estimator import FullSample, SubsetSpec
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import (
    ExperimentPlan,
    brute_force_t,
    builtin_models,
    convergence_study,
    coverage_study,
    curved_model,
    fit_loglog_slope,
    ishigami_model,
    linear_model,
    model_by_name,
    pick_freeze_design,
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
        full = tuple(range(model.p))
        if full in model.true_sobol:
            assert abs(model.sobol_of(full) - 1.0) < 1e-12, f"{model.name}: full-mask index must be 1"


def test_truth_consistency_t_vs_sobol():
    # t - mean^2 = S * var must hold for every closed form
    for model in builtin_models():
        for mask in model.masks():
            lhs = model.t_of(mask) - model.mean_y**2
            rhs = model.sobol_of(mask) * model.var_y
            assert abs(lhs - rhs) < 1e-10, f"{model.name} mask {mask}: {lhs} vs {rhs}"


def test_g1_g2_tower_property_by_monte_carlo():
    # E[g1(X)] = E[Y], E[g2(X)] = E[Y^2], Var(g1) = S * Var(Y)
    for model in builtin_models():
        fs = model.draw(200_000, seed=42)
        for mask in model.masks():
            xm = fs.V[:, list(mask)]
            g1 = model.g1(mask, xm)
            g2 = model.g2(mask, xm)
            n = fs.n
            se_mean = np.std(g1) / np.sqrt(n)
            assert abs(np.mean(g1) - model.mean_y) <= 5 * se_mean + 1e-12, (
                f"{model.name} {mask}: E[g1] {np.mean(g1)} vs {model.mean_y}"
            )
            se_2 = np.std(g2) / np.sqrt(n)
            truth_2 = model.var_y + model.mean_y**2
            assert abs(np.mean(g2) - truth_2) <= 5 * se_2 + 1e-12, (
                f"{model.name} {mask}: E[g2] {np.mean(g2)} vs {truth_2}"
            )
            se_t = np.std(g1**2) / np.sqrt(n)
            assert abs(np.mean(g1**2) - model.t_of(mask)) <= 5 * se_t + 1e-12, (
                f"{model.name} {mask}: E[g1^2] vs t"
            )


def test_g2_dominates_g1_squared():
    rng = np.random.default_rng(0)
    for model in builtin_models():
        lo, hi = model.input_model.domain.lower, model.input_model.domain.upper
        for mask in model.masks():
            cols = list(mask)
            grid = lo[cols] + (hi[cols] - lo[cols]) * rng.random((500, len(cols)))
            gap = model.g2(mask, grid) - model.g1(mask, grid) ** 2
            assert gap.min() >= -1e-10, f"{model.name} {mask}: g2 < g1^2 by {gap.min()}"


def test_truth_against_pick_freeze_at_scale():
    # the PF design only uses g, so it cross-checks every closed-form index
    for model in builtin_models():
        for mask in model.masks():
            pf = pick_freeze_design(model, mask, 1_000_000, seed=7)
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
            build_kernel(0, 1),
            0.2,
            m.input_model,
        )
    with pytest.raises(MirrorSobolError):
        brute_force_t(fs, SubsetSpec((0,)), build_kernel(0, 1), 0.2, lambda x: np.ones(len(x)))


def test_plan_validation():
    m = linear_model(2)
    with pytest.raises(MirrorSobolError):
        ExperimentPlan(model=m, masks=((0,),), n_grid=(200, 100), h_rule=0.2, seeds=(0, 1))
    with pytest.raises(MirrorSobolError):
        ExperimentPlan(model=m, masks=((0,),), n_grid=(100,), h_rule=0.2, seeds=(0, 0))
    with pytest.raises(MirrorSobolError):
        ExperimentPlan(model=m, masks=((0,),), n_grid=(100,), h_rule=0.2, estimators=("bogus",))


def test_convergence_study_shrinks_rmse():
    m = linear_model(2)
    plan = ExperimentPlan(
        model=m,
        masks=((0,),),
        n_grid=(250, 1000, 4000),
        h_rule=lambda n: n**-0.35,
        kernel_order=1,
        seeds=tuple(range(30)),
        estimators=("kernel", "pf", "rank"),
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
        masks=((0,),),
        n_grid=(300,),
        h_rule=0.25,
        kernel_order=1,
        seeds=tuple(range(8)),
        estimators=("kernel",),
    )
    serial = convergence_study(ExperimentPlan(**kwargs, threads=1))
    threaded = convergence_study(ExperimentPlan(**kwargs, threads=4))
    assert serial["rows"] == threaded["rows"], "thread count must not change study results"


@pytest.mark.parametrize("threads", [0, -5])
def test_plan_rejects_nonpositive_threads(threads):
    with pytest.raises(MirrorSobolError, match="threads"):
        ExperimentPlan(model=linear_model(3), masks=((0,),), n_grid=(100,), h_rule=0.2, threads=threads)


def test_over_seeds_starts_no_more_workers_than_seeds(monkeypatch):
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(testbed, "ThreadPoolExecutor", Recording)
    assert testbed._over_seeds(lambda s: s * s, (3, 1, 2), threads=8) == [9, 1, 4]
    assert testbed._over_seeds(lambda s: -s, (5,), threads=8) == [-5]
    assert sizes == [3], f"expected one pool of 3 workers, got {sizes}"


def test_coverage_study_negative_control():
    m = linear_model(3)
    plan = ExperimentPlan(
        model=m,
        masks=((1,),),
        n_grid=(1500,),
        h_rule=0.25,
        kernel_order=1,
        seeds=tuple(range(120)),
    )
    nominal = coverage_study(plan, level=0.95)
    halved = coverage_study(plan, level=0.95, variance_scale=0.5)
    cov = nominal["rows"][0]["coverage"]
    cov_half = halved["rows"][0]["coverage"]
    assert cov >= 0.85, f"nominal coverage {cov} implausibly low"
    assert cov_half < cov, f"halved-variance control should cover less: {cov_half} vs {cov}"


def test_fit_loglog_slope_exact():
    ns = np.array([100, 400, 1600])
    rmse = 3.0 * ns**-0.5
    assert abs(fit_loglog_slope(ns, rmse) + 0.5) < 1e-12


def test_rank_requires_singleton_mask_in_study():
    m = curved_model()
    plan = ExperimentPlan(
        model=m, masks=((0, 1),), n_grid=(100,), h_rule=0.2, seeds=(0, 1), estimators=("rank",)
    )
    with pytest.raises(MirrorSobolError):
        convergence_study(plan)
