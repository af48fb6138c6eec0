"""End-to-end acceptance checks, one per shipped guarantee.

Each test pins one headline property of the package at its stated
tolerance: kernel moment conditions, oracle equivalence of the fast
estimator, consistency, the root-n rate, CLT interval calibration,
bias decay under bandwidth halving, the efficiency identities,
data-driven bandwidth selection, estimation with a plugged-in density,
and byte-level CLI determinism.  Run with ``pytest -v`` for one
pass/fail line per guarantee.
"""

import itertools
import json
import math

import numpy as np
import pytest
from efficiency import efficient_bounds, sigma_t_second_form
from scipy.integrate import quad
from scipy.stats import norm

from mirrorsobol.bandwidth import bandwidth_curve, default_grid
from mirrorsobol.cli import main
from mirrorsobol.density import uniform_max_estimator
from mirrorsobol.domain import Domain
from mirrorsobol.estimator import FullSample, SubsetSpec, estimate_sobol, estimate_t
from mirrorsobol.inputs import InputModel, Uniform
from mirrorsobol.kernels import build_kernel
from mirrorsobol.testbed import (
    ExperimentPlan,
    brute_force_t,
    convergence_study,
    curved_model,
    limiting_variances,
    linear_model,
    product_model,
)

LINEAR3 = linear_model(3)
FIRST = SubsetSpec((0,))


def test_kernel_moment_conditions_by_quadrature():
    # orders 0..4, dimensions 1..3: unit mass to 1e-9, vanishing moments to 1e-8
    for k in range(5):
        kernel = build_kernel(k)
        lo, hi = kernel.support
        moments_1d = []
        for j in range(k + 1):
            val, err = quad(lambda u, j=j: float(kernel.eval([u])) * u**j, lo, hi, limit=200)
            assert err < 1e-11, f"k={k} j={j}: quadrature error {err} too large to certify"
            moments_1d.append(val)
        for d in (1, 2, 3):
            mass = moments_1d[0] ** d
            assert abs(mass - 1.0) <= 1e-9, f"k={k} d={d}: kernel mass {mass} != 1"
            for beta in itertools.product(range(k + 1), repeat=d):
                if not 0 < sum(beta) <= k:
                    continue
                moment = math.prod(moments_1d[b] for b in beta)
                assert abs(moment) <= 1e-8, f"k={k} d={d} beta={beta}: moment {moment} not vanishing"


def test_estimator_matches_brute_force_on_200_random_configs():
    rng = np.random.default_rng(20240815)
    for trial in range(200):
        d = int(rng.integers(1, 4))
        p = d + int(rng.integers(0, 3))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(8, 65))
        mask = tuple(sorted(rng.choice(p, size=d, replace=False).tolist()))
        model = InputModel(tuple(Uniform(0.0, 1.0) for _ in range(p)))
        v = rng.uniform(0.0, 1.0, (n, p))
        y = rng.normal(size=n)
        fs = FullSample(V=v, Y=y)
        h = float(rng.uniform(0.05, 1.0))
        spec = SubsetSpec(mask)
        kernel = build_kernel(k)
        fast = estimate_t(fs, spec, kernel, h, model)
        slow = brute_force_t(fs, spec, kernel, h, model)
        scale = max(abs(slow), 1.0)
        assert abs(fast - slow) <= 1e-12 * scale, (
            f"trial {trial} (n={n}, d={d}, k={k}, h={h:.3f}, mask={mask}): "
            f"fast {fast!r} vs brute force {slow!r}"
        )


def test_first_order_index_consistency_linear():
    # median |S_hat - 1/3| over 100 seeds at n=5000, order-2 kernel, h = n^-0.4
    n = 5000
    h = n**-0.4
    kernel = build_kernel(2)
    errs = []
    for seed in range(100):
        fs = LINEAR3.draw(n, seed)
        res = estimate_sobol(fs, FIRST, kernel, h, LINEAR3.input_model)
        errs.append(abs(res.sobol - 1.0 / 3.0))
    med = float(np.median(errs))
    assert med <= 0.05, f"median first-order error {med} exceeds 0.05"


def test_rmse_decays_at_root_n_rate():
    plan = ExperimentPlan(
        model=LINEAR3,
        mask=(0,),
        n_grid=(500, 1000, 2000, 4000, 8000),
        h_rule=lambda n: n**-0.4,
        kernel_order=2,
        seeds=100,
        estimators=("kernel",),
        threads=1,
    )
    slopes = convergence_study(plan)["slopes"]
    for est in ("kernel_t", "kernel_sobol"):
        slope = slopes[(est, "1")]
        assert -0.65 <= slope <= -0.35, f"{est}: log-log RMSE slope {slope} outside [-0.65, -0.35]"


def test_clt_interval_coverage_with_negative_control():
    plan = ExperimentPlan(
        model=LINEAR3,
        mask=(0,),
        n_grid=(4000,),
        h_rule=lambda n: n**-0.3,
        kernel_order=1,
        seeds=300,
        estimators=("kernel",),
        threads=1,
    )
    nominal = next(r for r in convergence_study(plan, 0.95)["rows"] if r["estimator"] == "kernel_sobol")["coverage"]
    assert 0.90 <= nominal <= 0.98, f"95% interval coverage {nominal} outside [0.90, 0.98]"
    halved = next(r for r in convergence_study(plan, 0.95, 0.5)["rows"] if r["estimator"] == "kernel_sobol")["coverage"]
    assert halved < 0.90, f"halved-variance negative control {halved} should undercover"


@pytest.mark.xfail(
    strict=False,
    reason=(
        "the product model's conditional mean is multilinear, so the leading "
        "kernel bias term vanishes identically and the halving ratio compares "
        "noise with noise"
    ),
)
def test_bias_halving_ratio_product_model():
    # |bias(h)| / |bias(h/2)| >= 2^(k-1/2) for k in {1, 2}, bias averaged over 50 seeds
    model = product_model()
    t_true = model.t_of((0,))
    n, seeds = 200_000, 50
    samples = [model.draw(n, s) for s in range(seeds)]
    for k in (1, 2):
        kernel = build_kernel(k)
        bias = {}
        for h in (0.2, 0.1):
            vals = [estimate_t(fs, FIRST, kernel, h, model.input_model) for fs in samples]
            bias[h] = abs(float(np.mean(vals)) - t_true)
        ratio = bias[0.2] / bias[0.1]
        assert ratio >= 2 ** (k - 0.5), (
            f"k={k}: halving ratio {ratio:.2f} below 2^(k-1/2) = {2 ** (k - 0.5):.2f} "
            f"(biases {bias[0.2]:.2e} vs {bias[0.1]:.2e})"
        )


def test_bias_halving_ratio_with_curvature():
    # where the conditional mean has curvature the order-1 ratio is resolvable
    model = curved_model()
    t_true = model.t_of((0,))
    n, seeds = 80_000, 60
    kernel = build_kernel(1)
    bias, se = {}, {}
    for h in (0.3, 0.15):
        vals = [estimate_t(model.draw(n, s), FIRST, kernel, h, model.input_model) for s in range(seeds)]
        bias[h] = abs(float(np.mean(vals)) - t_true)
        se[h] = float(np.std(vals, ddof=1)) / math.sqrt(seeds)
    assert bias[0.3] > 3.0 * se[0.3], f"bias {bias[0.3]:.2e} not resolved above noise {se[0.3]:.2e}"
    ratio = bias[0.3] / bias[0.15]
    assert ratio >= 2**0.5, f"halving ratio {ratio:.2f} below 2^(1/2) despite curvature"


def test_efficiency_identity_and_variance_bound():
    # both printed forms of sigma_T^2 agree by quadrature on two models
    for model, mask in [(LINEAR3, (0,)), (product_model(), (0,))]:
        one, two = efficient_bounds(model, mask)[0], sigma_t_second_form(model, mask)
        rel = abs(one - two) / max(abs(one), abs(two))
        assert rel <= 1e-6, f"{model.name}: sigma_T^2 forms {one} vs {two} differ by {rel}"
    # simulated n * Var of the Sobol' estimator respects the efficiency bound
    n, seeds = 2000, 100
    h = n**-0.4
    kernel = build_kernel(2)
    vals = [estimate_sobol(LINEAR3.draw(n, s), FIRST, kernel, h, LINEAR3.input_model).sobol for s in range(seeds)]
    nvar = n * float(np.var(vals, ddof=1))
    mc_se = nvar * math.sqrt(2.0 / (seeds - 1))
    sigma_min = efficient_bounds(LINEAR3, (0,))[1]
    assert nvar >= sigma_min - 2.0 * mc_se, (
        f"simulated n*Var {nvar:.3f} below the efficiency bound {sigma_min:.3f} - 2*{mc_se:.3f}"
    )
    ceiling = 3.0 * limiting_variances(LINEAR3, (0,))[1]
    assert nvar <= ceiling, f"simulated n*Var {nvar:.3f} implausibly above the CLT constant ({ceiling:.3f})"


def test_bandwidth_selection_tracks_grid_optimum():
    # selected-h RMSE within 1.5x of the best fixed grid bandwidth, 100 seeds
    n, seeds = 2000, 100
    kernel = build_kernel(2)
    truth = LINEAR3.sobol_of((0,))
    domain = LINEAR3.input_model.domain
    grid = tuple(default_grid(n, domain.subdomain((0,))))
    selected, per_h = [], {h: [] for h in grid}
    for seed in range(seeds):
        fs = LINEAR3.draw(n, seed)
        h_star = bandwidth_curve(fs, FIRST, kernel, LINEAR3.input_model, grid=grid)["h_star"]
        selected.append(estimate_sobol(fs, FIRST, kernel, h_star, LINEAR3.input_model).sobol)
        for h in grid:
            per_h[h].append(estimate_sobol(fs, FIRST, kernel, h, LINEAR3.input_model).sobol)
    rmse = lambda vals: float(np.sqrt(np.mean((np.asarray(vals) - truth) ** 2)))
    rmse_selected = rmse(selected)
    grid_rmses = {h: rmse(v) for h, v in per_h.items()}
    best = min(grid_rmses.values())
    worst = max(grid_rmses.values())
    assert rmse_selected <= 1.5 * best, (
        f"selected-h RMSE {rmse_selected:.4f} exceeds 1.5x best grid RMSE {best:.4f}"
    )
    assert worst >= 1.3 * best, (
        f"grid RMSEs span only [{best:.4f}, {worst:.4f}]; the comparison would be vacuous"
    )
    # the selected bandwidth is invariant under output rescaling
    fs = LINEAR3.draw(n, 0)
    base = bandwidth_curve(fs, FIRST, kernel, LINEAR3.input_model, grid=grid)["h_star"]
    scaled_fs = FullSample(V=fs.V, Y=3.0 * fs.Y)
    scaled = bandwidth_curve(scaled_fs, FIRST, kernel, LINEAR3.input_model, grid=grid)["h_star"]
    assert base == scaled, f"argmin moved under Y -> 3Y: {base} vs {scaled}"


def test_estimation_with_plugged_in_uniform_endpoint():
    # unknown upper endpoint: theta_hat = max plug-in, CI coverage and endpoint MSE
    model = linear_model(1)
    t_true = model.t_of((0,))
    n, seeds = 4000, 300
    h = n**-0.3
    kernel = build_kernel(1)
    z = norm.ppf(0.975)
    covered, sq_errs = 0, []
    for seed in range(seeds):
        fs = model.draw(n, seed)
        est = uniform_max_estimator(fs.V[:, 0])
        theta = est.params["theta_hat"]
        sq_errs.append((theta - 1.0) ** 2)
        res = estimate_sobol(fs, FIRST, kernel, h, est.eval_rows, domain=Domain([0.0], [theta]))
        covered += abs(res.t_hat - t_true) <= z * math.sqrt(res.var_t / n)
    coverage = covered / seeds
    assert 0.90 <= coverage <= 0.98, f"plug-in CI coverage {coverage} outside [0.90, 0.98]"
    want = 2.0 / ((n + 1) * (n + 2))
    got = float(np.mean(sq_errs))
    assert want / 3.0 <= got <= 3.0 * want, f"endpoint MSE {got:.3e} not within 3x of {want:.3e}"


def test_cli_outputs_are_byte_identical_across_threads(tmp_path):
    def run_cli(args, path):
        assert main(args + ["--output", path]) == 0
        with open(path, "rb") as fh:
            return fh.read()

    est_args = ["estimate", "--model", "linear3", "--n", "2000", "--seed", "5", "--mask", "1", "--h", "0.2"]
    est_path = str(tmp_path / "est.json")
    assert run_cli(est_args, est_path) == run_cli(est_args, est_path), "estimate reruns differ"

    tables = {}
    for threads in (1, 8):
        args = [
            "compare", "--model", "linear3", "--n", "500", "--mask", "1", "--h", "0.25",
            "--seeds", "16", "--estimators", "kernel,pf,nn", "--threads", str(threads),
        ]
        path = str(tmp_path / f"cmp{threads}.csv")
        first = run_cli(args, path)
        second = run_cli(args, path)
        assert first == second, f"compare reruns differ at threads={threads}"
        tables[threads] = first
    swapped = tables[8].replace(b'"threads":8', b'"threads":1').replace(b"cmp8.csv", b"cmp1.csv")
    assert tables[1] == swapped, "thread count changed a computed value"
