"""Analytic test models, brute-force oracles, and Monte Carlo study drivers.

Each model carries closed forms, derived by hand integration, for the
conditional mean g1, the conditional second moment g2, the partial variance
t = E[E[Y|X]^2], and the Sobol' index of every supported mask, so estimator
runs can be scored against exact truth.  `brute_force_t` is a literal
transcription of the pairwise estimator used as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._quad import gauss_legendre
from .baselines import PickFreezeSample, VarianceOracles
from .domain import apply_mirror, sigma_at
from .errors import MirrorSobolError
from .estimator import FullSample, SubsetSpec, estimate_sobol
from .inputs import InputModel, Uniform, sample, subset_density_fn
from .kernels import KernelD, build_kernel

__all__ = [
    "AnalyticModel",
    "ExperimentPlan",
    "linear_model",
    "weighted_linear_model",
    "ishigami_model",
    "product_model",
    "curved_model",
    "builtin_models",
    "model_by_name",
    "brute_force_t",
    "variance_oracles",
    "pick_freeze_design",
    "convergence_study",
    "coverage_study",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class AnalyticModel:
    """Test function with closed-form conditional moments and Sobol' indices."""

    name: str
    input_model: InputModel
    g: Callable[[np.ndarray], np.ndarray]
    g1_funcs: dict
    g2_funcs: dict
    true_t: dict
    true_sobol: dict
    mean_y: float
    var_y: float

    @property
    def p(self) -> int:
        return self.input_model.p

    def masks(self) -> list:
        return sorted(self.true_sobol.keys(), key=lambda m: (len(m), m))

    def _lookup(self, table: dict, mask):
        key = tuple(sorted(int(i) for i in mask))
        if key not in table:
            raise MirrorSobolError(f"model {self.name!r} has no closed form for mask {key}")
        return key, table[key]

    def g1(self, mask, xm) -> np.ndarray:
        """Conditional mean E[Y | X = x] on the masked columns (ascending axis order)."""
        _, fn = self._lookup(self.g1_funcs, mask)
        return fn(np.atleast_2d(np.asarray(xm, dtype=float)))

    def g2(self, mask, xm) -> np.ndarray:
        """Conditional second moment E[Y^2 | X = x]."""
        _, fn = self._lookup(self.g2_funcs, mask)
        return fn(np.atleast_2d(np.asarray(xm, dtype=float)))

    def t_of(self, mask) -> float:
        return self._lookup(self.true_t, mask)[1]

    def sobol_of(self, mask) -> float:
        return self._lookup(self.true_sobol, mask)[1]

    def draw(self, n: int, seed: int, stream: int = 0) -> FullSample:
        v = sample(self.input_model, n, seed, stream=stream)
        return FullSample(V=v, Y=self.g(v))


def _uniform_inputs(p: int, lo: float = 0.0, hi: float = 1.0) -> InputModel:
    return InputModel(tuple(Uniform(lo, hi) for _ in range(p)))


def linear_model(p: int = 3) -> AnalyticModel:
    """Y = sum V_i with uniform inputs on [0, 1]^p.

    For a mask of size d: g1(x) = sum x_i + (p - d)/2, the remaining inputs
    contribute (p - d)/12 of conditional variance, Var(Y) = p/12, and the
    index is d/p.
    """
    if p < 1:
        raise MirrorSobolError("linear model needs p >= 1")
    g1_funcs, g2_funcs, true_t, true_sobol = {}, {}, {}, {}
    for d in range(1, p + 1):
        for mask in itertools.combinations(range(p), d):
            rest = p - d

            def g1(xm, rest=rest):
                return xm.sum(axis=1) + 0.5 * rest

            def g2(xm, rest=rest, g1=g1):
                return g1(xm) ** 2 + rest / 12.0

            g1_funcs[mask] = g1
            g2_funcs[mask] = g2
            true_t[mask] = d / 12.0 + 0.25 * p * p
            true_sobol[mask] = d / p
    return AnalyticModel(
        name=f"linear{p}",
        input_model=_uniform_inputs(p),
        g=lambda v: np.asarray(v, dtype=float).sum(axis=1),
        g1_funcs=g1_funcs,
        g2_funcs=g2_funcs,
        true_t=true_t,
        true_sobol=true_sobol,
        mean_y=0.5 * p,
        var_y=p / 12.0,
    )


def weighted_linear_model(alpha: float = 2.0, p: int = 3) -> AnalyticModel:
    """Y = alpha V_1 + sum_{i >= 2} V_i on [0, 1]^p; S^1 = alpha^2 / (alpha^2 + p - 1)."""
    if p < 1:
        raise MirrorSobolError("weighted linear model needs p >= 1")
    w = np.ones(p)
    w[0] = alpha
    var_y = float(np.sum(w**2)) / 12.0
    mean_y = float(np.sum(w)) / 2.0
    g1_funcs, g2_funcs, true_t, true_sobol = {}, {}, {}, {}
    for d in range(1, p + 1):
        for mask in itertools.combinations(range(p), d):
            w_in = w[list(mask)]
            w_out = np.delete(w, list(mask))

            def g1(xm, w_in=w_in, shift=float(np.sum(w_out)) / 2.0):
                return xm @ w_in + shift

            def g2(xm, g1=g1, cvar=float(np.sum(w_out**2)) / 12.0):
                return g1(xm) ** 2 + cvar

            g1_funcs[mask] = g1
            g2_funcs[mask] = g2
            part = float(np.sum(w_in**2)) / 12.0
            true_t[mask] = part + mean_y**2
            true_sobol[mask] = part / var_y
    return AnalyticModel(
        name=f"wlinear{p}",
        input_model=_uniform_inputs(p),
        g=lambda v, w=w: np.asarray(v, dtype=float) @ w,
        g1_funcs=g1_funcs,
        g2_funcs=g2_funcs,
        true_t=true_t,
        true_sobol=true_sobol,
        mean_y=mean_y,
        var_y=var_y,
    )


def ishigami_model(a: float = 7.0, b: float = 0.1) -> AnalyticModel:
    """Y = sin V_1 + a sin^2 V_2 + b V_3^4 sin V_1 on [-pi, pi]^3.

    All conditional moments reduce to moments of sin and V^4 over [-pi, pi]:
    E[sin^2] = 1/2, E[V^4] = pi^4/5, E[V^8] = pi^8/9, E[sin^4] = 3/8.
    """
    pi4 = np.pi**4
    pi8 = np.pi**8
    c1 = 1.0 + b * pi4 / 5.0  # E[1 + b V^4]
    c2 = 1.0 + 2.0 * b * pi4 / 5.0 + b * b * pi8 / 9.0  # E[(1 + b V^4)^2]
    mean_y = 0.5 * a
    var_parts = {
        (0,): 0.5 * c1 * c1,
        (1,): a * a / 8.0,
        (2,): 0.0,
        (0, 1): 0.5 * c1 * c1 + a * a / 8.0,
        (0, 2): 0.5 * c2,
        (1, 2): a * a / 8.0,
        (0, 1, 2): 0.5 * c2 + a * a / 8.0,
    }
    var_y = var_parts[(0, 1, 2)]

    def g_full(v):
        v = np.asarray(v, dtype=float)
        return np.sin(v[:, 0]) + a * np.sin(v[:, 1]) ** 2 + b * v[:, 2] ** 4 * np.sin(v[:, 0])

    g1_funcs = {
        (0,): lambda xm: c1 * np.sin(xm[:, 0]) + 0.5 * a,
        (1,): lambda xm: a * np.sin(xm[:, 0]) ** 2,
        (2,): lambda xm: np.full(xm.shape[0], 0.5 * a),
        (0, 1): lambda xm: c1 * np.sin(xm[:, 0]) + a * np.sin(xm[:, 1]) ** 2,
        (0, 2): lambda xm: (1.0 + b * xm[:, 1] ** 4) * np.sin(xm[:, 0]) + 0.5 * a,
        (1, 2): lambda xm: a * np.sin(xm[:, 0]) ** 2,
        (0, 1, 2): lambda xm: g_full(xm),
    }
    g2_funcs = {
        (0,): lambda xm: c2 * np.sin(xm[:, 0]) ** 2 + a * c1 * np.sin(xm[:, 0]) + 0.375 * a * a,
        (1,): lambda xm: 0.5 * c2 + a * a * np.sin(xm[:, 0]) ** 4,
        (2,): lambda xm: 0.5 * (1.0 + b * xm[:, 0] ** 4) ** 2 + 0.375 * a * a,
        (0, 1): lambda xm: c2 * np.sin(xm[:, 0]) ** 2
        + 2.0 * a * c1 * np.sin(xm[:, 0]) * np.sin(xm[:, 1]) ** 2
        + a * a * np.sin(xm[:, 1]) ** 4,
        (0, 2): lambda xm: ((1.0 + b * xm[:, 1] ** 4) * np.sin(xm[:, 0])) ** 2
        + a * (1.0 + b * xm[:, 1] ** 4) * np.sin(xm[:, 0])
        + 0.375 * a * a,
        (1, 2): lambda xm: 0.5 * (1.0 + b * xm[:, 1] ** 4) ** 2 + a * a * np.sin(xm[:, 0]) ** 4,
        (0, 1, 2): lambda xm: g_full(xm) ** 2,
    }
    true_t = {m: var + mean_y**2 for m, var in var_parts.items()}
    true_sobol = {m: var / var_y for m, var in var_parts.items()}
    return AnalyticModel(
        name="ishigami",
        input_model=_uniform_inputs(3, -np.pi, np.pi),
        g=g_full,
        g1_funcs=g1_funcs,
        g2_funcs=g2_funcs,
        true_t=true_t,
        true_sobol=true_sobol,
        mean_y=mean_y,
        var_y=var_y,
    )


def product_model() -> AnalyticModel:
    """Y = V_1 V_2 on [0, 1]^2: g1(x) = x/2, t = 1/12, S = 3/7 per axis."""
    var_y = 1.0 / 9.0 - 1.0 / 16.0  # 7/144
    g1_funcs = {
        (0,): lambda xm: 0.5 * xm[:, 0],
        (1,): lambda xm: 0.5 * xm[:, 0],
        (0, 1): lambda xm: xm[:, 0] * xm[:, 1],
    }
    g2_funcs = {
        (0,): lambda xm: xm[:, 0] ** 2 / 3.0,
        (1,): lambda xm: xm[:, 0] ** 2 / 3.0,
        (0, 1): lambda xm: (xm[:, 0] * xm[:, 1]) ** 2,
    }
    true_t = {(0,): 1.0 / 12.0, (1,): 1.0 / 12.0, (0, 1): 1.0 / 9.0}
    true_sobol = {
        (0,): (1.0 / 12.0 - 1.0 / 16.0) / var_y,  # 3/7
        (1,): (1.0 / 12.0 - 1.0 / 16.0) / var_y,
        (0, 1): 1.0,
    }
    return AnalyticModel(
        name="product",
        input_model=_uniform_inputs(2),
        g=lambda v: np.asarray(v, dtype=float)[:, 0] * np.asarray(v, dtype=float)[:, 1],
        g1_funcs=g1_funcs,
        g2_funcs=g2_funcs,
        true_t=true_t,
        true_sobol=true_sobol,
        mean_y=0.25,
        var_y=var_y,
    )


def curved_model() -> AnalyticModel:
    """Y = V_1^3 + V_2 on [0, 1]^2; the cubic makes the smoothing bias visible.

    g1 for the first axis is x^3 + 1/2, t = 1/7 + 1/4 + 1/4 = 9/14,
    Var(Y) = 9/112 + 1/12 = 55/336, S^1 = 27/55, S^2 = 28/55.
    """
    var_y = 55.0 / 336.0
    g1_funcs = {
        (0,): lambda xm: xm[:, 0] ** 3 + 0.5,
        (1,): lambda xm: xm[:, 0] + 0.25,
        (0, 1): lambda xm: xm[:, 0] ** 3 + xm[:, 1],
    }
    g2_funcs = {
        (0,): lambda xm: xm[:, 0] ** 6 + xm[:, 0] ** 3 + 1.0 / 3.0,
        (1,): lambda xm: 1.0 / 7.0 + 0.5 * xm[:, 0] + xm[:, 0] ** 2,
        (0, 1): lambda xm: (xm[:, 0] ** 3 + xm[:, 1]) ** 2,
    }
    true_t = {(0,): 9.0 / 14.0, (1,): 31.0 / 48.0, (0, 1): 1.0 / 7.0 + 1.0 / 4.0 + 1.0 / 3.0}
    true_sobol = {(0,): 27.0 / 55.0, (1,): 28.0 / 55.0, (0, 1): 1.0}
    return AnalyticModel(
        name="curved",
        input_model=_uniform_inputs(2),
        g=lambda v: np.asarray(v, dtype=float)[:, 0] ** 3 + np.asarray(v, dtype=float)[:, 1],
        g1_funcs=g1_funcs,
        g2_funcs=g2_funcs,
        true_t=true_t,
        true_sobol=true_sobol,
        mean_y=0.75,
        var_y=var_y,
    )


def builtin_models() -> list:
    """The standard model collection used by tests and the CLI."""
    return [linear_model(3), weighted_linear_model(2.0, 3), ishigami_model(), product_model(), curved_model()]


def model_by_name(name: str) -> AnalyticModel:
    for model in builtin_models():
        if model.name == name:
            return model
    known = [m.name for m in builtin_models()]
    raise MirrorSobolError(f"unknown model {name!r}; available: {known}")


# --------------------------------------------------------------------------
# oracles


def brute_force_t(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    h: float,
    f_x,
    *,
    domain=None,
) -> float:
    """O(n^2) reference evaluation of the pairwise estimator.

    A literal transcription of the defining double sum with plain
    accumulation; serves as the independent oracle for estimate_t.
    """
    if sample.n > 10_000:
        raise MirrorSobolError(f"brute force oracle is O(n^2); refusing n = {sample.n} > 10000")
    if isinstance(f_x, InputModel):
        f_fn = subset_density_fn(f_x, spec.mask)
        dom = domain if domain is not None else f_x.domain
    else:
        f_fn = f_x
        if domain is None:
            raise MirrorSobolError("a domain is required when f_x is a bare callable")
        dom = domain
    sub = dom.subdomain(spec.mask)
    xm = sample.V[:, spec.mask]
    y = sample.Y
    fvals = np.asarray(f_fn(xm), dtype=float)
    n = sample.n
    total = 0.0
    for j in range(n):
        s_j = sigma_at(sub, xm[j])
        for jp in range(j + 1, n):
            s_jp = sigma_at(sub, xm[jp])
            left = kernel.eval_scaled(apply_mirror(s_j, xm[jp] - xm[j]), h) / fvals[j]
            right = kernel.eval_scaled(apply_mirror(s_jp, xm[j] - xm[jp]), h) / fvals[jp]
            total += (y[j] * y[jp] / 2.0) * (left + right)
    return total / math.comb(n, 2)


def pick_freeze_design(model: AnalyticModel, mask, n: int, seed: int) -> PickFreezeSample:
    """Pick-freeze design for the masked group: X shared, the rest redrawn.

    The complementary inputs of the second call come from stream 1 of the
    same seed, independent of the base draw (stream 0).
    """
    idx = tuple(sorted(int(i) for i in mask))
    v = sample(model.input_model, n, seed, stream=0)
    v_alt = sample(model.input_model, n, seed, stream=1)
    v_pf = v_alt.copy()
    v_pf[:, idx] = v[:, idx]
    return PickFreezeSample(Y=model.g(v), Y_pf=model.g(v_pf))


_GL_NODES = 64
_CHUNK = 1 << 20


def variance_oracles(model: AnalyticModel, mask, *, mc_draws: int = 10**6, mc_seed: int = 20240501) -> VarianceOracles:
    """Expectation engine plus closed-form g1/g2 for limiting-variance formulas.

    For p <= 4 the engine is a 64-point tensor Gauss-Legendre rule over the
    full input box weighted by the joint density (exact for the polynomial
    models); otherwise a fixed-seed Monte Carlo average over `mc_draws`
    rows, so results stay deterministic.  The factory also checks the
    conditional-variance inequality g2 >= g1^2 on the engine's nodes.
    """
    key = tuple(sorted(int(i) for i in mask))
    g1_fn = lambda xm: model.g1(key, xm)
    g2_fn = lambda xm: model.g2(key, xm)
    p = model.p
    cols = list(key)
    if p <= 4:
        axes = []
        for marg in model.input_model.marginals:
            axes.append(gauss_legendre(_GL_NODES, *marg.support))
        mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        points = np.column_stack([m.ravel() for m in mesh])
        w_mesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
        weights = np.ones(points.shape[0])
        for axis in range(p):
            weights *= w_mesh[axis].ravel() * model.input_model.marginals[axis].pdf(points[:, axis])
    else:
        rng_sample = sample(model.input_model, mc_draws, mc_seed)
        points = rng_sample
        weights = np.full(points.shape[0], 1.0 / points.shape[0])
    y_all = model.g(points)
    xm_all = points[:, cols]

    def moments(phi) -> float:
        total = 0.0
        for start in range(0, points.shape[0], _CHUNK):
            blk = slice(start, min(start + _CHUNK, points.shape[0]))
            total += float(np.dot(weights[blk], np.asarray(phi(y_all[blk], xm_all[blk]), dtype=float)))
        return total

    gap = g2_fn(xm_all) - g1_fn(xm_all) ** 2
    if float(np.min(gap)) < -1e-8 * max(1.0, float(np.max(np.abs(gap)))):
        raise MirrorSobolError(
            f"conditional variance negative for model {model.name!r}, mask {key}: min gap {np.min(gap)}"
        )
    return VarianceOracles(g1=g1_fn, g2=g2_fn, f_x=subset_density_fn(model.input_model, key), moments=moments)


# --------------------------------------------------------------------------
# experiment drivers


@dataclass(frozen=True)
class ExperimentPlan:
    """Configuration of a Monte Carlo study over seeds and sample sizes."""

    model: AnalyticModel
    masks: tuple
    n_grid: tuple
    h_rule: Union[Callable[[int], float], float]
    kernel_order: int = 2
    seeds: tuple = tuple(range(100))
    estimators: tuple = ("kernel",)
    ci_level: float = 0.95
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(tuple(sorted(int(i) for i in m)) for m in self.masks))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if len(set(self.seeds)) != len(self.seeds):
            raise MirrorSobolError("seeds must be distinct")
        if list(self.n_grid) != sorted(self.n_grid):
            raise MirrorSobolError("n_grid must be ascending")
        unknown = set(self.estimators) - {"kernel", "pf", "nn", "rank"}
        if unknown:
            raise MirrorSobolError(f"unknown estimators {sorted(unknown)}")
        if self.threads < 1:
            raise MirrorSobolError(f"threads must be >= 1, got {self.threads}")

    def h_at(self, n: int) -> float:
        if callable(self.h_rule):
            return float(self.h_rule(n))
        return float(self.h_rule)


def _over_seeds(fn: Callable[[int], object], seeds: Sequence[int], threads: int) -> list:
    """Evaluate fn on every seed; results ordered by seed index regardless of threads."""
    workers = min(threads, len(seeds))
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


def _kernel_run(model: AnalyticModel, mask, n: int, h: float, order: int, seed: int, ci_level: float):
    fs = model.draw(n, seed)
    kernel = build_kernel(order, len(mask))
    return estimate_sobol(fs, SubsetSpec(mask), kernel, h, model.input_model, ci_level=ci_level)


def _mask_label(mask) -> str:
    return "+".join(str(i + 1) for i in mask)


def _summary_row(model, mask, estimator, n, h, values, truth) -> dict:
    values = np.asarray(values, dtype=float)
    return {
        "model": model.name,
        "mask": _mask_label(mask),
        "estimator": estimator,
        "n": n,
        "h": h if h is not None else "",
        "seed_count": values.size,
        "mean": float(values.mean()),
        "rmse": float(np.sqrt(np.mean((values - truth) ** 2))),
        "var_scaled_by_n": float(n * values.var()),
        "coverage": "",
    }


def convergence_study(plan: ExperimentPlan) -> dict:
    """RMSE against truth across n_grid, with log-log slope fits.

    Returns {"rows": [...], "slopes": {...}} where rows carry the columns
    (model, mask, estimator, n, h, seed_count, mean, rmse, var_scaled_by_n,
    coverage) and slopes map (estimator_label, mask_label) to the fitted
    log-log slope of RMSE in n.
    """
    rows = []
    for mask in plan.masks:
        for n in plan.n_grid:
            h = plan.h_at(n)
            if "kernel" in plan.estimators:
                res = _over_seeds(
                    lambda s: _kernel_run(plan.model, mask, n, h, plan.kernel_order, s, plan.ci_level),
                    plan.seeds,
                    plan.threads,
                )
                rows.append(
                    _summary_row(plan.model, mask, "kernel_t", n, h, [r.t_hat for r in res], plan.model.t_of(mask))
                )
                rows.append(
                    _summary_row(
                        plan.model, mask, "kernel_sobol", n, h, [r.sobol for r in res], plan.model.sobol_of(mask)
                    )
                )
            if "pf" in plan.estimators:
                from .baselines import pick_freeze_estimate

                vals = _over_seeds(
                    lambda s: pick_freeze_estimate(pick_freeze_design(plan.model, mask, n, s)),
                    plan.seeds,
                    plan.threads,
                )
                rows.append(_summary_row(plan.model, mask, "pf", n, None, vals, plan.model.sobol_of(mask)))
            if "nn" in plan.estimators:
                from .baselines import nn_estimate

                def nn_once(s, mask=mask, n=n):
                    fs1 = plan.model.draw(n, s, stream=0)
                    fs2 = plan.model.draw(n, s, stream=1)
                    idx = list(mask)
                    return nn_estimate((fs1.V[:, idx], fs1.Y), (fs2.V[:, idx], fs2.Y))

                vals = _over_seeds(nn_once, plan.seeds, plan.threads)
                rows.append(_summary_row(plan.model, mask, "nn_t", n, None, vals, plan.model.t_of(mask)))
            if "rank" in plan.estimators:
                from .baselines import rank_estimate

                if len(mask) != 1:
                    raise MirrorSobolError("rank estimator only supports singleton masks")

                def rank_once(s, mask=mask, n=n):
                    fs = plan.model.draw(n, s)
                    return rank_estimate(fs.V[:, mask[0]], fs.Y)

                vals = _over_seeds(rank_once, plan.seeds, plan.threads)
                rows.append(_summary_row(plan.model, mask, "rank", n, None, vals, plan.model.sobol_of(mask)))
    slopes = {}
    for (est, mask_label), pairs in _group_rmse(rows).items():
        if len(pairs) >= 2:
            ns, rmses = zip(*pairs)
            slopes[(est, mask_label)] = fit_loglog_slope(ns, rmses)
    return {"rows": rows, "slopes": slopes}


def _group_rmse(rows) -> dict:
    grouped = {}
    for row in rows:
        grouped.setdefault((row["estimator"], row["mask"]), []).append((row["n"], row["rmse"]))
    return grouped


def fit_loglog_slope(ns, rmses) -> float:
    """Least-squares slope of log RMSE against log n."""
    ns = np.asarray(ns, dtype=float)
    rmses = np.asarray(rmses, dtype=float)
    if np.any(rmses <= 0):
        raise MirrorSobolError("cannot fit a log-log slope through zero RMSE")
    return float(np.polyfit(np.log(ns), np.log(rmses), 1)[0])


def coverage_study(plan: ExperimentPlan, level: Optional[float] = None, variance_scale: float = 1.0) -> dict:
    """Fraction of seeds whose CI covers the true index, per mask and n.

    `variance_scale` rescales the variance before the interval is formed;
    setting it to 0.5 is the deliberate-miscalibration negative control.
    Only the kernel estimator produces intervals.
    """
    from scipy.stats import norm

    level = plan.ci_level if level is None else float(level)
    z = float(norm.ppf(0.5 + 0.5 * level))
    rows = []
    for mask in plan.masks:
        truth = plan.model.sobol_of(mask)
        for n in plan.n_grid:
            h = plan.h_at(n)
            res = _over_seeds(
                lambda s: _kernel_run(plan.model, mask, n, h, plan.kernel_order, s, level),
                plan.seeds,
                plan.threads,
            )
            halfwidths = np.array([z * math.sqrt(max(r.var_sobol, 0.0) * variance_scale / n) for r in res])
            centers = np.array([r.sobol for r in res])
            covered = np.abs(centers - truth) <= halfwidths
            row = _summary_row(plan.model, mask, "kernel_sobol", n, h, centers, truth)
            row["coverage"] = float(np.mean(covered))
            rows.append(row)
    return {"rows": rows, "level": level, "variance_scale": variance_scale}
