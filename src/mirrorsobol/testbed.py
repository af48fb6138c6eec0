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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._quad import gauss_legendre
from .baselines import _SLAB, PickFreezeSample, VarianceOracles, nn_estimate, pick_freeze_estimate, rank_estimate
from .domain import sign_matrix
from .errors import DomainViolationError, MirrorSobolError
from .estimator import FullSample, SubsetSpec, _normal_ci, estimate_sobol
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


def _linear_model(name: str, alpha: float, p: int) -> AnalyticModel:
    """Y = V @ w with w = (alpha, 1, ..., 1) and uniform inputs on [0, 1]^p.

    For a mask: g1(x) = x @ w_in + sum(w_out)/2, the remaining inputs
    contribute sum(w_out^2)/12 of conditional variance, Var(Y) = sum(w^2)/12,
    and the index is sum(w_in^2) / sum(w^2).  Products with the weights are
    summed row-wise, so unit weights give exactly the plain row sums.
    """
    if p < 1:
        raise MirrorSobolError(f"{name} model needs p >= 1")
    w = np.ones(p)
    w[0] = alpha
    total = float(np.sum(w**2))
    var_y = total / 12.0
    mean_y = float(np.sum(w)) / 2.0
    g1_funcs, g2_funcs, true_t, true_sobol = {}, {}, {}, {}
    for d in range(1, p + 1):
        for mask in itertools.combinations(range(p), d):
            w_in = w[list(mask)]
            w_out = np.delete(w, list(mask))

            def g1(xm, w_in=w_in, shift=float(np.sum(w_out)) / 2.0):
                return (xm * w_in).sum(axis=1) + shift

            def g2(xm, g1=g1, cvar=float(np.sum(w_out**2)) / 12.0):
                return g1(xm) ** 2 + cvar

            g1_funcs[mask] = g1
            g2_funcs[mask] = g2
            part = float(np.sum(w_in**2))
            true_t[mask] = part / 12.0 + mean_y**2
            true_sobol[mask] = part / total
    return AnalyticModel(
        name=f"{name}{p}",
        input_model=_uniform_inputs(p),
        g=lambda v, w=w: (np.asarray(v, dtype=float) * w).sum(axis=1),
        g1_funcs=g1_funcs,
        g2_funcs=g2_funcs,
        true_t=true_t,
        true_sobol=true_sobol,
        mean_y=mean_y,
        var_y=var_y,
    )


def linear_model(p: int = 3) -> AnalyticModel:
    """Y = sum V_i on [0, 1]^p: t = d/12 + (p/2)^2 and S = d/p for a mask of size d."""
    return _linear_model("linear", 1.0, p)


def weighted_linear_model(alpha: float = 2.0, p: int = 3) -> AnalyticModel:
    """Y = alpha V_1 + sum_{i >= 2} V_i on [0, 1]^p; S^1 = alpha^2 / (alpha^2 + p - 1)."""
    return _linear_model("wlinear", alpha, p)


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
    outside = np.nonzero(~sub.contains(xm))[0]
    if outside.size:
        raise DomainViolationError(f"rows {outside[:10].tolist()} lie outside the domain on the masked axes")
    signs = sign_matrix(sub, xm)
    y = sample.Y
    fvals = np.asarray(f_fn(xm), dtype=float)
    n = sample.n
    total = 0.0
    for j in range(n):
        for jp in range(j + 1, n):
            left = kernel.eval_scaled(signs[j] * (xm[jp] - xm[j]), h) / fvals[j]
            right = kernel.eval_scaled(signs[jp] * (xm[j] - xm[jp]), h) / fvals[jp]
            total += (y[j] * y[jp] / 2.0) * (left + right)
    return total / math.comb(n, 2)


def pick_freeze_design(model: AnalyticModel, mask, n: int, seed: int) -> PickFreezeSample:
    """Pick-freeze design for the masked group: X shared, the rest redrawn.

    The complementary inputs of the second call come from stream 1 of the
    same seed, independent of the base draw (stream 0).
    """
    return _freeze(model, mask, model.draw(n, seed), model.draw(n, seed, stream=1).V)


def _freeze(model: AnalyticModel, mask, base: FullSample, v_alt: np.ndarray) -> PickFreezeSample:
    """The pick-freeze pair of `base`: its outputs, and those at v_alt with the masked inputs of base."""
    idx = sorted(int(i) for i in mask)
    v_pf = np.array(v_alt)
    v_pf[:, idx] = base.V[:, idx]
    return PickFreezeSample(Y=base.Y, Y_pf=model.g(v_pf))


_GL_NODES = 64


def variance_oracles(model: AnalyticModel, mask) -> VarianceOracles:
    """Y, g1 and g2 of the mask at the nodes of a 64-point tensor Gauss-Legendre rule.

    The rule covers the input box and its weights carry the joint density,
    so E[phi(Y, X)] is `weights @ phi` (exact for the polynomial models),
    summed over the slabs of `baselines._slabs`.  Models of more than 3
    inputs are refused, since the rule holds 64^p nodes.  Only Y is stored on
    the rule, evaluated in slabs of 4096 nodes; the weights are stored per
    axis, and g1 and g2 on the 64^d nodes of the masked axes, where
    g2 >= g1^2 is checked before Y is evaluated.  On a full mask g1 = Y and
    g2 = Y^2, and neither is stored.
    """
    key = tuple(sorted(int(i) for i in mask))
    p = model.p
    if p > 3:
        raise MirrorSobolError(
            f"variance oracles take at most 3 inputs; model {model.name!r} has {p} inputs, "
            f"and its tensor rule would hold 64^{p} = {_GL_NODES ** p} nodes"
        )
    if not key or key[0] < 0 or key[-1] >= p:
        raise MirrorSobolError(f"mask {key} is out of range for model {model.name!r} with p = {p} inputs")
    marginals = model.input_model.marginals
    axes = [gauss_legendre(_GL_NODES, *m.support) for m in marginals]
    g1 = g2 = None  # on a full mask E[Y | X] = Y, and `baselines._slabs` uses Y
    if len(key) < p:
        mask_nodes = [axes[i][0] for i in key]
        g1 = _on_tensor_grid(lambda xm: model.g1(key, xm), mask_nodes)
        g2 = _on_tensor_grid(lambda xm: model.g2(key, xm), mask_nodes)
        gap = g2 - g1 * g1
        low, high = float(np.min(gap)), float(np.max(gap))
        if low < -1e-8 * max(1.0, -low, high):
            raise MirrorSobolError(f"conditional variance negative for model {model.name!r}, mask {key}: min gap {low}")
        shape = [_GL_NODES if i in key else 1 for i in range(p)]
        g1, g2 = g1.reshape(shape), g2.reshape(shape)
    pdf = [_along(marg.pdf(x), axis, p) for axis, (marg, (x, _)) in enumerate(zip(marginals, axes))]
    weights = [_along(w, axis, p) for axis, (_, w) in enumerate(axes)] + [f for f in pdf if np.any(f != 1.0)]
    y = _on_tensor_grid(model.g, [x for x, _ in axes])
    return VarianceOracles(y, g1, g2, tuple(weights))


def _on_tensor_grid(fn, nodes) -> np.ndarray:
    """fn at the tensor grid of the per-axis `nodes`, one array axis per grid axis.

    fn maps an array of rows (points) to their values.  It is called on
    slabs of whole leading-axis indices, `_SLAB` rows (all rows, if fewer),
    filled one at a time in a reused buffer: only the leading axis changes.
    """
    d, shape = len(nodes), tuple(x.size for x in nodes)
    slab = (min(shape[0], _SLAB * shape[0] // math.prod(shape)),) + shape[1:]
    buf = np.empty(slab + (d,))
    for axis in range(1, d):
        buf[..., axis] = _along(nodes[axis], axis, d)
    out = np.empty(shape)
    for start in range(0, shape[0], slab[0]):
        buf[..., 0] = _along(nodes[0][start : start + slab[0]], 0, d)
        out[start : start + slab[0]] = fn(buf.reshape(-1, d)).reshape(slab)
    return out


def _along(x: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """x as an array of ndim axes that runs along `axis`, for broadcasting."""
    return x.reshape([x.size if i == axis else 1 for i in range(ndim)])


# --------------------------------------------------------------------------
# experiment drivers


# the estimators a study can run
_ESTIMATOR_NAMES = ("kernel", "pf", "nn", "rank")


@dataclass(frozen=True)
class ExperimentPlan:
    """One mask of a model over seeds 0..seeds-1 at each n of n_grid, with kernel bandwidth h_rule(n)."""

    model: AnalyticModel
    mask: tuple
    n_grid: tuple
    h_rule: Callable[[int], float]
    kernel_order: int
    seeds: int
    estimators: tuple
    threads: int

    def __post_init__(self):
        object.__setattr__(self, "mask", tuple(sorted(int(i) for i in self.mask)))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "seeds", int(self.seeds))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.seeds < 1:
            raise MirrorSobolError(f"seeds must be >= 1, got {self.seeds}")
        if list(self.n_grid) != sorted(self.n_grid):
            raise MirrorSobolError("n_grid must be ascending")
        unknown = set(self.estimators) - set(_ESTIMATOR_NAMES)
        if unknown:
            raise MirrorSobolError(f"unknown estimators {sorted(unknown)}")
        if "rank" in self.estimators and len(self.mask) != 1:
            raise MirrorSobolError(f"rank estimator only supports singleton masks, got {self.mask}")
        if self.threads < 1:
            raise MirrorSobolError(f"threads must be >= 1, got {self.threads}")


def _over_seeds(fn: Callable[[int], object], seeds: Sequence[int], threads: int) -> list:
    """Evaluate fn on every seed; results ordered by seed index regardless of threads."""
    workers = min(threads, len(seeds))
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


def _seed_runner(plan: ExperimentPlan, estimators) -> Callable[[int, float], list]:
    """run(n, h): for seeds 0..seeds-1, a dict from each of `estimators` to its estimate.

    A seed draws stream 0 once, and stream 1 once if pf or nn runs; every
    estimator reads those draws.  One kernel and spec serve the study.
    """
    spec, kernel, model, mask = SubsetSpec(plan.mask), build_kernel(plan.kernel_order), plan.model, list(plan.mask)

    def replicate(n: int, h: float, seed: int) -> dict:
        base = model.draw(n, seed)
        alt = model.draw(n, seed, stream=1) if {"pf", "nn"} & set(estimators) else None
        out = {}
        if "kernel" in estimators:
            out["kernel"] = estimate_sobol(base, spec, kernel, h, model.input_model)
        if "pf" in estimators:
            out["pf"] = pick_freeze_estimate(_freeze(model, mask, base, alt.V))
        if "nn" in estimators:
            out["nn"] = nn_estimate((base.V[:, mask], base.Y), (alt.V[:, mask], alt.Y))
        if "rank" in estimators:
            out["rank"] = rank_estimate(base.V[:, mask[0]], base.Y)
        return out

    return lambda n, h: _over_seeds(lambda s: replicate(n, h, s), range(plan.seeds), plan.threads)


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
    """RMSE against truth across n_grid for the plan's mask, with log-log slope fits.

    Returns {"rows": [...], "slopes": {...}} where rows carry the columns
    (model, mask, estimator, n, h, seed_count, mean, rmse, var_scaled_by_n,
    coverage) and slopes map (estimator_label, mask_label) to the fitted
    log-log slope of RMSE in n.
    """
    model, mask = plan.model, plan.mask
    run = _seed_runner(plan, plan.estimators)
    rows = []
    for n in plan.n_grid:
        h = float(plan.h_rule(n)) if "kernel" in plan.estimators else None
        res = run(n, h)
        if "kernel" in plan.estimators:
            rows.append(_summary_row(model, mask, "kernel_t", n, h, [r["kernel"].t_hat for r in res], model.t_of(mask)))
            rows.append(_summary_row(model, mask, "kernel_sobol", n, h, [r["kernel"].sobol for r in res], model.sobol_of(mask)))
        for name, label, truth in (("pf", "pf", model.sobol_of), ("nn", "nn_t", model.t_of), ("rank", "rank", model.sobol_of)):
            if name in plan.estimators:
                rows.append(_summary_row(model, mask, label, n, None, [r[name] for r in res], truth(mask)))
    grouped = {}
    for row in rows:
        grouped.setdefault((row["estimator"], row["mask"]), []).append((row["n"], row["rmse"]))
    slopes = {}
    for key, pairs in grouped.items():
        if len(pairs) >= 2:
            ns, rmses = zip(*pairs)
            slopes[key] = fit_loglog_slope(ns, rmses)
    return {"rows": rows, "slopes": slopes}


def fit_loglog_slope(ns, rmses) -> float:
    """Least-squares slope of log RMSE against log n."""
    ns = np.asarray(ns, dtype=float)
    rmses = np.asarray(rmses, dtype=float)
    if np.any(rmses <= 0):
        raise MirrorSobolError("cannot fit a log-log slope through zero RMSE")
    return float(np.polyfit(np.log(ns), np.log(rmses), 1)[0])


def coverage_study(plan: ExperimentPlan, ci_level: float = 0.95, variance_scale: float = 1.0) -> dict:
    """Fraction of seeds whose CI at level `ci_level` covers the true index at each n.

    `variance_scale` rescales the variance before the interval is formed;
    setting it to 0.5 is the deliberate-miscalibration negative control.
    Only the kernel estimator produces intervals.  Returns {"rows": [...]}.
    """
    if not 0.0 < ci_level < 1.0:
        raise MirrorSobolError(f"ci level must lie in (0, 1), got {ci_level}")
    model, mask = plan.model, plan.mask
    truth = model.sobol_of(mask)
    run = _seed_runner(plan, ("kernel",))
    rows = []
    for n in plan.n_grid:
        h = float(plan.h_rule(n))
        res = [r["kernel"] for r in run(n, h)]
        intervals = [_normal_ci(r.sobol, r.var_sobol * variance_scale, n, ci_level) for r in res]
        row = _summary_row(model, mask, "kernel_sobol", n, h, [r.sobol for r in res], truth)
        row["coverage"] = float(np.mean([lo <= truth <= hi for lo, hi in intervals]))
        rows.append(row)
    return {"rows": rows}
