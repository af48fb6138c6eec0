"""Analytic test models, brute-force oracles, and Monte Carlo study drivers.

Each model carries the variances of its Hoeffding terms, derived by hand
integration; the partial variance t = E[E[Y|X]^2], Var(Y) and the Sobol'
index of every mask follow from them, so estimator runs can be scored
against exact truth.  `limiting_variances` gives the limiting variances
that the `compare` study prints, from E[Y^j | X] summed on a quadrature
rule in one walk.  `brute_force_t` is a literal transcription of the
pairwise estimator used as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._quad import gauss_legendre
from .baselines import PickFreezeSample, nn_estimate, pick_freeze_estimate, rank_estimate
from .domain import _check_mask, _is_integer, sign_matrix
from .errors import DegenerateOutputError, DomainViolationError, MirrorSobolError
from .estimator import FullSample, SubsetSpec, _normal_ci, _ratio_covariance, _resolve_density, estimate_sobol
from .inputs import InputModel, Uniform, sample
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
    "limiting_variances",
    "convergence_study",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class AnalyticModel:
    """Test function with its mean and the variances of its Hoeffding terms.

    `terms` maps each group of axes u (a sorted tuple) whose Hoeffding term
    Y_u is nonzero to Var(Y_u), derived by hand integration.  The partial
    variance Var(E[Y | X]) of a mask is the sum of the terms of the groups
    inside it, so t = E[E[Y | X]^2] adds mean_y^2, Var(Y) sums every term,
    and the Sobol' index divides the partial variance by Var(Y).
    """

    name: str
    input_model: InputModel
    g: Callable[[np.ndarray], np.ndarray]
    mean_y: float
    terms: dict

    @property
    def p(self) -> int:
        return self.input_model.p

    @property
    def var_y(self) -> float:
        return math.fsum(self.terms.values())

    def masks(self) -> list:
        return [m for d in range(1, self.p + 1) for m in itertools.combinations(range(self.p), d)]

    def _partial_variance(self, mask) -> float:
        key = set(_check_mask(mask, self.p))
        return math.fsum(v for u, v in self.terms.items() if set(u) <= key)

    def t_of(self, mask) -> float:
        return self._partial_variance(mask) + self.mean_y**2

    def sobol_of(self, mask) -> float:
        return self._partial_variance(mask) / self.var_y

    def draw(self, n: int, seed: int, stream: int = 0) -> FullSample:
        v = sample(self.input_model, n, seed, stream=stream)
        return FullSample(V=v, Y=self.g(v))


def _uniform_inputs(p: int, lo: float = 0.0, hi: float = 1.0) -> InputModel:
    return InputModel(tuple(Uniform(lo, hi) for _ in range(p)))


def _linear_model(name: str, alpha: float, p: int) -> AnalyticModel:
    """Y = V @ w with w = (alpha, 1, ..., 1) and uniform inputs on [0, 1]^p.

    Axis i alone carries a Hoeffding term, of variance w_i^2/12.  g adds the
    products with the weights one column at a time, left to right: the
    order numpy's row sum takes for p < 8, so unit weights give exactly the
    plain row sums there.
    """
    if p < 1:
        raise MirrorSobolError(f"{name} model needs p >= 1")
    w = np.ones(p)
    w[0] = alpha

    def g(v):
        v = np.asarray(v, dtype=float)
        out = v[:, 0] * w[0]
        for i in range(1, p):
            out += v[:, i] * w[i]
        return out

    return AnalyticModel(
        name=f"{name}{p}",
        input_model=_uniform_inputs(p),
        g=g,
        mean_y=float(np.sum(w)) / 2.0,
        terms={(i,): float(w[i] ** 2) / 12.0 for i in range(p)},
    )


def linear_model(p: int = 3) -> AnalyticModel:
    """Y = sum V_i on [0, 1]^p: t = d/12 + (p/2)^2 and S = d/p for a mask of size d."""
    return _linear_model("linear", 1.0, p)


def weighted_linear_model(alpha: float = 2.0, p: int = 3) -> AnalyticModel:
    """Y = alpha V_1 + sum_{i >= 2} V_i on [0, 1]^p; S^1 = alpha^2 / (alpha^2 + p - 1)."""
    return _linear_model("wlinear", alpha, p)


def ishigami_model(a: float = 7.0, b: float = 0.1) -> AnalyticModel:
    """Y = sin V_1 + a sin^2 V_2 + b V_3^4 sin V_1 on [-pi, pi]^3.

    The terms reduce to moments of sin and V^4 over [-pi, pi]:
    E[sin^2] = 1/2, E[V^4] = pi^4/5, E[V^8] = pi^8/9.  With c1 = E[1 + b V^4],
    the term of V_1 has variance c1^2/2, that of V_2 a^2/8, and the
    (V_1, V_3) interaction b^2 Var(V^4)/2 = 8 b^2 pi^8/225.
    """
    c1 = 1.0 + b * np.pi**4 / 5.0

    def g_full(v):
        v = np.asarray(v, dtype=float)
        return np.sin(v[:, 0]) + a * np.sin(v[:, 1]) ** 2 + b * v[:, 2] ** 4 * np.sin(v[:, 0])

    return AnalyticModel(
        name="ishigami",
        input_model=_uniform_inputs(3, -np.pi, np.pi),
        g=g_full,
        mean_y=0.5 * a,
        terms={(0,): 0.5 * c1 * c1, (1,): a * a / 8.0, (0, 2): 8.0 * b * b * np.pi**8 / 225.0},
    )


def product_model() -> AnalyticModel:
    """Y = V_1 V_2 on [0, 1]^2: g1(x) = x/2, t = 1/12, S = 3/7 per axis.

    Each axis has a term of variance 1/48 and the interaction 1/144, so
    Var(Y) = 7/144.
    """
    return AnalyticModel(
        name="product",
        input_model=_uniform_inputs(2),
        g=lambda v: np.asarray(v, dtype=float)[:, 0] * np.asarray(v, dtype=float)[:, 1],
        mean_y=0.25,
        terms={(0,): 1.0 / 48.0, (1,): 1.0 / 48.0, (0, 1): 1.0 / 144.0},
    )


def curved_model() -> AnalyticModel:
    """Y = V_1^3 + V_2 on [0, 1]^2; the cubic makes the smoothing bias visible.

    g1 for the first axis is x^3 + 1/2, t = 1/7 + 1/4 + 1/4 = 9/14,
    Var(Y) = 9/112 + 1/12 = 55/336, S^1 = 27/55, S^2 = 28/55.
    """
    return AnalyticModel(
        name="curved",
        input_model=_uniform_inputs(2),
        g=lambda v: np.asarray(v, dtype=float)[:, 0] ** 3 + np.asarray(v, dtype=float)[:, 1],
        mean_y=0.75,
        terms={(0,): 9.0 / 112.0, (1,): 1.0 / 12.0},
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
    f_fn, dom = _resolve_density(f_x, spec, domain)  # as estimate_t resolves it
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


def _freeze(model: AnalyticModel, mask, base: FullSample, v_alt: np.ndarray) -> PickFreezeSample:
    """The pick-freeze pair of `base`: its outputs, and those at v_alt with the masked inputs of base."""
    idx = sorted(int(i) for i in mask)
    v_pf = np.array(v_alt)
    v_pf[:, idx] = base.V[:, idx]
    return PickFreezeSample(Y=base.Y, Y_pf=model.g(v_pf))


_GL_NODES = 64
# nodes per slab of the rule (one leading mask index when p = 3): no
# temporary is a full-size row
_SLAB = 4096


def limiting_variances(model: AnalyticModel, mask) -> tuple:
    """The limiting variances of the kernel t, kernel Sobol' and nearest-neighbor estimators.

    With g1 = E[Y | X], g2 = E[Y^2 | X] and the expectations of `_mask_moments`:
    - 4 tau^2 = 4 Var(Y g1(X)) = 4 E[g1^2 g2] - 4 E[g1^2]^2, that of the
      kernel U-statistic of t, the variance of its influence row 2Y g1(X);
    - the delta-method variance `estimator._ratio_covariance` of the
      Sobol' estimator with the output pre-centered, the limit that
      `estimate_sobol` attains: with Y_c = Y - E[Y] and c_j = E[Y_c^j | X],
      its rows (2 Y_c c1, Y_c, Y_c^2) have the means (2E[c1^2], E[c1],
      E[c2]) and the second moments 4E[c1^2 c2], 2E[c1 c2], 2E[c1 c3],
      E[c2], E[c3] and E[c4];
    - sigma_D^2 = 2(E[g2^2] - E[g1^2]^2 + (E[g1^2 g2] - E[g1^4]) / 2), that of
      the two-sample nearest-neighbor estimator.
    """
    e = _mask_moments(model, mask)
    means = np.array([2.0 * e["c1*c1"], e["c1"], e["c2"]])
    c12, c13 = 2.0 * e["c1*c2"], 2.0 * e["c1*c3"]
    second = np.array([[4.0 * e["c1*c1*c2"], c12, c13], [c12, e["c2"], e["c3"]], [c13, e["c3"], e["c4"]]])
    gamma = second - np.outer(means, means)
    m, v = means[1], gamma[1, 1]
    if v <= 0.0:
        raise DegenerateOutputError("Var(Y) must be positive")
    sobol = float(_ratio_covariance(gamma, (0.5 * means[0] - m * m) / v, m, v)[0, 0])
    t = 4.0 * e["g1*g1*g2"] - 4.0 * e["g1*g1"] * e["g1*g1"]
    nn = 2.0 * (e["g2*g2"] - e["g1*g1"] * e["g1*g1"] + 0.5 * (e["g1*g1*g2"] - e["g1*g1*g1*g1"]))
    return float(t), sobol, float(nn)


def _mask_moments(model: AnalyticModel, mask) -> dict:
    """E over the masked inputs X of the products of the conditional moments that `limiting_variances` needs.

    c_j = E[(Y - mean_y)^j | X] for j = 1..4, g1 = c1 + mean_y and
    g2 = c2 + 2 mean_y c1 + mean_y^2; a key names its product, as "c1*c2".
    The expectations are taken on the 64-point tensor Gauss-Legendre rule
    over the input box, whose weights carry the joint density (exact for the
    polynomial models).  Models of more than 3 inputs are refused, since the
    rule holds 64^p nodes.  The rule is laid out with the mask axes leading
    and walked once, in slabs of whole leading mask indices, `_SLAB` nodes
    (all of them, if fewer): each slab holds whole conditional laws, so its
    c_j are sums of W_off Y_c^j over the off-mask axes, W_off their weight.
    On a full mask W_off is 1 and c_j = Y_c^j.  Only elementwise products
    and numpy sums are used, so no digit depends on the BLAS thread count.
    """
    p = model.p
    if p > 3:
        raise MirrorSobolError(
            f"limiting variances take at most 3 inputs; model {model.name!r} has {p} inputs, "
            f"and its tensor rule would hold 64^{p} = {_GL_NODES ** p} nodes"
        )
    key = tuple(sorted(_check_mask(mask, p)))
    order = key + tuple(axis for axis in range(p) if axis not in key)
    marginals = [model.input_model.marginals[axis] for axis in order]
    rules = [gauss_legendre(_GL_NODES, *m.support) for m in marginals]
    nodes = [x for x, _ in rules]
    mass = [w * m.pdf(x) for m, (x, w) in zip(marginals, rules)]
    # the flat weights of the other mask axes and of the off-mask axes
    w_rest, w_off = (np.ravel(math.prod(np.ix_(*mass[axes]))) for axes in (slice(1, len(key)), slice(len(key), p)))
    lead = min(_GL_NODES, _SLAB // _GL_NODES ** (p - 1))
    # the nodes of a slab in the rule's layout, each axis filled along its own
    # array axis; all but the leading mask axis are the same on every slab
    buf = np.empty((lead,) + (_GL_NODES,) * (p - 1) + (p,))
    for i in range(1, p):
        buf[..., order[i]] = nodes[i].reshape([-1 if a == i else 1 for a in range(p)])
    mu, sums = model.mean_y, 0.0
    for start in range(0, _GL_NODES, lead):
        buf[..., order[0]] = nodes[0][start : start + lead].reshape([-1] + [1] * (p - 1))
        y_c = model.g(buf.reshape(-1, p)).reshape(-1, w_off.size) - mu
        wy = w_off * y_c
        c = []
        for _ in range(4):  # powers by repeated multiplication
            c.append(np.sum(wy, axis=1))
            wy *= y_c
        c1, c2, c3, c4 = c
        g1, c1c1 = c1 + mu, c1 * c1
        g2 = c2 + 2.0 * mu * c1 + mu * mu
        g1g1 = g1 * g1
        w = (mass[0][start : start + lead, None] * w_rest).ravel()
        products = {
            "c1": c1, "c2": c2, "c3": c3, "c4": c4, "c1*c1": c1c1, "c1*c2": c1 * c2, "c1*c3": c1 * c3,
            "c1*c1*c2": c1c1 * c2, "g1*g1": g1g1, "g1*g1*g2": g1g1 * g2, "g1*g1*g1*g1": g1g1 * g1g1, "g2*g2": g2 * g2,
        }
        sums = sums + np.array([np.sum(w * a) for a in products.values()])
    return dict(zip(products, sums.tolist()))


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
        object.__setattr__(self, "mask", tuple(sorted(_check_mask(self.mask, self.model.p))))
        for field in ("seeds", "threads", "kernel_order"):
            if not _is_integer(getattr(self, field)):
                raise MirrorSobolError(f"{field} must be an integer, got {getattr(self, field)!r}")
            object.__setattr__(self, field, int(getattr(self, field)))
        grid = tuple(self.n_grid)
        if not (grid and all(map(_is_integer, grid)) and grid[0] >= 2 and list(grid) == sorted(set(grid))):
            raise MirrorSobolError(f"n_grid must be a nonempty ascending run of distinct integer sizes >= 2, got {grid}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.seeds < 1:
            raise MirrorSobolError(f"seeds must be >= 1, got {self.seeds}")
        unknown = set(self.estimators) - set(_ESTIMATOR_NAMES)
        if unknown:
            raise MirrorSobolError(f"unknown estimators {sorted(unknown)}")
        if "rank" in self.estimators and len(self.mask) != 1:
            raise MirrorSobolError(f"rank estimator only supports singleton masks, got {self.mask}")
        if self.threads < 1:
            raise MirrorSobolError(f"threads must be >= 1, got {self.threads}")


def _over_seeds(fn: Callable[[int], object], seeds: Sequence[int], threads: int) -> list:
    """Evaluate fn on every seed; results ordered by seed index at any worker count.

    The calling process and min(threads, len(seeds)) - 1 forked worker
    processes take the seeds in turn.  A worker inherits the caller's memory,
    so fn need not pickle; it sends its results and errors by seed index back
    by pickle through its own pipe and leaves by os._exit.  A worker stops at
    its first error; once all are done and reaped, the error of the lowest
    failing seed is raised.  A worker that sends no readable result fails at
    its first seed, and no worker outlives the call.
    """
    workers = max(1, min(threads, len(seeds))) if hasattr(os, "fork") else 1
    results, errors = [None] * len(seeds), {}

    def work(first: int) -> None:
        try:
            for i in range(first, len(seeds), workers):
                results[i] = fn(seeds[i])
        except Exception as exc:  # raised below; an interrupt leaves at once, and the workers are stopped
            errors[i] = exc

    fds, pending = [], {}  # the open pipe ends; pid -> (first seed index, read end) of each unreaped worker
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            fds += [read_end, write_end]
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's stack
                status = 1
                try:
                    work(first)
                    with open(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps((results[first::workers], errors)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(fds.pop())
            pending[pid] = (first, read_end)
        work(0)
        for pid, (first, read_end) in list(pending.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pending[pid]
            try:
                results[first::workers], sent = pickle.loads(data)
                errors.update(sent)
            except Exception:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                lost = list(seeds[first::workers])
                errors[first] = MirrorSobolError(f"the worker process of seeds {lost} {how} and sent no readable result")
    finally:
        for fd in fds:
            os.close(fd)
        if pending:  # interrupted, or a fork failed: stop the workers that are left
            import signal

            for pid in pending:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if errors:
        raise errors[min(errors)]
    return results


def _seed_runner(plan: ExperimentPlan) -> Callable[[int, float], list]:
    """run(n, h): for seeds 0..seeds-1, a dict from each estimator of the plan to its estimate.

    A seed draws stream 0 once, and stream 1 once if pf or nn runs; every
    estimator reads those draws.  One kernel and spec serve the study.
    """
    spec, kernel, model, mask = SubsetSpec(plan.mask), build_kernel(plan.kernel_order), plan.model, list(plan.mask)

    def replicate(n: int, h: float, seed: int) -> dict:
        try:
            base = model.draw(n, seed)
            alt = model.draw(n, seed, stream=1) if {"pf", "nn"} & set(plan.estimators) else None
            out = {}
            if "kernel" in plan.estimators:
                out["kernel"] = estimate_sobol(base, spec, kernel, h, model.input_model)
            if "pf" in plan.estimators:
                out["pf"] = pick_freeze_estimate(_freeze(model, mask, base, alt.V))
            if "nn" in plan.estimators:
                out["nn"] = nn_estimate((base.V[:, mask], base.Y), (alt.V[:, mask], alt.Y))
            if "rank" in plan.estimators:
                out["rank"] = rank_estimate(base.V[:, mask[0]], base.Y)
            return out
        except MirrorSobolError as exc:  # the message names the replicate; the type and fields stay
            exc.args = (f"seed {seed}, n={n}: {exc}",)
            raise

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


def convergence_study(plan: ExperimentPlan, ci_level: Optional[float] = None, variance_scale: float = 1.0) -> dict:
    """RMSE against truth across n_grid for the plan's mask, with log-log slope fits.

    Returns {"rows": [...], "slopes": {...}} where rows carry the columns
    (model, mask, estimator, n, h, seed_count, mean, rmse, var_scaled_by_n,
    coverage) and slopes map (estimator_label, mask_label) to the fitted
    log-log slope of RMSE in n.  A series with a zero RMSE has no slope: on
    a full mask pick-freeze's Y_pf is Y, so its index is exactly 1.

    With a `ci_level`, the coverage of a kernel_sobol row is the fraction of
    seeds whose interval at that level covers the true index, the variance
    rescaled by `variance_scale` first (0.5 is the deliberate-miscalibration
    negative control).  Every other coverage cell is blank.
    """
    if ci_level is not None and not 0.0 < ci_level < 1.0:
        raise MirrorSobolError(f"ci level must lie in (0, 1), got {ci_level}")
    model, mask = plan.model, plan.mask
    run = _seed_runner(plan)
    rows = []
    for n in plan.n_grid:
        h = float(plan.h_rule(n)) if "kernel" in plan.estimators else None
        res = run(n, h)
        if "kernel" in plan.estimators:
            fits, sobol = [r["kernel"] for r in res], model.sobol_of(mask)
            rows.append(_summary_row(model, mask, "kernel_t", n, h, [r.t_hat for r in fits], model.t_of(mask)))
            rows.append(_summary_row(model, mask, "kernel_sobol", n, h, [r.sobol for r in fits], sobol))
            if ci_level is not None:
                intervals = [_normal_ci(r.sobol, r.var_sobol * variance_scale, n, ci_level) for r in fits]
                rows[-1]["coverage"] = float(np.mean([lo <= sobol <= hi for lo, hi in intervals]))
        for name, label, truth in (("pf", "pf", model.sobol_of), ("nn", "nn_t", model.t_of), ("rank", "rank", model.sobol_of)):
            if name in plan.estimators:
                rows.append(_summary_row(model, mask, label, n, None, [r[name] for r in res], truth(mask)))
    grouped = {}
    for row in rows:
        grouped.setdefault((row["estimator"], row["mask"]), []).append((row["n"], row["rmse"]))
    slopes = {}
    for key, pairs in grouped.items():
        ns, rmses = zip(*pairs)
        if len(pairs) >= 2 and min(rmses) > 0.0:
            slopes[key] = fit_loglog_slope(ns, rmses)
    return {"rows": rows, "slopes": slopes}


def fit_loglog_slope(ns, rmses) -> float:
    """Least-squares slope of log RMSE against log n."""
    ns = np.asarray(ns, dtype=float)
    rmses = np.asarray(rmses, dtype=float)
    if np.any(rmses <= 0):
        raise MirrorSobolError("cannot fit a log-log slope through zero RMSE")
    return float(np.polyfit(np.log(ns), np.log(rmses), 1)[0])
