"""Kernel U-statistic estimation of E[E[Y|X]^2] and Sobol' indices.

The point estimator is the pairwise U-statistic

    T = C(n,2)^{-1} sum_{j<j'} (Y_j Y_{j'} / 2)
        [ K_h(A_{X_j}(X_{j'} - X_j)) / f_X(X_j)
        + K_h(A_{X_{j'}}(X_j - X_{j'})) / f_X(X_{j'}) ],

with no diagonal terms and the mirror transform A_x keeping every kernel
window inside the domain.  Grouping the sum by the anchor point gives

    T = (1 / (n (n-1))) sum_a (Y_a / f_X(X_a)) G_a,
    G_a = sum_{b != a} Y_b K_h(A_{X_a}(X_b - X_a)),

so one pass producing the row sums G serves the point estimate and the
leave-one-out regression plug-in g1_hat_a = G_a / ((n-1) f_X(X_a)).  Every
Sobol' variance comes from one delta-method rule, `_ratio_covariance`: J' Gamma J,
where Gamma is the covariance of the rows (2Y g1_hat, Y, Y^2) and J the
Jacobian of the ratio S = (T - E[Y]^2) / Var(Y).  At the sample's moments,
formed in `_influence_covariance` alone, it serves `estimate_sobol`, the
first-order sweep (one row 2Y g1_hat per axis) and the total index; at
population moments, the limiting variances of `testbed`.  Empirical
moments use the 1/n convention, with no Bessel correction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Union

import numpy as np

from ._window import _stable_order, window_sums
from .domain import Domain, _check_mask, check_mirror_condition
from .errors import (
    BandwidthTooLargeError,
    DegenerateOutputError,
    DomainViolationError,
    InsufficientSampleError,
    MirrorSobolError,
    SingularDensityError,
)
from .inputs import InputModel, subset_density_fn
from .kernels import KernelD

__all__ = [
    "EPS_FLOOR",
    "FullSample",
    "SubsetSpec",
    "EstimateResult",
    "estimate_t",
    "estimate_sobol",
    "estimate_total_sobol",
    "estimate_first_order_all",
]

# Densities at or below this floor abort estimation: a vanishing f_X makes the
# division in the U-statistic meaningless for the affected rows.
EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class FullSample:
    """n input rows paired with n scalar outputs."""

    V: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        v = np.array(self.V, dtype=float)
        y = np.array(self.Y, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or y.ndim != 1 or v.shape[0] != y.shape[0]:
            raise MirrorSobolError(f"sample shapes {v.shape} and {y.shape} do not align")
        if v.shape[0] < 2:
            raise InsufficientSampleError(f"need at least 2 rows, got {v.shape[0]}")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(y))):
            raise MirrorSobolError("sample contains non-finite values")
        v.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "Y", y)

    @property
    def n(self) -> int:
        return self.Y.size

    @property
    def p(self) -> int:
        return self.V.shape[1]


@dataclass(frozen=True)
class SubsetSpec:
    """Nonempty group of input axes (0-based) defining X = (V_i)_{i in mask}."""

    mask: tuple

    def __post_init__(self):
        mask = (self.mask,) if np.ndim(self.mask) == 0 else self.mask
        object.__setattr__(self, "mask", _check_mask(mask))


@dataclass(frozen=True)
class EstimateResult:
    """Point estimates with CLT variances and a normal confidence interval."""

    t_hat: float
    sobol: float
    var_t: float
    var_sobol: float
    ci_level: float
    ci: tuple
    n_used: int
    h_used: float

    def to_json(self) -> dict:
        return {
            "t_hat": self.t_hat,
            "sobol": self.sobol,
            "var_t": self.var_t,
            "var_sobol": self.var_sobol,
            "ci_level": self.ci_level,
            "ci": [self.ci[0], self.ci[1]],
            "n": self.n_used,
            "h": self.h_used,
        }


# --------------------------------------------------------------------------
# validation


def _resolve_density(f_x, spec: SubsetSpec, domain: Optional[Domain]):
    """Accept an InputModel, a density estimate exposing `eval_rows`, or a vectorized callable."""
    if isinstance(f_x, InputModel):
        fn = subset_density_fn(f_x, spec.mask)
        dom = domain if domain is not None else f_x.domain
        return fn, dom
    if domain is None:
        raise MirrorSobolError("a domain is required when f_x is not an InputModel")
    return getattr(f_x, "eval_rows", f_x), domain


def _prepare(sample: FullSample, spec: SubsetSpec, h: float, f_x, domain):
    f_fn, dom = _resolve_density(f_x, spec, domain)
    if dom.dim != sample.p:
        raise MirrorSobolError(
            f"domain dimension {dom.dim} does not match the sample's input count {sample.p}; "
            f"the domain always describes the full input space"
        )
    sub = dom.subdomain(spec.mask)  # the mask rule at p = sample.p
    xm = sample.V[:, spec.mask]
    outside = np.flatnonzero(~sub.contains(xm))
    if outside.size:
        raise DomainViolationError(f"rows {outside[:10].tolist()} fall outside the domain on the masked axes")
    if not check_mirror_condition(sub, h):
        raise BandwidthTooLargeError(
            f"h={h} violates the mirror condition: the window h/2 must fit in every axis "
            f"(min width {np.min(sub.widths)})"
        )
    fvals = np.asarray(f_fn(xm), dtype=float)
    if fvals.shape != (sample.n,):
        raise MirrorSobolError(f"density oracle returned shape {fvals.shape}, expected ({sample.n},)")
    infinite = np.flatnonzero(~np.isfinite(fvals))
    if infinite.size:
        raise SingularDensityError(f"density at rows {infinite[:10].tolist()} is not finite", indices=infinite)
    low = np.nonzero(~(fvals > EPS_FLOOR))[0]
    if low.size:
        raise SingularDensityError(
            f"density at rows {low[:10].tolist()} is at or below the floor {EPS_FLOOR}", indices=low
        )
    return xm, fvals, sub


# --------------------------------------------------------------------------
# point estimators


def estimate_t(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    h: float,
    f_x: Union[Callable, InputModel],
    *,
    domain: Optional[Domain] = None,
) -> float:
    """Point estimate of E[E[Y|X]^2] by the pairwise kernel U-statistic.

    `f_x` is either an `InputModel` (the subset density and domain are
    derived from it), or the density of the masked rows given as a
    vectorized callable or as a `DensityEstimate` (anything exposing
    `eval_rows`), in which case `domain` is required.  The result is summed
    in the window engine's canonical row order, so it does not depend on the
    ordering of the sample rows.  It is the exact U-statistic, so on a sample
    in which no window holds a second point it sums zero pairs and returns
    0.0; `estimate_sobol` and `bandwidth_curve` refuse such a sample with an
    `InsufficientSampleError`.
    """
    return _finite(_t_values(_prepare(sample, spec, h, f_x, domain), sample.Y, kernel, [h]), sample.Y)[0]


def _t_values(prepared: tuple, y: np.ndarray, kernel: KernelD, hs, paired: Optional[list] = None) -> list:
    """estimate_t with outputs y at each bandwidth of the ascending sequence hs, from one pass of window sums.

    `prepared` is what `_prepare` returns at hs[-1], the largest bandwidth.
    A list `paired` as long as hs gets paired[j]: whether some window holds
    a second point at hs[j], by `_estimate`'s rule that its sums are not all 0.0.
    """
    xm, fvals, sub = prepared
    n = y.size
    order, blocks = window_sums(xm, y[:, None], kernel, hs, sub)
    t = [0.0] * len(hs)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers refuse an overflow (`_finite`)
        u = (y / fvals)[order]  # in the canonical row order, so np.sum is free of the input order
        for js, sums in blocks:
            for j, g in zip(js, sums):
                t[j] = float(np.sum(u * g[:, 0])) / (n * (n - 1))
                if paired is not None:
                    paired[j] = bool(np.any(g))
            del sums, g  # one block at a time: the next one's work need not hold it
    return t


def _finite(values, *ys):
    """values, or a DegenerateOutputError naming the scale of the outputs ys if one of them overflowed."""
    if not np.all(np.isfinite(values)):
        top = max(np.max(np.abs(y)) for y in ys)
        raise DegenerateOutputError(f"outputs up to |Y| = {top:.3g} overflow the estimator's floating-point sums; rescale Y")
    return values


def _centered(y: np.ndarray) -> np.ndarray:
    """y - mean(y), the mean taken over the sorted outputs so that it does not depend on the row order."""
    return y - float(np.mean(np.sort(y)))


# --------------------------------------------------------------------------
# the delta-method rule and confidence intervals


def _variance(v: np.ndarray) -> float:
    # a negative value is rounding noise; max(NaN, 0.0) is NaN, so an overflow shows
    return max(float(np.mean(v * v) - np.mean(v) ** 2), 0.0)


def _empirical_covariance(rows: np.ndarray) -> np.ndarray:
    """Covariance matrix of the rows of a (k, n) array, 1/n convention."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    return (centered @ centered.T) / rows.shape[1]


def _ratio_covariance(gamma: np.ndarray, sobol, m: float, v: float) -> np.ndarray:
    """J' Gamma J, the delta-method covariance of q ratios S_i = (T_i - m^2) / v.

    Gamma is the covariance of (2Y g1^(1), ..., 2Y g1^(q), Y, Y^2); the row
    2Y g1^(i) is the influence of the U-statistic T_i, so J holds 1/v for
    T_i, 2m(S_i - 1)/v for E[Y] and -S_i/v for E[Y^2].  m = E[Y] and
    v = Var(Y), empirical or population alike.
    """
    sobol = np.atleast_1d(np.asarray(sobol, dtype=float))
    jac = np.vstack([np.eye(sobol.size), 2.0 * m * (sobol - 1.0), -sobol]) / v
    return jac.T @ gamma @ jac


def _influence_covariance(influence, y_c: np.ndarray, sobol) -> np.ndarray:
    """`_ratio_covariance` at the empirical covariance of the q influence rows, Y_c and Y_c^2."""
    rows = np.vstack([influence, y_c, y_c * y_c])
    return _ratio_covariance(_empirical_covariance(rows), sobol, float(np.mean(y_c)), _variance(y_c))


def _normal_ci(center: float, var: float, n: int, level: float) -> tuple:
    z = NormalDist().inv_cdf(0.5 + 0.5 * level)
    halfwidth = z * math.sqrt(max(var, 0.0) / n)
    return (center - halfwidth, center + halfwidth)


def _estimate(sample: FullSample, spec: SubsetSpec, kernel: KernelD, h: float, f_x, domain, ci_level: float):
    """The estimation core behind every index function: (EstimateResult, influence).

    influence is the row 2 Y_c g1_c of the centered outputs Y_c = Y - Ybar
    and their leave-one-out plug-in, in the input row order, which the
    first-order sweep stacks for its joint covariance.  Every sum runs in
    the window engine's canonical row order, free of the input row order.
    """
    if not (0.0 < ci_level < 1.0):
        raise MirrorSobolError(f"ci level must lie in (0, 1), got {ci_level}")
    xm, fvals, sub = _prepare(sample, spec, h, f_x, domain)
    n = sample.n
    y_c = _centered(sample.Y)
    # one pass for both columns; the centered one is its own column, not a
    # difference of sums, so shifting Y moves the ratio only by rounding
    order, blocks = window_sums(xm, np.column_stack([sample.Y, y_c]), kernel, [h], sub)
    y, y_c, fvals = sample.Y[order], y_c[order], fvals[order]
    # the variance of the centered column, so the ratio does not lose digits
    # when |E[Y]| is large against sd(Y)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        s2 = _variance(y_c)
        if s2 <= 0.0:
            raise DegenerateOutputError("output variance is zero; the Sobol' ratio is undefined")
        g, g_c = next(blocks)[1][0].T  # one bandwidth: one block
        # every backend sums a window that holds only its anchor to 0.0
        if not (np.any(g) or np.any(g_c)):
            raise InsufficientSampleError(f"no window holds a second sample point at h={h}; raise h or n")
        t_hat = float(np.sum((y / fvals) * g)) / (n * (n - 1))
        t_centered = float(np.sum((y_c / fvals) * g_c)) / (n * (n - 1))
        sobol = t_centered / s2
        # 2 Y g1 is exactly twice Y g1, so var_t is 4 Var(Y g1)
        var_t = _variance(2.0 * y * (g / ((n - 1) * fvals)))
        influence = 2.0 * y_c * (g_c / ((n - 1) * fvals))
        var_sobol = float(_influence_covariance(influence, y_c, sobol)[0, 0])
    _finite([s2, t_hat, t_centered, var_t, var_sobol], y)
    # a quadratic form in a covariance matrix: a negative value is rounding noise
    var_sobol = max(0.0, var_sobol)
    result = EstimateResult(
        t_hat=t_hat,
        sobol=sobol,
        var_t=var_t,
        var_sobol=var_sobol,
        ci_level=ci_level,
        ci=_normal_ci(sobol, var_sobol, n, ci_level),
        n_used=n,
        h_used=float(h),
    )
    rows = np.empty(n)
    rows[order] = influence
    return result, rows


def estimate_sobol(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    h: float,
    f_x: Union[Callable, InputModel],
    *,
    domain: Optional[Domain] = None,
    ci_level: float = 0.95,
) -> EstimateResult:
    """Sobol' index estimate with CLT confidence interval.

    The ratio is the variance plug-in T(Y - Ybar) / s_Y^2, i.e. the pairwise
    statistic applied to outputs centered at their empirical mean.  Since the
    index of the centered output equals the index of the raw output, this is
    the same plug-in ratio, but it is invariant under affine output maps up
    to rounding and avoids the mean-coupling noise terms of the uncentered
    form.  Empirical moments use the 1/n convention with no Bessel
    correction; the raw t_hat is reported alongside.
    """
    return _estimate(sample, spec, kernel, h, f_x, domain, ci_level)[0]


def estimate_total_sobol(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    h: float,
    f_x: Union[Callable, InputModel],
    *,
    domain: Optional[Domain] = None,
    ci_level: float = 0.95,
) -> EstimateResult:
    """Total index of the group `spec`: 1 - S^{complement}.

    The returned result is the complement estimate with the index and its
    interval reflected.  `f_x` must be an InputModel so the complement's
    density can be derived from it.
    """
    if not isinstance(f_x, InputModel):
        raise MirrorSobolError("total index estimation needs an InputModel to derive the complement density")
    complement = tuple(i for i in range(f_x.p) if i not in spec.mask)
    if not complement:
        raise MirrorSobolError("total index of the full input set is identically 1")
    res = _estimate(sample, SubsetSpec(complement), kernel, h, f_x, domain, ci_level)[0]
    return dataclasses.replace(res, sobol=1.0 - res.sobol, ci=(1.0 - res.ci[1], 1.0 - res.ci[0]))


def estimate_first_order_all(
    sample: FullSample,
    kernel: KernelD,
    h: float,
    model: InputModel,
    *,
    ci_level: float = 0.95,
) -> tuple:
    """All first-order indices on one sample, with their joint covariance.

    Returns (results, Sigma): per-axis EstimateResult list, each equal to
    estimate_sobol on that axis, and the p x p delta-method covariance
    J' Gamma J from `_influence_covariance`, where Gamma is the empirical
    covariance of the centered rows (2 Y g1_hat^(1), ..., 2 Y g1_hat^(p), Y, Y^2).
    Each per-axis variance is the same function of its own row, so the
    diagonal of Sigma reproduces them.
    """
    runs = [_estimate(sample, SubsetSpec((i,)), kernel, h, model, None, ci_level) for i in range(model.p)]
    results, influence = zip(*runs)
    order = _stable_order(sample.Y, *sample.V.T[::-1])  # an order of the rows' values, not their positions
    sigma = _influence_covariance(np.vstack(influence)[:, order], _centered(sample.Y)[order], [res.sobol for res in results])
    return list(results), sigma
