"""Kernel U-statistic estimation of E[E[Y|X]^2] and Sobol' indices.

The point estimator is the pairwise U-statistic

    T = C(n,2)^{-1} sum_{j<j'} (Y_j Y_{j'} / 2)
        [ K_h(A_{X_j}(X_{j'} - X_j)) / f_X(X_j)
        + K_h(A_{X_{j'}}(X_j - X_{j'})) / f_X(X_{j'}) ],

with no diagonal terms and the mirror transform A_x keeping every kernel
window inside the domain.  Grouping the sum by the anchor point gives

    T = (1 / (n (n-1))) sum_a (Y_a / f_X(X_a)) G_a,
    G_a = sum_{b != a} Y_b K_h(A_{X_a}(X_b - X_a)),

so one pass producing the row sums G serves the point estimate, the
leave-one-out regression plug-in g1_hat_a = G_a / ((n-1) f_X(X_a)), and all
variance estimates.  The Sobol' ratio, its delta-method variance, and the
joint first-order covariance follow the plug-in formulas of the central
limit theorem (all moments with the 1/n convention, no Bessel correction).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.stats import norm

from ._window import window_sums
from .domain import Domain, check_mirror_condition
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
    "default_bandwidth",
    "estimate_t",
    "estimate_g1_loo",
    "estimate_sobol",
    "estimate_total_sobol",
    "asymptotic_variance_t",
    "asymptotic_variance_sobol",
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
        v = np.asarray(self.V, dtype=float)
        y = np.asarray(self.Y, dtype=float)
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
        idx = tuple(int(i) for i in np.atleast_1d(np.asarray(self.mask, dtype=int)))
        if len(idx) == 0:
            raise MirrorSobolError("subset mask must be nonempty")
        if len(set(idx)) != len(idx):
            raise MirrorSobolError(f"subset mask {idx} has duplicate axes")
        if any(i < 0 for i in idx):
            raise MirrorSobolError(f"subset mask {idx} must use 0-based nonnegative axes")
        object.__setattr__(self, "mask", idx)

    @property
    def d(self) -> int:
        return len(self.mask)


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


def default_bandwidth(n: int, k: int, d: int, domain: Domain) -> float:
    """Default rate h = c n^{-gamma}, gamma the midpoint of (1/(2k), 1/d).

    The admissible window requires k > d/2; outside it no rate satisfies the
    central limit theorem conditions and an error is raised.  The constant c
    is the smallest axis width, so the mirror condition holds automatically.
    """
    if 2 * k <= d:
        raise MirrorSobolError(
            f"kernel order {k} is too small for dimension {d}: the admissible "
            f"bandwidth window (1/(2k), 1/d) is empty; need k > d/2"
        )
    gamma = 0.5 * (1.0 / (2.0 * k) + 1.0 / d)
    return float(np.min(domain.widths)) * float(n) ** (-gamma)


# --------------------------------------------------------------------------
# validation and the shared kernel-row-sum core


def _resolve_density(f_x, spec: SubsetSpec, domain: Optional[Domain]):
    """Accept an InputModel, a density estimate exposing `eval_rows`, or a vectorized callable."""
    if isinstance(f_x, InputModel):
        fn = subset_density_fn(f_x, spec.mask)
        dom = domain if domain is not None else f_x.domain
        return fn, dom
    if domain is None:
        raise MirrorSobolError("a domain is required when f_x is not an InputModel")
    return getattr(f_x, "eval_rows", f_x), domain


def _prepare(sample: FullSample, spec: SubsetSpec, kernel: KernelD, h: float, f_x, domain):
    f_fn, dom = _resolve_density(f_x, spec, domain)
    if sample.n < 2:
        raise InsufficientSampleError(f"need at least 2 rows, got {sample.n}")
    if max(spec.mask) >= sample.p:
        raise MirrorSobolError(f"mask {spec.mask} out of range for {sample.p} inputs")
    if kernel.dim != spec.d:
        raise MirrorSobolError(f"kernel dimension {kernel.dim} does not match mask size {spec.d}")
    if dom.dim != sample.p:
        raise MirrorSobolError(
            f"domain dimension {dom.dim} does not match the sample's input count {sample.p}; "
            f"the domain always describes the full input space"
        )
    sub = dom.subdomain(spec.mask)
    xm = sample.V[:, spec.mask]
    inside = (xm >= sub.lower) & (xm <= sub.upper)
    if not np.all(inside):
        bad = np.nonzero(~np.all(inside, axis=1))[0]
        raise DomainViolationError(f"rows {bad[:10].tolist()} fall outside the domain on the masked axes")
    if not check_mirror_condition(sub, h):
        raise BandwidthTooLargeError(
            f"h={h} violates the mirror condition: the window h/2 must fit in every axis "
            f"(min width {np.min(sub.widths)})"
        )
    fvals = np.asarray(f_fn(xm), dtype=float)
    if fvals.shape != (sample.n,):
        raise MirrorSobolError(f"density oracle returned shape {fvals.shape}, expected ({sample.n},)")
    low = np.nonzero(~(fvals > EPS_FLOOR))[0]
    if low.size:
        raise SingularDensityError(
            f"density at rows {low[:10].tolist()} is at or below the floor {EPS_FLOOR}", indices=low
        )
    return xm, fvals, sub


def _row_sums(xm: np.ndarray, weights: np.ndarray, kernel: KernelD, h: float, sub: Domain) -> np.ndarray:
    """G[a, c] = sum_{b != a} weights[b, c] K_h(A_{X_a}(X_b - X_a)) for every row a and weight column c."""
    if kernel.dim == 1 and kernel.factor.full_coeffs is not None:
        return _row_sums_sorted_1d(xm[:, 0], weights, kernel.factor.full_coeffs, h, sub)
    return window_sums(xm, weights, kernel, h, sub)


def _row_sums_sorted_1d(x: np.ndarray, y: np.ndarray, full_coeffs: np.ndarray, h: float, sub: Domain) -> np.ndarray:
    """Sorted-window evaluation of the row sums in one dimension; y holds (n, r) weights.

    On [0, 1/2] the kernel is the polynomial with coefficients `full_coeffs`,
    so G_a = (1/h) sum_m a_m (sigma_a/h)^m S_m(a) with the window moment sums
    S_m(a) = sum_{b in window(a)} Y_b (x_b - x_a)^m.  The sums come from
    prefix arrays of Y (x - mu_c)^l anchored at the centers mu_c of cells of
    width h/2, recombined binomially; anchoring keeps every power well
    scaled, and the final pass is exact compensated summation, so the result
    does not depend on the input row order.
    """
    n = x.size
    k = full_coeffs.size - 1
    lo = float(sub.lower[0])
    width = float(sub.widths[0])
    half = 0.5 * h
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    sigma = np.where(xs <= lo + 0.5 * width, 1.0, -1.0)

    ncells = int(math.ceil(width / half)) + 1
    cell = np.clip((xs - lo) // half, 0, ncells - 1).astype(np.int64)
    # first sorted index belonging to each cell (cells are monotone in xs)
    cell_start = np.searchsorted(cell, np.arange(ncells + 1), side="left")
    centers = lo + (np.arange(ncells) + 0.5) * half

    # prefix[l][j] = sum over the first j sorted points of Y (x - mu_cell)^l
    offsets = xs - centers[cell]
    prefix = np.zeros((k + 1, n + 1, ys.shape[1]))
    pow_off = np.ones(n)
    for l in range(k + 1):
        prefix[l, 1:] = np.cumsum(ys * pow_off[:, None], axis=0)
        if l < k:
            pow_off = pow_off * offsets
    binom = np.array([[math.comb(m, l) for l in range(k + 1)] for m in range(k + 1)], dtype=float)

    w_lo = np.where(sigma > 0, xs, xs - half)
    w_hi = np.where(sigma > 0, xs + half, xs)
    b_lo = np.searchsorted(xs, w_lo, side="left")
    b_hi = np.searchsorted(xs, w_hi, side="right")
    c0 = np.clip((w_lo - lo) // half, 0, ncells - 1).astype(np.int64)

    s_m = np.zeros((k + 1,) + ys.shape)
    for t in range(3):
        c_raw = c0 + t
        in_range = c_raw < ncells
        c = np.where(in_range, c_raw, ncells - 1)
        seg_s = np.maximum(b_lo, cell_start[c])
        seg_e = np.minimum(b_hi, cell_start[c + 1])
        live = in_range & (seg_e > seg_s)
        if not np.any(live):
            continue
        delta = np.where(live, centers[c] - xs, 0.0)
        d_l = np.where(live[None, :, None], prefix[:, seg_e] - prefix[:, seg_s], 0.0)
        pow_delta = np.ones((n, 1))
        # S_m += sum_l C(m, l) (mu_c - x_a)^{m-l} D_l, accumulated by m - l
        for diff in range(k + 1):
            for l in range(k + 1 - diff):
                s_m[l + diff] += binom[l + diff, l] * pow_delta * d_l[l]
            if diff < k:
                pow_delta = pow_delta * delta[:, None]
    g_sorted = np.zeros(ys.shape)
    sig_pow = np.ones((n, 1))
    for m in range(k + 1):
        g_sorted += full_coeffs[m] * sig_pow * s_m[m]
        if m < k:
            sig_pow = sig_pow * (sigma[:, None] / h)
    g_sorted = (g_sorted - full_coeffs[0] * ys) / h
    out = np.empty(ys.shape)
    out[order] = g_sorted
    return out


# --------------------------------------------------------------------------
# point estimators


def _y_row_sums(sample: FullSample, spec: SubsetSpec, kernel: KernelD, h: float, f_x, domain) -> tuple:
    """(G, f_X(X)) with G_a = sum_{b != a} Y_b K_h(A_{X_a}(X_b - X_a)): one weight column."""
    xm, fvals, sub = _prepare(sample, spec, kernel, h, f_x, domain)
    return _row_sums(xm, sample.Y[:, None], kernel, h, sub)[:, 0], fvals


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
    `eval_rows`), in which case `domain` is required.  The result is
    accumulated with exact compensated summation and does not depend on the
    ordering of the sample rows.
    """
    g, fvals = _y_row_sums(sample, spec, kernel, h, f_x, domain)
    n = sample.n
    return math.fsum((sample.Y / fvals) * g) / (n * (n - 1))


def estimate_g1_loo(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    h: float,
    f_x: Union[Callable, InputModel],
    *,
    domain: Optional[Domain] = None,
) -> np.ndarray:
    """Leave-one-out regression plug-in g1_hat(X_a) = G_a / ((n-1) f_X(X_a))."""
    g, fvals = _y_row_sums(sample, spec, kernel, h, f_x, domain)
    return g / ((sample.n - 1) * fvals)


# --------------------------------------------------------------------------
# variances and confidence intervals


def _variance(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    return max(0.0, float(np.mean(v * v) - np.mean(v) ** 2))


def _covariance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(a * b) - np.mean(a) * np.mean(b))


def asymptotic_variance_t(sample: FullSample, g1_hat: np.ndarray) -> float:
    """CLT variance 4 tau^2 of T, with tau^2 = Var(Y g1(X)) evaluated as a plug-in."""
    g1_hat = np.asarray(g1_hat, dtype=float)
    if not np.all(np.isfinite(g1_hat)):
        raise MirrorSobolError("g1_hat contains non-finite values")
    return 4.0 * _variance(sample.Y * g1_hat)


def asymptotic_variance_sobol(sample: FullSample, g1_hat: np.ndarray) -> float:
    """Delta-method variance of the Sobol' ratio, every moment replaced empirically.

    Uses the closed form in Var(Yg1), Cov(Yg1, Y), Cov(Yg1, Y^2), Var(Y),
    Var(Y^2), Cov(Y, Y^2), E[Y], with the index itself replaced by its
    plug-in estimate mean(Y g1_hat) via the pairwise identity.
    """
    y = sample.Y
    g1_hat = np.asarray(g1_hat, dtype=float)
    yg = y * g1_hat
    y2 = y * y
    m = float(np.mean(y))
    v = _variance(y)
    if v <= 0.0:
        raise DegenerateOutputError("output variance is zero; the Sobol' ratio is undefined")
    t_hat = float(np.mean(yg))
    s = (t_hat - m * m) / v
    var_yg = _variance(yg)
    cov_yg_y = _covariance(yg, y)
    cov_yg_y2 = _covariance(yg, y2)
    cov_y_y2 = _covariance(y, y2)
    var_y2 = _variance(y2)
    block1 = 4.0 * (var_yg - 2.0 * cov_yg_y * m + m * m * v)
    block2 = 4.0 * s * (2.0 * cov_yg_y * m - cov_yg_y2 - 2.0 * m * m * v + m * cov_y_y2)
    block3 = s * s * (4.0 * m * m * v - 4.0 * m * cov_y_y2 + var_y2)
    # the three blocks form a quadratic form in a covariance matrix, so any
    # negative value can only be rounding noise
    return max(0.0, (block1 + block2 + block3) / (v * v))


def _normal_ci(center: float, var: float, n: int, level: float) -> tuple:
    z = float(norm.ppf(0.5 + 0.5 * level))
    halfwidth = z * math.sqrt(max(var, 0.0) / n)
    return (center - halfwidth, center + halfwidth)


def _estimate(sample: FullSample, spec: SubsetSpec, kernel: KernelD, h: float, f_x, domain, ci_level: float):
    """The estimation core behind every index function: (EstimateResult, g1_c).

    g1_c is the leave-one-out regression plug-in of the centered outputs
    Y - Ybar, which the first-order sweep needs for its joint covariance.
    """
    if not (0.0 < ci_level < 1.0):
        raise MirrorSobolError(f"ci level must lie in (0, 1), got {ci_level}")
    xm, fvals, sub = _prepare(sample, spec, kernel, h, f_x, domain)
    y = sample.Y
    n = sample.n
    s2 = _variance(y)
    if s2 <= 0.0:
        raise DegenerateOutputError("output variance is zero; the Sobol' ratio is undefined")
    y_c = y - float(np.mean(y))
    # one pass for both columns; the centered one is its own column, not a
    # difference of sums, so the ratio stays exactly affine invariant
    g, g_c = _row_sums(xm, np.column_stack([y, y_c]), kernel, h, sub).T
    t_hat = math.fsum((y / fvals) * g) / (n * (n - 1))
    t_centered = math.fsum((y_c / fvals) * g_c) / (n * (n - 1))
    sobol = t_centered / s2
    g1_c = g_c / ((n - 1) * fvals)
    var_t = asymptotic_variance_t(sample, g / ((n - 1) * fvals))
    # the variance of the centered ratio is the same delta-method formula
    # evaluated on the centered sample (its mean term is zero by construction)
    var_sobol = asymptotic_variance_sobol(FullSample(V=sample.V, Y=y_c), g1_c)
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
    return result, g1_c


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
    the same plug-in ratio, but it is exactly invariant under affine output
    maps and avoids the mean-coupling noise terms of the uncentered form.
    Empirical moments use the 1/n convention with no Bessel correction; the
    raw t_hat is reported alongside.
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

    The kernel must have the complement's dimension.  The returned result
    is the complement estimate with the index and its interval reflected.
    `f_x` must be an InputModel so the complement's density can be derived
    from it.
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
    J' Gamma J, where Gamma is the empirical covariance of
    (2 Y g1_hat^(1), ..., 2 Y g1_hat^(p), Y, Y^2) and J the Jacobian of the
    p-fold ratio map at the empirical moments.  The diagonal of Sigma
    reproduces each per-axis variance exactly.
    """
    if kernel.dim != 1:
        raise MirrorSobolError("first-order sweep needs a 1-dimensional kernel")
    p = model.p
    y_c = sample.Y - float(np.mean(sample.Y))
    results = []
    rows = np.empty((p + 2, sample.n))
    for i in range(p):
        res, g1_c = _estimate(sample, SubsetSpec((i,)), kernel, h, model, None, ci_level)
        results.append(res)
        rows[i] = 2.0 * y_c * g1_c
    rows[p] = y_c
    rows[p + 1] = y_c * y_c
    centered = rows - rows.mean(axis=1, keepdims=True)
    gamma = (centered @ centered.T) / sample.n
    v = _variance(sample.Y)
    m_c = float(np.mean(y_c))  # zero up to rounding; kept in the Jacobian for exactness
    jac = np.zeros((p + 2, p))
    for i, res in enumerate(results):
        jac[i, i] = 1.0 / v
        jac[p, i] = 2.0 * m_c * (res.sobol - 1.0) / v
        jac[p + 1, i] = -res.sobol / v
    sigma = jac.T @ gamma @ jac
    return results, sigma
