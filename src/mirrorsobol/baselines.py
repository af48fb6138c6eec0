"""Baseline estimators (Pick-Freeze, two-sample 1-NN, rank) and limiting variances.

The baselines carry their own standard formulas and are validated against
analytic models only; the limiting-variance evaluators integrate closed-form
conditional moments by quadrature (or fixed-seed Monte Carlo) for efficiency
comparisons with the kernel estimator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateOutputError, InsufficientSampleError, MirrorSobolError

__all__ = [
    "PickFreezeSample",
    "VarianceOracles",
    "pick_freeze_estimate",
    "nn_estimate",
    "rank_estimate",
    "efficient_variance_forms",
    "limiting_variance_efficient",
    "limiting_variance_nn",
    "limiting_variance_sobol_efficient",
    "limiting_variance_sobol_plugin",
    "limiting_variance_sobol_centered",
]


@dataclass(frozen=True)
class PickFreezeSample:
    """Outputs of a Pick-Freeze design: Y at (X, W) and Y_pf at (X, W')."""

    Y: np.ndarray
    Y_pf: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.Y, dtype=float)
        y_pf = np.asarray(self.Y_pf, dtype=float)
        if y.ndim != 1 or y_pf.ndim != 1 or y.shape != y_pf.shape:
            raise MirrorSobolError("Y and Y_pf must be 1-d arrays of equal length")
        if y.size < 2:
            raise InsufficientSampleError(f"pick-freeze estimation needs n >= 2, got {y.size}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_pf))):
            raise MirrorSobolError("pick-freeze outputs must be finite")
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "Y_pf", y_pf)

    @property
    def n(self) -> int:
        return self.Y.size


def pick_freeze_estimate(pf: PickFreezeSample) -> float:
    """Symmetrized Pick-Freeze estimate of the Sobol' index.

    S_PF = (mean(Y Y_pf) - mean((Y+Y_pf)/2)^2)
           / (mean((Y^2+Y_pf^2)/2) - mean((Y+Y_pf)/2)^2).
    """
    y, y_pf = pf.Y, pf.Y_pf
    mean_sym = float(np.mean(0.5 * (y + y_pf)))
    denom = float(np.mean(0.5 * (y * y + y_pf * y_pf))) - mean_sym * mean_sym
    if denom <= 0.0:
        raise DegenerateOutputError("pick-freeze outputs have zero symmetrized variance")
    numer = float(np.mean(y * y_pf)) - mean_sym * mean_sym
    return numer / denom


def nn_estimate(first, second) -> float:
    """Two-sample nearest-neighbor estimate of E[E[Y|X]^2].

    The first sample provides the regression values; each point of the second
    sample is matched to its Euclidean nearest neighbor in the first sample
    (a k-d tree query, O(n log n); ties go to the lowest index) and
    contributes Y_second * Y_first_neighbor.
    Valid as a sqrt(n) estimator only for d <= 3; higher dimensions warn.
    """
    x1, y1 = _paired(first, "first")
    x2, y2 = _paired(second, "second")
    if x1.shape[1] != x2.shape[1]:
        raise MirrorSobolError(f"dimension mismatch: first is {x1.shape[1]}-d, second {x2.shape[1]}-d")
    if x1.shape[1] >= 4:
        warnings.warn(
            f"nearest-neighbor estimation in dimension {x1.shape[1]} has non-negligible bias; "
            "the sqrt(n) limit theorem holds only for d <= 3",
            stacklevel=2,
        )
    return float(np.mean(y2 * y1[_nearest(x1, x2)]))


def _nearest(x1, x2) -> np.ndarray:
    """argmin(cdist(x2, x1), axis=1): each x2 row's nearest x1 row, lowest index on ties.

    The tree (Friedman, Bentley & Finkel 1977) holds each distinct x1 row
    once, under its lowest index, and rounds in its own order, so a row whose
    two nearest distances agree to rounding re-measures its ball of candidates
    with cdist's arithmetic, sqrt(sum (u - v)^2).
    """
    order = np.lexsort(x1.T[::-1])  # stable: the first of equal rows has the lowest index
    sorted1 = x1[order]
    distinct = np.r_[True, np.any(sorted1[1:] != sorted1[:-1], axis=1)]
    rows1, lowest = sorted1[distinct], order[distinct]
    tree = cKDTree(rows1)
    dist, idx = tree.query(x2, k=2)  # a single distinct row gives dist[:, 1] = inf
    # past this reach the tree's nearest row is the unique minimum: the slack
    # covers its rounded box bounds
    scale = max(np.max(np.abs(x1)), np.max(np.abs(x2)))
    reach = dist[:, 0] * (1.0 + 1e-12) + 8.0 * np.spacing(scale)
    idx = lowest[idx[:, 0]]
    tied = np.flatnonzero(dist[:, 1] <= reach)
    if tied.size:
        found = tree.query_ball_point(x2[tied], reach[tied])
        rows = np.repeat(tied, [len(c) for c in found])
        cand = np.concatenate(found)
        sq = 0.0
        for u, v in zip(x2[rows].T, rows1[cand].T):
            sq = sq + (u - v) * (u - v)
        order = np.lexsort((lowest[cand], np.sqrt(sq), rows))
        pick = order[np.r_[True, np.diff(rows[order]) != 0]]
        idx[rows[pick]] = lowest[cand[pick]]
    return idx


def _paired(sample, label):
    try:
        x, y = sample
    except (TypeError, ValueError):
        raise MirrorSobolError(f"{label} sample must be a pair (X, Y)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise MirrorSobolError(f"{label} sample must pair an (n, d) X with an n-vector Y")
    if x.shape[0] == 0:
        raise InsufficientSampleError(f"{label} sample is empty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise MirrorSobolError(f"{label} sample X and Y must be finite")
    return x, y


def rank_estimate(X, Y) -> float:
    """Right-neighbor (rank) estimate of the first-order Sobol' index, d = 1.

    Sorts by X and forms ((1/n) sum_j Y_(j) Y_(j+1) - Ybar^2) / Var(Y).  The
    stable sort makes the result deterministic under ties; it is equivalent
    to perturbing tied X values by an index-ordered jitter of 1e-12.
    """
    x, y = _paired((X, Y), "rank")
    if x.shape[1] != 1:
        raise MirrorSobolError(f"rank estimation supports d = 1 only, got a {x.shape[1]}-d X")
    x = x[:, 0]
    n = x.size
    if n < 2:
        raise InsufficientSampleError(f"rank estimation needs n >= 2, got {n}")
    variance = float(np.var(y))
    if variance <= 0.0:
        raise DegenerateOutputError("output variance is zero; the Sobol' ratio is undefined")
    order = np.argsort(x, kind="stable")
    ys = y[order]
    numer = math.fsum(ys[:-1] * ys[1:]) / n - float(np.mean(y)) ** 2
    return numer / variance


# ---------------------------------------------------------------------------
# limiting variances (population quantities, evaluated by quadrature/MC)


@dataclass(frozen=True)
class VarianceOracles:
    """Closed-form conditional moments plus an expectation engine.

    `moments` evaluates E[phi(Y, X)] over the joint law: it receives a
    callable phi(y_values, x_masked_rows) -> values and returns the
    expectation.  g1 and g2 act on masked input rows.
    """

    g1: Callable
    g2: Callable
    f_x: Callable
    moments: Callable


def efficient_variance_forms(oracles: VarianceOracles) -> tuple:
    """Both printed forms of sigma_T^2.

    Form one is Var(g1(X)(2Y - g1(X))) over the joint law; form two is
    4 tau^2 - 3 Var(g1(X)^2) with tau^2 = Var(Y g1(X)).  They are equal by
    the tower property; evaluating them from different integrals provides a
    non-trivial cross-check of the algebra.
    """
    mom = oracles.moments
    g1 = oracles.g1

    z_mean = mom(lambda y, x: g1(x) * (2.0 * y - g1(x)))
    z_sq = mom(lambda y, x: (g1(x) * (2.0 * y - g1(x))) ** 2)
    form_one = z_sq - z_mean * z_mean

    yg_mean = mom(lambda y, x: y * g1(x))
    yg_sq = mom(lambda y, x: (y * g1(x)) ** 2)
    tau2 = yg_sq - yg_mean * yg_mean
    g1sq_mean = mom(lambda y, x: g1(x) ** 2)
    g1_4 = mom(lambda y, x: g1(x) ** 4)
    form_two = 4.0 * tau2 - 3.0 * (g1_4 - g1sq_mean * g1sq_mean)
    return form_one, form_two


def limiting_variance_efficient(oracles: VarianceOracles, *, check_tol: float = 1e-6) -> float:
    """sigma_T^2, the limiting variance of the efficient estimator of t.

    Evaluates both printed forms and verifies they agree within `check_tol`
    relative before returning the direct form.
    """
    form_one, form_two = efficient_variance_forms(oracles)
    scale = max(abs(form_one), abs(form_two), 1e-12)
    if abs(form_one - form_two) > check_tol * scale:
        raise MirrorSobolError(
            f"sigma_T^2 forms disagree: {form_one} vs {form_two} (tolerance {check_tol} relative)"
        )
    return form_one


def limiting_variance_nn(oracles: VarianceOracles) -> float:
    """sigma_D^2, the limiting variance of the two-sample nearest-neighbor estimator.

    sigma_D^2 = 2( E[g2^2] - E[g1^2]^2 + (E[g2 g1^2] - E[g1^4]) / 2 ).
    """
    mom = oracles.moments
    g1, g2 = oracles.g1, oracles.g2
    e_g2_sq = mom(lambda y, x: g2(x) ** 2)
    e_g1_sq = mom(lambda y, x: g1(x) ** 2)
    e_g2_g1sq = mom(lambda y, x: g2(x) * g1(x) ** 2)
    e_g1_4 = mom(lambda y, x: g1(x) ** 4)
    return 2.0 * (e_g2_sq - e_g1_sq * e_g1_sq + 0.5 * (e_g2_g1sq - e_g1_4))


def limiting_variance_sobol_efficient(
    oracles: VarianceOracles, mean_y: float, var_y: float, s_x: float
) -> float:
    """sigma_min^2, the minimal limiting variance for the Sobol' index.

    sigma_min^2 = Var( 2 E[Y](1-S) Y + S Y^2 + g1(X)(g1(X) - 2Y) ) / Var(Y)^2.
    """
    if var_y <= 0.0:
        raise DegenerateOutputError("Var(Y) must be positive")
    mom = oracles.moments
    g1 = oracles.g1
    a = 2.0 * mean_y * (1.0 - s_x)

    def z(y, x):
        return a * y + s_x * y * y + g1(x) * (g1(x) - 2.0 * y)

    z_mean = mom(z)
    z_sq = mom(lambda y, x: z(y, x) ** 2)
    return (z_sq - z_mean * z_mean) / (var_y * var_y)


def limiting_variance_sobol_plugin(oracles: VarianceOracles) -> float:
    """Delta-method variance of the moment-ratio Sobol' estimator at population moments.

    The same three-block formula used by the empirical plug-in, with every
    moment evaluated through the oracle engine instead of from data.
    """
    mom = oracles.moments
    g1 = oracles.g1
    m = mom(lambda y, x: y)
    e_y2 = mom(lambda y, x: y * y)
    v = e_y2 - m * m
    if v <= 0.0:
        raise DegenerateOutputError("Var(Y) must be positive")
    t = mom(lambda y, x: y * g1(x))
    s = (t - m * m) / v
    var_yg = mom(lambda y, x: (y * g1(x)) ** 2) - t * t
    cov_yg_y = mom(lambda y, x: y * y * g1(x)) - t * m
    cov_yg_y2 = mom(lambda y, x: y**3 * g1(x)) - t * e_y2
    cov_y_y2 = mom(lambda y, x: y**3) - m * e_y2
    var_y2 = mom(lambda y, x: y**4) - e_y2 * e_y2
    block1 = 4.0 * (var_yg - 2.0 * cov_yg_y * m + m * m * v)
    block2 = 4.0 * s * (2.0 * cov_yg_y * m - cov_yg_y2 - 2.0 * m * m * v + m * cov_y_y2)
    block3 = s * s * (4.0 * m * m * v - 4.0 * m * cov_y_y2 + var_y2)
    return (block1 + block2 + block3) / (v * v)


def limiting_variance_sobol_centered(oracles: VarianceOracles) -> float:
    """Delta-method variance of the Sobol' estimator with the output pre-centered.

    Centering Y at its mean before forming the moment ratio leaves the
    population ratio unchanged but shrinks the delta-method variance;
    this is the limit the shipped `estimate_sobol` attains.  Evaluates
    the plug-in formula on the shifted law of (Y - E[Y], X).
    """
    mom = oracles.moments
    m = mom(lambda y, x: y)
    g1 = oracles.g1
    g2 = oracles.g2
    shifted = VarianceOracles(
        g1=lambda xm: g1(xm) - m,
        g2=lambda xm: g2(xm) - 2.0 * m * g1(xm) + m * m,
        f_x=oracles.f_x,
        moments=lambda phi: mom(lambda y, xm: phi(y - m, xm)),
    )
    return limiting_variance_sobol_plugin(shifted)
