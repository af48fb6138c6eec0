"""Baseline estimators: Pick-Freeze, two-sample 1-NN and rank.

The baselines carry their own standard formulas and are validated against
analytic models only.  The limiting variances that the `compare` study
prints next to them come from `testbed.limiting_variances`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._window import _expand, _stable_order
from .errors import DegenerateOutputError, InsufficientSampleError, MirrorSobolError
from .estimator import _finite

__all__ = [
    "PickFreezeSample",
    "pick_freeze_estimate",
    "nn_estimate",
    "rank_estimate",
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean_sym = float(np.mean(0.5 * (y + y_pf)))
        denom = float(np.mean(0.5 * (y * y + y_pf * y_pf))) - mean_sym * mean_sym
        if denom <= 0.0:
            raise DegenerateOutputError("pick-freeze outputs have zero symmetrized variance")
        numer = float(np.mean(y * y_pf)) - mean_sym * mean_sym
    _finite([denom, numer], y, y_pf)
    return numer / denom


def nn_estimate(first, second) -> float:
    """Two-sample nearest-neighbor estimate of E[E[Y|X]^2].

    The first sample provides the regression values; each point of the second
    sample is matched to its Euclidean nearest neighbor in the first sample
    (a sorted search in 1-D, a k-d tree query otherwise, O(n log n); ties go
    to the lowest index) and contributes Y_second * Y_first_neighbor.
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
    nearest = _nearest(x1, x2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        return _finite(float(np.mean(y2 * y1[nearest])), y1, y2)


def _nearest(x1, x2) -> np.ndarray:
    """argmin(cdist(x2, x1), axis=1): each x2 row's nearest x1 row, lowest index on ties.

    Each distinct x1 row is searched once, under its lowest index.  In 1-D
    the distinct values are sorted and searched for the sorted x2 values, so
    one search finds the neighbours on either side.  In more dimensions a
    k-d tree (Friedman, Bentley & Finkel 1977) finds the two nearest rows in
    its own rounding.  A row with a second candidate within rounding of its
    nearest distance is settled by `_settle_ties`.
    """
    order = _stable_order(*x1.T[::-1])  # stable: the first of equal rows has the lowest index
    sorted1 = x1[order]
    distinct = np.r_[True, np.any(sorted1[1:] != sorted1[:-1], axis=1)]
    rows1, lowest = sorted1[distinct], order[distinct]
    # past this reach the nearest row is the unique minimum: the slack covers
    # the rounding of the distances and of the tree's box bounds
    scale = max(np.max(np.abs(x1)), np.max(np.abs(x2)))
    slack = 8.0 * np.spacing(scale)
    if x1.shape[1] == 1:
        # searched in sorted order, which keeps each search near the last
        # one, and put back in x2's row order at the end
        by_value = np.argsort(x2[:, 0])
        values, v = rows1[:, 0], x2[by_value, 0]
        right = np.searchsorted(values, v)
        left = np.maximum(right - 1, 0)
        d_left = np.where(right > 0, np.sqrt((v - values[left]) ** 2), np.inf)
        right_value = values[np.minimum(right, values.size - 1)]
        d_right = np.where(right < values.size, np.sqrt((v - right_value) ** 2), np.inf)
        nearest = np.empty(v.size, dtype=np.int64)
        nearest[by_value] = np.where(d_right < d_left, right, left)
        # below 2^-510 the squared offsets are subnormal or zero, so cdist
        # can round a farther offset to the nearest distance: all of those
        # are candidates, and `_settle_ties` measures them as cdist does
        reach = np.maximum(np.minimum(d_left, d_right) * (1.0 + 1e-12) + slack, 2.0**-510)
        # the distance is monotone on either side, so the candidates are a run
        first = np.searchsorted(values, v - reach, side="left")
        count = np.searchsorted(values, v + reach, side="right") - first
        tied = np.flatnonzero(count > 1)
        rows = np.repeat(by_value[tied], count[tied])
        cand = _expand(first[tied], count[tied])
    else:
        from scipy.spatial import cKDTree

        tree = cKDTree(rows1)
        dist, idx = tree.query(x2, k=2)  # a single distinct row gives dist[:, 1] = inf
        nearest = idx[:, 0]
        reach = dist[:, 0] * (1.0 + 1e-12) + slack
        tied = np.flatnonzero(dist[:, 1] <= reach)
        found = tree.query_ball_point(x2[tied], reach[tied]) if tied.size else []
        rows = np.repeat(tied, [len(c) for c in found])
        cand = np.concatenate(found).astype(np.int64) if tied.size else np.zeros(0, dtype=np.int64)
    idx = lowest[nearest]
    if rows.size:
        _settle_ties(idx, x2, rows1, lowest, rows, cand)
    return idx


def _settle_ties(idx, x2, rows1, lowest, rows, cand) -> None:
    """Set idx[r] for each tied x2 row r from its candidates rows1[cand], where rows == r.

    Each candidate is re-measured with cdist's arithmetic, sqrt(sum (u - v)^2);
    the nearest wins, and the lowest index among equals.
    """
    sq = 0.0
    for u, v in zip(x2[rows].T, rows1[cand].T):
        sq = sq + (u - v) * (u - v)
    order = np.lexsort((lowest[cand], np.sqrt(sq), rows))
    pick = order[np.r_[True, np.diff(rows[order]) != 0]]
    idx[rows[pick]] = lowest[cand[pick]]


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
    ys = y[_stable_order(x)]  # every sum below runs over the x-sorted outputs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        variance = float(np.var(ys))
        if variance <= 0.0:
            raise DegenerateOutputError("output variance is zero; the Sobol' ratio is undefined")
        mean = float(np.mean(ys))
        numer = float(np.sum(ys[:-1] * ys[1:])) / n - mean * mean
    _finite([variance, numer], y)
    return numer / variance
