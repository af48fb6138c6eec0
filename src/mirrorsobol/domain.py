"""Hyperrectangular input domains and the boundary mirror transform.

The estimator smooths with a kernel supported on ``[0, 1/2]^d`` in kernel
coordinates.  Near the upper half of an axis the kernel window is reflected
inward by flipping the sign of the corresponding displacement coordinate:
``sign_matrix`` gives the per-axis signs of the reflection A_x at each row,
and ``check_mirror_condition`` is the geometric guard that the scaled window
``[0, h/2]^d`` fits inside the domain when anchored at any point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MirrorSobolError

__all__ = [
    "Domain",
    "sign_matrix",
    "check_mirror_condition",
]


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box [B_1, C_1] x ... x [B_p, C_p]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.array(self.lower, dtype=float))
        hi = np.atleast_1d(np.array(self.upper, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise MirrorSobolError("domain bounds must be 1-D arrays of equal length")
        if lo.size == 0:
            raise MirrorSobolError("domain must have at least one axis")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise MirrorSobolError("domain bounds must be finite")
        if not np.all(lo < hi):
            bad = np.nonzero(~(lo < hi))[0].tolist()
            raise MirrorSobolError(f"domain requires lower < upper on every axis, violated at axes {bad}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def subdomain(self, mask) -> "Domain":
        """Domain restricted to the axes listed in `mask` (0-based, in order)."""
        idx = list(_check_mask(mask, self.dim))
        return Domain(self.lower[idx], self.upper[idx])

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Componentwise membership test for a point (d,) or rows (n, d)."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower) & (x <= self.upper), axis=-1)


def _check_mask(mask, p=None) -> tuple:
    """The mask as a tuple of ints, refused unless nonempty, free of repeats, and within 0 <= axis < p.

    With p None only the upper limit goes unchecked.  Every library entry
    point that takes a group of 0-based axes applies this one rule.
    """
    idx = tuple(int(i) for i in mask)
    if not idx:
        raise MirrorSobolError("mask () is empty")
    if len(set(idx)) != len(idx):
        raise MirrorSobolError(f"mask {idx} repeats an axis")
    if min(idx) < 0 or (p is not None and max(idx) >= p):
        inputs = "" if p is None else f" for p = {p} inputs"
        raise MirrorSobolError(f"mask {idx} is out of range{inputs} (axes are 0-based)")
    return idx


def check_mirror_condition(domain: Domain, h: float) -> bool:
    """True iff the scaled kernel window [0, h/2]^d fits inside the domain.

    Reflected from any anchor point, the window stays inside the box exactly
    when h/2 <= (C_i - B_i)/2 on every axis, i.e. h <= min_i (C_i - B_i).
    The inequality is inclusive.
    """
    if not (np.isfinite(h) and h > 0):
        raise MirrorSobolError(f"bandwidth must be a positive real, got {h!r}")
    return bool(h <= np.min(domain.widths))


def sign_matrix(domain: Domain, x_rows: np.ndarray) -> np.ndarray:
    """Signs of the diagonal reflection A_x at each row: (n, d) points -> (n, d) of +-1.

    +1 on the closed lower half of each axis, -1 above: the midpoint itself
    maps to +1, the upper boundary to -1.  Rows are assumed to lie in the
    domain; callers validate membership once.
    """
    return np.where(np.asarray(x_rows, dtype=float) <= domain.midpoints, 1.0, -1.0)
