"""Density plug-ins: uniform endpoint, clipped beta moment, and mirror KDE.

These produce `DensityEstimate` objects usable in place of the exact input
density.  The auxiliary sample handed to the beta and KDE estimators must be
a separate draw of the inputs on which the model is never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._window import window_sums
from .domain import Domain, check_mirror_condition
from .errors import (
    BandwidthTooLargeError,
    DomainViolationError,
    InsufficientSampleError,
    MirrorSobolError,
)
from .kernels import KernelD

__all__ = [
    "DensityEstimate",
    "FALLBACK_ETA",
    "uniform_max_estimator",
    "beta_moment_estimator",
    "mirror_kde",
]

# (2 * integral of sqrt(x(1-x)) over [0,1])^{-1} = (2 * pi/8)^{-1}
FALLBACK_ETA = 4.0 / math.pi

_NOMINAL_FLOOR = 1e-12


@dataclass(frozen=True)
class DensityEstimate:
    """Estimated input density with a guaranteed floor at queried points."""

    kind: str
    params: dict
    eval_rows: Callable[[np.ndarray], np.ndarray]


def uniform_max_estimator(aux) -> DensityEstimate:
    """Endpoint plug-in for Uniform(0, theta): theta_hat = max(aux).

    The density is the constant 1/theta_hat on [0, theta_hat]; queries
    outside that interval are a hard error.  When `aux` is the estimation
    sample itself, all its points satisfy x <= theta_hat by construction.
    """
    values = np.asarray(aux, dtype=float).ravel()
    if values.size == 0:
        raise InsufficientSampleError("uniform endpoint estimation needs at least one observation")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise MirrorSobolError("uniform endpoint estimation needs finite nonnegative data")
    theta_hat = float(values.max())
    if theta_hat <= 0.0:
        raise MirrorSobolError("all observations are zero; the endpoint cannot be estimated")
    level = 1.0 / theta_hat

    def eval_rows(rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 1:
            raise MirrorSobolError("uniform endpoint density is one-dimensional")
        x = rows[:, 0]
        bad = (x < 0.0) | (x > theta_hat)
        if np.any(bad):
            raise DomainViolationError(
                f"query outside [0, theta_hat = {theta_hat}] at rows {np.nonzero(bad)[0].tolist()}"
            )
        return np.full(x.shape[0], level)

    return DensityEstimate(kind="uniform_max", params={"theta_hat": theta_hat}, eval_rows=eval_rows)


def beta_moment_estimator(aux, b: float) -> DensityEstimate:
    """Clipped moment plug-in for a Beta(a, b) marginal with known b in (1, 3/2).

    a_hat = b mean / (1 - mean).  If a_hat lands in the closed interval
    [1, 3/2] the density is Beta(a_hat, b); otherwise the constant fallback
    4/pi.  The parametric branch is positive on the open unit interval, so
    the nominal floor only guards exact-endpoint queries.  Both branches
    reject queries outside [0, 1].
    """
    if not (1.0 < b < 1.5):
        raise MirrorSobolError(f"the known shape b must lie in (1, 3/2), got {b}")
    values = np.asarray(aux, dtype=float).ravel()
    if values.size == 0:
        raise InsufficientSampleError("beta moment estimation needs at least one observation")
    if np.any(values < 0.0) or np.any(values > 1.0) or not np.all(np.isfinite(values)):
        raise MirrorSobolError("beta moment estimation needs data inside [0, 1]")
    mean = float(values.mean())
    if mean >= 1.0:
        raise MirrorSobolError(f"sample mean {mean} >= 1 leaves the moment estimator undefined")
    a_hat = b * mean / (1.0 - mean)
    fallback = not (1.0 <= a_hat <= 1.5)
    from scipy import special

    norm = special.beta(a_hat, b)

    def eval_rows(rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 1:
            raise MirrorSobolError("beta moment density is one-dimensional")
        x = rows[:, 0]
        if np.any((x < 0.0) | (x > 1.0)):
            raise DomainViolationError("beta density queried outside [0, 1]")
        if fallback:
            return np.full(x.shape[0], FALLBACK_ETA)
        with np.errstate(divide="ignore", invalid="ignore"):
            pdf = np.where(
                (x > 0.0) & (x < 1.0),
                x ** (a_hat - 1.0) * (1.0 - x) ** (b - 1.0) / norm,
                0.0,
            )
        return np.maximum(pdf, _NOMINAL_FLOOR)

    return DensityEstimate(
        kind="beta_moment",
        params={"a_hat": a_hat, "b": float(b), "eta": FALLBACK_ETA, "fallback": fallback},
        eval_rows=eval_rows,
    )


def mirror_kde(
    aux,
    kernel: KernelD,
    h_kde: Optional[float] = None,
    *,
    eta: float,
    domain: Domain,
) -> DensityEstimate:
    """Mirror-corrected kernel density estimate floored at eta/2.

    eval(x) = max( (1/m) sum_j K_h(A_x(X_j - x)), eta/2 ).  `eta` is the
    user's lower bound on the true density and has no default; the bandwidth
    defaults to m^(-1/(2k+d)) for an order-k kernel in dimension d.  Because
    of the flooring the estimate need not integrate to one.
    """
    if not (np.isfinite(eta) and eta > 0.0):
        raise MirrorSobolError(f"eta must be a positive real, got {eta}")
    pts = np.asarray(aux, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InsufficientSampleError("mirror_kde needs a nonempty (m, d) auxiliary sample")
    m, d = pts.shape
    if domain.dim != d:
        raise MirrorSobolError(f"domain is {domain.dim}-d but the auxiliary sample is {d}-d")
    if not np.all(domain.contains(pts)):
        raise DomainViolationError("auxiliary sample leaves the stated domain")
    if h_kde is None:
        h_kde = float(m ** (-1.0 / (2 * kernel.order + d)))
    h_kde = float(h_kde)
    if not check_mirror_condition(domain, h_kde):
        raise BandwidthTooLargeError(
            f"mirror condition fails: h_kde = {h_kde} exceeds the smallest domain width"
        )
    floor = 0.5 * float(eta)
    pts = np.array(pts, copy=True)
    pts.setflags(write=False)

    def eval_rows(rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != d:
            raise MirrorSobolError(f"queries must be (n, {d}) rows")
        if not np.all(domain.contains(rows)):
            raise DomainViolationError("density queried outside the stated domain")
        sums = window_sums(pts, np.ones((m, 1)), kernel, [h_kde], domain, anchors=rows)[0, :, 0]
        return np.maximum(sums / m, floor)

    return DensityEstimate(
        kind="mirror_kde",
        params={"h_kde": h_kde, "eta": float(eta), "m": m},
        eval_rows=eval_rows,
    )

