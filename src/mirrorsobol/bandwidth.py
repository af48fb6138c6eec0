"""Pilot-based automatic bandwidth selection.

A Gaussian-kernel pilot regressor (never mirror-corrected) supplies both a
target for E[g1(X)^2], computed as one tensor Gauss quadrature over the
mask axes, and virtual outputs; the selected h makes the kernel U-statistic
on the virtual outputs match the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special
from scipy.stats import norm

from .domain import Domain, check_mirror_condition
from .errors import (
    BandwidthTooLargeError,
    InsufficientSampleError,
    MirrorSobolError,
    PilotTargetError,
)
from .estimator import FullSample, SubsetSpec, estimate_t
from .inputs import Beta, Uniform
from .kernels import KernelD

__all__ = [
    "PilotConfig",
    "rule_of_thumb_h0",
    "compute_beta_single",
    "pilot_target",
    "virtual_outputs",
    "default_grid",
    "bandwidth_curve",
]

# below this pilot bandwidth the virtual outputs blow up like K(0)^p / h0^p;
# every consumer of h0 clips at this floor
H0_FLOOR = 1e-3

@dataclass(frozen=True)
class PilotConfig:
    """Pilot bandwidths and the candidate grid for the main bandwidth."""

    h0: tuple
    grid: tuple

    def __post_init__(self):
        h0 = tuple(float(v) for v in np.asarray(self.h0, dtype=float).ravel())
        grid = tuple(float(v) for v in np.asarray(self.grid, dtype=float).ravel())
        if len(h0) == 0:
            raise MirrorSobolError("pilot config needs at least one h0 entry")
        if any(not (np.isfinite(v) and v > 0) for v in h0):
            raise MirrorSobolError(f"pilot bandwidths must be positive reals, got {h0}")
        if len(grid) == 0:
            raise MirrorSobolError("the candidate grid is empty")
        if any(not (np.isfinite(v) and v > 0) for v in grid):
            raise MirrorSobolError(f"grid entries must be positive reals, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise MirrorSobolError("the candidate grid must be strictly ascending")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "grid", grid)


def _clipped_h0(h0) -> np.ndarray:
    h0 = np.asarray(h0, dtype=float).ravel()
    if h0.size == 0 or not np.all(np.isfinite(h0)) or np.any(h0 <= 0):
        raise MirrorSobolError(f"pilot bandwidths must be positive reals, got {h0}")
    return np.maximum(h0, H0_FLOOR)


def rule_of_thumb_h0(sample: FullSample) -> np.ndarray:
    """Scott-type pilot bandwidths h0_i = std(V_i) * n^(-1/(4+p))."""
    n, p = sample.V.shape
    if n < 2:
        raise InsufficientSampleError(f"pilot bandwidths need n >= 2, got {n}")
    spread = np.ptp(sample.V, axis=0)
    if np.any(spread == 0.0):
        bad = np.nonzero(spread == 0.0)[0].tolist()
        raise MirrorSobolError(f"constant input column(s) {bad}: rule-of-thumb bandwidth undefined")
    stds = sample.V.std(axis=0)
    return stds * n ** (-1.0 / (4.0 + p))


def compute_beta_single(sample: FullSample, i: int, h0_i: float, support=(0.0, 1.0)) -> np.ndarray:
    """Off-mask mass vector for axis i: pilot kernel mass over the support.

    For an interval support this is exactly a difference of normal cdfs, so
    no quadrature is needed.
    """
    h0_i = float(_clipped_h0([h0_i])[0])
    a, b = float(support[0]), float(support[1])
    if not (b > a):
        raise MirrorSobolError(f"support must be a nondegenerate interval, got ({a}, {b})")
    v = np.asarray(sample.V[:, i], dtype=float)
    return norm.cdf((b - v) / h0_i) - norm.cdf((a - v) / h0_i)


# quadrature nodes per mask axis: at least 4 per pilot bandwidth across the
# support, in panels of a fixed 16-point Gauss rule (one global Legendre or
# Jacobi rule of thousands of nodes loses digits near the ends of the
# support, and drifts as G grows); this resolves the squared Gaussian bumps
# of the pilot regressor to ~1e-14
_PANEL_T, _PANEL_W = np.polynomial.legendre.leggauss(16)
_NODES_PER_H0 = 4.0
# one pilot target may cost at most this many kernel products n * prod(G_i)
# (every mask of size <= 3 at n = 1e4 with rule-of-thumb h0 fits) and hold
# at most this many tensor nodes
_WORK_BUDGET = 2**33
_NODE_BUDGET = 2**22
# rows per block: bounds the kernel matrices to O(block * G) memory
_BLOCK_ENTRIES = 2**21
# G-node versus 2G-node agreement required of a Custom density's rule
_CONVERGENCE_RTOL = 1e-9


def _gauss_kernel(v: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    z = (v[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))


def _self_overlap(v: np.ndarray, h: float, x: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """Per-point quadrature of K_h(v_j - x)^2 / f(x) on one axis."""
    step = max(1, _BLOCK_ENTRIES // x.size)
    return np.concatenate([_gauss_kernel(v[s : s + step], h, x) ** 2 @ wf for s in range(0, v.size, step)])


def _legendre_rule(marginal, g: int):
    """Composite Gauss-Legendre nodes on the support, weights divided by f (0 where f = 0)."""
    a, b = marginal.support
    edges = np.linspace(a, b, g // _PANEL_T.size + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half * (_PANEL_T + 1.0)).ravel()
    w = (half * _PANEL_W).ravel()
    f = np.asarray(marginal.pdf(x), dtype=float)
    with np.errstate(divide="ignore"):
        wf = np.where(f > 0.0, w / f, 0.0)
    return x, wf


def _beta_rule(marginal, g: int):
    """Composite Gauss-Legendre with Gauss-Jacobi end panels for a Beta(a, b) marginal.

    1/f = B(a, b) x^(1-a) (1-x)^(1-b); each end panel takes the factor that
    is singular at its end as its Jacobi weight, so no panel integrates a
    singularity.
    """
    ea, eb = 1.0 - marginal.a, 1.0 - marginal.b
    x, wf = (arr.reshape(-1, _PANEL_T.size) for arr in _legendre_rule(marginal, g))
    half = 0.5 / x.shape[0]
    scale = special.beta(marginal.a, marginal.b)
    t, w = special.roots_jacobi(_PANEL_T.size, 0.0, ea)
    x[0] = half * (1.0 + t)
    wf[0] = scale * half ** (1.0 + ea) * w * (1.0 - x[0]) ** eb
    t, w = special.roots_jacobi(_PANEL_T.size, eb, 0.0)
    x[-1] = 1.0 - half * (1.0 - t)
    wf[-1] = scale * half ** (1.0 + eb) * w * x[-1] ** ea
    return x.ravel(), wf.ravel()


def _node_count(axis: int, h0_i: float, marginal) -> int:
    if isinstance(marginal, Beta) and max(marginal.a, marginal.b) >= 2.0:
        raise PilotTargetError(
            axis,
            f"mask axis {axis} has a Beta({marginal.a}, {marginal.b}) marginal: with a shape >= 2 "
            "1/f is not integrable at the support edge, so the pilot target is infinite; "
            "set the bandwidth with --h or --rule instead of --auto",
        )
    a, b = marginal.support
    panels = max(2, math.ceil(_NODES_PER_H0 * (b - a) / (_PANEL_T.size * h0_i)))
    return panels * _PANEL_T.size


def _axis_rule(axis: int, v: np.ndarray, h0_i: float, marginal, g: int):
    """Nodes x and weights w/f of the pilot quadrature on one mask axis.

    A Beta marginal's 1/f is a Jacobi weight, integrated by Gauss-Jacobi end
    panels (see _beta_rule).  Other marginals use composite Gauss-Legendre;
    a Custom density, whose 1/f may be singular, must give the same
    per-point overlaps on G and 2G nodes.
    """
    if isinstance(marginal, Beta):
        return _beta_rule(marginal, g)
    x, wf = _legendre_rule(marginal, g)
    if not isinstance(marginal, Uniform):
        coarse = _self_overlap(v, h0_i, x, wf)
        fine = _self_overlap(v, h0_i, *_legendre_rule(marginal, 2 * g))
        gap = float(np.max(np.abs(fine - coarse)))
        if not (gap <= _CONVERGENCE_RTOL * float(np.max(fine))):
            raise PilotTargetError(
                axis,
                f"the pilot quadrature on mask axis {axis} does not converge: {g} and {2 * g} nodes "
                f"differ by {gap:.3g} (is 1/f singular on the support?); "
                "set the bandwidth with --h or --rule instead of --auto",
            )
    return x, wf


def pilot_target(sample: FullSample, spec: SubsetSpec, h0, marginals) -> tuple:
    """Pilot estimate of E[g1(X)^2]; returns (target, target_printed).

    With independent inputs the all-pairs sum (1/n^2) sum_jk u_j u_k
    prod_{i in mask} beta_i(j, k) equals the integral over the mask box of
    g^(x)^2 / f_mask(x), where g^(x) = (1/n) sum_j u_j prod_i K_{h0_i}(V_ij - x_i)
    and u_j is Y_j times the closed-form off-mask kernel masses.  The
    integral is taken on a tensor Gauss grid at O(n prod G_i) time and
    O(n G) memory.  target_printed is the paper's half-open sum
    (1/n^2) sum_{j <= k}, i.e. (target + diagonal) / 2 on the same nodes.

    marginals holds one marginal per input axis.  Raises PilotTargetError,
    naming the axis, when the target is infinite (a Beta mask marginal with
    a shape >= 2), beyond the work budget, or unresolved by the quadrature.
    """
    v = np.asarray(sample.V, dtype=float)
    y = np.asarray(sample.Y, dtype=float)
    n, p = v.shape
    h0 = _clipped_h0(h0)
    if h0.size != p:
        raise MirrorSobolError(f"h0 has {h0.size} entries for {p} input axes")
    if len(marginals) != p:
        raise MirrorSobolError(f"{len(marginals)} pilot marginals for {p} input axes")
    mask = tuple(spec.mask)
    u = y.copy()
    for i in range(p):
        if i not in mask:
            u = u * compute_beta_single(sample, i, h0[i], support=marginals[i].support)
    sizes = [_node_count(i, h0[i], marginals[i]) for i in mask]
    nodes = math.prod(sizes)
    if n * nodes > _WORK_BUDGET or nodes > _NODE_BUDGET:
        worst = mask[int(np.argmax(sizes))]
        raise PilotTargetError(
            worst,
            f"the pilot target over mask axes {list(mask)} needs {n} x {' x '.join(map(str, sizes))} "
            f"kernel products, beyond the budget of {_WORK_BUDGET} ({_NODE_BUDGET} nodes); axis {worst} "
            "needs the most nodes; set the bandwidth with --h or --rule instead of --auto",
        )
    rules = [_axis_rule(i, v[:, i], h0[i], marginals[i], g) for i, g in zip(mask, sizes)]
    # g^ is accumulated as (rows of the Khatri-Rao product of all but the
    # last axis)^T @ (kernel matrix of the last axis), one row block at a time
    lead = nodes // sizes[-1]
    step = max(1, _BLOCK_ENTRIES // (lead + sum(sizes)))
    ghat = np.zeros((lead, sizes[-1]))
    diag = 0.0
    for s in range(0, n, step):
        rows = slice(s, min(s + step, n))
        mats = [_gauss_kernel(v[rows, i], h0[i], x) for i, (x, _) in zip(mask, rules)]
        kr = u[rows, None]
        for mat in mats[:-1]:
            kr = (kr[:, :, None] * mat[:, None, :]).reshape(kr.shape[0], -1)
        ghat += kr.T @ mats[-1]
        self_terms = u[rows] ** 2
        for mat, (_, wf) in zip(mats, rules):
            self_terms = self_terms * (mat**2 @ wf)
        diag += float(np.sum(self_terms))
    val = (ghat**2).reshape(sizes)
    for _, wf in reversed(rules):
        val = val @ wf
    full = float(val) / n**2
    return full, 0.5 * (full + diag / n**2)


_VIRT_BLOCK = 512


def virtual_outputs(sample: FullSample, h0, marginals) -> np.ndarray:
    """Virtual outputs: the leave-one-out Gaussian pilot regressor at the sample points.

    Y~_j = (1/(n-1)) (1/f_V(V_j)) sum_{j' != j} Y_{j'} prod_i K~_{h0_i}(V_{i,j'} - V_{i,j}),
    with f_V the product of `marginals` (one per input axis, as in
    pilot_target).  Dropping the self-term centers the selection objective:
    with it, the virtual U-statistic is coupled to its own target.
    """
    v = np.asarray(sample.V, dtype=float)
    y = np.asarray(sample.Y, dtype=float)
    n, p = v.shape
    h0 = _clipped_h0(h0)
    if h0.size != p:
        raise MirrorSobolError(f"h0 has {h0.size} entries for {p} input axes")
    if len(marginals) != p:
        raise MirrorSobolError(f"{len(marginals)} pilot marginals for {p} input axes")
    fvals = np.prod([m.pdf(v[:, i]) for i, m in enumerate(marginals)], axis=0)
    if np.any(fvals <= 0.0) or not np.all(np.isfinite(fvals)):
        raise MirrorSobolError("the pilot marginals' density must be positive and finite at all sample points")
    inv_h = 1.0 / h0
    log_norm = -np.sum(np.log(h0)) - 0.5 * p * math.log(2 * math.pi)
    out = np.empty(n)
    for start in range(0, n, _VIRT_BLOCK):
        blk = slice(start, min(start + _VIRT_BLOCK, n))
        expo = np.zeros((blk.stop - blk.start, n))
        for i in range(p):
            z = (v[None, :, i] - v[blk, i][:, None]) * inv_h[i]
            expo -= 0.5 * z * z
        out[blk] = np.exp(expo + log_norm) @ y
    return (out - y * math.exp(log_norm)) / ((n - 1) * fvals)


def default_grid(n: int, d: int, domain: Domain, size: int = 25) -> np.ndarray:
    """Log-spaced candidate bandwidths from (0.05 n)^(-1/d) up to the mirror limit.

    The lower endpoint keeps every candidate above the pair-informative
    threshold n^(-1/d) / 20^(1/d); below roughly n^(-1/d) the pair windows
    are almost all empty and the selection objective is pure noise.
    """
    widths = domain.upper - domain.lower
    hi = float(widths.min())
    lo = (0.05 * n) ** (-1.0 / d)
    if lo >= hi:
        lo = hi / 100.0
    return np.geomspace(lo, hi, size)


def _objective(h, sample_virtual, spec, kernel, f_x, domain, target):
    t_tilde = estimate_t(sample_virtual, spec, kernel, h, f_x, domain=domain)
    return abs(t_tilde - target)


def bandwidth_curve(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    config: PilotConfig,
    f_x,
    *,
    domain: Optional[Domain] = None,
    input_model=None,
) -> dict:
    """Evaluate the selection objective on the grid and pick h*.

    Returns {"h_star", "target", "target_printed", "curve": [(h, |T~ - target|)]}.
    The objective compares the U-statistic on leave-one-out virtual outputs
    (see virtual_outputs) to the pilot target (see pilot_target); h* is the
    grid minimizer, ties going to the smaller h.  Every grid entry must meet
    the mirror condition on the mask's subdomain.

    The pilot marginals, for both the target and the virtual outputs'
    density f_V, are those of input_model, or uniform on the domain when
    there is none.
    """
    if domain is None:
        if input_model is not None:
            domain = input_model.domain
        else:
            p = sample.V.shape[1]
            domain = Domain(np.zeros(p), np.ones(p))
    grid = np.asarray(config.grid, dtype=float)
    sub = domain.subdomain(spec.mask)
    for h in grid:
        if not check_mirror_condition(sub, float(h)):
            raise BandwidthTooLargeError(f"grid entry {h} violates the mirror condition")
    if input_model is not None:
        marginals = input_model.marginals
    else:
        marginals = tuple(Uniform(lo, hi) for lo, hi in zip(domain.lower, domain.upper))
    target, target_printed = pilot_target(sample, spec, config.h0, marginals)
    y_virtual = virtual_outputs(sample, config.h0, marginals)
    sample_virtual = FullSample(V=sample.V, Y=y_virtual)
    values = np.array(
        [_objective(float(h), sample_virtual, spec, kernel, f_x, domain, target) for h in grid]
    )
    idx = int(np.argmin(values))  # first minimum = smallest h on an ascending grid
    return {
        "h_star": float(grid[idx]),
        "target": target,
        "target_printed": target_printed,
        "curve": [(float(h), float(v)) for h, v in zip(grid, values)],
    }
