"""Pilot-based automatic bandwidth selection.

A Gaussian-kernel pilot regressor (never mirror-corrected) supplies both a
target for E[g1(X)^2], computed as one tensor Gauss quadrature over the
mask axes, and virtual outputs; the selected h makes the kernel U-statistic
on the virtual outputs match the target.  The pilot marginals are `Uniform`
or `Beta`: a Uniform mask axis takes composite Gauss-Legendre panels, a Beta
mask axis adds Gauss-Jacobi end panels for its 1/f.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .domain import Domain, check_mirror_condition
from .errors import (
    BandwidthTooLargeError,
    MirrorSobolError,
    PilotTargetError,
)
from .estimator import FullSample, SubsetSpec, _t_values
from .inputs import Beta, InputModel, Uniform
from .kernels import KernelD

__all__ = [
    "rule_of_thumb_h0",
    "pilot_target",
    "virtual_outputs",
    "default_grid",
    "bandwidth_curve",
]

# below this pilot bandwidth the virtual outputs blow up like K(0)^p / h0^p;
# every consumer of h0 clips at this floor
H0_FLOOR = 1e-3
# candidate bandwidths in the default selection grid
_GRID_SIZE = 25


def _clipped_h0(h0) -> np.ndarray:
    h0 = np.asarray(h0, dtype=float).ravel()
    if h0.size == 0 or not np.all(np.isfinite(h0)) or np.any(h0 <= 0):
        raise MirrorSobolError(f"pilot bandwidths must be positive reals, got {h0}")
    return np.maximum(h0, H0_FLOOR)


def _pilot_inputs(sample: FullSample, h0, marginals) -> tuple:
    """(V, Y, clipped h0) of a pilot computation; one h0 and one marginal per input axis."""
    v = np.asarray(sample.V, dtype=float)
    y = np.asarray(sample.Y, dtype=float)
    p = v.shape[1]
    h0 = _clipped_h0(h0)
    if h0.size != p:
        raise MirrorSobolError(f"h0 has {h0.size} entries for {p} input axes")
    if len(marginals) != p:
        raise MirrorSobolError(f"{len(marginals)} pilot marginals for {p} input axes")
    InputModel(marginals)  # checks that every marginal is Uniform or Beta
    return v, y, h0


def rule_of_thumb_h0(sample: FullSample) -> np.ndarray:
    """Scott-type pilot bandwidths h0_i = std(V_i) * n^(-1/(4+p))."""
    n, p = sample.V.shape
    spread = np.ptp(sample.V, axis=0)
    if np.any(spread == 0.0):
        bad = np.nonzero(spread == 0.0)[0].tolist()
        raise MirrorSobolError(f"constant input column(s) {bad}: rule-of-thumb bandwidth undefined")
    stds = sample.V.std(axis=0)
    return stds * n ** (-1.0 / (4.0 + p))


def _beta_single(sample: FullSample, i: int, h0_i: float, support) -> np.ndarray:
    """Off-mask mass vector for axis i: pilot kernel mass over the support.

    For an interval support this is exactly a difference of normal cdfs, so
    no quadrature is needed.  h0_i is already clipped, and the marginal
    checked its support when it was built.
    """
    a, b = support
    v = sample.V[:, i]
    return _normal_cdf((b - v) / h0_i) - _normal_cdf((a - v) / h0_i)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf, 0.5 erfc(-z / sqrt(2)), which keeps its relative precision in the lower tail."""
    return np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in z.tolist()])


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
# rows per block: a block's kernel matrices and Khatri-Rao rows hold about
# this many entries, whatever n is
_BLOCK_ENTRIES = 2**15


def _gauss_kernel(v: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    z = (v[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z * z) / (h * math.sqrt(2.0 * math.pi))


def _legendre_rule(marginal, g: int):
    """Composite Gauss-Legendre nodes on the support, weights divided by f.

    Uniform and Beta densities are positive at every Gauss node, which lies
    strictly inside its panel.
    """
    a, b = marginal.support
    edges = np.linspace(a, b, g // _PANEL_T.size + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half * (_PANEL_T + 1.0)).ravel()
    w = (half * _PANEL_W).ravel()
    return x, w / marginal.pdf(x)


def _beta_rule(marginal, g: int):
    """Composite Gauss-Legendre with Gauss-Jacobi end panels for a Beta(a, b) marginal.

    1/f = B(a, b) x^(1-a) (1-x)^(1-b); each end panel takes the factor that
    is singular at its end as its Jacobi weight, so no panel integrates a
    singularity.
    """
    from scipy import special

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


def pilot_target(sample: FullSample, spec: SubsetSpec, h0, marginals) -> tuple:
    """Pilot estimate of E[g1(X)^2]; returns (target, target_printed).

    With independent inputs the all-pairs sum (1/n^2) sum_jk u_j u_k
    prod_{i in mask} beta_i(j, k) equals the integral over the mask box of
    g^(x)^2 / f_mask(x), where g^(x) = (1/n) sum_j u_j prod_i K_{h0_i}(V_ij - x_i)
    and u_j is Y_j times the closed-form off-mask kernel masses.  The
    integral is taken on a tensor Gauss grid at O(n prod G_i) time, in row
    blocks of about _BLOCK_ENTRIES kernel values, so beside the prod G_i
    values of g^ the memory does not grow with n.  target_printed is the
    paper's half-open sum (1/n^2) sum_{j <= k}, i.e. (target + diagonal) / 2
    on the same nodes.

    marginals holds one marginal per input axis.  Raises PilotTargetError,
    naming the axis, when the target is infinite (a Beta mask marginal with
    a shape >= 2) or beyond the work budget.
    """
    v, y, h0 = _pilot_inputs(sample, h0, marginals)
    n, p = v.shape
    mask = tuple(spec.mask)
    u = y.copy()
    for i in range(p):
        if i not in mask:
            u = u * _beta_single(sample, i, h0[i], marginals[i].support)
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
    rules = [
        (_beta_rule if isinstance(marginals[i], Beta) else _legendre_rule)(marginals[i], g)
        for i, g in zip(mask, sizes)
    ]
    # g^ is accumulated as (rows of the Khatri-Rao product of all but the
    # last axis)^T @ (kernel matrix of the last axis), one row block at a
    # time; with three or more axes, one node of the first axis at a time,
    # so that a small block still makes gemms of many rows
    outer = sizes[0] if len(sizes) > 2 else 1
    ghat = np.zeros((outer, nodes // (outer * sizes[-1]), sizes[-1]))
    step = max(1, _BLOCK_ENTRIES // (sum(sizes) + ghat.shape[1]))
    diag = 0.0
    for s in range(0, n, step):
        rows = slice(s, min(s + step, n))
        mats = [_gauss_kernel(v[rows, i], h0[i], x) for i, (x, _) in zip(mask, rules)]
        first, middle = (u[rows, None] * mats[0], mats[1:-1]) if outer > 1 else (u[rows, None], mats[:-1])
        for node in range(outer):
            kr = first[:, node, None]
            for mat in middle:
                kr = (kr[:, :, None] * mat[:, None, :]).reshape(kr.shape[0], -1)
            ghat[node] += kr.T @ mats[-1]
        self_terms = u[rows] ** 2
        for mat, (_, wf) in zip(mats, rules):
            self_terms = self_terms * (mat**2 @ wf)
        diag += float(np.sum(self_terms))
    val = (ghat**2).reshape(sizes)
    for _, wf in reversed(rules):
        val = val @ wf
    full = float(val) / n**2
    return full, 0.5 * (full + diag / n**2)


# rows per block of the in-place passes below: at n = 2000 to 10^4, blocks
# of 16 rows ran faster than 64, 256 or 512 (the two buffers stay in cache)
_VIRT_BLOCK = 16


def virtual_outputs(sample: FullSample, h0, marginals) -> np.ndarray:
    """Virtual outputs: the leave-one-out Gaussian pilot regressor at the sample points.

    Y~_j = (1/(n-1)) (1/f_V(V_j)) sum_{j' != j} Y_{j'} prod_i K~_{h0_i}(V_{i,j'} - V_{i,j}),
    with f_V the product of `marginals` (one per input axis, as in
    pilot_target).  Dropping the self-term centers the selection objective:
    with it, the virtual U-statistic is coupled to its own target.
    """
    v, y, h0 = _pilot_inputs(sample, h0, marginals)
    n, p = v.shape
    fvals = np.prod([m.pdf(v[:, i]) for i, m in enumerate(marginals)], axis=0)
    if np.any(fvals <= 0.0) or not np.all(np.isfinite(fvals)):
        raise MirrorSobolError("the pilot marginals' density must be positive and finite at all sample points")
    inv_h = 1.0 / h0
    log_norm = -np.sum(np.log(h0)) - 0.5 * p * math.log(2 * math.pi)
    cols = np.ascontiguousarray(v.T)
    out = np.empty(n)
    # a one-row block would take numpy's one-row product instead of gemv and
    # round its sum differently, so a one-row tail joins the block before it
    starts = list(range(0, n, _VIRT_BLOCK)) + [n]
    if len(starts) > 2 and starts[-1] - starts[-2] == 1:
        del starts[-2]
    z_buf, expo_buf = (np.empty((min(_VIRT_BLOCK + 1, n), n)) for _ in range(2))
    # a scaled offset past about 1.3e154 squares to inf, and exp(-inf) = 0 is
    # the kernel's value there, so that overflow is not reported
    with np.errstate(over="ignore"):
        for start, stop in zip(starts[:-1], starts[1:]):
            z, expo = z_buf[: stop - start], expo_buf[: stop - start]
            # expo = -0.5 sum_i z_i^2 with z_i = (v_j' - v_j) / h0_i.  Halving
            # commutes with rounding, so this has the bits of the dense formula's
            # -sum_i 0.5 z_i z_i; where a square overflows or is subnormal the
            # two can differ, but exp(expo + log_norm) cannot
            for i in range(p):
                np.subtract(cols[i], cols[i, start:stop, None], out=z)
                np.multiply(z, inv_h[i], out=z)
                if i == 0:
                    np.square(z, out=expo)
                else:
                    np.square(z, out=z)
                    np.add(expo, z, out=expo)
            np.multiply(expo, -0.5, out=expo)
            np.add(expo, log_norm, out=expo)
            np.exp(expo, out=expo)
            out[start:stop] = expo @ y
    return (out - y * math.exp(log_norm)) / ((n - 1) * fvals)


def default_grid(n: int, domain: Domain) -> np.ndarray:
    """Log-spaced candidate bandwidths from (0.05 n)^(-1/d) up to the mirror limit, d = domain.dim.

    The lower endpoint keeps every candidate above the pair-informative
    threshold n^(-1/d) / 20^(1/d); below roughly n^(-1/d) the pair windows
    are almost all empty and the selection objective is pure noise.
    """
    widths = domain.upper - domain.lower
    hi = float(widths.min())
    lo = (0.05 * n) ** (-1.0 / domain.dim)
    if lo >= hi:
        lo = hi / 100.0
    return np.geomspace(lo, hi, _GRID_SIZE)


def bandwidth_curve(
    sample: FullSample,
    spec: SubsetSpec,
    kernel: KernelD,
    f_x,
    *,
    h0=None,
    grid=None,
    domain: Optional[Domain] = None,
    input_model: Optional[InputModel] = None,
) -> dict:
    """Evaluate the selection objective on the grid and pick h*.

    Returns {"h_star", "target", "target_printed", "curve": [(h, |T~ - target|)]}.
    The objective compares the U-statistic on leave-one-out virtual outputs
    (see virtual_outputs) to the pilot target (see pilot_target); h* is the
    grid minimizer, ties going to the smaller h.  The pilot bandwidths h0
    default to rule_of_thumb_h0(sample), and the strictly ascending grid to
    default_grid on the mask's subdomain, where every grid entry must meet
    the mirror condition.

    When f_x is an InputModel it stands in for a missing input_model.  The
    domain defaults to the input model's box; without an input model it is
    required.  The pilot marginals, for both the target and the virtual
    outputs' density f_V, are those of the input model, or uniform on the
    domain when there is none.
    """
    if input_model is None and isinstance(f_x, InputModel):
        input_model = f_x
    if domain is None:
        if input_model is None:
            raise MirrorSobolError("a domain is required when f_x is not an InputModel")
        domain = input_model.domain
    if input_model is not None:
        marginals = input_model.marginals
    else:
        marginals = tuple(Uniform(lo, hi) for lo, hi in zip(domain.lower, domain.upper))
    sub = domain.subdomain(spec.mask)
    grid = default_grid(sample.n, sub) if grid is None else np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise MirrorSobolError("the candidate grid is empty")
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise MirrorSobolError(f"grid entries must be positive reals, got {grid}")
    if np.any(np.diff(grid) <= 0):
        raise MirrorSobolError("the candidate grid must be strictly ascending")
    for h in grid:
        if not check_mirror_condition(sub, float(h)):
            raise BandwidthTooLargeError(f"grid entry {h} violates the mirror condition")
    if h0 is None:
        h0 = rule_of_thumb_h0(sample)
    target, target_printed = pilot_target(sample, spec, h0, marginals)
    sample_virtual = FullSample(V=sample.V, Y=virtual_outputs(sample, h0, marginals))
    values = np.abs(np.array(_t_values(sample_virtual, spec, kernel, grid, f_x, domain)) - target)
    idx = int(np.argmin(values))  # first minimum = smallest h on an ascending grid
    return {
        "h_star": float(grid[idx]),
        "target": target,
        "target_printed": target_printed,
        "curve": [(float(h), float(v)) for h, v in zip(grid, values)],
    }
