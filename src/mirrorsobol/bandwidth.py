"""Pilot-based automatic bandwidth selection.

A Gaussian-kernel pilot regressor (never mirror-corrected) supplies both a
target for E[g1(X)^2], computed as one tensor Gauss quadrature over the
mask axes, and virtual outputs; the selected h makes the kernel U-statistic
on the virtual outputs match the target.  The pilot marginals are `Uniform`
or `Beta`: a Uniform mask axis takes composite Gauss-Legendre panels, a Beta
mask axis adds Gauss-Jacobi end panels for its 1/f.  The virtual outputs
take the rows in small blocks of one cell, each centred at its first row,
and get every kernel exponent of a block from one matrix product over half
the kernel matrix; their rounding error is about eps (d + 2 rho)^2 for a
pair d pilot bandwidths apart in a block of radius rho.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._quad import gauss_legendre
from ._window import _stable_order
from .domain import Domain
from .errors import InsufficientSampleError, MirrorSobolError, PilotTargetError
from .estimator import FullSample, SubsetSpec, _finite, _prepare, _t_values
from .inputs import Beta, InputModel, Uniform, subset_density_fn
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
    v, y = sample.V, sample.Y  # float arrays, as FullSample holds them
    p = v.shape[1]
    h0 = _clipped_h0(h0)
    if h0.size != p:
        raise MirrorSobolError(f"h0 has {h0.size} entries for {p} input axes")
    if len(marginals) != p:
        raise MirrorSobolError(f"{len(marginals)} pilot marginals for {p} input axes")
    InputModel(marginals)  # checks that every marginal is Uniform or Beta
    return v, y, h0


def rule_of_thumb_h0(sample: FullSample) -> np.ndarray:
    """Scott-type pilot bandwidths h0_i = std(V_i) * n^(-1/(4+p)), the std taken over the sorted column."""
    n, p = sample.V.shape
    spread = np.ptp(sample.V, axis=0)
    if np.any(spread == 0.0):
        bad = np.nonzero(spread == 0.0)[0].tolist()
        raise MirrorSobolError(f"constant input column(s) {bad}: rule-of-thumb bandwidth undefined")
    stds = np.sort(sample.V, axis=0).std(axis=0)  # no digit depends on the row order
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
    t = -z / math.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, t.tolist()), float, t.size)


# quadrature nodes per mask axis: at least 4 per pilot bandwidth across the
# support, in panels of a fixed 16-point Gauss rule (one global Legendre or
# Jacobi rule of thousands of nodes loses digits near the ends of the
# support, and drifts as G grows); this resolves the squared Gaussian bumps
# of the pilot regressor to ~1e-14
_PANEL = 16
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
    edges = np.linspace(a, b, g // _PANEL + 1)[:, None]
    x, w = (arr.ravel() for arr in gauss_legendre(_PANEL, edges[:-1], edges[1:]))
    return x, w / marginal.pdf(x)


def _beta_rule(marginal, g: int):
    """Composite Gauss-Legendre with Gauss-Jacobi end panels for a Beta(a, b) marginal.

    1/f = B(a, b) x^(1-a) (1-x)^(1-b); each end panel takes the factor that
    is singular at its end as its Jacobi weight, so no panel integrates a
    singularity.
    """
    from scipy import special

    ea, eb = 1.0 - marginal.a, 1.0 - marginal.b
    x, wf = (arr.reshape(-1, _PANEL) for arr in _legendre_rule(marginal, g))
    half = 0.5 / x.shape[0]
    scale = special.beta(marginal.a, marginal.b)
    t, w = special.roots_jacobi(_PANEL, 0.0, ea)
    x[0] = half * (1.0 + t)
    wf[0] = scale * half ** (1.0 + ea) * w * (1.0 - x[0]) ** eb
    t, w = special.roots_jacobi(_PANEL, eb, 0.0)
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
    panels = max(2, math.ceil(_NODES_PER_H0 * (b - a) / (_PANEL * h0_i)))
    return panels * _PANEL


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
    order = _stable_order(y, *v.T[::-1])  # blocks of rows by value: no sum depends on the input row order
    for s in range(0, n, step):
        rows = order[s : s + step]
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


# virtual_outputs takes blocks of at most _VIRT_BLOCK rows inside one cell of
# side _VIRT_CELL pilot bandwidths on every axis.  On linear3 at n = 4000
# (CPU time, median of 9 runs), cells of side 2, 4 and 8 ran alike, and the
# rounding error grows with the square of the cell diagonal; blocks of 32
# rows took 24 ms against 28 ms for 16 (171 against 164 ms at n = 10^4), at
# the cost of a (32, n) buffer of exponents
_VIRT_BLOCK = 32
_VIRT_CELL = 4.0
# scaled offsets are clipped here so that their squares stay finite; every
# clipped entry is exp(-huge) = 0, as it is in the dense formula
_OFFSET_CLIP = 2.0**500


def _cells(v: np.ndarray, inv_h: np.ndarray, cap: float) -> np.ndarray:
    """(n, p) cell numbers of side _VIRT_CELL pilot bandwidths on every axis.

    An axis is measured along its sorted values by the scaled gaps between
    neighbours, each a direct difference, with a gap wider than cap counted
    as cap (cap > _VIRT_CELL).  The positions stay below n cap, small enough
    to be floored exactly at any scale of V.  Two rows of one cell are
    closer than _VIRT_CELL pilot bandwidths on every axis, since no capped
    gap lies between them; rows whose cells on an axis differ by k are at
    least (k - 1) _VIRT_CELL apart on it, since capping only shortens.
    """
    n, p = v.shape
    cells = np.empty((n, p))
    pos = np.empty(n)
    for i in range(p):
        order = _stable_order(v[:, i])
        gaps = np.minimum(np.diff(v[order, i]) * inv_h[i], cap)
        pos[order[0]] = 0.0
        pos[order[1:]] = np.cumsum(gaps)
        cells[:, i] = np.floor(pos / _VIRT_CELL)
    return cells


def _blocks(cells: np.ndarray, window: int) -> tuple:
    """(first row, row stop, column stop) of every block of rows sorted by cell.

    A block is a run of at most _VIRT_BLOCK rows of one cell; its columns
    run from its first row through the last row whose axis-0 cell is at
    most `window` after its own.
    """
    runs = np.flatnonzero(np.r_[True, np.any(cells[1:] != cells[:-1], axis=1), True])
    count = -(-np.diff(runs) // _VIRT_BLOCK)  # blocks per run of one cell
    # a block starts _VIRT_BLOCK rows per earlier block of its run after the run
    index = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    starts = np.repeat(runs[:-1], count) + _VIRT_BLOCK * index
    stops = np.minimum(starts + _VIRT_BLOCK, np.repeat(runs[1:], count))
    ends = np.searchsorted(cells[:, 0], cells[starts, 0] + window, side="right")
    return starts.tolist(), stops.tolist(), ends.tolist()


def virtual_outputs(sample: FullSample, h0, marginals) -> np.ndarray:
    """Virtual outputs: the leave-one-out Gaussian pilot regressor at the sample points.

    Y~_j = (1/(n-1)) (1/f_V(V_j)) sum_{j' != j} Y_{j'} prod_i K~_{h0_i}(V_{i,j'} - V_{i,j}),
    with f_V the product of `marginals` (one per input axis, as in
    pilot_target).  Dropping the self-term centers the selection objective:
    with it, the virtual U-statistic is coupled to its own target.

    The rows are sorted by their cell of side _VIRT_CELL h0_i on every axis
    (see _cells) and taken in blocks of at most _VIRT_BLOCK rows of one
    cell.  With the offsets a = (V_row - V_s) / h0 and b = (V_col - V_s) / h0
    from the block's first row s, each a direct difference, one gemm of
    [a, log_norm - |a|^2/2, -1/2] and [b, 1, |b|^2] gives every exponent
    log_norm - |a - b|^2/2 of the block, and one exp its kernel values.  The
    rounding error of an exponent is about eps (d + 2 rho)^2 for a pair d
    pilot bandwidths apart, with the block radius rho below the cell
    diagonal _VIRT_CELL sqrt(p); nothing grows with |V| / h0.  A block's
    columns start at its first row, and each kernel value adds into the
    output of its row and of its column, so the exp of a pair of rows in
    two blocks is taken once.  Columns more than the reach
    R = sqrt(2 (log_norm + 746)) away on axis 0, past which exp underflows
    to 0, are skipped: the dense formula gives them 0 too.
    """
    v, y, h0 = _pilot_inputs(sample, h0, marginals)
    n, p = v.shape
    fvals = subset_density_fn(InputModel(marginals), range(p))(v)
    if np.any(fvals <= 0.0) or not np.all(np.isfinite(fvals)):
        raise MirrorSobolError("the pilot marginals' density must be positive and finite at all sample points")
    inv_h = 1.0 / h0
    log_norm = -np.sum(np.log(h0)) - 0.5 * p * math.log(2 * math.pi)
    # rows more than `window` axis-0 cells apart are more than the reach apart
    reach = math.sqrt(max(0.0, 2.0 * (log_norm + 746.0)))
    window = math.ceil(reach / _VIRT_CELL) + 1
    # a scaled difference of rows spread wider than about 1e305 h0 overflows
    # to inf before its clip (or its cap in _cells)
    with np.errstate(over="ignore"):
        cells = _cells(v, inv_h, (window + 2) * _VIRT_CELL)
        order = _stable_order(y, *v.T[::-1], *cells.T[::-1])  # axis-0 cells primary, then the rows' values
        cols = np.ascontiguousarray(v[order].T)
        ys = y[order]
        # rows of `terms`: the columns' [b; 1; |b|^2]; `front` is the block
        # rows' [a, 1, |a|^2] @ form = [a, log_norm - |a|^2/2, -1/2], so
        # that front @ terms = log_norm - |a|^2/2 + a.b - |b|^2/2
        terms = np.empty((p + 2, n))
        terms[p] = 1.0
        form = np.eye(p + 2)
        form[p:, p:] = [[log_norm, -0.5], [-0.5, 0.0]]
        front = np.empty((_VIRT_BLOCK, p + 2))
        scale = inv_h[:, None]
        expo = np.empty(_VIRT_BLOCK * n)
        own, later = np.empty(n), np.zeros(n)
        for s, t, e in zip(*_blocks(cells[order], window)):
            r, w = t - s, e - s
            b = terms[:p, :w]
            np.subtract(cols[:, s:e], cols[:, s, None], out=b)
            np.multiply(b, scale, out=b)
            np.clip(b, -_OFFSET_CLIP, _OFFSET_CLIP, out=b)
            np.einsum("ij,ij->j", b, b, out=terms[p + 1, :w])
            np.matmul(terms[:, :r].T, form, out=front[:r])
            kern = expo[: r * w].reshape(r, w)
            np.matmul(front[:r], terms[:, :w], out=kern)
            np.exp(kern, out=kern)
            expo[: r * w : w + 1] = 0.0  # each row's own term
            np.dot(kern, ys[s:e], out=own[s:t])
            later[t:e] += ys[s:t] @ kern[:, r:]
    out = np.empty(n)
    out[order] = own + later
    return out / ((n - 1) * fvals)


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
    grid minimizer, ties going to the smaller h, among the entries at which
    some window holds a second point (the estimate refuses the others);
    with no such entry it raises InsufficientSampleError.  The curve keeps
    every entry.  The pilot bandwidths h0 default to rule_of_thumb_h0(sample),
    and the strictly ascending grid to default_grid on the mask's subdomain,
    where every grid entry must meet the mirror condition.

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
    # the sample and the largest grid entry are checked before any pilot
    # work; the mirror condition then holds at every smaller entry
    prepared = _prepare(sample, spec, float(grid[-1]), f_x, domain)
    if h0 is None:
        h0 = rule_of_thumb_h0(sample)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        target, target_printed = pilot_target(sample, spec, h0, marginals)
        paired = [False] * grid.size
        values = np.abs(np.array(_t_values(prepared, virtual_outputs(sample, h0, marginals), kernel, grid, paired)) - target)
    _finite([*values, target_printed], sample.Y)
    if not any(paired):
        raise InsufficientSampleError(f"no window holds a second sample point at any grid h up to h={grid[-1]} with n={sample.n}; raise n")
    idx = int(np.argmin(np.where(paired, values, np.inf)))  # first minimum = smallest h on an ascending grid
    return {
        "h_star": float(grid[idx]),
        "target": target,
        "target_printed": target_printed,
        "curve": [(float(h), float(v)) for h, v in zip(grid, values)],
    }
