"""Mirrored kernel sums over each anchor's window.

Two backends compute the same sums.  Range moments use that the kernel is
a polynomial on its support: each window is summed from moments of the
points about the centers of cells of side h/2, so its pairs are never
listed.  They serve the estimator's self-pair sums in one dimension always,
and in two when the windows hold enough pairs to pay for the structure.
The cell grid serves everything else (d >= 3, small 2-D windows, sums at
other anchors such as mirror_kde's, and samples too fine for int64 cell
indices): it lists the pairs of each window and evaluates the kernel on
every one.

One call takes an ascending sequence of bandwidths, as the bandwidth grid
needs.  The rows are sorted once; each bandwidth for which range moments
pay takes them, and the rest share one grid listing at the largest of
them: the window of a smaller h lies in that of a larger one, so each pair
is listed once, ordered by the first bandwidth whose window holds it, and
each bandwidth evaluates the kernel on the pairs that have entered by then.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import Domain, sign_matrix

# candidate pairs per anchor block of the grid; larger blocks raise the
# peak memory without running faster
_PAIR_BUDGET = 2**16
# the cost of a grid run in candidate pairs, and the most cells per ball
# side; measured on uniform samples in d = 2 to 4 (n = 2000 to 10^4), the m
# that _cells_per_ball picks ran within 4% of the fastest of 1 to 16
_RUN_COST = 1.0
_MAX_CELLS = 16
# expected window pairs per anchor from which range moments serve d = 2: the
# grid costs about 100 to 130 ns per pair, range moments about the same at
# any h; measured, they break even near 30 pairs per anchor at n = 2000 and
# 95 at n = 10^4
_MOMENT_CROSSOVER = 60.0


def window_sums(x, weights, kernel, hs, domain: Domain, anchors=None) -> np.ndarray:
    """S[j, a, c] = sum_b weights[b, c] K_{h_j}(A_{q_a}(x_b - q_a)) for every anchor q_a and bandwidth h_j.

    x holds the (m, d) points and weights their (m, r) weight columns; hs is
    an ascending sequence of bandwidths, and the result holds one (anchors,
    r) block per bandwidth.  With anchors None the anchors are the points and
    the pair b = a is left out (duplicate rows stay in); the rows are then
    put in a canonical order once, so the sums do not depend on the input
    row order, and a bandwidth takes the range-moment backend in d = 1, and
    in d = 2 once the expected window pairs per anchor, tied rows counted,
    reach _MOMENT_CROSSOVER.  Every other bandwidth takes the grid, and so
    do samples whose cell indices or layout keys would not fit in int64; the
    grid bandwidths of a call share one listing of pairs.
    """
    hs = np.asarray(hs, dtype=float).ravel()
    if anchors is not None:
        return _grid_sums(x, weights, kernel, hs, domain, anchors, self_pairs=False)
    order = np.lexsort(x.T[::-1])
    # tied[i]: sorted row i + 1 equals row i; the weights order tied rows
    tied = np.all(x[order[1:]] == x[order[:-1]], axis=1)
    if np.any(tied):
        order = np.lexsort(np.vstack([weights.T[::-1], x.T[::-1]]))
    x, weights = x[order], weights[order]
    side = kernel.support[1] - kernel.support[0]
    moments = np.array([_moments_pay(tied, side * h, domain) for h in hs], dtype=bool)
    # each block goes back to the input row order as it is stored
    out = np.empty((hs.size,) + weights.shape)
    grid = np.flatnonzero(~moments)
    if grid.size:
        out[np.ix_(grid, order)] = _grid_sums(x, weights, kernel, hs[grid], domain, x, self_pairs=True)
    moment_sums = _moment_sums_1d if x.shape[1] == 1 else _moment_sums_2d
    for j in np.flatnonzero(moments):
        out[j, order] = moment_sums(x, weights, kernel.coeffs, kernel.support, float(hs[j]), domain)
    return out


def _moments_pay(tied: np.ndarray, side: float, domain: Domain) -> bool:
    """Whether range moments serve points whose sorted rows repeat where `tied` is set.

    `side` is the window side, which is also the cell side.  Cell indices
    reach widths / side, and the d = 2 layout keys (n + 1)^3; where either
    would not fit in int64 the grid serves.
    """
    n, d = tied.size + 1, domain.dim
    if float(np.max(domain.widths)) / side >= 2.0**62 or (d == 2 and float(n + 1) ** 3 >= 2.0**63):
        return False
    if d != 2:
        return d == 1
    spread = n * n * float(np.prod(np.minimum(1.0, side / domain.widths)))
    return spread + _tied_pairs(tied) >= _MOMENT_CROSSOVER * n


def _tied_pairs(tied: np.ndarray) -> float:
    """Sum of g^2 over the runs of g equal sorted rows, `tied` marking each row equal to the next.

    Each row of a run has the whole run in its window, so these pairs are
    there however small h is.
    """
    groups = np.diff(np.flatnonzero(np.concatenate(([True], ~tied, [True]))))
    return float(np.sum(groups.astype(float) ** 2))


# --------------------------------------------------------------------------
# the grid backend


def _grid_sums(x, weights, kernel, hs: np.ndarray, domain: Domain, anchors, self_pairs: bool) -> np.ndarray:
    """Window sums at each bandwidth of the ascending hs, over the pairs that one sorted cell grid lists.

    The kernel vanishes outside the box q_a + s_a [lo h, hi h]^d, a max-norm
    ball, and with the support holding 0 the ball of every h lies in that of
    the largest.  So the pairs are listed once, at the largest h, with a
    radius inflated past the rounding of the ball centers: every pair that
    can count at any h is a candidate.  The candidates of an anchor are the
    runs of a `_CellGrid`: at most (m + 2)^(d-1) of them, m cells per ball
    side on each leading axis.  The runs give each anchor's exact candidate
    count before any pair is listed, and an anchor block holds at most
    _PAIR_BUDGET candidates, or one anchor; half as many when several
    bandwidths share the listing, which holds a reordered copy of each block.
    Within a block the pairs are ordered by the first bandwidth at which
    they pass the kernel's closed-support test (`_entries`), and each
    bandwidth evaluates the kernel on the prefix of pairs that have entered
    by then, with the same arithmetic as a dense sweep.
    """
    signs = sign_matrix(domain, anchors)
    lo, hi = kernel.support
    centers = anchors + signs * (0.5 * (lo + hi) * hs[-1])
    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(anchors), initial=0.0)))
    reach = 0.5 * (hi - lo) * hs[-1] * (1.0 + 1e-9) + 8.0 * np.spacing(scale)
    n, d = x.shape
    m = _cells_per_ball(n * float(np.prod(np.minimum(1.0, 2.0 * reach / domain.widths))), d)
    grid = _CellGrid(x, domain.lower, 2.0 * reach / m)
    position = np.empty(n, dtype=np.int64)  # of each point in the grid order
    position[grid.order] = np.arange(n)
    xs, ws = x[grid.order], weights[grid.order]
    out = np.zeros((hs.size, anchors.shape[0], weights.shape[1]))
    lower, upper = _limits(hs, kernel.support)
    budget = _PAIR_BUDGET if hs.size == 1 else _PAIR_BUDGET // 2
    chunk = max(1, budget // (m + 2) ** (d - 1))  # bounds the runs held at once
    for c0 in range(0, anchors.shape[0], chunk):
        owner, first, stop = grid.runs(centers[c0 : c0 + chunk], reach)
        count = np.bincount(owner, weights=stop - first, minlength=min(chunk, anchors.shape[0] - c0))
        for b0, b1 in _blocks(count, budget):
            r0, r1 = np.searchsorted(owner, [b0, b1])
            lens = stop[r0:r1] - first[r0:r1]
            own = owner[r0:r1] + c0
            a = np.repeat(own - (c0 + b0), lens)
            pos = _expand(first[r0:r1], lens)
            mirrored = np.take(xs, pos, axis=0)
            mirrored -= np.repeat(anchors[own], lens, axis=0)
            mirrored *= np.repeat(signs[own], lens, axis=0)
            entry = _entries(mirrored, lower, upper)
            if self_pairs:
                entry[pos == np.repeat(position[own], lens)] = hs.size
            # a stable sort keeps the listing order within each bandwidth's entrants
            ranked = np.argsort(entry, kind="stable")
            ends = np.searchsorted(entry[ranked], np.arange(hs.size), side="right")
            ranked = ranked[: ends[-1]]
            a, mirrored = a[ranked], mirrored[ranked]
            wb = np.take(ws, pos[ranked], axis=0)
            for j, h in enumerate(hs):
                p = ends[j]
                kvals = kernel.eval_scaled(mirrored[:p], h)
                for c in range(weights.shape[1]):
                    out[j, c0 + b0 : c0 + b1, c] = np.bincount(a[:p], weights=kvals * wb[:p, c], minlength=b1 - b0)
    return out


def _entries(mirrored: np.ndarray, lower: list, upper: list) -> np.ndarray:
    """Index of the first bandwidth at which each pair is in the window; len(lower) for none.

    A pair is in the window at the j-th bandwidth when every offset lies in
    [lower[j], upper[j]] (`_limits`), so when its smallest and its largest
    offset do.  Both bounds widen as h grows, so the bandwidths at which a
    pair is out are the first ones, and their count is its entry.
    """
    u_lo = u_hi = mirrored[:, 0]
    for j in range(1, mirrored.shape[1]):  # a column loop: numpy reduces a short last axis slowly
        u_lo, u_hi = np.minimum(u_lo, mirrored[:, j]), np.maximum(u_hi, mirrored[:, j])
    # 16-bit entries take numpy's radix sort in the caller's stable argsort
    entry = np.zeros(u_lo.size, dtype=np.int16 if len(lower) < 2**15 else np.int64)
    for t_lo, t_hi in zip(lower, upper):
        entry += (u_lo < t_lo) | (u_hi > t_hi)
    return entry


def _limits(hs: np.ndarray, support: tuple) -> tuple:
    """The offsets u that pass the kernel's closed-support test lo <= u / h <= hi at each h of hs: [lower, upper].

    Rounded division is monotone in u and odd, so with lo <= 0 <= hi the
    bounds are -t(-lo) and t(hi), t(b) the largest float t with t / h <= b.
    For lo = 0 that makes a small negative offset pass where its quotient
    underflows to -0.0.  Quotients round to 0 up to h 2^-1075, so t(b) lies
    within a rounding of max(b h, h 2^-1075), and a few nextafter steps
    reach it.
    """

    def largest(h, b):
        t = max(b * h, h * 2.0**-1000 * 2.0**-75)
        while t / h > b:
            t = math.nextafter(t, -math.inf)
        while math.nextafter(t, math.inf) / h <= b:
            t = math.nextafter(t, math.inf)
        return t

    lo, hi = support
    hs = hs.tolist()
    return [-largest(h, -lo) for h in hs], [largest(h, hi) for h in hs]


def _expand(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The integers of the runs [first, first + lens), run after run."""
    return np.arange(int(np.sum(lens))) + np.repeat(first - (np.cumsum(lens) - lens), lens)


def _cells_per_ball(per_anchor: float, d: int) -> int:
    """Cells m per ball side on each leading axis, for `per_anchor` expected pairs per anchor.

    An anchor costs about (m + 1)^(d-1) runs and per_anchor ((m + 1) / m)^(d-1)
    candidates; _RUN_COST weighs a run against a candidate pair.
    """
    if d == 1:
        return 1
    m = np.arange(1, _MAX_CELLS + 1, dtype=float)
    cost = (m + 1.0) ** (d - 1) * _RUN_COST + per_anchor * ((m + 1.0) / m) ** (d - 1)
    return int(m[np.argmin(cost)])


def _blocks(count: np.ndarray, budget: int):
    """[start, stop) anchor blocks of at most `budget` candidates each, or of one anchor."""
    cum = np.cumsum(count)
    start = 0
    while start < count.size:
        base = cum[start - 1] if start else 0.0
        stop = max(start + 1, int(np.searchsorted(cum, base + budget, side="right")))
        yield start, stop
        start = stop


class _CellGrid:
    """Points sorted by cell on the leading axes, then by rank on the last axis.

    A leading-axis cell is floor((x - lower) / side), monotone in x, named by
    its dense rank among the cells that hold a point; the cells of the
    leading axes combine one axis at a time into a dense id below the point
    count, so no key overflows int64 in any d.  A point's key is its cell id
    times (distinct last-axis values + 1) plus its last-axis rank.
    """

    def __init__(self, x: np.ndarray, lower: np.ndarray, side: float):
        self.lower, self.side = lower, side
        self.levels = []  # per leading axis: its distinct cells, and the distinct ids up to it
        cid = np.zeros(x.shape[0], dtype=np.int64)
        for j in range(x.shape[1] - 1):
            cells, r = np.unique(self._cell(x[:, j], j), return_inverse=True)
            ids, cid = np.unique(cid * cells.size + r, return_inverse=True)
            self.levels.append((cells, ids))
        self.last, r = np.unique(x[:, -1], return_inverse=True)
        key = cid * (self.last.size + 1) + r
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]

    def _cell(self, v: np.ndarray, j: int) -> np.ndarray:
        return np.floor((v - self.lower[j]) / self.side)

    def runs(self, centers: np.ndarray, reach: float) -> tuple:
        """(owner, first, stop): the grid positions [first, stop) of every nonempty run
        of the points within `reach` of centers[owner] on the last axis, in a
        leading cell that meets that ball; runs ordered by owner."""
        owner = np.arange(centers.shape[0])
        cid = np.zeros(centers.shape[0], dtype=np.int64)
        for j, (cells, ids) in enumerate(self.levels):
            c = centers[:, j]
            lo = np.searchsorted(cells, self._cell(c - reach, j), side="left")
            span = np.maximum(np.searchsorted(cells, self._cell(c + reach, j), side="right") - lo, 0)[owner]
            entry = np.repeat(np.arange(owner.size), span)
            key = cid[entry] * cells.size + _expand(lo[owner], span)
            at = np.minimum(np.searchsorted(ids, key), ids.size - 1)
            found = ids[at] == key
            owner, cid = owner[entry[found]], at[found]
        c = centers[owner, -1]
        base = cid * (self.last.size + 1)
        first = np.searchsorted(self.keys, base + np.searchsorted(self.last, c - reach, side="left"))
        stop = np.searchsorted(self.keys, base + np.searchsorted(self.last, c + reach, side="right"))
        live = stop > first
        return owner[live], first[live], stop[live]


# --------------------------------------------------------------------------
# the range-moment backend
#
# On its support [lo, hi] = [0, 1/2], which holds 0, the kernel factor is
# the polynomial K_1(t) = sum_m c_m t^m.  Each point b carries the moments
# w_b (x_b - mu)^l about the center mu of its cell, of the window's side
# (hi - lo) h; anchoring at the cell keeps every power of order h^l.  A
# window meets at most two cells per axis (three when rounding puts a point
# on a cell edge).
# Over the part of the window in one cell, the binomial theorem moves the
# moments from mu to the anchor x_a,
#     S_m = sum_l C(m, l) (mu - x_a)^(m-l) D_l,
# and the kernel sum is sum_m c_m (s_a / h)^m S_m per axis.  The self pair
# b = a is in every window and is subtracted at the end as c_0^d w_a.


def _cells(x: np.ndarray, lo: float, side: float) -> np.ndarray:
    """Cell of side `side` of each coordinate x >= lo; cells are monotone in x."""
    return ((x - lo) // side).astype(np.int64)


def _center(c: np.ndarray, lo: float, side: float) -> np.ndarray:
    return lo + (c + 0.5) * side


def _powers(offsets: np.ndarray, k: int) -> np.ndarray:
    """offsets^l for l = 0..k, by repeated multiplication."""
    out = np.ones((k + 1, offsets.size))
    for l in range(1, k + 1):
        out[l] = out[l - 1] * offsets
    return out


def _binomials(k: int) -> np.ndarray:
    return np.array([[math.comb(m, l) for l in range(k + 1)] for m in range(k + 1)], dtype=float)


def _shift_into(out: np.ndarray, d: np.ndarray, delta: np.ndarray, binom: np.ndarray) -> None:
    """out[m] += sum_l C(m, l) delta^(m-l) d[l]: moments about a cell center moved to the anchor.

    Axis 0 of d and out is the moment order, the last axis the anchor; delta
    holds mu - x_a per anchor.
    """
    k = d.shape[0] - 1
    pow_delta = np.ones(delta.size)
    for diff in range(k + 1):
        for l in range(k + 1 - diff):
            out[l + diff] += binom[l + diff, l] * pow_delta * d[l]
        if diff < k:
            pow_delta = pow_delta * delta


def _kernel_sum(s: np.ndarray, coeffs: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """sum_m c_m ratio^m s[m] over axis 0, ratio = s_a / h per anchor on the last axis."""
    out = np.zeros(s.shape[1:])
    ratio_pow = np.ones(ratio.size)
    for m in range(coeffs.size):
        out += coeffs[m] * ratio_pow * s[m]
        if m < coeffs.size - 1:
            ratio_pow = ratio_pow * ratio
    return out


def _moment_sums_1d(x: np.ndarray, y: np.ndarray, coeffs: np.ndarray, support: tuple, h: float, sub: Domain) -> np.ndarray:
    """Range moments in one dimension; x holds (n, 1) sorted points and y their (n, r) weights.

    The window of each anchor is a run of the sorted points, and each cell a
    run too, so every window-cell part is a difference of two prefix sums.
    Arrays keep the anchor on their last axis, so every loop runs over it.
    """
    xs = x[:, 0]
    n = xs.size
    k = coeffs.size - 1
    lo = float(sub.lower[0])
    side = (support[1] - support[0]) * h
    sigma = sign_matrix(sub, x)[:, 0]
    cell = _cells(xs, lo, side)

    # prefix[l, c, j] = sum over the first j points of y_c (x - mu_cell)^l
    prefix = np.zeros((k + 1, y.shape[1], n + 1))
    for l, pw in enumerate(_powers(xs - _center(cell, lo, side), k)):
        np.cumsum(y.T * pw, axis=1, out=prefix[l, :, 1:])
    binom = _binomials(k)

    b_lo, b_hi = _window_ranks(xs, xs, sigma, h, support)
    # start[i]: where the i-th occupied cell starts among the sorted points,
    # then n; a window meets the occupied cells first, first + 1, first + 2
    # at most, where first holds its first point
    new_cell = np.r_[True, cell[1:] != cell[:-1]]
    start = np.r_[np.flatnonzero(new_cell), np.full(3, n)]
    occupied = cell[np.minimum(start, n - 1)]
    first = (np.cumsum(new_cell) - 1)[b_lo]

    s_m = np.zeros((k + 1, y.shape[1], n))
    for t in range(3):
        seg_s = np.maximum(b_lo, start[first + t])
        seg_e = np.minimum(b_hi, start[first + t + 1])
        # most windows meet two cells, so the first two passes mask the
        # anchors; a third cell, reached only past a point on a cell edge,
        # is summed for the anchors that reach it alone
        a = slice(None) if t < 2 else np.flatnonzero(seg_e > seg_s)
        live = seg_e[a] > seg_s[a]
        part = s_m[:, :, a]
        delta = np.where(live, _center(occupied[first[a] + t], lo, side) - xs[a], 0.0)
        d_l = np.take(prefix, seg_e[a], axis=2) - np.take(prefix, seg_s[a], axis=2)
        _shift_into(part, np.where(live, d_l, 0.0), delta, binom)
        if t == 2:  # the gather copied the part
            s_m[:, :, a] = part
    g = _kernel_sum(s_m, coeffs, sigma / h)
    return ((g - coeffs[0] * y.T) / h).T


def _window_ranks(xs: np.ndarray, x: np.ndarray, sigma: np.ndarray, h: float, support: tuple) -> tuple:
    """Positions [first, stop) in the sorted values xs of each anchor's window along one axis.

    b is in the window when lo <= sigma (x_b - x_a) / h <= hi, (lo, hi) the
    support holding 0, evaluated as the kernel evaluates its closed-support
    test.  The scaled offset is monotone in x_b, so the window is a run of
    xs holding the anchor; ends guessed by searchsorted are moved across
    runs of tied values until the first and last points pass the test and
    their outer neighbours fail it.
    """
    n = xs.size
    lo, hi = support

    def inside(i):
        t = (sigma * (xs[i] - x)) / h
        return (t >= lo) & (t <= hi)

    first = np.searchsorted(xs, np.where(sigma > 0, x + lo * h, x - hi * h), side="left")
    stop = np.searchsorted(xs, np.where(sigma > 0, x + hi * h, x - lo * h), side="right")
    while True:
        before, after = np.maximum(first - 1, 0), np.minimum(stop, n - 1)
        widen_first = (first > 0) & inside(before)
        narrow_first = ~inside(first)
        widen_stop = (stop < n) & inside(after)
        narrow_stop = ~inside(stop - 1)
        if not (widen_first | narrow_first | widen_stop | narrow_stop).any():
            return first, stop
        first = np.where(widen_first, np.searchsorted(xs, xs[before], side="left"), first)
        first = np.where(narrow_first, np.searchsorted(xs, xs[first], side="right"), first)
        stop = np.where(widen_stop, np.searchsorted(xs, xs[after], side="right"), stop)
        stop = np.where(narrow_stop, np.searchsorted(xs, xs[stop - 1], side="left"), stop)


def _moment_sums_2d(x: np.ndarray, w: np.ndarray, coeffs: np.ndarray, support: tuple, h: float, sub: Domain) -> np.ndarray:
    """Range moments in two dimensions; x holds (n, 2) points and w their (n, r) weights.

    Points are ranked along each axis and laid out cell by cell, by axis-1
    rank within a cell.  The part of a window in one cell is then a run of
    positions (its axis-1 range) restricted to an axis-2 rank range, of which
    only one end falls inside the cell in most cases.  A wavelet matrix over
    the axis-2 ranks (Claude, Navarro & Ordonez, Inf. Syst. 2015) sums the
    moments of a position run below a rank threshold in one descent of at
    most log2 n levels.  Each level's moment prefix sums are built as the descent
    reaches it, so the memory is O(n (k+1)^2 r) and the time
    O(n log n (k+1)^2 r), whatever h is.  The moments and their prefix sums
    keep the point on axis 0, where the wavelet's gathers copy whole rows;
    the sums of each query are then turned so that the shifts and kernel
    sums run over the queries on the last axis.
    """
    n = x.shape[0]
    k = coeffs.size - 1
    r = w.shape[1]
    side = (support[1] - support[0]) * h
    sigma = sign_matrix(sub, x)
    rank, cell, sorted_cell, first, stop, offsets = [], [], [], [], [], []
    for j in range(2):
        lo = float(sub.lower[j])
        order = np.argsort(x[:, j], kind="stable")
        rank_j = np.empty(n, dtype=np.int64)
        rank_j[order] = np.arange(n)
        cell_j = _cells(x[:, j], lo, side)
        f, s = _window_ranks(x[order, j], x[:, j], sigma[:, j], h, support)
        rank.append(rank_j)
        cell.append(cell_j)
        sorted_cell.append(cell_j[order])
        first.append(f)
        stop.append(s)
        offsets.append(x[:, j] - _center(cell_j, lo, side))

    # lay the points out cell by cell; a cell is named by the rank where it
    # starts on each axis, which keeps the keys below n^3
    cell_start = [np.searchsorted(sorted_cell[j], cell[j], side="left") for j in range(2)]
    key = (cell_start[0] * (n + 1) + cell_start[1]) * n + rank[0]
    layout = np.argsort(key, kind="stable")
    key = key[layout]
    p1, p2 = (_powers(off, k) for off in offsets)
    # moments[b, (l1, l2, c)] = w_bc (x_b1 - mu_1)^l1 (x_b2 - mu_2)^l2, in layout order
    moments = (p1.T[:, :, None, None] * p2.T[:, None, :, None] * w[:, None, None, :]).reshape(n, -1)[layout]

    # one query per anchor and nonempty cell its window meets
    meets = [(sorted_cell[j][first[j]], sorted_cell[j][stop[j] - 1]) for j in range(2)]
    spans = [c_last - c_first + 1 for c_first, c_last in meets]
    qa, qc1, qc2 = [], [], []
    for t1 in range(int(spans[0].max())):
        for t2 in range(int(spans[1].max())):
            sel = np.flatnonzero((t1 < spans[0]) & (t2 < spans[1]))
            qa.append(sel)
            qc1.append(meets[0][0][sel] + t1)
            qc2.append(meets[1][0][sel] + t2)
    qa, qc1, qc2 = (np.concatenate(v) for v in (qa, qc1, qc2))
    # a cell between the window's first and last may hold no point on its
    # axis; its start rank is then the next cell's, so its query would sum
    # that cell a second time
    cell1_lo, cell1_hi = (np.searchsorted(sorted_cell[0], qc1, side=s) for s in ("left", "right"))
    cell2_lo, cell2_hi = (np.searchsorted(sorted_cell[1], qc2, side=s) for s in ("left", "right"))
    base = (cell1_lo * (n + 1) + cell2_lo) * n
    pos_lo = np.searchsorted(key, base + first[0][qa], side="left")
    pos_hi = np.searchsorted(key, base + stop[0][qa], side="left")
    live = np.flatnonzero((pos_hi > pos_lo) & (cell1_hi > cell1_lo) & (cell2_hi > cell2_lo))
    qa, qc1, qc2, cell2_lo, cell2_hi, pos_lo, pos_hi = (v[live] for v in (qa, qc1, qc2, cell2_lo, cell2_hi, pos_lo, pos_hi))

    # the axis-2 rank range of a query cuts its cell at one end, rarely at
    # both; ranks count from the start of the cell's row of cells
    cut_hi = np.flatnonzero(stop[1][qa] < cell2_hi)
    cut_lo = np.flatnonzero(first[1][qa] > cell2_lo)
    prefix = _prefix(moments)
    d = np.take(prefix, pos_hi, axis=0) - np.take(prefix, pos_lo, axis=0)
    terms = np.concatenate([cut_hi, cut_lo])
    bound = np.concatenate([stop[1][qa[cut_hi]], first[1][qa[cut_lo]]]) - cell2_lo[terms]
    below = _wavelet_sums((rank[1] - cell_start[1])[layout], moments, pos_lo[terms], pos_hi[terms], bound)
    d[cut_hi] = below[: cut_hi.size]
    d[cut_lo] -= below[cut_hi.size :]

    binom = _binomials(k)
    # the query goes last for the shifts and kernel sums
    d = np.ascontiguousarray(d.T).reshape(k + 1, k + 1, r, -1)
    shifted = np.zeros_like(d)
    _shift_into(shifted, d, _center(qc1, float(sub.lower[0]), side) - x[qa, 0], binom)
    s_m = np.zeros_like(d)
    _shift_into(s_m.swapaxes(0, 1), shifted.swapaxes(0, 1), _center(qc2, float(sub.lower[1]), side) - x[qa, 1], binom)
    g_q = _kernel_sum(_kernel_sum(s_m, coeffs, sigma[qa, 0] / h), coeffs, sigma[qa, 1] / h)
    g = np.column_stack([np.bincount(qa, weights=g_q[c], minlength=n) for c in range(r)])
    return (g - (coeffs[0] * coeffs[0]) * w) / (h * h)


def _prefix(values: np.ndarray) -> np.ndarray:
    """Prefix sums along axis 0, from 0."""
    out = np.zeros((values.shape[0] + 1, values.shape[1]))
    np.cumsum(values, axis=0, out=out[1:])
    return out


def _wavelet_sums(seq: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """sum of values[i] over lo <= i < hi with seq[i] < bound, per query; seq holds integers >= 0.

    Each level of the wavelet matrix splits the sequence stably by one bit
    of seq, most significant first.  Where the bound has that bit set, the
    query's elements with the bit clear are all below it: their sum is a
    difference of two prefix sums over the split sequence, and the query
    follows the elements with the bit set; otherwise it follows the rest.
    """
    out = np.zeros((lo.size, values.shape[1]))
    for level in reversed(range(max(1, int(seq.max()).bit_length()))):
        bit = (seq >> level) & 1
        zeros = np.concatenate(([0], np.cumsum(1 - bit)))
        split = np.concatenate([np.flatnonzero(bit == 0), np.flatnonzero(bit)])
        seq, values = seq[split], np.take(values, split, axis=0)
        z_lo, z_hi = zeros[lo], zeros[hi]
        take = ((bound >> level) & 1).astype(bool)
        prefix = _prefix(values)
        # only the queries that take this level gather its prefix rows
        sel = np.flatnonzero(take)
        part = np.take(prefix, z_hi[sel], axis=0)
        part -= np.take(prefix, z_lo[sel], axis=0)
        out[sel] += part
        lo = np.where(take, zeros[-1] + lo - z_lo, z_lo)
        hi = np.where(take, zeros[-1] + hi - z_hi, z_hi)
    return out
