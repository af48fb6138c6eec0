"""Mirrored kernel sums over each anchor's window.

Two backends compute the same sums.  Range moments use that the kernel is
a polynomial on its support: each window is summed from moments of the
points about the centers of cells of side h/2, so its pairs are never
listed, and a pass costs about the same at any h.  The cell grid lists the
pairs of each window and evaluates the kernel on every one.  Range moments
serve the self-pair sums in one dimension always, and in two the
bandwidths whose windows hold enough pairs to pay for the structure.  The
grid serves everything else: d >= 3, small 2-D windows, and samples too
fine for int64 cell indices; it alone serves sums at other anchors, such
as mirror_kde's, which call `_grid_sums` directly.

One call takes an ascending sequence of bandwidths, as the bandwidth grid
needs.  The rows are sorted once, and the call is split once
(`_grid_count`): the smallest bandwidths share one grid listing at the
largest of them, and each of the rest takes range moments.  The window of
a smaller h lies in that of a larger one, so each pair is listed once,
ordered by the first bandwidth whose window holds it, and each bandwidth
evaluates the kernel on the pairs that have entered by then.  So a grid
bandwidth costs less in a call of several than alone, and the split
weighs the call's joint cost.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import Domain, sign_matrix

# candidate pairs per anchor block of the grid: a block holds about 80 to
# 100 bytes per pair at d = 2, and larger blocks raise the peak memory
# without running faster
_PAIR_BUDGET = 2**14
# the most cells per ball side; measured on uniform samples in d = 2 to 4
# (n = 2000 to 10^4), the m that _cells_per_ball picks ran within 4% of the
# fastest of 1 to 16
_MAX_CELLS = 16
# the cost of one 2-D range-moment pass in expected window pairs per anchor,
# which _grid_count weighs against the grid's shared listing (7/8 of a pair)
# and kernel passes (1/8); so one bandwidth alone takes range moments from
# there on.  Measured alone, they break even near 30 pairs per anchor at
# n = 2000 and 95 at n = 10^4
_MOMENT_CROSSOVER = 60.0


def window_sums(x, weights, kernel, hs, domain: Domain) -> tuple:
    """(order, blocks): S[j, a, c] = sum_{b != a} weights[b, c] K_{h_j}(A_{x_a}(x_b - x_a)) for the (n, d) points x, (n, r) weights and ascending hs.

    order is the canonical row order, `np.lexsort`'s over the coordinates,
    then the weights; blocks yields (js, sums) with sums[i] the (n, r) sums
    of bandwidth hs[js[i]] for the rows x[order], so no sum depends on the
    input row order.  Duplicate rows stay in.  The grid bandwidths
    (`_grid_count`) come first, in one block from their shared listing, then
    each range-moment one alone; a caller that reduces each block as it
    comes holds one block at a time, not all of them beside the work of the
    next.
    """
    hs = np.asarray(hs, dtype=float).ravel()
    order = _stable_order(*weights.T[::-1], *x.T[::-1])  # the weights order tied rows
    x, weights = x[order], weights[order]
    tied = np.all(x[1:] == x[:-1], axis=1)  # sorted row i + 1 equals row i
    split = _grid_count(tied, (kernel.support[1] - kernel.support[0]) * hs, domain)

    def blocks():
        if split:
            yield np.arange(split), _grid_sums(x, weights, kernel, hs[:split], domain, x, self_pairs=True)
        moment_sums = _moment_sums_1d if x.shape[1] == 1 else _moment_sums_2d
        for j in range(split, hs.size):
            yield [j], moment_sums(x, weights, kernel.coeffs, kernel.support, float(hs[j]), domain)[None]

    return order, blocks()


def _grid_count(tied: np.ndarray, sides: np.ndarray, domain: Domain) -> int:
    """J: the cell grid serves the J smallest bandwidths and range moments the rest.

    `tied` marks each sorted row equal to the next, and `sides` holds the
    window side, which is also the cell side, of each ascending bandwidth.
    In d = 2, with P_j the expected window pairs at the j-th smallest of the
    N bandwidths (`n^2 prod min(1, side / width)`, tied rows counted), J
    minimises

        7/8 P_J + 1/8 (P_1 + ... + P_J) + (N - J) _MOMENT_CROSSOVER n,

    the shared listing paid once at the largest grid bandwidth, each grid
    bandwidth's kernel pass over the pairs in its window, and one
    range-moment pass per other bandwidth, all in window pairs; ties go to
    the smallest J.  d = 1 takes range moments and d >= 3 the grid.  Cell
    indices reach widths / side, and the d = 2 layout keys (n + 1)^3; the
    grid serves the bandwidths at which either would not fit in int64.
    """
    n, d, count = tied.size + 1, domain.dim, sides.size
    if d >= 3 or (d == 2 and float(n + 1) ** 3 >= 2.0**63):
        return count
    forced = int(np.count_nonzero(float(np.max(domain.widths)) / sides >= 2.0**62))  # a prefix: sides ascend
    if d == 1:
        return forced
    tied_pairs = _tied_pairs(tied)
    pairs = np.array([n * n * float(np.prod(np.minimum(1.0, side / domain.widths))) + tied_pairs for side in sides])
    # cost(J) - cost(J - 1) = P_J - 7/8 P_{J-1} - _MOMENT_CROSSOVER n with
    # P_0 = 0: the first step's sign is exact, so one bandwidth keeps the rule
    # P_1 >= _MOMENT_CROSSOVER n for range moments bit for bit
    steps = pairs - 0.875 * np.concatenate(([0.0], pairs[:-1])) - _MOMENT_CROSSOVER * n
    cost = np.concatenate(([0.0], np.cumsum(steps)))
    cost[:forced] = np.inf
    return int(np.argmin(cost))  # the first of equal costs


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
    bandwidths share the listing, so that its blocks and the sums of every
    bandwidth hold no more than the blocks of one bandwidth.  Within a
    block the pairs are ordered by the first bandwidth at which they pass
    the kernel's closed-support test (`_entries`), and each bandwidth
    evaluates the kernel on the prefix of pairs that have entered by then,
    with the same arithmetic as a dense sweep (`_kernel_in_window`).
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

    def block(a0, width, own, start, lens):
        """Fill out for the anchors a0 .. a0 + width - 1, the owners `own` of the runs [start, start + lens)."""
        pos, pa = _expand(start, lens), np.repeat(own, lens)  # each pair's grid position and anchor
        mirrored = np.take(xs, pos, axis=0)
        mirrored -= np.take(anchors, pa, axis=0)
        mirrored *= np.take(signs, pa, axis=0)
        entry = _entries(mirrored, lower, upper)
        if self_pairs:
            entry[pos == position[pa]] = hs.size
        # a stable sort keeps the listing order within each bandwidth's entrants
        ranked = np.argsort(entry, kind="stable")
        ends = np.searchsorted(entry[ranked], np.arange(hs.size), side="right")
        ranked = ranked[: ends[-1]]
        a = pa[ranked] - a0
        wb = np.take(ws, pos[ranked], axis=0)
        mirrored = np.take(mirrored, ranked, axis=0)
        del pos, entry, ranked  # the kernel passes need only a, wb and mirrored
        for j, h in enumerate(hs):
            p = ends[j]
            kvals = _kernel_in_window(kernel.coeffs, mirrored[:p], h)
            for c in range(weights.shape[1]):
                out[j, a0 : a0 + width, c] = np.bincount(a[:p], weights=kvals * wb[:p, c], minlength=width)

    for c0 in range(0, anchors.shape[0], chunk):
        owner, first, stop = grid.runs(centers[c0 : c0 + chunk], reach)
        count = np.bincount(owner, weights=stop - first, minlength=min(chunk, anchors.shape[0] - c0))
        for b0, b1 in _blocks(count, budget):
            r0, r1 = np.searchsorted(owner, [b0, b1])
            block(c0 + b0, b1 - b0, owner[r0:r1] + c0, first[r0:r1], stop[r0:r1] - first[r0:r1])
    return out


def _kernel_in_window(coeffs: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """KernelD.eval_scaled(u, h) at offsets u that pass its closed-support test, with its bits.

    The same Horner steps and left-to-right product over the axes, taken on
    every axis at once; a pair that has entered its window (`_entries`) is
    inside the support, so the test is left out.
    """
    t = u / h
    poly = np.full(t.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly *= t
        poly += c
    out = poly[:, 0].copy()
    for j in range(1, t.shape[1]):
        out *= poly[:, j]
    return out / h ** t.shape[1]


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


def _search(keys: np.ndarray, queries: np.ndarray, order: np.ndarray, side: str = "left") -> np.ndarray:
    """np.searchsorted(keys, queries, side), the queries taken in `order` and the indices scattered back.

    numpy's binary search starts each query from the last one's result, so
    queries in ascending order run several times faster than in random order.
    """
    out = np.empty(queries.size, dtype=np.intp)
    out[order] = np.searchsorted(keys, queries[order], side=side)
    return out


def _stable_order(*keys) -> np.ndarray:
    """np.lexsort(keys) of finite keys, the last one primary, from numpy's fast sort.

    The default argsort (a SIMD sort, several times faster than a stable one)
    orders the primary key; one lexsort of (index, the other keys, run id)
    then settles the rows in runs of equal primaries.
    """
    order = np.argsort(keys[-1])
    tie = keys[-1][order[1:]] == keys[-1][order[:-1]]  # sorted row i + 1 ties row i
    if tie.any():
        at = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
        rows, run = order[at], np.r_[0, np.cumsum(~tie)][at]
        order[at] = rows[np.lexsort((rows, *(k[rows] for k in keys[:-1]), run))]
    return order


def _cells_per_ball(per_anchor: float, d: int) -> int:
    """Cells m per ball side on each leading axis, for `per_anchor` expected pairs per anchor.

    An anchor costs about (m + 1)^(d-1) runs and per_anchor ((m + 1) / m)^(d-1)
    candidates; a run costs about as much as a candidate pair.
    """
    if d == 1:
        return 1
    m = np.arange(1, _MAX_CELLS + 1, dtype=float)
    cost = (m + 1.0) ** (d - 1) + per_anchor * ((m + 1.0) / m) ** (d - 1)
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
    count, so no key overflows int64 in any d; the first axis's ranks are
    already such ids, and its level stores None for them.  A point's key is
    its cell id times (distinct last-axis values + 1) plus its last-axis rank.
    """

    def __init__(self, x: np.ndarray, lower: np.ndarray, side: float):
        self.lower, self.side = lower, side
        self.levels = []  # per leading axis: its distinct cells, and the distinct ids up to it
        cid = np.zeros(x.shape[0], dtype=np.int64)
        for j in range(x.shape[1] - 1):
            cells, r = np.unique(self._cell(x[:, j], j), return_inverse=True)
            ids, cid = np.unique(cid * cells.size + r, return_inverse=True) if j else (None, r)
            self.levels.append((cells, ids))
        self.last, r = np.unique(x[:, -1], return_inverse=True)
        key = cid * (self.last.size + 1) + r
        self.order = _stable_order(key)
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
            if ids is None:  # the first axis: every cell rank is an id
                owner, cid = owner[entry], key
                continue
            at = np.minimum(_search(ids, key, np.argsort(key)), ids.size - 1)
            found = ids[at] == key
            owner, cid = owner[entry[found]], at[found]
        c = centers[:, -1]
        by_center = np.argsort(c)  # c - reach and c + reach ascend with c
        base = cid * (self.last.size + 1)
        lower = base + _search(self.last, c - reach, by_center)[owner]
        by_run = np.argsort(lower)
        first = _search(self.keys, lower, by_run)
        stop = _search(self.keys, base + _search(self.last, c + reach, by_center, side="right")[owner], by_run)
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
# With o = x_b - mu and delta = mu - x_a, the binomial theorem writes the
# kernel factor of an axis as a polynomial in o,
#     K_1(s_a (o + delta) / h) = sum_l A_l o^l,
#     A_l = sum_{m >= l} c_m (s_a / h)^m C(m, l) delta^(m-l),
# so the kernel sum over the part of the window in one cell is sum_l A_l D_l
# over the part's moments D_l, one such row A per axis.  The self pair
# b = a is in every window and is subtracted at the end as c_0^d w_a; a
# window that holds the anchor alone is set to 0.0 from its point count.


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


def _kernel_rows(coeffs: np.ndarray, ratio: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """A[l] = sum_{m >= l} c_m ratio^m C(m, l) delta^(m-l), the query on the last axis.

    ratio = s_a / h and delta = mu - x_a per query, so that the kernel
    factor at a point o = x_b - mu off the cell center is sum_l A[l] o^l.
    """
    k = coeffs.size - 1
    out = np.zeros((k + 1, delta.size))
    ratio_pow = np.ones(delta.size)
    for m in range(k + 1):
        term = coeffs[m] * ratio_pow  # c_m ratio^m delta^(m-l), l from m down
        for l in range(m, -1, -1):
            out[l] += math.comb(m, l) * term
            if l:
                term = term * delta
        if m < k:
            ratio_pow = ratio_pow * ratio
    return out


def _moment_sums_1d(x: np.ndarray, y: np.ndarray, coeffs: np.ndarray, support: tuple, h: float, sub: Domain) -> np.ndarray:
    """Range moments in one dimension; x holds (n, 1) sorted points and y their (n, r) weights.

    The window of each anchor is a run of the sorted points, and each cell a
    run too, so every window-cell part is a difference of two prefix sums,
    contracted with the anchor's kernel row of that cell as it is formed.
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

    b_lo, b_hi = _window_ranks(xs, xs, sigma, h, support)
    # a window meets the occupied cells first, first + 1, first + 2 at most,
    # where first holds its first point
    start, occupied, index = _occupied(cell)
    first = index[b_lo]

    g = np.zeros((y.shape[1], n))
    for t in range(3):
        seg_s = np.maximum(b_lo, start[first + t])
        seg_e = np.minimum(b_hi, start[first + t + 1])
        # most windows meet two cells, so the first two passes mask the
        # anchors; a third cell, reached only past a point on a cell edge,
        # is summed for the anchors that reach it alone
        a = slice(None) if t < 2 else np.flatnonzero(seg_e > seg_s)
        live = seg_e[a] > seg_s[a]
        rows = _kernel_rows(coeffs, sigma[a] / h, np.where(live, _center(occupied[first[a] + t], lo, side) - xs[a], 0.0))
        d_l = np.take(prefix, seg_e[a], axis=2) - np.take(prefix, seg_s[a], axis=2)
        part = rows[0] * d_l[0]
        for l in range(1, k + 1):
            part += rows[l] * d_l[l]
        g[:, a] += np.where(live, part, 0.0)
    out = ((g - coeffs[0] * y.T) / h).T
    out[b_hi - b_lo == 1] = 0.0  # a window that holds only its anchor, whose pair is left out
    return out


def _occupied(sorted_cells: np.ndarray) -> tuple:
    """(start, cells, index): the table of the occupied cells of sorted cell numbers.

    start[i] is where the i-th occupied cell starts among the sorted points,
    followed by three n's, cells[i] its cell number (the last one repeated
    past the end) and index[b] the occupied cell of the b-th sorted point.
    """
    n = sorted_cells.size
    new_cell = np.r_[True, sorted_cells[1:] != sorted_cells[:-1]]
    start = np.r_[np.flatnonzero(new_cell), np.full(3, n)]
    return start, sorted_cells[np.minimum(start, n - 1)], np.cumsum(new_cell) - 1


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
    most log2 n levels.  The moments and their prefix sums are (point,
    (l1, l2, column)) arrays in column-major order, so that the wavelet's
    gathers and the contractions read each moment contiguously.  Each
    query, one per anchor and cell its window meets, holds a
    kernel row per axis (`_kernel_rows`), and every run difference and every
    part a wavelet level gathers is contracted with the two rows as soon as
    it is formed, one (l1, l2) moment at a time (`_contract`).  So beside the
    O(n (k+1)^2 r) moments and prefix sums only O(q (k+1)) kernel rows and
    O(q r) sums live, for q queries, and the time is O(n log n (k+1)^2 r),
    whatever h is.
    """
    n, r = w.shape
    moments, seq, qa, pos_lo, pos_hi, rows, cut_hi, cut_lo, bound = _moment_queries(x, w, coeffs, support, h, sub)
    # the runs that no cut restricts are whole prefix differences; a cut one
    # is the part of its run below the cut's axis-2 rank, less the part
    # below the window's first rank where that cuts too
    whole = np.ones(qa.size, dtype=bool)
    whole[cut_hi] = False
    whole = np.flatnonzero(whole)
    g_q = np.empty((qa.size, r))
    g_q[whole] = _contract(_prefix(moments), pos_lo[whole], pos_hi[whole], *rows, whole)
    count_q = pos_hi - pos_lo  # the points of each query's run, then of its part
    terms = np.concatenate([cut_hi, cut_lo])
    pos_lo, pos_hi, rows = pos_lo[terms], pos_hi[terms], [a[:, terms] for a in rows]
    del whole, terms  # every array here has one entry per query
    below, count = _wavelet_sums(seq, moments, pos_lo, pos_hi, bound, *rows)
    g_q[cut_hi], count_q[cut_hi] = below[: cut_hi.size], count[: cut_hi.size]
    g_q[cut_lo] -= below[cut_hi.size :]
    count_q[cut_lo] -= count[cut_hi.size :]
    g = np.column_stack([np.bincount(qa, weights=g_q[:, c], minlength=n) for c in range(r)])
    out = (g - (coeffs[0] * coeffs[0]) * w) / (h * h)
    out[np.bincount(qa, weights=count_q, minlength=n) == 1] = 0.0  # a window that holds only its anchor
    return out


def _moment_queries(x: np.ndarray, w: np.ndarray, coeffs: np.ndarray, support: tuple, h: float, sub: Domain) -> tuple:
    """The layout and the queries of `_moment_sums_2d`.

    Returns the moments in layout order, each point's axis-2 rank from the
    start of its cell's row of cells (in layout order), and per query its
    anchor, layout run [pos_lo, pos_hi) and two kernel rows; then the
    queries whose axis-2 rank range is cut at its high end and at its low
    end, and the rank bound of each cut, high cuts first.
    """
    n = x.shape[0]
    k = coeffs.size - 1
    side = (support[1] - support[0]) * h
    sigma = sign_matrix(sub, x)
    rank, cell_start, tables, first, stop, offsets = [], [], [], [], [], []
    for j in range(2):
        lo = float(sub.lower[j])
        order = _stable_order(x[:, j])
        rank_j = np.empty(n, dtype=np.int64)
        rank_j[order] = np.arange(n)
        cell_j = _cells(x[:, j], lo, side)
        xs = x[order, j]
        f, s = (v[rank_j] for v in _window_ranks(xs, xs, sigma[order, j], h, support))  # searched in ascending order
        table = _occupied(cell_j[order])
        rank.append(rank_j)
        cell_start.append(table[0][table[2][rank_j]])
        tables.append(table)
        first.append(f)
        stop.append(s)
        offsets.append(x[:, j] - _center(cell_j, lo, side))

    # lay the points out cell by cell; a cell is named by the rank where it
    # starts on each axis (keys below n^3), and the axis-1 rank makes keys distinct
    key = (cell_start[0] * (n + 1) + cell_start[1]) * n + rank[0]
    layout = np.argsort(key)
    key = key[layout]
    p1, p2 = (_powers(off[layout], k) for off in offsets)
    # moments[b, (l1, l2, c)] = w_bc (x_b1 - mu_1)^l1 (x_b2 - mu_2)^l2, in
    # layout order and column-major, so that each moment column is contiguous
    r = w.shape[1]
    moments = np.empty((n, (k + 1) ** 2 * r), order="F")
    for l1 in range(k + 1):
        for l2 in range(k + 1):
            for c in range(r):
                np.multiply(p1[l1] * p2[l2], w[layout, c], out=moments[:, (l1 * (k + 1) + l2) * r + c])
    seq = (rank[1] - cell_start[1])[layout]
    del p1, p2, offsets, layout, rank, cell_start

    qa, qc1, qc2, cell2_lo, cell2_hi, pos_lo, pos_hi = _queries(tables, first, stop, key)
    rows = [
        _kernel_rows(coeffs, sigma[qa, j] / h, _center(qc, float(sub.lower[j]), side) - x[qa, j])
        for j, qc in enumerate((qc1, qc2))
    ]
    # the axis-2 rank range of a query cuts its cell at one end, rarely at
    # both; ranks count from the start of the cell's row of cells
    cut_hi = np.flatnonzero(stop[1][qa] < cell2_hi)
    cut_lo = np.flatnonzero(first[1][qa] > cell2_lo)
    bound = np.concatenate([stop[1][qa[cut_hi]] - cell2_lo[cut_hi], first[1][qa[cut_lo]] - cell2_lo[cut_lo]])
    return moments, seq, qa, pos_lo, pos_hi, rows, cut_hi, cut_lo, bound


def _queries(tables: list, first: list, stop: list, key: np.ndarray) -> tuple:
    """(anchor, cell 1, cell 2, cell-2 rank range, layout run) of each query: one per anchor and occupied cell its window meets.

    tables, first and stop hold per axis the `_occupied` table of the cells
    in rank order and each anchor's window ranks, and key the sorted layout
    keys.  The run [pos_lo, pos_hi) holds the layout positions of the
    query's cell within the window's axis-1 ranks; [cell2_lo, cell2_hi) are
    the axis-2 ranks of its cell.
    """
    n = key.size
    # the occupied cells of the window's first and last point on each axis
    meets = [(index[first[j]], index[stop[j] - 1]) for j, (_, _, index) in enumerate(tables)]
    spans = [o_last - o_first + 1 for o_first, o_last in meets]
    qa, o1, o2 = [], [], []
    for t1 in range(int(spans[0].max())):
        for t2 in range(int(spans[1].max())):
            sel = np.flatnonzero((t1 < spans[0]) & (t2 < spans[1]))
            qa.append(sel)
            o1.append(meets[0][0][sel] + t1)
            o2.append(meets[1][0][sel] + t2)
    qa, o1, o2 = (np.concatenate(v) for v in (qa, o1, o2))
    (start1, cells1, _), (start2, cells2, _) = tables
    qc1, qc2 = cells1[o1], cells2[o2]
    cell2_lo, cell2_hi = start2[o2], start2[o2 + 1]
    base = (start1[o1] * (n + 1) + cell2_lo) * n
    del o1, o2  # every array here has one entry per query
    lower = base + first[0][qa]
    by_lower = np.argsort(lower)
    pos_lo = _search(key, lower, by_lower)
    pos_hi = _search(key, base + stop[0][qa], by_lower)
    del base, lower, by_lower
    live = np.flatnonzero(pos_hi > pos_lo)
    out = [qa, qc1, qc2, cell2_lo, cell2_hi, pos_lo, pos_hi]
    for v in out:  # in place, one temporary at a time
        v[: live.size] = v[live]
    return tuple(v[: live.size] for v in out)


def _prefix(values: np.ndarray) -> np.ndarray:
    """Prefix sums along axis 0, from 0, in column-major order so that each column is contiguous."""
    out = np.zeros((values.shape[0] + 1, values.shape[1]), order="F")
    np.cumsum(values, axis=0, out=out[1:])
    return out


def _contract(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows1: np.ndarray, rows2: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum_{l1, l2} rows1[l1, at[q]] rows2[l2, at[q]] (prefix[hi[q]] - prefix[lo[q]])[(l1, l2, c)], a (queries, r) array.

    The prefix rows hold (k+1)^2 r entries in (l1, l2, column) order, k + 1
    the length of the kernel rows, and `at` picks the queries' kernel rows.
    The r columns of one (l1, l2) and one kernel row are gathered at a time,
    so no (queries, (k+1)^2 r) array is formed, and every weight column is
    contracted elementwise: it gets the same bits whatever other columns
    there are.
    """
    k1 = rows1.shape[0]
    r = prefix.shape[1] // (k1 * k1)
    acc = None
    for l1 in range(k1):
        inner = None
        for l2 in range(k1):
            columns = prefix[:, (l1 * k1 + l2) * r : (l1 * k1 + l2 + 1) * r]
            part = np.take(columns, hi, axis=0)
            part -= np.take(columns, lo, axis=0)
            part *= rows2[l2, at][:, None]
            inner = part if inner is None else np.add(inner, part, out=inner)
        inner *= rows1[l1, at][:, None]
        acc = inner if acc is None else np.add(acc, inner, out=acc)
    return acc


def _wavelet_sums(seq: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray, rows1: np.ndarray, rows2: np.ndarray) -> np.ndarray:
    """(sums, counts): of values[i] over lo <= i < hi with seq[i] < bound, contracted per query as `_contract` does, and of those i; seq holds integers >= 0.

    Each level of the wavelet matrix splits the sequence stably by one bit
    of seq, most significant first.  Where the bound has that bit set, the
    query's elements with the bit clear are all below it: their sum is a
    difference of two prefix sums over the split sequence, and the query
    follows the elements with the bit set; otherwise it follows the rest.
    Each level gathers the values of its split sequence column by column
    into one prefix buffer and sums them there, so beside `values` only one
    (n + 1)-row array lives.  lo and hi are overwritten.
    """
    out = np.zeros((lo.size, values.shape[1] // (rows1.shape[0] * rows2.shape[0])))
    count = np.zeros(lo.size, dtype=np.int64)
    at = np.arange(seq.size)  # the index in values of each element of the split sequence
    prefix = np.zeros((values.shape[0] + 1, values.shape[1]), order="F")
    for level in reversed(range(max(1, int(seq.max()).bit_length()))):
        bit = (seq >> level) & 1
        zeros = np.concatenate(([0], np.cumsum(1 - bit)))
        split = np.concatenate([np.flatnonzero(bit == 0), np.flatnonzero(bit)])
        seq, at = seq[split], at[split]
        for j in range(values.shape[1]):
            np.take(values[:, j], at, out=prefix[1:, j], mode="clip")  # in range: "clip" only spares a buffered copy
        np.cumsum(prefix[1:], axis=0, out=prefix[1:])
        # only the queries that take this level gather its prefix rows, and
        # they follow the elements with the bit set, past the zeros
        sel = np.flatnonzero((bound >> level) & 1)
        lo_sel, hi_sel = lo[sel], hi[sel]
        z_lo, z_hi = zeros[lo_sel], zeros[hi_sel]
        out[sel] += _contract(prefix, z_lo, z_hi, rows1, rows2, sel)
        count[sel] += z_hi - z_lo
        lo[:], hi[:] = zeros[lo], zeros[hi]
        lo[sel], hi[sel] = zeros[-1] + lo_sel - z_lo, zeros[-1] + hi_sel - z_hi
    return out, count
