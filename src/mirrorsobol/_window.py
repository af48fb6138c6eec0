"""Mirrored kernel sums over each anchor's window, found by k-d tree range queries."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .domain import Domain, sign_matrix

# expected candidate pairs per anchor block; larger blocks raise the peak
# memory without running faster
_PAIR_BUDGET = 2**16


def window_sums(x, weights, kernel, h: float, domain: Domain, anchors=None) -> np.ndarray:
    """S[a, c] = sum_b weights[b, c] K_h(A_{q_a}(x_b - q_a)) for every anchor q_a.

    x holds the (m, d) points and weights their (m, r) weight columns.  The
    kernel vanishes outside the box q_a + s_a [lo h, hi h]^d, a max-norm
    ball, so a range query (Bentley 1975) at a radius inflated past the
    rounding of the ball centers proposes the candidate pairs, and the
    kernel's closed-support test decides each one, with the same arithmetic
    as a dense sweep.  The cost is O(m log m + pairs in a window), not m^2.
    With anchors None the anchors are the points and the pair b = a is left
    out (duplicate rows stay in); the rows are then put in a canonical order,
    so the sums do not depend on the input row order.
    """
    self_pairs = anchors is None
    if self_pairs:
        order = np.lexsort(np.vstack([weights.T[::-1], x.T[::-1]]))
        x, weights = x[order], weights[order]
        anchors = x
    signs = sign_matrix(domain, anchors)
    lo, hi = kernel.support
    centers = anchors + signs * (0.5 * (lo + hi) * h)
    scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(anchors), initial=0.0)))
    reach = 0.5 * (hi - lo) * h * (1.0 + 1e-9) + 8.0 * np.spacing(scale)
    per_anchor = x.shape[0] * np.prod(np.minimum(1.0, 2.0 * reach / domain.widths))
    block = max(1, int(_PAIR_BUDGET / max(per_anchor, 1.0)))
    tree = cKDTree(x)
    out = np.zeros((anchors.shape[0], weights.shape[1]))
    for start in range(0, anchors.shape[0], block):
        stop = min(start + block, anchors.shape[0])
        pairs = cKDTree(centers[start:stop]).sparse_distance_matrix(tree, reach, p=np.inf, output_type="ndarray")
        a, b = pairs["i"], pairs["j"]
        if self_pairs:
            keep = np.flatnonzero(a + start != b)
            a, b = a[keep], b[keep]
        ia = a + start
        mirrored = np.take(signs, ia, axis=0) * (np.take(x, b, axis=0) - np.take(anchors, ia, axis=0))
        kvals = kernel.eval_scaled(mirrored, h)
        wb = np.take(weights, b, axis=0)
        for c in range(weights.shape[1]):
            out[start:stop, c] = np.bincount(a, weights=kvals * wb[:, c], minlength=stop - start)
    if self_pairs:
        out[order] = out.copy()
    return out
