"""Full-array test oracles on the 64-point tensor rule, and the efficiency bounds of the Sobol' index.

`rule_arrays` builds the whole rule at once, by the meshgrid formula, where
`testbed.limiting_variances` walks it in slabs.  sigma_T^2 = Var(g1(2Y - g1))
is the variance of the efficient influence row of t = E[g1^2]; sigma_min^2
is `estimator._ratio_covariance` with that row in place of 2Y g1 (Da Veiga
& Gamboa, J. Nonparametr. Stat. 2013).
"""

import numpy as np

from mirrorsobol._quad import gauss_legendre
from mirrorsobol.estimator import _ratio_covariance
from mirrorsobol.testbed import limiting_variances


def rule_arrays(model, mask, shift=0.0, powers=(1, 2)) -> tuple:
    """(weights, y, g1, g2) on every node of the rule, by the meshgrid formula: the full (64^p, p) node array, then each array at once.

    g1 and g2 contract W_off Y and W_off Y^2 over the off-mask axes of the
    whole (64,) * p grid, W_off the meshgrid product of the off-mask Gauss
    weights and densities, and are spread back over every node.  In their
    place come the contractions of W_off (Y - shift)^k for each k of powers.
    """
    marginals = model.input_model.marginals
    axes = [gauss_legendre(64, *m.support) for m in marginals]
    points = np.stack([m.reshape(-1) for m in np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=1)
    weights = np.ones(points.shape[0])
    for wm in np.meshgrid(*[w for _, w in axes], indexing="ij"):
        weights = weights * wm.reshape(-1)
    for axis, marg in enumerate(marginals):
        weights *= marg.pdf(points[:, axis])
    y = model.g(points)
    grid = (64,) * model.p
    off = tuple(axis for axis in range(model.p) if axis not in mask)
    w_off = np.ones(grid)
    for axis, wm in enumerate(np.meshgrid(*[w * marg.pdf(x) for marg, (x, w) in zip(marginals, axes)], indexing="ij")):
        if axis in off:
            w_off = w_off * wm
    y_grid = y.reshape(grid) - shift
    moments = ((w_off * y_grid**k).sum(axis=off, keepdims=True) for k in powers)
    return (weights, y, *(np.broadcast_to(g, grid).ravel() for g in moments))


def efficient_bounds(model, mask) -> tuple:
    """(sigma_T^2, sigma_min^2) at population moments, over the rows (g1(2Y - g1), Y, Y^2)."""
    w, y, g1, _ = rule_arrays(model, mask)
    rows = (g1 * (2.0 * y - g1), y, y * y)
    means = [float(w @ r) for r in rows]
    gamma = np.array([[float(w @ (a * b)) - ma * mb for b, mb in zip(rows, means)] for a, ma in zip(rows, means)])
    m, v = means[1], gamma[1, 1]
    sobol = (means[0] - m * m) / v
    return float(gamma[0, 0]), float(_ratio_covariance(gamma, sobol, m, v)[0, 0])


def sigma_t_second_form(model, mask) -> float:
    """4 tau^2 - 3 Var(g1^2), sigma_T^2 by the tower property from other integrals."""
    w, _, g1, _ = rule_arrays(model, mask)
    g1sq_mean = float(w @ g1**2)
    g1_4 = float(w @ g1**4)
    return limiting_variances(model, mask)[0] - 3.0 * (g1_4 - g1sq_mean * g1sq_mean)
