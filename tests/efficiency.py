"""Efficiency bounds of the Sobol' index: a test oracle on the package's delta-method rule.

sigma_T^2 = Var(g1(2Y - g1)) is the variance of the efficient influence row
of t = E[g1^2]; sigma_min^2 is `estimator._ratio_covariance` with that row in
place of 2Y g1 (Da Veiga & Gamboa, J. Nonparametr. Stat. 2013).
"""

import numpy as np

from mirrorsobol.baselines import _population_covariance, _slabs, limiting_variance_t
from mirrorsobol.estimator import _ratio_covariance


def rule_arrays(oracles) -> tuple:
    """(weights, y, g1, g2) on every node of the quadrature rule, concatenated from its slabs."""
    slabs = [(w, *(np.broadcast_to(a, y.shape).ravel() for a in (y, g1, g2))) for w, y, g1, g2 in _slabs(oracles)]
    return tuple(np.concatenate(parts) for parts in zip(*slabs))


def efficient_bounds(oracles) -> tuple:
    """(sigma_T^2, sigma_min^2) at population moments, over the rows (g1(2Y - g1), Y, Y^2)."""
    means, gamma = _population_covariance(oracles, lambda y, g1, g2: (g1 * (2.0 * y - g1), y, y * y))
    m, v = means[1], gamma[1, 1]
    sobol = (means[0] - m * m) / v
    return float(gamma[0, 0]), float(_ratio_covariance(gamma, sobol, m, v)[0, 0])


def sigma_t_second_form(oracles) -> float:
    """4 tau^2 - 3 Var(g1^2), sigma_T^2 by the tower property from other integrals."""
    w, _, g1, _ = rule_arrays(oracles)
    g1sq_mean = float(w @ g1**2)
    g1_4 = float(w @ g1**4)
    return limiting_variance_t(oracles) - 3.0 * (g1_4 - g1sq_mean * g1sq_mean)
