"""Gauss-Legendre quadrature for the variance oracles of the testbed."""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_legendre"]


def gauss_legendre(n_nodes: int, a: float, b: float):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n_nodes))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w

