"""Gauss-Legendre quadrature for the variance oracles of the testbed."""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_legendre", "tensor_grid"]


def gauss_legendre(n_nodes: int, a: float, b: float):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n_nodes))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def tensor_grid(n_nodes: int, bounds):
    """Tensor-product Gauss-Legendre grid over a box.

    bounds is a sequence of (a, b) pairs, one per axis.  Returns
    (points, weights) with points of shape (n_nodes^d, d) and weights of
    shape (n_nodes^d,).  The grid is enumerated in row-major axis order,
    so results are deterministic.
    """
    axes = [gauss_legendre(n_nodes, a, b) for a, b in bounds]
    mesh = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    wmesh = np.meshgrid(*[w for _, w in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for wm in wmesh:
        weights = weights * wm.reshape(-1)
    return points, weights

