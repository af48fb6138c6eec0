"""Gauss-Legendre rules for the pilot target and the limiting variances."""

from __future__ import annotations

__all__ = ["gauss_legendre"]


def gauss_legendre(n_nodes: int, a: float, b: float):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [a, b]; (k, 1) ends give k panels."""
    from numpy.polynomial import legendre  # kept out of `import mirrorsobol.cli`

    x, w = legendre.leggauss(int(n_nodes))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
