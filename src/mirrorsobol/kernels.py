"""Construction of the signed higher-order smoothing kernel.

The 1-D kernel of order k is K_1(x) = P(x) f_0(x), where f_0 = 2 is the
uniform density on [0, 1/2] and P = sum_j p_j x^j is the degree-k
polynomial whose moments against f_0 are delta_{m0}:

    sum_j p_j m_{m+j} = delta_{m0},   m_i = int x^i f_0(x) dx = 1 / (2^i (i + 1)),   m = 0, ..., k.

So K_1 integrates to 1 and its moments of orders 1..k vanish.  The matrix
of this system is the Hankel moment matrix of f_0, positive definite, and P
is its reproducing kernel at 0 (Berlinet, "Hierarchies of higher order
kernels", 1993).  This is the same polynomial as the paper's
P = sum_i c_i psi_i with orthonormal psi_i and sum_i lambda_i^m c_i =
delta_{m0}, lambda_i^m = int x^m psi_i f_0: both say int x^m P f_0 =
delta_{m0}, written in two bases.  The system is solved once, exactly, in
rational arithmetic, and each coefficient of K_1 = 2P is rounded to float
once.  Multivariate kernels are tensor products of K_1 over the axes of
the points they are applied to; the scaled kernel is K_h(x) = K(x/h) / h^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import _is_integer
from .errors import MirrorSobolError

__all__ = ["MAX_ORDER", "KernelD", "build_kernel"]

# The monomial coefficients of K_1 are integers of alternating sign that grow
# about tenfold per order (2.3e10 at k = 10), so evaluating K_1 in floats loses
# digits to cancellation: its mass error is 1.2e-11 at k = 10 and passes the
# 1e-8 moment tolerance of the kernel tests only up to k = 12.
MAX_ORDER = 10
# the closed support of K_1
_SUPPORT = (0.0, 0.5)


def _check_order(k) -> int:
    if not _is_integer(k):
        raise MirrorSobolError(f"kernel order must be an integer, got {k!r}")
    if k < 0:
        raise MirrorSobolError(f"kernel order must be nonnegative, got {k}")
    if k > MAX_ORDER:
        raise MirrorSobolError(f"kernel order {k} exceeds the supported maximum {MAX_ORDER}")
    return int(k)


def _solve_moment_system(k: int) -> list:
    """Exact Gauss-Jordan solve of sum_j p_j m_{i+j} = delta_{i0}, i = 0..k.

    The moments are those of f_0, m_j = 1 / (2^j (j + 1)); their Hankel
    matrix is positive definite, so elimination in order meets only positive
    pivots.
    """
    moments = [Fraction(1, 2**j * (j + 1)) for j in range(2 * k + 1)]
    rows = [[moments[i + j] for j in range(k + 1)] + [Fraction(int(i == 0))] for i in range(k + 1)]
    for col in range(k + 1):
        pivot = rows[col][col]
        rows[col] = [v / pivot for v in rows[col]]
        for r in range(k + 1):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


@dataclass(frozen=True)
class KernelD:
    """Tensor-product kernel K(u_1, ..., u_d) = K_1(u_1) ... K_1(u_d).

    `coeffs` are the monomial coefficients of K_1 = 2P (constant first) on
    its closed support [0, 1/2]; K_1 is 0 outside.  The order is the degree
    of P, and the dimension d is that of the points K is applied to.
    """

    coeffs: np.ndarray
    support = _SUPPORT

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def eval(self, u) -> np.ndarray:
        """Evaluate K at points of shape (..., d), multiplying K_1 over the last axis.

        K_1 is evaluated by Horner's rule and the axes are multiplied left to
        right: the same roundings as np.polynomial.polynomial.polyval and
        np.prod, in whole-column passes, which numpy runs far faster than a
        reduction over a short last axis.
        """
        u = np.asarray(u, dtype=float)
        lo, hi = self.support
        out = np.ones(u.shape[:-1])
        for j in range(u.shape[-1]):
            t = u[..., j]
            poly = np.full(t.shape, self.coeffs[-1])
            for c in self.coeffs[-2::-1]:
                poly *= t
                poly += c
            out *= np.where((t >= lo) & (t <= hi), poly, 0.0)
        return out

    def eval_scaled(self, u, h: float) -> np.ndarray:
        """Evaluate K_h(u) = K(u/h) / h^d."""
        if not (np.isfinite(h) and h > 0):
            raise MirrorSobolError(f"bandwidth must be a positive real, got {h!r}")
        u = np.asarray(u, dtype=float)
        return self.eval(u / h) / h ** u.shape[-1]


def build_kernel(k: int) -> KernelD:
    """The order-k kernel, in any dimension."""
    k = _check_order(k)
    return KernelD([float(2 * p) for p in _solve_moment_system(k)])

