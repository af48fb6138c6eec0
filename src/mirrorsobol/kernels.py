"""Construction of signed higher-order smoothing kernels.

A 1-D kernel of order k is K_1(x) = P(x) f_0(x), where f_0 is a base
probability density on [0, 1/2] and P = sum_j p_j x^j is the degree-k
polynomial whose moments against f_0 are delta_{m0}:

    sum_j p_j m_{m+j} = delta_{m0},   m_i = int x^i f_0(x) dx,   m = 0, ..., k.

So K_1 integrates to 1 and its moments of orders 1..k vanish.  The matrix
of this system is the Hankel moment matrix of f_0, positive definite for any
density, and P is its reproducing kernel at 0 (Berlinet, "Hierarchies of
higher order kernels", 1993).  This is the same polynomial as the paper's
P = sum_i c_i psi_i with orthonormal psi_i and sum_i lambda_i^m c_i =
delta_{m0}, lambda_i^m = int x^m psi_i f_0: both say int x^m P f_0 =
delta_{m0}, written in two bases.  The system is solved once, exactly, in
rational arithmetic on the exact moments (the uniform base) or on the exact
values of the float moments (a custom base), and each coefficient is rounded
to float once.  Multivariate kernels are tensor products of the 1-D factor;
the scaled kernel is K_h(x) = K(x/h) / h^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _quad
from .errors import MirrorSobolError

__all__ = [
    "MAX_ORDER",
    "BaseDensity",
    "Kernel1D",
    "KernelD",
    "uniform_half",
    "custom_base",
    "build_kernel_1d",
    "verify_order",
    "build_kernel",
]

# Conditioning of the moment system degrades quickly with the degree; beyond
# this order the float moments of a custom base and the float coefficients
# are not trustworthy.
MAX_ORDER = 10
# mass and moment errors verify_order accepts
_ORDER_TOL = 1e-8


@dataclass(frozen=True)
class BaseDensity:
    """Base probability density f_0 on a bounded interval, with raw moments.

    `moments[j]` holds m_j = int x^j f_0(x) dx for j = 0, ..., 2k.  The
    density handle must accept numpy arrays.  `kind` is "uniform_half" for
    the canonical uniform base on [0, 1/2], "custom" otherwise.
    """

    kind: str
    support: tuple
    density: Callable[[np.ndarray], np.ndarray]
    moments: np.ndarray
    exact_moments: Optional[tuple] = None

    def __post_init__(self):
        m = np.asarray(self.moments, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise MirrorSobolError("moments must be a nonempty 1-D array")
        if abs(m[0] - 1.0) > 1e-12:
            raise MirrorSobolError(f"base density mass m_0 = {m[0]!r} is not 1 within 1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "moments", m)
        object.__setattr__(self, "support", (float(self.support[0]), float(self.support[1])))


def uniform_half(k: int) -> BaseDensity:
    """Uniform base density on [0, 1/2] with exact rational moments.

    m_j = int_0^{1/2} x^j * 2 dx = (1/2)^j / (j + 1), available up to order 2k.
    """
    _check_order(k)
    j = np.arange(2 * k + 1)
    moments = 0.5**j / (j + 1.0)
    exact = tuple(Fraction(1, 2**int(jj) * (int(jj) + 1)) for jj in j)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 0.5), 2.0, 0.0)

    return BaseDensity(
        kind="uniform_half", support=(0.0, 0.5), density=density, moments=moments, exact_moments=exact
    )


def custom_base(density: Callable, support: tuple, k: int) -> BaseDensity:
    """Base density from a user-supplied handle; moments by quadrature.

    The support must lie in [0, 1/2], the window the mirror condition
    covers, and the density must integrate to 1 over it within 1e-12.
    """
    _check_order(k)
    from scipy.integrate import quad

    a, b = float(support[0]), float(support[1])
    if not (0.0 <= a < b <= 0.5):
        raise MirrorSobolError(f"custom base support {support!r} must be an interval (a, b) with 0 <= a < b <= 1/2")
    moments = np.empty(2 * k + 1)
    for j in range(2 * k + 1):
        moments[j], _ = quad(lambda x, j=j: x**j * density(np.asarray(x)), a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    if abs(moments[0] - 1.0) > 1e-12:
        raise MirrorSobolError(f"custom base density integrates to {moments[0]!r}, not 1 within 1e-12")
    return BaseDensity(kind="custom", support=(a, b), density=density, moments=moments)


def _check_order(k) -> int:
    if not isinstance(k, (int, np.integer)):
        raise MirrorSobolError(f"kernel order must be an integer, got {k!r}")
    if k < 0:
        raise MirrorSobolError(f"kernel order must be nonnegative, got {k}")
    if k > MAX_ORDER:
        raise MirrorSobolError(f"kernel order {k} exceeds the supported maximum {MAX_ORDER}")
    return int(k)


def _solve_moment_system(moments, k: int) -> list:
    """Exact Gauss-Jordan solve of sum_j p_j m_{i+j} = delta_{i0}, i = 0..k.

    `moments` are Fractions.  The Hankel matrix of a density is positive
    definite, so elimination in order meets only positive pivots; any other
    pivot means the moments belong to no density with more than k support
    points.
    """
    rows = [[moments[i + j] for j in range(k + 1)] + [Fraction(int(i == 0))] for i in range(k + 1)]
    for col in range(k + 1):
        pivot = rows[col][col]
        if pivot <= 0:
            raise MirrorSobolError("degenerate base density: moment matrix is not positive definite")
        rows[col] = [v / pivot for v in rows[col]]
        for r in range(k + 1):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


@dataclass(frozen=True)
class Kernel1D:
    """1-D signed kernel K_1(x) = P(x) f_0(x) on the base support.

    `poly_coeffs` are the monomial coefficients of P (constant first).  For
    the uniform base, K_1 itself is the polynomial with coefficients
    `full_coeffs` = 2 * poly_coeffs on [0, 1/2] (and 0 outside).
    """

    order: int
    poly_coeffs: np.ndarray
    base: BaseDensity
    support: tuple = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.poly_coeffs, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "poly_coeffs", c)
        object.__setattr__(self, "support", self.base.support)

    @property
    def full_coeffs(self) -> Optional[np.ndarray]:
        """Monomial coefficients of K_1 on its support, when f_0 is constant."""
        if self.base.kind == "uniform_half":
            return 2.0 * self.poly_coeffs
        return None

    def eval(self, x) -> np.ndarray:
        """Evaluate K_1 at points x (zero outside the closed support)."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        vals = np.polynomial.polynomial.polyval(x, self.poly_coeffs) * self.base.density(x)
        return np.where(inside, vals, 0.0)


@dataclass(frozen=True)
class KernelD:
    """Tensor-product kernel K(x_1, ..., x_d) = K_1(x_1) ... K_1(x_d)."""

    factor: Kernel1D
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise MirrorSobolError(f"kernel dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def order(self) -> int:
        return self.factor.order

    @property
    def support(self) -> tuple:
        return self.factor.support

    def eval(self, u) -> np.ndarray:
        """Evaluate K at points of shape (..., dim)."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.dim:
            raise MirrorSobolError(f"points have dimension {u.shape[-1]}, kernel has {self.dim}")
        return np.prod(self.factor.eval(u), axis=-1)

    def eval_scaled(self, u, h: float) -> np.ndarray:
        """Evaluate K_h(u) = K(u/h) / h^d."""
        if not (np.isfinite(h) and h > 0):
            raise MirrorSobolError(f"bandwidth must be a positive real, got {h!r}")
        return self.eval(np.asarray(u, dtype=float) / h) / h**self.dim


def build_kernel_1d(base: BaseDensity, k: int) -> Kernel1D:
    """Build the order-k 1-D kernel for the given base density."""
    k = _check_order(k)
    if base.moments.size < 2 * k + 1:
        raise MirrorSobolError(f"need moments up to order {2 * k}, base provides {base.moments.size - 1}")
    moments = base.exact_moments or [Fraction(m) for m in base.moments.tolist()]
    poly = _solve_moment_system(moments, k)
    return Kernel1D(order=k, poly_coeffs=[float(p) for p in poly], base=base)


def build_kernel(k: int, d: int, base: Optional[BaseDensity] = None) -> KernelD:
    """Convenience: order-k, dimension-d kernel (uniform base by default)."""
    if base is None:
        base = uniform_half(k)
    return KernelD(factor=build_kernel_1d(base, k), dim=d)


def verify_order(kernel: KernelD) -> dict:
    """Check the moment conditions of the kernel by tensor Gauss-Legendre quadrature.

    Evaluates int u^beta K(u) du for every multi-index 0 < |beta| <= order
    plus the total mass, with max(2*order + 2, 16) nodes per axis, and
    reports the worst violation; it passes within _ORDER_TOL.
    """
    nodes = max(2 * kernel.order + 2, 16)
    points, weights = _quad.tensor_grid(nodes, [kernel.support] * kernel.dim)
    kvals = weights * kernel.eval(points)
    mass = float(np.sum(kvals))
    worst = 0.0
    worst_index = None
    for beta in _quad.multi_indices(kernel.dim, kernel.order):
        moment = float(np.sum(kvals * np.prod(points ** np.asarray(beta), axis=1)))
        if abs(moment) > worst:
            worst, worst_index = abs(moment), beta
    mass_error = abs(mass - 1.0)
    return {
        "order": kernel.order,
        "dim": kernel.dim,
        "nodes_per_axis": nodes,
        "mass": mass,
        "mass_error": mass_error,
        "max_moment_violation": worst,
        "worst_index": worst_index,
        "passed": bool(mass_error <= _ORDER_TOL and worst <= _ORDER_TOL),
    }

