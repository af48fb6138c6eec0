"""Construction of signed higher-order smoothing kernels.

A 1-D kernel of order k is K_1(x) = (sum_i c_i psi_i(x)) f_0(x), where f_0
is a base probability density on [0, 1/2], psi_0, ..., psi_k are its
orthonormal polynomials, and c solves the moment system

    sum_i lambda_i^m c_i = delta_{m0},   lambda_i^m = int x^m psi_i(x) f_0(x) dx,

for m = 0, ..., k.  By construction K_1 integrates to 1 and its moments of
orders 1..k vanish.  Multivariate kernels are tensor products of the 1-D
factor; the scaled kernel is K_h(x) = K(x/h) / h^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.linalg import hankel, solve_triangular

from . import _quad
from .errors import MirrorSobolError

__all__ = [
    "MAX_ORDER",
    "BaseDensity",
    "OrthonormalBasis",
    "Kernel1D",
    "KernelD",
    "uniform_half",
    "custom_base",
    "build_orthonormal_basis",
    "monomial_coordinates",
    "solve_kernel_coefficients",
    "build_kernel_1d",
    "tensorize",
    "verify_order",
    "build_kernel",
    "kernel_to_spec",
    "kernel_from_spec",
]

# Conditioning of the moment system degrades quickly with the degree; beyond
# this order the construction is not trustworthy in double precision.
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


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal polynomials of the base density, in monomial coordinates.

    Row m of `coeffs` holds the monomial coefficients of psi_m (constant term
    first); the matrix is lower triangular and deg(psi_m) = m exactly.
    """

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def eval(self, m: int, x) -> np.ndarray:
        """Evaluate psi_m at points x."""
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs[m])


def _check_order(k) -> int:
    if not isinstance(k, (int, np.integer)):
        raise MirrorSobolError(f"kernel order must be an integer, got {k!r}")
    if k < 0:
        raise MirrorSobolError(f"kernel order must be nonnegative, got {k}")
    if k > MAX_ORDER:
        raise MirrorSobolError(f"kernel order {k} exceeds the supported maximum {MAX_ORDER}")
    return int(k)


def build_orthonormal_basis(base: BaseDensity, k: int) -> OrthonormalBasis:
    """Gram-Schmidt of the monomials 1, x, ..., x^k under the f_0 inner product.

    The inner product of two monomial coefficient vectors a, b is a' M b with
    the Hankel moment matrix M[i, j] = m_{i+j}.  Orthogonalization runs two
    passes to keep the loss of orthogonality near machine precision at
    moderate degrees.
    """
    k = _check_order(k)
    m = base.moments
    if m.size < 2 * k + 1:
        raise MirrorSobolError(f"need moments up to order {2 * k}, base provides {m.size - 1}")
    if base.exact_moments is not None:
        return OrthonormalBasis(degree=k, coeffs=_gram_schmidt_exact(base.exact_moments, k))
    gram = hankel(m[: k + 1], m[k : 2 * k + 1])
    rows = np.zeros((k + 1, k + 1))
    for deg in range(k + 1):
        v = _unit_vector(k + 1, deg)
        for _ in range(2):
            for i in range(deg):
                v = v - (rows[i] @ gram @ v) * rows[i]
        norm2 = v @ gram @ v
        if not np.isfinite(norm2) or norm2 <= 0.0:
            raise MirrorSobolError("degenerate base density: moment matrix is numerically singular")
        rows[deg] = v / np.sqrt(norm2)
    return OrthonormalBasis(degree=k, coeffs=rows)


def _gram_schmidt_exact(moments, k: int) -> np.ndarray:
    """Monic orthogonalization in exact rational arithmetic, normalized in float.

    Cancellation in the Hankel inner products limits the float path to about
    1e-9 by degree 6; with rational moments every projection is exact and only
    the final normalization rounds.
    """

    def ip(a, b):
        return sum(ai * moments[i + j] * bj for i, ai in enumerate(a) for j, bj in enumerate(b) if ai and bj)

    ortho, norms2 = [], []
    for deg in range(k + 1):
        v = [Fraction(0)] * (k + 1)
        v[deg] = Fraction(1)
        for w, n2 in zip(ortho, norms2):
            coef = ip(v, w) / n2
            v = [vi - coef * wi for vi, wi in zip(v, w)]
        n2 = ip(v, v)
        if n2 <= 0:
            raise MirrorSobolError("degenerate base density: moment matrix is singular")
        ortho.append(v)
        norms2.append(n2)
    rows = np.zeros((k + 1, k + 1))
    for deg, (w, n2) in enumerate(zip(ortho, norms2)):
        scale = 1.0 / math.sqrt(float(n2))
        rows[deg] = [float(wi) * scale for wi in w]
    return rows


def monomial_coordinates(m: int, basis: OrthonormalBasis) -> np.ndarray:
    """Coordinates lambda^m of x^m in the orthonormal basis.

    Solves the triangular change of basis x^m = sum_i lambda_i^m psi_i, which
    coincides with lambda_i^m = int x^m psi_i f_0; entries with i > m vanish.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise MirrorSobolError(f"monomial degree must be a nonnegative integer, got {m!r}")
    if m > basis.degree:
        raise MirrorSobolError(f"monomial degree {m} exceeds basis degree {basis.degree}")
    lam = solve_triangular(basis.coeffs.T, _unit_vector(basis.degree + 1, m), lower=False)
    lam[m + 1 :] = 0.0
    return lam


def solve_kernel_coefficients(basis: OrthonormalBasis) -> np.ndarray:
    """Solve sum_i lambda_i^m c_i = delta_{m0} for m = 0, ..., k.

    The system matrix (rows lambda^0, ..., lambda^k) is lower triangular with
    nonzero diagonal, hence uniquely solvable.
    """
    k = basis.degree
    lam = np.vstack([monomial_coordinates(m, basis) for m in range(k + 1)])
    cond = np.linalg.cond(lam)
    if not np.isfinite(cond) or cond > 1e13:
        raise MirrorSobolError(f"ill-conditioned basis: moment system condition number {cond:.2e}")
    return solve_triangular(lam, _unit_vector(k + 1, 0), lower=True)


def _unit_vector(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


@dataclass(frozen=True)
class Kernel1D:
    """1-D signed kernel K_1(x) = P(x) f_0(x) on the base support.

    `poly_coeffs` are the monomial coefficients of P = sum_i c_i psi_i.  For
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
    basis = build_orthonormal_basis(base, k)
    c = solve_kernel_coefficients(basis)
    poly = c @ basis.coeffs
    return Kernel1D(order=int(k), poly_coeffs=poly, base=base)


def tensorize(factor: Kernel1D, d: int) -> KernelD:
    """Tensor-product kernel of dimension d from a 1-D factor."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise MirrorSobolError(f"kernel dimension must be a positive integer, got {d!r}")
    return KernelD(factor=factor, dim=int(d))


def build_kernel(k: int, d: int, base: Optional[BaseDensity] = None) -> KernelD:
    """Convenience: order-k, dimension-d kernel (uniform base by default)."""
    if base is None:
        base = uniform_half(k)
    return tensorize(build_kernel_1d(base, k), d)


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


def kernel_to_spec(kernel: KernelD) -> dict:
    """JSON-serializable kernel spec; coefficients are recomputed on load."""
    if kernel.factor.base.kind != "uniform_half":
        raise MirrorSobolError("only the uniform_half base is serializable; rebuild custom bases in code")
    return {"order": kernel.order, "dim": kernel.dim, "base": "uniform_half"}


def kernel_from_spec(spec: dict) -> KernelD:
    """Rebuild a kernel from its JSON spec."""
    try:
        order, dim, base = spec["order"], spec["dim"], spec["base"]
    except (KeyError, TypeError) as exc:
        raise MirrorSobolError(f"invalid kernel spec {spec!r}") from exc
    if base != "uniform_half":
        raise MirrorSobolError(f"unsupported kernel base {base!r}; only 'uniform_half' loads from JSON")
    return build_kernel(int(order), int(dim))
