"""Independent input marginals, subset densities, and seeded sampling.

An `InputModel` is a product of univariate marginals, each `Uniform` on
[a, b] or `Beta` on [0, 1].  It exposes the product density over any
nonempty subset of coordinates, vectorized over rows, and draws
reproducible samples via inverse-CDF transforms of a counter-based
generator.  Densities are reported exactly (including exact zeros); the
division floor is applied by callers.  Any other known density enters the
estimator as a vectorized `f_x` together with a `domain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # numpy 2 would load it lazily, inside the first draw

from .domain import Domain, _check_mask
from .errors import MirrorSobolError

__all__ = [
    "Uniform",
    "Beta",
    "InputModel",
    "subset_density_fn",
    "sample",
    "input_model_from_json",
]


@dataclass(frozen=True)
class Uniform:
    """Uniform marginal on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise MirrorSobolError(f"uniform marginal requires a < b, got [{self.a}, {self.b}]")

    @property
    def support(self) -> tuple:
        return (self.a, self.b)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def transform(self, u) -> np.ndarray:
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class Beta:
    """Beta(a, b) marginal on [0, 1]; sampled through the incomplete-beta inverse."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise MirrorSobolError(f"beta marginal requires positive shapes, got ({self.a}, {self.b})")

    @property
    def support(self) -> tuple:
        return (0.0, 1.0)

    def pdf(self, x) -> np.ndarray:
        from scipy import special

        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        xc = np.clip(x, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = xc ** (self.a - 1.0) * (1.0 - xc) ** (self.b - 1.0) / special.beta(self.a, self.b)
        return np.where(inside, vals, 0.0)

    def transform(self, u) -> np.ndarray:
        from scipy import special

        return special.betaincinv(self.a, self.b, np.asarray(u, dtype=float))


@dataclass(frozen=True)
class InputModel:
    """Product of independent marginals; the domain is the box of their supports."""

    marginals: tuple

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if len(self.marginals) == 0:
            raise MirrorSobolError("input model needs at least one marginal")
        for i, marg in enumerate(self.marginals):
            if not isinstance(marg, (Uniform, Beta)):
                raise MirrorSobolError(f"marginal {i} is a {type(marg).__name__}, not a Uniform or Beta marginal")

    @property
    def p(self) -> int:
        return len(self.marginals)

    @property
    def domain(self) -> Domain:
        lo = np.array([m.support[0] for m in self.marginals])
        hi = np.array([m.support[1] for m in self.marginals])
        return Domain(lo, hi)


def subset_density_fn(model: InputModel, mask) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized subset density: (n, d) rows -> (n,) density values.

    The marginal densities are multiplied left to right.  A row whose
    factors are all positive and finite but whose partial products leave the
    normal floats, although the joint density may be finite (1e149 and
    3.16e159 before a factor 1e-9), is recomputed as the exp of the exactly
    rounded sum (`math.fsum`) of the factors' logs.
    """
    idx = _check_mask(mask, model.p)
    margs = [model.marginals[i] for i in idx]
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max

    def f_x(rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(margs):
            raise MirrorSobolError(f"expected rows of shape (n, {len(margs)}), got {rows.shape}")
        factors = [marg.pdf(rows[:, j]) for j, marg in enumerate(margs)]
        out = np.ones(rows.shape[0])
        normal = np.ones(rows.shape[0], dtype=bool)
        with np.errstate(over="ignore"):
            for f in factors:
                out *= f
                normal &= (out >= tiny) & (out <= huge)
        redo = np.flatnonzero(~normal & np.all([(f > 0.0) & (f <= huge) for f in factors], axis=0))
        if redo.size:  # a joint density beyond the floats is inf
            with np.errstate(over="ignore"):
                out[redo] = np.exp([math.fsum(logs) for logs in np.log([f[redo] for f in factors]).T])
        return out

    return f_x


def sample(model: InputModel, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw n i.i.d. rows from the product law, deterministically in (seed, stream).

    One PCG64 generator is derived from SeedSequence((seed, stream)); each
    column is the inverse-CDF transform of a column of one shared uniform
    block.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise MirrorSobolError(f"sample size must be a positive integer, got {n!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(stream)))))
    u = rng.random((int(n), model.p))
    return np.column_stack([marg.transform(u[:, i]) for i, marg in enumerate(model.marginals)])


def input_model_from_json(obj: dict) -> InputModel:
    """Parse {"marginals": [{"uniform": [a, b]} | {"beta": [a, b]}, ...]}."""
    try:
        specs = obj["marginals"]
    except (KeyError, TypeError) as exc:
        raise MirrorSobolError(f"invalid input model spec {obj!r}") from exc
    margs = []
    for spec in specs:
        if not isinstance(spec, dict) or len(spec) != 1:
            raise MirrorSobolError(f"invalid marginal spec {spec!r}")
        (kind, params), = spec.items()
        if kind == "uniform":
            margs.append(Uniform(float(params[0]), float(params[1])))
        elif kind == "beta":
            margs.append(Beta(float(params[0]), float(params[1])))
        else:
            raise MirrorSobolError(f"unknown marginal kind {kind!r}")
    return InputModel(tuple(margs))
