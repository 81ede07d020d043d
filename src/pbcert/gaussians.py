"""Gaussian primitives and the statistical penalty terms of the bound.

Everything here is pure: identical inputs (including seeds) produce
identical outputs, and the value types are immutable after construction.
Variances are kept in log-domain internally so downstream optimizers can
never push them nonpositive; the exposed values are plain variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pbcert.rng import rng_for


class DimensionMismatchError(ValueError):
    pass


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance, parameterized by log-variance."""

    mean: np.ndarray
    log_variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        logv = np.asarray(self.log_variance, dtype=np.float64)
        if mean.shape != logv.shape or mean.ndim != 1:
            raise DimensionMismatchError(
                f"mean shape {mean.shape} != log_variance shape {logv.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(logv))):
            raise ValueError("non-finite parameters")
        mean.setflags(write=False)
        logv.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_variance", logv)

    @classmethod
    def from_variance(cls, mean, variance) -> "DiagGaussian":
        variance = np.asarray(variance, dtype=np.float64)
        if np.any(variance <= 0):
            raise ValueError("variance must be strictly positive")
        return cls(np.asarray(mean, dtype=np.float64), np.log(variance))

    @classmethod
    def isotropic(cls, mean, variance: float) -> "DiagGaussian":
        mean = np.asarray(mean, dtype=np.float64)
        return cls.from_variance(mean, np.full(mean.shape, float(variance)))

    @property
    def variance(self) -> np.ndarray:
        return np.exp(self.log_variance)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class GaussianBlock:
    """Shared covariance for all neurons of one layer (fan_in x fan_in)."""

    layer: int
    neuron_count: int
    cov: np.ndarray
    chol: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatchError("block covariance must be square")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise NotPositiveDefiniteError("block covariance not symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("block covariance not PD") from exc
        cov.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "chol", chol)

    @property
    def fan_in(self) -> int:
        return self.cov.shape[0]


@dataclass(frozen=True)
class BlockGaussian:
    """Block-diagonal Gaussian; one covariance block per layer, shared by
    every neuron in that layer."""

    mean: np.ndarray
    blocks: tuple

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        blocks = tuple(self.blocks)
        total = sum(b.neuron_count * b.fan_in for b in blocks)
        if total != mean.shape[0]:
            raise DimensionMismatchError(
                f"blocks cover {total} parameters, mean has {mean.shape[0]}"
            )
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) in nats for diagonal Gaussians (closed form)."""
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {p.dim}")
    ratio = np.exp(q.log_variance - p.log_variance)
    dmean2 = (q.mean - p.mean) ** 2
    terms = ratio + dmean2 * np.exp(-p.log_variance) - 1.0 + (p.log_variance - q.log_variance)
    return float(0.5 * np.sum(terms))


def kl_block(q: BlockGaussian, p_mean: np.ndarray, p_lambda: float) -> float:
    """KL(q || N(p_mean, lambda I)) in nats, decomposed over (layer, neuron)."""
    if p_lambda <= 0:
        raise ValueError("p_lambda must be positive")
    p_mean = np.asarray(p_mean, dtype=np.float64)
    if p_mean.shape != q.mean.shape:
        raise DimensionMismatchError("prior mean shape mismatch")
    total = 0.0
    offset = 0
    for block in q.blocks:
        k = block.fan_in
        logdet = 2.0 * float(np.sum(np.log(np.diag(block.chol))))
        tr = float(np.trace(block.cov))
        per_block_const = tr / p_lambda - k + k * math.log(p_lambda) - logdet
        for _ in range(block.neuron_count):
            dmu = q.mean[offset:offset + k] - p_mean[offset:offset + k]
            total += 0.5 * (per_block_const + float(dmu @ dmu) / p_lambda)
            offset += k
    return total


def catoni_inv(beta: float, x: float) -> float:
    """Inversion (1 - e^{-beta x}) / (1 - e^{-beta}).

    Strictly increasing in x, maps 0 -> 0 and 1 -> 1.  Not clipped here;
    certificate assembly clips the final bound to [0, 1].
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    return math.expm1(-beta * x) / math.expm1(-beta)


def chernoff_gap(m: int, delta_prime: float) -> float:
    """Monte-Carlo estimation penalty sqrt(ln(2/delta') / m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0.0 < delta_prime < 1.0):
        raise ValueError("delta_prime must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta_prime) / m)


def union_bound_nats(lam: float, b: float, c: float, delta: float) -> float:
    """Penalty replacing ln(1/delta) when the prior scale lambda is tuned
    over the grid lambda = c * exp(-j / b), j = 1, 2, ...

    The grid's union bound spends delta * 6 / (pi^2 j^2) on index j, so j
    must be at least 1; below that the penalty would fall under ln(1/delta)
    and turn negative as lambda approaches c.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if b <= 0 or c <= 0:
        raise ValueError("b and c must be positive")
    if not (0.0 < lam < c):
        raise ValueError(f"lambda must lie in (0, c); got lambda={lam}, c={c}")
    log_ratio = math.log(c / lam)
    if b * log_ratio < 1.0:
        raise ValueError(f"grid index j = b ln(c/lambda) = {b * log_ratio} is "
                         f"below 1; lambda must be at most c exp(-1/b)")
    return math.log(math.pi ** 2 * b ** 2 * log_ratio ** 2 / (6.0 * delta))


def sample_gaussian(dist, seed: int) -> np.ndarray:
    """Draw one parameter vector from a DiagGaussian or BlockGaussian.

    Deterministic given the seed.  Block factors (Cholesky) are computed
    once per layer at construction; one (neurons x k) @ chol^T product per
    layer applies them to every neuron's noise at once.
    """
    if not isinstance(dist, (DiagGaussian, BlockGaussian)):
        raise TypeError(f"unsupported distribution type {type(dist)!r}")
    rng = rng_for(seed, "sample")
    z = rng.standard_normal(dist.dim)
    if isinstance(dist, DiagGaussian):
        return dist.mean + np.exp(0.5 * dist.log_variance) * z
    if isinstance(dist, BlockGaussian):
        out = np.array(dist.mean)
        offset = 0
        for block in dist.blocks:
            size = block.neuron_count * block.fan_in
            noise = z[offset:offset + size].reshape(block.neuron_count, -1)
            out[offset:offset + size] += (noise @ block.chol.T).ravel()
            offset += size
        return out
    raise TypeError(f"unsupported distribution type {type(dist)!r}")
