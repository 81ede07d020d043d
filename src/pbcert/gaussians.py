"""Gaussian primitives and the statistical penalty terms of the bound.

Everything here is pure: identical inputs (including seeds) produce
identical outputs, and the value types are immutable after construction.
Variances are kept in log-domain internally so downstream optimizers can
never push them nonpositive; the exposed values are plain variances.

Both posterior types are diagonal: `DiagGaussian` in parameter coordinates,
`BlockGaussian` in the orthogonal basis of each layer of its `NetSpec`, so
one KL formula against the rotation-invariant prior N(theta0, lambda I)
scores both, and no covariance is ever formed or factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from pbcert.nnet import NetSpec
from pbcert.rng import rng_for


class DimensionMismatchError(ValueError):
    pass


def _freeze_vectors(dist) -> None:
    """Set a frozen dist's mean and log_variance to read-only float64
    copies, after checking that they are finite and of one shape; the
    caller's arrays stay writeable."""
    mean = np.array(dist.mean, dtype=np.float64)
    logv = np.array(dist.log_variance, dtype=np.float64)
    if mean.shape != logv.shape or mean.ndim != 1:
        raise DimensionMismatchError(
            f"mean shape {mean.shape} != log_variance shape {logv.shape}"
        )
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(logv))):
        raise ValueError("non-finite parameters")
    for name, vector in (("mean", mean), ("log_variance", logv)):
        vector.setflags(write=False)
        object.__setattr__(dist, name, vector)


class _Diagonal:
    """What both posterior types share: a diagonal Gaussian in some basis."""

    @cached_property
    def std(self) -> np.ndarray:
        """exp(log_variance / 2), computed once, since every draw scales by it."""
        std = np.exp(0.5 * self.log_variance)
        std.setflags(write=False)
        return std

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class DiagGaussian(_Diagonal):
    """Gaussian with diagonal covariance, parameterized by log-variance."""

    mean: np.ndarray
    log_variance: np.ndarray

    def __post_init__(self):
        _freeze_vectors(self)

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


@dataclass(frozen=True)
class BlockGaussian(_Diagonal):
    """Gaussian whose covariance has one block per neuron, shared by every
    neuron of a layer, held as a diagonal Gaussian in each layer's basis.

    `spec` lays out `mean` and `log_variance`: the block of a layer with
    fan-in k is U diag(s) U' for the orthogonal k x k basis U in `bases`,
    and each neuron's row of the layer's `log_variance` matrix holds log s.
    """

    mean: np.ndarray
    log_variance: np.ndarray
    bases: tuple
    spec: NetSpec

    def __post_init__(self):
        _freeze_vectors(self)
        bases = tuple(np.array(U, dtype=np.float64) for U in self.bases)
        fan_ins = [k for _, k in self.spec.layer_shapes]
        if [U.shape for U in bases] != [(k, k) for k in fan_ins]:
            raise DimensionMismatchError(
                "one fan_in x fan_in basis per layer of the spec needed")
        if self.dim != self.spec.n_params:
            raise DimensionMismatchError(
                f"spec has {self.spec.n_params} parameters, mean has {self.dim}")
        for U in bases:
            U.setflags(write=False)
        object.__setattr__(self, "bases", bases)


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) in nats for diagonal Gaussians (closed form)."""
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {p.dim}")
    ratio = np.exp(q.log_variance - p.log_variance)
    dmean2 = (q.mean - p.mean) ** 2
    terms = ratio + dmean2 * np.exp(-p.log_variance) - 1.0 + (p.log_variance - q.log_variance)
    return float(0.5 * np.sum(terms))


def kl_block(q: BlockGaussian, p_mean: np.ndarray, p_lambda: float) -> float:
    """KL(q || N(p_mean, lambda I)) in nats: the diagonal KL of q's basis
    log-variances, since the prior and the mean gap's length are unchanged
    by each layer's rotation."""
    return kl_diag(DiagGaussian(q.mean, q.log_variance),
                   DiagGaussian.isotropic(p_mean, p_lambda))


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

    Deterministic given the seed.  A BlockGaussian draw is the diagonal
    draw rotated into parameter coordinates by one (neurons x k) @ U'
    product per layer of its spec.
    """
    if not isinstance(dist, (DiagGaussian, BlockGaussian)):
        raise TypeError(f"unsupported distribution type {type(dist)!r}")
    rng = rng_for(seed, "sample")
    z = rng.standard_normal(dist.dim)
    noise = dist.std * z
    if isinstance(dist, BlockGaussian):
        noise = dist.spec.to_vector([N @ U.T for N, U in zip(
            dist.spec.to_matrices(noise), dist.bases)])
    return dist.mean + noise
