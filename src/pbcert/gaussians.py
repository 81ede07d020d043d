"""Gaussian primitives and the statistical penalty terms of the bound.

Everything here is pure: identical inputs (including seeds) produce
identical outputs, and the value types are immutable after construction.
Variances are kept in log-domain internally so downstream optimizers can
never push them nonpositive; the exposed values are plain variances.

Every posterior is one type, `DiagGaussian`: a diagonal Gaussian either in
parameter coordinates or in an orthogonal basis per layer of a `NetSpec`.
The prior N(theta0, lambda I) is unchanged by those rotations, so one KL
formula scores every posterior against it (`kl_block`), and no covariance
is ever formed or factored.
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


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance, parameterized by log-variance.

    With `bases` and `spec` (given together), `spec` lays out `mean` and
    `log_variance`: the block of a layer with fan-in k is U diag(s) U' for
    the orthogonal k x k basis U in `bases`, one block per neuron, and each
    neuron's row of the layer's `log_variance` matrix holds log s.  Without
    them the diagonal is in parameter coordinates.  The arrays are stored as
    read-only float64 copies; the caller's arrays stay writeable.
    """

    mean: np.ndarray
    log_variance: np.ndarray
    bases: tuple | None = None
    spec: NetSpec | None = None

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        logv = np.array(self.log_variance, dtype=np.float64)
        if mean.shape != logv.shape or mean.ndim != 1:
            raise DimensionMismatchError(
                f"mean shape {mean.shape} != log_variance shape {logv.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(logv))):
            raise ValueError("non-finite parameters")
        if (self.bases is None) != (self.spec is None):
            raise ValueError("bases and spec are given together or not at all")
        bases = ()
        if self.spec is not None:
            bases = tuple(np.array(U, dtype=np.float64) for U in self.bases)
            fan_ins = [k for _, k in self.spec.layer_shapes]
            if [U.shape for U in bases] != [(k, k) for k in fan_ins]:
                raise DimensionMismatchError(
                    "one fan_in x fan_in basis per layer of the spec needed")
            if mean.shape[0] != self.spec.n_params:
                raise DimensionMismatchError(
                    f"spec has {self.spec.n_params} parameters, "
                    f"mean has {mean.shape[0]}")
            object.__setattr__(self, "bases", bases)
        for array in (mean, logv, *bases):
            array.setflags(write=False)
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

    @cached_property
    def std(self) -> np.ndarray:
        """exp(log_variance / 2), computed once, since every draw scales by it."""
        std = np.exp(0.5 * self.log_variance)
        std.setflags(write=False)
        return std

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) in nats for diagonal Gaussians in parameter coordinates
    (closed form).  A Gaussian with bases is refused: against a prior that
    is not isotropic its KL is not this formula (see `kl_block`)."""
    if q.bases is not None or p.bases is not None:
        raise ValueError("kl_diag takes Gaussians without bases; "
                         "use kl_block against an isotropic prior")
    if q.dim != p.dim:
        raise DimensionMismatchError(f"dimension mismatch: {q.dim} vs {p.dim}")
    ratio = np.exp(q.log_variance - p.log_variance)
    dmean2 = (q.mean - p.mean) ** 2
    terms = ratio + dmean2 * np.exp(-p.log_variance) - 1.0 + (p.log_variance - q.log_variance)
    return float(0.5 * np.sum(terms))


def kl_block(q: DiagGaussian, p_mean: np.ndarray, p_lambda: float) -> float:
    """KL(q || N(p_mean, lambda I)) in nats for any `DiagGaussian`: the
    diagonal KL of q's log-variances, since the prior and the mean gap's
    length are unchanged by each layer's rotation."""
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


# b and c of the grid lambda = c * exp(-j / b) that `union_bound_nats` pays
# for: constants, since the union holds only for a grid fixed in advance
GRID_B = 100.0
GRID_C = 1.0


def union_bound_nats(lam: float, b: float, c: float, delta: float) -> float:
    """Penalty replacing ln(1/delta) when the prior scale lambda is tuned
    over the grid lambda = c * exp(-j / b), j = 1, 2, ...

    The grid's union bound spends delta * 6 / (pi^2 j^2) on index j, so j
    must be at least 1; below that the penalty would fall under ln(1/delta)
    and turn negative as lambda approaches c.  So a c <= 0 (no lambda in
    (0, c)) or a b <= 0 (j <= 0) is refused too.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (0.0 < lam < c):
        raise ValueError(f"lambda must lie in (0, c); got lambda={lam}, c={c}")
    log_ratio = math.log(c / lam)
    if b * log_ratio < 1.0:
        raise ValueError(f"grid index j = b ln(c/lambda) = {b * log_ratio} is "
                         f"below 1; lambda must be at most c exp(-1/b)")
    return math.log(math.pi ** 2 * b ** 2 * log_ratio ** 2 / (6.0 * delta))


def sample_gaussian(dist: DiagGaussian, seed: int) -> np.ndarray:
    """Draw one parameter vector from `dist`; deterministic given the seed.

    With bases, the diagonal draw is rotated into parameter coordinates by
    one (neurons x k) @ U' product per layer of the spec.
    """
    rng = rng_for(seed, "sample")
    z = rng.standard_normal(dist.dim)
    noise = dist.std * z
    if dist.bases is not None:
        noise = dist.spec.to_vector([N @ U.T for N, U in zip(
            dist.spec.to_matrices(noise), dist.bases)])
    return dist.mean + noise
