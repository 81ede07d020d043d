"""Statistical gates for the Monte-Carlo risk estimator `certify` runs.

The bound's MC gap assumes that the m draws of a cell are independent
draws from the posterior, so that their mean error L~ has mean L(rho), the
posterior's expected training error, and variance sigma^2 / m.  On a tiny
net the gates check both against an oracle that draws weights with its own
generator and evaluates them with batched `np.matmul`:

(a) the mean of L~ over S estimator seeds lies within 4 combined standard
    errors of the oracle's L(rho);
(b) the across-seed variance of L~, divided by sigma^2 / m with sigma^2
    the pooled within-seed per-draw variance, stays below the 0.999
    quantile of chi^2_{S-1} / (S - 1).

A power check breaks independence (every draw of a cell gets the same
seed) and sees (b) fail.
"""

import numpy as np
import pytest
from scipy import stats

from pbcert import certify
from pbcert.certify import mc_empirical_risk
from pbcert.data import Dataset
from pbcert.gaussians import DiagGaussian
from pbcert.nnet import NetSpec, forward
from tests.conftest import random_theta

SPEC = NetSpec((10, 16, 16, 2))
N = 200
LAMBDA = 0.05
M = 10
ORACLE_DRAWS = 10_000


def tiny_problem():
    """An iso posterior around a fixed theta, and labels from that theta
    with a fifth of them flipped, so that L(rho) is well inside (0, 1)."""
    rng = np.random.default_rng(17)
    theta = random_theta(SPEC, seed=17, scale=0.5)
    X = rng.standard_normal((N, SPEC.widths[0]))
    y = np.argmax(forward(SPEC, theta, X).outputs, axis=1)
    flip = rng.random(N) < 0.2
    y = np.where(flip, 1 - y, y)
    return DiagGaussian.isotropic(theta, LAMBDA), Dataset(X=X, y=y, k=2)


def oracle_errors(posterior, data, draws: int, chunk: int = 2000):
    """Per-draw 01-errors of `draws` weight vectors from the posterior, drawn
    with numpy's own generator and run through batched products."""
    rng = np.random.default_rng(23)
    errors = []
    for start in range(0, draws, chunk):
        count = min(chunk, draws - start)
        thetas = posterior.mean + posterior.std * rng.standard_normal(
            (count, posterior.dim))
        A = data.X
        offset = 0
        for i, (rows, cols) in enumerate(SPEC.layer_shapes):
            W = thetas[:, offset:offset + rows * cols].reshape(count, rows, cols)
            offset += rows * cols
            A = np.matmul(A, W.transpose(0, 2, 1))
            if i < SPEC.n_layers - 1:
                np.maximum(A, 0.0, out=A)
        errors.append(np.mean(np.argmax(A, axis=2) != data.y, axis=1))
    return np.concatenate(errors)


def estimates(posterior, data, seeds: int):
    """L~ and the per-draw errors of `seeds` runs of the estimator at m = M."""
    runs = [mc_empirical_risk(posterior, SPEC, data, M, seed)
            for seed in range(seeds)]
    return (np.array([risk for risk, _ in runs]),
            np.array([errors for _, errors in runs]))


def dispersion_gate(risks, per_draw) -> bool:
    """Gate (b): across-seed variance below the chi-square quantile of what
    m independent draws of the pooled per-draw variance predict."""
    s = len(risks)
    pooled = np.mean(np.var(per_draw, axis=1, ddof=1))
    limit = stats.chi2.ppf(0.999, s - 1) / (s - 1)
    return bool(np.var(risks, ddof=1) < limit * pooled / M)


@pytest.fixture(scope="module")
def problem():
    posterior, data = tiny_problem()
    oracle = oracle_errors(posterior, data, ORACLE_DRAWS)
    return posterior, data, oracle, *estimates(posterior, data, seeds=200)


def test_estimator_is_unbiased(problem):
    _, _, oracle, risks, _ = problem
    assert 0.1 < oracle.mean() < 0.9
    se = np.sqrt(np.var(risks, ddof=1) / len(risks)
                 + np.var(oracle, ddof=1) / len(oracle))
    assert abs(risks.mean() - oracle.mean()) <= 4.0 * se


def test_draws_are_as_dispersed_as_independent_ones(problem):
    _, _, _, risks, per_draw = problem
    assert dispersion_gate(risks, per_draw)


def test_dispersion_gate_catches_a_shared_draw(problem, monkeypatch):
    """With the draw index dropped from the seed, a cell's m draws are one
    draw: the pooled within-seed variance is 0 and (b) fails."""
    posterior, data = problem[:2]
    real = certify.child_seed
    monkeypatch.setattr(certify, "child_seed",
                        lambda seed, *stream: real(seed, *stream[:-1]))
    risks, per_draw = estimates(posterior, data, seeds=50)
    assert not dispersion_gate(risks, per_draw)
