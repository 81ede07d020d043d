"""Posterior construction for every family in the toolkit.

Families:
  iso-zero / iso-init   isotropic posterior N(theta*, lambda I) with the
                        prior centered at zero or at the initialization
  closed-diag           curvature-matched diagonal posterior (valid)
  closed-joint          jointly optimal diagonal posterior AND prior;
                        the prior depends on training data, so results
                        are tagged invalid-prior and serve as a sanity
                        ceiling only
  vi-diag               diagonal posterior optimized by stochastic
                        reparameterized gradients of the bound surrogate
  skfac-block           per-neuron block posterior: the closed form on the
                        eigenvalues of the shared layer activation Hessians,
                        held in their eigenbasis

The closed-form solvers take the quadratic-objective weight directly
(the KL multiplier of 1/2 eta' H eta + beta KL).  Certificate assembly
maps the bound's beta to this weight via 1/(beta n), which makes the
quadratic objective the second-order expansion of the bound surrogate
when H is the curvature of the mean loss, as every `curvature` estimate is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pbcert.blas import single_threaded
from pbcert.gaussians import BlockGaussian, DiagGaussian, kl_diag
from pbcert.nnet import NetSpec, forward, grad as nnet_grad, loss as nnet_loss
from pbcert.rng import rng_for

FISHER_FLOOR = 1e-12
DELTA_MU_FLOOR = 1e-16


def closed_form_posterior(h, beta: float, lam: float, prior_var=None):
    """Curvature-matched variances: beta / (h + (beta/lambda) / sigma_pi).

    `h` is a curvature vector (a diagonal Fisher, or a layer Hessian's
    eigenvalues); `prior_var` (sigma_pi) defaults to ones (prior covariance
    lambda I).  A variance that would not be positive is rejected.
    """
    if beta <= 0 or lam <= 0:
        raise ValueError("beta and lambda must be positive")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ValueError("h must be a vector")
    prior_var = np.ones_like(h) if prior_var is None else np.asarray(prior_var)
    if np.any(prior_var <= 0):
        raise ValueError("prior variance must be positive")
    precision = h + (beta / lam) / prior_var
    if not np.all(precision > 0):
        raise ValueError("a curvature at or below -(beta/lambda)/sigma_pi "
                         "has no positive variance")
    return beta / precision


@dataclass
class JointOptimalResult:
    sigma_rho: np.ndarray       # posterior variances
    sigma_pi: np.ndarray        # prior variance factors (prior cov = lambda * sigma_pi)
    n_floored: int              # coordinates floored before evaluation


def joint_optimal_diag(h, beta: float, lam: float, mu_rho,
                       mu_pi) -> JointOptimalResult:
    """Jointly optimal diagonal posterior and prior covariances.

    The prior here is fitted to the training data, so results must be
    treated as a sanity ceiling, never as a valid bound.  Coordinates with
    zero curvature or zero mean gap have no finite optimizer (the
    objective diverges at the domain boundary); they are floored at tiny
    epsilons and counted.
    """
    if beta <= 0 or lam <= 0:
        raise ValueError("beta and lambda must be positive")
    h = np.asarray(h, dtype=np.float64)
    dmu2 = (np.asarray(mu_rho, dtype=np.float64)
            - np.asarray(mu_pi, dtype=np.float64)) ** 2
    degenerate = (h < FISHER_FLOOR) | (dmu2 < DELTA_MU_FLOOR)
    h = np.maximum(h, FISHER_FLOOR)
    dmu2 = np.maximum(dmu2, DELTA_MU_FLOOR)
    root = np.sqrt(h * h + 4.0 * beta * h / dmu2)
    sigma_rho = 2.0 * beta / (h + root)
    sigma_pi = 2.0 * beta / (lam * (root - h))
    return JointOptimalResult(sigma_rho=sigma_rho, sigma_pi=sigma_pi,
                              n_floored=int(degenerate.sum()))


def check_vi_settings(epochs: int, batch_size: int, lr: float) -> None:
    """Reject a VI schedule that takes no step (fewer than 1 epoch or a
    batch size below 1) or that climbs the surrogate (lr <= 0)."""
    if epochs < 1:
        raise ValueError(f"vi_epochs must be at least 1; got {epochs}")
    if batch_size < 1:
        raise ValueError(f"vi_batch_size must be at least 1; got {batch_size}")
    if not lr > 0:
        raise ValueError(f"vi_lr must be positive; got {lr}")


@dataclass
class VIResult:
    posterior: DiagGaussian
    surrogate_value: float


def vi_optimize_log_sigma(grad_fn, theta_star: np.ndarray, lam: float,
                          kl_weight: float, epochs: int,
                          steps_per_epoch: int, seed: int,
                          lr: float) -> np.ndarray:
    """Reparameterized Adam on posterior log-variances, mean held fixed.

    `grad_fn(theta, epoch, step)` returns the loss gradient at a sampled
    theta.  The analytic KL gradient against the isotropic prior is added
    with weight `kl_weight`.  The step size at step t is lr / (1 + 0.01 t),
    and the result is the mean of the last 40% of the iterates, which damps
    the single-draw gradient noise.  Returns the optimized log-variances.

    The step loop runs on one BLAS thread (see `pbcert.blas`): a mini-batch
    product saves little wall time on a second core, whose worker then
    spins through the rest of the step, and the result is then the same on
    every host.
    """
    # steps_per_epoch is at least 1 exactly when the batch size is
    check_vi_settings(epochs, steps_per_epoch, lr)
    d = theta_star.shape[0]
    log_sigma = np.full(d, np.log(lam))
    m1 = np.zeros(d)
    m2 = np.zeros(d)
    b1, b2, eps = 0.9, 0.999, 1e-8
    decay, tail = 0.01, 0.4
    t = 0
    total = epochs * steps_per_epoch
    tail_sum = np.zeros(d)
    tail_count = 0
    noise_rng = rng_for(seed, "vi-noise")
    with single_threaded():
        for epoch in range(epochs):
            for step in range(steps_per_epoch):
                sigma = np.exp(log_sigma)
                sqrt_sigma = np.sqrt(sigma)
                z = noise_rng.standard_normal(d)
                theta = theta_star + sqrt_sigma * z
                g_theta = grad_fn(theta, epoch, step)
                if not np.all(np.isfinite(g_theta)):
                    raise FloatingPointError("VI gradient diverged")
                g_log_sigma = g_theta * z * 0.5 * sqrt_sigma
                g_log_sigma += kl_weight * 0.5 * (sigma / lam - 1.0)
                t += 1
                m1 = b1 * m1 + (1 - b1) * g_log_sigma
                m2 = b2 * m2 + (1 - b2) * g_log_sigma ** 2
                step_size = lr / (1.0 + decay * t)
                log_sigma -= step_size * (m1 / (1 - b1 ** t)) / (
                    np.sqrt(m2 / (1 - b2 ** t)) + eps)
                if t > (1.0 - tail) * total:
                    tail_sum += log_sigma
                    tail_count += 1
    # at least one step was taken, and the last one is always in the tail
    return tail_sum / tail_count


def vi_optimize_diag(spec: NetSpec, theta_star: np.ndarray,
                     theta0: np.ndarray, data, beta: float, lam: float,
                     epochs: int, seed: int, *, batch_size: int, lr: float,
                     delta: float) -> VIResult:
    """Optimize diagonal posterior variances by reparameterized SGD on the
    bound surrogate E[loss] + (KL + ln(1/delta)) / (beta n), with the
    categorical loss and the prior N(theta0, lambda I).

    The posterior mean stays fixed at theta_star; only log-variances move.
    One shared noise draw per mini-batch (plain reparameterization).
    Deterministic given the seed.
    """
    if lam <= 0 or beta <= 0:
        raise ValueError("beta and lambda must be positive")
    check_vi_settings(epochs, batch_size, lr)
    X, y = np.asarray(data.X, dtype=np.float64), np.asarray(data.y)
    n = X.shape[0]
    d = theta_star.shape[0]
    kl_weight = 1.0 / (beta * n)
    shuffle_rng = rng_for(seed, "vi-shuffle")
    batches = []
    steps_per_epoch = (n + batch_size - 1) // batch_size
    for _ in range(epochs):
        order = shuffle_rng.permutation(n)
        batches.append([order[s:s + batch_size]
                        for s in range(0, n, batch_size)])

    def grad_fn(theta, epoch, step):
        idx = batches[epoch][step]
        return nnet_grad(spec, theta, X[idx], y[idx], "categorical")

    log_sigma = vi_optimize_log_sigma(grad_fn, theta_star, lam, kl_weight,
                                      epochs, steps_per_epoch, seed, lr)
    posterior = DiagGaussian(theta_star, log_sigma)
    # MC estimate of the achieved surrogate with a fixed evaluation draw
    eval_rng = rng_for(seed, "vi-eval")
    theta_eval = (theta_star
                  + np.sqrt(posterior.variance) * eval_rng.standard_normal(d))
    kl = kl_diag(posterior, DiagGaussian.isotropic(theta0, lam))
    value = (nnet_loss("categorical", forward(spec, theta_eval, X).outputs, y)
             + kl_weight * (kl + np.log(1.0 / delta)))
    return VIResult(posterior=posterior, surrogate_value=float(value))


def skfac_posterior(spec: NetSpec, theta_star: np.ndarray, curvature: list,
                    beta: float, lam: float) -> BlockGaussian:
    """Per-neuron block posterior from shared layer Hessians.

    `curvature` holds each layer Hessian's eigendecomposition (`LayerEig`,
    from `curvature.all_block_hessians`).  Each block covariance is
    beta * (H_i + (beta/lambda) I)^-1 = U diag(s) U', with the eigenvectors
    U and s = closed_form_posterior(eigvals) for every neuron; the posterior
    keeps that form, so sweeping lambda costs one vector per layer.
    """
    variances = [np.tile(closed_form_posterior(eig.eigvals, beta, lam), (rows, 1))
                 for eig, (rows, _) in zip(curvature, spec.layer_shapes)]
    return BlockGaussian(theta_star, np.log(spec.to_vector(variances)),
                         tuple(eig.eigvecs for eig in curvature), spec)
