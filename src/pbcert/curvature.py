"""Curvature estimation around the trained minimum.

Two estimators are provided: a diagonal Fisher approximation built from
squared gradients of the log model density at sampled labels (sum over
samples, no 1/n), and per-layer activation outer-product Hessians shared
by every neuron in a layer.  The layer Hessian uses the 2/n constant so
that 1/2 eta' H eta equals the exact layerwise squared preactivation
error; any constant rescaling is absorbed by the beta grid downstream.

Also here: loss-landscape probing along random directions and the
rectifier error-propagation diagnostics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from pbcert.nnet import (
    NetSpec,
    forward,
    later_layers,
    loss,
    one_hot,
    relu,
    softmax,
)
from pbcert.rng import rng_for


def _label_uniforms(seed: int, X: np.ndarray) -> np.ndarray:
    """One uniform variate per sample, keyed by the sample's content.

    Hashing the row bytes (rather than the row index) makes the sampled
    labels follow their samples: permuting the dataset permutes the labels,
    and duplicated samples draw identical labels, so the accumulated sums
    are order-invariant and exactly additive.
    """
    seed_bytes = (int(seed) % 2 ** 64).to_bytes(8, "little")
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        digest = hashlib.blake2b(seed_bytes + X[i].tobytes(),
                                 digest_size=8).digest()
        out[i] = int.from_bytes(digest, "little") / 2.0 ** 64
    return out


@dataclass(frozen=True)
class LayerEig:
    """Eigendecomposition cache of one layer Hessian (descending order)."""

    eigvals: np.ndarray
    eigvecs: np.ndarray


def diag_fisher(spec: NetSpec, theta: np.ndarray, X: np.ndarray,
                seed: int) -> np.ndarray:
    """Per-weight h = sum_i [grad_theta log p(y~_i | f(x_i))]^2 elementwise.

    One label is sampled from the model softmax per input; per-sample
    weight gradients are rank-one, so the squared sum is a single matrix
    product of squared factors per layer.
    """
    X = np.asarray(X, dtype=np.float64)
    fp = forward(spec, theta, X)
    probs = softmax(fp.outputs)
    k = probs.shape[1]
    cdf = np.cumsum(probs, axis=1)
    u = _label_uniforms(seed, X)
    sampled = (u[:, None] > cdf).sum(axis=1)
    # per-sample gradient of log p(sampled | x): delta_l = onehot - probs
    delta = one_hot(sampled, k) - probs
    if not np.all(np.isfinite(delta)):
        raise FloatingPointError("non-finite gradient in Fisher accumulation")
    weights = spec.to_matrices(theta)
    per_layer = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        per_layer[i] = (delta ** 2).T @ (fp.activations[i] ** 2)
        if i > 0:
            delta = (delta @ weights[i]) * (fp.preactivations[i - 1] > 0)
    return spec.to_vector(per_layer)


def block_hessians(spec: NetSpec, theta: np.ndarray, X: np.ndarray) -> list:
    """H_i = (2/n) sum_k a_{i-1}^k a_{i-1}^k' of every layer i, shared by all
    layer-i neurons, from one forward pass."""
    fp = forward(spec, theta, X)
    return [(2.0 / A.shape[0]) * (A.T @ A) for A in fp.activations[:-1]]


def all_block_hessians(spec: NetSpec, theta: np.ndarray, X: np.ndarray) -> list:
    """Eigendecomposition (`LayerEig`) of every layer's block Hessian."""
    eigs = []
    for H in block_hessians(spec, theta, X):
        vals, vecs = np.linalg.eigh(H)
        order = np.argsort(vals)[::-1]
        eigs.append(LayerEig(eigvals=vals[order], eigvecs=vecs[:, order]))
    return eigs


@dataclass
class LandscapeProbe:
    directions: np.ndarray       # (n_directions, d), unit rows
    t_grid: np.ndarray
    losses: np.ndarray           # (n_directions, len(t_grid))
    fit_coeffs: np.ndarray       # (n_directions, 3) quadratic coefficients
    fit_r2: np.ndarray
    bubble_radii: dict           # lambda -> sqrt(lambda * d)


def _quadratic_fit(t: np.ndarray, values: np.ndarray):
    coeffs = np.polyfit(t, values, 2)
    fitted = np.polyval(coeffs, t)
    ss_res = float(np.sum((values - fitted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return coeffs, r2


def check_probe_settings(n_directions: int, t_grid, lambdas) -> None:
    """Reject a probe with no direction, fewer than 3 distinct t values (a
    quadratic fit needs 3) or a lambda <= 0 (which has no bubble radius)."""
    if n_directions < 1:
        raise ValueError(f"n_directions must be at least 1; got {n_directions}")
    distinct = len(set(np.asarray(t_grid).tolist()))
    if distinct < 3:
        raise ValueError(f"the t grid has {distinct} distinct values; "
                         f"a quadratic fit needs at least 3")
    for lam in lambdas:
        if not lam > 0:
            raise ValueError(f"every lambda must be positive; got {lam}")


def landscape_probe(spec: NetSpec, theta: np.ndarray, data, n_directions: int,
                    t_grid, lambdas, seed: int, loss_kind: str) -> LandscapeProbe:
    """Loss curves L(theta + t v) along random unit directions, with
    per-direction least-squares quadratic fits.

    The first layer is linear in t: X (W1 + t V1)' = S + t X V1'.  So S is
    read from one forward pass at theta, X V1' is one product P per
    direction, and each point runs only relu(S + t P), the later layers and
    the loss.  The losses equal a forward pass per point up to rounding, and
    at t = 0 those of `forward(spec, theta, X)` bit for bit.  S, P, the
    point's first-layer activations and one later layer's take the place of
    a forward pass's S1, A1, S2 and A2, so with h2 >= h1 (as on the desk
    net) the probe holds no more than one forward pass.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    check_probe_settings(n_directions, t_grid, lambdas)
    rng = rng_for(seed, "landscape")
    d = theta.shape[0]
    directions = rng.standard_normal((n_directions, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    X, y = np.asarray(data.X, dtype=np.float64), np.asarray(data.y)
    S = forward(spec, theta, X).preactivations[0]
    P = np.empty_like(S)
    A1 = np.empty_like(S)
    later_star = spec.to_matrices(theta)[1:]
    losses = np.empty((n_directions, t_grid.shape[0]))
    for i, direction in enumerate(directions):
        V = spec.to_matrices(direction)
        np.matmul(X, V[0].T, out=P)
        for j, t in enumerate(t_grid):
            np.multiply(P, t, out=A1)
            A1 += S
            np.maximum(A1, 0.0, out=A1)
            later = [W + t * dW for W, dW in zip(later_star, V[1:])]
            losses[i, j] = loss(loss_kind, later_layers(A1, later), y)
    coeffs = np.empty((n_directions, 3))
    r2 = np.empty(n_directions)
    for i in range(n_directions):
        coeffs[i], r2[i] = _quadratic_fit(t_grid, losses[i])
    radii = {float(lam): float(np.sqrt(lam * d)) for lam in lambdas}
    return LandscapeProbe(directions=directions, t_grid=t_grid, losses=losses,
                          fit_coeffs=coeffs, fit_r2=r2, bubble_radii=radii)


@dataclass
class ErrorPropagationTrial:
    act_mse: np.ndarray          # per layer, single-layer perturbation
    preact_mse: np.ndarray       # per layer, single-layer perturbation
    accumulated: np.ndarray      # e~_i per layer, all layers perturbed
    accumulation_rhs: np.ndarray
    lipschitz_ok: bool           # act_mse <= preact_mse everywhere
    accumulation_ok: bool        # e~ <= accumulated rhs everywhere


@dataclass
class ErrorPropagationReport:
    trials: list
    all_ok: bool


def _rect_forward(weights, X):
    A = [np.asarray(X, dtype=np.float64)]
    for W in weights:
        A.append(relu(A[-1] @ W.T))
    return A


def error_propagation_check(spec: NetSpec, theta: np.ndarray, data,
                            scale: float, seed: int, n_trials: int = 1,
                            layers=None) -> ErrorPropagationReport:
    """Check rectifier error-propagation inequalities on bounded
    perturbations ||W_i - W*_i||_F <= scale.

    Uses the all-rectifier recurrence (the output layer is also passed
    through the rectifier), matching the setting of the inequalities:
      (a) per-layer activation MSE <= preactivation MSE,
      (b) accumulated error e~_{i} <= sum of propagated per-layer errors.

    `layers` restricts which layers are perturbed (default: all).
    """
    clean_w = spec.to_matrices(theta)
    X = np.asarray(data.X, dtype=np.float64)
    n = X.shape[0]
    A = _rect_forward(clean_w, X)
    rng = rng_for(seed, "error-prop")
    trials = []
    L = spec.n_layers
    perturb = set(range(L)) if layers is None else set(layers)
    for _ in range(n_trials):
        perturbed_w = []
        for i, W in enumerate(clean_w):
            dW = rng.standard_normal(W.shape)
            norm = np.linalg.norm(dW)
            target = scale * rng.random()
            if i not in perturb or norm == 0:
                perturbed_w.append(W)
            else:
                perturbed_w.append(W + (dW / norm) * target)
        # single-layer perturbations: hat quantities per layer
        act_mse = np.empty(L)
        preact_mse = np.empty(L)
        e_hat = np.empty(L)      # un-squared, (1/sqrt(n)) ||A - A^||_F
        for i in range(L):
            S_clean = A[i] @ clean_w[i].T
            S_hat = A[i] @ perturbed_w[i].T
            A_hat = relu(S_hat)
            act_mse[i] = np.sum((relu(S_clean) - A_hat) ** 2) / n
            preact_mse[i] = np.sum((S_clean - S_hat) ** 2) / n
            e_hat[i] = np.sqrt(act_mse[i])
        # full perturbed forward: accumulated errors
        A_tilde = _rect_forward(perturbed_w, X)
        e_tilde = np.array([
            np.linalg.norm(A[i + 1] - A_tilde[i + 1]) / np.sqrt(n)
            for i in range(L)
        ])
        w_norms = np.array([np.linalg.norm(W) for W in perturbed_w])
        rhs = np.empty(L)
        for i in range(L):
            total = e_hat[i]
            for t in range(i):
                total += np.prod(w_norms[t + 1:i + 1]) * e_hat[t]
            rhs[i] = total
        tol = 1e-9 * (1.0 + np.abs(rhs))
        trials.append(ErrorPropagationTrial(
            act_mse=act_mse, preact_mse=preact_mse,
            accumulated=e_tilde, accumulation_rhs=rhs,
            lipschitz_ok=bool(np.all(act_mse <= preact_mse + 1e-12)),
            accumulation_ok=bool(np.all(e_tilde <= rhs + tol)),
        ))
    return ErrorPropagationReport(
        trials=trials,
        all_ok=all(t.lipschitz_ok and t.accumulation_ok for t in trials),
    )
