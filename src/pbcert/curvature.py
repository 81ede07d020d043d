"""Curvature estimation around the trained minimum.

Two estimators of the curvature of the mean loss, the scale the KL weight
1/(beta n) of the closed-form posteriors assumes: the exact diagonal Fisher
(generalised Gauss-Newton) of the categorical loss, and per-layer
activation outer-product Hessians shared by every neuron in a layer, with
the 2/n constant so that 1/2 eta' H eta equals the exact layerwise squared
preactivation error.

Also here: loss-landscape probing along random directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pbcert.nnet import (
    NetSpec,
    forward,
    later_layers,
    loss,
    one_hot,
    row_blocks,
    softmax,
)
from pbcert.rng import rng_for


@dataclass(frozen=True)
class LayerEig:
    """Eigendecomposition cache of one layer Hessian (descending order)."""

    eigvals: np.ndarray
    eigvecs: np.ndarray


def diag_fisher(spec: NetSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-weight h = (1/n) sum_i sum_c p_c [grad_theta log p_c(x_i)]^2, the
    diagonal of the Gauss-Newton matrix J'(diag p - p p')J of the mean loss.

    One backward pass per class c, its rows weighted by sqrt(p_c).  A
    per-sample weight gradient delta a' squares to delta^2 (a^2)', so the
    squared deltas are summed over the classes before one product per layer.
    """
    fp = forward(spec, theta, X)
    probs = softmax(fp.outputs)
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite model probabilities in the Fisher")
    n, k = probs.shape
    weights = spec.to_matrices(theta)
    squared_deltas = [0.0] * len(weights)
    for c in range(k):
        # sqrt(p_c) times the gradient of log p_c with respect to the logits
        delta = np.sqrt(probs[:, [c]]) * (one_hot(np.full(n, c), k) - probs)
        for i in range(len(weights) - 1, -1, -1):
            squared_deltas[i] = squared_deltas[i] + delta ** 2
            if i > 0:
                delta = (delta @ weights[i]) * (fp.preactivations[i - 1] > 0)
    return spec.to_vector([D.T @ (fp.activation(i) ** 2)
                           for i, D in enumerate(squared_deltas)]) / n


def block_hessians(spec: NetSpec, theta: np.ndarray, X: np.ndarray) -> list:
    """H_i = (2/n) sum_k a_{i-1}^k a_{i-1}^k' of every layer i, shared by all
    layer-i neurons, from one forward pass.  Each layer's activations are
    computed from the pass's preactivations as the layer is reached, so one
    of them is alive at a time."""
    fp = forward(spec, theta, X)
    return [(2.0 / A.shape[0]) * (A.T @ A)
            for A in map(fp.activation, range(spec.n_layers))]


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

    The first layer is linear in t: X (W1 + t V1)' = S + t X V1'.  So the
    probe runs one row block (`row_blocks`) at a time: the block's S from
    one forward pass at theta, its X V1' as one product P per direction,
    and per point only relu(S + t P) and the later layers, whose weights
    W + t dW are built for the point and block.  Each point's block of
    outputs goes into that point's n x k array, and the loss reads the
    whole array.  The losses equal a forward pass per point up to rounding,
    and at t = 0 those of `forward(spec, theta, X)` bit for bit.  The probe
    holds S, P, the point's first-layer activations and one later layer's
    for one block, four block x h1 arrays (h2 = h1 on the desk net), and
    every point's outputs: no n x h array.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    check_probe_settings(n_directions, t_grid, lambdas)
    rng = rng_for(seed, "landscape")
    d = theta.shape[0]
    directions = rng.standard_normal((n_directions, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    X, y = np.asarray(data.X, dtype=np.float64), np.asarray(data.y)
    later_star = spec.to_matrices(theta)[1:]
    outputs = np.empty((n_directions, t_grid.shape[0], X.shape[0],
                        spec.widths[-1]))

    def probe_block(rows):
        """Every point's outputs on X[rows]; the block's arrays die with
        the call, before the next block's pass."""
        X_block = X[rows]
        S = forward(spec, theta, X_block).preactivations[0]
        P = np.empty_like(S)
        A1 = np.empty_like(S)
        for i, direction in enumerate(directions):
            V = spec.to_matrices(direction)
            np.matmul(X_block, V[0].T, out=P)
            for j, t in enumerate(t_grid):
                np.multiply(P, t, out=A1)
                A1 += S
                np.maximum(A1, 0.0, out=A1)
                later = [W + t * dW for W, dW in zip(later_star, V[1:])]
                outputs[i, j, rows] = later_layers(A1, later)

    for rows in row_blocks(X.shape[0]):
        probe_block(rows)
    losses = np.array([[loss(loss_kind, point, y) for point in points]
                       for points in outputs])
    coeffs = np.empty((n_directions, 3))
    r2 = np.empty(n_directions)
    for i in range(n_directions):
        coeffs[i], r2[i] = _quadratic_fit(t_grid, losses[i])
    radii = {float(lam): float(np.sqrt(lam * d)) for lam in lambdas}
    return LandscapeProbe(directions=directions, t_grid=t_grid, losses=losses,
                          fit_coeffs=coeffs, fit_r2=r2, bubble_radii=radii)
