"""Minimal feedforward network: forward pass, losses, backprop, trainers.

Bias-free fully connected layers with rectifier hidden activations.  The
forward pass exposes every intermediate activation because the curvature
module consumes them.  Training is deterministic given a seed and records
the initialization, which later serves as a data-independent prior center.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from pbcert.blas import single_threaded
from pbcert.rng import rng_for

LOSS_KINDS = ("zero_one", "categorical", "mse")
OPTIMIZERS = ("sgd", "adam")


class ShapeMismatchError(ValueError):
    pass


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class NetSpec:
    """Layer widths [d_in, hidden..., d_out]; rectifier hidden layers and a
    linear output layer (softmax is applied by the categorical loss)."""

    widths: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 3:
            raise ValueError("need at least one hidden layer")
        if any(w <= 0 for w in widths):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "widths", widths)

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def layer_shapes(self) -> list:
        return [(self.widths[i + 1], self.widths[i]) for i in range(self.n_layers)]

    @property
    def n_params(self) -> int:
        return sum(r * c for r, c in self.layer_shapes)

    def to_matrices(self, theta: np.ndarray) -> list:
        """Per-layer weight matrices of the flat parameter vector theta.
        Layout is neuron-major: layer 0 neuron 0 row first."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise ShapeMismatchError(
                f"expected {self.n_params} parameters, got {theta.shape}"
            )
        matrices = []
        start = 0
        for rows, cols in self.layer_shapes:
            matrices.append(theta[start:start + rows * cols].reshape(rows, cols))
            start += rows * cols
        return matrices

    def to_vector(self, matrices) -> np.ndarray:
        return np.concatenate([np.asarray(w, dtype=np.float64).ravel() for w in matrices])


@dataclass
class ForwardPass:
    """All intermediate quantities: activations[i] feeds layer i + 1."""

    activations: list   # [A_0 = X, A_1, ..., A_l]; A_l are raw outputs
    preactivations: list  # [S_1, ..., S_l]

    @property
    def outputs(self) -> np.ndarray:
        return self.activations[-1]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _inputs(spec: NetSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.widths[0]:
        raise ShapeMismatchError(
            f"input width {X.shape} incompatible with spec widths {spec.widths}"
        )
    return X


def forward(spec: NetSpec, theta: np.ndarray, X: np.ndarray) -> ForwardPass:
    X = _inputs(spec, X)
    weights = spec.to_matrices(theta)
    activations = [X]
    preacts = []
    for i, W in enumerate(weights):
        S = activations[-1] @ W.T
        preacts.append(S)
        activations.append(relu(S) if i < len(weights) - 1 else S)
    return ForwardPass(activations, preacts)


def later_layers(A1: np.ndarray, weights) -> np.ndarray:
    """Raw outputs of the layers after the first, given the first layer's
    activations A1 and the weight matrices of the later layers.

    Each hidden layer's rectifier runs in place on its fresh product, so
    one activation array per layer is alive at a time; A1 is not written.
    """
    A = A1
    for W in weights[:-1]:
        A = A @ W.T
        np.maximum(A, 0.0, out=A)
    return A @ weights[-1].T


# Draws whose first-layer weights share one product, and rows of X per
# product (one more in a block that takes a 1-row remainder).  At the desk
# shape (h1 = 100) one preactivation block is 1024 x 800 float64 = 6.6 MB,
# against 63 MB for a 10k x 784 X.
_DRAW_GROUP = 8
_ROW_BLOCK = 1024


def zero_one_errors(spec: NetSpec, thetas, X: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """01-error on (X, y) of each parameter vector the iterable `thetas` yields.

    The first-layer weights of up to _DRAW_GROUP thetas are stacked into one
    (G*h1 x d) matrix, so each row block of X passes through BLAS once per
    group instead of once per theta, and each theta's later layers run on
    its column slice of the block.  The row blocks are split over a thread
    pool, one worker per CPU this process may use, each with its own
    preactivation buffer; the per-theta error counts are summed as integers.
    The function runs on one BLAS thread (`blas.single_threaded`); where no
    OpenBLAS control is found, the pool has one worker, so a BLAS that
    threads its own products is not oversubscribed.

    Under one BLAS thread the result equals
    `loss("zero_one", forward(spec, theta, X).outputs, y)` per theta bit for
    bit, for a fixed BLAS build: every entry of a product is the same
    length-d dot product in both layouts, and OpenBLAS sums it in an order
    that depends neither on the row count nor on the column count, except
    that a 1-row product takes the matrix-vector path, whose bits differ
    (1 to 39 rows were checked).  So a 1-row remainder joins the block
    before it, and neither the grouping nor the number of workers changes
    a byte; the tests pin this on the desk shape.  `thetas` is read
    one group at a time on the calling thread, so a generator of posterior
    draws is never held in memory whole.
    """
    X = _inputs(spec, X)
    y = np.asarray(y)
    if np.any(y < 0) or np.any(y >= spec.widths[-1]):
        raise ValueError(f"labels out of range [0, {spec.widths[-1]})")
    h1 = spec.widths[1]
    n = X.shape[0]
    # no block boundary at n - 1, so a 1-row remainder joins the block before
    ends = [*range(_ROW_BLOCK, n - 1, _ROW_BLOCK), n]
    blocks = list(zip([0, *ends[:-1]], ends))
    thetas = iter(thetas)
    wrong = []
    with single_threaded() as pinned:
        workers = min(len(os.sched_getaffinity(0)) if pinned else 1, len(blocks))
        # one buffer per worker keeps the peak at one block a worker
        buffers = [np.empty(min(n, _ROW_BLOCK + 1) * _DRAW_GROUP * h1)
                   for _ in range(workers)]

        def count_wrong(worker, group, W1):
            """Errors of each theta of `group` on the row blocks of `worker`."""
            counts = [0] * len(group)
            for start, end in blocks[worker::workers]:
                X_block = X[start:end]
                A1 = buffers[worker][:X_block.shape[0] * W1.shape[0]].reshape(
                    X_block.shape[0], W1.shape[0])
                np.matmul(X_block, W1.T, out=A1)
                np.maximum(A1, 0.0, out=A1)
                labels = y[start:end]
                for g, weights in enumerate(group):
                    outputs = later_layers(A1[:, g * h1:(g + 1) * h1], weights[1:])
                    counts[g] += int(np.count_nonzero(
                        np.argmax(outputs, axis=1) != labels))
            return counts

        with ThreadPoolExecutor(workers) as pool:
            while group := [spec.to_matrices(theta)
                            for theta in itertools.islice(thetas, _DRAW_GROUP)]:
                W1 = np.concatenate([weights[0] for weights in group])
                counts = pool.map(count_wrong, range(workers),
                                  [group] * workers, [W1] * workers)
                wrong.extend(map(sum, zip(*counts)))
    return np.array(wrong, dtype=np.float64) / n


def one_hot(y: np.ndarray, k: int) -> np.ndarray:
    y = np.asarray(y)
    if np.any(y < 0) or np.any(y >= k):
        raise ValueError(f"labels out of range [0, {k})")
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def loss(kind: str, outputs: np.ndarray, labels: np.ndarray) -> float:
    """Mean batch loss.  zero_one returns the 01-error (1 - accuracy)."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    outputs = np.asarray(outputs, dtype=np.float64)
    k = outputs.shape[1]
    Y = one_hot(labels, k)      # rejects labels outside [0, k)
    if kind == "zero_one":
        return float(np.mean(np.argmax(outputs, axis=1) != np.asarray(labels)))
    if kind == "categorical":
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-np.mean(np.sum(Y * log_probs, axis=1)))
    # mse on raw outputs against one-hot targets, averaged over classes
    return float(np.mean(np.sum((outputs - Y) ** 2, axis=1) / k))


def grad(spec: NetSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray,
         kind: str) -> np.ndarray:
    """Reverse-mode gradient of the mean batch loss with respect to theta."""
    if kind == "zero_one":
        raise ValueError("zero_one loss is not differentiable")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    fp = forward(spec, theta, X)
    n, k = fp.outputs.shape
    Y = one_hot(y, k)
    if kind == "categorical":
        delta = (softmax(fp.outputs) - Y) / n
    else:
        delta = 2.0 * (fp.outputs - Y) / (k * n)
    weights = spec.to_matrices(theta)
    grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = delta.T @ fp.activations[i]
        if i > 0:
            delta = (delta @ weights[i]) * (fp.preactivations[i - 1] > 0)
    return spec.to_vector(grads)


@dataclass(frozen=True)
class TrainerConfig:
    # the [train] settings (defaults in config.SCHEMA), then Adam constants
    optimizer: str                # one of OPTIMIZERS
    lr: float
    momentum: float
    decay: float                  # lr_t = lr / (1 + decay * t)
    epochs: int
    batch_size: int
    loss: str
    init_gain: float
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-7


def check_train_settings(config: TrainerConfig) -> None:
    """Reject a trainer that trains nothing: an unknown optimizer, a loss
    with no gradient, fewer than 1 epoch, a batch size below 1 (no step),
    an lr <= 0 (no descent), a decay < 0 (lr/(1 + decay t) has a pole), a
    momentum outside [0, 1] (the velocity grows or flips sign each step) or
    an init gain of 0 (all weights and gradients 0); a negative gain trains."""
    if config.optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown train.optimizer {config.optimizer!r}"
                         f" (optimizers: {', '.join(OPTIMIZERS)})")
    if config.loss not in LOSS_KINDS or config.loss == "zero_one":
        trainable = [kind for kind in LOSS_KINDS if kind != "zero_one"]
        raise ValueError(f"train.loss {config.loss!r} cannot be trained"
                         f" (losses: {', '.join(trainable)})")
    if config.epochs < 1:
        raise ValueError(f"train.epochs must be at least 1; got {config.epochs}")
    if config.batch_size < 1:
        raise ValueError(f"train.batch_size must be at least 1; "
                         f"got {config.batch_size}")
    if not config.lr > 0:
        raise ValueError(f"train.lr must be positive; got {config.lr}")
    if not config.decay >= 0:
        raise ValueError(f"train.decay must be at least 0; got {config.decay}")
    if not 0.0 <= config.momentum <= 1.0:
        raise ValueError(f"train.momentum must lie in [0, 1]; "
                         f"got {config.momentum}")
    if config.init_gain == 0:
        raise ValueError("train.init_gain must not be 0")


@dataclass
class TrainRecord:
    spec: NetSpec
    config: TrainerConfig
    seed: int
    theta0: np.ndarray
    theta_star: np.ndarray
    final_train_error: float
    final_test_error: float = None


def init_params(spec: NetSpec, seed: int, gain: float) -> np.ndarray:
    """Gaussian fan-in-scaled initialization, deterministic given seed."""
    rng = rng_for(seed, "init")
    mats = [
        rng.standard_normal((rows, cols)) * (gain / np.sqrt(cols))
        for rows, cols in spec.layer_shapes
    ]
    return spec.to_vector(mats)


def train(spec: NetSpec, data, config: TrainerConfig, seed: int,
          test_data=None) -> TrainRecord:
    """Deterministic minibatch training; records theta0 before any update.
    Each epoch checks the weights are finite; theta* is evaluated once."""
    check_train_settings(config)
    X, y = np.asarray(data.X, dtype=np.float64), np.asarray(data.y)
    theta0 = init_params(spec, seed, config.init_gain)
    theta = np.array(theta0)
    velocity = np.zeros_like(theta)
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    shuffle_rng = rng_for(seed, "shuffle")
    n = X.shape[0]
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            g = grad(spec, theta, X[idx], y[idx], config.loss)
            step += 1
            lr = config.lr / (1.0 + config.decay * step)
            if config.optimizer == "sgd":
                velocity = config.momentum * velocity - lr * g
                theta = theta + velocity
            else:   # adam
                m1 = config.adam_beta1 * m1 + (1 - config.adam_beta1) * g
                m2 = config.adam_beta2 * m2 + (1 - config.adam_beta2) * g * g
                m1_hat = m1 / (1 - config.adam_beta1 ** step)
                m2_hat = m2 / (1 - config.adam_beta2 ** step)
                theta = theta - lr * m1_hat / (np.sqrt(m2_hat) + config.adam_eps)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(f"weights diverged at epoch {epoch}")
    outputs = forward(spec, theta, X).outputs
    if not np.all(np.isfinite(outputs)):
        raise DivergenceError(f"outputs diverged at epoch {config.epochs - 1}")
    train_err = loss("zero_one", outputs, y)
    test_err = None if test_data is None else loss(
        "zero_one", forward(spec, theta, test_data.X).outputs, test_data.y)
    return TrainRecord(
        spec=spec, config=config, seed=seed, theta0=theta0, theta_star=theta,
        final_train_error=train_err, final_test_error=test_err,
    )
