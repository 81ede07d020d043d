"""Minimal feedforward network: forward pass, losses, backprop, trainers.

Bias-free fully connected layers with rectifier hidden activations.  The
forward pass keeps every layer's preactivation, from which backprop and
the curvature module read each layer's activations.  Training is
deterministic given a seed and records the initialization, which later
serves as a data-independent prior center.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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
    """A pass's input and every layer's preactivation S_i; the last one is
    the raw outputs.  A hidden layer's activation relu(S_i) is not kept:
    `activation` computes it when it is read, so a pass holds one n x h
    array per layer."""

    inputs: np.ndarray      # A_0 = X
    preactivations: list    # [S_1, ..., S_l]; S_l are the raw outputs

    @property
    def outputs(self) -> np.ndarray:
        return self.preactivations[-1]

    def activation(self, i: int) -> np.ndarray:
        """A_i, the input to layer i + 1: X for i = 0, else a fresh
        relu(S_i)."""
        return self.inputs if i == 0 else relu(self.preactivations[i - 1])


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
    """The pass of X through the net with flat weights theta.  Each hidden
    activation is a temporary that dies with its product, so besides X the
    pass peaks at its preactivations plus one activation: three n x h
    arrays with two hidden layers, where keeping the activations took four."""
    X = _inputs(spec, X)
    weights = spec.to_matrices(theta)
    preacts = [X @ weights[0].T]
    for W in weights[1:]:
        preacts.append(relu(preacts[-1]) @ W.T)
    return ForwardPass(X, preacts)


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


# Draws whose first-layer weights share one product, and the least rows of
# X per product of a full-batch pass (`row_blocks`).
_DRAW_GROUP = 8
_ROW_BLOCK = 1024
# Rows of X per product of the MC screen (`zero_one_errors`).  At the desk
# shape (h1 = 100) one block's float32 preactivations are 512 x 800 x 4
# bytes = 1.6 MB and its float32 rows of X 1.6 MB, against 63 MB for a
# 10k x 784 X.  It may be shorter than _ROW_BLOCK: a row block must keep
# `forward`'s bits, but the screen's are only bounded, never trusted.  At
# 256 rows the MC products cost 15-20% more CPU.
_SCREEN_BLOCK = 512


def row_blocks(n: int) -> list:
    """Slices of near-equal contiguous row blocks covering range(n), each
    of at least min(n, _ROW_BLOCK) rows, so under 2 * _ROW_BLOCK rows make
    one block.  A full-batch pass whose results are per row runs block by
    block and holds block x h arrays, not n x h ones.  A row of a product
    has the same bits in a block as in the whole: no block is so short
    that OpenBLAS takes its small-matrix or matrix-vector kernel, whose
    sums differ (see `zero_one_errors`)."""
    count = max(1, n // _ROW_BLOCK)
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


# Unit roundoff of float64, in which `forward` runs.  _SLACK covers the
# rounding in evaluating a bound itself.
_U64 = 2.0 ** -53
_SLACK = 1 + 2.0 ** -20


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = nu / (1 - nu): |fl(a'b) - a'b| <= gamma_n |a|'|b|
    for a length-n dot product in any summation order, with or without
    FMA.  Infinite where nu is too large for the bound to be of use."""
    return n * u / (1 - n * u) if n * u < 0.25 else np.inf


def _norm_slack(n: int, u: float, tiny: float) -> tuple:
    """(rho, tau) such that |a| <= rho r + tau for a length-n vector a,
    where r is the square root of its sum of squares, both taken in unit
    roundoff u, underflow adding at most `tiny` per term."""
    return np.sqrt(1 + 2 * _gamma(n + 1, u)) * (1 + 2 * u), np.sqrt(n * tiny)


def _norms(A: np.ndarray) -> np.ndarray:
    """2-norms along the last axis of A, summed in A's dtype."""
    return np.sqrt(np.einsum("...i,...i->...", A, A))


def _top_two(outputs: np.ndarray) -> tuple:
    """Along the last axis: the argmax, and the largest output minus the
    second largest, in float64."""
    k = outputs.shape[-1]
    if k == 1:
        return np.zeros(outputs.shape[:-1], int), np.full(outputs.shape[:-1], np.inf)
    if k == 2:   # argmax and partition are slow along an axis of 2
        first, second = outputs[..., 0], outputs[..., 1]
        return second > first, np.abs(np.subtract(second, first, dtype=np.float64))
    top = np.partition(outputs, -2, axis=-1)[..., -2:].astype(np.float64)
    return np.argmax(outputs, axis=-1), top[..., 1] - top[..., 0]


class _Bound(NamedTuple):
    """The error bound of a pass, per theta of a group (leading axis G).
    With r_l the `_norms` of the rows of the pass's input to layer l, every
    output of the pass is within r @ slopes + intercept of `forward`'s, and
    no sum of the pass overflows, where r <= limits."""
    slopes: np.ndarray          # G x L
    intercept: np.ndarray       # G
    limits: np.ndarray          # G x L


def _row_stats(W: np.ndarray) -> tuple:
    """Of weights W (h x n, or stacked G x h x n): the 2-norm of each row
    and the largest |weight| (of each matrix).  The largest is taken
    without a |W| temporary: at the desk shape one is 5 MB, which showed in
    desk-mc certify's peak RSS."""
    return _norms(W), np.maximum(W.max(axis=(-2, -1)), -W.min(axis=(-2, -1)))


def _bound(first: tuple, later, widths, dtype) -> _Bound:
    """The `_Bound` of a pass in `dtype` (float32 or float64) through L
    layers: `first` is the `_row_stats` of the thetas' first layers (G x
    h1 and G), `later` stacks their weights of each later layer.  A float32
    pass rounds X and the weights to float32, a float64 pass takes them as
    they are.

    With u the pass's unit roundoff, r = 1 if it rounds its inputs (else 0)
    and t four times its smallest normal number (so flush-to-zero is
    covered), a layer of fan-in n with weight row w and input a, the error
    carried in being e, is off by at most (gamma_{n+r}(u) + gamma_n(2^-53))
    |w| |a| + (1 + gamma_n(2^-53)) |w|'e + n t (1 + |a|): rounding w and the
    pass's own sums, then `forward`'s, then underflow in either.  ReLU
    passes the error on, so an output's error is a sum over layers of |a|
    times a per-theta vector through the later layers' |W|: P and Q below.
    Layer 1 is read only through its row norms and largest |weight|."""
    info = np.finfo(dtype)
    u, tiny, top = float(info.eps) / 2, 4 * float(info.tiny), float(info.max)
    rounds = int(u > _U64)
    stats = [first, *map(_row_stats, later)]
    G, L, k, d = first[0].shape[0], len(stats), widths[-1], widths[0]
    slopes, intercept = np.empty((L, G, k)), np.zeros((G, k))
    limits = np.empty((G, L))
    B = np.broadcast_to(np.eye(k), (G, k, k))   # later |W|, times 1 + gamma
    for layer in reversed(range(L)):
        (norms, largest), n = stats[layer], widths[layer]
        rho, tau = _norm_slack(n, _U64, tiny)
        w = rho * norms + tau               # G x h, each row's norm rounded up
        # r <= max / 16 / max |w| keeps every partial sum (<= 1.01 |w| |a|)
        # finite; a weight beyond the dtype's range rounds to inf
        limits[:, layer] = top / 16 / w.max(axis=1)
        limits[largest > top, layer] = 0.0
        P, Q = np.einsum("gkh,gh->gk", B, w), B.sum(axis=2)
        rho, tau = _norm_slack(n, u, tiny)  # |a| <= rho r + tau
        slope = (_gamma(n + rounds, u) + _gamma(n, _U64)) * P + n * tiny * Q
        slopes[layer] = rho * slope
        intercept += tau * slope + n * tiny * Q
        if layer:
            B = (1 + _gamma(n, _U64)) * (B @ np.abs(later[layer - 1]))
    if rounds:
        # rounding x: |x_r - x| <= gamma_1 |x_r| + t per entry, and
        # |W_1 (x_r - x)| <= |W_1| |x_r - x| row by row; P is layer 0's
        f = (1 + _gamma(d, _U64)) * P
        slopes[0] += f * _gamma(1, u) * rho
        intercept += f * (_gamma(1, u) * tau + np.sqrt(d) * tiny)
    return _Bound(slopes.max(axis=2).T * _SLACK,
                  intercept.max(axis=1) * _SLACK, limits)


class _Group(NamedTuple):
    """Up to _DRAW_GROUP thetas, laid out for `zero_one_errors`."""
    weights: list          # per theta, float64 matrices as `forward` uses them
    W1: np.ndarray         # first layers stacked in float32, G*h1 x d
    later: list            # per theta, float32 copies of weights[1:]
    bound32: _Bound        # of the float32 pass
    bound64: _Bound        # of a float64 pass


def _group(spec: NetSpec, thetas) -> _Group:
    """The group of `thetas`.  The first layers, the bulk of the weights,
    are copied once, theta by theta into the float32 stack; the bounds read
    them through their `_row_stats`, found once for both."""
    weights = [spec.to_matrices(theta) for theta in thetas]
    h1, d = spec.layer_shapes[0]
    W1 = np.empty((len(weights), h1, d), np.float32)
    for stacked, matrices in zip(W1, weights):
        stacked[...] = matrices[0]
    first = tuple(map(np.stack, zip(*(_row_stats(m[0]) for m in weights))))
    later = [np.stack(layer) for layer in zip(*(m[1:] for m in weights))]
    later32 = zip(*(layer.astype(np.float32) for layer in later))
    return _Group(weights, W1.reshape(-1, d),
                  [list(matrices) for matrices in later32],
                  _bound(first, later, spec.widths, np.float32),
                  _bound(first, later, spec.widths, np.float64))


def _decide(X_rows, W1, later, bound: _Bound, labels, out=None) -> tuple:
    """Which rows of a pass are proven to take `forward`'s argmax, per
    theta, and how many of those each theta gets wrong.

    The pass runs X_rows (float32 or float64) through G thetas: W1 stacks
    their first layers (G*h1 x d), and their products go to `out` if given;
    `later` holds each theta's later layers, in the same dtype, and `bound`
    their `_Bound`s.  Returns a rows x G mask and G counts."""
    A1 = np.matmul(X_rows, W1.T, out=out)
    np.maximum(A1, 0.0, out=A1)
    x_norms = _norms(X_rows)
    rows, G = A1.shape[0], len(later)
    A1 = A1.reshape(rows, G, -1)
    slopes, limits = bound.slopes, bound.limits
    norms = _norms(A1)
    error = (x_norms[:, None] * slopes[:, 0] + norms * slopes[:, 1]
             + bound.intercept)                                     # rows x G
    fits = (x_norms[:, None] <= limits[:, 0]) & (norms <= limits[:, 1])
    outputs = np.empty((rows, G, later[0][-1].shape[0]), A1.dtype)
    for g, weights in enumerate(later):
        A = A1[:, g]
        for layer, W in enumerate(weights[:-1], start=2):
            A = A @ W.T
            np.maximum(A, 0.0, out=A)
            norms = _norms(A)
            error[:, g] += norms * slopes[g, layer]
            fits[:, g] &= norms <= limits[g, layer]
        outputs[:, g] = A @ weights[-1].T
    argmax, gap = _top_two(outputs)
    sure = fits & (gap > 2 * error)
    return sure, np.count_nonzero(sure & (argmax != labels[:, None]), axis=0)


def _forward_wrong(weights, X, y, rows) -> int:
    """Errors among X[rows] of `forward`'s own products, run on each
    `row_blocks` block that holds one of the rows, whose bits are those of
    a pass over the whole of X."""
    wrong = 0
    for block in row_blocks(X.shape[0]):
        local = rows[(rows >= block.start) & (rows < block.stop)] - block.start
        if local.size:
            A1 = X[block] @ weights[0].T
            np.maximum(A1, 0.0, out=A1)
            outputs = later_layers(A1, weights[1:])[local]
            wrong += np.count_nonzero(np.argmax(outputs, axis=1)
                                      != y[block][local])
    return int(wrong)


def zero_one_errors(spec: NetSpec, thetas, X: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """01-error on (X, y) of each parameter vector the iterable `thetas` yields.

    Equal, per theta, to `loss("zero_one", forward(spec, theta, X).outputs,
    y)` under one BLAS thread, bit for bit, for a BLAS that computes each
    entry of a product as a classical dot product (sums in any order, with
    or without FMA).  `thetas` is read one group of _DRAW_GROUP at a time
    on the calling thread, so a generator of draws is never held whole.

    Only each row's argmax is kept, so rows are decided in float32 first.
    A group's first layers are stacked into one float32 (G*h1 x d) matrix,
    so each block of _SCREEN_BLOCK rows of X, rounded to float32 in a
    per-worker buffer, takes one product per group; each theta's later
    layers run in float32 on its column slice.  The blocks are split over a
    thread pool, one worker per CPU this process may use, each on one BLAS
    thread (`blas.single_threaded`; where no OpenBLAS control is found the
    pool has one worker, so a BLAS that threads its own products is not
    oversubscribed).

    The screen.  Per row, E bounds the distance between the float32 outputs
    and `forward`'s at every output (`_bound`): a length-n dot product is
    off by at most gamma_n |a|'|b| (Higham), gamma_n = nu/(1 - nu), with
    u = 2^-24 in float32 and 2^-53 in float64, and rounding X and W adds u
    per factor; ReLU is 1-Lipschitz; Cauchy-Schwarz bounds |W_i|'|a| by
    |W_i| |a|, so E sums rank-one terms, the norm of the row's input to a
    layer times a vector found once per theta, and needs no second n x d
    product; a term per product covers underflow.  A row counts in float32
    if its norms rule out an overflow and its top-two gap exceeds 2E:
    `forward`'s largest output is then the same one, strictly.

    The recheck.  The other rows (2% of a trained desk net's iso draws at
    lambda = 0.001, 10% at 0.003) run in float64, under the same bound
    with u = 2^-53 and nothing rounded.  A worker gathers each theta's
    rows over its blocks into its buffer, a block's worth at most per
    product, so the cost follows the number of rows rather than of blocks.
    A product of so few rows need not take `forward`'s BLAS kernel
    (OpenBLAS has a small-matrix kernel for up to 12 rows of 100 outputs
    or 600 rows of 2, and a matrix-vector one for 1 row), so its bits are
    bounded, not trusted; a row the float64 bound leaves open, a tie to a
    few ulps, takes `forward`'s own products on its `row_blocks` block
    (`_forward_wrong`).  So neither the grouping nor the number of workers
    changes a byte.
    """
    X = _inputs(spec, X)
    y = np.asarray(y)
    if np.any(y < 0) or np.any(y >= spec.widths[-1]):
        raise ValueError(f"labels out of range [0, {spec.widths[-1]})")
    n, d = X.shape
    h1 = spec.widths[1]
    blocks = [(start, min(start + _SCREEN_BLOCK, n))
              for start in range(0, n, _SCREEN_BLOCK)]
    thetas = iter(thetas)
    wrong = []
    # an inf or a nan in a pass only sends its row on to the next pass
    with single_threaded() as pinned, np.errstate(all="ignore"):
        workers = min(len(os.sched_getaffinity(0)) if pinned else 1, len(blocks))
        # per worker, a buffer for one block's float32 X and preactivations,
        # or for one block's worth of float64 rows of X to recheck.  The
        # buffers are made on this thread: glibc keeps what a worker frees
        # in that thread's own arena, and desk-mc certify's peak RSS was 172
        # MiB with the buffers made by the workers, 160 MiB with them made
        # here.
        block = min(n, _SCREEN_BLOCK)
        size = block * max(d + _DRAW_GROUP * h1, 2 * d)
        buffers = [np.empty(size + size % 2, np.float32) for _ in range(workers)]

        def count_wrong(worker, group):
            """Errors of each theta of `group` on the row blocks of `worker`
            that a float32 or a float64 pass decides, and the rows that
            neither does."""
            counts = np.zeros(len(group.weights), dtype=np.int64)
            pending = [[] for _ in group.weights]   # rows left to float64
            unsure = [[] for _ in group.weights]
            buffer = buffers[worker]

            def recheck(g):
                """Theta g's pending rows, gathered into the buffer, through
                the float64 pass."""
                rest = np.concatenate(pending[g])
                pending[g] = []
                X_rest = buffer.view(np.float64)[:rest.size * d].reshape(-1, d)
                np.take(X, rest, axis=0, out=X_rest, mode="clip")
                weights = group.weights[g]
                rest_sure, recount = _decide(
                    X_rest, weights[0], [weights[1:]],
                    _Bound(*(b[g:g + 1] for b in group.bound64)), y[rest])
                counts[g] += recount[0]
                if not rest_sure.all():
                    unsure[g].append(rest[~rest_sure[:, 0]])

            with np.errstate(all="ignore"):     # this thread's own state
                for start, end in blocks[worker::workers]:
                    rows = end - start
                    X_block = buffer[:rows * d].reshape(rows, d)
                    np.copyto(X_block, X[start:end], casting="same_kind")
                    products = buffer[rows * d:rows * (d + group.W1.shape[0])]
                    sure, block_counts = _decide(
                        X_block, group.W1, group.later, group.bound32,
                        y[start:end], products.reshape(rows, -1))
                    counts += block_counts
                    # a theta's unsure rows wait for a block's worth, so
                    # the float64 pass runs a few large products, not one
                    # small one per block
                    for g in np.flatnonzero(~sure.all(axis=0)):
                        rest = start + np.flatnonzero(~sure[:, g])
                        if sum(map(len, pending[g])) + rest.size > block:
                            recheck(g)
                        pending[g].append(rest)
                for g, rest in enumerate(pending):
                    if rest:
                        recheck(g)
            return counts, unsure

        with ThreadPoolExecutor(workers) as pool:
            while chunk := list(itertools.islice(thetas, _DRAW_GROUP)):
                group = _group(spec, chunk)
                results = list(pool.map(count_wrong, range(workers),
                                        [group] * workers))
                for g, weights in enumerate(group.weights):
                    count = int(sum(counts[g] for counts, _ in results))
                    tied = [rows for _, unsure in results for rows in unsure[g]]
                    if tied:
                        count += _forward_wrong(weights, X, y, np.concatenate(tied))
                    wrong.append(count)
                # the next group's draws are made once this one's are gone
                del chunk, group
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
        grads[i] = delta.T @ fp.activation(i)
        if i > 0:
            delta = (delta @ weights[i]) * (fp.preactivations[i - 1] > 0)
    return spec.to_vector(grads)


@dataclass(frozen=True)
class TrainerConfig:
    # exactly the [train] settings (defaults in config.SCHEMA)
    optimizer: str                # one of OPTIMIZERS
    lr: float
    momentum: float
    decay: float                  # lr_t = lr / (1 + decay * t)
    epochs: int
    batch_size: int
    loss: str
    init_gain: float


def check_schedule(prefix: str, epochs: int, batch_size: int, lr: float) -> None:
    """Reject a schedule with no step (epochs or batch size below 1) or no
    descent (lr <= 0); `prefix` ("train.", "posterior.vi_") names the keys."""
    if epochs < 1:
        raise ValueError(f"{prefix}epochs must be at least 1; got {epochs}")
    if batch_size < 1:
        raise ValueError(f"{prefix}batch_size must be at least 1; "
                         f"got {batch_size}")
    if not lr > 0:
        raise ValueError(f"{prefix}lr must be positive; got {lr}")


def check_train_settings(config: TrainerConfig) -> None:
    """Reject a trainer that trains nothing: an unknown optimizer, a loss
    with no gradient, a schedule `check_schedule` rejects, a decay < 0
    (lr/(1 + decay t) has a pole), a momentum outside [0, 1] (the velocity
    grows or flips sign each step) or an init gain of 0 (all weights and
    gradients 0); a negative gain trains."""
    if config.optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown train.optimizer {config.optimizer!r}"
                         f" (optimizers: {', '.join(OPTIMIZERS)})")
    if config.loss not in LOSS_KINDS or config.loss == "zero_one":
        trainable = [kind for kind in LOSS_KINDS if kind != "zero_one"]
        raise ValueError(f"train.loss {config.loss!r} cannot be trained"
                         f" (losses: {', '.join(trainable)})")
    check_schedule("train.", config.epochs, config.batch_size, config.lr)
    if not config.decay >= 0:
        raise ValueError(f"train.decay must be at least 0; got {config.decay}")
    if not 0.0 <= config.momentum <= 1.0:
        raise ValueError(f"train.momentum must lie in [0, 1]; "
                         f"got {config.momentum}")
    if config.init_gain == 0:
        raise ValueError("train.init_gain must not be 0")


def minibatches(rng: np.random.Generator, n: int, batch_size: int) -> list:
    """One epoch's batches of row indices: `rng.permutation(n)` cut into
    runs of batch_size, the last one short when batch_size does not divide n."""
    order = rng.permutation(n)
    return [order[start:start + batch_size] for start in range(0, n, batch_size)]


class Adam:
    """Adam's moment estimates for one parameter vector, shared by `train`
    and VI.  The caller counts steps: its step size and tail window read t."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, d: int):
        self.m1 = np.zeros(d)
        self.m2 = np.zeros(d)

    def update(self, g: np.ndarray, t: int, step_size: float) -> np.ndarray:
        """Step t's (from 1) bias-corrected update, to subtract from theta."""
        self.m1 = self.beta1 * self.m1 + (1 - self.beta1) * g
        self.m2 = self.beta2 * self.m2 + (1 - self.beta2) * g ** 2
        return step_size * (self.m1 / (1 - self.beta1 ** t)) / (
            np.sqrt(self.m2 / (1 - self.beta2 ** t)) + self.eps)


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


def _outputs(spec: NetSpec, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """`forward(spec, theta, X).outputs`, bit for bit, from one pass per
    `row_blocks` block."""
    X = _inputs(spec, X)
    outputs = np.empty((X.shape[0], spec.widths[-1]))
    for rows in row_blocks(X.shape[0]):
        outputs[rows] = forward(spec, theta, X[rows]).outputs
    return outputs


def train(spec: NetSpec, data, config: TrainerConfig, seed: int,
          test_data=None) -> TrainRecord:
    """Deterministic minibatch training; records theta0 before any update.
    Each epoch checks the weights are finite; theta* is evaluated once per
    split, one row block at a time (`row_blocks`), so the evaluation holds
    the n x k outputs and block x h arrays, no n x h one."""
    check_train_settings(config)
    X, y = np.asarray(data.X, dtype=np.float64), np.asarray(data.y)
    theta0 = init_params(spec, seed, config.init_gain)
    theta = np.array(theta0)
    velocity = np.zeros_like(theta)
    adam = Adam(theta.size)
    shuffle_rng = rng_for(seed, "shuffle")
    step = 0
    for epoch in range(config.epochs):
        for idx in minibatches(shuffle_rng, X.shape[0], config.batch_size):
            g = grad(spec, theta, X[idx], y[idx], config.loss)
            step += 1
            lr = config.lr / (1.0 + config.decay * step)
            if config.optimizer == "sgd":
                velocity = config.momentum * velocity - lr * g
                theta = theta + velocity
            else:   # adam
                theta = theta - adam.update(g, step, lr)
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(f"weights diverged at epoch {epoch}")
    outputs = _outputs(spec, theta, X)
    if not np.all(np.isfinite(outputs)):
        raise DivergenceError(f"outputs diverged at epoch {config.epochs - 1}")
    train_err = loss("zero_one", outputs, y)
    test_err = None if test_data is None else loss(
        "zero_one", _outputs(spec, theta, test_data.X), test_data.y)
    return TrainRecord(
        spec=spec, config=config, seed=seed, theta0=theta0, theta_star=theta,
        final_train_error=train_err, final_test_error=test_err,
    )
