"""Shared fixtures (small trained networks and datasets) and oracles."""

import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from pbcert.blas import openblas_thread_controls, single_threaded
from pbcert.config import load_config
from pbcert.data import Dataset, synthetic_blobs
from pbcert.gaussians import DiagGaussian, kl_diag
from pbcert.nnet import NetSpec, TrainerConfig, forward, relu, softmax, train
from pbcert.rng import rng_for


BLAS_CONTROLS = openblas_thread_controls()


@pytest.fixture(autouse=True)
def blas_thread_count_restored():
    """Fail a test that leaves the process's BLAS thread count changed: a
    leaked pin would change the bits of every later test."""
    if BLAS_CONTROLS is None:
        yield
        return
    set_threads, get_threads = BLAS_CONTROLS
    before = get_threads()
    yield
    after = get_threads()
    if after != before:
        set_threads(before)
        pytest.fail(f"BLAS thread count left at {after}, was {before}")


def settings(section: str, **overrides) -> dict:
    """The default settings `pbcert` runs with, from `config.SCHEMA`, with
    `overrides` replacing some.  `section` is a config section, or "grid"
    for `RunConfig.grid_settings`; an override that is not one of its keys
    raises KeyError."""
    config = load_config()
    values = config.grid_settings if section == "grid" else config.values[section]
    unknown = set(overrides) - set(values)
    if unknown:
        raise KeyError(f"not {section} settings: {sorted(unknown)}")
    return {**values, **overrides}


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2,
                   image_magic=0x803, label_magic=0x801, truncate=0):
    """IDX image and label files in `tmp_path`; `truncate` drops that many
    bytes from the end of the images."""
    n = len(labels)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    body = struct.pack(">iiii", image_magic, n, rows, cols) + bytes(pixels)
    if truncate:
        body = body[:-truncate]
    images_path.write_bytes(body)
    labels_path.write_bytes(struct.pack(">ii", label_magic, n) + bytes(labels))
    return images_path, labels_path


@pytest.fixture(scope="session")
def blob_data():
    train_ds = synthetic_blobs(600, 12, 3, 4.0, seed=11, split="train")
    test_ds = synthetic_blobs(400, 12, 3, 4.0, seed=11, split="test")
    return train_ds, test_ds


@pytest.fixture(scope="session")
def trained_net(blob_data):
    train_ds, test_ds = blob_data
    spec = NetSpec((12, 10, 3))
    config = TrainerConfig(**settings("train", epochs=6, batch_size=64,
                                      lr=0.05))
    record = train(spec, train_ds, config, seed=11, test_data=test_ds)
    return spec, record


def random_theta(spec: NetSpec, seed: int, scale: float = 0.7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(spec.n_params)


# A net and row count whose full-batch passes run in four row blocks of 1250
# rows (`nnet.row_blocks`): one n x h array is 8 MB, one block x h array 2 MB.
BLOCKED_SPEC = NetSpec((10, 200, 200, 2))
BLOCKED_N = 5000
BLOCK_LAYER_BYTES = 1250 * 200 * 8


def blocked_data(seed: int):
    """BLOCKED_N rows of BLOCKED_SPEC's inputs, with labels."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((BLOCKED_N, BLOCKED_SPEC.widths[0])),
                   rng.integers(0, BLOCKED_SPEC.widths[-1], BLOCKED_N),
                   BLOCKED_SPEC.widths[-1])


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while fn() runs; fn runs once before,
    untraced, so what numpy loads lazily is not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def log_density(spec, theta, x, label):
    logits = forward(spec, theta, x[None, :]).outputs[0]
    shifted = logits - logits.max()
    return float(shifted[label] - np.log(np.exp(shifted).sum()))


def ggn_diag_oracle(spec, theta, X, step=1e-5):
    """Diagonal of the generalised Gauss-Newton matrix of the mean
    categorical loss, (1/n) sum_i sum_c p_c [d log p_c / d theta]^2, which
    equals diag J'(diag p - p p')J, with each log-density gradient taken by
    central differences."""
    probs = softmax(forward(spec, theta, X).outputs)
    oracle = np.zeros(spec.n_params)
    for s, x in enumerate(X):
        for c in range(probs.shape[1]):
            for i in range(spec.n_params):
                up, down = theta.copy(), theta.copy()
                up[i] += step
                down[i] -= step
                g = (log_density(spec, up, x, c)
                     - log_density(spec, down, x, c)) / (2 * step)
                oracle[i] += probs[s, c] * g ** 2
    return oracle / X.shape[0]


def vi_log_sigma_oracle(grad_fn, theta_star, lam, kl_weight, epochs,
                        steps_per_epoch, seed, lr):
    """`posteriors.vi_optimize_log_sigma` with its Adam written inline, as
    it was before `nnet.Adam` held the moments: the reference that the
    shared optimizer must equal bit for bit."""
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
    return tail_sum / tail_count


def random_rotated_gaussian(spec: NetSpec, mean, seed: int,
                            scale: float = 0.02) -> DiagGaussian:
    """A DiagGaussian over `spec` with a random orthogonal basis per layer
    (QR of a Gaussian matrix) and random basis variances in
    [scale/2, 2 scale]."""
    rng = np.random.default_rng(seed)
    bases, variances = [], []
    for rows, cols in spec.layer_shapes:
        bases.append(np.linalg.qr(rng.standard_normal((cols, cols)))[0])
        s = scale * np.exp(rng.uniform(np.log(0.5), np.log(2.0), cols))
        variances.append(np.tile(s, (rows, 1)))
    return DiagGaussian(mean, np.log(spec.to_vector(variances)),
                        tuple(bases), spec)


def block_covariances(q: DiagGaussian) -> list:
    """Each layer's dense block covariance U diag(s) U', read from the
    basis variances of the layer's first neuron."""
    return [(U * np.exp(logv[0])) @ U.T for logv, U in
            zip(q.spec.to_matrices(q.log_variance), q.bases)]


def quadratic_objective_diag(h, sigma_rho, beta: float, lam: float,
                             mu_rho, mu_pi, sigma_pi=None) -> float:
    """Developed quadratic objective 1/2 sum(h sigma) + beta KL for
    diagonal posterior and prior N(mu_pi, lambda sigma_pi)."""
    h = np.asarray(h, dtype=np.float64)
    sigma_rho = np.asarray(sigma_rho, dtype=np.float64)
    sigma_pi = np.ones_like(h) if sigma_pi is None else np.asarray(sigma_pi)
    q = DiagGaussian.from_variance(mu_rho, sigma_rho)
    p = DiagGaussian.from_variance(mu_pi, lam * sigma_pi)
    return float(0.5 * np.sum(h * sigma_rho) + beta * kl_diag(q, p))


def quadratic_objective_block(hessians, block_covs, spec: NetSpec,
                              beta: float, lam: float, mu_rho, mu_pi) -> float:
    """Blockwise quadratic objective against an isotropic prior: the sum
    over (layer, neuron) of 1/2 tr(H_i Sigma_i) + beta KL(block ||
    N(., lambda I)), with dense per-layer covariances Sigma_i."""
    gaps = spec.to_matrices(np.asarray(mu_rho, dtype=np.float64)
                            - np.asarray(mu_pi, dtype=np.float64))
    total = 0.0
    for H, cov, gap in zip(hessians, block_covs, gaps):
        k = H.shape[0]
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError("block covariance must be PD")
        quad = 0.5 * float(np.trace(H @ cov))
        kl_const = 0.5 * (float(np.trace(cov)) / lam - k
                          + k * np.log(lam) - logdet)
        for dmu in gap:
            total += quad + beta * (kl_const + 0.5 * float(dmu @ dmu) / lam)
    return total


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
