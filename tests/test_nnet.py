"""Forward pass, losses, backprop, indexing, and training dynamics."""

import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from tests.conftest import random_block_gaussian, random_theta, settings
from pbcert.blas import single_threaded
from pbcert.gaussians import DiagGaussian, sample_gaussian
from pbcert.nnet import (
    _DRAW_GROUP,
    _ROW_BLOCK,
    DivergenceError,
    NetSpec,
    ShapeMismatchError,
    TrainerConfig,
    forward,
    grad,
    init_params,
    loss,
    one_hot,
    relu,
    softmax,
    train,
    zero_one_errors,
)


def naive_forward(spec, theta, X):
    """Independent loop-based oracle for the forward pass."""
    weights = spec.to_matrices(theta)
    outputs = np.empty((X.shape[0], spec.widths[-1]))
    for s in range(X.shape[0]):
        a = X[s]
        for i, W in enumerate(weights):
            z = np.array([W[r] @ a for r in range(W.shape[0])])
            a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        outputs[s] = a
    return outputs


class TestNetSpec:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            NetSpec((4, 2))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            NetSpec((4, 0, 2))

    def test_shape_bookkeeping(self):
        spec = NetSpec((5, 3, 2))
        assert spec.n_layers == 2
        assert spec.layer_shapes == [(3, 5), (2, 3)]
        assert spec.n_params == 15 + 6

    def test_round_trip(self):
        spec = NetSpec((4, 3, 2))
        theta = random_theta(spec, seed=0)
        assert np.array_equal(spec.to_vector(spec.to_matrices(theta)), theta)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatchError):
            NetSpec((4, 3, 2)).to_matrices(np.zeros(5))

    def test_neuron_major_layout(self):
        # layer 0's three rows of 4 weights, then layer 1's two rows of 3
        spec = NetSpec((4, 3, 2))
        theta = np.arange(spec.n_params, dtype=float)
        W0, W1 = spec.to_matrices(theta)
        for neuron in range(3):
            assert np.array_equal(W0[neuron], theta[4 * neuron:4 * neuron + 4])
        for neuron in range(2):
            assert np.array_equal(W1[neuron],
                                  theta[12 + 3 * neuron:12 + 3 * neuron + 3])


class TestForward:
    def test_identity_weights_rectify_input(self):
        spec = NetSpec((3, 3, 3))
        theta = spec.to_vector([np.eye(3), np.eye(3)])
        X = np.array([[1.0, -2.0, 0.5], [-1.0, -1.0, 3.0]])
        assert np.array_equal(forward(spec, theta, X).outputs, relu(X))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            widths = tuple(rng.integers(2, 6, size=rng.integers(3, 5)))
            spec = NetSpec(widths)
            theta = random_theta(spec, seed=trial)
            X = rng.standard_normal((7, widths[0]))
            fp = forward(spec, theta, X)
            assert np.allclose(fp.outputs, naive_forward(spec, theta, X),
                               atol=1e-12)

    def test_preactivation_neuron_alignment(self):
        spec = NetSpec((4, 3, 2))
        theta = random_theta(spec, seed=1)
        X = np.random.default_rng(2).standard_normal((6, 4))
        fp = forward(spec, theta, X)
        for layer, W in enumerate(spec.to_matrices(theta)):
            A_prev = fp.activations[layer]
            for neuron, w in enumerate(W):
                assert np.allclose(fp.preactivations[layer][:, neuron],
                                   A_prev @ w, atol=1e-12)

    def test_input_width_mismatch(self):
        spec = NetSpec((4, 3, 2))
        with pytest.raises(ShapeMismatchError):
            forward(spec, random_theta(spec, seed=0), np.zeros((2, 5)))


def per_draw_errors(spec, posterior, m, X, y):
    """Reference: one forward pass per posterior draw."""
    return np.array([
        loss("zero_one",
             forward(spec, sample_gaussian(posterior, seed=j), X).outputs, y)
        for j in range(m)
    ])


class TestZeroOneErrors:
    G = _DRAW_GROUP

    @pytest.mark.parametrize("m", [1, G - 1, G, G + 1, 2 * G + 3])
    @pytest.mark.parametrize("widths", [(12, 10, 3), (12, 9, 7, 3)])
    @pytest.mark.parametrize("family", ["diag", "block"])
    def test_equals_per_draw_forward(self, m, widths, family):
        spec = NetSpec(widths)
        rng = np.random.default_rng(m)
        n = _ROW_BLOCK + 37   # the last row block is a partial one
        X = rng.standard_normal((n, widths[0]))
        y = rng.integers(0, widths[-1], n)
        mean = random_theta(spec, seed=m)
        if family == "diag":
            posterior = DiagGaussian.isotropic(mean, 0.3)
        else:
            posterior = random_block_gaussian(spec, mean,
                                              seed=m)
        draws = (sample_gaussian(posterior, seed=j) for j in range(m))
        errors = zero_one_errors(spec, draws, X, y)
        assert np.array_equal(errors, per_draw_errors(spec, posterior, m, X, y))

    def test_desk_shape_is_bitwise(self):
        """784-100-100-2: the stacked first-layer product equals each draw's
        own product bit for bit, so the per-draw errors match exactly."""
        spec = NetSpec((784, 100, 100, 2))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((_ROW_BLOCK + 452, 784))
        y = rng.integers(0, 2, X.shape[0])
        posterior = DiagGaussian.isotropic(
            init_params(spec, seed=1, gain=settings("train")["init_gain"]), 1e-3)
        m = self.G + 1
        thetas = [sample_gaussian(posterior, seed=j) for j in range(m)]
        W1 = [spec.to_matrices(theta)[0] for theta in thetas]
        stacked = X[:_ROW_BLOCK] @ np.concatenate(W1[:self.G]).T
        for g, W in enumerate(W1[:self.G]):
            assert np.array_equal(stacked[:, g * 100:(g + 1) * 100],
                                  (X @ W.T)[:_ROW_BLOCK])
        errors = zero_one_errors(spec, thetas, X, y)
        assert np.array_equal(errors, per_draw_errors(spec, posterior, m, X, y))

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_desk_shape_equals_serial_forward_on_one_thread(self, monkeypatch,
                                                             cpus):
        """784-100-100-2 over three row blocks, the last a partial one: the
        pooled errors equal one forward pass per draw on one BLAS thread,
        bit for bit, on each of five runs and whatever the worker count (5
        CPUs give three workers, more than a 2-core host has).  The switch
        interval is shortened so that a shared buffer would show."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        spec = NetSpec((784, 100, 100, 2))
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2 * _ROW_BLOCK + 452, 784))
        y = rng.integers(0, 2, X.shape[0])
        posterior = DiagGaussian.isotropic(
            init_params(spec, seed=3, gain=settings("train")["init_gain"]), 1e-3)
        m = self.G + 1
        thetas = [sample_gaussian(posterior, seed=j) for j in range(m)]
        with single_threaded():
            serial = per_draw_errors(spec, posterior, m, X, y)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(zero_one_errors(spec, thetas, X, y), serial)
        finally:
            sys.setswitchinterval(interval)

    def test_stacks_at_most_one_group(self):
        spec = NetSpec((6, 50, 2))
        X = np.random.default_rng(1).standard_normal((_ROW_BLOCK, 6))
        block_bytes = X.shape[0] * self.G * 50 * 8
        draws = (random_theta(spec, seed=j) for j in range(3 * self.G))
        tracemalloc.start()
        try:
            errors = zero_one_errors(spec, draws, X, np.zeros(len(X), int))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert errors.shape == (3 * self.G,)
        # stacking all 3G draws would need three blocks of preactivations
        assert peak < 2 * block_bytes

    def test_input_validation(self):
        spec = NetSpec((4, 3, 2))
        theta = random_theta(spec, seed=0)
        with pytest.raises(ShapeMismatchError):
            zero_one_errors(spec, [theta], np.zeros((2, 5)), np.zeros(2, int))
        with pytest.raises(ValueError):
            zero_one_errors(spec, [theta], np.zeros((2, 4)), np.array([0, 2]))


class TestLosses:
    def test_zero_one_counts_mistakes(self):
        outputs = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        assert loss("zero_one", outputs, labels) == 0.5

    def test_categorical_uniform_logits(self):
        outputs = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        assert loss("categorical", outputs, labels) == pytest.approx(
            np.log(4.0), abs=1e-12)

    def test_mse_zero_at_one_hot(self):
        labels = np.array([1, 0, 2])
        assert loss("mse", one_hot(labels, 3), labels) == 0.0

    def test_softmax_rows_normalized(self):
        p = softmax(np.random.default_rng(0).standard_normal((5, 3)) * 30)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loss("hinge", np.zeros((1, 2)), np.array([0]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss("zero_one", np.zeros((1, 2)), np.array([2]))


class TestGrad:
    @pytest.mark.parametrize("kind", ["categorical", "mse"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(20):
            widths = tuple(rng.integers(2, 5, size=3))
            spec = NetSpec(widths)
            theta = random_theta(spec, seed=100 + trial)
            X = rng.standard_normal((5, widths[0]))
            y = rng.integers(0, widths[-1], size=5)
            g = grad(spec, theta, X, y, kind)
            h = 1e-5
            for i in range(spec.n_params):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd = (loss(kind, forward(spec, up, X).outputs, y)
                      - loss(kind, forward(spec, down, X).outputs, y)) / (2 * h)
                scale = max(abs(fd), abs(g[i]), 1e-6)
                worst = max(worst, abs(g[i] - fd) / scale)
        assert worst < 1e-4

    def test_zero_one_not_differentiable(self):
        spec = NetSpec((2, 2, 2))
        with pytest.raises(ValueError):
            grad(spec, random_theta(spec, seed=0), np.zeros((1, 2)),
                 np.array([0]), "zero_one")


class TestTrain:
    def test_reduces_error_on_blobs(self, blob_data, trained_net):
        _, record = trained_net
        assert record.final_train_error < 0.05
        assert record.final_test_error < 0.1

    def test_deterministic(self, blob_data):
        train_ds, _ = blob_data
        spec = NetSpec((12, 8, 3))
        config = TrainerConfig(**settings("train", epochs=2, batch_size=64))
        a = train(spec, train_ds, config, seed=3)
        b = train(spec, train_ds, config, seed=3)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert np.array_equal(a.theta0, b.theta0)
        # theta0 is the initialization, recorded before any update
        assert np.array_equal(a.theta0, init_params(spec, 3, config.init_gain))
        assert a.epoch_losses == b.epoch_losses

    @pytest.mark.parametrize("setting, message", [
        pytest.param({key: value}, message, id=f"{key}={value}")
        for key, value, message in [
            ("epochs", 0, "train.epochs must be at least 1; got 0"),
            ("epochs", -1, "train.epochs must be at least 1; got -1"),
            ("batch_size", 0, "train.batch_size must be at least 1; got 0"),
            ("batch_size", -5, "train.batch_size must be at least 1; got -5"),
            ("lr", 0.0, "train.lr must be positive; got 0.0"),
            ("lr", -0.1, "train.lr must be positive; got -0.1"),
            ("loss", "zero_one", "train.loss 'zero_one' cannot be trained"),
            ("decay", -0.1, "train.decay must be at least 0; got -0.1"),
            ("init_gain", 0.0, "train.init_gain must not be 0"),
            ("momentum", 1.5, "train.momentum must lie in [0, 1]; got 1.5"),
            ("momentum", -0.5, "train.momentum must lie in [0, 1]; got -0.5"),
        ]])
    def test_rejects_settings_that_train_nothing(self, blob_data, setting,
                                                 message):
        train_ds, _ = blob_data
        config = TrainerConfig(**settings("train", **setting))
        with pytest.raises(ValueError, match=re.escape(message)):
            train(NetSpec((12, 8, 3)), train_ds, config, seed=4)

    def test_negative_gain_and_zero_decay_train(self, blob_data):
        train_ds, _ = blob_data
        config = TrainerConfig(**settings("train", init_gain=-1.0, decay=0.0,
                                          epochs=3, batch_size=64, lr=0.05))
        record = train(NetSpec((12, 8, 3)), train_ds, config, seed=4)
        assert record.final_train_error < 0.1

    @pytest.mark.parametrize("momentum", [0.0, 1.0])
    def test_momentum_at_either_end_trains(self, blob_data, momentum):
        train_ds, _ = blob_data
        config = TrainerConfig(**settings("train", momentum=momentum,
                                          epochs=3, batch_size=64, lr=0.05))
        record = train(NetSpec((12, 8, 3)), train_ds, config, seed=4)
        assert record.final_train_error < 0.1

    def test_adam_path(self, blob_data):
        train_ds, _ = blob_data
        spec = NetSpec((12, 8, 3))
        config = TrainerConfig(**settings("train", optimizer="adam", epochs=3,
                                          lr=0.01, batch_size=64))
        record = train(spec, train_ds, config, seed=6)
        assert record.final_train_error < 0.1

    def test_unknown_optimizer(self, blob_data):
        train_ds, _ = blob_data
        spec = NetSpec((12, 8, 3))
        with pytest.raises(ValueError):
            train(spec, train_ds, TrainerConfig(
                **settings("train", optimizer="rprop", epochs=1)), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, blob_data):
        train_ds, _ = blob_data
        spec = NetSpec((12, 8, 3))
        config = TrainerConfig(**settings("train", epochs=3, lr=1e12,
                                          loss="mse", momentum=0.0, decay=0.0))
        with pytest.raises(DivergenceError):
            train(spec, train_ds, config, seed=7)

    def test_init_scale_follows_gain(self):
        spec = NetSpec((100, 50, 10))
        theta = init_params(spec, seed=1, gain=2.0)
        W0 = spec.to_matrices(theta)[0]
        assert W0.std() == pytest.approx(2.0 / np.sqrt(100), rel=0.1)
