"""Forward pass, losses, backprop, indexing, and training dynamics."""

import os
import re
import sys
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

from tests.conftest import (
    BLOCK_LAYER_BYTES,
    BLOCKED_N,
    BLOCKED_SPEC,
    blocked_data,
    random_rotated_gaussian,
    random_theta,
    settings,
    traced_peak,
)
from pbcert import nnet
from pbcert.blas import single_threaded
from pbcert.data import Dataset
from pbcert.gaussians import DiagGaussian, sample_gaussian
from pbcert.rng import rng_for
from pbcert.nnet import (
    _DRAW_GROUP,
    _ROW_BLOCK,
    _SCREEN_BLOCK,
    DivergenceError,
    NetSpec,
    ShapeMismatchError,
    TrainerConfig,
    forward,
    grad,
    init_params,
    loss,
    minibatches,
    one_hot,
    relu,
    row_blocks,
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
            A_prev = fp.activation(layer)
            for neuron, w in enumerate(W):
                assert np.allclose(fp.preactivations[layer][:, neuron],
                                   A_prev @ w, atol=1e-12)

    def test_input_width_mismatch(self):
        spec = NetSpec((4, 3, 2))
        with pytest.raises(ShapeMismatchError):
            forward(spec, random_theta(spec, seed=0), np.zeros((2, 5)))

    def test_activation_is_the_rectified_preactivation(self):
        spec = NetSpec((4, 3, 3, 2))
        theta = random_theta(spec, seed=3)
        X = np.random.default_rng(4).standard_normal((6, 4))
        fp = forward(spec, theta, X)
        assert fp.activation(0) is fp.inputs
        for i in (1, 2):
            assert np.array_equal(fp.activation(i), relu(fp.preactivations[i - 1]))
        assert fp.outputs is fp.preactivations[-1]

    def test_peak_memory_is_three_layer_arrays(self):
        # the desk net's widths on fewer rows: S1, relu(S1) and S2 at the
        # second product, S2, relu(S2) and the outputs at the last; a fourth
        # n x h array (1.6 MB) would exceed the bound
        rng = np.random.default_rng(5)
        spec = NetSpec((784, 100, 100, 2))
        X = rng.random((2000, 784))
        theta = random_theta(spec, seed=5, scale=0.05)
        forward(spec, theta, X)           # imports what numpy loads lazily
        layer, outputs = 2000 * 100 * 8, 2000 * 2 * 8
        slack = 64 * 1024
        tracemalloc.start()
        try:
            fp = forward(spec, theta, X)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fp.outputs.shape == (2000, 2)
        assert peak <= 3 * layer + outputs + slack
        # S1 and S2 stay; no activation is kept
        assert held <= 2 * layer + outputs + slack


class TestRowBlocks:
    @hypothesis_settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40 * _ROW_BLOCK))
    def test_blocks_cover_the_rows_contiguously(self, n):
        blocks = row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(block.step is None for block in blocks)
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [block.stop - block.start for block in blocks]
        assert min(sizes) >= min(n, _ROW_BLOCK)
        assert max(sizes) - min(sizes) <= 1
        # fewer than two blocks' worth of rows is one pass over all of them
        assert (len(blocks) == 1) == (n < 2 * _ROW_BLOCK)

    @pytest.fixture(scope="class")
    def desk_pass(self):
        spec = NetSpec((784, 100, 100, 2))
        rng = np.random.default_rng(12)
        return spec, random_theta(spec, seed=12, scale=0.05), rng.random((10000, 784))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 2047, 2048, 2049, 5000, 10000])
    def test_blocked_outputs_equal_one_pass(self, desk_pass, n):
        """A row's outputs have the same bits from its block's pass as from
        one pass over all n rows, on one BLAS thread."""
        spec, theta, X = desk_pass
        with single_threaded():
            whole = forward(spec, theta, X[:n]).outputs
            blocked = nnet._outputs(spec, theta, X[:n])
        assert blocked.tobytes() == whole.tobytes()


def serial_errors(spec, thetas, X, y):
    """Reference: one forward pass per theta, on one BLAS thread."""
    with single_threaded():
        return np.array([loss("zero_one", forward(spec, theta, X).outputs, y)
                         for theta in thetas])


def per_draw_errors(spec, posterior, m, X, y):
    """Reference: one forward pass per posterior draw."""
    return np.array([
        loss("zero_one",
             forward(spec, sample_gaussian(posterior, seed=j), X).outputs, y)
        for j in range(m)
    ])


class Pass(NamedTuple):
    kind: str       # "float32", "recheck" (float64) or "forward"
    rows: int
    thetas: int
    unsure: int     # rows the pass left undecided
    x_max: float    # the largest entry of X it saw


def record_passes(monkeypatch) -> list:
    """Record each pass `zero_one_errors` decides rows with.  A theta's
    fall-back on `forward`'s own products is a "forward" pass."""
    passes = []
    decide, forward_wrong = nnet._decide, nnet._forward_wrong

    def recording_decide(X_rows, W1, later, bound, labels, out=None):
        sure, counts = decide(X_rows, W1, later, bound, labels, out)
        kind = "float32" if X_rows.dtype == np.float32 else "recheck"
        passes.append(Pass(kind, X_rows.shape[0], len(later),
                           sure.size - np.count_nonzero(sure),
                           float(np.max(X_rows))))
        return sure, counts

    def recording_forward(weights, X, y, rows=slice(None)):
        passes.append(Pass("forward", len(y[rows]), 1, 0, np.inf))
        return forward_wrong(weights, X, y, rows)

    monkeypatch.setattr(nnet, "_decide", recording_decide)
    monkeypatch.setattr(nnet, "_forward_wrong", recording_forward)
    return passes


def near_tie_theta(spec, gap, seed, scales=(0.7,)):
    """Random weights whose output rows all equal one row plus gap times a
    standard normal vector, all times the layer's scale (the last of
    `scales` for layers beyond them)."""
    rng = np.random.default_rng(seed)
    scales = [scales[min(i, len(scales) - 1)] for i in range(len(spec.layer_shapes))]
    weights = [scale * rng.standard_normal(shape)
               for scale, shape in zip(scales, spec.layer_shapes)]
    last = weights[-1][0] + gap * scales[-1] * rng.standard_normal(weights[-1].shape)
    return spec.to_vector([*weights[:-1], last])


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
            posterior = random_rotated_gaussian(spec, mean, seed=m)
        draws = (sample_gaussian(posterior, seed=j) for j in range(m))
        errors = zero_one_errors(spec, draws, X, y)
        assert np.array_equal(errors, per_draw_errors(spec, posterior, m, X, y))

    def test_desk_shape_is_bitwise(self):
        """784-100-100-2 over a full and a partial row block: the screened
        errors equal one forward pass per draw bit for bit."""
        spec = NetSpec((784, 100, 100, 2))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((_ROW_BLOCK + 452, 784))
        y = rng.integers(0, 2, X.shape[0])
        posterior = DiagGaussian.isotropic(
            init_params(spec, seed=1, gain=settings("train")["init_gain"]), 1e-3)
        m = self.G + 1
        thetas = [sample_gaussian(posterior, seed=j) for j in range(m)]
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

    @pytest.mark.parametrize("n", [_ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
    def test_one_row_block_equals_serial_forward(self, monkeypatch, n):
        """A 1-row product takes BLAS's matrix-vector path, whose last bits
        differ from those of the same row in a larger product.  The screen
        does not depend on those bits, so the last block keeps its single
        row and the errors still equal a serial forward pass per draw."""
        passes = record_passes(monkeypatch)
        spec = NetSpec((784, 100, 100, 2))
        rng = np.random.default_rng(4)
        X = rng.standard_normal((n, 784))
        y = rng.integers(0, 2, n)
        posterior = DiagGaussian.isotropic(
            init_params(spec, seed=5, gain=settings("train")["init_gain"]), 1e-3)
        m = 3
        thetas = [sample_gaussian(posterior, seed=j) for j in range(m)]
        errors = zero_one_errors(spec, thetas, X, y)
        blocks = [p.rows for p in passes if p.kind == "float32"]
        assert 1 in blocks and sum(blocks) == n
        with single_threaded():
            serial = per_draw_errors(spec, posterior, m, X, y)
        assert np.array_equal(errors, serial)

    def test_stacks_at_most_one_group(self, monkeypatch):
        """One worker, 3G draws over two screen blocks: the screen holds one
        float32 buffer of _SCREEN_BLOCK rows (X and the group's
        preactivations), one group's draws and their float32 first layers,
        beside a draw being made.  A buffer of 1024 rows (+1.6 MB), a
        float64 stack of the first layers (+1.3 MB) or the next group's
        draws made before this one's are freed (+1.6 MB) exceeds that."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        d, h1 = 400, 50
        spec = NetSpec((d, h1, 2))
        X = np.random.default_rng(1).standard_normal((2 * _SCREEN_BLOCK, d))
        y = np.zeros(len(X), int)

        def screen():
            draws = (random_theta(spec, seed=j) for j in range(3 * self.G))
            return zero_one_errors(spec, draws, X, y)

        assert screen().shape == (3 * self.G,)
        buffer = _SCREEN_BLOCK * (d + self.G * h1) * 4
        group = self.G * spec.n_params * 8 + self.G * h1 * d * 4
        # a draw being made (its normals and their scaled copy), and the
        # screen's per-row vectors
        slack = 2 * spec.n_params * 8 + 2 ** 18
        assert traced_peak(screen) < buffer + group + slack

    def test_input_validation(self):
        spec = NetSpec((4, 3, 2))
        theta = random_theta(spec, seed=0)
        with pytest.raises(ShapeMismatchError):
            zero_one_errors(spec, [theta], np.zeros((2, 5)), np.zeros(2, int))
        with pytest.raises(ValueError):
            zero_one_errors(spec, [theta], np.zeros((2, 4)), np.array([0, 2]))

    @pytest.fixture
    def screened(self, monkeypatch):
        """Two workers, each pass recorded."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        return record_passes(monkeypatch)

    @pytest.mark.parametrize("widths", [
        (64, 48, 32, 2), (64, 48, 32, 3), (64, 48, 32, 10), (64, 48, 2)],
        ids=["k2", "k3", "k10", "one-hidden"])
    def test_near_ties_are_rechecked_in_float64(self, screened, widths):
        """Output rows 1e-9 apart: no float32 gap clears the bound, so each
        block sends every row of every theta to the float64 recheck, and the
        errors equal a serial forward pass per theta bit for bit."""
        spec = NetSpec(widths)
        rng = np.random.default_rng(7)
        n = _SCREEN_BLOCK + 37
        X = rng.standard_normal((n, widths[0]))
        y = rng.integers(0, widths[-1], n)
        thetas = [near_tie_theta(spec, 1e-9, seed) for seed in range(3)]
        errors = zero_one_errors(spec, thetas, X, y)
        assert sorted((p.rows, p.thetas, p.unsure) for p in screened
                      if p.kind == "float32") == [
            (37, 3, 3 * 37), (_SCREEN_BLOCK, 3, 3 * _SCREEN_BLOCK)]
        assert sorted(p.rows for p in screened if p.kind == "recheck") == \
            [37] * 3 + [_SCREEN_BLOCK] * 3
        assert np.array_equal(errors, serial_errors(spec, thetas, X, y))

    @pytest.mark.parametrize("gap", [0.0, 1e-16], ids=["equal", "ulps-apart"])
    def test_ties_take_forwards_own_outputs(self, screened, gap):
        """Output rows equal or an ulp or so apart tie within float64's own
        rounding, so no pass of `zero_one_errors` can decide them (the
        float64 recheck's small products need not sum in `forward`'s
        order): those rows of each theta fall back on `forward`'s products
        over the whole of X."""
        spec = NetSpec((64, 48, 32, 2))
        rng = np.random.default_rng(8)
        n = _ROW_BLOCK + 37
        X = rng.standard_normal((n, 64))
        y = rng.integers(0, 2, n)
        thetas = [near_tie_theta(spec, gap, seed) for seed in range(3)]
        errors = zero_one_errors(spec, thetas, X, y)
        fallbacks = [p.rows for p in screened if p.kind == "forward"]
        assert len(fallbacks) == 3 and (gap or fallbacks == [n] * 3)
        assert np.array_equal(errors, serial_errors(spec, thetas, X, y))

    @pytest.mark.parametrize("edge", ["overflow", "underflow", "weight"])
    def test_float32_range_edges_are_not_decided_in_float32(self, screened,
                                                             edge):
        """Overflow: output 0's products sum to 9.9e37, but summed from the
        left in float32 they pass 3.4e38 and stay inf, so float32 would pick
        output 0 over output 1's 2.97e38.  Underflow: each product of hidden
        unit 0 is 6e-46, which float32 rounds to 0, so float32 would pick
        output 1's 1e-44 over output 0's 3.84e-44.  Weight: a weight of
        1e39 rounds to inf in float32, so float32 would pick output 0's inf
        over output 1's 6e36, where float64 has 5e36; the activations are
        small enough for the sums' own overflow guard to let them through.
        Each row is left to float64, which gets `forward`'s argmax."""
        if edge == "overflow":
            x = [9e18, 9e18, 7.5e18, 7.5e18]
            weights = [np.eye(4), [[3.3e19, 3.3e19, -3.3e19, -3.3e19],
                                   [3.3e19, 0.0, 0.0, 0.0]]]
        elif edge == "underflow":
            x = [1e-23] * 64
            W1 = np.zeros((2, 64))
            W1[0], W1[1, 0] = 6e-23, 1e-21
            weights = [W1, np.eye(2)]
        else:
            x = [0.005, 0.015]
            weights = [np.eye(2), [[1e39, 0.0], [3e38, 3e38]]]
        spec = NetSpec((len(x), len(weights[0]), 2))
        X = np.tile(x, (4, 1))
        theta = spec.to_vector(weights)
        y = np.argmax(forward(spec, theta, X).outputs, axis=1)
        errors = zero_one_errors(spec, [theta, theta], X, y)
        assert [p.unsure for p in screened if p.kind == "float32"] == [8]
        assert np.array_equal(errors, [0.0, 0.0])

    def test_rows_beyond_float32_range_are_rechecked(self, screened):
        """An entry of 1e39 is finite in float64 and inf in float32: the
        float32 pass cannot bound its row, float64 decides it, and nothing
        warns."""
        spec = NetSpec((64, 48, 32, 3))
        rng = np.random.default_rng(10)
        n = _SCREEN_BLOCK + 37
        X = rng.standard_normal((n, 64))
        X[5, 3] = X[_SCREEN_BLOCK + 3, 7] = 1e39
        y = rng.integers(0, 3, n)
        thetas = [random_theta(spec, seed) for seed in range(2)]
        errors = zero_one_errors(spec, thetas, X, y)
        assert len([p for p in screened
                    if p.kind == "recheck" and p.x_max >= 1e39]) == 4
        assert np.array_equal(errors, serial_errors(spec, thetas, X, y))

    def test_ties_in_one_block_take_that_blocks_forward(self, monkeypatch):
        """Exact ties in the middle one of three row blocks (`row_blocks`):
        the fallback on `forward`'s products runs on that block alone, so
        it holds one block x h array where a pass over X held an n x h one
        (4.9 MB), and the errors equal a serial forward pass."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        forward_wrong = nnet._forward_wrong
        passes = record_passes(monkeypatch)
        h = 200
        spec = NetSpec((4, h, 2))
        W1, W2 = np.zeros((h, 4)), np.zeros((2, h))
        W1[:4] = np.eye(4)
        W2[0, :2] = W2[1, 2:4] = 1.0
        theta = spec.to_vector([W1, W2])
        n = 3 * _ROW_BLOCK + 5
        X = np.tile([1.0, 1.0, 0.0, 0.0], (n, 1))
        X[1::2] = X[1::2, ::-1]
        middle = row_blocks(n)[1]
        ties = np.arange(middle.start, middle.stop, 100)
        X[ties] = 1.0
        y = np.arange(n) % 2
        errors = zero_one_errors(spec, [theta], X, y)
        assert [p.rows for p in passes if p.kind == "forward"] == [ties.size]
        assert np.array_equal(errors, serial_errors(spec, [theta], X, y))
        weights = spec.to_matrices(theta)
        peak = traced_peak(lambda: forward_wrong(weights, X, y, ties))
        block = middle.stop - middle.start
        assert peak <= block * (h + 2) * 8 + 2 ** 16

    def test_one_unsure_row_is_rechecked_alone(self, screened):
        """One row of the block is an exact tie, every other row has a gap
        of 2: the recheck is a 1-row float64 product per theta, which the
        float64 bound cannot decide either, so that row alone takes
        `forward`'s own products."""
        spec = NetSpec((4, 4, 2))
        theta = spec.to_vector([np.eye(4), [[1.0, 1.0, 0.0, 0.0],
                                            [0.0, 0.0, 1.0, 1.0]]])
        X = np.tile([1.0, 1.0, 0.0, 0.0], (10, 1))
        X[1::2] = X[1::2, ::-1]
        X[3] = 1.0
        y = np.arange(10) % 2
        errors = zero_one_errors(spec, [theta, theta], X, y)
        assert [(p.kind, p.rows, p.unsure) for p in screened] == [
            ("float32", 10, 2), ("recheck", 1, 1), ("recheck", 1, 1),
            ("forward", 1, 0), ("forward", 1, 0)]
        assert np.array_equal(errors, serial_errors(spec, [theta] * 2, X, y))

    def test_a_workers_unsure_rows_share_one_recheck(self, monkeypatch):
        """One worker, one exact tie in each of three blocks: each theta's
        three rows go through one float64 product, not one per block."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        passes = record_passes(monkeypatch)
        spec = NetSpec((4, 4, 2))
        theta = spec.to_vector([np.eye(4), [[1.0, 1.0, 0.0, 0.0],
                                            [0.0, 0.0, 1.0, 1.0]]])
        n = 2 * _SCREEN_BLOCK + 5
        X = np.tile([1.0, 1.0, 0.0, 0.0], (n, 1))
        X[1::2] = X[1::2, ::-1]
        ties = [3, _SCREEN_BLOCK + 3, 2 * _SCREEN_BLOCK + 3]
        X[ties] = 1.0
        y = np.arange(n) % 2
        errors = zero_one_errors(spec, [theta, theta], X, y)
        assert [(p.kind, p.rows, p.unsure) for p in passes] == [
            ("float32", _SCREEN_BLOCK, 2), ("float32", _SCREEN_BLOCK, 2),
            ("float32", 5, 2), ("recheck", 3, 3), ("recheck", 3, 3),
            ("forward", 3, 0), ("forward", 3, 0)]
        assert np.array_equal(errors, serial_errors(spec, [theta] * 2, X, y))

    def test_a_recheck_takes_at_most_a_block_of_rows(self, monkeypatch):
        """One worker, near ties in every row of three blocks: a theta's
        rows are rechecked as soon as the next block's would take them past
        a block's worth, so no float64 product outgrows the buffer."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        passes = record_passes(monkeypatch)
        spec = NetSpec((64, 48, 2))
        rng = np.random.default_rng(11)
        n = 2 * _SCREEN_BLOCK + 37
        X = rng.standard_normal((n, 64))
        y = rng.integers(0, 2, n)
        thetas = [near_tie_theta(spec, 1e-9, seed) for seed in range(2)]
        errors = zero_one_errors(spec, thetas, X, y)
        assert [p.rows for p in passes if p.kind == "recheck"] == [
            _SCREEN_BLOCK] * 2 + [_SCREEN_BLOCK] * 2 + [37] * 2
        assert np.array_equal(errors, serial_errors(spec, thetas, X, y))

    def test_trained_desk_iso_draws_recheck_few_rows(self, monkeypatch):
        """A desk-shaped net trained for two epochs on two-prototype data,
        iso draws at lambda = 1e-3: float32 decides more than 80% of the
        rows (a bound that flagged every row would decide none)."""
        passes = record_passes(monkeypatch)
        spec = NetSpec((784, 100, 100, 2))
        rng = np.random.default_rng(12)
        prototypes = np.where(rng.random((2, 784)) < 0.5, 0.45, 0.55)
        y = rng.integers(0, 2, 2048)
        X = np.clip(prototypes[y] + 0.25 * rng.standard_normal((2048, 784)),
                    0.0, 1.0)
        config = TrainerConfig(**settings("train", epochs=2, batch_size=128,
                                          lr=0.01))
        record = train(spec, Dataset(X=X, y=y, k=2), config, seed=3)
        posterior = DiagGaussian.isotropic(record.theta_star, 1e-3)
        thetas = [sample_gaussian(posterior, seed=j) for j in range(2)]
        errors = zero_one_errors(spec, thetas, X, y)
        screened = [p for p in passes if p.kind == "float32"]
        assert sum(p.rows * p.thetas for p in screened) == 2 * len(X)
        assert sum(p.unsure for p in screened) < 0.2 * 2 * len(X)
        assert np.array_equal(errors, serial_errors(spec, thetas, X, y))

    def test_a_row_needs_a_gap_of_twice_the_bound(self):
        """Each output may be off by the bound E, so the top two may close
        by 2E: a gap of 1.5E leaves the row undecided, 2.5E decides it."""
        E = 1e-3
        bound = nnet._Bound(np.zeros((1, 2)), np.full(1, E), np.full((1, 2), np.inf))
        X = np.array([[1.0, 1.0 + 1.5 * E], [1.0, 1.0 + 2.5 * E]], np.float32)
        identity = np.eye(2, dtype=np.float32)
        sure, wrong = nnet._decide(X, identity, [[identity]], bound,
                                   np.zeros(2, int))
        assert sure.tolist() == [[False], [True]] and wrong.tolist() == [1]

    def test_float32_bound_holds_each_layers_rounding(self):
        """784-100-2: per unit of the input norms, the float32 bound is at
        least the derivation's gamma_{n+1}(2^-24) + gamma_n(2^-53) times
        the largest |W_2| |W_1 row norms| (layer 1, plus gamma_1(2^-24) for
        rounding x) and |W_2 row| (layer 2)."""
        spec = NetSpec((784, 100, 2))
        weights = spec.to_matrices(random_theta(spec, seed=13, scale=0.05))
        W1, W2 = weights
        bound32 = nnet._bound(nnet._row_stats(W1[None]), [W2[None]],
                              spec.widths, np.float32)
        gamma = lambda n: nnet._gamma(n + 1, 2.0 ** -24) + nnet._gamma(n, 2.0 ** -53)
        layer1 = ((gamma(784) + nnet._gamma(1, 2.0 ** -24))
                  * (np.abs(W2) @ np.linalg.norm(W1, axis=1)).max())
        layer2 = gamma(100) * np.linalg.norm(W2, axis=1).max()
        assert bound32.slopes[0, 0] >= layer1 and bound32.slopes[0, 1] >= layer2

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 7), min_size=3, max_size=5),
           scales=st.lists(st.sampled_from(
               [1e-40, 1e-20, 1e-3, 1.0, 1e3, 1e20, 1e40]), min_size=1, max_size=4),
           gap=st.sampled_from([0.0, 1e-16, 1e-12, 1e-7, 1.0]),
           n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_screened_errors_equal_forward(self, widths, scales, gap, n, seed):
        """Random small nets, screen blocks of 8 rows over two workers, weight
        scales per layer from float32 underflow to float32 overflow, and
        last layers whose output rows tie or nearly tie: the screened errors
        equal one forward pass per theta bit for bit."""
        spec = NetSpec(widths)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, widths[0]))
        y = rng.integers(0, widths[-1], n)
        thetas = [near_tie_theta(spec, gap, seed + j, scales) for j in range(3)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nnet, "_SCREEN_BLOCK", 8)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            errors = zero_one_errors(spec, thetas, X, y)
        assert np.array_equal(errors, serial_errors(spec, thetas, X, y))


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


class TestMinibatches:
    @pytest.mark.parametrize("n, batch_size", [(10, 3), (12, 4), (5, 8), (1, 1)])
    def test_each_epoch_covers_every_row_once(self, n, batch_size):
        rng = rng_for(3, "shuffle")
        for _ in range(3):
            batches = minibatches(rng, n, batch_size)
            assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(n))
            assert [len(b) for b in batches[:-1]] == [batch_size] * (len(batches) - 1)
            assert len(batches[-1]) == (n % batch_size or min(n, batch_size))

    def test_batches_are_slices_of_one_permutation_per_epoch(self):
        n, batch_size = 23, 5
        rng, same = rng_for(8, "vi-shuffle"), rng_for(8, "vi-shuffle")
        for _ in range(4):
            order = same.permutation(n)
            batches = minibatches(rng, n, batch_size)
            assert len(batches) == 5
            for start, batch in zip(range(0, n, batch_size), batches):
                assert np.array_equal(batch, order[start:start + batch_size])
        assert rng.random() == same.random()


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
        assert a.final_train_error == b.final_train_error

    def test_evaluates_theta_star_once_per_split(self, blob_data, monkeypatch):
        """Minibatch gradients aside, one forward pass over the training rows
        and one over the test rows, however many epochs run."""
        train_ds, test_ds = blob_data
        calls = []
        real = nnet.forward

        def counted(spec, theta, X):
            calls.append(np.shape(X)[0])
            return real(spec, theta, X)

        monkeypatch.setattr(nnet, "forward", counted)
        config = TrainerConfig(**settings("train", epochs=10, batch_size=64))
        record = train(NetSpec((12, 8, 3)), train_ds, config, seed=3,
                       test_data=test_ds)
        assert calls.count(train_ds.n) == 1
        assert calls.count(test_ds.n) == 1
        assert max(calls[:-2]) == 64    # the rest are minibatch gradients
        assert record.final_test_error is not None

    def test_evaluation_holds_no_full_batch_layer(self):
        """theta*'s evaluation peaks at one row block's pass, three block x h
        arrays, beside the outputs and the training state: theta0, theta, the
        SGD velocity, Adam's two moments and a step's temporaries.  One more
        n x h array (8 MB) exceeds the bound."""
        data = blocked_data(seed=13)
        config = TrainerConfig(**settings("train", epochs=1, batch_size=128))
        peak = traced_peak(lambda: train(BLOCKED_SPEC, data, config, seed=13,
                                         test_data=data))
        params = BLOCKED_SPEC.n_params * 8
        outputs = BLOCKED_N * BLOCKED_SPEC.widths[-1] * 8
        assert peak <= 3 * BLOCK_LAYER_BYTES + 2 * outputs + 8 * params

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
        """The run stops at the epoch whose weights go non-finite."""
        train_ds, _ = blob_data
        spec = NetSpec((12, 8, 3))
        config = TrainerConfig(**settings("train", epochs=20, lr=1e12,
                                          loss="mse", momentum=0.0, decay=0.0))
        with pytest.raises(DivergenceError, match="at epoch 0$"):
            train(spec, train_ds, config, seed=7)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_outputs_detected(self, blob_data):
        """One step leaves the weights finite (about 1e200) but their
        training outputs overflow, so the run stops all the same."""
        train_ds, _ = blob_data
        config = TrainerConfig(**settings("train", epochs=1, batch_size=600,
                                          lr=1e200, momentum=0.0, decay=0.0))
        with pytest.raises(DivergenceError, match="outputs diverged at epoch 0$"):
            train(NetSpec((12, 8, 3)), train_ds, config, seed=7)

    def test_init_scale_follows_gain(self):
        spec = NetSpec((100, 50, 10))
        theta = init_params(spec, seed=1, gain=2.0)
        W0 = spec.to_matrices(theta)[0]
        assert W0.std() == pytest.approx(2.0 / np.sqrt(100), rel=0.1)
