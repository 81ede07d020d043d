"""Fisher and block-Hessian estimators, landscape probe, error propagation."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from tests.conftest import random_theta, settings
from pbcert import curvature
from pbcert.curvature import (
    all_block_hessians,
    block_hessians,
    diag_fisher,
    error_propagation_check,
    landscape_probe,
)
from pbcert.data import Dataset, synthetic_blobs
from pbcert.nnet import NetSpec, forward, loss, softmax
from pbcert.posteriors import joint_optimal_diag
from pbcert.rng import child_seed


def sampled_labels(seed, spec, theta, X):
    """Re-derive the per-sample labels via the content-hashed uniforms."""
    probs = softmax(forward(spec, theta, X).outputs)
    cdf = np.cumsum(probs, axis=1)
    seed_bytes = (int(seed) % 2 ** 64).to_bytes(8, "little")
    labels = np.empty(X.shape[0], dtype=int)
    for i in range(X.shape[0]):
        digest = hashlib.blake2b(seed_bytes + X[i].tobytes(),
                                 digest_size=8).digest()
        u = int.from_bytes(digest, "little") / 2.0 ** 64
        labels[i] = int((u > cdf[i]).sum())
    return labels


def log_density(spec, theta, x, label):
    logits = forward(spec, theta, x[None, :]).outputs[0]
    shifted = logits - logits.max()
    return float(shifted[label] - np.log(np.exp(shifted).sum()))


def fisher_oracle_error(seed, h=1e-5):
    """Largest relative gap between diag_fisher and the summed squared
    central-difference log-density gradients at the sampled labels."""
    spec = NetSpec((2, 3, 2))
    theta = random_theta(spec, seed=0)
    X = np.random.default_rng(1).standard_normal((4, 2))
    est = diag_fisher(spec, theta, X, seed=seed)
    labels = sampled_labels(seed, spec, theta, X)
    oracle = np.zeros(spec.n_params)
    for s in range(X.shape[0]):
        for i in range(spec.n_params):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            g = (log_density(spec, up, X[s], labels[s])
                 - log_density(spec, down, X[s], labels[s])) / (2 * h)
            oracle[i] += g ** 2
    scale = np.maximum(oracle, 1e-8)
    return np.max(np.abs(est - oracle) / scale)


class TestDiagFisher:
    def test_matches_finite_difference_oracle(self):
        assert fisher_oracle_error(21) < 1e-5

    def test_seed_at_least_2_63(self):
        # child_seed returns unsigned 64-bit seeds; about half are >= 2**63
        seed = child_seed(1, "fisher")
        assert seed >= 2 ** 63
        assert fisher_oracle_error(seed) < 1e-5

    def test_zero_input_kills_first_layer(self):
        spec = NetSpec((3, 2, 2))
        theta = random_theta(spec, seed=2)
        est = diag_fisher(spec, theta, np.zeros((5, 3)), seed=0)
        assert np.all(spec.to_matrices(est)[0] == 0.0)

    def test_duplication_doubles(self):
        spec = NetSpec((3, 4, 2))
        theta = random_theta(spec, seed=3)
        X = np.random.default_rng(4).standard_normal((6, 3))
        single = diag_fisher(spec, theta, X, seed=9)
        double = diag_fisher(spec, theta, np.vstack([X, X]), seed=9)
        assert np.allclose(double, 2.0 * single, rtol=1e-10)

    def test_permutation_invariant(self):
        spec = NetSpec((3, 4, 2))
        theta = random_theta(spec, seed=5)
        X = np.random.default_rng(6).standard_normal((8, 3))
        base = diag_fisher(spec, theta, X, seed=9)
        perm = np.random.default_rng(7).permutation(8)
        permuted = diag_fisher(spec, theta, X[perm], seed=9)
        assert np.allclose(permuted, base, rtol=1e-10)

    def test_nonnegative_and_floored(self):
        spec = NetSpec((3, 2, 2))
        theta = random_theta(spec, seed=8)
        est = diag_fisher(spec, theta, np.zeros((2, 3)), seed=0)
        assert np.all(est >= 0)
        # the closed-joint solver floors, and counts, every zero entry
        res = joint_optimal_diag(est, 1.0, 1.0, theta, theta + 1.0)
        assert res.n_floored == int(np.sum(est == 0.0)) > 0
        assert np.all(np.isfinite(res.sigma_rho))


class TestBlockHessian:
    def test_basis_inputs_give_identity(self):
        spec = NetSpec((2, 2, 2))
        theta = random_theta(spec, seed=0)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        H = block_hessians(spec, theta, X)[0]
        assert np.allclose(H, np.eye(2), atol=1e-12)

    def test_zero_activations_give_zero(self):
        spec = NetSpec((2, 2, 2))
        H = block_hessians(spec, random_theta(spec, seed=1),
                           np.zeros((3, 2)))[0]
        assert np.all(H == 0.0)

    def test_half_quadratic_equals_exact_layer_error(self):
        spec = NetSpec((4, 3, 2))
        theta = random_theta(spec, seed=2)
        X = np.random.default_rng(3).standard_normal((10, 4))
        rng = np.random.default_rng(4)
        for layer, H in enumerate(block_hessians(spec, theta, X)):
            A = forward(spec, theta, X).activations[layer]
            eta = rng.standard_normal(H.shape[0])
            exact = np.sum((A @ eta) ** 2) / X.shape[0]
            quad = 0.5 * eta @ H @ eta
            assert quad == pytest.approx(exact, rel=1e-8)

    def test_matches_finite_difference_hessian(self):
        spec = NetSpec((3, 3, 2))
        theta = random_theta(spec, seed=5)
        X = np.random.default_rng(6).standard_normal((7, 3))
        layer, neuron = 1, 0
        A = forward(spec, theta, X).activations[layer]
        w_star = spec.to_matrices(theta)[layer][neuron]

        def layer_error(w_row):
            return float(np.sum((A @ (w_row - w_star)) ** 2) / X.shape[0])

        H = block_hessians(spec, theta, X)[layer]
        h = 1e-4
        k = w_star.shape[0]
        fd = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                pts = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    w = w_star.copy()
                    w[i] += si * h
                    w[j] += sj * h
                    pts.append(layer_error(w))
                fd[i, j] = (pts[0] - pts[1] - pts[2] + pts[3]) / (4 * h * h)
        assert np.max(np.abs(fd - H)) < 1e-5

    def test_psd_on_real_data(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        eigs = all_block_hessians(spec, record.theta_star, train_ds.X)
        hessians = block_hessians(spec, record.theta_star, train_ds.X)
        assert len(eigs) == spec.n_layers
        for eig, H in zip(eigs, hessians):
            assert eig.eigvals.min() >= -1e-8 * max(eig.eigvals.max(), 1e-30)
            recon = (eig.eigvecs * eig.eigvals) @ eig.eigvecs.T
            assert np.allclose(recon, H, atol=1e-10)
            assert np.all(np.diff(eig.eigvals) <= 1e-12)

    def test_layer_out_of_range(self):
        spec = NetSpec((2, 2, 2))
        hessians = block_hessians(spec, random_theta(spec, seed=0),
                                  np.zeros((1, 2)))
        assert len(hessians) == spec.n_layers
        with pytest.raises(IndexError):
            hessians[2]

    def test_one_forward_for_every_layer(self, monkeypatch):
        spec = NetSpec((4, 3, 3, 2))
        calls = []

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(curvature, "forward", counted)
        all_block_hessians(spec, random_theta(spec, seed=0),
                           np.ones((5, 4)))
        assert len(calls) == 1


# the loss `pbcert probe` runs with
LOSS = settings("train")["loss"]


class TestLandscapeProbe:
    def test_t_zero_equals_training_loss(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        outputs = forward(spec, record.theta_star, train_ds.X).outputs
        for kind in ("categorical", "mse"):
            probe = landscape_probe(spec, record.theta_star, train_ds, 3,
                                    np.array([-1.0, 0.0, 1.0]), [0.04], seed=1,
                                    loss_kind=kind)
            assert np.all(probe.losses[:, 1] == loss(kind, outputs, train_ds.y))

    @pytest.mark.parametrize("kind", ["categorical", "mse"])
    @pytest.mark.parametrize("widths", [(12, 9, 3), (12, 9, 7, 3)])
    @pytest.mark.parametrize("t_grid", [np.linspace(-4.0, 4.0, 5),
                                        np.array([-3.0, -0.4, 0.7, 2.5])],
                             ids=["with-zero", "without-zero"])
    def test_equals_a_forward_pass_per_point(self, blob_data, kind, widths,
                                             t_grid):
        train_ds, _ = blob_data
        spec = NetSpec(widths)
        theta = random_theta(spec, seed=8)
        probe = landscape_probe(spec, theta, train_ds, 2, t_grid, [0.04],
                                seed=3, loss_kind=kind)
        oracle = np.array([[loss(kind, forward(spec, theta + t * v,
                                               train_ds.X).outputs, train_ds.y)
                            for t in t_grid] for v in probe.directions])
        assert np.allclose(probe.losses, oracle, rtol=1e-12, atol=0.0)

    def test_peak_memory_is_one_forward_pass(self):
        # the desk net's widths on fewer rows: S, P, A1 and the second
        # layer's activations take the place of a forward pass's S1, A1, S2
        # and A2, so one more n x h1 array (1.6 MB) would exceed the bound
        rng = np.random.default_rng(9)
        spec = NetSpec((784, 100, 100, 2))
        data = Dataset(rng.random((2000, 784)), rng.integers(0, 2, 2000), 2)
        theta = random_theta(spec, seed=9, scale=0.05)

        def probe():
            return landscape_probe(spec, theta, data, 2,
                                   np.linspace(-2.0, 2.0, 11), [0.04], seed=1,
                                   loss_kind=LOSS)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        directions = probe().directions   # also imports what numpy loads lazily
        forward_peak = peak(lambda: forward(spec, theta, data.X))
        # beside the directions, one point's weights (0.7 MB) are allowed
        allowed = forward_peak + directions.nbytes + theta.nbytes
        assert peak(probe) <= allowed

    def test_directions_unit_norm(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        probe = landscape_probe(spec, record.theta_star, train_ds, 5,
                                np.linspace(-1, 1, 5), [0.04], seed=2,
                                loss_kind=LOSS)
        norms = np.linalg.norm(probe.directions, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_quadratic_toy_fits_exactly(self):
        t = np.linspace(-3, 3, 11)
        coeffs, r2 = curvature._quadratic_fit(t, 2.5 * t ** 2 - 0.5 * t + 1.0)
        assert np.allclose(coeffs, [2.5, -0.5, 1.0], atol=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_bubble_radius_formula(self, blob_data):
        train_ds, _ = blob_data
        spec = NetSpec((12, 5, 3))
        theta = random_theta(spec, seed=4)
        probe = landscape_probe(spec, theta, train_ds, 1,
                                np.array([-1.0, 0.0, 1.0]), [0.04, 0.5],
                                seed=4, loss_kind=LOSS)
        for lam in (0.04, 0.5):
            assert probe.bubble_radii[lam] == pytest.approx(
                np.sqrt(lam * spec.n_params), abs=1e-12)


class TestErrorPropagation:
    def _toy(self):
        spec = NetSpec((4, 5, 4, 3))
        theta = random_theta(spec, seed=10)
        data = synthetic_blobs(40, 4, 3, 2.0, seed=10)
        return spec, theta, data

    def test_zero_perturbation_all_zero(self):
        spec, theta, data = self._toy()
        report = error_propagation_check(spec, theta, data, scale=0.0, seed=1)
        trial = report.trials[0]
        assert np.all(trial.act_mse == 0.0)
        assert np.all(trial.accumulated == 0.0)
        assert report.all_ok

    def test_last_layer_only_has_no_propagation(self):
        spec, theta, data = self._toy()
        last = spec.n_layers - 1
        report = error_propagation_check(spec, theta, data, scale=0.5, seed=2,
                                         layers=[last])
        trial = report.trials[0]
        assert np.all(trial.accumulated[:last] == 0.0)
        assert trial.accumulated[last] == pytest.approx(
            np.sqrt(trial.act_mse[last]), rel=1e-12)
        assert report.all_ok

    def test_hundred_random_trials_hold(self):
        spec, theta, data = self._toy()
        report = error_propagation_check(spec, theta, data, scale=1.5, seed=3,
                                         n_trials=100)
        assert len(report.trials) == 100
        assert report.all_ok

    def test_deterministic(self):
        spec, theta, data = self._toy()
        a = error_propagation_check(spec, theta, data, scale=0.7, seed=4)
        b = error_propagation_check(spec, theta, data, scale=0.7, seed=4)
        assert np.array_equal(a.trials[0].accumulated, b.trials[0].accumulated)
