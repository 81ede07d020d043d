"""Closed-form, jointly optimal, VI, and block posterior solvers."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from tests.conftest import (
    block_covariances,
    quadratic_objective_block,
    quadratic_objective_diag,
    settings,
    vi_log_sigma_oracle,
)
from pbcert import nnet, posteriors
from pbcert.curvature import LayerEig, all_block_hessians, block_hessians
from pbcert.gaussians import DiagGaussian, kl_block
from pbcert.nnet import NetSpec, grad
from pbcert.posteriors import (
    closed_form_posterior,
    joint_optimal_diag,
    skfac_posterior,
    vi_optimize_diag,
    vi_optimize_log_sigma,
)

# the step size that `pbcert certify` runs vi-diag with
VI_LR = settings("posterior")["vi_lr"]


def scalar_objective(sigma, h, beta, lam, dmu2):
    """Per-coordinate developed objective 1/2 h sigma + beta KL term, against
    the prior variance lam."""
    kl = 0.5 * (sigma / lam + dmu2 / lam - 1.0 + np.log(lam) - np.log(sigma))
    return 0.5 * h * sigma + beta * kl


def minimize_coordinate(h, beta, lam, dmu2):
    """Scalar-minimization oracle over log sigma."""
    res = minimize_scalar(
        lambda t: scalar_objective(np.exp(t), h, beta, lam, dmu2),
        bounds=(-40.0, 40.0), method="bounded",
        options={"xatol": 1e-12})
    return float(np.exp(res.x))


class TestClosedForm:
    def test_zero_curvature_returns_prior_scale(self):
        sigma = closed_form_posterior(np.zeros(4), beta=0.7, lam=0.3)
        assert np.allclose(sigma, 0.3)

    def test_unit_instance(self):
        sigma = closed_form_posterior(np.array([1.0]), beta=1.0, lam=1.0)
        assert sigma[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_scalar_minimization_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            d = int(rng.integers(2, 8))
            h = 10.0 ** rng.uniform(-3, 3, size=d)
            beta, lam = 10.0 ** rng.uniform(-2, 2, size=2)
            sigma = closed_form_posterior(h, beta, lam)
            for i in range(d):
                oracle = minimize_coordinate(h[i], beta, lam, 0.0)
                assert sigma[i] == pytest.approx(oracle, rel=1e-4)

    def test_stationary_point(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = 10.0 ** rng.uniform(-2, 2)
            beta, lam = 10.0 ** rng.uniform(-1.5, 1.5, size=2)
            sigma = closed_form_posterior(np.array([h]), beta, lam)[0]
            eps = 1e-6 * sigma
            up = scalar_objective(sigma + eps, h, beta, lam, 0.0)
            down = scalar_objective(sigma - eps, h, beta, lam, 0.0)
            derivative = (up - down) / (2 * eps)
            scale = scalar_objective(sigma, h, beta, lam, 0.0)
            assert abs(derivative) * sigma <= 1e-6 * max(abs(scale), 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_form_posterior(np.ones(2), beta=0.0, lam=1.0)
        with pytest.raises(ValueError):
            closed_form_posterior(np.ones(2), beta=1.0, lam=0.0)
        with pytest.raises(ValueError):
            closed_form_posterior(np.ones((2, 2, 2)), beta=1.0, lam=1.0)

    @pytest.mark.parametrize("below", [0.0, 1e-3])
    def test_rejects_curvature_with_no_positive_variance(self, below):
        """h + beta/lambda <= 0 has no positive variance."""
        beta, lam = 0.5, 0.25
        with pytest.raises(ValueError, match="has no positive variance"):
            closed_form_posterior(np.array([1.0, -beta / lam - below]),
                                  beta, lam)
        with pytest.raises(ValueError, match="has no positive variance"):
            closed_form_posterior(np.array([-beta / (4.0 * lam) - below]),
                                  beta, 4.0 * lam)
        assert np.all(closed_form_posterior(
            np.array([-0.99 * beta / lam]), beta, lam) > 0)


class TestJointOptimal:
    def test_golden_ratio_instance(self):
        res = joint_optimal_diag(np.array([1.0]), beta=1.0, lam=1.0,
                                 mu_rho=np.array([1.0]), mu_pi=np.array([0.0]))
        assert res.sigma_rho[0] == pytest.approx(0.61803, abs=5e-6)
        assert res.sigma_pi[0] == pytest.approx(1.61803, abs=5e-6)
        assert res.n_floored == 0

    def test_consistency_with_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            h = 10.0 ** rng.uniform(-2, 2, size=d)
            beta, lam = 10.0 ** rng.uniform(-1, 1, size=2)
            mu_rho = rng.normal(size=d)
            mu_pi = mu_rho + rng.normal(size=d)
            res = joint_optimal_diag(h, beta, lam, mu_rho, mu_pi)
            # the fixed-prior optimum against the prior N(mu_pi, lam sigma_pi)
            replay = [closed_form_posterior(h[i:i + 1], beta, lam * s)[0]
                      for i, s in enumerate(res.sigma_pi)]
            assert np.allclose(replay, res.sigma_rho, rtol=1e-10)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(15)
        grid = 10.0 ** np.linspace(-6, 6, 80)
        for _ in range(10):
            h = 10.0 ** rng.uniform(-1, 1)
            beta, lam = 10.0 ** rng.uniform(-1, 1, size=2)
            dmu2 = 10.0 ** rng.uniform(-1, 1)
            res = joint_optimal_diag(
                np.array([h]), beta, lam,
                np.array([np.sqrt(dmu2)]), np.array([0.0]))
            best = joint_objective(h, beta, lam, dmu2,
                                   res.sigma_rho[0], res.sigma_pi[0])
            for s_rho in grid:
                values = joint_objective(h, beta, lam, dmu2, s_rho, grid)
                assert np.min(values) >= best - 1e-9 * max(abs(best), 1.0)

    def test_degenerate_flooring_counts(self):
        res = joint_optimal_diag(np.array([0.0, 1.0]), beta=1.0, lam=1.0,
                                 mu_rho=np.array([1.0, 1.0]),
                                 mu_pi=np.array([1.0, 0.0]))
        assert res.n_floored == 1
        assert np.all(np.isfinite(res.sigma_rho))
        assert np.all(np.isfinite(res.sigma_pi))


def joint_objective(h, beta, lam, dmu2, sigma_rho, sigma_pi):
    """Developed per-coordinate objective with a free prior factor."""
    prior_var = lam * sigma_pi
    kl = 0.5 * (sigma_rho / prior_var + dmu2 / prior_var - 1.0
                + np.log(prior_var) - np.log(sigma_rho))
    return 0.5 * h * sigma_rho + beta * kl


class TestQuadraticObjectives:
    def test_closed_form_dominates_isotropic(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            d = int(rng.integers(2, 10))
            h = 10.0 ** rng.uniform(-2, 2, size=d)
            beta, lam = 10.0 ** rng.uniform(-1, 1, size=2)
            mu = rng.normal(size=d)
            mu0 = rng.normal(size=d)
            best = quadratic_objective_diag(
                h, closed_form_posterior(h, beta, lam), beta, lam, mu, mu0)
            iso = quadratic_objective_diag(
                h, np.full(d, lam), beta, lam, mu, mu0)
            assert best <= iso + 1e-10 * abs(iso)

    def test_joint_dominates_fixed_prior(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = 10.0 ** rng.uniform(-1, 1, size=3)
            beta, lam = 10.0 ** rng.uniform(-1, 1, size=2)
            mu = rng.normal(size=3)
            mu0 = rng.normal(size=3)
            res = joint_optimal_diag(h, beta, lam, mu, mu0)
            at_joint = quadratic_objective_diag(h, res.sigma_rho, beta, lam,
                                                mu, mu0, sigma_pi=res.sigma_pi)
            at_unit = quadratic_objective_diag(
                h, closed_form_posterior(h, beta, lam), beta, lam, mu, mu0)
            assert at_joint <= at_unit + 1e-10 * abs(at_unit)


class TestVI:
    def test_exact_quadratic_converges_to_closed_form(self):
        rng = np.random.default_rng(18)
        d = 40
        h = 10.0 ** rng.uniform(-1, 1, size=d)
        lam, kl_weight = 0.1, 0.02
        theta_star = rng.normal(size=d)

        def grad_fn(theta, epoch, step):
            return h * (theta - theta_star)

        log_sigma = vi_optimize_log_sigma(grad_fn, theta_star, lam, kl_weight,
                                          epochs=5, steps_per_epoch=400,
                                          seed=1, lr=VI_LR)
        expected = closed_form_posterior(h, kl_weight, lam)
        rel = np.abs(np.exp(log_sigma) - expected) / expected
        assert np.median(rel) < 0.05

    def test_adam_equals_the_inline_reference_on_a_quadratic(self):
        rng = np.random.default_rng(20)
        h = 10.0 ** rng.uniform(-1, 1, size=30)
        theta_star = rng.normal(size=30)

        def grad_fn(theta, epoch, step):
            return h * (theta - theta_star)

        args = (grad_fn, theta_star, 0.1, 0.02, 3, 50, 4, VI_LR)
        assert np.array_equal(vi_optimize_log_sigma(*args),
                              vi_log_sigma_oracle(*args))

    def test_adam_equals_the_inline_reference_on_a_net(self, blob_data,
                                                         trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        batches = np.array_split(np.arange(train_ds.n), 5)

        def grad_fn(theta, epoch, step):
            idx = batches[(epoch + step) % len(batches)]
            return grad(spec, theta, train_ds.X[idx], train_ds.y[idx],
                        "categorical")

        args = (grad_fn, record.theta_star, 0.05, 1e-3, 2, 5, 9, VI_LR)
        assert np.array_equal(vi_optimize_log_sigma(*args),
                              vi_log_sigma_oracle(*args))

    def test_zero_loss_gradient_keeps_prior_scale(self):
        theta_star = np.zeros(10)
        log_sigma = vi_optimize_log_sigma(
            lambda theta, epoch, step: np.zeros(10), theta_star, 0.3, 0.1,
            epochs=2, steps_per_epoch=20, seed=2, lr=VI_LR)
        assert np.allclose(np.exp(log_sigma), 0.3, atol=1e-12)

    def test_network_vi_deterministic(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        kwargs = dict(beta=2.0, lam=0.1, epochs=1, seed=5, batch_size=128,
                      lr=VI_LR)
        a = vi_optimize_diag(spec, record.theta_star, train_ds, **kwargs)
        b = vi_optimize_diag(spec, record.theta_star, train_ds, **kwargs)
        assert a.log_variance.tobytes() == b.log_variance.tobytes()

    def test_network_vi_shrinks_sensitive_weights(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        posterior = vi_optimize_diag(spec, record.theta_star, train_ds,
                                     beta=0.001, lam=0.5, epochs=3, seed=6,
                                     batch_size=64, lr=VI_LR)
        sigma = posterior.variance
        assert np.all(sigma > 0)
        assert sigma.min() < 0.5

    def test_network_vi_only_steps_on_mini_batches(self, blob_data,
                                                   trained_net, monkeypatch):
        """The posterior is all it returns: it opens only the shuffle and
        noise streams, and the network sees one mini-batch at a time."""
        train_ds, _ = blob_data
        spec, record = trained_net
        streams, rows = [], []
        rng_for, forward = posteriors.rng_for, nnet.forward

        def recording_rng_for(seed, stream):
            streams.append(stream)
            return rng_for(seed, stream)

        def recording_forward(spec, theta, X):
            rows.append(X.shape[0])
            return forward(spec, theta, X)

        monkeypatch.setattr(posteriors, "rng_for", recording_rng_for)
        monkeypatch.setattr(nnet, "forward", recording_forward)
        posterior = vi_optimize_diag(spec, record.theta_star, train_ds,
                                     beta=2.0, lam=0.1, epochs=2, seed=5,
                                     batch_size=128, lr=VI_LR)
        assert isinstance(posterior, DiagGaussian)
        assert sorted(streams) == ["vi-noise", "vi-shuffle"]
        # 600 rows in batches of 128: five steps per epoch
        assert len(rows) == 10
        assert max(rows) <= 128

    def test_rejects_bad_arguments(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        good = dict(beta=1.0, lam=0.1, epochs=1, seed=0, batch_size=100,
                    lr=VI_LR)
        for bad, message in [(dict(beta=0.0), "beta and lambda"),
                             (dict(epochs=0), "vi_epochs must be at least 1"),
                             (dict(batch_size=0), "vi_batch_size must be at least 1"),
                             (dict(batch_size=-5), "vi_batch_size must be at least 1"),
                             (dict(lr=0.0), "vi_lr must be positive"),
                             (dict(lr=-0.1), "vi_lr must be positive")]:
            with pytest.raises(ValueError, match=message):
                vi_optimize_diag(spec, record.theta_star, train_ds,
                                 **{**good, **bad})
        for bad, message in [(dict(epochs=0), "vi_epochs must be at least 1"),
                             (dict(steps_per_epoch=0), "must be at least 1"),
                             (dict(lr=-0.1), "vi_lr must be positive")]:
            with pytest.raises(ValueError, match=message):
                vi_optimize_log_sigma(
                    lambda theta, epoch, step: np.zeros(10), np.zeros(10),
                    0.3, 0.1, **{**dict(epochs=2, steps_per_epoch=20, seed=2,
                                        lr=VI_LR), **bad})


class TestSkfac:
    def test_zero_hessian_gives_isotropic(self, trained_net):
        spec, record = trained_net
        est = all_block_hessians(spec, record.theta_star,
                                 np.zeros((3, spec.widths[0])))
        # only the first layer has zero activations; check it directly
        post = skfac_posterior(spec, record.theta_star, est, beta=0.5, lam=0.2)
        assert np.allclose(block_covariances(post)[0],
                           0.2 * np.eye(spec.widths[0]), atol=1e-12)

    def test_one_wide_layers_reduce_to_diagonal_formula(self):
        spec = NetSpec((1, 1, 2))
        theta = np.array([0.8, -0.4, 1.1])
        X = np.random.default_rng(20).standard_normal((6, 1))
        est = all_block_hessians(spec, theta, X)
        post = skfac_posterior(spec, theta, est, beta=0.3, lam=0.7)
        covs = block_covariances(post)
        for layer, H in enumerate(block_hessians(spec, theta, X)):
            h = H[0, 0]
            expected = closed_form_posterior(np.array([h]), 0.3, 0.7)[0]
            assert covs[layer][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_inverse(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        est = all_block_hessians(spec, record.theta_star, train_ds.X)
        beta, lam = 0.004, 0.08
        post = skfac_posterior(spec, record.theta_star, est, beta, lam)
        hessians = block_hessians(spec, record.theta_star, train_ds.X)
        covs = block_covariances(post)
        for layer, H in enumerate(hessians):
            direct = beta * np.linalg.inv(H + (beta / lam) * np.eye(H.shape[0]))
            np.testing.assert_allclose(covs[layer], direct, rtol=0,
                                       atol=1e-10)
            # every neuron of the layer carries the same basis variances
            per_neuron = spec.to_matrices(post.log_variance)[layer]
            assert np.array_equal(per_neuron,
                                  np.tile(per_neuron[0], (len(per_neuron), 1)))

    def test_random_probes_confirm_optimality(self):
        rng = np.random.default_rng(21)
        k = 3
        M = rng.standard_normal((k, k))
        H = M @ M.T
        beta, lam = 0.4, 0.6
        cov_star = beta * np.linalg.inv(H + (beta / lam) * np.eye(k))

        def objective(cov):
            sign, logdet = np.linalg.slogdet(cov)
            kl = 0.5 * (np.trace(cov) / lam - k + k * np.log(lam) - logdet)
            return 0.5 * np.trace(H @ cov) + beta * kl

        best = objective(cov_star)
        for trial in range(1000):
            V = rng.standard_normal((k, k)) * 0.3
            probe = cov_star + 0.05 * (V @ V.T)
            probe += 1e-6 * np.eye(k)
            assert objective(probe) >= best - 1e-10

    def test_block_dominates_diagonal_restriction(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        est = all_block_hessians(spec, record.theta_star, train_ds.X)
        beta, lam = 0.002, 0.1
        post = skfac_posterior(spec, record.theta_star, est, beta, lam)
        hessians = block_hessians(spec, record.theta_star, train_ds.X)
        full = quadratic_objective_block(
            hessians, block_covariances(post), spec,
            beta, lam, record.theta_star, record.theta0)
        diag_covs = [
            np.diag(closed_form_posterior(np.diag(H), beta, lam))
            for H in hessians
        ]
        restricted = quadratic_objective_block(
            hessians, diag_covs, spec, beta, lam,
            record.theta_star, record.theta0)
        assert full <= restricted + 1e-10 * abs(restricted)

    def test_kl_block_consistency(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        est = all_block_hessians(spec, record.theta_star, train_ds.X)
        for beta, lam in [(0.01, 0.1), (1.0 / train_ds.n, 0.001)]:
            post = skfac_posterior(spec, record.theta_star, est, beta, lam)
            covs = block_covariances(post)
            # with zero Hessians and beta 1 the block objective is the KL
            # summed from each neuron's dense covariance (slogdet, trace)
            dense = quadratic_objective_block(
                [np.zeros_like(cov) for cov in covs], covs, spec, 1.0, lam,
                record.theta_star, record.theta0)
            kl = kl_block(post, record.theta0, lam)
            assert kl > 0.0
            assert kl == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize("below", [0.0, 1e-3])
    def test_rejects_eigenvalue_at_or_below_minus_beta_over_lambda(self,
                                                                   below):
        spec = NetSpec((2, 2, 2))
        beta, lam = 0.5, 0.25
        fine = LayerEig(eigvals=np.array([1.0, 0.0]), eigvecs=np.eye(2))
        bad = LayerEig(eigvals=np.array([1.0, -beta / lam - below]),
                       eigvecs=np.eye(2))
        theta = np.zeros(spec.n_params)
        skfac_posterior(spec, theta, [fine, fine], beta, lam)
        with pytest.raises(ValueError, match="has no positive variance"):
            skfac_posterior(spec, theta, [fine, bad], beta, lam)

    def test_variances_are_the_closed_form_on_each_layer(self, blob_data,
                                                         trained_net):
        """Each neuron's log-variances are log of `closed_form_posterior` on
        its layer Hessian's eigenvalues, bit for bit."""
        train_ds, _ = blob_data
        spec, record = trained_net
        est = all_block_hessians(spec, record.theta_star, train_ds.X)
        for beta, lam in [(0.004, 0.08), (1.0 / train_ds.n, 0.001)]:
            post = skfac_posterior(spec, record.theta_star, est, beta, lam)
            for eig, logv in zip(est, spec.to_matrices(post.log_variance)):
                expected = np.log(closed_form_posterior(eig.eigvals, beta, lam))
                for row in logv:
                    assert np.array_equal(row, expected)

    @pytest.mark.parametrize("beta, lam", [(0.0, 0.1), (0.1, 0.0),
                                           (-0.1, 0.1)])
    def test_rejects_nonpositive_beta_or_lambda(self, beta, lam):
        spec = NetSpec((2, 2, 2))
        fine = LayerEig(eigvals=np.array([1.0, 0.0]), eigvecs=np.eye(2))
        with pytest.raises(ValueError, match="must be positive"):
            skfac_posterior(spec, np.zeros(spec.n_params), [fine, fine],
                            beta, lam)
