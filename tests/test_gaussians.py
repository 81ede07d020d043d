"""Gaussian primitives, KL divergences, penalty terms, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, stats

from pbcert.gaussians import (
    BlockGaussian,
    DiagGaussian,
    DimensionMismatchError,
    catoni_inv,
    chernoff_gap,
    kl_block,
    kl_diag,
    sample_gaussian,
    union_bound_nats,
)
from pbcert.nnet import NetSpec
from pbcert.rng import rng_for
from tests.conftest import block_covariances, random_block_gaussian


def kl_1d_numeric(mq, vq, mp, vp) -> float:
    """Numeric-integration oracle for 1-D Gaussian KL."""
    q = stats.norm(mq, math.sqrt(vq))
    p = stats.norm(mp, math.sqrt(vp))

    def integrand(x):
        return q.pdf(x) * (q.logpdf(x) - p.logpdf(x))

    lo, hi = mq - 12 * math.sqrt(vq), mq + 12 * math.sqrt(vq)
    value, _ = integrate.quad(integrand, lo, hi, limit=200)
    return value


class TestDiagGaussian:
    def test_from_variance_round_trip(self):
        g = DiagGaussian.from_variance([0.0, 1.0], [0.5, 2.0])
        assert np.allclose(g.variance, [0.5, 2.0])

    def test_from_variance_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DiagGaussian.from_variance([0.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DiagGaussian(np.zeros(3), np.zeros(2))

    def test_immutable_arrays(self):
        g = DiagGaussian.isotropic(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            g.mean[0] = 1.0


class TestKLDiag:
    def test_identical_is_zero(self):
        g = DiagGaussian.from_variance([1.0, -2.0], [0.3, 4.0])
        assert kl_diag(g, g) == 0.0

    def test_unit_shift_is_half(self):
        q = DiagGaussian.isotropic(np.array([1.0]), 1.0)
        p = DiagGaussian.isotropic(np.array([0.0]), 1.0)
        assert kl_diag(q, p) == pytest.approx(0.5, abs=1e-12)

    def test_double_variance_2d_value(self):
        q = DiagGaussian.from_variance(np.zeros(2), [2.0, 2.0])
        p = DiagGaussian.isotropic(np.zeros(2), 1.0)
        assert kl_diag(q, p) == pytest.approx(0.30685, abs=1e-5)
        assert kl_diag(q, p) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_matches_numeric_integration(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mq, mp = rng.normal(size=2)
            vq, vp = np.exp(rng.uniform(-2, 2, size=2))
            q = DiagGaussian.from_variance([mq], [vq])
            p = DiagGaussian.from_variance([mp], [vp])
            expected = kl_1d_numeric(mq, vq, mp, vp)
            assert kl_diag(q, p) == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_diag_sums_over_coordinates(self):
        rng = np.random.default_rng(6)
        mq, mp = rng.normal(size=(2, 4))
        vq, vp = np.exp(rng.uniform(-1, 1, size=(2, 4)))
        total = kl_diag(DiagGaussian.from_variance(mq, vq),
                        DiagGaussian.from_variance(mp, vp))
        per_coord = sum(
            kl_diag(DiagGaussian.from_variance([mq[i]], [vq[i]]),
                    DiagGaussian.from_variance([mp[i]], [vp[i]]))
            for i in range(4)
        )
        assert total == pytest.approx(per_coord, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_diag(DiagGaussian.isotropic(np.zeros(2), 1.0),
                    DiagGaussian.isotropic(np.zeros(3), 1.0))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6).flatmap(
        lambda ms: st.tuples(
            st.just(ms),
            st.lists(st.floats(-2, 2), min_size=len(ms), max_size=len(ms)),
            st.lists(st.floats(-5, 5), min_size=len(ms), max_size=len(ms)),
            st.lists(st.floats(-2, 2), min_size=len(ms), max_size=len(ms)),
        )))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, params):
        mq, lvq, mp, lvp = params
        q = DiagGaussian(np.array(mq), np.array(lvq))
        p = DiagGaussian(np.array(mp), np.array(lvp))
        assert kl_diag(q, p) >= -1e-12


def dense_covariance(q: BlockGaussian) -> np.ndarray:
    """q's whole covariance: one copy of its layer's block per neuron."""
    return linalg.block_diag(*[cov for cov, (rows, _) in zip(
        block_covariances(q), q.spec.layer_shapes) for _ in range(rows)])


class TestKLBlock:
    def test_isotropic_block_matches_prior_is_zero(self):
        spec = NetSpec((3, 2, 1))
        q = random_block_gaussian(spec, np.zeros(spec.n_params), seed=1)
        q = BlockGaussian(q.mean, np.full(q.dim, math.log(0.7)), q.bases,
                          q.spec)
        assert kl_block(q, q.mean, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_one_by_one_blocks_match_diag(self):
        rng = np.random.default_rng(8)
        mean = rng.normal(size=3)
        variances = np.exp(rng.uniform(-1, 1, size=3))
        q_block = BlockGaussian(mean, np.log(variances),
                                (np.ones((1, 1)), -np.ones((1, 1)),
                                 np.ones((1, 1))), NetSpec((1, 1, 1, 1)))
        q_diag = DiagGaussian.from_variance(mean, variances)
        prior_mean = rng.normal(size=3)
        lam = 0.4
        expected = kl_diag(q_diag, DiagGaussian.isotropic(prior_mean, lam))
        assert kl_block(q_block, prior_mean, lam) == pytest.approx(
            expected, abs=1e-12)

    def test_full_block_value(self):
        spec = NetSpec((2, 1, 1))
        q = random_block_gaussian(spec, np.zeros(3), seed=2)
        q = BlockGaussian(q.mean, np.full(3, math.log(2.0)), q.bases, spec)
        assert kl_block(q, np.zeros(3), 1.0) == pytest.approx(
            1.5 * (1.0 - math.log(2.0)), abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_covariance_formula(self, seed):
        """KL(N(mu, Sigma) || N(mu0, lambda I)) with the slogdet and trace of
        the whole block-diagonal Sigma, one U diag(s) U' block per neuron."""
        spec = NetSpec((3, 4, 3, 2))
        d = spec.n_params
        rng = np.random.default_rng(seed)
        q = random_block_gaussian(spec, rng.normal(size=d), seed=seed,
                                  scale=0.3)
        prior_mean = rng.normal(size=d)
        lam = 0.5
        cov = dense_covariance(q)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        gap = q.mean - prior_mean
        expected = 0.5 * (np.trace(cov) / lam + gap @ gap / lam - d
                          + d * math.log(lam) - logdet)
        assert kl_block(q, prior_mean, lam) == pytest.approx(expected,
                                                             rel=1e-9)

    def test_block_coverage_mismatch(self):
        spec = NetSpec((2, 2, 1))
        q = random_block_gaussian(spec, np.zeros(spec.n_params), seed=3)
        BlockGaussian(np.zeros(6), np.zeros(6), q.bases, spec)
        for d in (5, 7):
            with pytest.raises(DimensionMismatchError, match="parameters"):
                BlockGaussian(np.zeros(d), np.zeros(d), q.bases, spec)

    def test_one_square_basis_per_layer(self):
        spec = NetSpec((2, 1, 1))
        BlockGaussian(np.zeros(3), np.zeros(3), (np.eye(2), np.eye(1)), spec)
        for bases in [(np.eye(2),),                       # a layer short
                      (np.eye(2), np.eye(1), np.eye(1)),  # a layer over
                      (np.ones((2, 1)), np.eye(1)),       # not square
                      (np.eye(1), np.eye(2))]:            # not fan_in wide
            with pytest.raises(DimensionMismatchError, match="basis"):
                BlockGaussian(np.zeros(3), np.zeros(3), bases, spec)

    def test_non_finite_log_variance_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            BlockGaussian(np.zeros(3), np.array([0.0, -np.inf, 0.0]),
                          (np.eye(2), np.eye(1)), NetSpec((2, 1, 1)))

    def test_nonpositive_prior_scale(self):
        q = random_block_gaussian(NetSpec((2, 1, 1)), np.zeros(3), seed=4)
        with pytest.raises(ValueError):
            kl_block(q, np.zeros(3), 0.0)


class TestCatoniInv:
    def test_endpoints(self):
        assert catoni_inv(3.0, 0.0) == 0.0
        assert catoni_inv(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_values(self):
        assert catoni_inv(1.0, 0.5) == pytest.approx(0.62246, abs=5e-6)
        assert catoni_inv(2.0, 0.07) == pytest.approx(0.15109, abs=5e-5)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            catoni_inv(0.0, 0.5)

    @given(st.floats(0.01, 50.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_dominates_argument(self, beta, x):
        assert catoni_inv(beta, x) >= x - 1e-12

    @given(st.floats(0.01, 20.0), st.floats(0.0, 0.8),
           st.floats(1e-5, 0.02))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing(self, beta, x, dx):
        assert catoni_inv(beta, x + dx) > catoni_inv(beta, x)


class TestChernoffGap:
    def test_paper_values(self):
        assert chernoff_gap(1000, 0.05) == pytest.approx(0.0607, abs=5e-4)
        assert chernoff_gap(100, 0.05) == pytest.approx(0.192, abs=1e-3)

    def test_decreasing_in_m(self):
        gaps = [chernoff_gap(m, 0.025) for m in (10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_gap(0, 0.05)
        with pytest.raises(ValueError):
            chernoff_gap(100, 0.0)
        with pytest.raises(ValueError):
            chernoff_gap(100, 1.0)


class TestUnionBound:
    def test_worked_example(self):
        value = union_bound_nats(0.05, 100.0, 0.1, 0.025)
        assert value == pytest.approx(12.664, abs=2e-3)

    def test_tiny_after_normalization(self):
        value = union_bound_nats(0.05, 100.0, 0.1, 0.025) / (1.0 * 50000)
        assert value < 3e-4

    def test_lambda_must_be_below_c(self):
        with pytest.raises(ValueError):
            union_bound_nats(0.1, 100.0, 0.1, 0.025)
        with pytest.raises(ValueError):
            union_bound_nats(0.2, 100.0, 0.1, 0.025)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            union_bound_nats(0.05, 0.0, 0.1, 0.025)
        with pytest.raises(ValueError):
            union_bound_nats(0.05, 100.0, 0.1, 1.5)

    def test_grid_index_below_one_rejected(self):
        # j = 100 ln(1/0.99999) = 0.001: the formula would give -9.6 nats
        with pytest.raises(ValueError, match="below 1"):
            union_bound_nats(0.99999, 100.0, 1.0, 0.025)

    @given(c=st.floats(1e-3, 10.0),
           fraction=st.floats(1e-9, 1.0, exclude_max=True),
           b=st.floats(1e-2, 1e4),
           delta=st.floats(1e-6, 1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_never_below_plain_confidence_penalty(self, c, fraction, b, delta):
        lam = c * fraction
        if not 0.0 < lam < c:
            return
        try:
            value = union_bound_nats(lam, b, c, delta)
        except ValueError:
            assert b * math.log(c / lam) < 1.0
            return
        assert value >= math.log(1.0 / delta)


class TestSampling:
    def test_deterministic(self):
        g = DiagGaussian.from_variance(np.arange(4.0), np.full(4, 0.3))
        a = sample_gaussian(g, seed=9)
        b = sample_gaussian(g, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_gaussian(g, seed=10))

    def test_tiny_variance_returns_mean(self):
        mean = np.array([2.0, -1.0, 0.5])
        g = DiagGaussian.from_variance(mean, np.full(3, 1e-20))
        assert np.allclose(sample_gaussian(g, seed=0), mean, atol=1e-8)

    def test_diag_moments(self):
        mean = np.array([1.0, -2.0, 0.0])
        var = np.array([0.5, 2.0, 1.0])
        g = DiagGaussian.from_variance(mean, var)
        draws = np.array([sample_gaussian(g, seed=s) for s in range(8000)])
        assert np.allclose(draws.mean(axis=0), mean, atol=0.06)
        assert np.allclose(draws.var(axis=0), var, rtol=0.1)

    def test_block_covariance_moments(self):
        spec = NetSpec((3, 2, 1))
        q = random_block_gaussian(spec, np.zeros(spec.n_params), seed=5,
                                  scale=1.0)
        cov = block_covariances(q)[0]
        draws = np.array([sample_gaussian(q, seed=s) for s in range(8000)])
        for neuron in range(2):
            emp = np.cov(draws[:, 3 * neuron:3 * neuron + 3].T)
            np.testing.assert_allclose(emp, cov, atol=0.1)
        # neurons are independent of each other
        cross = np.cov(draws.T)[:3, 3:6]
        assert np.all(np.abs(cross) < 0.06)

    def test_block_matches_per_neuron_reference(self):
        """Each neuron's weights are mean + U (sqrt(s) * z) for its own
        slice z of the seed's normal draw."""
        rng = np.random.default_rng(4)
        spec = NetSpec((30, 20, 5))
        mean = rng.standard_normal(spec.n_params)
        dist = random_block_gaussian(spec, mean, seed=4)
        for seed in range(5):
            z = rng_for(seed, "sample").standard_normal(dist.dim)
            scale = np.exp(0.5 * dist.log_variance)
            reference = np.array(mean)
            offset = 0
            for (neurons, k), U in zip(spec.layer_shapes, dist.bases):
                for _ in range(neurons):
                    part = slice(offset, offset + k)
                    reference[part] += U @ (scale[part] * z[part])
                    offset += k
            # one product per layer sums each entry in another order
            np.testing.assert_allclose(sample_gaussian(dist, seed), reference,
                                       rtol=0, atol=1e-13)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            sample_gaussian(object(), seed=0)
