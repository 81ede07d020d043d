"""End-to-end acceptance gate.

Each test exercises one primary acceptance criterion at its stated
tolerance and prints a single pass line (visible even under capture).
Criteria 4, 5, and 8 share one desk-scale training run via a
module-scoped fixture.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pbcert.certify import (
    GridContext,
    grid_search,
    pareto_front,
    write_certificates_csv,
)
from pbcert.curvature import (
    all_block_hessians,
    block_hessians,
    diag_fisher,
    landscape_probe,
)
from pbcert.data import Dataset, synthetic_blobs
from pbcert.gaussians import chernoff_gap
from pbcert.nnet import NetSpec, TrainerConfig, forward, train
from pbcert.posteriors import (
    closed_form_posterior,
    joint_optimal_diag,
    skfac_posterior,
    vi_optimize_log_sigma,
)
from tests.conftest import (
    block_covariances,
    error_propagation_check,
    ggn_diag_oracle,
    quadratic_objective_block,
    quadratic_objective_diag,
    settings,
)
from tests.test_posteriors import joint_objective, scalar_objective


def report(capsys, criterion: int, elapsed: float, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


@pytest.fixture(scope="module")
def desk_run():
    """2-class 784-dim 10k-sample run with 100-100 hidden widths."""
    rng = np.random.default_rng(424242)
    d, k, n_train, n_test = 784, 2, 10000, 2000
    prototypes = np.where(rng.random((k, d)) < 0.5, 0.45, 0.55)

    def make(n, split_rng):
        y = split_rng.integers(0, k, size=n)
        X = np.clip(prototypes[y] + 0.25 * split_rng.standard_normal((n, d)),
                    0.0, 1.0)
        # 10% label noise keeps the minimum of the loss away from zero so
        # the basin has visible curvature instead of a flat overfit floor
        y = np.where(split_rng.random(n) < 0.1, 1 - y, y)
        return Dataset(X=X, y=y, k=k)

    train_ds = make(n_train, np.random.default_rng(7))
    test_ds = make(n_test, np.random.default_rng(8))
    spec = NetSpec((d, 100, 100, k))
    config = TrainerConfig(**settings("train", epochs=10, batch_size=128,
                                      lr=0.01))
    record = train(spec, train_ds, config, seed=31, test_data=test_ds)
    assert record.final_train_error < 0.12
    return spec, record, train_ds, test_ds


def test_criterion_1_closed_form_vs_coordinate_descent(capsys):
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 11))
        h = 10.0 ** rng.uniform(-3, 3, size=d)
        beta = 10.0 ** rng.uniform(-3, 3)
        lam = 10.0 ** rng.uniform(-3, 3)
        sigma = closed_form_posterior(h, beta, lam)
        for i in range(d):
            res = minimize_scalar(
                lambda t: scalar_objective(np.exp(t), h[i], beta, lam, 0.0),
                bounds=(-50.0, 50.0), method="bounded",
                options={"xatol": 1e-13})
            oracle = float(np.exp(res.x))
            worst = max(worst, abs(sigma[i] - oracle) / oracle)
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    report(capsys, 1, elapsed,
           f"20 instances, worst per-coordinate deviation {worst:.2e}")


def test_criterion_2_joint_optimum_oracle(capsys):
    start = time.time()
    rng = np.random.default_rng(102)
    grid = 10.0 ** np.linspace(-6, 6, 200)
    worst_consistency = 0.0
    for _ in range(50):
        h = 10.0 ** rng.uniform(-2, 2)
        beta = 10.0 ** rng.uniform(-1.5, 1.5)
        lam = 10.0 ** rng.uniform(-1.5, 1.5)
        dmu = 10.0 ** rng.uniform(-1, 1)
        res = joint_optimal_diag(np.array([h]), beta, lam,
                                 np.array([dmu]), np.array([0.0]))
        best = joint_objective(h, beta, lam, dmu ** 2,
                               res.sigma_rho[0], res.sigma_pi[0])
        # closed form beats the full 200x200 log-spaced grid
        for s_rho in grid:
            values = joint_objective(h, beta, lam, dmu ** 2, s_rho, grid)
            assert np.min(values) >= best - 1e-9 * max(abs(best), 1.0)
        # consistency: the fixed-prior optimum at sigma_pi* returns sigma_rho*
        replay = closed_form_posterior(np.array([h]), beta,
                                       lam * res.sigma_pi[0])[0]
        worst_consistency = max(
            worst_consistency, abs(replay - res.sigma_rho[0]) / res.sigma_rho[0])
    assert worst_consistency < 1e-10
    golden = joint_optimal_diag(np.array([1.0]), 1.0, 1.0,
                                np.array([1.0]), np.array([0.0]))
    assert golden.sigma_rho[0] == pytest.approx(0.61803, abs=5e-6)
    assert golden.sigma_pi[0] == pytest.approx(1.61803, abs=5e-6)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(capsys, 2, elapsed,
           f"50 instances beat the 200x200 grid; consistency "
           f"{worst_consistency:.2e}; golden ratio reproduced")


def test_criterion_3_penalty_arithmetic(capsys):
    start = time.time()
    assert chernoff_gap(1000, 0.05) == pytest.approx(0.0607, abs=5e-4)
    assert chernoff_gap(100, 0.05) == pytest.approx(0.192, abs=1e-3)
    report(capsys, 3, time.time() - start,
           f"chernoff_gap(1000,0.05)={chernoff_gap(1000, 0.05):.4f}, "
           f"chernoff_gap(100,0.05)={chernoff_gap(100, 0.05):.4f}")


def test_criterion_4_desk_scale_non_vacuity(desk_run, capsys):
    start = time.time()
    spec, record, train_ds, _ = desk_run
    ctx = GridContext(spec=spec, theta_star=record.theta_star,
                      theta0=record.theta0, data=train_ds,
                      **settings("grid", m=100, seed=31))
    beta_grid = [1.0, 5.0]
    lambda_grid = list(np.geomspace(0.031, 0.3, 3))
    init = grid_search("iso-init", beta_grid, lambda_grid, ctx)
    zero = grid_search("iso-zero", beta_grid, lambda_grid, ctx)
    assert not init.failures and not zero.failures
    best = min(c.bound_value for c in init.certificates)
    assert best < 1.0
    by_cell = {(c.beta, c.lam): c for c in init.certificates}
    for cert in zero.certificates:
        # one posterior, one MC estimate: the rows differ in their KL only
        assert cert.risk_mc == by_cell[(cert.beta, cert.lam)].risk_mc
        assert cert.kl_nats >= by_cell[(cert.beta, cert.lam)].kl_nats
    elapsed = time.time() - start
    assert elapsed < 45 * 60
    n_nonvac = sum(1 for c in init.certificates if c.bound_value < 1.0)
    report(capsys, 4, elapsed,
           f"best prior-at-init bound {best:.4f}; {n_nonvac}/"
           f"{len(init.certificates)} cells non-vacuous; zero-centered KL "
           f">= init-centered KL and the same MC risk at every cell")


def test_criterion_5_quadratic_dominance(desk_run, capsys):
    start = time.time()
    spec, record, train_ds, _ = desk_run
    n = train_ds.n
    h = diag_fisher(spec, record.theta_star, train_ds.X)
    blocks = all_block_hessians(spec, record.theta_star, train_ds.X)
    hessians = block_hessians(spec, record.theta_star, train_ds.X)
    improvements = []
    for beta, lam in [(1.0, 0.031), (5.0, 0.1), (2.0, 0.3)]:
        beta_obj = 1.0 / (beta * n)
        diag_best = quadratic_objective_diag(
            h, closed_form_posterior(h, beta_obj, lam), beta_obj, lam,
            record.theta_star, record.theta0)
        iso = quadratic_objective_diag(
            h, np.full(h.shape, lam), beta_obj, lam,
            record.theta_star, record.theta0)
        assert diag_best <= iso
        post = skfac_posterior(spec, record.theta_star, blocks, beta_obj, lam)
        block_best = quadratic_objective_block(
            hessians, block_covariances(post), spec,
            beta_obj, lam, record.theta_star, record.theta0)
        diag_restricted = quadratic_objective_block(
            hessians,
            [np.diag(closed_form_posterior(np.diag(H), beta_obj, lam))
             for H in hessians],
            spec, beta_obj, lam, record.theta_star, record.theta0)
        assert block_best <= diag_restricted
        improvements.append(
            (100 * (iso - diag_best) / iso,
             100 * (diag_restricted - block_best) / diag_restricted))
    elapsed = time.time() - start
    info = "; ".join(f"diag {a:.1f}%, block {b:.1f}%"
                     for a, b in improvements)
    report(capsys, 5, elapsed,
           f"dominance exact at 3 grid points (informational gains: {info})")


def test_criterion_6_vi_matches_closed_form(capsys):
    start = time.time()
    rng = np.random.default_rng(106)
    d = 100
    h = 10.0 ** rng.uniform(-1, 1, size=d)
    lam, kl_weight = 0.1, 0.02
    theta_star = rng.normal(size=d)

    def grad_fn(theta, epoch, step):
        return h * (theta - theta_star)

    log_sigma = vi_optimize_log_sigma(grad_fn, theta_star, lam, kl_weight,
                                      epochs=5, steps_per_epoch=400, seed=6,
                                      lr=settings("posterior")["vi_lr"])
    expected = closed_form_posterior(h, kl_weight, lam)
    rel = np.abs(np.exp(log_sigma) - expected) / expected
    median = float(np.median(rel))
    elapsed = time.time() - start
    assert median < 0.05
    assert elapsed < 120.0
    report(capsys, 6, elapsed,
           f"median relative variance error {median:.3f} after 5 epochs "
           f"(d={d})")


def test_criterion_7_curvature_correctness(capsys):
    start = time.time()
    # block Hessian vs finite-difference Hessian of the layerwise error
    spec = NetSpec((3, 4, 2))
    rng = np.random.default_rng(107)
    theta = 0.7 * rng.standard_normal(spec.n_params)
    X = rng.standard_normal((8, 3))
    worst_block = 0.0
    for layer, H in enumerate(block_hessians(spec, theta, X)):
        A = forward(spec, theta, X).activations[layer]
        w_star = spec.to_matrices(theta)[layer][0]

        def layer_error(w_row):
            return float(np.sum((A @ (w_row - w_star)) ** 2) / X.shape[0])

        step = 1e-4
        k = w_star.shape[0]
        for i in range(k):
            for j in range(k):
                pts = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    w = w_star.copy()
                    w[i] += si * step
                    w[j] += sj * step
                    pts.append(layer_error(w))
                fd = (pts[0] - pts[1] - pts[2] + pts[3]) / (4 * step * step)
                worst_block = max(worst_block, abs(fd - H[i, j]))
    assert worst_block < 1e-5

    # diagonal Fisher vs the finite-difference GGN diagonal of the mean
    # loss, for two and three classes
    X_small = rng.standard_normal((4, 3))
    worst_fisher = 0.0
    for k in (2, 3):
        spec_k = NetSpec((3, 4, k))
        theta_k = 0.7 * rng.standard_normal(spec_k.n_params)
        oracle = ggn_diag_oracle(spec_k, theta_k, X_small)
        est = diag_fisher(spec_k, theta_k, X_small)
        worst_fisher = max(worst_fisher, float(np.max(
            np.abs(est - oracle) / np.maximum(oracle, 1e-8))))
    assert worst_fisher < 1e-5
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(capsys, 7, elapsed,
           f"block Hessian FD error {worst_block:.2e}; "
           f"Fisher vs GGN FD relative error {worst_fisher:.2e} (k = 2, 3)")


def test_criterion_8_landscape_probe(desk_run, capsys):
    start = time.time()
    spec, record, train_ds, _ = desk_run
    lam = 0.04
    radius = np.sqrt(lam * spec.n_params)
    probe = landscape_probe(spec, record.theta_star, train_ds, 4,
                            np.linspace(-radius, radius, 13), [lam], seed=9,
                            loss_kind=settings("train")["loss"])
    assert probe.bubble_radii[lam] == pytest.approx(radius)
    assert np.all(probe.fit_r2 > 0.9)
    elapsed = time.time() - start
    assert elapsed < 5 * 60
    report(capsys, 8, elapsed,
           f"R^2 per direction {np.round(probe.fit_r2, 4).tolist()} within "
           f"bubble radius {radius:.1f}")


def test_criterion_9_error_propagation(capsys):
    start = time.time()
    spec = NetSpec((6, 8, 6, 3))
    rng = np.random.default_rng(109)
    theta = 0.8 * rng.standard_normal(spec.n_params)
    data = synthetic_blobs(60, 6, 3, 2.0, seed=9)
    report_obj = error_propagation_check(spec, theta, data, scale=1.2, seed=9,
                                         n_trials=100)
    violations = sum(
        (not t.lipschitz_ok) + (not t.accumulation_ok)
        for t in report_obj.trials
    )
    assert violations == 0
    assert report_obj.all_ok
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(capsys, 9, elapsed,
           "both inequalities hold on 100/100 random bounded perturbations")


def test_criterion_10_determinism_and_pareto(tmp_path, blob_data,
                                             trained_net, capsys):
    start = time.time()
    train_ds, _ = blob_data
    spec, record = trained_net
    ctx = GridContext(spec=spec, theta_star=record.theta_star,
                      theta0=record.theta0, data=train_ds,
                      **settings("grid", m=20, seed=12))
    paths = []
    for run in range(2):
        # a fresh context per run, so the second sweep draws again
        result = grid_search("iso-init", [1.0, 3.0], [0.05, 0.15],
                             replace(ctx))
        path = tmp_path / f"certs_{run}.csv"
        write_certificates_csv(path, result.certificates)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    rng = np.random.default_rng(110)
    rows = [SimpleNamespace(risk_mc=float(x), complexity=float(y))
            for x, y in zip(rng.random(1000), 5 * rng.random(1000))]
    fast = {(r.risk_mc, r.complexity) for r in pareto_front(rows)}
    slow = set()
    for p in rows:
        if not any(q.risk_mc <= p.risk_mc and q.complexity <= p.complexity
                   and (q.risk_mc < p.risk_mc or q.complexity < p.complexity)
                   for q in rows):
            slow.add((p.risk_mc, p.complexity))
    assert fast == slow
    elapsed = time.time() - start
    report(capsys, 10, elapsed,
           f"CSV bytes identical across replays; Pareto front matches the "
           f"O(n^2) oracle ({len(fast)} points)")
