"""Bound assembly, Monte-Carlo risk, grid sweeps, Pareto fronts, CSV IO."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

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
from pbcert.certify import (
    FAMILIES,
    BoundCertificate,
    GridContext,
    _mc_key,
    assemble_bound,
    build_posterior,
    complexity_metric,
    grid_search,
    mc_empirical_risk,
    pareto_front,
    read_certificates_csv,
    reference_star,
    write_certificates_csv,
    write_pareto_csv,
)
from pbcert.gaussians import DiagGaussian, catoni_inv
from pbcert.nnet import NetSpec, forward, loss
from pbcert.rng import child_seed


def row(risk, complexity, family=""):
    """A row as `pareto_front` reads it."""
    return SimpleNamespace(risk_mc=risk, complexity=complexity, family=family)


def coords(rows):
    return [(r.risk_mc, r.complexity) for r in rows]


def dominance_oracle(rows):
    """O(n^2) non-domination check."""
    front = []
    for p in rows:
        dominated = any(
            q.risk_mc <= p.risk_mc and q.complexity <= p.complexity
            and (q.risk_mc < p.risk_mc or q.complexity < p.complexity)
            for q in rows
        )
        if not dominated:
            front.append(p)
    return front


class TestMcEmpiricalRisk:
    def test_tiny_variance_equals_deterministic_error(self, blob_data,
                                                      trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        posterior = DiagGaussian.from_variance(
            record.theta_star, np.full(spec.n_params, 1e-20))
        risk, errors = mc_empirical_risk(posterior, spec, train_ds, m=5, seed=0)
        deterministic = loss(
            "zero_one", forward(spec, record.theta_star, train_ds.X).outputs,
            train_ds.y)
        assert risk == pytest.approx(deterministic, abs=1e-15)
        assert np.all(errors == errors[0])

    def test_huge_variance_is_chance_level(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        posterior = DiagGaussian.from_variance(
            record.theta_star, np.full(spec.n_params, 1e8))
        risk, _ = mc_empirical_risk(posterior, spec, train_ds, m=40, seed=1)
        assert abs(risk - (1 - 1 / train_ds.k)) < 0.1

    def test_deterministic_and_scheduling_independent(self, blob_data,
                                                      trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        posterior = DiagGaussian.isotropic(record.theta_star, 0.05)
        a, errs_a = mc_empirical_risk(posterior, spec, train_ds, m=10, seed=2)
        b, errs_b = mc_empirical_risk(posterior, spec, train_ds, m=10, seed=2)
        assert a == b and np.array_equal(errs_a, errs_b)
        # the first draws of a longer run coincide with a shorter run
        _, errs_c = mc_empirical_risk(posterior, spec, train_ds, m=4, seed=2)
        assert np.array_equal(errs_a[:4], errs_c)

    def test_rejects_m_below_one(self, blob_data, trained_net):
        train_ds, _ = blob_data
        spec, record = trained_net
        posterior = DiagGaussian.isotropic(record.theta_star, 0.05)
        with pytest.raises(ValueError):
            mc_empirical_risk(posterior, spec, train_ds, m=0, seed=0)


class TestAssembleBound:
    def test_worked_example_with_negligible_penalties(self):
        cert = assemble_bound(
            family="iso-zero", risk_mc=0.05, kl_nats=2000.0, beta=2.0,
            lam=0.05, n=50000, m=10 ** 12, delta=0.025, delta_prime=0.025,
            b=100.0, c=0.1)
        assert cert.bound_value == pytest.approx(0.15109, abs=5e-4)
        assert cert.complexity == pytest.approx(0.10109, abs=5e-5)

    def test_complexity_excludes_penalties(self):
        value = complexity_metric(risk_mc=0.05, kl_nats=2000.0, beta_star=2.0,
                                  n=50000)
        expected = catoni_inv(2.0, 0.05 + 2000.0 / (2.0 * 50000)) - 0.05
        assert value == expected
        assert value == pytest.approx(0.10109, abs=5e-5)

    def test_replay_is_bitwise(self):
        cert = assemble_bound(
            family="iso-init", risk_mc=0.12, kl_nats=480.0, beta=3.0,
            lam=0.07, n=6000, m=100, delta=0.025, delta_prime=0.025,
            b=100.0, c=1.0, seed=77)
        replay = assemble_bound(
            family=cert.family, risk_mc=cert.risk_mc, kl_nats=cert.kl_nats,
            beta=cert.beta, lam=cert.lam, n=cert.n, m=cert.m,
            delta=cert.delta, delta_prime=cert.delta_prime, b=cert.b,
            c=cert.c, seed=cert.seed)
        assert replay.bound_value == cert.bound_value
        assert replay.complexity == cert.complexity

    def test_clipped_at_one(self):
        cert = assemble_bound(
            family="iso-zero", risk_mc=0.9, kl_nats=1e6, beta=1.0, lam=0.05,
            n=100, m=10, delta=0.025, delta_prime=0.025, b=100.0, c=1.0)
        assert cert.bound_value == 1.0

    def test_monotone_in_kl_m_n(self):
        base = dict(family="iso-zero", risk_mc=0.1, beta=2.0, lam=0.05,
                    delta=0.025, delta_prime=0.025, b=100.0, c=1.0)
        by_kl = [assemble_bound(kl_nats=kl, n=5000, m=100, **base).bound_value
                 for kl in (10.0, 100.0, 1000.0)]
        assert by_kl == sorted(by_kl)
        by_m = [assemble_bound(kl_nats=100.0, n=5000, m=m, **base).bound_value
                for m in (10, 100, 1000)]
        assert by_m == sorted(by_m, reverse=True)
        by_n = [assemble_bound(kl_nats=100.0, n=n, m=100, **base).bound_value
                for n in (500, 5000, 50000)]
        assert by_n == sorted(by_n, reverse=True)

    def test_rejects_risk_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"risk_mc must lie in \[0, 1\]"):
            assemble_bound(family="iso-zero", risk_mc=1.2, kl_nats=1.0,
                           beta=1.0, lam=0.05, n=100, m=10, delta=0.025,
                           delta_prime=0.025, b=100.0, c=1.0)


class TestParetoFront:
    def test_empty_and_singleton(self):
        assert pareto_front([]) == []
        p = row(0.3, 1.0)
        assert pareto_front([p]) == [p]

    def test_known_front(self):
        rows = [row(0.1, 5.0), row(0.2, 3.0), row(0.3, 4.0), row(0.15, 5.0)]
        assert coords(pareto_front(rows)) == [(0.1, 5.0), (0.2, 3.0)]

    def test_exact_ties_kept(self):
        rows = [row(0.2, 1.0, "a"), row(0.2, 1.0, "b"), row(0.5, 2.0)]
        front = pareto_front(rows)
        assert len(front) == 2
        assert {p.family for p in front} == {"a", "b"}

    def test_matches_dominance_oracle_on_random_points(self):
        rng = np.random.default_rng(30)
        rows = [row(float(x), float(y))
                for x, y in zip(rng.random(1000), 10 * rng.random(1000))]
        assert (set(coords(pareto_front(rows)))
                == set(coords(dominance_oracle(rows))))

    def test_certificates_order_by_risk_then_complexity(self):
        certs = [assemble_bound(
            family="iso-init", risk_mc=risk, kl_nats=kl, beta=1.0, lam=0.05,
            n=1000, m=10, delta=0.025, delta_prime=0.025, b=100.0, c=1.0)
            for risk, kl in ((0.3, 1.0), (0.1, 50.0), (0.2, 80.0))]
        assert pareto_front(certs) == [certs[1], certs[0]]


@pytest.fixture(scope="module")
def ctx(blob_data, trained_net):
    train_ds, _ = blob_data
    spec, record = trained_net
    return GridContext(spec=spec, theta_star=record.theta_star,
                       theta0=record.theta0, data=train_ds,
                       **settings("grid", m=8, seed=5, vi_epochs=1))


class TestGridSearch:
    def test_all_families_produce_certificates(self, ctx):
        """Each cell's seed comes from its family's stream, which is the
        family's own name for every family but `iso-zero`."""
        for family, entry in FAMILIES.items():
            result = grid_search(family, [1.0, 3.0], [0.05, 0.2], ctx)
            assert not result.failures
            assert len(result.certificates) == 4
            stream = "iso-init" if family == "iso-zero" else family
            seeds = [child_seed(ctx.seed, stream, i, j)
                     for j in range(2) for i in range(2)]
            assert [cert.seed for cert in result.certificates] == seeds
            for cert in result.certificates:
                assert 0.0 <= cert.bound_value <= 1.0
                assert cert.kl_nats >= 0.0
                assert cert.valid_prior == entry.valid_prior

    def test_only_the_data_fitted_prior_is_invalid(self):
        invalid = [name for name, entry in FAMILIES.items()
                   if not entry.valid_prior]
        assert invalid == ["closed-joint"]

    def test_iso_kl_scales_inversely_with_lambda(self, ctx):
        result = grid_search("iso-init", [1.0], [0.05, 0.1, 0.2], ctx)
        kls = [c.kl_nats for c in result.certificates]
        assert kls == sorted(kls, reverse=True)
        assert kls[0] == pytest.approx(2 * kls[1], rel=1e-10)

    def test_beta_star_is_column_argmin(self, ctx):
        result = grid_search("iso-init", [1.0, 2.0, 4.0], [0.05, 0.2], ctx)
        for lam in (0.05, 0.2):
            column = [c for c in result.certificates if c.lam == lam]
            best = min(column, key=lambda c: c.bound_value)
            for cert in column:
                assert cert.beta_star == best.beta
                assert cert.complexity == complexity_metric(
                    cert.risk_mc, cert.kl_nats, best.beta, cert.n)

    def test_replayable_by_cell_seed(self, ctx):
        # a fresh context, so that b draws again instead of reading a's
        a = grid_search("iso-zero", [2.0], [0.1], ctx)
        b = grid_search("iso-zero", [2.0], [0.1], replace(ctx))
        ca, cb = a.certificates[0], b.certificates[0]
        assert ca.risk_mc == cb.risk_mc
        assert ca.bound_value == cb.bound_value
        assert ca.seed == cb.seed

    def test_iso_zero_rows_do_not_depend_on_the_order(self, ctx):
        beta_grid, lambda_grid = [1.0, 3.0], [0.05, 0.2]
        alone = grid_search("iso-zero", beta_grid, lambda_grid, replace(ctx))
        first = replace(ctx)
        before = grid_search("iso-zero", beta_grid, lambda_grid, first)
        grid_search("iso-init", beta_grid, lambda_grid, first)
        last = replace(ctx)
        grid_search("iso-init", beta_grid, lambda_grid, last)
        after = grid_search("iso-zero", beta_grid, lambda_grid, last)
        assert alone.certificates == before.certificates == after.certificates

    def test_no_estimate_is_shared_across_posteriors(self, ctx, monkeypatch):
        """A family that takes `iso-init`'s stream but builds another
        posterior gets iso-init's seeds and its own estimate."""
        monkeypatch.setitem(FAMILIES, "closed-diag", replace(
            FAMILIES["closed-diag"], seed_stream="iso-init"))
        fresh = replace(ctx)
        beta_grid, lambda_grid = [1.0, 3.0], [0.05, 0.2]
        init = grid_search("iso-init", beta_grid, lambda_grid, fresh)
        diag = grid_search("closed-diag", beta_grid, lambda_grid, fresh)
        differs = 0
        for a, b in zip(init.certificates, diag.certificates):
            assert b.seed == a.seed
            posterior, _, _ = build_posterior("closed-diag", b.beta, b.lam,
                                              fresh, b.seed)
            risk, _ = mc_empirical_risk(posterior, fresh.spec, fresh.data,
                                        fresh.m, b.seed)
            assert b.risk_mc == risk
            differs += risk != a.risk_mc
        assert differs   # so a row given iso-init's estimate fails above

    def test_failures_recorded_and_sweep_continues(self, ctx):
        # the lambda < 0 column fails cell by cell; the next column certifies
        result = grid_search("iso-init", [1.0, 2.0], [-0.1, 0.1], ctx)
        assert [(beta, lam) for beta, lam, _ in result.failures] == [
            (1.0, -0.1), (2.0, -0.1)]
        assert "variance must be strictly positive" in result.failures[0][2]
        assert [(c.beta, c.lam) for c in result.certificates] == [
            (1.0, 0.1), (2.0, 0.1)]

    def test_unknown_family_fails_cells(self, ctx):
        result = grid_search("mystery", [1.0], [0.1], ctx)
        assert result.certificates == []
        assert len(result.failures) == 1


class TestMcKey:
    spec = NetSpec((784, 3, 2))

    def posteriors(self):
        """One posterior with C-ordered bases, and one with the same values
        in Fortran order, as `all_block_hessians` gives its eigenvectors."""
        c_order = random_rotated_gaussian(self.spec, np.zeros(self.spec.n_params),
                                          seed=1)
        f_order = DiagGaussian(c_order.mean, c_order.log_variance,
                               tuple(map(np.asfortranarray, c_order.bases)),
                               self.spec)
        return c_order, f_order

    def test_digest_is_of_each_array_in_its_own_order(self):
        for posterior in self.posteriors():
            digest = hashlib.sha256()
            for array in (posterior.mean, posterior.log_variance,
                          *posterior.bases):
                order = "C" if array.flags.c_contiguous else "F"
                digest.update(order.encode() + array.tobytes(order=order))
            assert _mc_key(posterior, 7, 5) == (5, 7, digest.hexdigest())

    def test_the_order_of_a_basis_is_part_of_the_key(self):
        """The order changes the last bits of a draw's rotation."""
        c_order, f_order = self.posteriors()
        assert _mc_key(c_order, 7, 5) != _mc_key(f_order, 7, 5)
        again = DiagGaussian(f_order.mean, f_order.log_variance,
                             f_order.bases, self.spec)
        assert _mc_key(again, 7, 5) == _mc_key(f_order, 7, 5)

    def test_hashes_without_a_copy(self):
        for posterior in self.posteriors():
            _mc_key(posterior, 7, 5)
            tracemalloc.start()
            try:
                _mc_key(posterior, 7, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < posterior.bases[0].nbytes // 100   # 4.9 MB


class TestReferenceStar:
    def test_generalization_gap(self, blob_data, trained_net):
        train_ds, test_ds = blob_data
        spec, record = trained_net
        star = reference_star(record, train_ds, test_ds)
        assert star.family == "reference"
        assert star.risk_mc == record.final_train_error
        assert star.complexity == max(0.0, record.final_test_error
                                      - record.final_train_error)
        assert (star.n, star.m, star.seed) == (len(train_ds.y), 0, record.seed)
        assert star.valid_prior
        # every other float column reads nan
        floats = [f.name for f in fields(BoundCertificate)
                  if f.type == "float" and f.name not in ("risk_mc",
                                                          "complexity")]
        assert floats and all(math.isnan(getattr(star, name))
                              for name in floats)

    def test_holds_one_row_block_of_each_layer(self):
        """Each split's pass peaks at one row block's, three block x h
        arrays, beside its n x k outputs; one more n x h array (8 MB)
        exceeds the bound."""
        train_ds, test_ds = blocked_data(seed=14), blocked_data(seed=15)
        record = SimpleNamespace(spec=BLOCKED_SPEC, seed=14,
                                 theta_star=random_theta(BLOCKED_SPEC, seed=14))
        peak = traced_peak(lambda: reference_star(record, train_ds, test_ds))
        outputs = BLOCKED_N * BLOCKED_SPEC.widths[-1] * 8
        assert peak <= 3 * BLOCK_LAYER_BYTES + 2 * outputs + 2 ** 19

    def test_requires_test_split(self, blob_data, trained_net):
        train_ds, _ = blob_data
        _, record = trained_net
        with pytest.raises(ValueError):
            reference_star(record, train_ds, None)


class TestCsvIO:
    def _cert(self, **overrides):
        fields = dict(family="iso-zero", risk_mc=0.12, kl_nats=480.0,
                      beta=3.0, lam=0.07, n=6000, m=100, delta=0.025,
                      delta_prime=0.025, b=100.0, c=1.0, seed=4)
        fields.update(overrides)
        return assemble_bound(**fields)

    def test_round_trip_preserves_floats_bitwise(self, tmp_path):
        certs = [self._cert(), self._cert(beta=1.5, risk_mc=0.3,
                                          valid_prior=False)]
        path = tmp_path / "certs.csv"
        write_certificates_csv(path, certs)
        loaded = read_certificates_csv(path)
        assert len(loaded) == 2
        for original, back in zip(certs, loaded):
            assert back == original

    def test_schema_version_leads_header(self, tmp_path):
        path = tmp_path / "certs.csv"
        write_certificates_csv(path, [self._cert()])
        header, row = path.read_text().splitlines()[:2]
        assert header.startswith("schema_version,")
        assert row.startswith("1,")

    def test_no_numpy_reprs_leak(self, tmp_path):
        cert = self._cert(beta=float(np.float64(2.0)))
        cert.risk_mc = float(np.float64(cert.risk_mc))
        path = tmp_path / "certs.csv"
        write_certificates_csv(path, [cert])
        assert "np." not in path.read_text()

    def test_missing_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("family,beta\niso-zero,1.0\n")
        with pytest.raises(ValueError, match="schema_version"):
            read_certificates_csv(path)

    def test_pareto_csv_layout(self, tmp_path, blob_data, trained_net):
        train_ds, test_ds = blob_data
        _, record = trained_net
        cert = self._cert()
        fronts = {"iso-zero": [cert],
                  "reference": [reference_star(record, train_ds, test_ds)]}
        certs, path = tmp_path / "certs.csv", tmp_path / "pareto.csv"
        write_certificates_csv(certs, [cert])
        write_pareto_csv(path, fronts)
        lines = path.read_text().splitlines()
        assert lines[:2] == certs.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[1] == "reference"
        # NaN fields (the reference's beta, lambda, ...) compare unequal,
        # so the round trip is checked on the bytes
        again = tmp_path / "again.csv"
        write_pareto_csv(again, {r.family: [r]
                                 for r in read_certificates_csv(path)})
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("column, text, message", [
        ("risk_mc", "1.2", r"risk_mc must lie in \[0, 1\], got 1.2"),
        ("risk_mc", "nan", r"risk_mc must lie in \[0, 1\], got nan"),
        ("complexity", "-0.1", "complexity must be nonnegative, got -0.1"),
        ("validity", "Valid", "validity must be valid or invalid-prior, "
                              "got 'Valid'"),
        ("validity", "", "validity must be valid or invalid-prior, got ''"),
    ])
    def test_read_rejects_a_row_that_is_not_a_certificate(
            self, tmp_path, column, text, message):
        path = tmp_path / "certs.csv"
        write_certificates_csv(path, [self._cert(), self._cert(beta=1.5)])
        header, *rows = path.read_text().splitlines()
        index = header.split(",").index(column)
        cells = rows[1].split(",")
        cells[index] = text
        path.write_text("\n".join([header, rows[0], ",".join(cells)]) + "\n")
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}, line 3: {message}"):
            read_certificates_csv(path)

    def test_certificate_checks_its_risk_and_complexity(self):
        cert = self._cert()
        with pytest.raises(ValueError, match="risk_mc must lie in"):
            replace(cert, risk_mc=1.2)
        with pytest.raises(ValueError, match="complexity must be nonnegative"):
            replace(cert, complexity=-0.1)
