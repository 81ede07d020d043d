"""The output checks accept real certificates and reject tampered ones."""

import csv

import pytest

from checks import check_certificates, compare_digests
from pbcert.certify import assemble_bound, write_certificates_csv
from pbcert.gaussians import chernoff_gap

FAMILIES = ("iso-init", "skfac-block")
BETAS = (1.0, 5.0)
LAMBDAS = (0.001, 0.003)
CELLS = len(FAMILIES) * len(BETAS) * len(LAMBDAS)


@pytest.fixture
def certificates(tmp_path):
    certs = [assemble_bound(family, 0.1 + 0.01 * i, 50.0 + i, beta, lam,
                            10000, 10, 0.025, 0.025, 100.0, 1.0, seed=i)
             for i, (family, beta, lam) in enumerate(
                 (f, b, lam) for f in FAMILIES for b in BETAS for lam in LAMBDAS)]
    path = tmp_path / "certificates.csv"
    write_certificates_csv(path, certs)
    return path


def _check(path):
    return check_certificates(path, CELLS, assemble_bound, chernoff_gap)


def _rewrite(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows = edit(rows)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def test_program_output_passes(certificates):
    assert _check(certificates) == []


@pytest.mark.parametrize("column, message", [
    ("bound_value", "does not replay"),
    ("chernoff_gap", "chernoff_gap"),
])
def test_tampered_value_is_rejected(certificates, column, message):
    def tamper(rows):
        col = rows[0].index(column)
        value = float(rows[3][col])
        rows[3][col] = repr(value * (1 - 1e-15))   # last bits only
        return rows

    _rewrite(certificates, tamper)
    problems = _check(certificates)
    assert len(problems) == 1 and message in problems[0]
    assert "certificates.csv:4" in problems[0]


def test_missing_row_is_rejected(certificates):
    _rewrite(certificates, lambda rows: rows[:-1])
    problems = _check(certificates)
    assert problems == [f"certificates.csv: {CELLS - 1} distinct cells, "
                        f"expected {CELLS}"]


def test_duplicated_row_does_not_hide_a_missing_one(certificates):
    _rewrite(certificates, lambda rows: rows[:-1] + [rows[1]])
    assert any("distinct cells" in p for p in _check(certificates))


def test_bound_above_one_is_rejected(certificates):
    def tamper(rows):
        col = rows[0].index("risk_mc")
        rows[2][col] = "1.5"
        return rows

    _rewrite(certificates, tamper)
    assert any("0 <= risk_mc" in p for p in _check(certificates))


def test_digest_mismatch_is_reported():
    reference = {"certificates.csv": "aa", "pareto.csv": "bb"}
    assert compare_digests(reference, dict(reference), "run1") == []
    problems = compare_digests(reference, {"certificates.csv": "aa",
                                           "pareto.csv": "cc"}, "run1")
    assert len(problems) == 1 and problems[0].startswith("pareto.csv")
