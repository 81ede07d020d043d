"""Checks on what the pbcert commands wrote.

A certificate row must replay: feeding its recorded inputs back through
`certify.assemble_bound` gives its `bound_value` bit for bit.  It must also
satisfy 0 <= risk_mc <= bound_value <= 1 and record the Chernoff gap of its
own (m, delta').  The grid must be complete.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_rows(csv_path: Path) -> list:
    with open(csv_path, newline="") as f:
        return list(csv.DictReader(f))


def check_certificates(csv_path: Path, expected_cells: int, assemble_bound,
                       chernoff_gap) -> list:
    """Problems found in a certificates.csv; empty when it passes."""
    rows = _read_rows(csv_path)
    problems = []
    cells = {(row.get("family"), row.get("beta"), row.get("lambda"))
             for row in rows}
    if len(cells) < expected_cells:
        problems.append(f"{csv_path.name}: {len(cells)} distinct cells, "
                        f"expected {expected_cells}")
    for line, row in enumerate(rows, start=2):
        where = f"{csv_path.name}:{line}"
        try:
            args = (row["family"], float(row["risk_mc"]), float(row["kl_nats"]),
                    float(row["beta"]), float(row["lambda"]), int(row["n"]),
                    int(row["m"]), float(row["delta"]),
                    float(row["delta_prime"]), float(row["b"]), float(row["c"]))
            kwargs = {"valid_prior": row["validity"] == "valid",
                      "seed": int(row["seed"])}
            bound, gap = float(row["bound_value"]), float(row["chernoff_gap"])
            expected_gap = chernoff_gap(int(row["m"]), float(row["delta_prime"]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{where}: unreadable row ({exc})")
            continue
        risk = args[1]
        if not 0.0 <= risk <= bound <= 1.0:
            problems.append(f"{where}: violates 0 <= risk_mc <= bound_value <= 1 "
                            f"(risk_mc={risk!r}, bound_value={bound!r})")
        if gap != expected_gap:
            problems.append(f"{where}: chernoff_gap {gap!r} != "
                            f"chernoff_gap(m, delta_prime) = {expected_gap!r}")
        try:
            replayed = assemble_bound(*args, **kwargs).bound_value
        except ValueError as exc:
            problems.append(f"{where}: bound_value does not replay ({exc})")
            continue
        if replayed.hex() != bound.hex():
            problems.append(f"{where}: bound_value {bound!r} does not replay "
                            f"(assemble_bound gives {replayed!r})")
    return problems


def best_valid_bound(csv_path: Path) -> float:
    """Smallest bound_value over rows whose prior is valid."""
    values = [float(row["bound_value"]) for row in _read_rows(csv_path)
              if row["validity"] == "valid"]
    if not values:
        raise ValueError(f"{csv_path}: no valid certificate")
    return min(values)


def compare_digests(reference: dict, other: dict, label: str) -> list:
    """Problems for every output whose sha256 differs from the reference."""
    return [f"{name}: sha256 differs in {label} ({other.get(name)} != {digest})"
            for name, digest in reference.items() if other.get(name) != digest]
