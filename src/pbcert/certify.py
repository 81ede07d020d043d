"""Certificate assembly, grid sweeps, complexity, and Pareto fronts.

A certificate packages every input and output of the bound evaluation for
one (posterior family, beta, lambda) cell so that re-running the assembly
from the recorded fields reproduces the bound bitwise.

The bound's beta also sets the curvature/KL trade-off for the closed-form
families through the weight 1/(beta n), under which the quadratic
objective is the second-order expansion of the bound surrogate.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from pbcert.curvature import all_block_hessians, diag_fisher
from pbcert.gaussians import (
    GRID_B,
    GRID_C,
    DiagGaussian,
    catoni_inv,
    chernoff_gap,
    kl_block,
    kl_diag,
    sample_gaussian,
    union_bound_nats,
)
from pbcert.nnet import NetSpec, forward, loss, row_blocks, zero_one_errors
from pbcert.posteriors import (
    closed_form_posterior,
    joint_optimal_diag,
    skfac_posterior,
    vi_optimize_diag,
)
from pbcert.rng import child_seed

CSV_SCHEMA_VERSION = "1"


@dataclass
class BoundCertificate:
    family: str
    beta: float
    lam: float
    n: int
    m: int
    delta: float
    delta_prime: float
    b: float
    c: float
    risk_mc: float
    kl_nats: float
    union_bound_nats: float
    chernoff_gap: float
    bound_value: float
    beta_star: float
    complexity: float
    valid_prior: bool
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.risk_mc <= 1.0):
            raise ValueError(f"risk_mc must lie in [0, 1], got {self.risk_mc}")
        if not (0.0 <= self.complexity < math.inf):
            raise ValueError(f"complexity must lie in [0, inf), got {self.complexity}")


# CSV header of an attribute whose name is not its header
_HEADERS = {"lam": "lambda", "valid_prior": "validity"}
# (CSV header, attribute) of every column of certificates.csv and pareto.csv
# after the leading schema_version, in a certificate's field order
CERT_COLUMNS = tuple((_HEADERS.get(f.name, f.name), f.name)
                     for f in fields(BoundCertificate))
LANDSCAPE_COLUMNS = tuple((c, c) for c in ("direction", "t", "loss", "fit"))


def mc_empirical_risk(posterior, spec: NetSpec, data, m: int, seed: int):
    """Mean 01-error over m independent posterior draws.

    Per-draw errors are returned for dispersion diagnostics; draws use
    per-index derived seeds so the estimate is scheduling-independent.
    Draws are evaluated in groups (`nnet.zero_one_errors`), with the same
    bytes as one `forward` per draw.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    draws = (sample_gaussian(posterior, child_seed(seed, "mc", j))
             for j in range(m))
    errors = zero_one_errors(spec, draws, data.X, data.y)
    return float(errors.mean()), errors


def complexity_metric(risk_mc: float, kl_nats: float, beta_star: float,
                      n: int) -> float:
    """Catoni complexity at the optimal beta, penalty terms excluded."""
    return catoni_inv(beta_star, risk_mc + kl_nats / (beta_star * n)) - risk_mc


def assemble_bound(family: str, risk_mc: float, kl_nats: float, beta: float,
                   lam: float, n: int, m: int, delta: float,
                   delta_prime: float, b: float, c: float,
                   valid_prior: bool = True, seed: int = 0) -> BoundCertificate:
    """Evaluate the full valid bound for one cell; confidence 1 - delta - delta'."""
    union = union_bound_nats(lam, b, c, delta)
    gap = chernoff_gap(m, delta_prime)
    inner = risk_mc + kl_nats / (beta * n) + union / (beta * n) + gap
    bound = min(1.0, catoni_inv(beta, inner))
    return BoundCertificate(
        family=family, beta=beta, lam=lam, n=n, m=m, delta=delta,
        delta_prime=delta_prime, b=b, c=c, risk_mc=risk_mc, kl_nats=kl_nats,
        union_bound_nats=union, chernoff_gap=gap, bound_value=bound,
        beta_star=beta,
        complexity=complexity_metric(risk_mc, kl_nats, beta, n),
        valid_prior=valid_prior, seed=seed,
    )


def _computed_once(compute):
    """A property computed by its first read.  The outcome is kept whether
    the computation returned or raised, so a failure is raised again to
    every later reader without computing it again."""
    name = compute.__name__

    def read(ctx):
        if name not in ctx.__dict__:
            try:
                ctx.__dict__[name] = compute(ctx), None
            except Exception as exc:   # noqa: BLE001 - kept for later reads
                ctx.__dict__[name] = None, exc
        value, exc = ctx.__dict__[name]
        if exc is not None:
            raise exc
        return value
    return property(read, doc=compute.__doc__)


@dataclass
class GridContext:
    """Everything a family needs to build posteriors and evaluate cells."""

    spec: NetSpec
    theta_star: np.ndarray
    theta0: np.ndarray
    data: object
    m: int
    delta: float
    delta_prime: float
    seed: int
    vi_epochs: int
    vi_batch_size: int
    vi_lr: float

    @property
    def n(self) -> int:
        return np.asarray(self.data.X).shape[0]

    # Curvature at theta_star, computed by the first cell that reads it; a
    # computation that raises fails every cell that reads it.
    @_computed_once
    def fisher(self) -> np.ndarray:
        """Diagonal Fisher of the mean loss, per weight."""
        return diag_fisher(self.spec, self.theta_star, self.data.X)

    @_computed_once
    def blocks(self) -> list:
        """`LayerEig` of each layer's block Hessian."""
        return all_block_hessians(self.spec, self.theta_star, self.data.X)

    @_computed_once
    def mc_estimates(self) -> dict:
        """`mc_empirical_risk` results of the sweep, keyed by
        `_mc_key`, so cells that build one posterior from one seed share
        one estimate."""
        return {}


def _isotropic(ctx: GridContext, lam: float, center: np.ndarray):
    posterior = DiagGaussian.isotropic(ctx.theta_star, lam)
    prior = DiagGaussian.isotropic(center, lam)
    return posterior, kl_diag(posterior, prior)


def _iso_zero(ctx, beta, lam, cell_seed):
    return _isotropic(ctx, lam, np.zeros_like(ctx.theta_star))


def _iso_init(ctx, beta, lam, cell_seed):
    return _isotropic(ctx, lam, ctx.theta0)


def _closed_diag(ctx, beta, lam, cell_seed):
    sigma = closed_form_posterior(ctx.fisher, 1.0 / (beta * ctx.n), lam)
    posterior = DiagGaussian.from_variance(ctx.theta_star, sigma)
    prior = DiagGaussian.isotropic(ctx.theta0, lam)
    return posterior, kl_diag(posterior, prior)


def _closed_joint(ctx, beta, lam, cell_seed):
    res = joint_optimal_diag(ctx.fisher, 1.0 / (beta * ctx.n), lam,
                             ctx.theta_star, ctx.theta0)
    posterior = DiagGaussian.from_variance(ctx.theta_star, res.sigma_rho)
    prior = DiagGaussian.from_variance(ctx.theta0, lam * res.sigma_pi)
    return posterior, kl_diag(posterior, prior)


def _vi_diag(ctx, beta, lam, cell_seed):
    posterior = vi_optimize_diag(ctx.spec, ctx.theta_star, ctx.data, beta, lam,
                                 ctx.vi_epochs, cell_seed,
                                 batch_size=ctx.vi_batch_size, lr=ctx.vi_lr)
    prior = DiagGaussian.isotropic(ctx.theta0, lam)
    return posterior, kl_diag(posterior, prior)


def _skfac_block(ctx, beta, lam, cell_seed):
    posterior = skfac_posterior(ctx.spec, ctx.theta_star, ctx.blocks,
                                1.0 / (beta * ctx.n), lam)
    return posterior, kl_block(posterior, ctx.theta0, lam)


@dataclass(frozen=True)
class Family:
    """How a posterior family is built.

    `build(ctx, beta, lam, cell_seed)` returns (posterior, KL against the
    family's prior); a family reads the curvature it needs from `ctx`.  A
    family whose prior depends on the training data has `valid_prior`
    False: its results are a sanity ceiling, not a bound.  Cell seeds come
    from the stream `seed_stream`, the family's own name when None; a
    family that builds another's posterior takes that family's stream, so
    the two certify one MC estimate per cell.
    """

    build: Callable
    valid_prior: bool = True
    seed_stream: str | None = None


FAMILIES = {
    "iso-zero": Family(_iso_zero, seed_stream="iso-init"),
    "iso-init": Family(_iso_init),
    "closed-diag": Family(_closed_diag),
    "closed-joint": Family(_closed_joint, valid_prior=False),
    "vi-diag": Family(_vi_diag),
    "skfac-block": Family(_skfac_block),
}


def build_posterior(family: str, beta: float, lam: float, ctx: GridContext,
                    cell_seed: int):
    """Posterior, its KL against the family's prior, and prior validity."""
    entry = FAMILIES.get(family)
    if entry is None:
        raise ValueError(f"unknown family {family!r}")
    posterior, kl = entry.build(ctx, beta, lam, cell_seed)
    return posterior, kl, entry.valid_prior


def _mc_key(posterior, m: int, seed: int) -> tuple:
    """(seed, m, sha256 of the posterior's mean, log-variance and bases):
    equal keys draw the same m weight vectors.

    Each array is hashed in place, in its own memory order, after a byte
    naming that order: the bases are eigenvectors in Fortran order, and a
    basis's order changes the last bits of a draw.  A C-ordered copy would
    cost 4.7 MB per `skfac-block` cell at the desk shape."""
    digest = hashlib.sha256()
    for array in (posterior.mean, posterior.log_variance,
                  *(posterior.bases or ())):
        c_order = array.flags.c_contiguous
        digest.update(b"C" if c_order else b"F")
        digest.update(array if c_order else array.T)
    return seed, m, digest.hexdigest()


@dataclass
class GridResult:
    certificates: list
    failures: list = field(default_factory=list)   # (beta, lam, message)


def grid_search(family: str, beta_grid, lambda_grid, ctx: GridContext) -> GridResult:
    """One certificate per (beta, lambda) cell.

    Cells are independent and replayable: each derives its own seed from
    (master seed, the family's stream, cell index).  A cell whose posterior
    and seed an earlier cell of the sweep had takes that cell's MC
    estimate from `ctx.mc_estimates`.  Per-cell failures are recorded and
    the sweep continues.  After the sweep, each lambda column's optimal
    beta (argmin bound) is applied to the complexity of its cells.
    """
    beta_grid = [float(b) for b in beta_grid]
    lambda_grid = [float(lam) for lam in lambda_grid]
    entry = FAMILIES.get(family)
    stream = (entry and entry.seed_stream) or family
    certs = []
    failures = []
    for j, lam in enumerate(lambda_grid):
        for i, beta in enumerate(beta_grid):
            cell_seed = child_seed(ctx.seed, stream, i, j)
            try:
                posterior, kl, valid = build_posterior(family, beta, lam, ctx,
                                                       cell_seed)
                key = _mc_key(posterior, ctx.m, cell_seed)
                if key not in ctx.mc_estimates:
                    ctx.mc_estimates[key] = mc_empirical_risk(
                        posterior, ctx.spec, ctx.data, ctx.m, cell_seed)
                risk, _ = ctx.mc_estimates[key]
                certs.append(assemble_bound(
                    family, risk, kl, beta, lam, ctx.n, ctx.m, ctx.delta,
                    ctx.delta_prime, GRID_B, GRID_C, valid_prior=valid,
                    seed=cell_seed,
                ))
            except Exception as exc:   # noqa: BLE001 - sweep must continue
                failures.append((beta, lam, f"{type(exc).__name__}: {exc}"))
    # per-lambda optimal beta (a column's first least bound), then
    # recompute complexities
    best = {}
    for cert in certs:
        if cert.lam not in best or cert.bound_value < best[cert.lam].bound_value:
            best[cert.lam] = cert
    certs = [replace(cert, beta_star=best[cert.lam].beta,
                     complexity=complexity_metric(cert.risk_mc, cert.kl_nats,
                                                  best[cert.lam].beta, cert.n))
             for cert in certs]
    return GridResult(certificates=certs, failures=failures)


def pareto_front(rows) -> list:
    """Non-dominated subset of rows minimizing both `risk_mc` and
    `complexity`, risk ascending.

    Exact duplicates are kept; a row is removed only when another row is
    at least as good in both coordinates and strictly better in one.
    """
    ordered = sorted(rows, key=lambda r: (r.risk_mc, r.complexity))
    front = []
    best = math.inf
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].risk_mc == ordered[i].risk_mc:
            j += 1
        group_min = ordered[i].complexity
        if group_min < best:
            front.extend(r for r in ordered[i:j] if r.complexity == group_min)
            best = group_min
        i = j
    return front


def reference_star(record, train_data, test_data) -> BoundCertificate:
    """Complexity a perfect bound would need for the bound to equal the
    test error: the `reference` row (train 01-error, max(0, test - train)),
    nan in its other float columns.  An interpretation of the ideal-bound
    marker, labeled as such in outputs.  Each split's errors come from one
    `forward` per `row_blocks` block into its n x k outputs, the bits of
    one pass over the split without its n x h arrays."""
    if test_data is None:
        raise ValueError("test split required for the reference star")
    spec = record.spec

    def error(ds):
        outputs = np.empty((len(ds.y), spec.widths[-1]))
        for rows in row_blocks(len(ds.y)):
            outputs[rows] = forward(spec, record.theta_star, ds.X[rows]).outputs
        return loss("zero_one", outputs, ds.y)

    train_err, test_err = error(train_data), error(test_data)
    return BoundCertificate(**{
        **dict.fromkeys((f.name for f in fields(BoundCertificate)), math.nan),
        "family": "reference", "risk_mc": train_err,
        "complexity": max(0.0, test_err - train_err),
        "n": len(train_data.y), "m": 0, "valid_prior": True,
        "seed": record.seed})


_VALIDITY = {True: "valid", False: "invalid-prior"}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return _VALIDITY[value]
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _parse_validity(text: str) -> bool:
    if text not in _VALIDITY.values():
        raise ValueError(f"validity must be valid or invalid-prior, got {text!r}")
    return text == "valid"


_PARSE = {"str": str, "int": int, "float": float, "bool": _parse_validity}


def csv_header(columns) -> list:
    return ["schema_version"] + [header for header, _ in columns]


def _write_csv(path, columns, records) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(csv_header(columns))
        for record in records:
            writer.writerow([CSV_SCHEMA_VERSION] + [
                _fmt(getattr(record, attr)) for _, attr in columns])


def write_certificates_csv(path, certs) -> None:
    _write_csv(path, CERT_COLUMNS, certs)


def read_certificates_csv(path) -> list:
    """The rows of a certificates.csv or pareto.csv.  A header other than
    CERT_COLUMNS', or a row that is not a certificate, raises ValueError
    naming the file (and the line)."""
    header = csv_header(CERT_COLUMNS)
    types = {f.name: f.type for f in fields(BoundCertificate)}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != header:
            raise ValueError(f"{path}: header is not {','.join(header)}")
        try:
            return [BoundCertificate(**{attr: _PARSE[types[attr]](row[name])
                                        for name, attr in CERT_COLUMNS})
                    for row in reader]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc


def write_pareto_csv(path, fronts: dict) -> None:
    """pareto.csv: the rows of `fronts` (family name -> list of
    BoundCertificate of that family: a Pareto front, or the reference
    star) with certificates.csv's columns, families in name order."""
    _write_csv(path, CERT_COLUMNS,
               [row for family in sorted(fronts) for row in fronts[family]])


def write_landscape_csv(path, probe) -> None:
    """Loss and quadratic fit at each (direction, t) of a LandscapeProbe."""
    _write_csv(path, LANDSCAPE_COLUMNS, [
        SimpleNamespace(direction=i, t=t, loss=value, fit=fit)
        for i, (losses, c) in enumerate(zip(probe.losses, probe.fit_coeffs))
        for t, value, fit in zip(probe.t_grid, losses, np.polyval(c, probe.t_grid))])
