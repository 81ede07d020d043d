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
import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable

import numpy as np

from pbcert.curvature import all_block_hessians, diag_fisher
from pbcert.gaussians import (
    DiagGaussian,
    catoni_inv,
    chernoff_gap,
    kl_block,
    kl_diag,
    sample_gaussian,
    union_bound_nats,
)
from pbcert.nnet import NetSpec, forward, loss, zero_one_errors
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


# CSV header of an attribute whose name is not its header
_HEADERS = {"lam": "lambda", "valid_prior": "validity", "x": "risk_mc",
            "y": "complexity"}
# (CSV header, attribute) of every column after the leading schema_version;
# a certificate's columns follow its field order
CERT_COLUMNS = tuple((_HEADERS.get(f.name, f.name), f.name)
                     for f in fields(BoundCertificate))


@dataclass(frozen=True)
class ParetoPoint:
    x: float                 # MC empirical 01-risk
    y: float                 # complexity
    family: str = ""
    beta: float = float("nan")
    lam: float = float("nan")
    seed: int = 0
    valid_prior: bool = True

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0):
            raise ValueError(f"x must lie in [0, 1], got {self.x}")
        if self.y < 0:
            raise ValueError(f"y must be nonnegative, got {self.y}")


PARETO_COLUMNS = tuple((_HEADERS.get(name, name), name) for name in (
    "family", "x", "y", "beta", "lam", "valid_prior", "seed"))
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
    if not (0.0 <= risk_mc <= 1.0):
        raise ValueError("risk_mc must lie in [0, 1]")
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
    b: float
    c: float
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
    vi = vi_optimize_diag(ctx.spec, ctx.theta_star, ctx.theta0, ctx.data, beta,
                          lam, ctx.vi_epochs, cell_seed,
                          batch_size=ctx.vi_batch_size, lr=ctx.vi_lr,
                          delta=ctx.delta)
    prior = DiagGaussian.isotropic(ctx.theta0, lam)
    return vi.posterior, kl_diag(vi.posterior, prior)


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
    False: its results are a sanity ceiling, not a bound.
    """

    build: Callable
    valid_prior: bool = True


FAMILIES = {
    "iso-zero": Family(_iso_zero),
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


@dataclass
class GridResult:
    certificates: list
    failures: list = field(default_factory=list)   # (beta, lam, message)


def grid_search(family: str, beta_grid, lambda_grid, ctx: GridContext) -> GridResult:
    """One certificate per (beta, lambda) cell.

    Cells are independent and replayable: each derives its own seed from
    (master seed, family, cell index).  Per-cell failures are recorded and
    the sweep continues.  After the sweep, each lambda column's optimal
    beta (argmin bound) is applied to the complexity of its cells.
    """
    beta_grid = [float(b) for b in beta_grid]
    lambda_grid = [float(lam) for lam in lambda_grid]
    certs = []
    failures = []
    for j, lam in enumerate(lambda_grid):
        for i, beta in enumerate(beta_grid):
            cell_seed = child_seed(ctx.seed, family, i, j)
            try:
                posterior, kl, valid = build_posterior(family, beta, lam, ctx,
                                                       cell_seed)
                risk, _ = mc_empirical_risk(posterior, ctx.spec, ctx.data,
                                            ctx.m, cell_seed)
                certs.append(assemble_bound(
                    family, risk, kl, beta, lam, ctx.n, ctx.m, ctx.delta,
                    ctx.delta_prime, ctx.b, ctx.c, valid_prior=valid,
                    seed=cell_seed,
                ))
            except Exception as exc:   # noqa: BLE001 - sweep must continue
                failures.append((beta, lam, f"{type(exc).__name__}: {exc}"))
    # per-lambda optimal beta, then recompute complexities
    for lam in lambda_grid:
        column = [cert for cert in certs if cert.lam == lam]
        if not column:
            continue
        best = min(column, key=lambda cert: cert.bound_value)
        for cert in column:
            cert.beta_star = best.beta
            cert.complexity = complexity_metric(cert.risk_mc, cert.kl_nats,
                                                best.beta, cert.n)
    return GridResult(certificates=certs, failures=failures)


def pareto_front(points) -> list:
    """Non-dominated subset minimizing both coordinates, x ascending.

    Exact duplicates are kept; a point is removed only when another point
    is at least as good in both coordinates and strictly better in one.
    """
    ordered = sorted(points, key=lambda p: (p.x, p.y))
    front = []
    best_y = math.inf
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].x == ordered[i].x:
            j += 1
        group_min = ordered[i].y
        if group_min < best_y:
            front.extend(p for p in ordered[i:j] if p.y == group_min)
            best_y = group_min
        i = j
    return front


def certificates_to_points(certs) -> list:
    return [
        ParetoPoint(x=cert.risk_mc, y=cert.complexity, family=cert.family,
                    beta=cert.beta, lam=cert.lam, seed=cert.seed,
                    valid_prior=cert.valid_prior)
        for cert in certs
    ]


def reference_star(record, train_data, test_data) -> ParetoPoint:
    """Complexity a perfect bound would need for the bound to equal the
    test error: (train 01-error, max(0, test - train)).  An interpretation
    of the ideal-bound marker, labeled as such in outputs."""
    if test_data is None:
        raise ValueError("test split required for the reference star")
    train_err, test_err = (
        loss("zero_one", forward(record.spec, record.theta_star, ds.X).outputs,
             ds.y) for ds in (train_data, test_data))
    return ParetoPoint(x=train_err, y=max(0.0, test_err - train_err),
                       family="reference", seed=record.seed)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "valid" if value else "invalid-prior"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_PARSE = {"str": str, "int": int, "float": float,
          "bool": lambda text: text == "valid"}


def csv_header(columns) -> list:
    return ["schema_version"] + [header for header, _ in columns]


def _write_csv(path, columns, records) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(csv_header(columns))
        for record in records:
            writer.writerow([CSV_SCHEMA_VERSION] + [
                _fmt(getattr(record, attr)) for _, attr in columns])


def _read_csv(path, columns, cls) -> list:
    header = csv_header(columns)
    types = {f.name: f.type for f in fields(cls)}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != header:
            raise ValueError(f"{path}: header is not {','.join(header)}")
        return [cls(**{attr: _PARSE[types[attr]](row[header])
                       for header, attr in columns})
                for row in reader]


def write_certificates_csv(path, certs) -> None:
    _write_csv(path, CERT_COLUMNS, certs)


def read_certificates_csv(path) -> list:
    return _read_csv(path, CERT_COLUMNS, BoundCertificate)


def write_pareto_csv(path, fronts: dict) -> None:
    """fronts maps family name -> list of ParetoPoint of that family."""
    _write_csv(path, PARETO_COLUMNS,
               [p for family in sorted(fronts) for p in fronts[family]])


def read_pareto_csv(path) -> list:
    return _read_csv(path, PARETO_COLUMNS, ParetoPoint)


def write_landscape_csv(path, probe) -> None:
    """Loss and quadratic fit at each (direction, t) of a LandscapeProbe."""
    _write_csv(path, LANDSCAPE_COLUMNS, [
        SimpleNamespace(direction=i, t=t, loss=value, fit=fit)
        for i, (losses, c) in enumerate(zip(probe.losses, probe.fit_coeffs))
        for t, value, fit in zip(probe.t_grid, losses, np.polyval(c, probe.t_grid))])
