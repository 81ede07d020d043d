"""Command-line surface: train, certify, plot, probe.

Exit codes: 0 success, 1 runtime failure (a malformed data or run file
too), 2 usage error (bad flags, unreadable config, missing input paths, a
setting that cannot run).  The environment variable PBCERT_OUTPUT_ROOT,
when set, is prepended to relative output paths.  Every command runs on
one BLAS thread (see `pbcert.blas`).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from pbcert import certify as cert
from pbcert.blas import single_threaded
from pbcert.config import ConfigError, RunConfig, load_config
from pbcert.curvature import check_probe_settings, landscape_probe
from pbcert.data import COLLAPSE_SIZES, collapse_classes, load_cifar_bin
from pbcert.data import load_idx, synthetic_blobs
from pbcert.gaussians import union_bound_nats
from pbcert.manifest import load_test_data, load_train_record, save_train_record
from pbcert.nnet import NetSpec, TrainerConfig, check_train_settings, train
from pbcert.plotting import risk_complexity_svg
from pbcert.posteriors import check_vi_settings
from pbcert.rng import child_seed


class UsageError(Exception):
    pass


def _resolve_out(path) -> Path:
    path = Path(path)
    root = os.environ.get("PBCERT_OUTPUT_ROOT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _build_datasets(config: RunConfig):
    get = config.get
    source = get("data", "source")
    seed = get("run", "seed")
    if source == "blobs":
        train_ds, test_ds = (
            synthetic_blobs(get("data", size), get("data", "d"), get("data", "k"),
                            get("data", "separation"), child_seed(seed, "data"),
                            split=split)
            for size, split in (("n", "train"), ("test_n", "test")))
    elif source == "idx":
        for key in ("images", "labels", "test_images", "test_labels"):
            path = get("data", key)
            if not path or not Path(path).exists():
                raise UsageError(f"dataset path missing or unreadable: "
                                 f"data.{key}={path!r}")
        train_ds = load_idx(get("data", "images"), get("data", "labels"))
        test_ds = load_idx(get("data", "test_images"), get("data", "test_labels"))
        # a split that lacks the largest label still has every class
        k = 1 + max(int(ds.y.max()) for ds in (train_ds, test_ds))
        train_ds, test_ds = (replace(ds, k=k) for ds in (train_ds, test_ds))
    elif source == "cifar":
        batches = get("data", "batches").split(":")
        test_batches = get("data", "test_batches").split(":")
        for path in batches + test_batches:
            if not path or not Path(path).exists():
                raise UsageError(f"dataset path missing or unreadable: {path!r}")
        train_ds = load_cifar_bin(batches)
        test_ds = load_cifar_bin(test_batches)
    else:
        raise ConfigError(f"unknown data source {source!r}")
    if test_ds.d != train_ds.d:
        raise UsageError(f"train inputs have {train_ds.d} features and test "
                         f"inputs {test_ds.d}")
    collapse = get("data", "collapse")
    if collapse:
        try:
            train_ds = collapse_classes(train_ds, collapse)
            test_ds = collapse_classes(test_ds, collapse)
        except ValueError as exc:
            raise UsageError(f"bad data.collapse: {exc}") from exc
    return train_ds, test_ds


def _check_data(config: RunConfig) -> None:
    """Reject [data] that builds no dataset: a collapse to other than 2 or 5
    classes, or for blobs a size below 1 or a collapse of k != 10 classes."""
    data = config.values["data"]
    if data["collapse"] not in (0, *COLLAPSE_SIZES):
        raise UsageError(f"data.collapse must be 0 or one of {COLLAPSE_SIZES}; "
                         f"got {data['collapse']}")
    if data["source"] == "blobs":
        for key in ("n", "test_n", "d", "k"):
            if data[key] < 1:
                raise UsageError(f"data.{key} must be at least 1; got {data[key]}")
        if data["collapse"] and data["k"] != 10:
            raise UsageError(f"data.collapse needs data.k = 10; got {data['k']}")


def cmd_train(config: RunConfig, out_dir) -> Path:
    trainer = TrainerConfig(**config.values["train"])
    try:
        check_train_settings(trainer)
    except ValueError as exc:
        raise UsageError(f"bad train setting: {exc}") from exc
    hidden = config.get("net", "hidden")
    if not hidden or min(hidden) < 1:
        raise UsageError(f"net.hidden must list at least one width of at "
                         f"least 1; got {hidden}")
    _check_data(config)
    train_ds, test_ds = _build_datasets(config)
    spec = NetSpec((train_ds.d, *hidden, train_ds.k))
    record = train(spec, train_ds, trainer, config.get("run", "seed"),
                   test_data=test_ds)
    out_dir = _resolve_out(out_dir)
    save_train_record(out_dir, record, train_ds, test_ds, extra={
        "k": train_ds.k,
        "collapse": config.get("data", "collapse"),
        "data_source": config.get("data", "source"),
    })
    print(f"trained: {out_dir} "
          f"train_error={record.final_train_error:.4f} "
          f"test_error={record.final_test_error:.4f}")
    return out_dir


def _load_run(run_dir):
    run_dir = Path(run_dir)
    if not (run_dir / "meta.json").exists():
        raise UsageError(f"run manifest not found: {run_dir / 'meta.json'}")
    return load_train_record(run_dir)


def _check_sweep(config: RunConfig) -> tuple:
    """Families and beta and lambda grids, after rejecting a bad family
    list, an empty or unbuildable grid, a beta <= 0, a VI schedule with no
    descent step, m < 1, delta or delta' not in (0, 1), or a lambda whose
    union-bound penalty has no value."""
    families = config.get("posterior", "families")
    if not families:
        raise UsageError(f"posterior.families is empty"
                         f" (families: {', '.join(cert.FAMILIES)})")
    for i, family in enumerate(families):
        if family not in cert.FAMILIES or family in families[:i]:
            problem = "repeated" if family in cert.FAMILIES else "unknown"
            raise UsageError(f"{problem} family {family!r} in posterior.families"
                             f" (families: {', '.join(cert.FAMILIES)})")
    try:
        grids = config.beta_grid, config.lambda_grid
    except ValueError as exc:
        raise UsageError(f"bad posterior grid: {exc}") from exc
    if not all(grids):
        raise UsageError("posterior.beta_count and posterior.lambda_count "
                         "must be at least 1")
    if min(grids[0]) <= 0:
        raise UsageError("posterior.beta_min and posterior.beta_max must be "
                         "positive")
    if config.get("bound", "m") < 1:
        raise UsageError("bound.m must be at least 1")
    for key in ("delta", "delta_prime"):
        if not 0.0 < config.get("bound", key) < 1.0:
            raise UsageError(f"bound.{key} must lie in (0, 1)")
    try:
        check_vi_settings(config.get("posterior", "vi_epochs"),
                          config.get("posterior", "vi_batch_size"),
                          config.get("posterior", "vi_lr"))
    except ValueError as exc:
        raise UsageError(f"bad VI setting: posterior.{exc}") from exc
    bound = config.values["bound"]
    for lam in grids[1]:
        try:
            union_bound_nats(lam, bound["b"], bound["c"], bound["delta"])
        except ValueError as exc:
            raise UsageError(f"bad lambda grid for bound.b={bound['b']}, "
                             f"bound.c={bound['c']}: {exc}") from exc
    return (families, *grids)


def cmd_certify(config: RunConfig, run_dir) -> None:
    families, beta_grid, lambda_grid = _check_sweep(config)
    out_dir = _resolve_out(run_dir)
    record, train_ds = _load_run(out_dir)
    test_ds = load_test_data(out_dir)
    ctx = cert.GridContext(
        spec=record.spec, theta_star=record.theta_star, theta0=record.theta0,
        data=train_ds, **config.grid_settings)
    all_certs = []
    fronts = {}
    failed = 0
    for family in families:
        result = cert.grid_search(family, beta_grid, lambda_grid, ctx)
        for beta, lam, message in result.failures:
            print(f"cell failure [{family} beta={beta} lambda={lam}]: {message}",
                  file=sys.stderr)
        failed += len(result.failures)
        all_certs.extend(result.certificates)
        fronts[family] = cert.pareto_front(
            cert.certificates_to_points(result.certificates))
    attempted = failed + len(all_certs)
    if failed:
        print(f"certify: {failed} of {attempted} cells failed", file=sys.stderr)
    if not all_certs:
        raise RuntimeError("no cell was certified")
    star = cert.reference_star(record, train_ds, test_ds)
    fronts["reference"] = [star]
    cert.write_certificates_csv(out_dir / "certificates.csv", all_certs)
    cert.write_pareto_csv(out_dir / "pareto.csv", fronts)
    n_nonvac = sum(1 for c in all_certs if c.bound_value < 1.0)
    print(f"certified: {len(all_certs)} cells, {n_nonvac} non-vacuous; "
          f"wrote {out_dir / 'certificates.csv'}")


def cmd_plot(csv_paths, out_path, log_x: bool, title: str) -> None:
    """Plot, per family, the Pareto front of the points of every input CSV,
    certificate or pareto alike; the last pareto CSV's reference star is
    drawn too."""
    points = {}
    star = None
    for path in csv_paths:
        if not Path(path).exists():
            raise UsageError(f"CSV not found: {path}")
        with open(path, newline="") as f:
            header = next(csv.reader(f), None)
        if header == cert.csv_header(cert.PARETO_COLUMNS):
            file_points = cert.read_pareto_csv(path)
        else:
            file_points = cert.certificates_to_points(
                cert.read_certificates_csv(path))
        for p in file_points:
            if p.family == "reference":
                star = (p.x, p.y)
            else:
                points.setdefault(p.family, []).append(p)
    fronts = {family: [(p.x, p.y) for p in cert.pareto_front(group)]
              for family, group in points.items()}
    svg = risk_complexity_svg(fronts, star=star, log_x=log_x, title=title)
    out_path = _resolve_out(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg)
    print(f"wrote {out_path}")


def cmd_probe(config: RunConfig, run_dir) -> None:
    n_directions = config.get("probe", "n_directions")
    lambdas = config.get("probe", "lambdas")
    try:
        t_grid = np.linspace(config.get("probe", "t_min"),
                             config.get("probe", "t_max"),
                             config.get("probe", "t_points"))
        check_probe_settings(n_directions, t_grid, lambdas)
    except ValueError as exc:
        raise UsageError(f"bad probe setting: {exc}") from exc
    out_dir = _resolve_out(run_dir)
    record, train_ds = _load_run(out_dir)
    probe = landscape_probe(record.spec, record.theta_star, train_ds,
                            n_directions, t_grid, lambdas,
                            config.get("run", "seed"), record.config.loss)
    cert.write_landscape_csv(out_dir / "landscape.csv", probe)
    for i, r2 in enumerate(probe.fit_r2):
        print(f"direction {i}: R^2 = {r2:.6f}")
    for lam, radius in probe.bubble_radii.items():
        print(f"bubble radius at lambda={lam}: {radius:.4f}")
    print(f"wrote {out_dir / 'landscape.csv'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbcert",
        description="PAC-Bayes certificates for small feedforward classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="path to the run config file")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE",
                       help="override a config value")

    p_train = sub.add_parser("train", help="train the deterministic classifier")
    add_config_args(p_train)
    p_train.add_argument("--out", help="run output directory "
                                       "(default: run.output from config)")

    p_cert = sub.add_parser("certify", help="sweep grids and emit certificates")
    add_config_args(p_cert)
    p_cert.add_argument("--run", required=True, help="run directory from train")

    p_plot = sub.add_parser("plot", help="render a Risk-Complexity SVG")
    p_plot.add_argument("csvs", nargs="+", help="certificate or pareto CSVs")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.add_argument("--log-x", action="store_true",
                        help="logarithmic empirical-risk axis")
    p_plot.add_argument("--title", default="Risk-Complexity")

    p_probe = sub.add_parser("probe", help="loss landscape along random directions")
    add_config_args(p_probe)
    p_probe.add_argument("--run", required=True, help="run directory from train")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with single_threaded():
        try:
            if args.command == "plot":
                cmd_plot(args.csvs, args.out, args.log_x, args.title)
                return 0
            config = load_config(args.config, args.overrides)
            if args.command == "train":
                out = args.out or config.get("run", "output")
                cmd_train(config, out)
            elif args.command == "certify":
                cmd_certify(config, args.run)
            elif args.command == "probe":
                cmd_probe(config, args.run)
            return 0
        except (UsageError, ConfigError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:   # noqa: BLE001
            print(f"runtime failure: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
