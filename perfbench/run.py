"""End-to-end benchmark of the pbcert CLI: train -> certify -> probe -> plot.

Run from the repository root:

    python3 perfbench/run.py --workload desk-mc --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 runs the pipeline untraced, one command at a time, until --seconds
is spent (at least twice, so the outputs of two pipelines can be compared)
plus extra trains and probes until there are three trains and six probes,
and reports the end-to-end metrics as medians.
--trace 1 runs the pipeline once untraced and once with pbcert's public
functions wrapped (spans.py), and reports the per-layer metrics.  Either way
the last line of stdout is one JSON object: correct, attempted and failed
cells, and the metrics named in BENCHMARK.json with their units.
`--workload all` runs every workload both ways and prints every metric.

Exit codes: 0 all checks pass, 1 an output check failed, 2 the benchmark
cannot run here (no pbcert sources, no BENCHMARK.json, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import procs
import spans
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OUTPUTS = ("certificates.csv", "pareto.csv", "landscape.csv",
           "risk_complexity.svg")
MIN_PIPELINES = 2     # two pipelines of one seed must write identical bytes
MIN_SETUPS = 3        # setup_s is the median of at least this many trains
MIN_PROBES = 6        # probe_cpu_s is the median of at least this many probes
TIME_LIMIT_S = 170.0  # whole run, inputs and checks included


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Pipeline:
    run_dir: Path
    records: dict = field(default_factory=dict)   # command -> CommandRecord
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    cells_attempted: int = 0
    cells_failed: int = 0
    best_bound: float = None
    spans: list = field(default_factory=list)     # one span list per command
    alias_calls: Counter = field(default_factory=Counter)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.records.values())

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.records.values())

    @property
    def peak_rss_mb(self) -> float:
        return max(r.peak_rss_mb for r in self.records.values())


def _tail(text: str, lines: int = 5) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


class Bench:
    """One workload at one seed, in a fresh work directory."""

    def __init__(self, workload, seed: int, work_dir: Path, deadline: float,
                 pbcert_config):
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = procs.child_env(SRC)
        self.ini = workloads.write_inputs(workload, seed, work_dir / "inputs")
        config = pbcert_config.load_config(self.ini)
        families = config.get("posterior", "families")
        self.expected_cells = (len(families) * len(config.beta_grid)
                               * len(config.lambda_grid))
        self.facts = {"families": families}

    def command(self, name: str, args: list, log_dir: Path,
                spans_path: Path = None) -> procs.CommandRecord:
        args = [str(a) for a in args]
        if spans_path is None:
            argv = [sys.executable, "-m", "pbcert.cli", name, *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(spans_path), "--", name, *args]
        remaining = max(1.0, self.deadline - time.monotonic())
        return procs.run_command(name, argv, self.env, log_dir, remaining)

    def train(self, run_dir: Path) -> procs.CommandRecord:
        run_dir.mkdir(parents=True)
        return self.command("train", ["--config", self.ini, "--out", run_dir],
                            run_dir)

    def pipeline(self, run_dir: Path, traced: bool = False) -> Pipeline:
        """train -> certify -> probe -> plot in a fresh run directory."""
        run_dir.mkdir(parents=True)
        p = Pipeline(run_dir, cells_attempted=self.expected_cells)
        steps = {
            "train": ["--config", self.ini, "--out", run_dir],
            "certify": ["--config", self.ini, "--run", run_dir],
            "probe": ["--config", self.ini, "--run", run_dir],
            "plot": [run_dir / "pareto.csv", "--out",
                     run_dir / "risk_complexity.svg"],
        }
        for name, args in steps.items():
            if name == "certify" and (run_dir / "fisher_cache.npy").exists():
                p.problems.append("fisher_cache.npy exists before certify")
                break
            spans_path = run_dir / f"{name}.spans.json" if traced else None
            record = self.command(name, args, run_dir, spans_path)
            p.records[name] = record
            if record.returncode != 0:
                reason = " (timed out)" if record.timed_out else ""
                p.problems.append(f"{name} exited with {record.returncode}"
                                  f"{reason}: {_tail(record.stderr)}")
                break
            if traced:
                saved = json.loads(spans_path.read_text())
                p.spans.append(saved["spans"])
                p.alias_calls.update(saved["alias_calls"])
        certify = p.records.get("certify")
        if certify is None or certify.returncode != 0:
            p.cells_failed = p.cells_attempted
        else:
            p.cells_failed = sum(1 for line in certify.stderr.splitlines()
                                 if line.startswith("cell failure"))
        if not p.problems:
            self._check(p)
        return p

    def _check(self, p: Pipeline) -> None:
        from pbcert.certify import assemble_bound
        from pbcert.gaussians import chernoff_gap

        csv_path = p.run_dir / "certificates.csv"
        p.problems += checks.check_certificates(
            csv_path, self.expected_cells, assemble_bound, chernoff_gap)
        try:
            p.best_bound = checks.best_valid_bound(csv_path)
        except ValueError as exc:
            p.problems.append(str(exc))
        p.digests = {name: checks.sha256(p.run_dir / name) for name in OUTPUTS}
        p.digests["theta_star.bin"] = checks.sha256(p.run_dir / "theta_star.bin")


def end_to_end_metrics(pipelines: list, setups: list, probes: list) -> dict:
    """Medians over the pipelines of one run; setup_s over every train and
    probe_cpu_s over every probe.

    Times are CPU seconds (user + system) of the command's process, which
    leave out the time the host hands the CPUs to other machines; wall
    times are reported per layer.
    """
    return {
        "setup_s": statistics.median(r.cpu_s for r in setups),
        "certify_cpu_s": statistics.median(
            p.records["certify"].cpu_s for p in pipelines),
        "probe_cpu_s": statistics.median(r.cpu_s for r in probes),
        "pipeline_cpu_s": statistics.median(p.cpu_s for p in pipelines),
        "cells_per_cpu_s": statistics.median(
            (p.cells_attempted - p.cells_failed) / p.records["certify"].cpu_s
            for p in pipelines),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in pipelines),
        "best_bound": pipelines[0].best_bound,
    }


def _top_up(records: list, minimum: int, run_one, expected: str,
            problems: list) -> None:
    """Run extra commands until there are `minimum` records.  run_one(i)
    returns the record and the output file, which must have the digest
    `expected` that the first pipeline's command wrote."""
    while not problems and len(records) < minimum:
        record, output = run_one(len(records))
        records.append(record)
        if record.returncode != 0:
            problems.append(f"{record.name} exited with {record.returncode}: "
                            f"{_tail(record.stderr)}")
        elif checks.sha256(output) != expected:
            problems.append(f"{output.name} differs between "
                            f"{record.name} commands")


def measure_untraced(bench: Bench, seconds: float):
    """Pipelines until `seconds` is spent (at least MIN_PIPELINES), then
    extra trains and probes up to MIN_SETUPS and MIN_PROBES."""
    start = time.monotonic()
    pipelines = []
    while True:
        pipelines.append(bench.pipeline(bench.work_dir / f"run{len(pipelines)}"))
        if pipelines[-1].problems:
            break
        elapsed = time.monotonic() - start
        per_pipeline = elapsed / len(pipelines)
        if len(pipelines) >= MIN_PIPELINES and (
                elapsed + per_pipeline > seconds
                or time.monotonic() + per_pipeline > bench.deadline):
            break
    problems = [msg for p in pipelines for msg in p.problems]
    setups = [p.records["train"] for p in pipelines if "train" in p.records]
    probes = [p.records["probe"] for p in pipelines if "probe" in p.records]
    first = pipelines[0]

    def train(i):
        run_dir = bench.work_dir / f"setup{i}"
        return bench.train(run_dir), run_dir / "theta_star.bin"

    def probe(i):
        record = bench.command("probe", ["--config", bench.ini,
                                         "--run", first.run_dir], first.run_dir)
        return record, first.run_dir / "landscape.csv"

    if not problems:
        _top_up(setups, MIN_SETUPS, train, first.digests["theta_star.bin"],
                problems)
        _top_up(probes, MIN_PROBES, probe, first.digests["landscape.csv"],
                problems)
    for p in pipelines[1:]:
        problems += checks.compare_digests(first.digests, p.digests,
                                           p.run_dir.name)
    metrics = {} if problems else end_to_end_metrics(pipelines, setups, probes)
    extras = setups[len(pipelines):] + probes[len(pipelines):]
    return pipelines, extras, problems, metrics


def per_layer_metrics(plain: Pipeline, traced: Pipeline) -> dict:
    """Span metrics of the traced pipeline, wall time, CPU time and peak RSS
    of the untraced one, and the tracing overhead between them."""
    metrics = spans.layer_metrics(traced.spans)
    for name, record in plain.records.items():
        metrics[f"cli.{name}.wall_s"] = record.wall_s
        metrics[f"cli.{name}.cpu_s"] = record.cpu_s
        metrics[f"cli.{name}.peak_rss_mb"] = record.peak_rss_mb
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics


def measure_traced(bench: Bench):
    """One untraced and one traced pipeline; per-layer metrics."""
    plain = bench.pipeline(bench.work_dir / "run0")
    pipelines = [plain]
    if not plain.problems:
        pipelines.append(bench.pipeline(bench.work_dir / "run1", traced=True))
    problems = [msg for p in pipelines for msg in p.problems]
    metrics = {}
    if not problems:
        traced = pipelines[1]
        problems += checks.compare_digests(plain.digests, traced.digests,
                                           "the traced run")
        totals = spans.aggregate(traced.spans)
        calls = Counter({name: t.calls for name, t in totals.items()})
        missing = spans.unreached(calls, traced.alias_calls, bench.facts)
        if missing:
            problems.append(f"patch points recorded no calls: {missing}")
        metrics = per_layer_metrics(plain, traced)
    return pipelines, problems, metrics


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found; run from the repository root")
    return json.loads(path.read_text())


def import_pbcert():
    """Import pbcert from ./src, never from an installed copy."""
    if not (SRC / "pbcert" / "cli.py").is_file():
        raise SetupError(f"pbcert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbcert.config

    if Path(pbcert.config.__file__).resolve().parent != (SRC / "pbcert").resolve():
        raise SetupError(f"pbcert imported from {pbcert.config.__file__}, "
                         f"not from {SRC}")
    return pbcert.config


def named_metrics(spec_metrics: list, values: dict) -> dict:
    """Values keyed and ordered by BENCHMARK.json, each with its unit."""
    expected = [m["name"] for m in spec_metrics]
    if values and set(values) != set(expected):
        raise ValueError(f"computed metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(expected) - set(values))}, "
                         f"extra {sorted(set(values) - set(expected))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics if m["name"] in values}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict, pbcert_config, deadline: float) -> dict:
    workload = workloads.WORKLOADS[name]
    work_dir = WORK / "work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    host_before = procs.host_cpu_seconds()
    try:
        bench = Bench(workload, seed, work_dir, deadline, pbcert_config)
        if trace:
            pipelines, problems, values = measure_traced(bench)
            extras = []
        else:
            pipelines, extras, problems, values = measure_untraced(bench, seconds)
        metrics = named_metrics(spec["per_layer" if trace else "end_to_end"],
                                values)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    host_after = procs.host_cpu_seconds()
    result = {
        "correct": not problems,
        "attempted": sum(p.cells_attempted for p in pipelines),
        "failed": sum(p.cells_failed for p in pipelines),
        "metrics": metrics,
    }
    report = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": procs.environment(ROOT),
        "host_cpu_s": {key: host_after[key] - host_before[key]
                       for key in host_before},
        "problems": problems,
        "pipelines": [{"run": p.run_dir.name, "digests": p.digests,
                       "commands": [r.summary() for r in p.records.values()]}
                      for p in pipelines],
        "extra_commands": [r.summary() for r in extras],
        "result": result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    name = report["workload"]
    for problem in report["problems"]:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    result = report["result"]
    for metric, entry in result["metrics"].items():
        print(f"{name:<11} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    if report["trace"] == 0:
        ratio = result["failed"] / result["attempted"]
        print(f"{name:<11} {'cell_failure_ratio':<34} {ratio:>14.6g} 1")
    for p in report["pipelines"]:
        for output, digest in p["digests"].items():
            print(f"{name:<11} sha256 {p['run']}/{output} {digest}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per untraced run "
                             "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        pbcert_config = import_pbcert()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all":
        deadline = time.monotonic() + TIME_LIMIT_S
        report = run_workload(args.workload, args.seed, seconds, args.trace,
                              spec, pbcert_config, deadline)
        print_report(report)
        print(json.dumps(report["result"]))
        return 0 if report["result"]["correct"] else 1
    reports = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + TIME_LIMIT_S
            reports.append(run_workload(name, args.seed, seconds, trace, spec,
                                        pbcert_config, deadline))
            print_report(reports[-1])
    print(json.dumps({f"{r['workload']}/trace{r['trace']}": r["result"]
                      for r in reports}))
    return 0 if all(r["result"]["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
