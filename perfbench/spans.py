"""Spans recorded from outside pbcert, and the per-layer metrics built on them.

The benchmark wraps public functions of the pbcert modules.  The modules
bind each other's functions with `from ... import`, so one function can sit
under several names (`certify.forward`, `curvature.forward`,
`posteriors.nnet_grad`, ...); the wrapper replaces every binding.  Each
call records a span [name, parent index, start, end, info].  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from os.path import getsize
from pathlib import Path
from typing import Callable, Optional

import numpy as np

FAMILIES = ("iso-zero", "iso-init", "vi-diag", "skfac-block")


class PatchError(RuntimeError):
    pass


# Workload facts -> whether a patch point must record calls.
def always(facts):
    return True


def uses(*families):
    return lambda facts: bool(set(families) & set(facts["families"]))


def _file_bytes(key):
    return lambda args, result: {"bytes": getsize(args[key])}


def _run_dir_bytes(key):
    names = ("theta0.bin", "theta_star.bin", "meta.json")
    return lambda args, result: {
        "bytes": sum(getsize(Path(args[key]) / name) for name in names)}


def _forward_info(args, result):
    widths = args["spec"].widths
    rows = np.shape(args["X"])[0]
    flop = 2 * rows * sum(a * b for a, b in zip(widths, widths[1:]))
    return {"rows": rows, "flop": flop}


def _mc_info(args, result):
    info = {"m": args["m"], "cell": args["seed"]}
    if result is not None:
        info["sd"] = float(np.std(result[1]))
    return info


@dataclass(frozen=True)
class PatchPoint:
    name: str                         # "<module>.<function>", the span name
    expect: Callable = always         # facts -> calls expected
    info: Optional[Callable] = None   # (bound arguments, result or None) -> dict


PATCH_POINTS = (
    PatchPoint("cli.cmd_train"),
    PatchPoint("cli.cmd_certify"),
    PatchPoint("cli.cmd_probe"),
    PatchPoint("cli.cmd_plot"),
    PatchPoint("data.load_idx"),
    PatchPoint("manifest.save_dataset", info=_file_bytes("path")),
    PatchPoint("manifest.save_train_record", info=_run_dir_bytes("out_dir")),
    PatchPoint("manifest.load_dataset", info=_file_bytes("path")),
    PatchPoint("manifest.load_train_record", info=_run_dir_bytes("run_dir")),
    PatchPoint("nnet.train"),
    PatchPoint("nnet.forward", info=_forward_info),
    PatchPoint("nnet.grad", info=lambda args, result: {"rows": np.shape(args["X"])[0]}),
    PatchPoint("nnet.loss"),
    PatchPoint("curvature.all_block_hessians", uses("skfac-block")),
    PatchPoint("curvature.landscape_probe"),
    PatchPoint("posteriors.vi_optimize_diag", uses("vi-diag")),
    PatchPoint("posteriors.skfac_posterior", uses("skfac-block")),
    PatchPoint("gaussians.sample_gaussian"),
    PatchPoint("gaussians.kl_diag", uses("iso-zero", "iso-init", "vi-diag")),
    PatchPoint("gaussians.kl_block", uses("skfac-block")),
    PatchPoint("rng.child_seed"),
    PatchPoint("rng.rng_for"),
    PatchPoint("certify.grid_search",
               info=lambda args, result: {"family": args["family"]}),
    PatchPoint("certify.build_posterior",
               info=lambda args, result: {"family": args["family"],
                                          "cell": args["cell_seed"]}),
    PatchPoint("certify.mc_empirical_risk", info=_mc_info),
    PatchPoint("certify.assemble_bound",
               info=lambda args, result: {"cell": args.get("seed", 0)}),
    PatchPoint("certify.write_certificates_csv"),
    PatchPoint("certify.write_pareto_csv"),
    PatchPoint("plotting.risk_complexity_svg",
               info=lambda args, result: {"bytes": len(result.encode())}
               if result is not None else {}),
)

# Bindings made by `from ... import` that must exist and be reached.
ALIASES = {
    "certify.forward": always,
    "certify.sample_gaussian": always,
    "certify.child_seed": always,
    "posteriors.nnet_grad": uses("vi-diag"),
    "curvature.forward": always,
    "gaussians.rng_for": always,
    "nnet.grad": always,
}


class Recorder:
    """Keeps every span in memory; `spans` is written out at the end."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.alias_calls = Counter()
        self._open = []
        self._clock = clock

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self._clock(), None, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = self._clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def wrap(self, point: PatchPoint, fn: Callable, alias: str) -> Callable:
        signature = inspect.signature(fn) if point.info else None

        def wrapper(*args, **kwargs):
            self.alias_calls[alias] += 1
            index = self.begin(point.name)
            result = None
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.end(index)
                info = {}
                if point.info:
                    info = point.info(signature.bind(*args, **kwargs).arguments,
                                      result)
                if failed:
                    info["error"] = 1
                self.spans[index][4] = info or None

        return wrapper


def install(recorder: Recorder, points=PATCH_POINTS, aliases=ALIASES) -> list:
    """Wrap every binding of every patch point in the loaded pbcert modules.

    Raises PatchError when a patch point or a required alias is missing.
    Returns the patched bindings as "<module>.<name>".
    """
    modules = {name.split(".", 1)[1]: module for name, module in sys.modules.items()
               if name.startswith("pbcert.") and module is not None}
    patched = []
    for point in points:
        home, attr = point.name.split(".")
        original = getattr(modules.get(home), attr, None)
        if not callable(original):
            raise PatchError(f"patch point {point.name} no longer exists")
        for short, module in sorted(modules.items()):
            for key, value in list(vars(module).items()):
                if value is original:
                    alias = f"{short}.{key}"
                    setattr(module, key, recorder.wrap(point, original, alias))
                    patched.append(alias)
    missing = sorted(set(aliases) - set(patched))
    if missing:
        raise PatchError(f"expected bindings no longer exist: {missing}")
    return patched


def unreached(calls_by_name: Counter, alias_calls: Counter, facts: dict,
              points=PATCH_POINTS, aliases=ALIASES) -> list:
    """Patch points and aliases that recorded no call although expected."""
    names = [p.name for p in points if p.expect(facts) and not calls_by_name[p.name]]
    names += [a for a, expect in aliases.items()
              if expect(facts) and not alias_calls[a]]
    return names


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, _, start, end, _) in enumerate(spans)]


@dataclass
class Totals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


def aggregate(span_lists) -> dict:
    """name -> Totals over every span list (one list per traced process)."""
    totals = {}
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            t = totals.setdefault(span[0], Totals())
            t.calls += 1
            t.s += span[3] - span[2]
            t.self_s += own
    return totals


def _spans_named(span_lists, *names):
    for spans in span_lists:
        for span in spans:
            if span[0] in names:
                yield span[3] - span[2], span[4] or {}


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics of one traced pipeline (all its commands)."""
    totals = aggregate(span_lists)

    def get(name, field):
        return getattr(totals.get(name, Totals()), field)

    def info_sum(key, *names):
        return sum(info.get(key, 0) for _, info in _spans_named(span_lists, *names))

    metrics = {}
    for cmd in ("train", "certify", "probe", "plot"):
        metrics[f"cli.{cmd}.s"] = get(f"cli.cmd_{cmd}", "s")
    metrics["data.ingest.s"] = get("data.load_idx", "s")
    saves = ("manifest.save_dataset", "manifest.save_train_record")
    loads = ("manifest.load_dataset", "manifest.load_train_record")
    metrics["manifest.save.s"] = sum(get(n, "s") for n in saves)
    metrics["manifest.load.s"] = sum(get(n, "s") for n in loads)
    metrics["manifest.bytes_written"] = info_sum("bytes", *saves)
    metrics["manifest.bytes_read"] = info_sum("bytes", *loads)

    forward_self = get("nnet.forward", "self_s")
    gflop = info_sum("flop", "nnet.forward") / 1e9
    metrics["nnet.forward.rows"] = info_sum("rows", "nnet.forward")
    metrics["nnet.forward.gflop"] = gflop
    metrics["nnet.forward.gflops"] = gflop / forward_self if forward_self else 0.0
    metrics["nnet.grad.rows"] = info_sum("rows", "nnet.grad")
    for name, field in (("nnet.train", "s"),
                        ("nnet.forward", "calls"),
                        ("nnet.forward", "self_s"),
                        ("nnet.grad", "calls"),
                        ("nnet.grad", "self_s"),
                        ("nnet.loss", "self_s"),
                        ("curvature.all_block_hessians", "s"),
                        ("curvature.landscape_probe", "self_s"),
                        ("posteriors.vi_optimize_diag", "s"),
                        ("posteriors.skfac_posterior", "s"),
                        ("gaussians.sample_gaussian", "calls"),
                        ("gaussians.sample_gaussian", "self_s"),
                        ("rng.child_seed", "calls"),
                        ("rng.rng_for", "calls"),
                        ("certify.grid_search", "self_s"),
                        ("plotting.risk_complexity_svg", "s")):
        metrics[f"{name}.{field}"] = get(name, field)

    builds = list(_spans_named(span_lists, "certify.build_posterior"))
    for family in FAMILIES:
        own = [d for d, info in builds if info.get("family") == family]
        metrics[f"posteriors.build.{family}.s"] = statistics.fmean(own) if own else 0.0
    metrics["gaussians.kl.s"] = (get("gaussians.kl_diag", "s")
                                 + get("gaussians.kl_block", "s"))

    family_of_cell = {info["cell"]: info["family"] for _, info in builds}
    cell_s = dict.fromkeys(family_of_cell, 0.0)
    cell_names = ("certify.build_posterior", "certify.mc_empirical_risk",
                  "certify.assemble_bound")
    for duration, info in _spans_named(span_lists, *cell_names):
        if info.get("cell") in cell_s:
            cell_s[info["cell"]] += duration
    mc = [(d, info) for d, info in _spans_named(span_lists, "certify.mc_empirical_risk")
          if "sd" in info]
    metrics["certify.mc.draws"] = sum(info["m"] for _, info in mc)
    metrics["certify.mc.s"] = get("certify.mc_empirical_risk", "s")
    for family in FAMILIES:
        own = [(d, info) for d, info in mc
               if family_of_cell.get(info["cell"]) == family]
        draws = sum(info["m"] for _, info in own)
        metrics[f"certify.mc.ms_per_draw.{family}"] = (
            1000.0 * sum(d for d, _ in own) / draws if draws else 0.0)
        metrics[f"certify.mc.draw_sd.{family}"] = (
            statistics.fmean(info["sd"] for _, info in own) if own else 0.0)
    durations = list(cell_s.values())
    metrics["certify.cell.count"] = len(durations)
    for q in (50, 90):
        metrics[f"certify.cell.p{q}_s"] = (
            float(np.percentile(durations, q)) if durations else 0.0)
    ok = sum(1 for _, info in _spans_named(span_lists, "certify.assemble_bound")
             if info.get("cell") in cell_s and not info.get("error"))
    metrics["certify.cells.ok"] = ok
    metrics["certify.cells.failed"] = len(cell_s) - ok
    metrics["certify.write_csv.s"] = (get("certify.write_certificates_csv", "s")
                                      + get("certify.write_pareto_csv", "s"))
    metrics["plotting.svg_bytes"] = info_sum("bytes", "plotting.risk_complexity_svg")
    return metrics
