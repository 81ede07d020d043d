"""Every metric the benchmark prints is declared in BENCHMARK.json."""

import json
import re
from pathlib import Path

import pytest

import run
import workloads
from conftest import ROOT
from procs import CommandRecord

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _pipeline(name):
    p = run.Pipeline(Path(name), cells_attempted=4, best_bound=0.5)
    for cmd in ("train", "certify", "probe", "plot"):
        p.records[cmd] = CommandRecord(cmd, 0, False, 1.0, 1.5, 100.0, "")
    return p


def test_declared_names_and_units_follow_the_grammar():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_workloads_match_the_benchmark_table():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {name: " ".join(w.why.split())
                        for name, w in workloads.WORKLOADS.items()}


def test_end_to_end_names_match():
    values = run.end_to_end_metrics([_pipeline("run0"), _pipeline("run1")],
                                    [_pipeline("s").records["train"]] * 3,
                                    [_pipeline("s").records["probe"]] * 6)
    printed = run.named_metrics(SPEC["end_to_end"], values)
    assert list(printed) == [m["name"] for m in SPEC["end_to_end"]]
    assert printed["cells_per_cpu_s"] == {"value": 4 / 1.5, "unit": "cells/s"}


def test_per_layer_names_match():
    values = run.per_layer_metrics(_pipeline("run0"), _pipeline("run1"))
    printed = run.named_metrics(SPEC["per_layer"], values)
    assert list(printed) == [m["name"] for m in SPEC["per_layer"]]


def test_undeclared_or_missing_metric_is_refused():
    values = run.end_to_end_metrics([_pipeline("run0")],
                                    [_pipeline("s").records["train"]],
                                    [_pipeline("s").records["probe"]])
    with pytest.raises(ValueError, match="extra"):
        run.named_metrics(SPEC["end_to_end"], {**values, "surprise": 1.0})
    del values["setup_s"]
    with pytest.raises(ValueError, match="setup_s"):
        run.named_metrics(SPEC["end_to_end"], values)
