"""Span recording, self time and patch-point discovery."""

import json
import os
import subprocess
import sys
from collections import Counter
from itertools import count

import pytest

import pbcert.cli  # noqa: F401  (loads every pbcert module)
import spans
from conftest import BENCH, ROOT


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_from_nesting():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]
    rec = spans.Recorder(clock=_fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    a = rec.begin("a")
    b = rec.begin("b")
    rec.end(b)
    c = rec.begin("c")
    d = rec.begin("d")
    rec.end(d)
    rec.end(c)
    rec.end(a)
    assert [s[1] for s in rec.spans] == [-1, 0, 0, 2]
    assert spans.self_times(rec.spans) == [4, 2, 3, 1]
    totals = spans.aggregate([rec.spans, rec.spans])
    assert (totals["c"].calls, totals["c"].s, totals["c"].self_s) == (2, 8, 6)


def test_spans_must_close_in_order():
    rec = spans.Recorder(clock=count().__next__)
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_wrapper_records_failure_and_reraises():
    rec = spans.Recorder(clock=count().__next__)
    point = spans.PatchPoint("x.boom", info=lambda args, result: {"n": args["n"]})

    def boom(n):
        raise ValueError(n)

    with pytest.raises(ValueError):
        rec.wrap(point, boom, "x.boom")(3)
    assert rec.spans == [["x.boom", -1, 0, 1, {"n": 3, "error": 1}]]
    assert rec.alias_calls == Counter({"x.boom": 1})


def test_missing_patch_point_fails_loudly():
    with pytest.raises(spans.PatchError, match="nnet.no_such_function"):
        spans.install(spans.Recorder(),
                      points=(spans.PatchPoint("nnet.no_such_function"),),
                      aliases={})


def test_missing_alias_fails_loudly():
    with pytest.raises(spans.PatchError, match="certify.no_such_binding"):
        spans.install(spans.Recorder(), points=(),
                      aliases={"certify.no_such_binding": spans.always})


def test_unreached_names_expected_points_without_calls():
    facts = {"families": ["iso-init"]}
    calls = Counter({p.name: 1 for p in spans.PATCH_POINTS})
    alias_calls = Counter(dict.fromkeys(spans.ALIASES, 1))
    assert spans.unreached(calls, alias_calls, facts) == []
    calls["nnet.grad"] = 0
    calls["posteriors.vi_optimize_diag"] = 0      # not expected without vi-diag
    del alias_calls["certify.forward"]
    assert spans.unreached(calls, alias_calls, facts) == ["nnet.grad",
                                                          "certify.forward"]


def test_traced_cli_reaches_every_alias(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(
        "[data]\nn = 200\nd = 4\nk = 2\ntest_n = 100\n"
        "[net]\nhidden = 5,5\n[train]\nepochs = 2\n"
        "[posterior]\nfamilies = iso-init,vi-diag,skfac-block\n"
        "beta_count = 1\nlambda_count = 1\nvi_epochs = 1\n"
        "[bound]\nm = 2\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PBCERT_OUTPUT_ROOT", None)
    span_lists, alias_calls = [], Counter()
    for name, args in (("train", ["--out", tmp_path / "run"]),
                       ("certify", ["--run", tmp_path / "run"])):
        out = tmp_path / f"{name}.json"
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(out),
                        "--", name, "--config", str(config), *map(str, args)],
                       env=env, check=True, capture_output=True, timeout=120)
        saved = json.loads(out.read_text())
        span_lists.append(saved["spans"])
        alias_calls.update(saved["alias_calls"])
    facts = {"families": ["iso-init", "vi-diag", "skfac-block"]}
    calls = Counter({n: t.calls for n, t in spans.aggregate(span_lists).items()})
    missing = spans.unreached(calls, alias_calls, facts)
    # blobs data, and no probe or plot
    assert set(missing) == {"data.load_idx", "cli.cmd_probe", "cli.cmd_plot",
                            "curvature.landscape_probe",
                            "plotting.risk_complexity_svg"}
    metrics = spans.layer_metrics(span_lists)
    assert metrics["certify.cells.ok"] == 3 and metrics["certify.cells.failed"] == 0
    assert metrics["certify.mc.draws"] == 6
    assert metrics["nnet.forward.gflop"] == pytest.approx(
        2 * metrics["nnet.forward.rows"] * (4 * 5 + 5 * 5 + 5 * 2) / 1e9)
