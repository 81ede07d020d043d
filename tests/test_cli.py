"""Run configuration, CLI subcommands, and SVG rendering."""

import builtins
import csv
import errno
import io
import json
import os
import re
import shutil
import warnings
import weakref
from dataclasses import MISSING, fields
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from pbcert import certify, cli
from pbcert.certify import FAMILIES, GridContext
from pbcert.cli import main
from pbcert.config import SCHEMA, ConfigError, load_config
from pbcert.manifest import load_test_data
from pbcert.nnet import TrainerConfig
from pbcert.plotting import risk_complexity_svg
from tests.conftest import write_idx_pair

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

RUN_BINS = ("theta0.bin", "theta_star.bin", "train_data.bin", "test_data.bin")

FLOAT_KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items()
              for key, (kind, _) in keys.items()
              if kind == "float"]

SMALL_CONFIG = """
[data]
n = 300
test_n = 200
d = 10
k = 2
separation = 5.0

[net]
hidden = 8

[train]
epochs = 3
batch_size = 64

[posterior]
families = iso-zero,iso-init
beta_count = 2
lambda_count = 2

[bound]
m = 5

[probe]
n_directions = 2
t_points = 9
t_min = -5
t_max = 5
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return path


class TestConfig:
    def test_defaults_without_file(self):
        config = load_config()
        assert config.get("data", "source") == "blobs"
        assert config.get("bound", "delta") == 0.025
        assert config.get("run", "seed") == 0

    def test_grids(self):
        config = load_config()
        beta = config.beta_grid
        lam = config.lambda_grid
        assert beta[0] == 1.0 and beta[-1] == 5.0 and len(beta) == 5
        assert lam[0] == pytest.approx(0.031) and lam[-1] == pytest.approx(0.3)
        # lambda grid is log-spaced: constant ratio
        ratios = [lam[i + 1] / lam[i] for i in range(len(lam) - 1)]
        assert np.allclose(ratios, ratios[0])

    def test_file_values_override_defaults(self, small_config):
        config = load_config(small_config)
        assert config.get("data", "n") == 300
        assert config.get("net", "hidden") == [8]
        assert config.get("posterior", "families") == ["iso-zero", "iso-init"]

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experimental]\nx = 1\n")
        with pytest.raises(ConfigError, match="section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nsources = blobs\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nn = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("dotted", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, tmp_path, dotted, raw):
        message = re.escape(f"bad value for {dotted}: {raw!r} is not finite")
        with pytest.raises(ConfigError, match=message):
            load_config(None, [f"{dotted}={raw}"])
        section, key = dotted.split(".")
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n[data]\nn = 5\n"],
        ids=["alone", "beside-data"])
    def test_default_section_refused(self, tmp_path, capsys, text):
        """[DEFAULT] is an unknown section like any other: its keys are
        neither dropped nor copied into the other sections."""
        path = tmp_path / "run.ini"
        path.write_text(text)
        with pytest.raises(ConfigError,
                           match=re.escape("unknown config section [DEFAULT]")):
            load_config(path)
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
        assert ("error: unknown config section [DEFAULT]"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_percent_in_a_value_loads_as_written(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nimages = /data/100%/images.idx\n"
                        "labels = /data/%(n)s/labels.idx\n")
        config = load_config(path)
        assert config.get("data", "images") == "/data/100%/images.idx"
        assert config.get("data", "labels") == "/data/%(n)s/labels.idx"

    @pytest.mark.parametrize("text", [
        b"n = 5\n", b"[data]\nn = 5\nn = 6\n", b"[data]\nn = 5\n[data]\nd = 3\n",
        b"[data]\nimages = \xff\xfe\n",
    ], ids=["no-section-header", "repeated-key", "repeated-section", "not-utf-8"])
    def test_unparsable_file_rejected(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_bytes(text)
        with pytest.raises(ConfigError,
                           match=re.escape(f"unparsable config file {path}: ")):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")

    def test_overrides(self, small_config):
        config = load_config(small_config, ["data.n=99", "bound.m=7"])
        assert config.get("data", "n") == 99
        assert config.get("bound", "m") == 7

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="override"):
            load_config(None, ["data-n-99"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            load_config(None, ["data.unknown=1"])

    def test_every_setting_has_one_home(self):
        """The objects built from config sections take every setting they
        have no default for, and nothing else, from config.SCHEMA;
        TrainerConfig has no field but the [train] settings."""
        def required(cls):
            return {f.name for f in fields(cls) if f.default is MISSING}

        assert {f.name for f in fields(TrainerConfig)} == set(SCHEMA["train"])
        vi = {key for key in SCHEMA["posterior"] if key.startswith("vi_")}
        settings = load_config().grid_settings
        assert set(settings) == set(SCHEMA["bound"]) | vi | {"seed"}
        assert required(GridContext) == set(settings) | {
            "spec", "theta_star", "theta0", "data"}

    def test_readme_example_config_and_families(self, tmp_path):
        text = README.read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", text, re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        config = load_config(path)
        assert set(config.get("posterior", "families")) <= set(FAMILIES)
        table = re.search(r"### Posterior families\n(.*?)\n\n", text, re.S)
        listed = re.findall(r"^\| `([^`]+)`", table.group(1), re.M)
        assert listed == list(FAMILIES)


def idx_overrides(images, labels):
    """`--set` arguments that read both splits from one IDX pair."""
    return [arg for override in (
        "data.source=idx", f"data.images={images}", f"data.labels={labels}",
        f"data.test_images={images}", f"data.test_labels={labels}")
        for arg in ("--set", override)]


def run_pipeline(small_config, out_dir):
    code = main(["train", "--config", str(small_config),
                 "--out", str(out_dir)])
    assert code == 0
    code = main(["certify", "--config", str(small_config),
                 "--run", str(out_dir)])
    assert code == 0
    return out_dir


class TestCliPipeline:
    def test_train_writes_manifest(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        for name in ("meta.json", *RUN_BINS):
            assert (out / name).exists()
        assert "train_error" in capsys.readouterr().out

    def test_certify_outputs_are_valid(self, small_config, tmp_path):
        out = run_pipeline(small_config, tmp_path / "run")
        with open(out / "certificates.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8   # 2 families x 2 betas x 2 lambdas
        for row in rows:
            assert row["schema_version"] == "1"
            assert 0.0 <= float(row["bound_value"]) <= 1.0
            assert row["validity"] == "valid"
        with open(out / "pareto.csv", newline="") as f:
            pareto = list(csv.DictReader(f))
        assert any(r["family"] == "reference" for r in pareto)

    def test_pareto_rows_are_certificate_rows(self, small_config, tmp_path):
        out = run_pipeline(small_config, tmp_path / "run")
        cert_header, *cert_lines = (
            (out / "certificates.csv").read_bytes().splitlines())
        header, *lines = (out / "pareto.csv").read_bytes().splitlines()
        assert header == cert_header
        reference = [line for line in lines
                     if line.split(b",")[1] == b"reference"]
        assert len(reference) == 1
        fronts = [line for line in lines if line not in reference]
        assert fronts and all(line in cert_lines for line in fronts)

    def test_certify_counts_only_valid_rows_as_non_vacuous(
            self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        assert main(["certify", "--config", str(small_config),
                     "--run", str(out), "--set",
                     "posterior.families=closed-joint,closed-diag"]) == 0
        rows = certify.read_certificates_csv(out / "certificates.csv")
        below_one = [row for row in rows if row.bound_value < 1.0]
        # an invalid-prior row below 1 is in the run, and not counted
        assert any(not row.valid_prior for row in below_one)
        valid = sum(row.valid_prior for row in below_one)
        assert (f"certified: {len(rows)} cells, {valid} non-vacuous;"
                in capsys.readouterr().out)

    def test_isotropic_families_share_one_estimate_per_cell(
            self, small_config, tmp_path, monkeypatch):
        """`iso-zero` and `iso-init` build one posterior per cell, so the
        2 x 2 sweep of both draws m weight vectors per cell, not per row;
        an `iso-zero` row carries iso-init's estimate and seed, and its own
        larger KL."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        draws = []
        real = certify.sample_gaussian

        def counted(*args):
            draws.append(None)
            return real(*args)

        monkeypatch.setattr(certify, "sample_gaussian", counted)
        assert main(["certify", "--config", str(small_config),
                     "--run", str(out)]) == 0
        assert len(draws) == 4 * load_config(small_config).get("bound", "m")
        rows = certify.read_certificates_csv(out / "certificates.csv")
        init = {(c.beta, c.lam): c for c in rows if c.family == "iso-init"}
        zero = [c for c in rows if c.family == "iso-zero"]
        assert len(zero) == len(init) == 4
        for cert in zero:
            twin = init[(cert.beta, cert.lam)]
            assert (cert.risk_mc, cert.seed) == (twin.risk_mc, twin.seed)
            assert cert.kl_nats > twin.kl_nats

    def test_pipeline_is_bitwise_deterministic(self, small_config, tmp_path):
        a = run_pipeline(small_config, tmp_path / "a")
        b = run_pipeline(small_config, tmp_path / "b")
        for name in ("certificates.csv", "pareto.csv", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_probe_writes_landscape(self, small_config, tmp_path, capsys):
        out = run_pipeline(small_config, tmp_path / "run")
        assert main(["probe", "--config", str(small_config),
                     "--run", str(out)]) == 0
        lines = (out / "landscape.csv").read_text().splitlines()
        assert lines[0] == "schema_version,direction,t,loss,fit"
        assert len(lines) == 1 + 2 * 9
        assert "R^2" in capsys.readouterr().out

    def test_plot_from_both_csv_kinds(self, small_config, tmp_path):
        out = run_pipeline(small_config, tmp_path / "run")
        svg1 = tmp_path / "certs.svg"
        svg2 = tmp_path / "pareto.svg"
        assert main(["plot", str(out / "certificates.csv"),
                     "--out", str(svg1)]) == 0
        assert main(["plot", str(out / "pareto.csv"),
                     "--out", str(svg2)]) == 0
        for path in (svg1, svg2):
            text = path.read_text()
            assert text.startswith("<svg ") and text.endswith("</svg>\n")
        # the pareto CSV carries the reference star marker
        assert "polygon" in svg2.read_text()

    def test_plot_takes_one_front_over_every_input(self, small_config,
                                                   tmp_path):
        seed_one = tmp_path / "seed1.ini"
        seed_one.write_text(SMALL_CONFIG + "\n[run]\nseed = 1\n")
        a = run_pipeline(small_config, tmp_path / "a")
        b = run_pipeline(seed_one, tmp_path / "b")

        def without_star(run):
            # the reference star is only in pareto CSVs; drop it to compare
            path = run / "pareto-no-star.csv"
            rows = (run / "pareto.csv").read_text().splitlines(keepends=True)
            path.write_text("".join(row for row in rows
                                    if row.split(",")[1] != "reference"))
            return path

        def plot(*paths):
            svg = tmp_path / "plot.svg"
            assert main(["plot", *map(str, paths), "--out", str(svg)]) == 0
            return svg.read_bytes()

        both = plot(a / "certificates.csv", b / "certificates.csv")
        assert both == plot(without_star(a), without_star(b))
        assert both != plot(b / "certificates.csv")

    def test_certify_exit_code_on_missing_run(self, small_config, tmp_path,
                                              capsys):
        for command in ("certify", "probe"):
            code = main([command, "--config", str(small_config),
                         "--run", str(tmp_path / "nowhere")])
            assert code == 2
            assert (str(tmp_path / "nowhere" / "meta.json")
                    in capsys.readouterr().err)

    def test_certify_exit_code_when_every_cell_fails(
            self, small_config, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        calls = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise FloatingPointError("no Fisher today")

        # every closed-diag cell reads the Fisher, which is computed once
        monkeypatch.setattr(certify, "diag_fisher", broken)
        code = main(["certify", "--config", str(small_config), "--run", str(out),
                     "--set", "posterior.families=closed-diag"])
        assert code == 1
        assert "certify: 4 of 4 cells failed" in capsys.readouterr().err
        assert len(calls) == 1
        assert not (out / "certificates.csv").exists()

    def test_retrain_in_place_uses_fresh_curvature(self, small_config,
                                                   tmp_path):
        def pipeline(out, seed):
            args = ["--config", str(small_config),
                    "--set", f"run.seed={seed}",
                    "--set", "posterior.families=closed-diag"]
            assert main(["train", *args, "--out", str(out)]) == 0
            assert main(["certify", *args, "--run", str(out)]) == 0
            return (out / "certificates.csv").read_bytes()

        reused = tmp_path / "reused"
        pipeline(reused, seed=1)
        assert pipeline(reused, seed=2) == pipeline(tmp_path / "fresh", seed=2)
        assert not (reused / "fisher_cache.npy").exists()

    LISTED = f"(families: {', '.join(FAMILIES)})"

    @pytest.mark.parametrize("setting, message", [
        pytest.param("posterior.families=iso-zero,iso-zeroo,iso-zero",
                     f"unknown family 'iso-zeroo' in posterior.families {LISTED}",
                     id="iso-zero,iso-zeroo,iso-zero-iso-zeroo"),
        pytest.param("posterior.families=closed-diag,skfac-block,closed-diag",
                     f"repeated family 'closed-diag' in posterior.families {LISTED}",
                     id="closed-diag,skfac-block,closed-diag-closed-diag"),
        pytest.param("posterior.families=", f"posterior.families is empty {LISTED}",
                     id="-"),
        *(pytest.param(setting, message, id=setting) for setting, message in [
            ("posterior.beta_count=0", "beta_count and posterior.lambda_count"),
            ("posterior.lambda_count=0", "beta_count and posterior.lambda_count"),
            ("posterior.lambda_min=0",
             "bad posterior grid: posterior.lambda_min must be positive; got 0.0"),
            ("posterior.beta_min=0", "bad bound setting: beta must be positive"),
            ("posterior.beta_min=-1", "bad bound setting: beta must be positive"),
            ("bound.m=0", "bad bound setting: m must be >= 1"),
            ("bound.delta=0", "bad bound setting: delta must lie in (0, 1)"),
            ("bound.delta_prime=1.5",
             "bad bound setting: delta_prime must lie in (0, 1)"),
            ("posterior.lambda_max=0.995", "lambda must be at most c exp(-1/b)"),
            ("posterior.lambda_max=1.5",
             "lambda must lie in (0, c); got lambda=1.5, c=1.0"),
            ("posterior.vi_epochs=0", "posterior.vi_epochs must be at least 1; got 0"),
            ("posterior.vi_epochs=-1", "posterior.vi_epochs must be at least 1; got -1"),
            ("posterior.vi_batch_size=0",
             "posterior.vi_batch_size must be at least 1; got 0"),
            ("posterior.vi_batch_size=-5",
             "posterior.vi_batch_size must be at least 1; got -5"),
            ("posterior.vi_lr=0", "posterior.vi_lr must be positive; got 0.0"),
            ("posterior.vi_lr=-0.1", "posterior.vi_lr must be positive; got -0.1"),
            ("bound.b=0", "error: unknown key bound.b"),
            ("bound.c=0.01", "error: unknown key bound.c"),
        ]),
    ])
    def test_certify_rejects_bad_families_before_work(
            self, small_config, tmp_path, capsys, monkeypatch, setting,
            message):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0

        def refuse(*args, **kwargs):
            raise RuntimeError("work done for a bad sweep")

        monkeypatch.setattr(cli, "load_train_record", refuse)
        monkeypatch.setattr(certify, "diag_fisher", refuse)
        monkeypatch.setattr(certify, "all_block_hessians", refuse)
        code = main(["certify", "--config", str(small_config), "--run", str(out),
                     "--set", setting])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()
        assert not (out / "pareto.csv").exists()

    @pytest.mark.parametrize("setting, message", [
        pytest.param(setting, message, id=setting) for setting, message in [
            ("probe.n_directions=0",
             "bad probe setting: n_directions must be at least 1; got 0"),
            ("probe.n_directions=-1",
             "bad probe setting: n_directions must be at least 1; got -1"),
            ("probe.t_points=2",
             "bad probe setting: the t grid has 2 distinct values"),
            ("probe.t_points=0",
             "bad probe setting: the t grid has 0 distinct values"),
            ("probe.t_points=-1",
             "bad probe setting: Number of samples, -1, must be non-negative"),
            ("probe.t_max=-5",
             "bad probe setting: the t grid has 1 distinct values"),
            ("posterior.lambda_min=0",
             "bad probe setting: posterior.lambda_min must be positive; got 0.0"),
            ("posterior.lambda_min=-0.3 posterior.lambda_max=-0.03",
             "bad probe setting: posterior.lambda_min must be positive; got -0.3"),
            ("probe.lambdas=-0.1", "unknown key probe.lambdas"),
            ("probe.lambdas=0.04,0", "unknown key probe.lambdas"),
        ]
    ])
    def test_probe_rejects_bad_settings_before_loading(
            self, small_config, tmp_path, capsys, monkeypatch, setting,
            message):
        """probe.lambdas is gone (probe reads the certified lambda grid), so
        setting it is refused as an unknown key, like any bad setting."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0

        def refuse(*args, **kwargs):
            raise RuntimeError("run loaded for a bad probe")

        monkeypatch.setattr(cli, "load_train_record", refuse)
        overrides = [arg for item in setting.split() for arg in ("--set", item)]
        code = main(["probe", "--config", str(small_config), "--run", str(out),
                     *overrides])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

    @pytest.mark.parametrize("command, prefix", [
        ("certify", "bad posterior grid"), ("probe", "bad probe setting")])
    @pytest.mark.parametrize("key", ["lambda_min", "lambda_max"])
    @pytest.mark.parametrize("action", ["error", "always"])
    def test_lambda_end_below_zero_exits_2_without_a_warning(
            self, tmp_path, capsys, command, prefix, key, action):
        """A lambda grid whose ends have opposite signs is refused before
        np.geomspace could warn, whether warnings raise or print."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            code = main([command, "--run", str(tmp_path / "run"),
                         "--set", f"posterior.{key}=-0.3"])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err == (
            f"error: {prefix}: posterior.{key} must be positive; got -0.3\n")

    def test_config_naming_a_removed_key_exits_2(self, small_config,
                                                 tmp_path, capsys, monkeypatch):
        """An old config that still sets bound.b, bound.c, probe.lambdas or
        run.output, in its file or by --set, is refused as naming an
        unknown key, before any data or run is loaded."""
        def refuse(*args, **kwargs):
            raise RuntimeError("data loaded for an old config")

        monkeypatch.setattr(cli, "_build_datasets", refuse)
        monkeypatch.setattr(cli, "load_train_record", refuse)
        run = tmp_path / "run"
        for command, section, key in (("certify", "bound", "b"),
                                      ("certify", "bound", "c"),
                                      ("probe", "probe", "lambdas"),
                                      ("train", "run", "output")):
            header = f"[{section}]\n"
            text = small_config.read_text()
            if header not in text:
                text += f"\n{header}"
            old = tmp_path / f"{key}.ini"
            old.write_text(text.replace(header, f"{header}{key} = 1.0\n"))
            target = "--out" if command == "train" else "--run"
            for args in (["--config", str(old)],
                         ["--set", f"{section}.{key}=1.0"]):
                assert main([command, *args, target, str(run)]) == 2
                assert (f"error: unknown key {section}.{key}"
                        in capsys.readouterr().err)
        assert not run.exists()

    def test_one_point_grid_notes_its_unused_max(self, small_config, tmp_path,
                                                capsys):
        """A one-point grid certifies at its min; the unused max is named
        on stderr, and the exit code and files are those of a grid whose
        max is its min."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        digests = []
        for beta_max in ("9.0", "1.0"):
            assert main(["certify", "--config", str(small_config), "--run",
                         str(out), "--set", "posterior.beta_count=1",
                         "--set", f"posterior.beta_max={beta_max}"]) == 0
            notes = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("note:")]
            digests.append((out / "certificates.csv").read_bytes())
            if beta_max == "9.0":
                assert notes == ["note: posterior.beta_count = 1 certifies at "
                                 "beta_min = 1.0 only; beta_max = 9.0 is unused"]
            else:
                assert notes == []
        assert digests[0] == digests[1]

    def test_certify_computes_only_the_curvature_in_use(
            self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        calls = []

        def counted(name):
            real = getattr(certify, name)

            def fn(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return fn

        for name in ("diag_fisher", "all_block_hessians"):
            monkeypatch.setattr(certify, name, counted(name))
        args = ["certify", "--config", str(small_config), "--run", str(out)]
        for families, expected in [
                ("iso-zero,iso-init", []),
                ("closed-diag,closed-joint", ["diag_fisher"]),
                ("skfac-block", ["all_block_hessians"])]:
            calls.clear()
            assert main([*args, "--set", f"posterior.families={families}"]) == 0
            assert calls == expected, families

    def test_curvature_failure_fails_only_its_cells(
            self, small_config, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0

        def broken(*args, **kwargs):
            raise FloatingPointError("no Fisher today")

        monkeypatch.setattr(certify, "diag_fisher", broken)
        args = ["certify", "--config", str(small_config), "--run", str(out)]
        assert main([*args, "--set", "posterior.families=iso-zero,closed-diag"]) == 0
        err = capsys.readouterr().err
        assert "certify: 4 of 8 cells failed" in err
        assert "[closed-diag beta=1.0 lambda=0.031]: FloatingPointError" in err
        assert main([*args, "--set", "posterior.families=closed-diag"]) == 1
        assert "certify: 4 of 4 cells failed" in capsys.readouterr().err

    @pytest.mark.parametrize("name", RUN_BINS)
    def test_certify_refuses_tampered_data(self, small_config, tmp_path,
                                           capsys, monkeypatch, name):
        """Every run file, the test split too, is checked before any cell."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        path = out / name
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0x01     # one bit of one payload value
        path.write_bytes(bytes(payload))

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran on a tampered run")

        monkeypatch.setattr(certify, "grid_search", refuse)
        code = main(["certify", "--config", str(small_config),
                     "--run", str(out)])
        assert code == 1
        assert f"{name}: sha256 differs" in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()

    def test_certify_lets_go_of_the_test_split_before_the_sweep(
            self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["--config", str(small_config)]
        assert main(["train", *args, "--out", str(out)]) == 0
        loaded = []

        def load(run_dir):
            test_ds = load_test_data(run_dir)
            loaded.extend((weakref.ref(test_ds), weakref.ref(test_ds.X)))
            return test_ds

        alive = []
        sweep = certify.grid_search

        def watched(*sweep_args, **kwargs):
            alive.append([ref() is not None for ref in loaded])
            return sweep(*sweep_args, **kwargs)

        monkeypatch.setattr(cli, "load_test_data", load)
        monkeypatch.setattr(certify, "grid_search", watched)
        assert main(["certify", *args, "--run", str(out)]) == 0
        assert len(loaded) == 2
        # one sweep per family, none of them with the test split alive
        assert alive == [[False, False]] * 2

    def test_each_run_file_is_read_once(self, small_config, tmp_path,
                                        monkeypatch):
        out = tmp_path / "run"
        args = ["--config", str(small_config)]
        opened = []

        def counted(real):
            def open_(file, mode="r", *rest, **kwargs):
                opened.append((Path(str(file)).name, mode))
                return real(file, mode, *rest, **kwargs)
            return open_

        monkeypatch.setattr(builtins, "open", counted(builtins.open))
        monkeypatch.setattr(io, "open", counted(io.open))
        assert main(["train", *args, "--out", str(out)]) == 0
        bins = [(name, mode) for name, mode in opened if name in RUN_BINS]
        assert sorted(bins) == sorted((name, "wb") for name in RUN_BINS)
        # the probe has no use for the test set
        probe_bins = tuple(name for name in RUN_BINS if name != "test_data.bin")
        for command, names in (("certify", RUN_BINS), ("probe", probe_bins)):
            opened.clear()
            assert main([command, *args, "--run", str(out)]) == 0
            bins = [(name, mode) for name, mode in opened if name in RUN_BINS]
            assert sorted(bins) == sorted((name, "rb") for name in names)

    def test_certify_reads_a_run_that_records_epoch_losses(self, small_config,
                                                            tmp_path):
        """Older runs' meta.json holds a per-epoch loss list; it is ignored."""
        out = tmp_path / "run"
        args = ["--config", str(small_config)]
        assert main(["train", *args, "--out", str(out)]) == 0
        meta_path = out / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert "epoch_losses" not in meta
        meta["epoch_losses"] = [0.41, 0.12, 0.07]
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        assert main(["certify", *args, "--run", str(out)]) == 0
        assert (out / "certificates.csv").exists()

    def test_a_run_that_records_adam_constants_loads_as_before(
            self, small_config, tmp_path):
        """Runs written before training and VI shared one Adam record its
        constants in meta.json's trainer section; they are ignored, and
        certify and probe write the same bytes."""
        args = ["--config", str(small_config)]
        new, old = tmp_path / "new", tmp_path / "old"
        assert main(["train", *args, "--out", str(new)]) == 0
        shutil.copytree(new, old)
        meta_path = old / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert "adam_eps" not in meta["trainer"]
        meta["trainer"].update(adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-7)
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        for run in (new, old):
            assert main(["certify", *args, "--run", str(run)]) == 0
            assert main(["probe", *args, "--run", str(run)]) == 0
        for name in ("certificates.csv", "pareto.csv", "landscape.csv"):
            assert (old / name).read_bytes() == (new / name).read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda trainer: trainer.pop("loss"), "trainer section lacks loss"),
        (lambda trainer: trainer.update(momentun=0.9),
         "trainer section has unknown keys momentun"),
    ], ids=["missing-loss", "unknown-key"])
    def test_a_trainer_section_that_is_not_train_settings_is_refused(
            self, small_config, tmp_path, capsys, edit, message):
        args = ["--config", str(small_config)]
        out = tmp_path / "run"
        assert main(["train", *args, "--out", str(out)]) == 0
        meta_path = out / "meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta["trainer"])
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        for command in ("certify", "probe"):
            assert main([command, *args, "--run", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"ManifestError: {meta_path}: {message}" in err
        assert not (out / "certificates.csv").exists()
        assert not (out / "landscape.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("trainer"), "no 'trainer' key"),
        (lambda meta: meta.pop("theta_star_sha256"),
         "no 'theta_star_sha256' key"),
        (None, "not a JSON object: "),
        (lambda meta: meta.update(widths=[10, "x", 2]),
         "bad 'widths' [10, 'x', 2]: not a list of integers"),
        (lambda meta: meta.update(widths=[10, 0, 2]),
         "bad 'widths' [10, 0, 2]: widths must be positive"),
        (lambda meta: meta.update(seed="x"), "bad 'seed' 'x': not an integer"),
    ], ids=["no-trainer", "no-theta-star-digest", "not-json",
            "widths-not-integer", "widths-zero", "seed-not-integer"])
    def test_a_malformed_manifest_is_refused_naming_its_cause(
            self, small_config, tmp_path, capsys, monkeypatch, edit, message):
        args = ["--config", str(small_config)]
        out = tmp_path / "run"
        assert main(["train", *args, "--out", str(out)]) == 0
        meta_path = out / "meta.json"
        if edit is None:
            meta_path.write_text("{ this is not JSON\n")
        else:
            meta = json.loads(meta_path.read_text())
            edit(meta)
            meta_path.write_text(json.dumps(meta))

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran on a malformed meta.json")

        monkeypatch.setattr(certify, "grid_search", refuse)
        monkeypatch.setattr(cli, "landscape_probe", refuse)
        capsys.readouterr()
        for command in ("certify", "probe"):
            assert main([command, *args, "--run", str(out)]) == 1
            err = capsys.readouterr().err
            assert (f"runtime failure: ManifestError: {meta_path}: "
                    f"{message}") in err
        assert not (out / "certificates.csv").exists()
        assert not (out / "landscape.csv").exists()

    def test_probe_runs_without_the_test_set(self, small_config, tmp_path):
        out = tmp_path / "run"
        args = ["--config", str(small_config)]
        assert main(["train", *args, "--out", str(out)]) == 0
        (out / "test_data.bin").unlink()
        assert main(["probe", *args, "--run", str(out)]) == 0
        assert (out / "landscape.csv").exists()

    def test_closed_diag_kl_does_not_depend_on_the_run_seed(self, small_config,
                                                             tmp_path):
        # the posterior is built from the exact Fisher at theta*: only the
        # Monte-Carlo draws read the seed
        out = tmp_path / "run"
        args = ["--config", str(small_config)]
        assert main(["train", *args, "--out", str(out)]) == 0

        def certify_column(seed, column):
            assert main(["certify", *args, "--run", str(out),
                         "--set", "posterior.families=closed-diag",
                         "--set", f"run.seed={seed}"]) == 0
            with open(out / "certificates.csv", newline="") as f:
                return [row[column] for row in csv.DictReader(f)]

        assert certify_column(1, "seed") != certify_column(2, "seed")
        assert certify_column(1, "kl_nats") == certify_column(2, "kl_nats")

    def test_probe_uses_the_loss_the_run_was_trained_with(self, small_config,
                                                          tmp_path):
        out = tmp_path / "run"
        args = ["--config", str(small_config)]
        assert main(["train", *args, "--out", str(out)]) == 0

        def probe(*overrides):
            assert main(["probe", *args, *overrides, "--run", str(out)]) == 0
            return (out / "landscape.csv").read_bytes()

        assert probe() == probe("--set", "train.loss=mse")

    @pytest.mark.parametrize("setting, message", [
        pytest.param(setting, message, id=setting) for setting, message in [
            ("train.optimizer=rmsprop",
             "unknown train.optimizer 'rmsprop' (optimizers: sgd, adam)"),
            ("train.loss=zero_one", "train.loss 'zero_one' cannot be trained "
                                    "(losses: categorical, mse)"),
            ("train.loss=hinge", "train.loss 'hinge' cannot be trained "
                                 "(losses: categorical, mse)"),
            ("train.epochs=0", "train.epochs must be at least 1; got 0"),
            ("train.batch_size=0", "train.batch_size must be at least 1; got 0"),
            ("train.batch_size=-5",
             "train.batch_size must be at least 1; got -5"),
            ("train.lr=0", "train.lr must be positive; got 0.0"),
            ("train.lr=-0.1", "train.lr must be positive; got -0.1"),
            ("train.decay=-0.1", "train.decay must be at least 0; got -0.1"),
            ("train.init_gain=0", "train.init_gain must not be 0"),
            ("train.momentum=1.5",
             "train.momentum must lie in [0, 1]; got 1.5"),
            ("train.momentum=-0.5",
             "train.momentum must lie in [0, 1]; got -0.5"),
            ("net.hidden=", "net.hidden must list at least one width of at "
                            "least 1; got []"),
            ("net.hidden=8,0", "net.hidden must list at least one width of at "
                               "least 1; got [8, 0]"),
            ("data.n=0", "data.n must be at least 1; got 0"),
            ("data.n=-3", "data.n must be at least 1; got -3"),
            ("data.test_n=0", "data.test_n must be at least 1; got 0"),
            ("data.d=0", "data.d must be at least 1; got 0"),
            ("data.k=0", "data.k must be at least 1; got 0"),
            ("data.collapse=3",
             "data.collapse must be 0 or one of (2, 5); got 3"),
            ("data.collapse=-2",
             "data.collapse must be 0 or one of (2, 5); got -2"),
            ("data.collapse=2", "data.collapse needs data.k = 10; got 2"),
        ]])
    def test_train_rejects_untrainable_settings_before_work(
            self, small_config, tmp_path, capsys, monkeypatch, setting,
            message):
        def refuse(*args, **kwargs):
            raise RuntimeError("datasets built for a bad trainer")

        monkeypatch.setattr(cli, "_build_datasets", refuse)
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config), "--out", str(out),
                     "--set", setting]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, setting", [
        ("train", "train.lr=inf"), ("train", "data.separation=nan"),
        ("certify", "bound.delta=nan"), ("certify", "posterior.beta_max=inf"),
        ("probe", "probe.t_min=nan"), ("probe", "posterior.lambda_max=inf"),
    ])
    def test_non_finite_setting_exits_2_before_work(
            self, small_config, tmp_path, capsys, monkeypatch, command,
            setting):
        def refuse(*args, **kwargs):
            raise RuntimeError("work done for a non-finite setting")

        monkeypatch.setattr(cli, "_build_datasets", refuse)
        monkeypatch.setattr(cli, "load_train_record", refuse)
        out = tmp_path / "run"
        target = "--out" if command == "train" else "--run"
        assert main([command, "--config", str(small_config), target, str(out),
                     "--set", setting]) == 2
        dotted, raw = setting.split("=")
        assert (f"error: bad value for {dotted}: {raw!r} is not finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_directory_config_exits_2_with_its_reason(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path), "--out",
                     str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert (f"error: cannot read config file {tmp_path}: "
                f"{os.strerror(errno.EISDIR)}" in err)
        assert not (tmp_path / "run").exists()

    def test_unparsable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("n = 5\n")
        assert main(["train", "--config", str(path), "--out",
                     str(tmp_path / "run")]) == 2
        assert (f"error: unparsable config file {path}: "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("classes, test_classes, truncate, code, message", [
        (4, 4, 0, 2, "bad data.collapse: collapse requires 10 classes"),
        (10, 10, 3, 1, "truncated file while reading image data"),
        (10, 10, 0, 0, ""),
        (10, 9, 0, 0, ""),
    ], ids=["four-classes", "truncated", "ten-classes",
            "test-split-lacks-a-class"])
    def test_train_collapses_a_loaded_dataset_of_ten_classes(
            self, small_config, tmp_path, capsys, classes, test_classes,
            truncate, code, message):
        """k counts the labels of both splits, so a test split without the
        last class still collapses."""
        overrides = ["data.source=idx", "data.collapse=2"]
        for split, prefix in (("train", ""), ("test", "test_")):
            n_classes = classes if split == "train" else test_classes
            labels = [c for c in range(n_classes) for _ in range(3)]
            (tmp_path / split).mkdir()
            images, label_file = write_idx_pair(
                tmp_path / split, range(4 * len(labels)), labels,
                truncate=truncate if split == "train" else 0)
            overrides += [f"data.{prefix}images={images}",
                          f"data.{prefix}labels={label_file}"]
        args = [arg for override in overrides for arg in ("--set", override)]
        assert main(["train", "--config", str(small_config),
                     "--out", str(tmp_path / "run"), *args]) == code
        assert message in capsys.readouterr().err

    def test_train_rejects_idx_splits_of_different_widths_before_training(
            self, small_config, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("trained on splits of different widths")

        monkeypatch.setattr(cli, "train", refuse)
        labels = [0, 1, 0, 1, 1, 0]
        overrides = ["data.source=idx"]
        for split, prefix, side in (("train", "", 8), ("test", "test_", 9)):
            (tmp_path / split).mkdir()
            images, label_file = write_idx_pair(
                tmp_path / split, [7] * (side * side * len(labels)), labels,
                rows=side, cols=side)
            overrides += [f"data.{prefix}images={images}",
                          f"data.{prefix}labels={label_file}"]
        args = [arg for override in overrides for arg in ("--set", override)]
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config), "--out", str(out),
                     *args]) == 2
        err = capsys.readouterr().err
        assert "64" in err and "81" in err
        assert not out.exists()

    def test_train_rejects_an_idx_file_without_images(self, small_config,
                                                      tmp_path, capsys):
        """0 images: a DataFormatError that names the file, exit 1, not
        numpy's reduction error from the empty label array."""
        images, labels = write_idx_pair(tmp_path, [], [])
        args = idx_overrides(images, labels)
        assert main(["train", "--config", str(small_config),
                     "--out", str(tmp_path / "run"), *args]) == 1
        err = capsys.readouterr().err
        assert f"DataFormatError: image count 0 in {images}" in err

    def test_train_refuses_idx_rows_below_one(self, small_config, tmp_path,
                                              capsys):
        """rows = cols = -2 would read 3 images as 3 x 4: a DataFormatError
        that names the file, exit 1, no run directory."""
        images, labels = write_idx_pair(tmp_path, range(12), [0, 1, 0],
                                        rows=-2, cols=-2)
        args = idx_overrides(images, labels)
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert f"DataFormatError: rows -2 in {images}" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra_pixels, extra_labels", [
        (0, 0), (7, 0), (0, 2)],
        ids=["exact", "trailing-image-bytes", "trailing-labels"])
    def test_train_refuses_idx_bytes_after_the_payload_before_training(
            self, small_config, tmp_path, capsys, monkeypatch, extra_pixels,
            extra_labels):
        def reached_training(*args, **kwargs):
            raise RuntimeError("reached training")

        monkeypatch.setattr(cli, "train", reached_training)
        images, labels = write_idx_pair(tmp_path, range(4 * 6),
                                        [0, 1, 0, 1, 1, 0])
        images.write_bytes(images.read_bytes() + bytes(extra_pixels))
        labels.write_bytes(labels.read_bytes() + bytes(extra_labels))
        args = idx_overrides(images, labels)
        assert main(["train", "--config", str(small_config),
                     "--out", str(tmp_path / "run"), *args]) == 1
        err = capsys.readouterr().err
        if not (extra_pixels or extra_labels):
            assert "RuntimeError: reached training" in err
        else:
            bad = images if extra_pixels else labels
            assert ("DataFormatError: trailing bytes after the payload of "
                    f"{bad}" in err)
            assert "reached training" not in err

    @pytest.mark.parametrize("source, key", [
        ("idx", "test_labels"), ("cifar", "test_batches")])
    @pytest.mark.parametrize("kind", ["directory", "empty"])
    def test_train_refuses_a_dataset_path_that_is_not_a_file(
            self, small_config, tmp_path, capsys, monkeypatch, source, key,
            kind):
        """Each idx key and each colon-separated cifar batch must name a
        file; a directory or an empty value exits 2 naming the key, before
        any file is read."""
        def refuse(*args, **kwargs):
            raise RuntimeError("dataset read from a path that is not a file")

        monkeypatch.setattr(cli, "load_idx", refuse)
        monkeypatch.setattr(cli, "load_cifar_bin", refuse)
        keys = {"idx": ("images", "labels", "test_images", "test_labels"),
                "cifar": ("batches", "test_batches")}[source]
        bad = {"directory": str(tmp_path), "empty": ""}[kind]
        value = f"{small_config}:{bad}" if source == "cifar" and bad else bad
        overrides = [f"data.source={source}"] + [
            f"data.{k}={value if k == key else small_config}" for k in keys]
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config), "--out", str(out),
                     *[arg for o in overrides for arg in ("--set", o)]]) == 2
        assert (f"error: dataset path missing or unreadable: data.{key}={bad!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_train_exit_code_on_missing_idx(self, tmp_path):
        config = tmp_path / "idx.ini"
        config.write_text("[data]\nsource = idx\nimages = /no/such/file\n")
        code = main(["train", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2

    def test_unknown_config_key_exit_code(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[data]\nmystery = 1\n")
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("file_text, overrides", [
        ("[train]\nLR = 0.05\n", []),
        ("", ["--set", "train.LR=0.05"]),
    ], ids=["file", "set"])
    def test_a_key_is_matched_as_written(self, tmp_path, capsys, file_text,
                                         overrides):
        """A file's keys are not lowercased: `LR` is unknown there too."""
        config = tmp_path / "run.ini"
        config.write_text(file_text)
        assert main(["train", "--config", str(config), *overrides,
                     "--out", str(tmp_path / "run")]) == 2
        assert "error: unknown key train.LR" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_plot_exit_code_on_missing_csv(self, tmp_path):
        assert main(["plot", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "plot.svg")]) == 2

    def test_plot_refuses_a_directory_with_its_reason(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path),
                     "--out", str(tmp_path / "plot.svg")]) == 2
        assert (f"error: cannot read CSV {tmp_path}: "
                f"{os.strerror(errno.EISDIR)}" in capsys.readouterr().err)
        assert not (tmp_path / "plot.svg").exists()

    @pytest.mark.parametrize("column, text", [
        ("risk_mc", "1.2"), ("complexity", "-0.1"), ("complexity", "nan"),
        ("complexity", "inf"), ("validity", "Valid"),
    ])
    def test_plot_refuses_a_row_that_is_not_a_certificate(
            self, tmp_path, capsys, column, text):
        path = tmp_path / "certificates.csv"
        certify.write_certificates_csv(path, [certify.assemble_bound(
            family="iso-init", risk_mc=0.1, kl_nats=5.0, beta=1.0, lam=0.05,
            n=300, m=5, delta=0.025, delta_prime=0.025, b=100.0, c=1.0)])
        header, line = path.read_text().splitlines()
        cells = line.split(",")
        cells[header.split(",").index(column)] = text
        path.write_text(f"{header}\n{','.join(cells)}\n")
        assert main(["plot", str(path), "--out",
                     str(tmp_path / "plot.svg")]) == 1
        assert f"{path}, line 2: " in capsys.readouterr().err
        assert not (tmp_path / "plot.svg").exists()

    def test_plot_refuses_an_older_seven_column_pareto_csv(self, tmp_path,
                                                           capsys):
        path = tmp_path / "pareto.csv"
        path.write_text(
            "schema_version,family,risk_mc,complexity,beta,lambda,validity,"
            "seed\n1,iso-init,0.1,0.4,1.0,0.05,valid,7\n"
            "1,reference,0.02,0.01,nan,nan,valid,0\n")
        assert main(["plot", str(path), "--out",
                     str(tmp_path / "plot.svg")]) == 1
        expected = ",".join(certify.csv_header(certify.CERT_COLUMNS))
        assert (f"{path}: header is not {expected}"
                in capsys.readouterr().err)

    def test_relative_out_is_taken_from_the_working_directory(
            self, small_config, tmp_path, monkeypatch):
        """A relative --out names a directory under the working directory;
        a set PBCERT_OUTPUT_ROOT does not move it."""
        root, cwd = tmp_path / "root", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.setenv("PBCERT_OUTPUT_ROOT", str(root))
        monkeypatch.chdir(cwd)
        assert main(["train", "--config", str(small_config),
                     "--out", "relative/run"]) == 0
        assert (cwd / "relative/run/meta.json").exists()
        assert not root.exists()

    def test_train_without_out_exits_2(self, small_config, tmp_path, capsys,
                                       monkeypatch):
        """The run directory is named on the command line only; no
        setting supplies a default."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--config", str(small_config)])
        assert exit_info.value.code == 2
        assert ("the following arguments are required: --out"
                in capsys.readouterr().err)
        assert sorted(tmp_path.iterdir()) == [small_config]


def test_the_only_environment_access_is_the_blas_pin():
    """`pbcert` reads no environment variable: its one access sets
    OPENBLAS_NUM_THREADS for itself, so every input is a flag or a
    config value."""
    package = Path(cli.__file__).parent
    access = re.compile(r"\benviron\b|\benvironb\b|getenv|putenv|unsetenv")
    found = [(path.name, line.strip()) for path in sorted(package.glob("*.py"))
             for line in path.read_text().splitlines() if access.search(line)]
    assert found == [("cli.py", 'os.environ["OPENBLAS_NUM_THREADS"] = "1"')]


class TestSvgRendering:
    FRONTS = {
        "iso-init": [(0.05, 0.2), (0.1, 0.15), (0.3, 0.05)],
        "iso-zero": [(0.08, 0.5), (0.2, 0.3)],
    }

    def test_matches_golden_file(self):
        svg = risk_complexity_svg(self.FRONTS, star=(0.02, 0.04))
        golden = (GOLDEN / "risk_complexity.svg").read_text()
        assert svg == golden

    def test_empty_fronts_render_axes(self):
        svg = risk_complexity_svg({})
        assert "<line" in svg and "stroke-dasharray" in svg
        assert "circle" not in svg

    def test_marker_per_point(self):
        svg = risk_complexity_svg(self.FRONTS)
        assert svg.count("<circle") == 5
        assert "polygon" not in svg

    def test_log_axis_changes_layout(self):
        linear = risk_complexity_svg(self.FRONTS)
        logged = risk_complexity_svg(self.FRONTS, log_x=True)
        assert linear != logged

    def test_zero_risk_on_a_log_axis_stays_on_the_canvas(self):
        svg = risk_complexity_svg({"iso-init": [(0.0, 0.3), (0.05, 0.1)]},
                                  star=(0.0, 0.02), log_x=True)
        doc = minidom.parseString(svg)
        xs = [float(node.getAttribute("cx"))
              for node in doc.getElementsByTagName("circle")]
        (star,) = doc.getElementsByTagName("polygon")
        xs += [float(vertex.split(",")[0])
               for vertex in star.getAttribute("points").split()]
        assert len(xs) == 2 + 10
        assert all(0.0 <= x <= 640.0 for x in xs)

    def test_title_and_family_names_are_escaped(self):
        svg = risk_complexity_svg({"a<b": [(0.1, 0.2)]},
                                  title="risk & complexity")
        texts = [node.firstChild.data for node in
                 minidom.parseString(svg).getElementsByTagName("text")]
        assert "risk & complexity" in texts and "a<b" in texts
