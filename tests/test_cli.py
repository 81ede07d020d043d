"""Run configuration, CLI subcommands, and SVG rendering."""

import builtins
import csv
import io
import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from pbcert import certify, cli
from pbcert.certify import FAMILIES, GridContext
from pbcert.cli import main
from pbcert.config import SCHEMA, ConfigError, load_config
from pbcert.nnet import TrainerConfig
from pbcert.plotting import risk_complexity_svg
from tests.conftest import write_idx_pair

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

RUN_BINS = ("theta0.bin", "theta_star.bin", "train_data.bin", "test_data.bin")

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
        have no default for, and nothing else, from config.SCHEMA."""
        def required(cls):
            return {f.name for f in fields(cls) if f.default is MISSING}

        assert required(TrainerConfig) == set(SCHEMA["train"])
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

    def test_certify_exit_code_on_missing_run(self, small_config, tmp_path):
        code = main(["certify", "--config", str(small_config),
                     "--run", str(tmp_path / "nowhere")])
        assert code == 2

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
            ("posterior.lambda_min=0", "bad posterior grid: Geometric sequence"),
            ("posterior.beta_min=0", "beta_min and posterior.beta_max must be positive"),
            ("posterior.beta_min=-1", "beta_min and posterior.beta_max must be positive"),
            ("bound.m=0", "bound.m must be at least 1"),
            ("bound.delta=0", "bound.delta must lie in (0, 1)"),
            ("bound.delta_prime=1.5", "bound.delta_prime must lie in (0, 1)"),
            ("posterior.lambda_max=0.995", "lambda must be at most c exp(-1/b)"),
            ("bound.c=0.01", "lambda must lie in (0, c); got lambda=0.031"),
            ("bound.b=0", "b and c must be positive"),
            ("posterior.vi_epochs=0", "posterior.vi_epochs must be at least 1; got 0"),
            ("posterior.vi_epochs=-1", "posterior.vi_epochs must be at least 1; got -1"),
            ("posterior.vi_batch_size=0",
             "posterior.vi_batch_size must be at least 1; got 0"),
            ("posterior.vi_batch_size=-5",
             "posterior.vi_batch_size must be at least 1; got -5"),
            ("posterior.vi_lr=0", "posterior.vi_lr must be positive; got 0.0"),
            ("posterior.vi_lr=-0.1", "posterior.vi_lr must be positive; got -0.1"),
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
            ("probe.n_directions=0", "n_directions must be at least 1; got 0"),
            ("probe.n_directions=-1", "n_directions must be at least 1; got -1"),
            ("probe.t_points=2", "the t grid has 2 distinct values"),
            ("probe.t_points=0", "the t grid has 0 distinct values"),
            ("probe.t_points=-1", "Number of samples, -1, must be non-negative"),
            ("probe.t_max=-5", "the t grid has 1 distinct values"),
            ("probe.lambdas=-0.1", "every lambda must be positive; got -0.1"),
            ("probe.lambdas=0.04,0", "every lambda must be positive; got 0.0"),
        ]
    ])
    def test_probe_rejects_bad_settings_before_loading(
            self, small_config, tmp_path, capsys, monkeypatch, setting,
            message):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0

        def refuse(*args, **kwargs):
            raise RuntimeError("run loaded for a bad probe")

        monkeypatch.setattr(cli, "load_train_record", refuse)
        code = main(["probe", "--config", str(small_config), "--run", str(out),
                     "--set", setting])
        assert code == 2
        assert f"error: bad probe setting: {message}" in capsys.readouterr().err
        assert not (out / "landscape.csv").exists()

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
                                           capsys, name):
        out = tmp_path / "run"
        assert main(["train", "--config", str(small_config),
                     "--out", str(out)]) == 0
        path = out / name
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0x01     # one bit of one payload value
        path.write_bytes(bytes(payload))
        code = main(["certify", "--config", str(small_config),
                     "--run", str(out)])
        assert code == 1
        assert f"{name}: sha256 differs" in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()

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

    def test_plot_exit_code_on_missing_csv(self, tmp_path):
        assert main(["plot", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "plot.svg")]) == 2

    def test_output_root_env(self, small_config, tmp_path, monkeypatch):
        monkeypatch.setenv("PBCERT_OUTPUT_ROOT", str(tmp_path))
        assert main(["train", "--config", str(small_config),
                     "--out", "relative/run"]) == 0
        assert (tmp_path / "relative/run/meta.json").exists()


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
