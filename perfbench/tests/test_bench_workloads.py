"""Generated inputs depend only on the seed and load through pbcert."""

import numpy as np

import workloads
from pbcert.config import load_config
from pbcert.data import load_idx


def test_idx_inputs_round_trip_and_repeat(tmp_path):
    ini_a = workloads.write_inputs(workloads.WORKLOADS["desk-mc"], 5, tmp_path / "a")
    ini_b = workloads.write_inputs(workloads.WORKLOADS["desk-mc"], 5, tmp_path / "b")
    for name in ("images.idx", "labels.idx", "test_images.idx", "test_labels.idx"):
        assert (ini_a.parent / name).read_bytes() == (ini_b.parent / name).read_bytes()
    config = load_config(ini_a)
    train = load_idx(config.get("data", "images"), config.get("data", "labels"))
    (pixels, labels), _ = workloads.desk_arrays(5)
    assert (train.n, train.d, train.k) == (10000, 784, 2)
    np.testing.assert_array_equal(train.X, pixels / 255.0)
    np.testing.assert_array_equal(train.y, labels)


def test_seed_changes_inputs_and_run_seed(tmp_path):
    (a, _), _ = workloads.desk_arrays(1, n_train=50, n_test=10)
    (b, _), _ = workloads.desk_arrays(2, n_train=50, n_test=10)
    assert not np.array_equal(a, b)
    ini = workloads.write_inputs(workloads.WORKLOADS["desk-vi"], 7, tmp_path)
    config = load_config(ini)
    assert config.get("run", "seed") == 7
    assert config.get("posterior", "families") == ["vi-diag"]


def test_command_reports_its_own_peak_rss_and_obeys_timeout(tmp_path):
    import sys

    import procs
    from conftest import ROOT

    ballast = np.ones(12_500_000)          # 100 MB held by the caller
    env = procs.child_env(ROOT / "src")
    small = procs.run_command("small", [sys.executable, "-c", "pass"], env,
                              tmp_path, 60)
    assert small.returncode == 0 and not small.timed_out
    assert small.peak_rss_mb < ballast.nbytes / 2**20 / 2
    slow = procs.run_command("slow", [sys.executable, "-c",
                                      "import time; time.sleep(30)"],
                             env, tmp_path, 0.5)
    assert slow.timed_out and slow.returncode < 0 and slow.wall_s < 10
