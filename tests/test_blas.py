"""BLAS thread pinning: restore on exit, no-op without OpenBLAS, every CLI
command on one thread, and bytes that do not depend on the thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import random_theta, settings
from pbcert import blas, cli
from pbcert.data import Dataset
from pbcert.nnet import NetSpec
from pbcert.posteriors import vi_optimize_diag

CONTROLS = blas.openblas_thread_controls()
needs_openblas = pytest.mark.skipif(CONTROLS is None,
                                    reason="numpy does not link OpenBLAS")


@pytest.fixture()
def two_threads():
    """Set the BLAS thread count to 2 for the test, then put it back."""
    set_threads, get_threads = CONTROLS
    original = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(original)


@needs_openblas
def test_pins_one_thread_and_restores(two_threads):
    with blas.single_threaded() as pinned:
        assert pinned and two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_restores_when_block_raises(two_threads):
    with pytest.raises(KeyError):
        with blas.single_threaded():
            assert two_threads() == 1
            raise KeyError("boom")
    assert two_threads() == 2


@pytest.mark.parametrize("paths", [[], ["/no/such/dir/libopenblas.so"]])
def test_no_op_without_openblas(monkeypatch, paths):
    monkeypatch.setattr(blas, "_mapped_openblas_paths", lambda: paths)
    assert blas.openblas_thread_controls() is None
    before = CONTROLS[1]() if CONTROLS else None
    ran = False
    with blas.single_threaded() as pinned:
        ran = not pinned
        if CONTROLS:
            assert CONTROLS[1]() == before
    assert ran


@pytest.mark.skipif(CONTROLS is None or CONTROLS[1]() < 2,
                    reason="only one BLAS thread available")
def test_vi_bytes_do_not_depend_on_caller_thread_count():
    spec = NetSpec((784, 100, 100, 2))
    rng = np.random.default_rng(3)
    theta_star = random_theta(spec, seed=4, scale=0.05)
    data = Dataset(X=rng.random((300, 784)), y=rng.integers(0, 2, 300), k=2)
    kwargs = dict(beta=2.0, lam=0.001, epochs=1, seed=7, batch_size=100,
                  lr=settings("posterior")["vi_lr"])
    free = vi_optimize_diag(spec, theta_star, data, **kwargs)
    with blas.single_threaded():
        pinned = vi_optimize_diag(spec, theta_star, data, **kwargs)
    assert free.log_variance.tobytes() == pinned.log_variance.tobytes()


@needs_openblas
@pytest.mark.parametrize("failure, code", [
    (None, 0), (RuntimeError("boom"), 1), (cli.UsageError("bad"), 2)])
def test_cli_runs_on_one_thread_and_restores(monkeypatch, tmp_path,
                                             two_threads, failure, code):
    seen = []

    def plot(*args):
        seen.append(two_threads())
        if failure is not None:
            raise failure

    monkeypatch.setattr(cli, "cmd_plot", plot)
    assert cli.main(["plot", "a.csv", "--out", str(tmp_path / "a.svg")]) == code
    assert seen == [1]
    assert two_threads() == 2


# An input width of 400 and 64 hidden units: products of that inner
# dimension differ in the last bits between 1 and 2 BLAS threads, so an
# unpinned run's theta* would depend on the caller's thread count.
CORE_COUNT_CONFIG = """
[data]
n = 400
test_n = 100
d = 400
k = 2
separation = 5.0

[net]
hidden = 64

[train]
epochs = 2
batch_size = 64

[posterior]
families = iso-init
beta_count = 1
lambda_count = 2

[bound]
m = 5
"""


@pytest.mark.skipif(CONTROLS is None or CONTROLS[1]() < 2,
                    reason="only one BLAS thread available")
def test_run_bytes_do_not_depend_on_caller_thread_count(tmp_path, two_threads):
    config = tmp_path / "run.ini"
    config.write_text(CORE_COUNT_CONFIG)
    outputs = {}
    for threads in (1, 2):
        CONTROLS[0](threads)
        run = str(tmp_path / f"run{threads}")
        assert cli.main(["train", "--config", str(config), "--out", run]) == 0
        assert cli.main(["certify", "--config", str(config), "--run", run]) == 0
        outputs[threads] = [(tmp_path / f"run{threads}" / name).read_bytes()
                            for name in ("theta_star.bin", "certificates.csv")]
    assert outputs[1] == outputs[2]


def _python(code: str) -> str:
    """stdout of `python -c code` with this pbcert importable and no BLAS
    thread count set in the environment."""
    env = {key: value for key, value in os.environ.items() if key not in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(blas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(CONTROLS is None or len(os.sched_getaffinity(0)) < 2,
                    reason="no OpenBLAS control, or one CPU")
def test_cli_starts_openblas_with_one_thread():
    """OpenBLAS would start a spinning worker per extra CPU when numpy
    loads it; importing the CLI asks for one thread first."""
    assert _python("import pbcert.cli\n"
                   "from pbcert.blas import openblas_thread_controls\n"
                   "print(openblas_thread_controls()[1]())") == "1"


def test_importing_the_package_loads_no_numpy():
    assert _python("import sys, pbcert\n"
                   "print('numpy' in sys.modules)") == "False"
