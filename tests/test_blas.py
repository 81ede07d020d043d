"""BLAS thread pinning: restore on exit, no-op without OpenBLAS, VI bytes."""

import numpy as np
import pytest

from tests.conftest import random_theta
from pbcert import blas
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
    with blas.single_threaded():
        assert two_threads() == 1
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
    with blas.single_threaded():
        ran = True
        if CONTROLS:
            assert CONTROLS[1]() == before
    assert ran


@pytest.mark.skipif(CONTROLS is None or CONTROLS[1]() < 2,
                    reason="only one BLAS thread available")
def test_vi_bytes_do_not_depend_on_caller_thread_count():
    spec = NetSpec((784, 100, 100, 2))
    rng = np.random.default_rng(3)
    theta_star = random_theta(spec, seed=4, scale=0.05)
    theta0 = random_theta(spec, seed=5, scale=0.05)
    data = Dataset(X=rng.random((300, 784)), y=rng.integers(0, 2, 300), k=2)
    kwargs = dict(beta=2.0, lam=0.001, epochs=1, seed=7, batch_size=100)
    free = vi_optimize_diag(spec, theta_star, theta0, data, **kwargs)
    with blas.single_threaded():
        pinned = vi_optimize_diag(spec, theta_star, theta0, data, **kwargs)
    assert (free.posterior.log_variance.tobytes()
            == pinned.posterior.log_variance.tobytes())
