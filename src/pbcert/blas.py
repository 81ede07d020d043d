"""Thread count of the OpenBLAS that numpy links, for loops too small to split.

A VI step multiplies one 100-row mini-batch in `nnet.grad`, then draws the
next noise vector and runs the Adam update on the main thread alone.  The
product wakes OpenBLAS's worker thread, which busy-waits through the rest
of the step, so the loop burned two CPUs for the wall time of one.
Measured on a 2-vCPU host (OpenBLAS 0.3.31, 784-100-100-2 net, 88.6k
parameters), per step:

    nnet.grad on 2 threads   1.25 ms wall, 2.45 ms CPU
    nnet.grad on 1 thread    1.58 ms wall, 1.71 ms CPU
    noise and Adam update    4.7 ms on one core (the worker spinning)

Pinning the step loop to one thread cut desk-vi `pbcert certify` CPU time
from 24.9 s to 15.0 s (median of ten pairs), while its wall time went from
12.7 s to 13.5 s, inside the 11% run-to-run spread.  Large products
(10k-row forwards, Monte-Carlo draws, Fisher, block Hessians, training)
keep the default thread count, because there the second thread does halve
the wall time.

A 1-thread and a multi-thread product can differ in the last bits, so a
loop run under `single_threaded()` also gives the same bytes on every host,
whatever its core count.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

# (setter, getter) pairs, in the order they are tried: the 64-bit-integer
# scipy-openblas build numpy wheels ship, its 32-bit variant, plain OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _mapped_openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in path.rsplit("/", 1)[-1].lower():
                paths.add(path)
    return sorted(paths)


def openblas_thread_controls():
    """`(set_num_threads, get_num_threads)` of the loaded OpenBLAS, or None
    when numpy links another BLAS or the process maps cannot be read."""
    for path in _mapped_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextmanager
def single_threaded():
    """Run the block on one BLAS thread; restore the previous count on exit.

    The count is process-wide, so a thread running BLAS concurrently is
    pinned too.  Does nothing when no OpenBLAS control is found.
    """
    controls = openblas_thread_controls()
    if controls is None:
        yield
        return
    set_threads, get_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
