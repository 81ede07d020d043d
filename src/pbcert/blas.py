"""Thread count of the OpenBLAS that numpy links: every command runs on one.

OpenBLAS wakes a worker thread for each product large enough to split, and
the worker then busy-waits for about 0.1 s.  A loop that mixes products
with Python work (an SGD step, a VI step, a Monte-Carlo row block, a probe
point) therefore burns two CPUs for the wall time of one.  So `cli.main`
runs every command under `single_threaded()`.  The one loop where the
second core paid for itself, the row blocks of `nnet.zero_one_errors`,
runs on a thread pool instead: one worker per usable CPU, each on one BLAS
thread.  OpenBLAS also starts a spinning worker per extra CPU when numpy
loads it, so `pbcert.cli` sets OPENBLAS_NUM_THREADS=1 before numpy loads;
`single_threaded()` still pins the count for a process that loaded numpy
first.

A 1-thread and a multi-thread product with an inner dimension of 400 or
more can differ in the last bits.  On one thread the sums no longer depend
on the core count, so for a fixed BLAS build a run writes the same bytes on
every host.
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

    Yields True when it pinned the count, False when no OpenBLAS control
    was found and it did nothing.  The count is process-wide, so a thread
    running BLAS concurrently is pinned too.
    """
    controls = openblas_thread_controls()
    if controls is None:
        yield False
        return
    set_threads, get_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(previous)
