"""Child processes and the environment they run in.

Each pbcert command runs as its own process, started by launch.py.  Wall
time is taken around the command's whole life; CPU time and peak RSS come
from the launcher's `getrusage(RUSAGE_CHILDREN)`, so they cover that command
alone.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class CommandRecord:
    name: str
    returncode: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str

    def summary(self) -> dict:
        return {key: getattr(self, key) for key in
                ("name", "returncode", "timed_out", "wall_s", "cpu_s",
                 "peak_rss_mb")}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env(src_dir: Path) -> dict:
    """The caller's environment with PBCERT_OUTPUT_ROOT cleared, pbcert
    imported from src_dir, and no thread count above the CPU count."""
    env = {key: value for key, value in os.environ.items()
           if key != "PBCERT_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(src_dir)
    for var in THREAD_VARS:
        if var in env and env[var].isdigit() and int(env[var]) > cpu_count():
            env[var] = str(cpu_count())
    return env


def run_command(name: str, argv: list, env: dict, log_dir: Path,
                timeout_s: float) -> CommandRecord:
    """Run argv through launch.py and account for it.

    The child's stdout and stderr go to files in log_dir, never to ours.
    After timeout_s seconds the launcher and the command are killed.
    """
    err_path = log_dir / f"{name}.stderr"
    launcher = [sys.executable, str(LAUNCHER), str(log_dir / f"{name}.stdout"),
                str(err_path), "--", *argv]
    start = time.perf_counter()
    # its own session, so a kill reaches the command as well
    with subprocess.Popen(launcher, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout_s)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return CommandRecord(
                name=name, returncode=-signal.SIGKILL, timed_out=True,
                wall_s=time.perf_counter() - start, cpu_s=0.0,
                peak_rss_mb=0.0, stderr=_read(err_path))
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed for {name}: {err.strip()}")
    usage = json.loads(out)
    return CommandRecord(
        name=name, returncode=usage["returncode"], timed_out=False,
        wall_s=usage["wall_s"], cpu_s=usage["cpu_s"],
        peak_rss_mb=usage["maxrss_kb"] / 1024.0,   # Linux reports KiB
        stderr=_read(err_path),
    )


def _read(path: Path) -> str:
    return path.read_text(errors="replace") if path.exists() else ""


def host_cpu_seconds() -> dict:
    """Machine-wide CPU time by state from /proc/stat ({} where unavailable).

    Steal is time the hypervisor gave this machine's CPUs to someone else;
    a run with much of it was measured on a contended host.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return {"busy_s": (user + nice + system + irq + softirq) / tick,
            "idle_s": (idle + iowait) / tick, "steal_s": steal / tick}


def _openblas_runtime() -> dict:
    """Config string and thread count of the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                return {"config": get_config().decode(errors="replace"),
                        "threads": int(get_threads())}
    return {}


def environment(root: Path) -> dict:
    """Versions and resources the measurements depend on."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_runtime": _openblas_runtime(),
        "nproc": cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "machine": platform.machine(),
    }
