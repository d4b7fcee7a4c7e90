"""Host fingerprint, calibration loop and peak memory for every run record.

Results are never divided by the calibration: it is recorded beside
them so that host drift between runs (a shared 2-core VM can swing a
pure-Python loop by a third) is visible when reading the numbers.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

THREAD_ENV = (
    "REPRO_THREADS",
    "REPRO_WORKERS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _openblas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def fingerprint() -> dict:
    """What the numbers depend on besides the code."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_1m": os.getloadavg()[0],
    }


def _calibration_once() -> float:
    t0 = time.perf_counter_ns()
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return (time.perf_counter_ns() - t0) / 1e6


def calibrate(reps: int = 5) -> float:
    """Median ms of a fixed numpy + pure-Python loop (``host.calib_ms``)."""
    return statistics.median(_calibration_once() for _ in range(reps))


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children.

    The sum of each process's high-water mark, so the compute service's
    worker processes count too (read it before they are shut down).
    """
    me = os.getpid()
    return sum(_hwm_kb(p) for p in [me, *_children(me)]) / 1024.0


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies; empty elsewhere)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else 0.0


def shm_segments() -> set[str]:
    """Names in ``/dev/shm`` (empty where the directory does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()

