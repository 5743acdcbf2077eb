"""Summary statistics, the output check and the environment stamp."""

from __future__ import annotations

import ctypes
import functools
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TAIL_BEYOND = 10  # samples that should lie beyond the reported tail percentile


def highest_tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND of n samples beyond it.

    This is how each workload's fixed tail percentile is chosen from the
    sample count of its reference runs. When that percentile would fall
    below the median (fewer than 2 * TAIL_BEYOND samples), the tail is the
    maximum (100) instead.
    """
    return 100.0 if n < 2 * TAIL_BEYOND else 100.0 * (n - TAIL_BEYOND) / n


def tail(samples, percentile: float) -> tuple[float, int]:
    """Nearest-rank value at a fixed percentile, and how many samples lie beyond it.

    The percentile is fixed per workload so that runs of different speed,
    which collect different numbers of samples, report the same statistic.
    It must be at least 50, so the tail is never below the median.
    """
    if not 50.0 <= percentile <= 100.0:
        raise ValueError(f"tail percentile {percentile} is not in [50, 100]")
    xs = sorted(samples)
    if not xs:
        raise ValueError("tail of an empty sample")
    rank = max(math.ceil(percentile * len(xs) / 100.0 - 1e-9), 1)
    return xs[rank - 1], len(xs) - rank


PROBE_LOOPS = 15_000  # about 1 ms of pure Python on a 2-CPU cloud VM


def _probe_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def pin_to_quietest_cpu(cpus: list[int]) -> int:
    """Move this process to whichever of ``cpus`` runs a short probe fastest.

    On a shared host each virtual CPU is slowed by its neighbours' load
    independently of the other, by up to 2x for minutes at a time. The
    workloads call this before each measured operation, as one would
    place a benchmark on an idle core; the operation itself is timed as
    it is. Returns the chosen CPU.
    """
    best, best_s = cpus[0], math.inf
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probe = min(_probe_s(), _probe_s())
        if probe < best_s:
            best, best_s = cpu, probe
    os.sched_setaffinity(0, {best})
    return best


@dataclass(frozen=True)
class Probe:
    """Fixed work timed just before and just after each measured operation.

    On a shared host the whole machine runs up to 2x slower for seconds to
    minutes at a time, with other tenants' load on the same physical
    cores; pinning to the quieter CPU does not remove that. An operation's
    wall time is therefore multiplied by ``nominal_s`` over the probe's
    mean time around it: the result is the operation's time on a machine
    where the probe takes ``nominal_s``. The probe does not call svgnet,
    so a change to the program moves the scaled time as much as the wall
    time. Each workload uses the probe whose mix of work slows down like
    its own (see PROBES).
    """

    name: str
    work: Callable[[], object]
    nominal_s: float
    runs: int = 1   # a probe's time is the median of this many runs of its work

    def seconds(self) -> float:
        # without collections, the probe's time does not depend on how many
        # objects the program being measured keeps alive
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self.runs):
                t0 = time.perf_counter()
                self.work()
                times.append(time.perf_counter() - t0)
            return statistics.median(times)
        finally:
            if collecting:
                gc.enable()

    def timed(self, fn):
        """Run ``fn()`` between two probes: (result, wall seconds, scale)."""
        before = self.seconds()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.seconds()
        return result, wall, 2.0 * self.nominal_s / (before + after)


_RECORDS = json.dumps([{"id": i, "xy": [[0.5 * i, -0.25 * i]] * 8, "d": "M 0 0 L 1 1 Q 2 2 3 3"}
                       for i in range(200)])


def _objects() -> float:
    """JSON decoding and many small arrays, like ingesting scene records."""
    total = 0.0
    for _ in range(3):
        for rec in json.loads(_RECORDS):
            total += float(np.asarray(rec["xy"]).sum())
    return total


@functools.cache
def _arrays() -> tuple[np.ndarray, np.ndarray]:
    return (np.linspace(0.0, 1.0, 384 * 384, dtype=np.float32).reshape(384, 384),
            np.linspace(0.0, 1.0, 4 << 20, dtype=np.float32))


def _numeric() -> float:
    """BLAS matmuls and an elementwise pass over 16 MB, like the paper model's steps."""
    square, block = _arrays()
    total = 0.0
    for _ in range(4):
        total += float((square @ square)[0, 0])
    return total + float((block * 1.5 + block).sum())


def _memory() -> float:
    """Fill and sum 128 MB of fresh pages, like a paper train step's tape."""
    block = np.empty(32 << 20, dtype=np.float32)
    block.fill(1.0)
    return float(block.sum())


# Nominal times are round figures near the probes' medians on the 2-CPU
# machine the benchmark was written on, so scaled times read like its wall
# times. Each probe was chosen on a 3-minute trace that alternated
# candidate probes with the work they stand for. Between 20-30 s windows,
# ingesting 10 tiny scenes varied by 71% in wall time and by 9% relative
# to a probe like "objects"; a paper-model train step varied by 16% in
# wall time and by 2-5% relative to probes made of "numeric"'s two parts.
# That trace ran a one-sample step; the paper's four-sample step, whose
# tape takes 2.4 GB, varied by 28% (interquartile range over median) in
# wall time on a 5-minute trace, by 13% relative to "numeric" and by 7%
# relative to "memory". A single run of "memory" strays by a quarter now
# and then, which for a 5 s step is worth three runs.
PROBES = {"objects": Probe("objects", _objects, 6.5e-3),
          "numeric": Probe("numeric", _numeric, 15.0e-3),
          "memory": Probe("memory", _memory, 45.0e-3, runs=3)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close(actual, expected, rtol: float, atol: float) -> bool:
    """True when every value is finite and within tolerance of the reference."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    return a.shape == e.shape and bool(np.isfinite(a).all()) and \
        bool(np.allclose(a, e, rtol=rtol, atol=atol))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "synth_seed": seed,
    }
