"""Pieces shared by the benchmark entry point (run.py) and its worker processes.

The verdict on a point, the tail-percentile rule, the per-call deadline and
the machine record live here so the self-checks in ``tests/`` can exercise
them without running a workload.
"""

from __future__ import annotations

import cmath
import math
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Thread pools pinned to one thread: the benchmark measures one client on one
# core, and numpy's BLAS would otherwise size its pool from nproc.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# Per-call wall-clock deadline.  Twice the slowest legitimate cold call seen
# (an asymptotic calibration at alpha = 1.2, beta = 0.9, about 7 s), so only a
# hang reaches it.
DEADLINE_S = 15.0

# Reference kernel: a scalar complex-arithmetic loop and a loop over
# 200-element complex numpy arrays, like the package's series and integrand
# code, and independent of the package.  On a shared machine the speed of
# both changes by up to 2x within seconds; timings measured next to the
# kernel are scaled by REF_NOMINAL_S / (kernel time).  Against a fixed grid
# sweep, over 5 s windows, this cut the spread of the sweep's time from 12%
# to 5%.  The constant is about the kernel's fastest time on a 2-core Xeon
# machine, so scaled figures are "seconds at that machine's best speed".
REF_NOMINAL_S = 2.5e-3
_REF_Z = np.linspace(0.1, 2.0, 200) * np.exp(0.3j)

TAIL_BEYOND = 10
# Fixed percentiles, so a run reports the same one as long as its sample
# count stays within a decade; callers cap the ladder so that a faster
# program, with more samples in a run, does not move to a higher one.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

# Failure classes, in the order they are tested.
RAISED = "raised"
NONFINITE = "nonfinite"
UNCERTIFIED = "uncertified"
DISHONEST = "dishonest"
DEADLINE = "deadline"
SKIPPED = "skipped-after-deadline"
OK = "ok"


class DeadlineHit(BaseException):
    """Raised in the main thread by SIGALRM when a call overruns its deadline.

    A BaseException, so no ``except Exception`` in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineHit()


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineHit in the body if it runs longer than ``seconds``."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def verdict(outcome: dict, tol: float, ref: dict | None) -> str:
    """Classify one evaluated point.

    ``outcome`` holds ``status`` ("value", "raised", "deadline" or
    "skipped-after-deadline") and, for a value, ``value`` as [re, im] and
    ``est_error``.  ``ref`` is None or holds ``value`` and ``err`` (the
    reference's own uncertainty).  A point fails if it raised, hit the
    deadline (or was skipped after its parameter set did), has a
    non-finite error estimate, is not certified
    (est_error > tol * max(1, |value|)), or misses its reference by more
    than est_error plus the reference's own error (dishonest).
    """
    status = outcome["status"]
    if status == "raised":
        return RAISED
    if status in (DEADLINE, SKIPPED):
        return status
    est = outcome["est_error"]
    v = complex(*outcome["value"])
    if not (math.isfinite(est) and math.isfinite(v.real) and math.isfinite(v.imag)):
        return NONFINITE
    if est > tol * max(1.0, abs(v)):
        return UNCERTIFIED
    if ref is not None and abs(v - complex(*ref["value"])) > est + ref["err"]:
        return DISHONEST
    return OK


def correct_digits(value: complex, ref: complex) -> float:
    """Correct digits of ``value`` at the scale max(1, |ref|), capped at 17.

    The package's tolerance is absolute below |E| = 1 and relative above,
    so digits are counted on that same scale.
    """
    err = abs(value - ref)
    if err == 0:
        return 17.0
    return min(17.0, -math.log10(err / max(1.0, abs(ref))))


def tail(samples: list[float], groups: list | None = None,
         top: float = TAIL_LADDER[-1]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest of TAIL_LADDER up to ``top`` with
    TAIL_BEYOND samples beyond it.

    Nearest rank: the p-th percentile of n sorted samples is the one at rank
    ceil(p * n / 100), and the samples after that rank lie beyond it.
    ``groups`` labels samples that are not independent (the points of one
    grid sweep share its geometry); beyond the percentile there must then be
    TAIL_BEYOND distinct labels, not only samples.  With too few samples for
    even the median, the maximum is returned at percentile 100 and the
    caller must say so.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    pairs = sorted(zip(samples, groups if groups is not None else range(n)),
                   key=lambda p: p[0])
    for p in reversed([p for p in TAIL_LADDER if p <= top]):
        rank = math.ceil(p * n / 100)
        if len({g for _, g in pairs[rank:]}) >= TAIL_BEYOND:
            return pairs[rank - 1][0], p, n
    return pairs[-1][0], 100.0, n


def ref_kernel_s() -> float:
    """Median of five timings of the reference kernel, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0j
        for i in range(1000):
            z = complex(i * 1e-3, 0.5)
            acc += cmath.exp(z) * z ** 0.7 / (z + 1.5)
        for _ in range(15):
            z = _REF_Z
            acc += (np.exp(z ** 1.3) * z ** 0.7 / ((z ** 1.25 - 0.3) * (z ** 0.9 + 0.2j))).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_record() -> dict:
    """Where a result was measured."""
    import mpmath

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "threads": dict(THREAD_VARS),
    }
