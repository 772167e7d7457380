"""Calibration kernel and the arithmetic that turns raw timings into metrics.

The machine this benchmark runs on is shared, so the same command can drift
by a factor of two within a minute.  Every timed command is therefore
bracketed by runs of a fixed calibration kernel, and its time is reported
as ``raw * CAL_REF / mean(kernel before, kernel after)``: the time the
command would have taken while the kernel took ``CAL_REF``.  An op's
normalized time is the sum over its commands.

The kernel mixes the resources the workloads spend time on: Python object
churn (frozen dataclass instances with complex fields, as term generation
builds them), a numpy ufunc loop, and one fixed-size LAPACK SVD.  On this
kind of host, interpreter-bound work swings more with the neighbours' load
than array and LAPACK work does, so the churn is the largest part.  The
garbage collector is paused inside the kernel: a collection's cost depends
on the heap the benchmark happens to hold, not on the machine's speed.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel time, in seconds, that normalized figures are scaled to: about the
# kernel's median on a 2-core x86-64 container (Python 3.11, numpy 2.4,
# OpenBLAS pinned to one thread).  Changing it rescales every normalized
# figure, so it stays fixed across commits.
CAL_REF = 0.0120

# Bound at import so that the traced run, which wraps numpy.linalg, never
# counts or times the kernel's own SVD.
_svd = np.linalg.svd

_rng = np.random.default_rng(20180510)
_SVD_INPUT = _rng.standard_normal((112, 112)) + 1j * _rng.standard_normal((112, 112))
_UFUNC_INPUT = _rng.standard_normal(20000)


@dataclass(frozen=True)
class _Term:
    index: int
    coeff: complex

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))


def kernel() -> None:
    """One fixed unit of object churn, ufunc and LAPACK work (~12 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        terms = [_Term(i, 1.0 / i) for i in range(1, 6001)]
        np.asarray([t.coeff for t in terms], dtype=complex)
        del terms
        buf = np.empty_like(_UFUNC_INPUT)
        for _ in range(40):
            np.multiply(_UFUNC_INPUT, 1.0001, out=buf)
            np.add(buf, _UFUNC_INPUT, out=buf)
            np.sqrt(np.abs(buf), out=buf)
        _svd(_SVD_INPUT, compute_uv=False)
    finally:
        if enabled:
            gc.enable()


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalize(raw: float, cal_before: float, cal_after: float) -> float:
    """Scale a raw time to the machine state in which the kernel takes CAL_REF."""
    return raw * CAL_REF / ((cal_before + cal_after) / 2.0)


def timed(steps):
    """Run each callable in ``steps`` with a kernel run before, between and
    after them.  Returns (results, raw s, normalized s, kernel times); both
    times are sums over the steps."""
    kernels = [time_kernel()]
    results, raw_total, norm_total = [], 0.0, 0.0
    for step in steps:
        start = time.perf_counter()
        results.append(step())
        raw = time.perf_counter() - start
        kernels.append(time_kernel())
        raw_total += raw
        norm_total += normalize(raw, kernels[-2], kernels[-1])
    return results, raw_total, norm_total, kernels


def tail(values, beyond: int = 10, min_samples: int = 40):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: the value is the one with exactly
    ``beyond`` samples ranked above it.  With fewer than ``min_samples``
    samples that percentile is no tail, and the result is ``None``.
    """
    n = len(values)
    if n < min_samples:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def median(values) -> float:
    return float(statistics.median(values))
