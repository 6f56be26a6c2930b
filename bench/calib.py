"""Machine-speed calibration of the end-to-end times.

On a shared virtual machine the speed of a vCPU drifts by tens of percent
over tens of seconds, as other tenants load the physical cores; identical
runs of the harness took 0.55 to 0.88 s a call on the reference machine.
The drift slows every instruction alike, so each operation is bracketed by a
fixed reference kernel run on the same CPUs, and its time is scaled by
``REF_KERNEL_S`` over the kernel times measured around it.  The scaled time is
the operation's time on the reference machine at its uncontended speed; a
change to the program moves it, a change in the neighbours' load does not.
"""

from __future__ import annotations

import os
import time

import numpy as np

# Uncontended median time of _kernel on the reference machine
# (Intel Xeon Processor, 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REF_KERNEL_S = 0.009

# small, so that the kernel adds nothing visible to a child's peak RSS
_SMALL = np.random.default_rng(0).random(1_000)


def _kernel() -> float:
    """An interpreter loop and small-array numpy calls, the mix of the
    package's statistics and harness."""
    acc = 0.0
    for i in range(80_000):
        acc += i * 0.5
    for i in range(600):
        d = _SMALL[i:i + 100] - 0.5
        acc += float(np.mean(d / (1.0 + 0.3 * d)))
    return acc


def kernel_s(cpus: list[int]) -> float:
    """Mean time of the kernel over ``cpus``, run on each in turn."""
    saved = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _kernel()
            total += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, saved)
    return total / len(cpus)


def bracketed(op, cpus: list[int], more) -> tuple[list, list[float]]:
    """Call ``op()`` while ``more(results)`` holds, with the kernel before, between and after."""
    kernels = [kernel_s(cpus)]
    results: list = []
    while more(results):
        results.append(op())
        kernels.append(kernel_s(cpus))
    return results, kernels


def scale(times: list[float], kernels: list[float]) -> list[float]:
    """Scale ``times[i]`` by the mean of the kernel runs just before and after it."""
    assert len(kernels) == len(times) + 1
    return [t * 2.0 * REF_KERNEL_S / (k0 + k1) for t, k0, k1 in zip(times, kernels, kernels[1:])]
