"""Machine-speed calibration for the end-to-end timings.

On a small shared virtual machine the same code runs at two or more
speeds, and a slow spell can last from a few seconds to minutes, longer
than a run. A fixed calibration kernel, timed between the jobs, measures
the speed of the moment. A job's time is then scaled to the reference
speed: seconds measured x (REF_KERNEL_S / kernel time measured around
the job). The kernel mixes the two kinds of work the program does:
elementwise numpy arithmetic on arrays as wide as a simulation batch, and
scalar Python arithmetic in the interpreter. It writes into arrays made
once, so that its time does not depend on the state of the memory
allocator: a freshly allocated 160 KB array is mapped anew on every call
until the program's own large arrays raise malloc's mmap threshold, which
made the kernel up to twice as slow on one workload as on another.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel's time at full speed on the machine the benchmark was written
# on (a 2-vCPU Intel Xeon virtual machine at 2.1 GHz, Python 3 + numpy),
# so that scaled timings read as seconds on that machine.
REF_KERNEL_S = 0.0026
REPEATS = 3          # kernel runs per sample; the sample is their median
EVERY_S = 0.2        # at most this long between samples inside a round


class Speed:
    """Times the calibration kernel; holds its inputs."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a0 = rng.standard_normal(20_000)
        self._b = 1e-3*rng.standard_normal(20_000)
        self._a = np.empty_like(self._a0)
        self._t = np.empty_like(self._a0)

    def _kernel(self) -> float:
        a, b, t = self._a, self._b, self._t
        np.copyto(a, self._a0)
        for _ in range(16):
            # a = max(0.999 a + b, -3); a -= 1e-3 exp(-|a|)
            np.multiply(a, 0.999, out=a)
            np.add(a, b, out=a)
            np.maximum(a, -3.0, out=a)
            np.abs(a, out=t)
            np.negative(t, out=t)
            np.exp(t, out=t)
            np.multiply(t, 1e-3, out=t)
            np.subtract(a, t, out=a)
        s = 0.0
        for i in range(12_000):
            s += math.exp(-1e-4*i)*(i & 7)
        return float(a[0]) + s

    def sample(self) -> float:
        """Median seconds of REPEATS runs of the kernel."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two kernel samples, at reference speed."""
    return seconds*REF_KERNEL_S/(0.5*(before + after))
