"""A fixed reference kernel that gauges the machine's speed of the moment.

On a shared host the speed of a vCPU drifts by 10-25% over tens of seconds,
and the two vCPUs of a 2-vCPU VM can differ by as much at the same time.
The benchmark runs this kernel between requests, in the same process, and
scales each measured time by ``REFERENCE_S / kernel time``: the result reads
as the time on a machine where the kernel takes ``REFERENCE_S``.  The kernel
does not call the program, so a change to the program moves the scaled
times just as it moves the raw ones.

The kernel mixes the two kinds of work the program does: a recursive
pure-Python adaptive Simpson rule (like ``bargmann.optimal_contour``) and
numpy elementwise passes over a 4096-point grid (like the Hermite and
envelope layers).  It takes about 2 ms.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: The kernel's time on the reference machine (a 2-vCPU Xeon VM, numpy 2.4).
REFERENCE_S = 0.002

_XS = np.linspace(-16.0, 16.0, 4096)


def _simpson(f, a, b, eps, fa, fm, fb, whole, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
        return left + right + (left + right - whole) / 15.0
    return (_simpson(f, a, m, 0.5 * eps, fa, flm, fm, left, depth - 1)
            + _simpson(f, m, b, 0.5 * eps, fm, frm, fb, right, depth - 1))


def _kernel() -> float:
    def f(t):
        return math.cos(t) ** 7 * math.exp(-t)

    total = _simpson(f, 0.0, 3.0, 1e-12, f(0.0), f(1.5), f(3.0),
                     0.5 * (f(0.0) + 4.0 * f(1.5) + f(3.0)), 40)
    for k in range(20):
        total += float(np.sum(np.exp(-0.5 * _XS * _XS) * np.cos(k * _XS)))
    return total


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def warm_up() -> None:
    for _ in range(3):
        _kernel()


def gauge(repeats: int = 3) -> float:
    """Median kernel time over a few back-to-back runs."""
    return statistics.median(kernel_s() for _ in range(repeats))

