"""Machine speed, sampled on the worker's own CPU, to factor drift out of times.

The speed of a shared machine drifts by 20 % or more over seconds to
minutes, far more than the regressions the benchmark must catch.  A fixed
pure-Python kernel (Fraction arithmetic, like the package's exact paths),
timed on the same CPU right around the work, measures the current speed.
A time divided by the speed factor (kernel duration over REFERENCE_S) is in
*reference seconds*: what the same work takes when one kernel run takes
REFERENCE_S.  Wall times are kept alongside in every result record.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from typing import List, Tuple

KERNEL_STEPS = 1000
REFERENCE_S = 0.0045  # median kernel duration on the 2-vCPU Xeon VM the bounds come from
PERIOD_S = 0.2        # sampling period while an in-process timed phase runs
WINDOW_PAD_S = 1.0    # samples this close to an operation describe its speed
MIN_SAMPLES = 2


def kernel() -> float:
    """One timed kernel run, in seconds; the collector is paused so that the
    package's heap cannot slow the kernel down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, KERNEL_STEPS):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel samples (midpoint, duration) taken on demand or from SIGALRM."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            duration = kernel()
            self.samples.append((start + duration / 2, duration))

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference(self, start: float, end: float) -> Tuple[float, float]:
        """(reference seconds, speed factor) of the interval [start, end].

        The sampler's own time inside the interval is taken out first.  The
        factor averages the samples within WINDOW_PAD_S of the interval, or
        the MIN_SAMPLES nearest ones when there are too few.
        """
        busy = sum(d for mid, d in self.samples if start <= mid <= end)
        near = [d for mid, d in self.samples
                if start - WINDOW_PAD_S <= mid <= end + WINDOW_PAD_S]
        if len(near) < MIN_SAMPLES:
            centre = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - centre))
                    [:MIN_SAMPLES]]
        factor = sum(near) / len(near) / REFERENCE_S
        return (end - start - busy) / factor, factor
