"""Host-speed probe: a fixed pure-Python loop timed while the workload runs.

The host this benchmark was defined on is shared, and its speed drifts by up
to about 20 % over minutes; this loop and every workload slow down together.
Timing metrics are therefore reported in reference seconds: measured seconds
divided by the slowdown (median loop time while measuring / REFERENCE_S).
The probe's own time is subtracted first.  README.md gives the measurements
behind this.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 1.4e-4  # scale only: the warm loop took 0.9e-4 to 1.4e-4 s on the defining host
MIN_SAMPLES = 5


def kernel() -> int:
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def slowdown(durations: list[float]) -> float:
    return statistics.median(durations) / REFERENCE_S


class Sampler:
    """Times the kernel from a SIGALRM handler every INTERVAL_S while active.

    The handler runs between bytecodes of the main thread, so the samples
    interleave with the workload's own code.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, time spent, kernel time)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()  # refills the caches the workload evicted, so only host speed is timed
        timed = time_kernel()
        self.samples.append((start, time.perf_counter() - start, timed))

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval [start, end) without probe time, in reference seconds.

        Uses the samples inside the interval, or all samples when the
        interval holds fewer than MIN_SAMPLES.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        timed = [s[2] for s in (inside if len(inside) >= MIN_SAMPLES else self.samples)]
        return (end - start - sum(s[1] for s in inside)) / slowdown(timed)
