"""Core-speed log: scales measured times to a reference core speed.

On a shared host a co-tenant can slow this process's core by up to 1.7x for
seconds at a time, so raw times of the same work differ by tens of percent
between runs.  A fixed stdlib loop (``_probe``: Fraction arithmetic, as in the
program) slows in step.  ``SpeedLog`` times that loop four times before and
after every operation and, from a profiling timer, every ``TICK_S`` of CPU time
during one, so long operations are sampled throughout.  A span's scaled time is
its measured time (less the probes run inside it) multiplied by ``REF_S`` over
the probe's time near and during the span.  At the reference speed the probe
takes exactly ``REF_S``; on the 2-vCPU VM the baseline was measured on it takes
~0.085 ms uncontended and ~0.16 ms contended, so scaled times are close to
wall times under contention.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_S = 1.5e-4
TICK_S = 0.02
EDGE = 4  # probes before and after each span
_XS = [Fraction(k, k + 1) for k in range(1, 9)]


def _probe() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for a in _XS[:4]:
        for b in _XS:
            acc += a * b
    return time.perf_counter() - t0


class SpeedLog:
    """Probe times in time order, from edge probes and timer ticks."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.at.append(time.perf_counter())
            self.took.append(_probe())
        finally:
            self._busy = False

    def edge(self) -> None:
        """Probe EDGE times; called between operations, outside their spans."""
        for _ in range(EDGE):
            self._sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Time of the span [t0, t1] at the reference speed.

        Uses the probes inside the span and the EDGE probes on each side;
        the factor is their trimmed mean, which time-averages a span that
        crosses a change of speed.
        """
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        inside = sum(self.took[lo:hi])
        took = sorted(self.took[max(0, lo - EDGE) : hi + EDGE])
        cut = len(took) // 8
        factor = statistics.fmean(REF_S / x for x in took[cut : len(took) - cut])
        return (t1 - t0 - inside) * factor
