"""Machine-speed reference for the timed figures.

The shared host this benchmark runs on changes speed all the time: a
fixed millisecond of pure-Python work takes anywhere from 1 to 1.9 times
its fastest time, and the share of slow moments drifts over minutes, so a
run's wall times move together by up to a third.  ``Meter`` measures the
machine's speed during a timed call: it times a fixed pure-Python loop
(complex arithmetic and dict updates, like the program's ring and
polynomial code) a few times before and after the call, and every
``INTERVAL_S`` during it from a ``SIGALRM`` handler in the same thread.
The call's wall time, less the time spent in the handler, is then scaled
to what it would be at the speed where that loop takes ``NOMINAL_S``:

    scaled = (wall - handler time) * NOMINAL_S / mean(loop times)

with each loop time capped at twice their median.
The loop does not touch the program, so a change to the program moves
the scaled time as it moves the wall time.  This module imports nothing
but the standard library, so the set-up probe can use it before importing
twistalg.
"""
from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.35e-3         # about the loop's fastest time on the 2-vCPU
                            # x86 host the baseline was measured on
INTERVAL_S = 0.01           # loop timings during a call, one per interval
EDGE_SAMPLES = 4            # loop timings before and after a call


def _loop():
    table = {}
    z = 1 + 0j
    for i in range(1500):
        z = z * (0.999 + 0.001j) + 1e-3
        table[i % 61] = table.get(i % 61, 0) + z
    return table


def loop_s() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Meter:
    """``with Meter() as m:`` around a timed call; afterwards ``m.spent``
    is the time the handler took from the call and ``m.scale()`` the
    factor that takes the call's remaining wall time to nominal speed.
    An inactive meter measures nothing and scales by 1."""

    def __init__(self, active=True):
        self.active = active
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(loop_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            self.samples += [loop_s() for _ in range(EDGE_SAMPLES)]
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self.samples += [loop_s() for _ in range(EDGE_SAMPLES)]
        return False

    def scale(self) -> float:
        if not self.samples:
            return 1.0
        # a loop timing that the scheduler cut into says nothing about the
        # speed; capping at twice the median keeps one such timing from
        # moving the mean
        cap = 2 * statistics.median(self.samples)
        return (NOMINAL_S * len(self.samples)
                / sum(min(s, cap) for s in self.samples))
