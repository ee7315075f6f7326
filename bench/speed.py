"""Machine-speed probe that rescales wall time to a fixed reference speed.

Other tenants of the host slow this benchmark's CPU by up to a factor of
two, in phases that last seconds, so a run's wall-clock median moves by
20-25% from one run to the next. A small fixed pure-Python loop, timed in
the same process just before, during and after each measured call, slows
down in step with it. Dividing a call's wall time by the loop's time then
cancels the machine's current speed:

    reference seconds = wall seconds * REFERENCE_S * mean(1 / loop seconds)

that is, the call's duration on a machine where the loop takes
``REFERENCE_S``. The loop is part of the benchmark, not of the program, so a
change to the program moves the reference seconds and a slower machine does
not.

During a call, ``SIGALRM`` runs the loop every ``PERIOD_S`` seconds; the
loop's own time is taken out of the call's wall time.
"""

from __future__ import annotations

import gc
import math
import signal
from time import perf_counter

REFERENCE_S = 0.005
PERIOD_S = 0.25


def reference_loop() -> float:
    """Fixed interpreter work (dict updates, float math, a list) that makes
    no garbage-collected objects, so it leaves the program's collections
    alone."""
    table = {}
    acc = 0.0
    for i in range(12000):
        x = i * 0.001
        table[i] = math.sin(x) * x + table.get(i - 1, 0.0) * 0.5
        acc += table[i]
    return acc + sum([v * 2.0 for v in table.values()])


def time_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Context manager that samples the reference loop around and during
    one timed call."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, *_):
        elapsed = time_reference()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = perf_counter() - self.start - (self.spent - self.samples[0])
        self._sample()
        return False

    def reference_s(self) -> float:
        """The call's wall time at reference speed."""
        return at_reference_speed(self.wall, [1.0 / s for s in self.samples])


def at_reference_speed(wall: float, speeds) -> float:
    """``wall`` seconds rescaled by the mean of loop speeds (1/seconds)."""
    return wall * REFERENCE_S * sum(speeds) / len(speeds)
