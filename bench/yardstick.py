"""Host-speed yardstick: timings scaled to a reference machine speed.

On a 2-core share of a shared Intel Xeon host, the speed of one
single-threaded Python process swings by up to two times within a tenth
of a second and stays off for seconds: a fixed Fraction loop took
anything from 0.5 to 0.96 ms in the 100 ms bins of one 20-second
stretch, with thread CPU time tracking wall time, so it is the core
that slows, not the scheduler that preempts.  Raw timings of the same
code then differ by more between runs than any change worth catching.

While a ``Yardstick`` is active, an interval timer interrupts the
program every ``INTERVAL_S`` and times ``probe_loop``, a fixed
pure-Python Fraction loop of 0.14-0.3 ms on that host.  Each
probe gives the host's relative speed at that moment,
``REF_PROBE_S / duration``.  A span timed with ``start``/``stop`` keeps
its raw seconds, minus the time probes spent inside it, and its scaled
seconds: raw seconds times the mean speed of the probes taken during the
span and the two before and after it, less the fastest and the slowest
of them (a probe an interrupt lands in says nothing of the host).  Scaled
seconds are what the span would have taken on a host that runs the
probe in ``REF_PROBE_S``.

The probe is standard-library code the program does not touch, so a
change to the program moves scaled times as it moves raw ones, and only
the host's drift is divided out.  The program and the probe are both
pure-Python Fraction arithmetic, so the drift slows them alike.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
PROBE_TERMS = 60
SIDE_PROBES = 2   # probes taken before and after a span that count for it
# Duration of probe_loop on an Intel Xeon host core at its faster speed,
# CPython 3.11; scaled times are seconds at that speed.
REF_PROBE_S = 140e-6


def probe_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, PROBE_TERMS + 1):
        total += Fraction(1, i % 97 + 1)
    return total


class Yardstick:
    """Context manager; spans are resolved with ``scaled`` after it exits."""

    def __init__(self):
        self.speeds: list[float] = []
        self.probe_s = 0.0          # time spent inside probes so far
        self._busy = False
        self._old_handler = None

    def _probe(self, *_):
        if self._busy:
            return
        self._busy = True
        gc_on = gc.isenabled()
        gc.disable()   # a collection of the program's heap is not the host's speed
        try:
            t0 = time.perf_counter()
            probe_loop()
            d = time.perf_counter() - t0
            self.speeds.append(REF_PROBE_S / d)
            self.probe_s += d
        finally:
            if gc_on:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "Yardstick":
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._probe()
        return False

    def start(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.probe_s, len(self.speeds)

    def stop(self, mark: tuple[float, float, int]) -> tuple[float, int, int]:
        """A finished span as (raw seconds, first probe index, end index)."""
        t1 = time.perf_counter()
        t0, spent0, k0 = mark
        return t1 - t0 - (self.probe_s - spent0), k0, len(self.speeds)

    def scaled(self, span: tuple[float, int, int]) -> float:
        raw, k0, k1 = span
        window = sorted(self.speeds[max(k0 - SIDE_PROBES, 0):k1 + SIDE_PROBES])
        if len(window) > 2:
            window = window[1:-1]
        return raw * statistics.fmean(window)

    def median_speed(self) -> float:
        return statistics.median(self.speeds)
