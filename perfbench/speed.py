"""Host-speed correction for the benchmark's end-to-end timings.

The benchmark shares its host with other work, and the host's speed drifts by
up to 1.6x over stretches of tens of seconds to minutes.  The same pass of the
same code then takes 1.6x as long, and no median over a 40-second run removes
that.  So the benchmark measures the host's speed alongside the program:

- a `SIGALRM` interval timer interrupts the benchmark's one thread every
  `PERIOD_S` seconds, between two bytecodes of whatever polargrad is doing, and
  times a fixed pure-Python probe (`probe`);
- the time spent in these interruptions is taken out of every timing;
- each stretch of a timing between two interruptions, [a, b], is divided by
  the host's speed factor there: the median probe time over
  [a - WINDOW_S, b + WINDOW_S], divided by `REFERENCE_S`.

A corrected timing is in seconds at the host speed where one probe takes
`REFERENCE_S` (about the typical speed of a 2-vCPU Sapphire Rapids KVM guest
with CPython 3.11), so on such a host it reads close to the wall time.  The
probe touches nothing in polargrad, so a change to polargrad cannot change it.
The probe mixes the kinds of work polargrad does: building and sorting a list
of tuples, filling and summing a dict keyed by tuples, `Fraction` arithmetic,
and products of integers of a few thousand digits.  The host's slowdowns hit
the interpreter's own work harder than the big-integer arithmetic, and
polargrad lies in between.  Of the mixes of six candidate parts tried on
seven inputs over 7 minutes, this one tracked the program's slowdowns most
closely on the inputs that take seconds; a probe of small-dict integer
arithmetic alone over-corrected those by up to a third.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

PERIOD_S = 0.2
WINDOW_S = 0.5
REFERENCE_S = 0.005


def _sort_tuples() -> int:
    xs = [(i * 7919 % 1009, i) for i in range(1500)]
    xs.sort()
    return len(xs)


def _dict_of_tuples() -> int:
    d = {}
    for i in range(4000):
        d[(i % 61, i % 17, i)] = i * i
    return sum(d.values())


def _fraction_sum() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7) * Fraction(2 * i + 1, 3)
    return total


def _bigint_products() -> int:
    a, b = 3**4000, 7**3500
    for _ in range(10):
        c = a * b % (b + 12345)
    return c


def probe() -> float:
    """Seconds of a fixed piece of work.  Each part runs once untimed first,
    so the time is not that of reloading caches the program just evicted."""
    total = 0.0
    for part in (_sort_tuples, _dict_of_tuples, _fraction_sum, _bigint_products):
        part()
        start = time.perf_counter()
        part()
        total += time.perf_counter() - start
    return total


class Speedometer:
    """Probe samples of one run, and the timings corrected by them.

    Single-threaded: the samples are taken in the signal handler, which
    CPython runs in the main thread between two bytecodes, so no clock
    reading of that thread falls inside a handler.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each interruption's start
        self.ends: list[float] = []
        self.probe_s: list[float] = []
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a signal that arrived during a probe is dropped
            return
        self._ticking = True
        start = time.perf_counter()
        seconds = probe()
        self.starts.append(start)
        self.probe_s.append(seconds)
        self.ends.append(time.perf_counter())
        self._ticking = False

    @contextmanager
    def running(self):
        """Probe every PERIOD_S seconds inside the block.  The block should
        end with WINDOW_S seconds of other work or sleep, so that its last
        timings have probes after them as well as before."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran around [start, end]."""
        margin = WINDOW_S
        while True:
            i = bisect.bisect_left(self.starts, start - margin)
            j = bisect.bisect_right(self.starts, end + margin)
            if j > i or margin > 60:
                break
            margin *= 2
        if j == i:
            raise RuntimeError("no speed probe was taken during the run")
        return statistics.median(self.probe_s[i:j]) / REFERENCE_S

    def corrected(self, start: float, seconds: float) -> float:
        """A program timing that began at `start` and took `seconds` of wall
        time, interruptions included, at the reference speed: each stretch
        between two interruptions is divided by the factor around it.  An
        interruption lies wholly inside or wholly outside the timing."""
        end = start + seconds
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        edges = [start, *chain.from_iterable(zip(self.starts[i:j], self.ends[i:j])), end]
        return sum((b - a) / self.factor(a, b) for a, b in zip(edges[::2], edges[1::2]))
