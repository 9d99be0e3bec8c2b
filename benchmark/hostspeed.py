"""Host speed, measured with a fixed piece of pure-Python work.

The host the benchmark was tuned on (2 vCPUs of a shared Xeon) runs the
same Python code up to 1.6 times slower from one moment to the next, in
phases that last from a fraction of a second to minutes.  CPU time slows
down as much as wall time, so neither hides it.  What it does not change
is the ratio between two pieces of Python code run side by side: the time
of a library operation and the time of the calibration work below, taken
around and during it, move together.

So the benchmark samples the calibration work with a ``Meter`` while it
runs and reports each time scaled to a host on which one unit of that work
takes ``REFERENCE_S`` seconds: ``scaled = measured * REFERENCE_S / unit``,
where ``unit`` is the meter's reading over the measured span.  The meter
takes a block of ``BLOCK`` samples between operations and, while a span in
the benchmark's own process is being measured, one sample every
``TICK_S`` seconds from a timer signal, so that an operation of a second
is scaled by the speed during it and not only at its two ends.  The time
those samples take is subtracted from the span.  The scaled times are
still seconds: ``REFERENCE_S`` is about what a unit takes on the tuning
host in a fast phase.  The calibration imports nothing from
``leibnizalg``, so a change to the library moves scaled times as it moves
measured ones.

A CLI operation is mostly a new interpreter starting up, which slows down
less than the calibration work does when the host slows down (by about
two thirds as much, in logs).  Between CLI operations the meter therefore
times a child interpreter that imports a few standard modules instead,
and reads it in the same units: ``SPAWN_REFERENCE_S`` of spawn time is one
``REFERENCE_S`` unit.  On the tuning host that halved the spread of a CLI
operation's scaled times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

REFERENCE_S = 0.00043
UNITS = 2  # units of work per sample, about 1 ms
BLOCK = 8  # samples per block between operations
TICK_S = 0.05  # timer period while a span is measured
SPAWN_REFERENCE_S = 0.062
SPAWN = (sys.executable, "-c", "import argparse, dataclasses, fractions, itertools, json")

_P = 7
_ROWS = tuple(tuple((i * j + 1) % _P for j in range(6)) for i in range(6))


def _work() -> int:
    """One unit: tuple arithmetic modulo a prime, dict lookups, generators
    and Fraction arithmetic, the mix the library spends its time in."""
    seen = {}
    for r in range(24):
        for i, a in enumerate(_ROWS):
            b = _ROWS[(i + r) % 6]
            v = tuple((x * y + z) % _P for x, y, z in zip(a, b, a))
            seen[v] = seen.get(v, 0) + 1
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i, i + 1) * Fraction(1, i + 2)
    return len(seen) + f.denominator % 2


def sample() -> tuple:
    """(start, end, seconds per unit) of one sample taken now."""
    t0 = time.perf_counter()
    for _ in range(UNITS):
        _work()
    t1 = time.perf_counter()
    return t0, t1, (t1 - t0) / UNITS


def scale(seconds: float, unit: float) -> float:
    """``seconds`` measured while a unit took ``unit`` s, scaled to a host
    on which it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / unit


class Meter:
    """Host-speed samples of one process, in blocks and timer ticks."""

    def __init__(self):
        self.blocks = []  # (start, end, mean seconds per unit), in time order
        self.ticks = []  # (start, end, seconds per unit), in time order

    def block(self, spawn: bool = False) -> None:
        """Take BLOCK samples in a row, or with ``spawn`` time one child
        interpreter; call it between measured spans."""
        if spawn:
            t0 = time.perf_counter()
            subprocess.run(SPAWN, check=True, stdin=subprocess.DEVNULL)
            t1 = time.perf_counter()
            self.blocks.append((t0, t1, (t1 - t0) * REFERENCE_S / SPAWN_REFERENCE_S))
            return
        samples = [sample() for _ in range(BLOCK)]
        self.blocks.append((samples[0][0], samples[-1][1],
                            statistics.fmean(s[2] for s in samples)))

    def _tick(self, signum, frame) -> None:
        self.ticks.append(sample())

    @contextmanager
    def ticking(self):
        """Take a sample every TICK_S seconds inside the block, from a timer
        signal that the main thread handles between bytecodes."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def reading(self, start: float, end: float) -> tuple:
        """(seconds of samples inside [start, end], seconds per unit over it).

        The unit is the mean of the last block before the span, every tick
        inside it and the first block after it, so a long span is scaled
        mostly by its ticks and a short one by the blocks at its ends.
        """
        inside = [t for t in self.ticks if t[0] < end and t[1] > start]
        busy = sum(min(t[1], end) - max(t[0], start) for t in inside)
        ends = [b[1] for b in self.blocks]
        i = bisect.bisect_right(ends, start)
        values = [t[2] for t in inside]
        if i > 0:
            values.append(self.blocks[i - 1][2])
        after = next((b for b in self.blocks[i:] if b[0] >= end), None)
        if after is not None:
            values.append(after[2])
        if not values:
            raise ValueError("no host-speed sample around the span")
        return busy, statistics.fmean(values)
