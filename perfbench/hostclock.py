"""A clock that runs at the speed of the core the program runs on.

The benchmark's host is a few cores of a shared machine, and each core's
speed swings on its own: a fixed pure-Python loop pinned to one core
runs 30% to 100% slower for 10-40 s at a time, and the two cores of a
2-core VM slow down independently (the correlation of their per-2-s
speeds was 0.34).  Process CPU time slows down with wall time, so it is
no way out.  Timed by the wall clock, ten runs of identical work spread
by a third of their median.

So the measured process runs a :class:`Probe`: a thread, on the same
pinned core, that every :data:`PERIOD_S` seconds times one short fixed
:func:`kernel` of small numpy operations and Python arithmetic (the mix
of the program's hot loops).  A span of wall time ``[t0, t1]`` is worth
``(t1 - t0) * mean(REFERENCE_S / kernel time)`` seconds on the
*reference clock*, over the kernel samples taken in it: the integral of
the core's speed, in units of a core that runs the kernel in
:data:`REFERENCE_S`.  Over ten runs of each workload, throughput per
wall second spread by 0.08-0.17 (quartile distance over median) and
throughput per reference second by 0.007-0.029.

The probe costs about 1% of the core.  The kernel shares no code or
data with the program, so a change to the program moves the program's
reference time, not the clock.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Seconds between the starts of two kernel samples (plus the kernel).
PERIOD_S = 0.05

#: The unit of the reference clock: about the kernel's duration on a
#: fast core of a 2-core Intel Xeon VM at 2.1 GHz (Python 3.11, numpy 2.4).
REFERENCE_S = 3.4e-4

#: Samples this far outside a span still count for it, so a span
#: shorter than a few periods is priced by the samples around it.
PAD_S = 0.25

_A = np.arange(6.0).reshape(3, 2)


def kernel() -> float:
    """Fixed work: 60 small numpy operations with Python arithmetic."""
    total = 0.0
    for i in range(60):
        b = _A * 1.5 + i
        total += float(np.all(b > -1.0)) + (i * i) % 7
    return total


def pin(core: int | None) -> None:
    """Pin this process (and the threads it starts later) to ``core``."""
    if core is not None:
        os.sched_setaffinity(0, {core})


def cores() -> tuple[int, int]:
    """``(measured, driver)``: the core for the measured process and the
    one for the benchmark's own driver and load generator."""
    mine = sorted(os.sched_getaffinity(0))
    return mine[0], mine[-1]


class Probe:
    """A daemon thread that samples the kernel until :meth:`stop`.

    ``samples`` holds ``(end, duration)`` pairs in ``time.perf_counter``
    seconds, which on Linux is ``CLOCK_MONOTONIC``, shared by every
    process of the machine.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostclock",
                                        daemon=True)

    def start(self) -> "Probe":
        self._thread.start()
        return self

    def _loop(self) -> None:
        clock = time.perf_counter
        while not self._stop.is_set():
            t0 = clock()
            kernel()
            t1 = clock()
            self.samples.append((t1, t1 - t0))
            self._stop.wait(PERIOD_S)

    def stop(self) -> list[tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        return self.samples


def ref_seconds(samples, t0: float, t1: float) -> float:
    """Seconds on the reference clock between wall times ``t0`` and ``t1``."""
    speeds = [REFERENCE_S / d for end, d in samples if t0 - PAD_S <= end <= t1 + PAD_S]
    if not speeds:
        raise ValueError(f"no clock samples within {PAD_S} s of [{t0}, {t1}]")
    return (t1 - t0) * statistics.fmean(speeds)


def speed(samples) -> float:
    """The median speed of a run, as a share of the reference core's."""
    return statistics.median(REFERENCE_S / d for _end, d in samples)
