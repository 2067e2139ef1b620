"""Machine-speed calibration, so that timings hold still on a drifting machine.

On a shared virtual machine the same Python code can run up to about twice as
slowly for seconds to minutes at a time, and CPU time drifts with wall time,
so neither clock alone repeats from run to run.  The probe runs a fixed
pure-Python kernel (standard library only, nothing of blgroups) every
INTERVAL_S seconds from a SIGALRM handler, in the middle of whatever the
harness is doing, and records how long each kernel run took.  A timed interval
is then reported in reference seconds:

    reference = work / (kernel time around the interval / REFERENCE_KERNEL_S)

where `work` is the interval's wall time less the time the probe's own kernel
runs took inside it.  REFERENCE_KERNEL_S is a fixed constant, about the
kernel's time in the fast spells of the machine the baseline was recorded on
(2 vCPUs, Python 3.11: 1.8 ms at best, 3.4 ms median), so a reference second
is a second of that machine running fast.  No change to blgroups can move the
kernel: a faster program reads faster, while a slow spell of the machine slows
the kernel and the program alike and cancels out.  The probe's kernel runs
cost about 7% of wall time; they are left out of every timed interval.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 0.002
WINDOW_S = 0.5
MIN_SAMPLES = 9


def kernel():
    """About 2 ms of the interpreter work blgroups does most: rational
    arithmetic, hashing of tuples and frozensets, dict updates, sorting."""
    acc = Fraction(0)
    table: dict = {}
    seen = set()
    for i in range(600):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        seen.add(frozenset((i % 11, i % 17)))
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc, len(ordered), len(seen)


class SpeedProbe:
    """Kernel timings along the run; use as a context manager."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the start of each kernel run
        self.costs: list[float] = []  # its duration
        self.stolen = 0.0  # total seconds spent in kernel runs
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame):
        self.tick()

    def tick(self):
        """Run the kernel once and record its time."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.costs.append(t1 - t0)
        self.stolen += t1 - t0
        self._busy = False

    def stamp(self) -> tuple[float, float]:
        """(wall, work): perf_counter, and perf_counter less the kernel time
        so far, read with no kernel run between them."""
        while True:
            stolen = self.stolen
            wall = time.perf_counter()
            if stolen == self.stolen:
                return wall, wall - stolen

    def now(self) -> float:
        """The work clock: wall time that excludes the probe's kernel runs."""
        return self.stamp()[1]

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than the reference the machine ran over the wall
        interval [t0, t1], as a kernel time over REFERENCE_KERNEL_S; 1.0 when
        nothing was sampled.

        An interval holding at least MIN_SAMPLES kernel runs takes their
        harmonic mean: the runs are evenly spaced in time, so this averages
        the machine's speed over the interval, however it changed within it.
        A shorter interval takes the median of the runs within WINDOW_S of it
        (at least the MIN_SAMPLES nearest), an estimate of the speed at that
        moment that a single preempted kernel run does not move.
        """
        n = len(self.times)
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo >= MIN_SAMPLES:
            return statistics.harmonic_mean(self.costs[lo:hi]) / REFERENCE_KERNEL_S
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        return statistics.median(self.costs[lo:hi]) / REFERENCE_KERNEL_S

    def reference(self, t0: float, t1: float, work: float) -> float:
        """`work` seconds measured over the wall interval [t0, t1], in
        reference seconds."""
        return work / self.factor(t0, t1)
