"""The host's speed, sampled while the benchmark times anything.

On a virtual machine that shares its cores with other tenants the same
pure-Python work runs at one of two speeds, about 1.8 times apart, and the
host flips between them every few to few dozen milliseconds; the share of
slow time drifted from minute to minute, so a run's median moved by up to
40 % with no change to the program.  Process CPU time slows down just as
much, so it is no remedy.  ``HostClock`` therefore times a fixed
stdlib-only kernel every ``EVERY_S`` of CPU time, from a profiling-timer
signal handler, and turns any stretch of wall time into reference seconds:
wall seconds on a host that runs the kernel in ``KERNEL_REF_S``.  A change
to psskit moves scaled times exactly as it moves wall times, because the
kernel calls no psskit code.
"""

import math
import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# Best-of-three kernel time on an uncontended core of a 2-vCPU x86-64
# virtual machine with Python 3.11.7; contended, the same kernel takes
# about 1.8 times as long.
KERNEL_REF_S = 0.00029
# CPU time between two calibrations; each costs about 1 to 1.5 ms.
EVERY_S = 0.025


def _kernel() -> int:
    acc = 0
    for i in range(1, 100):
        q = Fraction(i % 97 + 1, i % 89 + 1) + Fraction(i % 7 + 1, i % 5 + 2)
        acc += q.numerator - q.denominator
    return acc


def slowness() -> float:
    """How many times longer than ``KERNEL_REF_S`` the kernel takes now."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best / KERNEL_REF_S


class HostClock:
    """Reference seconds between any two instants of a stretch of work.

    ``start()`` calibrates and arms a profiling timer whose SIGPROF handler
    calibrates again every ``EVERY_S`` of CPU time, also in the middle of
    an operation; ``stop()`` disarms it and calibrates a last time.  Between
    two calibrations the host is taken to run at the mean of their
    slownesses, and the calibrations' own time counts as no time at all.
    ``scaled(a, b)`` then gives the reference seconds between two
    ``perf_counter()`` readings taken in between.
    """

    def __init__(self):
        self.calibrations: list[tuple[float, float, float]] = []  # (start, end, slowness)
        self._ends: list[float] = []

    def _calibrate(self, signum=None, frame=None):
        t0 = perf_counter()
        value = slowness()
        self.calibrations.append((t0, perf_counter(), value))

    def start(self):
        self._calibrate()
        signal.signal(signal.SIGPROF, self._calibrate)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._calibrate()
        self._ends = [end for _, end, _ in self.calibrations]

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds from ``a`` to ``b``, both read between start() and stop()."""
        cals = self.calibrations
        i = bisect_right(self._ends, a) - 1  # the last calibration before a
        total = 0.0
        while True:
            start, _, value = cals[i + 1]
            gap = min(b, start) - max(a, cals[i][1])
            total += max(gap, 0.0) * 2 / (cals[i][2] + value)
            if b <= start:
                return total
            i += 1
