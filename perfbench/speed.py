"""The machine's speed, sampled while the program runs.

The benchmark's host is shared, and the speed it gives one process changes
by up to 2x from one tenth of a second to the next and by 20-40% on average
from one minute to the next.  A ``Speedometer`` samples that speed while the
workload runs: a timer signal interrupts the program (every ``PERIOD_S``
through the passes, every ``SETUP_PERIOD_S`` through set-up) and times one
run of a fixed calibration kernel, and the time spent in those interruptions
is kept apart so that it can be taken off the program's wall time.
``scale()`` is ``REFERENCE_S`` over the mean kernel time, stalled samples
left out: multiplying a wall time by it gives the time the same work takes
when the kernel takes ``REFERENCE_S``, the kernel's mean time on the
reference machine (see README.md).

The kernel does what the program does most: Python-level arithmetic on
small numpy arrays and dictionary lookups.  It touches only its own few
objects, so the interrupted program sees nothing but the lost time.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # through the passes
SETUP_PERIOD_S = 0.01  # through set-up, which takes a few tenths of a second
# A sample over STALL times the median was descheduled or otherwise stalled.
# One such sample of 50-100 ms says nothing of the speed but would outweigh
# a hundred others in the mean, so it is left out.
STALL = 4.0
REFERENCE_S = 0.0006

_SMALL = np.arange(12.0)


def kernel():
    """A fixed amount of work, about 0.6 ms on the reference machine."""
    x = _SMALL
    table = {}
    for i in range(200):
        x = x * 0.999 + _SMALL[i % 12]
        table[i & 31] = table.get(i & 31, 0.0) + float(x[i % 12])
    return sum(table.values())


class Speedometer:
    """Times ``kernel()`` every ``period_s`` between ``start()`` and ``stop()``.

    ``samples`` holds the kernel times; ``overhead_s`` the wall time spent
    in the signal handler, sampling included, and in a first, untimed run of
    the kernel.  Both accumulate over every interval between a start and a
    stop until ``reset()``.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.samples = []
        t0 = time.perf_counter()
        kernel()  # the first call is slower than the rest
        self.overhead_s = time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reset(self):
        self.samples = []
        self.overhead_s = 0.0

    def scale(self):
        return scale(self.samples)


def scale(samples):
    """REFERENCE_S over the mean of the kernel times, stalled samples left
    out (1.0 if there are none)."""
    if not samples:
        return 1.0
    cap = STALL * statistics.median(samples)
    kept = [t for t in samples if t <= cap]
    return REFERENCE_S * len(kept) / sum(kept)
