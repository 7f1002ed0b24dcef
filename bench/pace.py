"""Host-speed sampling, so that times do not follow the host's load.

The benchmark shares a few cores of a host whose speed swings by up to
1.5x within seconds, as other tenants come and go; a whole 30 s run can
sit in a slow phase. So each child process samples the speed of the core
it runs on while it works: every `INTERVAL_S` a timer signal runs a fixed
pure-Python kernel (integer arithmetic, `Fraction` arithmetic, a small
dict) and records how long it took. A duration measured over [a, b] is
rescaled by the mean of `KERNEL_S / sample` over the samples taken in
[a, b] (at least `MIN_SAMPLES`, widened to the nearest ones), which gives
"reference seconds": the time the same work takes on a core that runs the
kernel in `KERNEL_S`. The kernel does not touch typigraph, so a change to
the program moves reference seconds just as it moves seconds.

The sampling costs about 2% of the time it covers, in every child alike.
It keeps no Python object per sample: the samples go into arrays allocated
before the program runs. A float kept per sample would pin a pymalloc arena
among the program's objects and move its peak memory by a megabyte from
run to run.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.01
MIN_SAMPLES = 8
KERNEL_S = 0.00016  # the kernel's time on an unloaded core of the reference host
CAPACITY = 1 << 14  # samples; more than a child lives (its timeout is 90 s)


def _kernel() -> None:
    x = 1
    for i in range(1000):
        x = (x * 31 + i) % 1000003
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(i, i % 7 + 3)
    table: dict = {}
    for i in range(150):
        table[(i % 13, i)] = i


class Pace:
    """Kernel samples (start, seconds) of one process, taken on a timer."""

    def __init__(self) -> None:
        self.starts = array("d", bytes(8 * CAPACITY))
        self.seconds = array("d", bytes(8 * CAPACITY))
        self.count = array("q", [0])

    def _sample(self, signum, frame) -> None:
        i = self.count[0]
        if i == CAPACITY:
            return
        start = time.perf_counter()
        _kernel()
        self.seconds[i] = time.perf_counter() - start
        self.starts[i] = start
        self.count[0] = i + 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def widen(self, until: float) -> None:
        """Keep sampling until `until` (perf_counter) has MIN_SAMPLES after it."""
        while True:
            n = self.count[0]
            if n == CAPACITY or n - bisect.bisect_left(self.starts, until, 0, n) >= MIN_SAMPLES:
                return
            signal.pause()

    def factor(self, a: float, b: float) -> float:
        """Mean of KERNEL_S / sample over the samples around [a, b]."""
        n = self.count[0]
        i = bisect.bisect_left(self.starts, a, 0, n)
        j = bisect.bisect_right(self.starts, b, 0, n)
        while j - i < MIN_SAMPLES and (i > 0 or j < n):
            # widen towards the nearer neighbour
            if j >= n or (i > 0 and a - self.starts[i - 1] <= self.starts[j] - b):
                i -= 1
            else:
                j += 1
        picked = self.seconds[i:j]
        return sum(KERNEL_S / s for s in picked) / len(picked) if picked else 1.0

    def reference_seconds(self, a: float, b: float) -> float:
        return (b - a) * self.factor(a, b)
