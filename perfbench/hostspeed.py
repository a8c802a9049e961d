"""Host speed sampler: a tiny fixed piece of pure-Python work, timed every
INTERVAL_S seconds while the program runs, so that the benchmark's times can
be scaled to one host speed.

On a shared host the speed of identical work drifts by up to 2x within
minutes, and it changes within a second as well, so a probe timed between
program calls misses what the calls met.  The sampler runs its kernel from a
SIGALRM handler, between the program's own bytecodes, so its samples spread
evenly over the calls.  The kernel does not call the program, so a change to
the program does not move it.  Each stretch of time between two samples is
scaled by the speed the later sample measured: that removes most of the
drift, the fast changes included, and keeps the program's own change.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right
from itertools import combinations

TRIANGLES = tuple(combinations(range(6), 3))
COLORS = (0, 1, 2, 0, 1, 3)
ROUNDS = 40
# Rainbow triples of COLORS on K_6, counted ROUNDS times.
EXPECTED = 12 * ROUNDS
# The samples' mean during the workloads' calls on the host the benchmark
# was written on (2-vCPU Intel Xeon VM, Python 3.11.7), where the kernel
# alone takes about 50 us; scaled times are seconds at that host's speed.
REFERENCE_S = 9e-5
INTERVAL_S = 0.02


def kernel() -> int:
    """Rainbow triples of a fixed 6-vertex coloring, counted ROUNDS times:
    the kind of work the program does, in about 50 us.  It allocates no
    object the garbage collector tracks, so it never starts a collection
    whose cost would depend on the program's heap."""
    count = 0
    for _ in range(ROUNDS):
        for x, y, z in TRIANGLES:
            if COLORS[x] != COLORS[y] != COLORS[z] != COLORS[x]:
                count += 1
    return count


class Sampler:
    """While entered, times ``kernel`` on SIGALRM every INTERVAL_S seconds;
    ``times`` holds when each sample ended and ``seconds`` what it took."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _on_alarm(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        if kernel() != EXPECTED:
            raise RuntimeError(f"speed kernel counted {kernel()}, not {EXPECTED}")
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # the alarm never came; measure once now
            self._on_alarm()

    def scaled(self, t0: float, t1: float) -> float:
        """The perf_counter stretch [t0, t1] in seconds at the reference
        speed: each piece up to a sample counts at REFERENCE_S over that
        sample's time, and the piece after the last sample counts at the
        last sample's speed.  Call it once the samples are all taken."""
        times, seconds = self.times, self.seconds
        i = bisect_right(times, t0)
        total, start = 0.0, t0
        while i < len(times) and times[i] < t1:
            total += (times[i] - start) * REFERENCE_S / seconds[i]
            start = times[i]
            i += 1
        k = seconds[min(i, len(times) - 1)]
        return total + (t1 - start) * REFERENCE_S / k
