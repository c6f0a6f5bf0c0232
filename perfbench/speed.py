"""Host seconds rescaled to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts: on a
shared 2-vCPU VM (Intel Xeon, Python 3.11) the same simulation took 1.5 s
in one run and 2.8 s in another, in phases lasting from seconds to
minutes, so wall-clock throughput spread by a quarter between runs.  A
fixed calibration kernel (small heap and dict operations, like the
simulator's own inner loops) is timed every ``PERIOD`` seconds *during*
each timed run, from a SIGALRM handler in the same thread, so it sees the
machine speed the program saw.  The run's host seconds are then rescaled by
``REFERENCE_KERNEL_S / median kernel time``: a run that found the machine
twice as slow reports the same reference seconds.  The kernel touches
nothing of the program's, so a slower program still reports more
reference seconds.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List

clock = time.perf_counter

#: Sampling period of the calibration kernel.
PERIOD = 0.02

#: The kernel's duration in the VM's fast phases; reference seconds are
#: host seconds on a machine this fast.
REFERENCE_KERNEL_S = 200e-6


def kernel() -> None:
    heap: list = []
    counts: dict = {}
    for i in range(300):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        counts[i & 63] = counts.get(i & 63, 0) + 1
    while heap:
        heapq.heappop(heap)


def timed_kernel() -> float:
    """Seconds one :func:`kernel` takes now.

    No collection runs inside it: a full collection of the program's heap
    would be charged to the machine, not the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        kernel()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times :func:`kernel` every :data:`PERIOD` seconds while active."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def __enter__(self) -> "SpeedSampler":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, host_s: float, wall_s: float) -> float:
        """*host_s* (part of a *wall_s* run) less the kernel's share, rescaled."""
        if not self.samples:
            self._sample(None, None)
        own = host_s * (1.0 - sum(self.samples) / wall_s)
        return own * REFERENCE_KERNEL_S / statistics.median(self.samples)


def reference_interval(fn) -> float:
    """Reference seconds of ``fn()``, for calls too short to sample inside.

    The kernel is timed three times just before and just after the call;
    speed phases last far longer than one set-up, so those six samples see
    the speed the call ran at.
    """
    before = [timed_kernel() for _ in range(3)]
    t0 = clock()
    fn()
    wall = clock() - t0
    after = [timed_kernel() for _ in range(3)]
    return wall * REFERENCE_KERNEL_S / statistics.median(before + after)
