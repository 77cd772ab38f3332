"""CPU time in reference seconds, steady on a host whose speed moves.

On a shared host the same pure-Python loop can take twice as long from
one second to the next (other tenants share the physical core), and its
CPU time moves with it, since the processor itself runs slower.  The
benchmark therefore scales CPU time by the speed of a fixed calibration
loop run on the same processor at the same moment: a segment of CPU time
``t`` next to calibrations that took ``c`` counts ``t * REFERENCE_S / c``
reference seconds, the time it would take on a host where the loop takes
:data:`REFERENCE_S`.  The loop uses only the standard library, so no
change to ``repro`` changes its cost.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import time

#: Iterations of one calibration run, about 5 ms of CPU.
CALIBRATION_LOOPS = 4000

#: CPU seconds one calibration run takes on the reference host: about
#: its tenth percentile on the 2-vCPU Xeon VM the bounds were set on.
REFERENCE_S = 0.005


class _Event:
    __slots__ = ("time", "kind")

    def __init__(self, time: float, kind: int) -> None:
        self.time = time
        self.kind = kind


def calibrate() -> float:
    """CPU seconds of one run of the calibration loop: a small event heap
    with objects, tuples, dict updates and float arithmetic, the kind of
    work the simulator's kernel does.

    The cyclic garbage collector is off while it runs: a collection of
    the caller's heap would otherwise land in the loop now and then (the
    loop makes no cycles, so it leaves no garbage behind).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        heap: list = []
        totals: dict = {}
        acc = 0.0
        for i in range(CALIBRATION_LOOPS):
            heapq.heappush(heap, (i * 0.618 % 1.0, i, _Event(i * 1.5, i & 63)))
            if len(heap) > 64:
                at, _, event = heapq.heappop(heap)
                totals[event.kind] = totals.get(event.kind, 0.0) + at * event.time
                acc += event.time / (1.0 + at)
        return time.process_time() - start
    finally:
        if collecting:
            gc.enable()


def calibration_s(runs: int) -> float:
    """Median CPU seconds of ``runs`` calibration runs."""
    return statistics.median(calibrate() for _ in range(runs))


class ReferenceClock:
    """This process's CPU time in reference seconds, as a clock.

    Every read runs one calibration and advances the clock by the CPU
    time spent since the previous read (calibration excluded), scaled by
    the mean of the calibrations on either side of that segment: the
    host's speed holds for a second or two, and calibrations further
    away lag where it changes.  The difference of two reads is the
    reference seconds of the work between them.  A forked child starts
    its own count.
    """

    def __init__(self) -> None:
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self._now = 0.0
        self._last = time.process_time()
        self._calibration = None

    def __call__(self) -> float:
        segment = time.process_time() - self._last
        after = calibrate()
        before = self._calibration if self._calibration is not None else after
        self._now += segment * REFERENCE_S * 2.0 / (before + after)
        self._calibration = after
        self._last = time.process_time()
        return self._now


#: The one clock of this process.
CLOCK = ReferenceClock()
