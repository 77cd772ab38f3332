"""Steady-state detection from observed simulation signals.

The detector never models the device -- it watches what the run already
produces: the job's completion records, the submission counter, the rail
power trace, and the kernel event counter.  A checkpoint is taken every
``window_records`` completions (at a *stable point*: no pending event at
the current instant, so no same-time cascade is in flight).  Three
consecutive checkpoints define two adjacent windows; when the windows
agree on completion rate, mean latency, and mean rail power within the
configured relative tolerances, the run is declared stationary and the
most recent window becomes the splice template.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.iogen.stats import ordered_sum
from repro.sim.fastpath.options import FastpathOptions

__all__ = ["StationarityDetector", "WindowStats"]


@dataclass(frozen=True)
class WindowStats:
    """The template window a splice replicates.

    Attributes:
        t_start / t_end: Window bounds (both stable-point probe times).
        records_start / records_end: ``job.records`` indices bounding the
            window's completions.
        submissions: IOs submitted during the window.
        events: Kernel events the window cost.
        mean_power_w: Rail mean over the window.
    """

    t_start: float
    t_end: float
    records_start: int
    records_end: int
    submissions: int
    events: int
    mean_power_w: float

    @property
    def window_s(self) -> float:
        return self.t_end - self.t_start

    @property
    def records(self) -> int:
        return self.records_end - self.records_start


@dataclass(frozen=True)
class _Checkpoint:
    n_records: int
    t: float
    events: int
    issued_bytes: int


def _rel_close(a: float, b: float, rtol: float) -> bool:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    return abs(a - b) <= rtol * scale


class StationarityDetector:
    """Windowed stationarity test over a running job.

    Usage from the splice driver's stepping loop::

        if len(job.records) >= detector.next_probe_len and stable_point:
            stats = detector.probe(now, events_processed)
            if stats is not None:
                ...splice...
                detector.reset()
    """

    def __init__(self, job, rail, opts: FastpathOptions) -> None:
        self._job = job
        self._rail = rail
        self._opts = opts
        self._checkpoints: list[_Checkpoint] = []
        self.next_probe_len = opts.window_records

    def reset(self) -> None:
        """Forget all checkpoints (after a splice: the timeline moved)."""
        self._checkpoints.clear()
        self.next_probe_len = len(self._job.records) + self._opts.window_records

    def probe(self, now: float, events_processed: int) -> WindowStats | None:
        """Take a checkpoint; return the template window if stationary."""
        job = self._job
        n = len(job.records)
        self._checkpoints.append(
            _Checkpoint(n, now, events_processed, job._issued_bytes)
        )
        if len(self._checkpoints) > 3:
            self._checkpoints.pop(0)
        self.next_probe_len = n + self._opts.window_records
        if len(self._checkpoints) < 3:
            return None
        c0, c1, c2 = self._checkpoints
        w1 = c1.t - c0.t
        w2 = c2.t - c1.t
        n1 = c1.n_records - c0.n_records
        n2 = c2.n_records - c1.n_records
        if w1 <= 0 or w2 <= 0 or n1 <= 0 or n2 <= 0:
            return None
        opts = self._opts
        if not _rel_close(n1 / w1, n2 / w2, opts.rate_rtol):
            return None
        records = job.records
        lat1 = ordered_sum(records.view(c0.n_records, c1.n_records).latency) / n1
        lat2 = ordered_sum(records.view(c1.n_records, c2.n_records).latency) / n2
        if not _rel_close(lat1, lat2, opts.latency_rtol):
            return None
        trace = self._rail.trace
        p1 = trace.mean(c0.t, c1.t)
        p2 = trace.mean(c1.t, c2.t)
        if not _rel_close(p1, p2, opts.power_rtol):
            return None
        return WindowStats(
            t_start=c1.t,
            t_end=c2.t,
            records_start=c1.n_records,
            records_end=c2.n_records,
            submissions=(c2.issued_bytes - c1.issued_bytes)
            // job.spec.block_size,
            events=c2.events - c1.events,
            mean_power_w=p2,
        )
