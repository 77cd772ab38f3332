"""Sweep-scale executor telemetry: the value types of a batch's story.

:mod:`repro.obs` observes one *simulation* at a time; this module
describes the *executor* that fans hundreds of simulations out across a
worker pool.  A long sweep is a small distributed system -- points queue,
dispatch, run, time out, retry, crash, and land in a result cache -- and
these frozen values tie it into a picture of where the wall-clock went.
The executor's books (``_Books`` in :mod:`repro.core.parallel`, the one
record of a batch) keep each point's lifecycle and each pool worker's
life, and build these values from what they kept.

The model mirrors the obs layer's house rules:

- **Strictly passive.**  Telemetry records wall-clock timestamps and
  counts around experiment execution; it never touches simulation state,
  RNG streams, or the result objects, so telemetered results pickle
  bit-identical to untelemetered ones (the telemetry row of
  ``benchmarks/zero_cost.py`` asserts this).
- **Zero cost when off.**  Nothing here is imported unless
  :class:`~repro.core.options.ExecutionOptions` asked for telemetry, a
  ledger, or progress reporting; otherwise the books take no
  timestamps.
- **One cost record.**  Each span carries its point's
  :class:`~repro.obs.profile.PointProfile`, measured the same way on
  both executor paths; pool workers ship it back over the existing pipe
  protocol beside each outcome -- four scalars and a label, not an event
  stream.  :attr:`SweepTelemetry.profile` aggregates them.

Vocabulary:

- :class:`PointSpan` -- one point's lifecycle through the executor
  (queued -> dispatched -> running -> retried/timed-out/done/cached).
- :class:`WorkerStats` -- one pool worker's utilization: busy seconds
  over alive seconds, and how many attempts it served.
- :class:`SweepTelemetry` -- the frozen snapshot attached to
  :class:`~repro.core.sweep.SweepOutcome`; :meth:`SweepTelemetry.merge`
  is associative, so shards of a partitioned sweep roll up in any order.
- :class:`ProgressUpdate` -- one live progress/ETA sample delivered to
  an ``ExecutionOptions.progress`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.obs.profile import PointProfile, RunProfiler

__all__ = [
    "PointSpan",
    "ProgressUpdate",
    "SweepTelemetry",
    "WorkerStats",
    "point_status",
]

#: Terminal lifecycle states a :class:`PointSpan` can report.
POINT_STATUSES = ("done", "cached", "failed", "timeout", "crashed")


def point_status(outcome) -> str:
    """Map an executor outcome to its telemetry status string.

    ``ExperimentResult`` -> ``"done"``; a
    :class:`~repro.core.parallel.PointFailure` maps by its error type so
    timeout and crash incidents stay distinguishable in rollups.
    """
    error_type = getattr(outcome, "error_type", None)
    if error_type is None:
        return "done"
    if error_type == "PointTimeoutError":
        return "timeout"
    if error_type == "WorkerCrashError":
        return "crashed"
    return "failed"


@dataclass(frozen=True)
class PointSpan:
    """One sweep point's journey through the executor (wall-clock side).

    Attributes:
        index: Submission-order position in the batch.
        key: Config content hash (the cache and ledger key).
        label: ``config.describe()`` for humans.
        status: Terminal state: ``done``, ``cached``, ``failed``,
            ``timeout`` or ``crashed``.
        attempts: Dispatch count (> 1 means the point was retried); 1
            for a cache hit.
        queue_wait_s: Enqueue to first dispatch (scheduling latency).
        total_s: Enqueue to terminal outcome, parent-side (includes
            queueing, retries and backoff).
        worker: Pool worker slot that ran the final attempt (``None``
            for in-process execution and cache hits).
        profile: The final attempt's run cost inside ``run_experiment``
            (``None`` for cache hits and attempts that did not finish).
    """

    index: int
    key: str
    label: str
    status: str
    attempts: int = 1
    queue_wait_s: float = 0.0
    total_s: float = 0.0
    worker: Optional[int] = None
    profile: Optional[PointProfile] = None

    def describe(self) -> str:
        extra = f" x{self.attempts}" if self.attempts > 1 else ""
        return f"{self.label}: {self.status}{extra} ({self.total_s:.3f}s)"


@dataclass(frozen=True)
class WorkerStats:
    """Utilization of one pool worker slot.

    Attributes:
        worker: Slot id (stable within one sweep; replacements after a
            crash get fresh ids).
        attempts: Point attempts this slot served (completed or killed).
        busy_s: Wall seconds between dispatch and outcome, summed.
        alive_s: Wall seconds between spawn and retirement.
    """

    worker: int
    attempts: int = 0
    busy_s: float = 0.0
    alive_s: float = 0.0

    @property
    def utilization(self) -> float:
        """Busy fraction of the slot's lifetime (0 when never alive)."""
        if self.alive_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.alive_s)


@dataclass(frozen=True)
class ProgressUpdate:
    """One live progress sample for a running sweep.

    Delivered to the ``ExecutionOptions.progress`` callback after every
    point reaches a terminal state (cache hits included).  The ETA is a
    naive rate extrapolation over *executed* (non-cached) points -- honest
    for grids of similar-cost points, indicative otherwise.
    """

    done: int
    total: int
    cached: int
    failed: int
    elapsed_s: float

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion (``None`` before any sample)."""
        executed = self.done - self.cached
        if executed <= 0 or self.elapsed_s <= 0:
            return None
        return self.remaining * (self.elapsed_s / executed)

    def describe(self) -> str:
        parts = [f"{self.done}/{self.total} points"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} failed")
        eta = self.eta_s
        if eta is not None and self.remaining:
            parts.append(f"eta {eta:.0f}s")
        return ", ".join(parts)


@dataclass(frozen=True)
class SweepTelemetry:
    """Executor-side story of one sweep, frozen at completion.

    Attached to :class:`~repro.core.sweep.SweepOutcome` when the sweep
    ran with ``ExecutionOptions(telemetry=True)``.  :meth:`merge` is
    associative and keeps spans in submission order, so a sweep sharded
    across sessions rolls up into one honest view.
    """

    spans: Tuple[PointSpan, ...] = ()
    workers: Tuple[WorkerStats, ...] = ()
    wall_s: float = 0.0
    cache: Optional[dict] = None

    # -- tallies ----------------------------------------------------------

    def count(self, status: str) -> int:
        return sum(1 for span in self.spans if span.status == status)

    @property
    def points(self) -> int:
        return len(self.spans)

    @property
    def retries(self) -> int:
        """Extra attempts beyond the first, summed over all points."""
        return sum(max(0, span.attempts - 1) for span in self.spans)

    @property
    def profile(self) -> RunProfiler:
        """The spans' run costs, in submission order, as one profiler."""
        profiler = RunProfiler()
        profiler.points = [s.profile for s in self.spans if s.profile is not None]
        return profiler

    @property
    def mean_queue_wait_s(self) -> float:
        executed = [s for s in self.spans if s.status != "cached"]
        if not executed:
            return 0.0
        return sum(s.queue_wait_s for s in executed) / len(executed)

    @property
    def utilization(self) -> float:
        """Pool-wide busy fraction (0 when no pool workers ran)."""
        alive = sum(w.alive_s for w in self.workers)
        if alive <= 0:
            return 0.0
        return min(1.0, sum(w.busy_s for w in self.workers) / alive)

    def slowest(self, n: int = 5) -> Tuple[PointSpan, ...]:
        """The ``n`` most expensive points by run time (cache hits and
        unfinished attempts have no profile and are left out)."""
        measured = [s for s in self.spans if s.profile is not None]
        return tuple(sorted(measured, key=lambda s: -s.profile.wall_s)[:n])

    def incidents(self) -> Tuple[PointSpan, ...]:
        """Spans that retried, timed out, crashed, or failed."""
        return tuple(
            s
            for s in self.spans
            if s.attempts > 1 or s.status in ("failed", "timeout", "crashed")
        )

    # -- composition ------------------------------------------------------

    def merge(self, other: "SweepTelemetry") -> "SweepTelemetry":
        """Associative roll-up of two telemetry snapshots.

        Spans keep submission order per snapshot and concatenate;
        ``other``'s span indices and worker ids are shifted past this
        snapshot's so identities stay unique.  Cache snapshots sum
        field-wise (hit_rate is recomputed).
        """
        offset = max((s.index for s in self.spans), default=-1) + 1
        shifted = tuple(replace(s, index=s.index + offset) for s in other.spans)
        worker_offset = max((w.worker for w in self.workers), default=-1) + 1
        shifted_workers = tuple(
            replace(w, worker=w.worker + worker_offset) for w in other.workers
        )
        cache = None
        if self.cache is not None or other.cache is not None:
            a = self.cache or {}
            b = other.cache or {}
            cache = {
                k: a.get(k, 0) + b.get(k, 0)
                for k in ("hits", "misses", "corrupt", "puts")
            }
            total = cache["hits"] + cache["misses"]
            cache["hit_rate"] = cache["hits"] / total if total else 0.0
        return SweepTelemetry(
            spans=self.spans + shifted,
            workers=self.workers + shifted_workers,
            wall_s=self.wall_s + other.wall_s,
            cache=cache,
        )

    # -- serialization ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready summary (sorted keys, no wall-clock timestamps)."""
        by_status = {
            status: self.count(status)
            for status in POINT_STATUSES
            if self.count(status)
        }
        profile = self.profile
        return {
            "points": self.points,
            "by_status": by_status,
            "retries": self.retries,
            "wall_s": self.wall_s,
            "executed_wall_s": profile.total_wall_s,
            "sim_events": profile.total_sim_events,
            "events_per_second": profile.events_per_second,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "utilization": self.utilization,
            "workers": [
                {
                    "worker": w.worker,
                    "attempts": w.attempts,
                    "busy_s": w.busy_s,
                    "alive_s": w.alive_s,
                    "utilization": w.utilization,
                }
                for w in self.workers
            ],
            "cache": self.cache,
        }

    def describe(self) -> str:
        """One-line human summary for CLI footers."""
        parts = [
            f"{self.points} point(s)",
            f"{self.count('cached')} cached",
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}",
            f"{self.profile.events_per_second:,.0f} ev/s",
        ]
        if self.workers:
            parts.append(f"pool util {self.utilization:.0%}")
        return ", ".join(parts)
