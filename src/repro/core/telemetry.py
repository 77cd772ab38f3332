"""Sweep-scale executor telemetry.

:mod:`repro.obs` observes one *simulation* at a time; this module
observes the *executor* that fans hundreds of simulations out across a
worker pool.  A long sweep is a small distributed system -- points queue,
dispatch, run, time out, retry, crash, and land in a result cache -- and
until now that system was a black box: :class:`~repro.core.parallel.CacheStats`
and :class:`~repro.core.parallel.PointFailure` captured fragments, but
nothing tied them into a picture of where the wall-clock went.

The model mirrors the obs layer's house rules:

- **Strictly passive.**  Telemetry records wall-clock timestamps and
  counts around experiment execution; it never touches simulation state,
  RNG streams, or the result objects, so telemetered results pickle
  bit-identical to untelemetered ones (the telemetry row of
  ``benchmarks/zero_cost.py`` asserts this).
- **Zero cost when off.**  Nothing here is imported or instantiated
  unless :class:`~repro.core.options.ExecutionOptions` asked for
  telemetry, a ledger, or progress reporting; the executor's default
  paths carry a ``None`` recorder and pay one ``is not None`` test.
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
- :class:`TelemetryRecorder` -- the mutable builder the executor feeds.
- :class:`ProgressUpdate` -- one live progress/ETA sample delivered to
  an ``ExecutionOptions.progress`` callback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.obs.profile import PointProfile, RunProfiler

__all__ = [
    "PointSpan",
    "ProgressUpdate",
    "SweepTelemetry",
    "TelemetryRecorder",
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


class _PointRecord:
    """Mutable per-point state inside the recorder (builder internals)."""

    __slots__ = (
        "key",
        "label",
        "enqueued_at",
        "dispatched_at",
        "attempts",
        "status",
        "finished_at",
        "profile",
        "worker",
    )

    def __init__(self, key: str, label: str, now: float) -> None:
        self.key = key
        self.label = label
        self.enqueued_at = now
        self.dispatched_at: Optional[float] = None
        self.attempts = 0
        self.status: Optional[str] = None
        self.finished_at: Optional[float] = None
        self.profile: Optional[PointProfile] = None
        self.worker: Optional[int] = None


@dataclass
class _WorkerRecord:
    spawned_at: float
    retired_at: Optional[float] = None
    attempts: int = 0
    busy_s: float = 0.0


class TelemetryRecorder:
    """Mutable collector the executor feeds; finalizes to a snapshot.

    The recorder is wall-clock-only and entirely outside the simulation:
    it can be attached to either execution path (in-process or the owned
    worker pool) without perturbing results.  The executor
    guards every call on ``recorder is not None``, so the default path
    pays nothing.

    ``on_progress`` (when set) receives a :class:`ProgressUpdate` after
    every terminal point event; exceptions it raises propagate -- a
    progress callback is caller code, not telemetry.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._started = clock()
        self._points: Dict[int, _PointRecord] = {}
        self._workers: Dict[int, _WorkerRecord] = {}
        self.total: Optional[int] = None
        self.on_progress: Optional[Callable[[ProgressUpdate], None]] = None

    # -- point lifecycle --------------------------------------------------

    def point_enqueued(self, index: int, key: str, label: str) -> None:
        self._points[index] = _PointRecord(key, label, self._clock())

    def point_cached(self, index: int, key: str, label: str) -> None:
        now = self._clock()
        record = _PointRecord(key, label, now)
        record.status = "cached"
        record.finished_at = now
        self._points[index] = record
        self._emit_progress()

    def point_dispatched(self, index: int, worker: Optional[int] = None) -> None:
        record = self._points[index]
        now = self._clock()
        if record.dispatched_at is None:
            record.dispatched_at = now
        record.attempts += 1
        record.worker = worker

    def point_finished(self, index: int, outcome, profile=None) -> None:
        """Terminal outcome for a dispatched point (success or final
        failure); its attempt count is its dispatch count."""
        record = self._points[index]
        record.status = point_status(outcome)
        record.finished_at = self._clock()
        record.profile = profile
        self._emit_progress()

    # -- worker lifecycle -------------------------------------------------

    def worker_spawned(self, worker: int) -> None:
        self._workers[worker] = _WorkerRecord(spawned_at=self._clock())

    def worker_attempt(self, worker: int, busy_s: float) -> None:
        """Credit one served attempt (completed or killed) to a slot."""
        record = self._workers.get(worker)
        if record is not None:
            record.attempts += 1
            record.busy_s += max(0.0, busy_s)

    def worker_retired(self, worker: int) -> None:
        record = self._workers.get(worker)
        if record is not None and record.retired_at is None:
            record.retired_at = self._clock()

    # -- progress ---------------------------------------------------------

    def progress(self) -> ProgressUpdate:
        finished = [p for p in self._points.values() if p.status is not None]
        return ProgressUpdate(
            done=len(finished),
            total=self.total if self.total is not None else len(self._points),
            cached=sum(1 for p in finished if p.status == "cached"),
            failed=sum(
                1
                for p in finished
                if p.status in ("failed", "timeout", "crashed")
            ),
            elapsed_s=self._clock() - self._started,
        )

    def _emit_progress(self) -> None:
        if self.on_progress is not None:
            self.on_progress(self.progress())

    # -- output -----------------------------------------------------------

    def span(self, index: int) -> Optional[PointSpan]:
        """The span for one point, or ``None`` if it never finished."""
        record = self._points.get(index)
        if record is None or record.status is None:
            return None
        dispatched = (
            record.dispatched_at
            if record.dispatched_at is not None
            else record.enqueued_at
        )
        finished = (
            record.finished_at
            if record.finished_at is not None
            else self._clock()
        )
        return PointSpan(
            index=index,
            key=record.key,
            label=record.label,
            status=record.status,
            attempts=1 if record.status == "cached" else record.attempts,
            queue_wait_s=max(0.0, dispatched - record.enqueued_at),
            total_s=max(0.0, finished - record.enqueued_at),
            worker=record.worker,
            profile=record.profile,
        )

    def finalize(self, cache=None) -> SweepTelemetry:
        """Freeze everything recorded so far into a snapshot.

        Args:
            cache: Optional :class:`~repro.core.parallel.CacheStats` (or
                an object with a ``snapshot()``) folded into the result.
        """
        now = self._clock()
        spans = []
        for index in sorted(self._points):
            span = self.span(index)
            if span is not None:
                spans.append(span)
        workers = []
        for worker_id in sorted(self._workers):
            record = self._workers[worker_id]
            retired = record.retired_at if record.retired_at is not None else now
            workers.append(
                WorkerStats(
                    worker=worker_id,
                    attempts=record.attempts,
                    busy_s=record.busy_s,
                    alive_s=max(0.0, retired - record.spawned_at),
                )
            )
        return SweepTelemetry(
            spans=tuple(spans),
            workers=tuple(workers),
            wall_s=now - self._started,
            cache=cache.snapshot() if cache is not None else None,
        )
