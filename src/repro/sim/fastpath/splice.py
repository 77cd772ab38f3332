"""The analytic fast-forward: replicate a stationary window N times.

Splicing is state surgery on a *live* simulation, performed only at a
stable point (no pending event at the current instant: the engine's
FIFO of entries due now is empty).  Exact-shift invariants make it
safe:

- Shifting every pending heap entry by a constant ``N * W`` preserves
  both the heap property and the sequence tie-break, so the resumed
  event order is exactly the order the kernel would have reached -- just
  later.  In-flight housekeeping timers (maintenance, APST probes) are
  no-ops under a read-only steady load, so their phase shift is
  behaviorally invisible.
- The power trace is extended by tiling the template window's
  breakpoints, so the energy added is *exactly* ``N`` times the template
  window's integral (the ``fastpath_equivalence`` invariant).
- IO records are tiled the same way (``np.tile`` over the template
  window's columns), and the offset stream is advanced
  by the skipped submissions (:meth:`OffsetGenerator.skip`) so the
  resumed simulation draws exactly the offsets the slow path would have
  drawn at that point in the stream.
- The up-to-``iodepth`` IOs in flight across the splice carry submit
  timestamps from before the jump; their records are corrected by the
  shift after the job completes (:class:`Fixup`), which preserves their
  latency -- the quantity that is actually equivalent.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.iogen.stats import IoLog
from repro.sim.fastpath.detect import WindowStats
from repro.sim.fastpath.options import SpliceRecord

__all__ = ["Fixup", "apply_fixups", "splice_windows"]


@dataclass(frozen=True)
class Fixup:
    """Deferred submit-time correction for IOs in flight across a splice.

    Any record appended after ``position`` whose submit time is at or
    before ``t_splice`` was submitted before the jump and completed
    after it; adding ``shift_s`` to its submit time restores the latency
    the slow path would have recorded.  Post-splice submissions all
    carry timestamps beyond ``t_splice + shift_s``, so the predicate is
    unambiguous.
    """

    position: int
    t_splice: float
    shift_s: float


def apply_fixups(records: IoLog, fixups: list[Fixup]) -> int:
    """Rewrite stale in-flight submit times in place; returns count fixed.

    One masked add per fixup, in splice order, on the submit column.
    """
    # A writable view of the live column: nothing may append while it is
    # held, and it is dropped on return.
    submit = np.frombuffer(records.submit_time, np.float64)
    fixed = 0
    for fixup in fixups:
        tail = submit[fixup.position :]
        stale = tail <= fixup.t_splice
        tail[stale] += fixup.shift_s
        fixed += int(np.count_nonzero(stale))
    return fixed


def splice_windows(
    engine, device, job, stats: WindowStats, n_windows: int
) -> tuple[SpliceRecord, Fixup]:
    """Fast-forward the run by ``n_windows`` copies of the template window.

    Must be called at a stable point with ``engine.now == stats.t_end``.
    Returns the accounting record and the in-flight fixup to apply after
    the job completes.
    """
    window_s = stats.window_s
    shift = n_windows * window_s
    t_splice = stats.t_end
    trace = device.rail.trace

    # -- energy/trace replication (before appending anything) -----------
    energy_per_window = trace.integrate(stats.t_start, t_splice)
    times = trace._times
    values = trace._values
    # Template breakpoints in (t_start, t_end]; the value *at* t_start
    # seeds each replica's leading segment so every replica integrates to
    # exactly the template's energy.
    lo = bisect.bisect_right(times, stats.t_start)
    hi = bisect.bisect_right(times, t_splice)
    v_start = values[lo - 1] if lo > 0 else values[0]
    template_t = np.asarray([stats.t_start] + times[lo:hi], float)
    template_v = np.asarray([v_start] + values[lo:hi], float)
    offsets = np.repeat(np.arange(1, n_windows + 1) * window_s, len(template_t))
    tiled_t = np.tile(template_t, n_windows) + offsets
    tiled_v = np.tile(template_v, n_windows)
    # A replica boundary can coincide with the trace's current last
    # breakpoint; duplicates are fine (sampling takes the last entry at a
    # time, which is exactly the overwrite semantics of StepTrace.set).
    times.extend(tiled_t.tolist())
    values.extend(tiled_v.tolist())
    energy_added = float(
        trace.integrate(t_splice, t_splice + shift)
    )

    # -- record replication ---------------------------------------------
    template = job.records.view(stats.records_start, stats.records_end)
    shifts = np.repeat(np.arange(1, n_windows + 1) * window_s, len(template))
    job.records.extend(
        np.tile(template.submit_time, n_windows) + shifts,
        np.tile(template.complete_time, n_windows) + shifts,
        np.tile(template.nbytes, n_windows),
    )
    records_added = n_windows * len(template)

    # -- submission-side bookkeeping ------------------------------------
    skipped_submissions = n_windows * stats.submissions
    job._offsets.skip(skipped_submissions)
    job._issued_bytes += skipped_submissions * job.spec.block_size

    # -- device counters -------------------------------------------------
    device.ios_completed += records_added
    device.bytes_read += int(template.nbytes.sum()) * n_windows
    device._last_activity += shift

    # -- time jump --------------------------------------------------------
    assert not engine._ready, "splice_windows needs an empty FIFO (a stable point)"
    queue = engine._queue
    queue[:] = [(t + shift, seq, handler, arg) for t, seq, handler, arg in queue]
    engine._now = t_splice + shift
    events_skipped = n_windows * stats.events
    engine.events_fast_forwarded += events_skipped

    record = SpliceRecord(
        t_from=t_splice,
        t_to=t_splice + shift,
        window_s=window_s,
        n_windows=n_windows,
        records_per_window=len(template),
        records_added=records_added,
        energy_per_window_j=energy_per_window,
        energy_added_j=energy_added,
        events_skipped=events_skipped,
    )
    return record, Fixup(position=len(job.records), t_splice=t_splice, shift_s=shift)
