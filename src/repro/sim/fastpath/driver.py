"""Fastpath experiment driver: eligibility gate + splicing stepping loop.

:func:`drive_job` replaces ``run_until_complete`` when an experiment
carries :class:`~repro.sim.fastpath.options.FastpathOptions`.  It first
decides *whether* the run can be accelerated at all; ineligible runs
take the exact inlined stepping loop and are bit-identical to a run
without fastpath (the differential harness pins this).

Eligibility is deliberately conservative -- every condition corresponds
to hidden state a fast-forward could not replicate:

- writes mutate FTL/allocator/wear/GC state page by page;
- fault plans are windowed in absolute time and draw their own RNG;
- online policies observe the live rail at cadence ticks;
- the program-intensity wave draws jittered RNG per toggle;
- a rail audit shadows every individual draw update;
- HDDs carry head-position state the records do not expose.

Read-only jobs on an operational SSD have none of these: reads are not
power-governed (no governor state), touch no FTL state, and the
housekeeping loops (maintenance, APST) are no-ops while the device is
busy -- which is what makes the splice's constant time shift of pending
events behaviorally invisible.
"""

from __future__ import annotations

from heapq import heappop

from repro.devices.ssd import SimulatedSSD
from repro.obs.events import EventKind
from repro.sim.engine import SimulationError
from repro.sim.fastpath.detect import StationarityDetector
from repro.sim.fastpath.options import FastpathOptions, FastpathSummary
from repro.sim.fastpath.splice import apply_fixups, splice_windows

__all__ = ["drive_job", "splice_eligibility"]


def splice_eligibility(device, config) -> str:
    """Why this run must not fast-forward; empty string when it may."""
    if not isinstance(device, SimulatedSSD):
        return "device is not a simulated SSD"
    if not config.job.pattern.is_read:
        return "write workloads mutate FTL/GC state"
    if config.faults is not None:
        return "fault plans are windowed in absolute time"
    if config.policy is not None:
        return "online policies observe the live rail"
    if device.config.power_wave_w > 0:
        return "program-intensity wave draws per-toggle RNG"
    if device.rail._audit is not None:
        return "rail audit shadows every draw update"
    resident = device.current_power_state
    if resident is not None and not resident.operational:
        return "device is in a non-operational power state"
    return ""


def drive_job(engine, device, job, config, opts: FastpathOptions) -> FastpathSummary:
    """Run ``job`` to completion, splicing steady windows when eligible."""
    reason = splice_eligibility(device, config)
    master = job.start()
    if reason:
        engine.run_until_complete(master)
        return FastpathSummary(engaged=False, mode="exact", reason=reason)
    return _run_with_splices(engine, device, job, master, opts)


def _plan_windows(job, stats, opts: FastpathOptions) -> int:
    """Whole windows to skip, honoring every horizon with margin."""
    window_s = stats.window_s
    if window_s <= 0:
        return 0
    margin = opts.margin_windows
    by_deadline = int(
        (job.deadline - stats.t_end) / window_s - margin
    )
    n = by_deadline
    if stats.submissions > 0:
        bytes_per_window = stats.submissions * job.spec.block_size
        remaining = job.spec.size_limit_bytes - job._issued_bytes
        by_size = int(remaining / bytes_per_window) - margin
        if by_size < n:
            n = by_size
    if n < opts.min_windows:
        return 0
    return n


def _run_with_splices(engine, device, job, master, opts) -> FastpathSummary:
    """The exact inlined stepping loop, with stable-point splice probes.

    Identical event processing to ``Engine.run_until_complete`` -- the
    probe fires only *between* events, at instants where the next event
    lies strictly in the future (so no same-time cascade is in flight
    and every in-flight IO is accounted in ``device._inflight_ios``):
    the engine's FIFO of entries due now is empty and the heap holds
    nothing at the current instant.
    """
    detector = StationarityDetector(job, device.rail, opts)
    splices = []
    fixups = []
    completions = job.records.complete_time
    tracer = engine.tracer
    ready = engine._ready
    popleft = ready.popleft
    append = ready.append
    queue = engine._queue
    pop = heappop
    base_events = engine.events_processed
    processed = 0
    try:
        while master._ok is None:
            if ready:
                handler, arg = popleft()
            else:
                # Inlined Engine._advance().
                if not queue:
                    raise SimulationError("step() on an empty event queue")
                when, _seq, handler, arg = pop(queue)
                engine._now = when
                while queue and queue[0][0] == when:
                    entry = pop(queue)
                    append((entry[2], entry[3]))
            processed += 1
            handler(arg)
            if len(completions) < detector.next_probe_len:
                continue
            if len(splices) >= opts.max_splices:
                continue
            if ready or (queue and queue[0][0] <= engine._now):
                continue  # same-time cascade still in flight
            stats = detector.probe(engine._now, base_events + processed)
            if stats is None:
                continue
            n_windows = _plan_windows(job, stats, opts)
            if n_windows <= 0:
                continue
            record, fixup = splice_windows(engine, device, job, stats, n_windows)
            splices.append(record)
            fixups.append(fixup)
            detector.reset()
            if tracer.enabled:
                tracer.emit(
                    EventKind.FAST_FORWARD,
                    f"{device.name}.fastpath",
                    t_from=record.t_from,
                    t_to=record.t_to,
                    n_windows=record.n_windows,
                    records_added=record.records_added,
                    events_skipped=record.events_skipped,
                )
    finally:
        engine.events_processed += processed
    fixed = apply_fixups(job.records, fixups)
    assert fixed <= len(fixups) * job.spec.iodepth
    return FastpathSummary(
        engaged=bool(splices),
        mode="splice",
        reason="" if splices else "no stationary window detected",
        splices=tuple(splices),
        events_fast_forwarded=sum(s.events_skipped for s in splices),
        time_fast_forwarded_s=sum(s.t_to - s.t_from for s in splices),
    )
