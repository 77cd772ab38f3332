"""Structured simulation event tracing.

The paper is a measurement study: its contribution is *visibility* into
when and why a device's power changes.  The simulators reproduce those
mechanisms -- NVMe power-state transitions, governor throttling, garbage
collection, spindle spin-up, ALPM slumber -- but until now only the final
calibrated power trace escaped the simulation.  This module records the
causal mechanism events themselves as typed, timestamped records, so every
watt in a trace can be explained by the event that produced it.

Design constraints, in order:

1. **Passivity.**  Tracing must never perturb a simulation: emitting an
   event touches no RNG stream, schedules nothing on the engine, and
   changes no model state.  Enabling a tracer therefore cannot change any
   :class:`~repro.core.experiment.ExperimentResult` value (a property the
   test suite asserts bit-for-bit).
2. **Zero cost when off.**  Every :class:`~repro.sim.engine.Engine` carries
   a tracer; the default is the :data:`NULL_TRACER` singleton whose
   ``enabled`` flag is ``False``.  Instrumentation sites guard on that flag,
   so a disabled tracer costs two attribute loads per site.
3. **Deterministic ordering.**  Events are totally ordered by
   ``(sim_time, seq)`` where ``seq`` is a per-tracer monotone counter;
   the order is identical across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = [
    "EventKind",
    "NULL_TRACER",
    "NullTracer",
    "SimEvent",
    "Tracer",
]


class EventKind(enum.Enum):
    """The event taxonomy: one member per power-relevant mechanism edge.

    Paired ``*_START``/``*_END`` kinds bracket an interval (exported as
    Chrome ``B``/``E`` duration events); the rest are instants.
    """

    #: Device entered a new power state (NVMe PS, wake, APST drop, HDD EPC).
    POWER_STATE = "power_state"
    #: The governor admitted an op's power request (``queued=True`` if it
    #: had to stall for budget first).
    GOV_REQUEST = "gov_request"
    #: The governor queued the op (no budget): a throttle stall.
    GOV_THROTTLE = "gov_throttle"
    #: The op returned its grant.
    GOV_RELEASE = "gov_release"
    #: Garbage collection of one victim block began / finished.
    GC_START = "gc_start"
    GC_END = "gc_end"
    #: Spindle left standby / reached speed.
    SPINUP_START = "spinup_start"
    SPINUP_END = "spinup_end"
    #: Spindle began / finished coasting down.
    SPINDOWN_START = "spindown_start"
    SPINDOWN_END = "spindown_end"
    #: ALPM link transition (slumber/partial entry and exit) began/ended.
    ALPM_START = "alpm_start"
    ALPM_END = "alpm_end"
    #: A write was absorbed by a write-back cache / had to bypass or stall.
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"
    #: Host IO accepted by a device / completed back to the host.
    IO_SUBMIT = "io_submit"
    IO_COMPLETE = "io_complete"
    #: An injected fault fired (field ``fault`` names the fault kind).
    FAULT = "fault"
    #: One retry attempt forced by an injected fault (``attempt`` counts).
    FAULT_RETRY = "fault_retry"
    #: A degraded-mode episode (latency spike, thermal throttle, governor
    #: failure) began / ended.  A governor failure never ends: its start
    #: marks the rest of the run as degraded.
    FAULT_START = "fault_start"
    FAULT_END = "fault_end"
    #: A physics invariant failed validation (emitted by
    #: :mod:`repro.validate`, never by the simulators themselves; fields
    #: carry the invariant name, subject, and measured/expected values).
    VIOLATION = "violation"
    #: A power policy changed its commanded target (emitted by
    #: :mod:`repro.policy`; fields carry ``target_w``, ``budget_w`` and
    #: the sensed ``measured_w`` at the decision tick).
    SET_POINT = "set_point"
    #: An analytic fast-forward spliced out a stationary stretch of the
    #: run (emitted by :mod:`repro.sim.fastpath`; fields carry the jump
    #: bounds and the replicated-window accounting).  Per-IO events for
    #: the skipped stretch are intentionally absent from the trace.
    FAST_FORWARD = "fast_forward"
    #: The policy watchdog latched safe mode / re-armed the controller.
    #: Instants, not an interval pair: a run may end mid-incident, and
    #: ``PolicySummary.watchdog_episodes`` carries the span accounting.
    WATCHDOG_DEGRADE = "watchdog_degrade"
    WATCHDOG_REARM = "watchdog_rearm"
    #: Free-form annotation (scope boundaries, experiment markers).
    MARK = "mark"


#: Kinds that open an interval, mapped to the kind that closes it.
INTERVAL_PAIRS = {
    EventKind.GC_START: EventKind.GC_END,
    EventKind.SPINUP_START: EventKind.SPINUP_END,
    EventKind.SPINDOWN_START: EventKind.SPINDOWN_END,
    EventKind.ALPM_START: EventKind.ALPM_END,
    EventKind.FAULT_START: EventKind.FAULT_END,
}


@dataclass(slots=True)
class SimEvent:
    """One traced occurrence.  Treat as immutable once emitted.

    Not ``frozen=True``: frozen dataclasses construct via
    ``object.__setattr__``, which triples creation cost, and event
    construction is the hot path of an enabled tracer (the obs row of
    ``benchmarks/zero_cost.py`` times a traced sweep beside an untraced
    one).

    Attributes:
        time: Simulated time of the occurrence, in seconds.
        seq: Tracer-wide monotone sequence number; ``(time, seq)`` is the
            total order of a trace.
        kind: The mechanism edge (see :class:`EventKind`).
        component: Dotted source label, device-scoped by convention
            (``"ssd2.governor"``, ``"hdd.spindle"``); one Perfetto track
            per distinct component.
        scope: Enclosing experiment label (one sweep point), or ``None``
            for a bare simulation.
        fields: Kind-specific payload (watts, block ids, state indices...).
    """

    time: float
    seq: int
    kind: EventKind
    component: str
    scope: Optional[str] = None
    fields: dict = field(default_factory=dict)

    def describe(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time:.6f}s #{self.seq}] {self.component} {self.kind.value} {extras}".rstrip()


class NullTracer:
    """The zero-cost default: swallows everything, records nothing.

    Instrumentation sites check :attr:`enabled` before building an event's
    field dict, so a simulation with the null tracer does no tracing work
    beyond the flag test.
    """

    __slots__ = ()

    enabled = False

    def attach(self, engine) -> None:
        """Accept an engine binding (no-op)."""

    def detach(self, engine) -> None:
        """Accept an engine unbinding (no-op)."""

    def emit(self, kind: EventKind, component: str, /, **fields) -> None:
        """Discard the event."""

    def subscribe(self, callback) -> None:
        """Discard the subscriber: no events will ever be delivered."""

    @property
    def events(self) -> tuple:
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: Shared instance used by every engine not given an explicit tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer with subscriber fan-out.

    One tracer can span several engines (a sweep re-binds it to each
    point's fresh engine via :meth:`attach`); within one engine the event
    stream is ordered by ``(time, seq)``, and across engines by ``seq``
    alone (each experiment restarts simulated time at zero -- scopes keep
    the segments apart).

    Args:
        keep_events: Retain events in :attr:`events` (default).  Disable
            when only subscribers (e.g. a metrics collector) need the
            stream and the trace itself would just cost memory.
    """

    enabled = True

    def __init__(self, keep_events: bool = True) -> None:
        self._events: list[SimEvent] = []
        self._subscribers: list[Callable[[SimEvent], None]] = []
        self._seq = 0
        self._keep_events = keep_events
        self._engine = None
        self.scope: Optional[str] = None

    # -- wiring -----------------------------------------------------------

    def attach(self, engine) -> None:
        """Bind to ``engine``'s clock (called by ``Engine.__init__``)."""
        self._engine = engine

    def detach(self, engine) -> None:
        """Drop the binding to ``engine`` if it is the bound one (called
        by ``Engine.close``): a closed engine's clock no longer moves, and
        the tracer would keep it alive.  Later events read time 0 until
        the next :meth:`attach`."""
        if self._engine is engine:
            self._engine = None

    def subscribe(self, callback: Callable[[SimEvent], None]) -> None:
        """Deliver every future event to ``callback``, in emit order."""
        self._subscribers.append(callback)

    def set_scope(self, scope: Optional[str]) -> None:
        """Label subsequent events as belonging to ``scope``.

        Scopes partition a multi-experiment trace (one per sweep point);
        the Chrome exporter renders each scope as its own process group.
        """
        self.scope = scope
        self.emit(EventKind.MARK, "tracer", scope=scope)

    # -- emission ---------------------------------------------------------

    def emit(self, kind: EventKind, component: str, /, **fields) -> None:
        """Record one event at the bound engine's current simulated time.

        The two positional parameters are positional-only so payload
        fields may freely use the names ``kind`` and ``component`` (IO
        events carry a ``kind="read"``/``"write"`` field, for instance).

        Strictly passive: appends to the tracer's buffer and fans out to
        subscribers; never touches the engine queue or any RNG.
        """
        engine = self._engine
        seq = self._seq + 1
        self._seq = seq
        event = SimEvent(
            engine.now if engine is not None else 0.0,
            seq,
            kind,
            component,
            self.scope,
            fields,
        )
        if self._keep_events:
            self._events.append(event)
        subscribers = self._subscribers
        if subscribers:
            for subscriber in subscribers:
                subscriber(event)

    # -- access -----------------------------------------------------------

    @property
    def events(self) -> tuple[SimEvent, ...]:
        """All recorded events, in emit order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def of_kind(self, *kinds: EventKind) -> list[SimEvent]:
        """Recorded events restricted to ``kinds``, in emit order."""
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def components(self) -> list[str]:
        """Distinct component labels, in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self._events:
            seen.setdefault(event.component, None)
        return list(seen)

    def clear(self) -> None:
        """Drop recorded events (sequence numbering continues)."""
        self._events.clear()
