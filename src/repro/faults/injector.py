"""Deterministic fault injection.

The injector is the runtime half of :mod:`repro.faults.plan`: devices call
into it at their fault sites (IO entry, power-state transitions, spin-up)
and it decides -- from dedicated ``faults.*`` RNG streams -- whether and how
hard each site fails.  Episode faults (latency-spike windows, thermal
throttling, the §4.1 governor failure) run as engine processes scheduled by
:meth:`FaultInjector.install`.

Design constraints, mirroring the tracer's (:mod:`repro.obs.events`):

1. **Determinism.**  Every random decision comes from a named
   :class:`~repro.sim.rng.RngStreams` stream under the ``faults.`` prefix,
   so the same seed and plan reproduce the same fault sequence bit for bit
   across processes and ``PYTHONHASHSEED`` values -- and a run *without*
   faults never touches those streams, so adding the subsystem changed no
   existing result.
2. **Zero cost when off.**  Devices hold the :data:`NULL_INJECTOR`
   singleton unless an experiment configures faults; every fault site
   guards on the injector's ``enabled`` flag (one attribute load).
3. **Tracer passivity.**  Fault *behaviour* (extra latency, refused
   transitions, cap loss) depends only on the plan and the RNG; the
   events describing it are emitted through the tracer under ``enabled``
   guards, so tracing a faulted run does not change its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.faults.plan import FaultPlan
from repro.obs.events import EventKind

__all__ = [
    "FaultInjector",
    "FaultSummary",
    "NULL_INJECTOR",
    "NullFaultInjector",
]


@dataclass(frozen=True)
class FaultSummary:
    """What the injector did during one experiment.

    Attached to :class:`~repro.core.experiment.ExperimentResult` so fault
    accounting travels with the result (and feeds
    :func:`repro.core.safety.measured_device_group`).

    Attributes:
        injected: Sorted ``(fault kind, occurrences)`` pairs.
        retries: Total retry attempts forced across all faults.
        extra_latency_s: Total simulated time added to IO paths.
        governor_failed: Whether the §4.1 governor failure fired.
        intended_cap_w: The cap the governor *should* have enforced when
            it failed (``None`` if it never failed or was uncapped).
    """

    injected: tuple[tuple[str, int], ...] = ()
    retries: int = 0
    extra_latency_s: float = 0.0
    governor_failed: bool = False
    intended_cap_w: Optional[float] = None

    @property
    def total(self) -> int:
        return sum(count for _fault, count in self.injected)

    def count(self, fault: str) -> int:
        return dict(self.injected).get(fault, 0)

    def describe(self) -> str:
        if not self.injected:
            return "no faults injected"
        parts = [f"{fault} x{count}" for fault, count in self.injected]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.governor_failed:
            cap = (
                "uncapped"
                if self.intended_cap_w is None
                else f"cap {self.intended_cap_w:g} W lost"
            )
            parts.append(f"governor FAILED ({cap})")
        return ", ".join(parts)


class NullFaultInjector:
    """The zero-cost default carried by every device.

    Fault sites check :attr:`enabled` before calling anything else, so a
    clean run pays one attribute load per site and draws nothing from any
    RNG stream.
    """

    __slots__ = ()

    enabled = False

    def install(self, device) -> None:
        """Accept a device binding (no-op)."""

    def summary(self) -> Optional[FaultSummary]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullFaultInjector>"


#: Shared instance used by every device not given an explicit injector.
NULL_INJECTOR = NullFaultInjector()


class FaultInjector:
    """Executes a :class:`~repro.faults.plan.FaultPlan` against one engine.

    Args:
        engine: The simulation engine (for time, timeouts and the tracer).
        plan: What to inject.  An all-default plan yields a disabled
            injector (``enabled = False``), indistinguishable at the fault
            sites from :data:`NULL_INJECTOR`.
        rngs: The experiment's root :class:`~repro.sim.rng.RngStreams`;
            the injector draws only from streams under the ``faults.``
            prefix, leaving every pre-existing stream untouched.
    """

    def __init__(self, engine, plan: FaultPlan, rngs) -> None:
        self.engine = engine
        self.plan = plan
        self._rngs = rngs
        self.enabled = plan.active
        self.counts: dict[str, int] = {}
        self.retries = 0
        self.extra_latency_s = 0.0
        self.governor_failed = False
        self.intended_cap_w: Optional[float] = None

    # -- bookkeeping ------------------------------------------------------

    def _stream(self, site: str):
        return self._rngs.get(f"faults.{site}")

    def _record(self, fault: str, component: str, **fields) -> None:
        self.counts[fault] = self.counts.get(fault, 0) + 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(EventKind.FAULT, component, fault=fault, **fields)

    def note_retry(self, fault: str, component: str, attempt: int) -> None:
        """Count (and trace) one retry attempt a fault forced."""
        self.retries += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.FAULT_RETRY, component, fault=fault, attempt=attempt
            )

    def summary(self) -> FaultSummary:
        return FaultSummary(
            injected=tuple(sorted(self.counts.items())),
            retries=self.retries,
            extra_latency_s=self.extra_latency_s,
            governor_failed=self.governor_failed,
            intended_cap_w=self.intended_cap_w,
        )

    # -- per-site decisions (called from device fault sites) ---------------

    def io_delay(self, component: str, io_kind: str) -> Iterator:
        """Process generator: pre-IO fault cost at one IO entry point.

        Adds active latency-spike time, then (independently) a transient
        IO error whose device-internal retries each cost the configured
        retry time.
        """
        plan = self.plan
        extra = plan.spike_extra_s(self.engine.now)
        if extra > 0:
            self._record("latency_spike", component, extra_s=extra, kind=io_kind)
            self.extra_latency_s += extra
            yield self.engine.timeout(extra)
        spec = plan.io_errors
        if spec is not None:
            stream = self._stream(f"{component}.io_error")
            if float(stream.random()) < spec.probability:
                attempts = 1 + int(stream.integers(0, spec.max_retries))
                self._record(
                    "io_error", component, kind=io_kind, attempts=attempts
                )
                self.extra_latency_s += attempts * spec.retry_cost_s
                for attempt in range(1, attempts + 1):
                    self.note_retry("io_error", component, attempt)
                    if spec.retry_cost_s > 0:
                        yield self.engine.timeout(spec.retry_cost_s)

    def transition_stuck(self, component: str, target: str) -> int:
        """Extra attempts a power-state transition must re-pay (0 = clean)."""
        spec = self.plan.stuck_transitions
        if spec is None or target not in spec.targets:
            return 0
        stream = self._stream(f"{component}.stuck.{target}")
        if float(stream.random()) >= spec.probability:
            return 0
        extra = 1 + int(stream.integers(0, spec.max_stuck))
        self._record("stuck_transition", component, target=target, attempts=extra)
        return extra

    def stuck_retries(self, component: str, target: str, latency_s: float) -> Iterator:
        """Process generator: the retries of a stuck transition, each
        re-paying ``latency_s`` before the transition finally takes."""
        for attempt in range(1, self.transition_stuck(component, target) + 1):
            self.note_retry("stuck_transition", component, attempt)
            yield self.engine.timeout(latency_s)

    def epc_refused(self, component: str) -> bool:
        """Whether an (instant) EPC idle-condition entry is refused."""
        spec = self.plan.stuck_transitions
        if spec is None or "epc" not in spec.targets:
            return False
        stream = self._stream(f"{component}.stuck.epc")
        refused = float(stream.random()) < spec.probability
        if refused:
            self._record(
                "stuck_transition", component, target="epc", refused=True
            )
        return refused

    def spinup_failures(self, component: str) -> int:
        """Failed spin-up attempts before this spin-up succeeds (0 = clean)."""
        spec = self.plan.spinup_failure
        if spec is None:
            return 0
        stream = self._stream(f"{component}.spinup")
        if float(stream.random()) >= spec.probability:
            return 0
        attempts = 1 + int(stream.integers(0, spec.max_retries))
        self._record("spinup_failure", component, attempts=attempts)
        return attempts

    # -- control-plane sites (called from repro.faults.control) ------------

    def sense_fault(self, fault: str, component: str, **fields) -> None:
        """Account (and trace) one control-plane fault occurrence.

        Public wrapper over :meth:`_record` for the sensor/actuator seam
        (:mod:`repro.faults.control`), which lives outside this module
        but must feed the same :class:`FaultSummary` accounting.
        """
        self._record(fault, component, **fields)

    def actuator_dropped(self, component: str, target_w: float) -> bool:
        """Whether this cap command is silently dropped.

        Draws from the keyed ``faults.<component>.actuator`` stream only
        when a positive drop probability is configured, so plans without
        command drops leave the stream untouched.
        """
        spec = self.plan.actuator
        if spec is None or spec.drop_p <= 0.0:
            return False
        stream = self._stream(f"{component}.actuator")
        dropped = float(stream.random()) < spec.drop_p
        if dropped:
            self._record("actuator_dropped", component, target_w=target_w)
        return dropped

    # -- episode processes -------------------------------------------------

    def install(self, device) -> None:
        """Schedule the plan's episode processes against ``device``.

        Call once, right after device construction.  Episode scheduling
        depends only on the plan (never on the tracer), so enabling a
        tracer cannot perturb engine event ordering of a faulted run.
        Governor episodes (thermal throttle, governor failure) need a
        power governor and are skipped for devices without one (HDDs).
        """
        if not self.enabled:
            return
        engine = self.engine
        governor = getattr(device, "governor", None)
        if governor is not None:
            if self.plan.governor_failure is not None:
                engine.process(self._governor_failure_proc(governor))
            if self.plan.thermal_throttle is not None:
                engine.process(self._thermal_throttle_proc(governor))
        for spec in self.plan.latency_spikes:
            engine.process(self._spike_marker_proc(device.name, spec))

    def _governor_failure_proc(self, governor):
        spec = self.plan.governor_failure
        yield self.engine.timeout(spec.at_s)
        self.governor_failed = True
        self.intended_cap_w = governor.intended_cap_w
        self._record(
            "governor_failure",
            governor.name,
            intended_cap_w=self.intended_cap_w,
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            # Deliberately never closed: the device stays degraded.
            tracer.emit(
                EventKind.FAULT_START,
                governor.name,
                fault="governor_failure",
                intended_cap_w=self.intended_cap_w,
            )
        governor.fail_unconstrained()

    def _thermal_throttle_proc(self, governor):
        spec = self.plan.thermal_throttle
        tracer = self.engine.tracer
        yield self.engine.timeout(spec.start_s)
        while True:
            self._record(
                "thermal_throttle", governor.name, cap_scale=spec.cap_scale
            )
            if tracer.enabled:
                tracer.emit(
                    EventKind.FAULT_START,
                    governor.name,
                    fault="thermal_throttle",
                    cap_scale=spec.cap_scale,
                )
            governor.set_throttle(spec.cap_scale)
            yield self.engine.timeout(spec.duration_s)
            governor.set_throttle(1.0)
            if tracer.enabled:
                tracer.emit(
                    EventKind.FAULT_END, governor.name, fault="thermal_throttle"
                )
            if spec.repeat_every_s is None:
                return
            yield self.engine.timeout(spec.repeat_every_s - spec.duration_s)

    def _spike_marker_proc(self, device_name: str, spec):
        """Bracket each latency-spike window with FAULT_START/END events.

        The spike *cost* is applied per IO by :meth:`io_delay` (pure
        window arithmetic); this process only makes the window visible to
        traces and the degraded-residency metric.  It is scheduled
        whenever the spec exists -- guarding only the emits -- so traced
        and untraced faulted runs stay bit-identical.
        """
        component = f"{device_name}.faults"
        tracer = self.engine.tracer
        yield self.engine.timeout(spec.start_s)
        while True:
            if tracer.enabled:
                tracer.emit(
                    EventKind.FAULT_START,
                    component,
                    fault="latency_spike",
                    extra_s=spec.extra_s,
                )
            yield self.engine.timeout(spec.duration_s)
            if tracer.enabled:
                tracer.emit(
                    EventKind.FAULT_END, component, fault="latency_spike"
                )
            if spec.repeat_every_s is None:
                return
            yield self.engine.timeout(spec.repeat_every_s - spec.duration_s)
