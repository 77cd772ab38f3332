"""The policy loop: sense the rail, ask the controller, move the device.

:class:`PolicyRuntime` is instantiated by
:func:`repro.core.experiment.run_experiment` only when the config
carries a :class:`~repro.policy.spec.PolicySpec` -- the import itself is
lazy, so runs without a policy never touch this package (the policy
row of ``benchmarks/zero_cost.py`` proves it).

Determinism contract:

- The decision cadence is the only randomness: each tick waits
  ``interval_s`` jittered +/-10% from the keyed ``policy.interval``
  stream, so decisions cannot phase-lock with the device's program-
  intensity wave yet replay exactly from the seed.  The stream is only
  ever created here -- an inert run draws nothing and stays
  bit-identical to a build without this package.
- Sensing reads the rail trace (ground truth) directly, so controller
  behaviour does not depend on meter part tolerance, unless
  ``PolicySpec.sense`` is ``"meter"`` or the fault plan carries a
  sensor spec.  Then it goes through
  :class:`repro.faults.control.SensedPower`, the meter path that spec
  can bias, freeze, or kill; a clean meter computes the same trailing
  mean, so the meter path without sensor faults changes no numbers.
- Actuation is skipped when the commanded target is unchanged.  This is
  not an optimisation: a redundant ``governor.set_cap`` still drains
  the admission queue against *live* power and would perturb grant
  timing, so "no decision change" must mean "no device interaction".
  (The watchdog's safe mode is the one exception: a degraded tick
  re-commands the safe cap unconditionally so a lossy actuator cannot
  starve it, which is acceptable precisely because safe mode already
  forfeits bit-comparability with the clean run.)
- When the fault plan carries an actuator spec, commands route through
  :class:`repro.faults.control.PolicyActuator`; otherwise the runtime
  calls the device directly -- the seam costs clean runs nothing.

Actuator mapping per device class:

- SSD with an NVMe power-state table: the policy cap rides *alongside*
  the state cap via :meth:`~repro.devices.ssd.SimulatedSSD.set_policy_cap`
  (the governor enforces the min of both); ladder rungs are the
  operational states' max powers.
- SSD without a table (consumer SATA): same entry point, with the
  physical range taken from the validation envelope and synthetic
  evenly-spaced rungs.
- HDD: EPC idle conditions via
  :meth:`~repro.devices.hdd_drive.SimulatedHdd.set_idle_condition` --
  the only sub-idle mechanism the paper found, and one any media access
  instantly undoes.  Under load the harvest is therefore ~0, which *is*
  the paper's finding, reproduced rather than papered over.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.injector import NULL_INJECTOR
from repro.obs.events import EventKind
from repro.policy.api import PolicyObservation, PolicySummary
from repro.policy.controllers import build_policy
from repro.policy.spec import PolicySpec
from repro.sim.engine import unbind_handlers

__all__ = ["PolicyRuntime"]


def _ssd_range(config) -> tuple[float, float, tuple[float, ...]]:
    """Floor/ceiling/rungs for an SSD actuator."""
    operational = tuple(
        sorted(
            {
                state.max_power_w
                for state in config.power_states
                if state.operational
            }
        )
    )
    if operational:
        return operational[0], operational[-1], operational
    # No power-state table (consumer SATA): fall back to the physics
    # envelope and quantize it into a synthetic five-rung ladder.
    from repro.validate.envelope import power_envelope

    envelope = power_envelope(config)
    floor_w, ceiling_w = envelope.floor_w, envelope.peak_w
    rungs = tuple(
        floor_w + i * (ceiling_w - floor_w) / 4.0 for i in range(5)
    )
    return floor_w, ceiling_w, rungs


def _hdd_range(config) -> tuple[float, float, tuple[float, ...]]:
    """Floor/ceiling/rungs for an HDD's EPC actuator."""
    idle = config.idle_power_w
    floor_w = idle - config.idle_c_savings_w
    ceiling_w = idle + config.seek_power_w + config.transfer_power_w
    rungs = (floor_w, idle - config.idle_b_savings_w, ceiling_w)
    return floor_w, ceiling_w, rungs


class PolicyRuntime:
    """Runs one controller against one device for the life of a run."""

    #: The actuator bound into the instance at construction (the SSD's or
    #: the HDD's, whichever the device exposes).
    _handlers = ("_actuate",)

    def __init__(self, engine, device, spec: PolicySpec, rngs) -> None:
        self.engine = engine
        self.device = device
        self.spec = spec
        if hasattr(device, "set_policy_cap"):
            self.floor_w, self.ceiling_w, self.rungs = _ssd_range(
                device.config
            )
            self._actuate = self._actuate_ssd
        elif hasattr(device, "set_idle_condition"):
            self.floor_w, self.ceiling_w, self.rungs = _hdd_range(
                device.config
            )
            self._actuate = self._actuate_hdd
        else:
            raise TypeError(
                f"device {device!r} exposes neither set_policy_cap nor "
                "set_idle_condition; no policy actuator available"
            )
        self._component = f"{device.name}.policy"
        self.controller = build_policy(
            spec, self.floor_w, self.ceiling_w, self.rungs
        )
        self.controller.reset()
        self._rng = rngs.get("policy.interval")
        # Control-plane seams.  All three are optional and imported
        # lazily: the legacy rail-sensing, direct-actuation,
        # watchdog-off configuration builds none of them and never
        # imports repro.faults.control or repro.policy.watchdog.
        injector = getattr(device, "faults", NULL_INJECTOR)
        plan = getattr(injector, "plan", None)
        sensor_spec = plan.sensor if plan is not None else None
        actuator_spec = plan.actuator if plan is not None else None
        self._sensed = None
        if spec.sense == "meter" or sensor_spec is not None:
            from repro.faults.control import SensedPower

            self._sensed = SensedPower(
                device, spec.window_s, sensor_spec, injector
            )
        self._actuator = None
        if actuator_spec is not None:
            from repro.faults.control import PolicyActuator

            self._actuator = PolicyActuator(
                engine,
                self._actuate,
                self._component,
                actuator_spec,
                injector,
            )
        #: The tightest sustainable static cap: the schedule's minimum
        #: budget clamped to the actuator's physical range.  Safe mode
        #: pins this, and it never exceeds max(budget, floor) at any t.
        self.safe_cap_w = max(
            self.floor_w, min(spec.budget.min_w, self.ceiling_w)
        )
        self._watchdog = None
        if spec.watchdog is not None:
            from repro.policy.watchdog import Watchdog

            self._watchdog = Watchdog(spec.watchdog, self.safe_cap_w)
        self._target_w: Optional[float] = None
        self._decisions = 0
        self._set_point_changes = 0
        self._max_overshoot_w = 0.0
        self._samples: list[tuple[float, float, float, float]] = []
        self._stride = 1
        self._ticks = 0
        self.process = engine.process(self._loop())

    def close(self) -> None:
        """Break the cycles through the bound actuator once the run is
        over and its engine closed; :meth:`summary` stays readable."""
        unbind_handlers(self)
        self._actuator = None

    # -- actuators -------------------------------------------------------

    def _actuate_ssd(self, target_w: float) -> None:
        self.device.set_policy_cap(target_w)

    def _actuate_hdd(self, target_w: float) -> None:
        from repro.devices.hdd_drive import IdleCondition

        config = self.device.config
        # The epsilon absorbs float noise at the rung boundaries: a rung
        # target of exactly ``idle - idle_b_savings`` must map to IDLE_B,
        # not spuriously deepen to IDLE_C.
        need = config.idle_power_w - target_w
        if need > config.idle_b_savings_w + 1e-9:
            condition = IdleCondition.IDLE_C
        elif need > 1e-12:
            condition = IdleCondition.IDLE_B
        else:
            condition = IdleCondition.IDLE_A
        self.device.set_idle_condition(condition)

    # -- the loop --------------------------------------------------------

    def _loop(self):
        engine = self.engine
        interval_s = self.spec.interval_s
        uniform = self._rng.uniform
        while True:
            yield engine.timeout(interval_s * float(uniform(0.9, 1.1)))
            self._tick(engine.now)

    def _tick(self, now: float) -> None:
        spec = self.spec
        if self._sensed is not None:
            reading = self._sensed.read(now)
            measured_w = reading.value_w
            age_s = reading.age_s
        else:
            measured_w = self.device.rail.trace.mean(
                max(0.0, now - spec.window_s), now
            )
            age_s = 0.0
        budget_w = spec.budget.watts_at(now)
        watchdog = self._watchdog
        if watchdog is not None:
            transition = watchdog.step(
                now,
                age_s=age_s,
                measured_w=measured_w,
                budget_w=budget_w,
                target_w=self._target_w,
            )
            tracer = self.engine.tracer
            if transition == "degrade":
                if tracer.enabled:
                    tracer.emit(
                        EventKind.WATCHDOG_DEGRADE,
                        self._component,
                        reason=watchdog.last_reason,
                        safe_cap_w=self.safe_cap_w,
                        measured_w=measured_w,
                        budget_w=budget_w,
                    )
            elif transition == "rearm":
                # Fresh start for the controller: its integrators and
                # rung index accumulated through an incident it could
                # not observe honestly.
                self.controller.reset()
                if tracer.enabled:
                    tracer.emit(
                        EventKind.WATCHDOG_REARM,
                        self._component,
                        measured_w=measured_w,
                        budget_w=budget_w,
                    )
            if watchdog.degraded:
                self._decisions += 1
                # Re-command every degraded tick (force=True): a lossy
                # or delayed actuator must not be allowed to starve the
                # safe cap indefinitely.
                self._command(
                    self.safe_cap_w, budget_w, measured_w, force=True
                )
                overshoot = measured_w - budget_w
                if overshoot > self._max_overshoot_w:
                    self._max_overshoot_w = overshoot
                self._record(now, budget_w, self.safe_cap_w, measured_w)
                return
        obs = PolicyObservation(
            now=now,
            measured_w=measured_w,
            budget_w=budget_w,
            target_w=self._target_w,
        )
        target_w = self.controller.decide(obs)
        self._decisions += 1
        self._command(target_w, budget_w, measured_w)
        overshoot = measured_w - budget_w
        if overshoot > self._max_overshoot_w:
            self._max_overshoot_w = overshoot
        self._record(now, budget_w, target_w, measured_w)

    def _command(
        self,
        target_w: float,
        budget_w: float,
        measured_w: float,
        force: bool = False,
    ) -> None:
        """Route one commanded target through the (possibly faulted)
        actuator, keeping the unchanged-target fast path."""
        changed = target_w != self._target_w
        if not changed and not force:
            return
        if self._actuator is not None:
            self._actuator.command(target_w)
        elif changed:
            self._actuate(target_w)
        if not changed:
            return
        self._target_w = target_w
        self._set_point_changes += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.SET_POINT,
                self._component,
                target_w=target_w,
                budget_w=budget_w,
                measured_w=measured_w,
            )

    def _record(
        self, now: float, budget_w: float, target_w: float, measured_w: float
    ) -> None:
        # Stride-doubling decimation: retention stays within sample_limit
        # without ever re-weighting -- retained samples are always an
        # evenly spaced subsequence of the decision ticks.
        if self._ticks % self._stride == 0:
            self._samples.append((now, budget_w, target_w, measured_w))
            if len(self._samples) > self.spec.sample_limit:
                del self._samples[1::2]
                self._stride *= 2
        self._ticks += 1

    # -- results ---------------------------------------------------------

    def summary(self) -> PolicySummary:
        wd = self._watchdog
        return PolicySummary(
            spec=self.spec,
            floor_w=self.floor_w,
            ceiling_w=self.ceiling_w,
            decisions=self._decisions,
            set_point_changes=self._set_point_changes,
            sample_stride=self._stride,
            samples=tuple(self._samples),
            max_overshoot_w=self._max_overshoot_w,
            degraded_fraction=wd.degraded_fraction if wd else 0.0,
            watchdog_trips=wd.trips if wd else 0,
            watchdog_episodes=(
                tuple(tuple(e) for e in wd.episodes) if wd else ()
            ),
            safe_cap_w=self.safe_cap_w if wd else None,
        )
