"""The control-plane seam: faulted sensing and actuation for policies.

:class:`~repro.policy.runtime.PolicyRuntime` historically sensed the
rail trace (ground truth) and actuated straight into the device.  A real
controller does neither: it reads a meter that can be biased, laggy,
quantized, frozen, or dead, and commands firmware that can drop, delay
or water down its commands.  This module is that seam:

- :class:`SensedPower` wraps the trailing rail-power mean behind a
  meter-shaped interface and applies the plan's
  :class:`~repro.faults.plan.SensorFaultSpec`, reporting each reading's
  *age* so a watchdog can detect staleness honestly.
- :class:`PolicyActuator` wraps the runtime's device-specific actuation
  callback and applies the plan's
  :class:`~repro.faults.plan.ActuatorFaultSpec`.

Both are identity transformations when their spec is ``None`` or
all-default: same values, same engine interactions, no RNG draws --
asserted bit-identical by the chaos row of ``benchmarks/zero_cost.py``.  The
only randomness (command drops) comes from the injector's keyed
``faults.<component>.actuator`` stream, drawn *only* when a positive
drop probability is configured, so clean and inert runs never perturb
stream state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.plan import ActuatorFaultSpec, SensorFaultSpec

__all__ = ["PolicyActuator", "SensedPower", "SensorReading"]


@dataclass(frozen=True)
class SensorReading:
    """One meter reading: a value and how stale it is.

    Attributes:
        value_w: The reported trailing-mean power, after any configured
            distortion.
        age_s: Seconds since the meter last produced a *new* sample.
            0 for a live meter; grows through a dropout window.  A
            frozen meter lies and reports 0 -- that is the point of the
            freeze fault.
    """

    value_w: float
    age_s: float


class SensedPower:
    """The (possibly faulted) meter path a policy senses through.

    Args:
        device: The device whose rail is measured.
        window_s: Trailing averaging window (the policy spec's).
        spec: The plan's :class:`SensorFaultSpec`, or ``None`` for a
            clean meter (identity with the legacy rail-trace path).
        injector: The device's fault injector, for accounting only --
            sensing itself draws nothing from any RNG stream.
    """

    def __init__(
        self,
        device,
        window_s: float,
        spec: Optional[SensorFaultSpec],
        injector,
    ) -> None:
        self._device = device
        self._window_s = window_s
        self._spec = spec
        self._injector = injector
        self._component = f"{device.name}.sensor"
        self._last_value_w = 0.0
        self._last_update_s = 0.0
        self._frozen_value_w: Optional[float] = None
        self._distortion_noted = False

    def _raw(self, now: float) -> float:
        """Trailing rail mean ending at ``now`` (ground truth)."""
        if now <= 0.0:
            # A large lag can push the read point before t=0, where the
            # rail has no samples: report a dead meter, not an error.
            return 0.0
        return self._device.rail.trace.mean(
            max(0.0, now - self._window_s), now
        )

    def _distort(self, raw: float) -> float:
        spec = self._spec
        value = spec.gain * raw + spec.bias_w
        if spec.quant_w > 0.0:
            value = round(value / spec.quant_w) * spec.quant_w
        return value

    def read(self, now: float) -> SensorReading:
        """Take one reading at sim time ``now``."""
        spec = self._spec
        if spec is None:
            # Clean meter: exactly the legacy rail-trace computation.
            value = self._raw(now)
            self._last_value_w = value
            self._last_update_s = now
            return SensorReading(value, 0.0)
        injector = self._injector
        if spec.dropout_at(now):
            # No new sample: hold the last value, let the age grow so a
            # watchdog can see the meter has gone quiet.
            if injector.enabled:
                injector.sense_fault("sensor_dropout", self._component)
            return SensorReading(
                self._last_value_w, now - self._last_update_s
            )
        if spec.freeze_at(now):
            # The lying meter: latch the value at window entry and keep
            # reporting it as fresh.
            if self._frozen_value_w is None:
                self._frozen_value_w = self._distort(
                    self._raw(now - spec.lag_s)
                )
                if injector.enabled:
                    injector.sense_fault("sensor_freeze", self._component)
            self._last_value_w = self._frozen_value_w
            self._last_update_s = now
            return SensorReading(self._frozen_value_w, 0.0)
        self._frozen_value_w = None
        value = self._distort(self._raw(now - spec.lag_s))
        if spec.distorts and not self._distortion_noted:
            self._distortion_noted = True
            if injector.enabled:
                injector.sense_fault("sensor_distortion", self._component)
        self._last_value_w = value
        self._last_update_s = now
        return SensorReading(value, 0.0)


class PolicyActuator:
    """The (possibly faulted) command path a policy actuates through.

    Args:
        engine: The simulation engine (for time and delayed applies).
        apply_fn: The runtime's device-specific actuation callback.
        component: Trace/accounting component name.
        spec: The plan's :class:`ActuatorFaultSpec`, or ``None`` for a
            perfect actuator (identity with a direct callback).
        injector: The device's fault injector; supplies the keyed
            ``faults.*`` stream for command drops and the accounting.
    """

    def __init__(
        self,
        engine,
        apply_fn: Callable[[float], None],
        component: str,
        spec: Optional[ActuatorFaultSpec],
        injector,
    ) -> None:
        self._engine = engine
        self._apply_fn = apply_fn
        self._component = component
        self._spec = spec
        self._injector = injector
        self.applied_w: Optional[float] = None
        self._seq = 0

    def command(self, target_w: float) -> None:
        """Issue one cap command; the spec decides what actually lands."""
        spec = self._spec
        if spec is None:
            self._apply(target_w)
            return
        injector = self._injector
        if (
            spec.stuck_at_s is not None
            and self._engine.now >= spec.stuck_at_s
        ):
            if injector.enabled:
                injector.sense_fault(
                    "actuator_stuck", self._component, target_w=target_w
                )
            return
        if spec.drop_p > 0.0 and injector.actuator_dropped(
            self._component, target_w
        ):
            return
        value = target_w
        if spec.partial < 1.0 and self.applied_w is not None:
            # Partial authority slews toward the target: each command
            # moves the applied cap a fraction of the requested change.
            value = self.applied_w + spec.partial * (
                target_w - self.applied_w
            )
            if injector.enabled:
                injector.sense_fault(
                    "actuator_partial",
                    self._component,
                    target_w=target_w,
                    applied_w=value,
                )
        if spec.delay_s > 0.0:
            self._seq += 1
            self._engine.process(self._delayed_apply(self._seq, value))
            if injector.enabled:
                injector.sense_fault(
                    "actuator_delay",
                    self._component,
                    target_w=target_w,
                    delay_s=spec.delay_s,
                )
            return
        self._apply(value)

    def _delayed_apply(self, seq: int, value: float):
        yield self._engine.timeout(self._spec.delay_s)
        # Latest-command-wins: a newer command issued while this one was
        # in flight supersedes it, like firmware coalescing a mailbox.
        if seq == self._seq:
            self._apply(value)

    def _apply(self, value: float) -> None:
        self.applied_w = value
        self._apply_fn(value)
