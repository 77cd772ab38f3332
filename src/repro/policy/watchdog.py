"""Safe-mode watchdog: the last line of defence for a lied-to controller.

A controller whose meter or actuator has failed can command anything --
the watchdog is the small, dumb supervisor that notices three symptom
classes and latches safe mode:

- **stale**: the sensor reading's age exceeds ``stale_after_s`` (meter
  dropout -- no new samples are arriving);
- **frozen**: ``freeze_ticks`` consecutive bit-identical readings (a
  meter that latched a value but still claims freshness);
- **breach / no_response**: measured power exceeds the budget
  (``breach``) or the commanded target (``no_response``) by more than
  ``breach_w`` for ``breach_ticks`` consecutive decisions -- either the
  controller lost tracking or its commands stopped landing.

Safe mode means the runtime stops consulting the controller and pins the
tightest sustainable static cap (``safe_cap_w``, never above the
schedule's minimum budget) every tick -- re-commanded unconditionally so
a lossy actuator eventually applies it.  After ``rearm_ticks``
consecutive healthy ticks the watchdog re-arms: the runtime resets the
controller and resumes normal control.

The watchdog is pure bookkeeping over values the runtime already has --
no RNG, no engine access, no tracer -- so it cannot perturb a run's
event ordering; it only changes which cap gets commanded.  It is
imported lazily by the runtime only when ``PolicySpec.watchdog`` is set
(the chaos row of ``benchmarks/zero_cost.py`` proves the watchdog-off
path never imports it).
"""

from __future__ import annotations

from typing import Optional

from repro.policy.spec import WatchdogSpec

__all__ = ["Watchdog"]


class Watchdog:
    """Detector state machine for one :class:`PolicyRuntime`.

    Args:
        spec: Detector tuning.
        safe_cap_w: The cap to pin while degraded (the runtime computes
            the tightest sustainable value: schedule minimum clamped to
            the actuator range).
    """

    def __init__(self, spec: WatchdogSpec, safe_cap_w: float) -> None:
        self.spec = spec
        self.safe_cap_w = safe_cap_w
        self.degraded = False
        self.trips = 0
        self.degraded_ticks = 0
        self.total_ticks = 0
        self.last_reason: Optional[str] = None
        #: ``[t_enter, t_exit_or_None, reason]`` per safe-mode episode.
        self.episodes: list[list] = []
        self._freeze_count = 0
        self._last_measured: Optional[float] = None
        self._breach_count = 0
        self._healthy_count = 0

    def step(
        self,
        now: float,
        *,
        age_s: float,
        measured_w: float,
        budget_w: float,
        target_w: Optional[float],
    ) -> Optional[str]:
        """Advance one decision tick; returns ``"degrade"``, ``"rearm"``
        or ``None`` (no transition)."""
        spec = self.spec
        self.total_ticks += 1

        stale = age_s > spec.stale_after_s
        if (
            self._last_measured is not None
            and measured_w == self._last_measured
        ):
            self._freeze_count += 1
        else:
            self._freeze_count = 0
        self._last_measured = measured_w
        # freeze_ticks identical *pairs* means freeze_ticks+1 readings;
        # counting pairs keeps the threshold meaning "this many
        # consecutive ticks confirmed the value never moved".
        frozen = self._freeze_count >= spec.freeze_ticks

        breach_reason = None
        if measured_w > budget_w + spec.breach_w:
            breach_reason = "breach"
        elif target_w is not None and measured_w > target_w + spec.breach_w:
            breach_reason = "no_response"
        if breach_reason is not None:
            self._breach_count += 1
        else:
            self._breach_count = 0
        breached = self._breach_count >= spec.breach_ticks

        result: Optional[str] = None
        if self.degraded:
            healthy = (
                not stale
                and not frozen
                and measured_w
                <= max(budget_w, self.safe_cap_w) + spec.breach_w
            )
            if healthy:
                self._healthy_count += 1
            else:
                self._healthy_count = 0
            if self._healthy_count >= spec.rearm_ticks:
                self.degraded = False
                self._healthy_count = 0
                self._freeze_count = 0
                self._breach_count = 0
                self.episodes[-1][1] = now
                result = "rearm"
        elif stale or frozen or breached:
            if stale:
                reason = "stale"
            elif frozen:
                reason = "frozen"
            else:
                reason = breach_reason
            self.degraded = True
            self.trips += 1
            self.last_reason = reason
            self.episodes.append([now, None, reason])
            self._healthy_count = 0
            result = "degrade"
        if self.degraded:
            self.degraded_ticks += 1
        return result

    @property
    def degraded_fraction(self) -> float:
        """Fraction of decision ticks spent in safe mode."""
        if self.total_ticks == 0:
            return 0.0
        return self.degraded_ticks / self.total_ticks
