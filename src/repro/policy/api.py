"""The sense/decide/actuate contract between controllers and devices.

The split of responsibilities:

- The **runtime** (:mod:`repro.policy.runtime`) owns the device: it
  senses (the trailing rail-power mean), packages a
  :class:`PolicyObservation`, and actuates whatever target the
  controller returns through the device's own mechanisms (NVMe
  power-state ceiling / governor cap for SSDs, EPC idle conditions for
  HDDs).
- A **controller** (anything satisfying :class:`PolicyAPI`) is a pure
  decision function with internal state but *no* device access and *no*
  RNG: given the same observation sequence it must emit the same target
  sequence.  All randomness in the policy loop lives in the runtime's
  keyed ``policy.*`` streams.

That purity is what makes the determinism story small enough to test:
the subprocess determinism suite only has to pin the runtime's sensing
cadence, because controllers cannot introduce nondeterminism of their
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.policy.spec import PolicySpec

__all__ = ["PolicyAPI", "PolicyObservation", "PolicySummary"]


@dataclass(frozen=True)
class PolicyObservation:
    """One sensing snapshot handed to a controller.

    Attributes:
        now: Simulated time of the decision tick, in seconds.
        measured_w: Trailing mean rail power over the spec's window.
        budget_w: The schedule's instantaneous budget at ``now``.
        target_w: The currently commanded target, or ``None`` before the
            first actuation.
    """

    now: float
    measured_w: float
    budget_w: float
    target_w: Optional[float]


class PolicyAPI(Protocol):
    """What the runtime requires of a controller."""

    def reset(self) -> None:
        """Clear internal state before a run."""

    def decide(self, obs: PolicyObservation) -> float:
        """Return the power target (watts) to command for ``obs``."""


@dataclass(frozen=True)
class PolicySummary:
    """Post-run record of what a policy saw and did.

    Rides on :class:`~repro.core.experiment.ExperimentResult` (as
    ``result.policy``) so the validate subsystem can replay the budget
    against the decision trail, and studies can score tracking quality.

    Attributes:
        spec: The :class:`PolicySpec` that ran.
        floor_w: Lowest target the device's actuator can realize.
        ceiling_w: Highest target the device's actuator can realize.
        decisions: Total decision ticks taken.
        set_point_changes: Decisions that changed the commanded target
            (and therefore actually touched the device).
        sample_stride: Decimation stride of ``samples``: every retained
            sample is ``stride`` decision ticks after the previous one.
        samples: Retained ``(t, budget_w, target_w, measured_w)``
            tuples, oldest first.
        max_overshoot_w: Largest observed excess of the measured mean
            over the instantaneous budget (0 if never exceeded).
        degraded_fraction: Fraction of decision ticks spent in watchdog
            safe mode (0.0 when no watchdog was armed).
        watchdog_trips: Safe-mode entries during the run.
        watchdog_episodes: ``(t_enter, t_exit_or_None, reason)`` per
            safe-mode episode; ``t_exit`` is ``None`` if the run ended
            still degraded.
        safe_cap_w: The static cap safe mode pins, or ``None`` when no
            watchdog was armed.
    """

    spec: PolicySpec
    floor_w: float
    ceiling_w: float
    decisions: int
    set_point_changes: int
    sample_stride: int
    samples: tuple[tuple[float, float, float, float], ...]
    max_overshoot_w: float
    degraded_fraction: float = 0.0
    watchdog_trips: int = 0
    watchdog_episodes: tuple = ()
    safe_cap_w: Optional[float] = None

    def mean_abs_error_w(self) -> float:
        """Mean |measured - budget| over the retained samples."""
        if not self.samples:
            return 0.0
        total = sum(abs(m - b) for (_t, b, _tg, m) in self.samples)
        return total / len(self.samples)

    def describe(self) -> str:
        return (
            f"{self.spec.describe()}: {self.decisions} decisions, "
            f"{self.set_point_changes} set-point changes, "
            f"tracking error {self.mean_abs_error_w():.3f}W"
        )
