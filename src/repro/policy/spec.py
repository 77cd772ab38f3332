"""Declarative descriptions of power-adaptive control policies.

A policy run is fully described by two frozen dataclasses:

- :class:`BudgetSchedule` -- the *time-varying power budget* the
  controller must track, as a pure function of simulated time.  The
  paper's motivating scenarios (SI 5) are diurnal datacenter envelopes
  and step-shaped demand-response events, so those are the built-in
  shapes alongside a constant budget.
- :class:`PolicySpec` -- which controller to run against that schedule
  and its tuning (sense cadence, measurement window, feedback gains,
  ladder hysteresis, optional latency SLO).

Both are hashable value types: they ride on
:class:`~repro.core.experiment.ExperimentConfig`, participate in sweep
cache keys via ``config_content_hash``, and must therefore contain only
plain floats/ints/strings.  Everything time-dependent is a *pure*
function of ``t`` -- no RNG, no state -- so that two runs with the same
seed see bit-identical budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["POLICY_KINDS", "BudgetSchedule", "PolicySpec", "WatchdogSpec"]

#: Controller kinds understood by :func:`repro.policy.build_policy`.
#: ``unsafe`` (the deliberately-broken chaos fixture) is additionally
#: accepted by :class:`PolicySpec` but kept out of this tuple so it never
#: appears in ``--policy`` CLI choices or study grids by default.
POLICY_KINDS = ("static", "feedback", "ladder")

_EXTRA_KINDS = ("unsafe",)

_SENSE_PATHS = ("rail", "meter")

_SCHEDULE_SHAPES = ("constant", "step", "diurnal")


@dataclass(frozen=True)
class BudgetSchedule:
    """A power budget as a pure function of simulated time.

    Attributes:
        shape: One of ``constant``, ``step``, ``diurnal``.
        high_w: Budget ceiling in watts (the generous phase).
        low_w: Budget floor in watts (the constrained phase).
        period_s: Repetition period of the shape in simulated seconds.
        duty: For ``step``: fraction of each period spent at ``high_w``.
    """

    shape: str
    high_w: float
    low_w: float
    period_s: float = 1.0
    duty: float = 0.5

    def __post_init__(self) -> None:
        if self.shape not in _SCHEDULE_SHAPES:
            raise ValueError(
                f"unknown budget shape {self.shape!r}; "
                f"expected one of {_SCHEDULE_SHAPES}"
            )
        if not self.low_w > 0:
            raise ValueError(f"low_w must be positive, got {self.low_w!r}")
        if self.high_w < self.low_w:
            raise ValueError(
                f"high_w ({self.high_w!r}) must be >= low_w ({self.low_w!r})"
            )
        if not self.period_s > 0:
            raise ValueError(
                f"period_s must be positive, got {self.period_s!r}"
            )
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty!r}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, watts: float) -> "BudgetSchedule":
        """A fixed budget: ``watts`` forever."""
        return cls(shape="constant", high_w=watts, low_w=watts)

    @classmethod
    def step(
        cls,
        high_w: float,
        low_w: float,
        period_s: float,
        duty: float = 0.5,
    ) -> "BudgetSchedule":
        """A square wave: ``high_w`` for ``duty`` of each period, then
        ``low_w`` (a demand-response event per period)."""
        return cls(
            shape="step",
            high_w=high_w,
            low_w=low_w,
            period_s=period_s,
            duty=duty,
        )

    @classmethod
    def diurnal(
        cls, high_w: float, low_w: float, period_s: float
    ) -> "BudgetSchedule":
        """A smooth day/night sinusoid starting at ``high_w``."""
        return cls(
            shape="diurnal", high_w=high_w, low_w=low_w, period_s=period_s
        )

    # -- evaluation ------------------------------------------------------

    @property
    def min_w(self) -> float:
        """The tightest budget the schedule ever imposes."""
        return self.low_w

    def watts_at(self, t: float) -> float:
        """The instantaneous budget at simulated time ``t`` (seconds)."""
        if self.shape == "constant":
            return self.high_w
        phase = math.fmod(t, self.period_s) / self.period_s
        if self.shape == "step":
            return self.high_w if phase < self.duty else self.low_w
        # diurnal: cosine from high_w at phase 0 down to low_w at 0.5.
        mid = 0.5 * (self.high_w + self.low_w)
        amp = 0.5 * (self.high_w - self.low_w)
        return mid + amp * math.cos(2.0 * math.pi * phase)


@dataclass(frozen=True)
class WatchdogSpec:
    """Tuning for the policy watchdog's fault detectors.

    All three detectors feed one safe-mode latch: on any trip the
    runtime abandons the controller and pins the tightest sustainable
    static cap until the detectors stay quiet for ``rearm_ticks``
    consecutive decisions.

    Attributes:
        stale_after_s: A sensor reading older than this trips the
            staleness detector (meter dropout).
        freeze_ticks: Consecutive bit-identical readings that trip the
            frozen-sensor detector.
        breach_w: Tracking-error guard band in watts: measured power
            must exceed budget (or the commanded target, for the
            non-response detector) by more than this to count as a
            breach tick.
        breach_ticks: Consecutive breach ticks that trip the
            tracking-error / actuation-non-response detector.
        rearm_ticks: Consecutive healthy ticks required before safe
            mode re-arms the controller.
    """

    stale_after_s: float = 0.01
    freeze_ticks: int = 8
    breach_w: float = 1.0
    breach_ticks: int = 6
    rearm_ticks: int = 10

    def __post_init__(self) -> None:
        if not self.stale_after_s > 0:
            raise ValueError(
                f"stale_after_s must be positive, got {self.stale_after_s!r}"
            )
        if self.freeze_ticks < 2:
            raise ValueError(
                f"freeze_ticks must be >= 2, got {self.freeze_ticks!r}"
            )
        if not self.breach_w > 0:
            raise ValueError(
                f"breach_w must be positive, got {self.breach_w!r}"
            )
        if self.breach_ticks < 1:
            raise ValueError(
                f"breach_ticks must be >= 1, got {self.breach_ticks!r}"
            )
        if self.rearm_ticks < 1:
            raise ValueError(
                f"rearm_ticks must be >= 1, got {self.rearm_ticks!r}"
            )


@dataclass(frozen=True)
class PolicySpec:
    """Which controller to run, and how it senses and reacts.

    Attributes:
        kind: Controller family -- one of :data:`POLICY_KINDS`.
        budget: The :class:`BudgetSchedule` to track.
        interval_s: Nominal decision cadence.  The runtime jitters each
            tick by +/-10% from the keyed ``policy.interval`` stream so
            decisions do not phase-lock with device waves.
        window_s: Trailing rail-power averaging window for the sensed
            mean.  Must span at least one decision interval.
        gain: Proportional gain of the feedback controller (watts of
            set-point motion per watt of budget error).
        integral_gain: Integral gain of the feedback controller.
        hysteresis_w: Ladder guard band: a rung is climbed only once the
            budget clears it by this margin.
        slo_p99_s: Optional p99 latency SLO checked post-hoc by the
            ``slo_adherence`` invariant.
        settle_intervals: Decision ticks the validator grants the
            controller to converge after a budget step before holding
            the measured mean to the budget.
        sample_limit: Cap on retained ``(t, budget, target, measured)``
            samples; older samples are decimated by stride doubling.
        sense: Which sensing path the runtime uses.  ``"rail"`` (the
            default) reads the rail trace directly, unless the fault
            plan carries a sensor spec.  ``"meter"``, and any run with
            a sensor spec, senses through
            :class:`repro.faults.control.SensedPower`, the seam the
            sensor spec distorts.  Without sensor faults both paths
            read the same trailing mean.
        watchdog: Optional :class:`WatchdogSpec` arming the safe-mode
            watchdog.  ``None`` (the default) never imports the
            watchdog module.
    """

    kind: str
    budget: BudgetSchedule
    interval_s: float = 2e-3
    window_s: float = 4e-3
    gain: float = 0.6
    integral_gain: float = 0.2
    hysteresis_w: float = 0.25
    slo_p99_s: Optional[float] = None
    settle_intervals: int = 6
    sample_limit: int = 512
    sense: str = "rail"
    watchdog: Optional[WatchdogSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS + _EXTRA_KINDS:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; "
                f"expected one of {POLICY_KINDS + _EXTRA_KINDS}"
            )
        if self.sense not in _SENSE_PATHS:
            raise ValueError(
                f"unknown sense path {self.sense!r}; "
                f"expected one of {_SENSE_PATHS}"
            )
        if self.watchdog is not None and not isinstance(
            self.watchdog, WatchdogSpec
        ):
            raise TypeError(
                f"watchdog must be a WatchdogSpec, got {self.watchdog!r}"
            )
        if not isinstance(self.budget, BudgetSchedule):
            raise TypeError(
                f"budget must be a BudgetSchedule, got {self.budget!r}"
            )
        if not self.interval_s > 0:
            raise ValueError(
                f"interval_s must be positive, got {self.interval_s!r}"
            )
        if self.window_s < self.interval_s:
            raise ValueError(
                f"window_s ({self.window_s!r}) must be >= interval_s "
                f"({self.interval_s!r}): a shorter window would let "
                "decisions alias unobserved intervals"
            )
        if self.gain < 0 or self.integral_gain < 0:
            raise ValueError("feedback gains must be non-negative")
        if self.hysteresis_w < 0:
            raise ValueError(
                f"hysteresis_w must be >= 0, got {self.hysteresis_w!r}"
            )
        if self.slo_p99_s is not None and not self.slo_p99_s > 0:
            raise ValueError(
                f"slo_p99_s must be positive, got {self.slo_p99_s!r}"
            )
        if self.settle_intervals < 0:
            raise ValueError(
                f"settle_intervals must be >= 0, got {self.settle_intervals!r}"
            )
        if self.sample_limit < 16:
            raise ValueError(
                f"sample_limit must be >= 16, got {self.sample_limit!r}"
            )

    def describe(self) -> str:
        """Short human-readable tag (used by ``ExperimentConfig.describe``)."""
        budget = self.budget
        return (
            f"{self.kind}[{budget.shape} "
            f"{budget.low_w:.2f}-{budget.high_w:.2f}W]"
        )
