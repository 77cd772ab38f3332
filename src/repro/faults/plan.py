"""Fault plans: declarative specifications of what goes wrong, and when.

The paper's §4.1 deployment discussion turns on failure modes of
power-adaptive control: devices reverting to maximum draw, spin-up stalls,
governors that stop responding.  A :class:`FaultPlan` declares a set of
such faults for one experiment; the :class:`~repro.faults.injector.
FaultInjector` executes them deterministically from the experiment's own
:class:`~repro.sim.rng.RngStreams`.

Every spec here is a frozen dataclass so a plan can ride inside a frozen
:class:`~repro.core.experiment.ExperimentConfig`: the plan participates in
the config content hash (a faulted run never collides with a clean run in
the result cache) and pickles across worker processes unchanged.

Taxonomy (one spec per mechanism):

- :class:`IoErrorSpec` -- transient per-IO errors; each hit costs the
  device-internal retries it declares.
- :class:`LatencySpikeSpec` -- a (possibly periodic) window during which
  every IO pays extra latency (firmware pause, background scrub, bus
  contention).
- :class:`ThermalThrottleSpec` -- a window during which the power
  governor's effective cap is scaled down (thermal derating).
- :class:`StuckTransitionSpec` -- power-state transitions (NVMe PS entry/
  exit, ALPM link transitions, ATA EPC idle conditions) that stick and
  must be re-attempted, or are refused outright (EPC entry).
- :class:`GovernorFailureSpec` -- the §4.1 hazard: at a chosen time the
  governor stops enforcing its cap and the device reverts to uncapped
  maximum draw, ignoring all later cap commands.
- :class:`SpinupFailureSpec` -- HDD spin-up attempts that abort mid-surge
  and retry (motor stiction / supply droop).
- :class:`SensorFaultSpec` -- control-plane sensing faults: the policy's
  power meter reads with bias, gain error, quantization, stale-sample
  lag, and dropout/freeze windows (a policy under a sensor spec always
  senses through the meter path).
- :class:`ActuatorFaultSpec` -- control-plane actuation faults: cap
  commands dropped, applied late, applied partially, or ignored outright
  after a stuck-at time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = [
    "ActuatorFaultSpec",
    "FaultPlan",
    "GovernorFailureSpec",
    "IoErrorSpec",
    "LatencySpikeSpec",
    "SensorFaultSpec",
    "SpinupFailureSpec",
    "StuckTransitionSpec",
    "ThermalThrottleSpec",
]

#: Transition sites :class:`StuckTransitionSpec` may target.
STUCK_TARGETS = ("nvme_ps", "alpm", "epc")


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p!r}")


@dataclass(frozen=True)
class IoErrorSpec:
    """Transient IO errors on the device IO paths (host IO and GC).

    Attributes:
        probability: Per-IO chance of a transient error.
        retry_cost_s: Simulated time one device-internal retry costs.
        max_retries: A hit costs between 1 and this many retries
            (uniformly drawn), each paying ``retry_cost_s``.
    """

    probability: float
    retry_cost_s: float = 1e-3
    max_retries: int = 3

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.retry_cost_s < 0:
            raise ValueError("retry cost must be non-negative")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


@dataclass(frozen=True)
class LatencySpikeSpec:
    """A window during which every IO pays extra latency.

    Attributes:
        start_s: Window start (sim time).
        duration_s: Window length.
        extra_s: Added latency per IO submitted inside the window.
        repeat_every_s: Period for a recurring episode (must exceed
            ``duration_s``); ``None`` for a one-shot window.
    """

    start_s: float
    duration_s: float
    extra_s: float
    repeat_every_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0 or self.extra_s <= 0:
            raise ValueError("spike needs start >= 0, duration > 0, extra > 0")
        if self.repeat_every_s is not None and self.repeat_every_s <= self.duration_s:
            raise ValueError("repeat period must exceed the episode duration")

    def active_at(self, now: float) -> bool:
        """Whether ``now`` falls inside the (possibly periodic) window."""
        if now < self.start_s:
            return False
        offset = now - self.start_s
        if self.repeat_every_s is not None:
            offset %= self.repeat_every_s
        return offset < self.duration_s


@dataclass(frozen=True)
class ThermalThrottleSpec:
    """A window during which the governor's effective cap is derated.

    Attributes:
        start_s: Episode start (sim time).
        duration_s: Episode length.
        cap_scale: Multiplier applied to the active cap while throttled
            (0.5 = the device must fit half its cap).
        repeat_every_s: Period for a recurring episode; ``None`` one-shot.
    """

    start_s: float
    duration_s: float
    cap_scale: float
    repeat_every_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("throttle needs start >= 0 and duration > 0")
        if not 0.0 < self.cap_scale < 1.0:
            raise ValueError("cap_scale must be in (0, 1)")
        if self.repeat_every_s is not None and self.repeat_every_s <= self.duration_s:
            raise ValueError("repeat period must exceed the episode duration")


@dataclass(frozen=True)
class StuckTransitionSpec:
    """Power-state transitions that stick (or, for EPC entry, refuse).

    A stuck transition re-pays its latency between 1 and ``max_stuck``
    extra times; an EPC *entry* hit is modelled as an outright refusal
    (the drive stays in its previous idle condition) because the command
    is instant.  Recovery paths (wake, EPC exit before a media access)
    are never refused, only delayed -- a device must always be able to
    serve IO eventually.

    Attributes:
        probability: Per-transition chance of sticking.
        max_stuck: Upper bound on extra attempts for a stuck transition.
        targets: Which transition sites the spec covers (subset of
            ``("nvme_ps", "alpm", "epc")``).
    """

    probability: float
    max_stuck: int = 2
    targets: tuple[str, ...] = STUCK_TARGETS

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.max_stuck < 1:
            raise ValueError("max_stuck must be >= 1")
        unknown = set(self.targets) - set(STUCK_TARGETS)
        if unknown:
            raise ValueError(
                f"unknown stuck-transition targets {sorted(unknown)}; "
                f"valid: {list(STUCK_TARGETS)}"
            )


@dataclass(frozen=True)
class GovernorFailureSpec:
    """§4.1 governor failure: the cap stops being enforced at ``at_s``.

    From that point the device reverts to uncapped maximum draw and
    ignores every later cap command (power-state changes still switch
    residency draws, but the governor no longer rations NAND power).
    """

    at_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("failure time must be non-negative")


@dataclass(frozen=True)
class SpinupFailureSpec:
    """HDD spin-up attempts that abort partway and retry.

    Each failed attempt draws the full spin-up surge for
    ``abort_fraction`` of the nominal spin-up time, then the motor rests
    ``backoff_s`` before retrying -- so a flaky spin-up costs both time
    and energy before the platters finally reach speed.

    Attributes:
        probability: Per-spin-up chance of at least one failed attempt.
        max_retries: A hit fails between 1 and this many attempts.
        abort_fraction: Fraction of the spin-up time a failed attempt
            draws surge power before giving up.
        backoff_s: Motor rest between attempts.
    """

    probability: float
    max_retries: int = 2
    abort_fraction: float = 0.4
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if not 0.0 < self.abort_fraction < 1.0:
            raise ValueError("abort_fraction must be in (0, 1)")
        if self.backoff_s < 0:
            raise ValueError("backoff must be non-negative")


def _check_window(
    label: str,
    start_s: Optional[float],
    duration_s: float,
    every_s: Optional[float],
) -> None:
    """Validate one (start, duration, period) fault window triple."""
    if duration_s < 0:
        raise ValueError(f"{label} duration must be non-negative")
    if start_s is None:
        if duration_s or every_s is not None:
            raise ValueError(
                f"{label} duration/period need a {label} start time"
            )
        return
    if start_s < 0:
        raise ValueError(f"{label} start must be non-negative")
    if duration_s <= 0:
        raise ValueError(f"{label} window needs a positive duration")
    if every_s is not None and every_s <= duration_s:
        raise ValueError(
            f"{label} repeat period must exceed the window duration"
        )


def _window_active(
    now: float,
    start_s: Optional[float],
    duration_s: float,
    every_s: Optional[float],
) -> bool:
    if start_s is None or now < start_s:
        return False
    offset = now - start_s
    if every_s is not None:
        offset %= every_s
    return offset < duration_s


@dataclass(frozen=True)
class SensorFaultSpec:
    """Control-plane sensing faults on the policy's power-meter path.

    A policy run whose plan carries this spec senses through the meter
    seam (:class:`repro.faults.control.SensedPower`), whatever its
    ``PolicySpec.sense``.  An all-default spec is the identity: readings
    pass through unchanged and no RNG stream is ever touched (the chaos
    row of ``benchmarks/zero_cost.py`` asserts it bit-identical).

    Attributes:
        bias_w: Additive offset on every reading (watts).
        gain: Multiplicative gain error (1.0 = calibrated).
        quant_w: Quantization step; readings snap to multiples of it
            (0 = continuous).
        lag_s: Stale-sample lag: readings reflect the rail this many
            seconds in the past.
        dropout_start_s: Start of a window during which the meter
            returns *no* new samples -- the last reading is held and its
            reported age grows (a watchdog can see the staleness).
        dropout_duration_s: Dropout window length.
        dropout_every_s: Period for recurring dropouts; ``None`` one-shot.
        freeze_start_s: Start of a window during which the meter
            *lies*: it latches the value read at window entry and keeps
            reporting it as fresh (age 0) -- detectable only by noticing
            consecutive identical samples.
        freeze_duration_s: Freeze window length.
        freeze_every_s: Period for recurring freezes; ``None`` one-shot.
    """

    bias_w: float = 0.0
    gain: float = 1.0
    quant_w: float = 0.0
    lag_s: float = 0.0
    dropout_start_s: Optional[float] = None
    dropout_duration_s: float = 0.0
    dropout_every_s: Optional[float] = None
    freeze_start_s: Optional[float] = None
    freeze_duration_s: float = 0.0
    freeze_every_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.gain > 0:
            raise ValueError(f"sensor gain must be positive, got {self.gain!r}")
        if self.quant_w < 0:
            raise ValueError("quantization step must be non-negative")
        if self.lag_s < 0:
            raise ValueError("sensor lag must be non-negative")
        _check_window(
            "dropout",
            self.dropout_start_s,
            self.dropout_duration_s,
            self.dropout_every_s,
        )
        _check_window(
            "freeze",
            self.freeze_start_s,
            self.freeze_duration_s,
            self.freeze_every_s,
        )

    @property
    def distorts(self) -> bool:
        """Whether any steady-state distortion is configured."""
        return (
            self.bias_w != 0.0
            or self.gain != 1.0
            or self.quant_w > 0.0
            or self.lag_s > 0.0
        )

    def dropout_at(self, now: float) -> bool:
        """Whether ``now`` falls inside a dropout window."""
        return _window_active(
            now, self.dropout_start_s, self.dropout_duration_s,
            self.dropout_every_s,
        )

    def freeze_at(self, now: float) -> bool:
        """Whether ``now`` falls inside a freeze window."""
        return _window_active(
            now, self.freeze_start_s, self.freeze_duration_s,
            self.freeze_every_s,
        )


@dataclass(frozen=True)
class ActuatorFaultSpec:
    """Control-plane actuation faults on the policy's command path.

    Only bites on commands issued by a :class:`~repro.policy.runtime.
    PolicyRuntime`; device-internal governor behaviour (including the
    §4.1 :class:`GovernorFailureSpec`) is a separate mechanism.  An
    all-default spec is the identity: every command applies immediately
    and in full, and no RNG stream is ever touched.

    Attributes:
        drop_p: Per-command chance the command is silently dropped
            (drawn from the keyed ``faults.<component>.actuator``
            stream, so faulted runs replay bit for bit).
        delay_s: Commands apply this many seconds late; a newer command
            issued before an older one lands supersedes it.
        partial: Fraction of the commanded *change* that actually
            applies (1.0 = full authority).  The first command applies
            in full -- partial authority is a slew problem, not an
            offset problem.
        stuck_at_s: From this sim time on, the actuator ignores every
            command and holds whatever was last applied.
    """

    drop_p: float = 0.0
    delay_s: float = 0.0
    partial: float = 1.0
    stuck_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        _check_probability(self.drop_p)
        if self.delay_s < 0:
            raise ValueError("actuator delay must be non-negative")
        if not 0.0 < self.partial <= 1.0:
            raise ValueError(
                f"partial authority must be in (0, 1], got {self.partial!r}"
            )
        if self.stuck_at_s is not None and self.stuck_at_s < 0:
            raise ValueError("stuck-at time must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one experiment.

    All fields default to "no such fault"; an all-default plan is inert
    (the injector built from it reports ``enabled = False`` and the run
    is bit-identical to one with no injector at all -- asserted by the
    faults row of ``benchmarks/zero_cost.py``).
    """

    io_errors: Optional[IoErrorSpec] = None
    latency_spikes: tuple[LatencySpikeSpec, ...] = ()
    thermal_throttle: Optional[ThermalThrottleSpec] = None
    stuck_transitions: Optional[StuckTransitionSpec] = None
    governor_failure: Optional[GovernorFailureSpec] = None
    spinup_failure: Optional[SpinupFailureSpec] = None
    sensor: Optional[SensorFaultSpec] = None
    actuator: Optional[ActuatorFaultSpec] = None

    @property
    def active(self) -> bool:
        """Whether any fault is configured at all."""
        return any(
            getattr(self, f.name) not in (None, ())
            for f in fields(self)
        )

    def spike_extra_s(self, now: float) -> float:
        """Total extra per-IO latency from spike windows active at ``now``."""
        return sum(
            spec.extra_s for spec in self.latency_spikes if spec.active_at(now)
        )
