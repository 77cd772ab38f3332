"""An online power-adaptive storage controller.

The paper's closing argument: "cloud operators ... can use similar power
models, as derived through our experiments, as a foundation for
power-adaptive storage systems, using SLOs and power budgets as inputs."
This module *builds* that system in miniature and runs it against live
simulated devices:

- :class:`BudgetSignal` -- the available-power schedule handed down by the
  facility (step changes model demand-response events, §1's medium-term
  variation).
- :class:`OnlinePowerController` -- a feedback loop that periodically
  measures fleet power off the devices' rails and walks each device up or
  down its NVMe power-state ladder (and optionally into standby) to keep
  the fleet under the instantaneous budget.
- :func:`run_demand_response` -- a complete scenario: an SSD fleet serving
  an open-loop write load while the budget dips and recovers; returns
  compliance and QoS metrics.

The controller intentionally uses only *host-visible* mechanisms the paper
studies: ``Set Features (Power Management)`` and standby.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro._units import GiB, KiB, MiB
from repro.devices.catalog import build_device
from repro.devices.ssd import SimulatedSSD
from repro.iogen.arrivals import ArrivalProcess, LoadProfile, OpenLoopJob, OpenLoopResult
from repro.iogen.spec import IoPattern
from repro.iogen.stats import IoRecords
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = [
    "BudgetSignal",
    "ControlAction",
    "ControllerConfig",
    "DemandResponseResult",
    "OnlinePowerController",
    "run_demand_response",
]


@dataclass(frozen=True)
class BudgetSignal:
    """Piecewise-constant available power for the fleet, in watts."""

    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a budget signal needs at least one segment")
        times = [t for t, __ in self.steps]
        if times[0] != 0.0 or times != sorted(times):
            raise ValueError("segments must start at 0 and ascend")
        if any(watts <= 0 for __, watts in self.steps):
            raise ValueError("budgets must be positive")

    @classmethod
    def constant(cls, watts: float) -> "BudgetSignal":
        return cls(((0.0, watts),))

    def watts_at(self, t: float) -> float:
        watts = self.steps[0][1]
        for start, segment_watts in self.steps:
            if t < start:
                break
            watts = segment_watts
        return watts


@dataclass(frozen=True)
class ControlAction:
    """One decision the controller took."""

    time: float
    device: str
    action: str  # "ps0".."psN" or "standby" / "wake"

    def __str__(self) -> str:
        return f"t={self.time * 1e3:7.1f}ms {self.device}: {self.action}"


@dataclass(frozen=True)
class ControllerConfig:
    """Control-loop tuning.

    Attributes:
        interval_s: Control period (paper §1: short-timescale adaptation
            must occur in milliseconds).
        window_s: Measurement window for fleet power.
        guard_band_w: Start shedding when measured power exceeds
            ``budget - guard_band`` (keeps the loop ahead of the breaker).
        relax_band_w: Step back up only when below
            ``budget - guard_band - relax_band`` (hysteresis against
            oscillation).
        allow_standby: Permit non-operational states once every device is
            at its deepest operational cap.
    """

    interval_s: float = 10e-3
    window_s: float = 10e-3
    guard_band_w: float = 1.0
    relax_band_w: float = 3.0
    allow_standby: bool = False

    def __post_init__(self) -> None:
        if self.interval_s <= 0 or self.window_s <= 0:
            raise ValueError("interval and window must be positive")
        if self.guard_band_w < 0 or self.relax_band_w <= 0:
            raise ValueError("bands must be positive")


class OnlinePowerController:
    """Feedback controller over a fleet of NVMe SSDs.

    The mechanism ladder follows the paper's section 4: deepen power caps
    first (cheap, milliseconds), then stand whole devices down (larger
    saving, but the device stops serving until woken).
    """

    def __init__(
        self,
        engine: Engine,
        devices: Sequence[SimulatedSSD],
        budget: BudgetSignal,
        config: ControllerConfig | None = None,
    ) -> None:
        if not devices:
            raise ValueError("the controller needs at least one device")
        for device in devices:
            if not device.config.power_states:
                raise ValueError(
                    f"{device.name} has no power states to control"
                )
        self.engine = engine
        self.devices = list(devices)
        self.budget = budget
        self.config = config or ControllerConfig()
        self.actions: list[ControlAction] = []
        self._levels = {d.name: 0 for d in self.devices}  # current op state
        self._standby: set[str] = set()
        self._process = None

    # -- measurement ------------------------------------------------------

    def fleet_power_w(self) -> float:
        """Fleet mean power over the trailing measurement window."""
        now = self.engine.now
        t0 = max(now - self.config.window_s, 0.0)
        if now <= t0:
            return sum(d.rail.total_watts for d in self.devices)
        return sum(d.rail.trace.mean(t0, now) for d in self.devices)

    # -- control loop ------------------------------------------------------

    def start(self):
        if self._process is not None:
            raise RuntimeError("controller already started")
        self._process = self.engine.process(self._loop())
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

    def _loop(self):
        from repro.sim.process import Interrupt

        try:
            while True:
                yield self.engine.timeout(self.config.interval_s)
                yield from self._step()
        except Interrupt:
            return

    def _operational_states(self, device: SimulatedSSD):
        return [ps for ps in device.config.power_states if ps.operational]

    def _step(self):
        measured = self.fleet_power_w()
        budget = self.budget.watts_at(self.engine.now)
        threshold = budget - self.config.guard_band_w
        if measured > threshold:
            yield from self._shed()
        elif measured < threshold - self.config.relax_band_w:
            yield from self._relax()

    def _shed(self):
        """Apply the next rung of the mechanism ladder to one device."""
        # Deepen the cap on the device currently drawing the most power
        # that still has a deeper operational state.
        candidates = [
            d
            for d in self.devices
            if d.name not in self._standby
            and self._levels[d.name] + 1 < len(self._operational_states(d))
        ]
        if candidates:
            target = max(candidates, key=lambda d: d.rail.total_watts)
            level = self._levels[target.name] + 1
            state = self._operational_states(target)[level]
            self._levels[target.name] = level
            self.actions.append(
                ControlAction(self.engine.now, target.name, f"ps{state.index}")
            )
            yield from target.set_power_state(state.index)
            return
        if self.config.allow_standby:
            active = [d for d in self.devices if d.name not in self._standby]
            if len(active) > 1:  # never stand the whole fleet down
                target = min(active, key=lambda d: d.rail.total_watts)
                self._standby.add(target.name)
                self.actions.append(
                    ControlAction(self.engine.now, target.name, "standby")
                )
                yield from target.enter_standby()

    def _relax(self):
        """Undo the most aggressive mechanism first."""
        if self._standby:
            name = next(iter(self._standby))
            target = next(d for d in self.devices if d.name == name)
            self._standby.discard(name)
            self.actions.append(ControlAction(self.engine.now, name, "wake"))
            yield from target.exit_standby()
            return
        candidates = [d for d in self.devices if self._levels[d.name] > 0]
        if candidates:
            target = max(candidates, key=lambda d: self._levels[d.name])
            level = self._levels[target.name] - 1
            state = self._operational_states(target)[level]
            self._levels[target.name] = level
            self.actions.append(
                ControlAction(self.engine.now, target.name, f"ps{state.index}")
            )
            yield from target.set_power_state(state.index)


# -- the demand-response scenario ---------------------------------------------


@dataclass(frozen=True)
class DemandResponseResult:
    """Outcome of :func:`run_demand_response`.

    Attributes:
        budget: The budget signal applied.
        fleet_power: Per-segment fleet mean power (settled part of each
            budget segment).
        compliance: Per-segment ``mean power <= budget`` flags.
        workload: Open-loop workload outcome (latency includes the
            throttling the controller caused).
        actions: Everything the controller did.
    """

    budget: BudgetSignal
    fleet_power: tuple[float, ...]
    compliance: tuple[bool, ...]
    workload: OpenLoopResult
    actions: tuple[ControlAction, ...]
    duration_s: float

    @property
    def fully_compliant(self) -> bool:
        return all(self.compliance)

    def describe(self) -> str:
        lines = []
        for (start, watts), power, ok in zip(
            self.budget.steps, self.fleet_power, self.compliance
        ):
            lines.append(
                f"  from {start * 1e3:6.1f} ms: budget {watts:6.1f} W, "
                f"measured {power:6.1f} W  "
                f"[{'compliant' if ok else 'OVER BUDGET'}]"
            )
        lines.append(f"  controller actions: {len(self.actions)}")
        return "\n".join(lines)


def run_demand_response(
    n_devices: int = 4,
    preset: str = "ssd2",
    budget: Optional[BudgetSignal] = None,
    offered_load_bps: float = 4 * GiB,
    request_bytes: int = 256 * KiB,
    duration_s: float = 0.9,
    seed: int = 0,
    allow_standby: bool = False,
    settle_fraction: float = 0.4,
) -> DemandResponseResult:
    """Run the full closed-loop demand-response scenario.

    A fleet of ``n_devices`` serves an open-loop random-write load while
    the power budget follows ``budget`` (default: ample -> tight -> ample).
    Returns per-segment compliance and the workload's QoS outcome.
    """
    engine = Engine()
    rngs = RngStreams(seed)
    devices = [
        build_device(engine, preset, rng=rngs.fork(i)) for i in range(n_devices)
    ]
    for index, device in enumerate(devices):
        # Unique names so controller bookkeeping can address each.
        device.name = f"{preset}-{index}"

    if budget is None:
        # Sized against SSD2-class devices: ample, then a ~30 % cut.
        peak = 15.0 * n_devices
        budget = BudgetSignal(
            (
                (0.0, peak),
                (duration_s / 3, 0.70 * peak),
                (2 * duration_s / 3, peak),
            )
        )

    controller = OnlinePowerController(
        engine,
        devices,
        budget,
        ControllerConfig(allow_standby=allow_standby),
    )
    controller.start()

    # Offered load spread across the fleet (static sharding by request).
    per_device = offered_load_bps / n_devices
    jobs = []
    for index, device in enumerate(devices):
        arrivals = ArrivalProcess(
            LoadProfile.constant(per_device),
            request_bytes=request_bytes,
            poisson=True,
            rng=rngs.fork(100 + index).get("arrivals"),
        )
        job = OpenLoopJob(
            engine,
            device,
            arrivals,
            pattern=IoPattern.RANDWRITE,
            duration_s=duration_s,
            max_outstanding=128,
            rng=rngs.fork(200 + index).get("offsets"),
        )
        job.start()
        jobs.append(job)

    engine.run(until=duration_s)
    controller.stop()
    engine.run(until=duration_s + 0.05)  # drain in-flight work

    # Per-segment compliance over the settled part of each segment.
    segment_power = []
    compliance = []
    edges = [start for start, __ in budget.steps] + [duration_s]
    for i, (start, watts) in enumerate(budget.steps):
        end = min(edges[i + 1], duration_s)
        if end <= start:
            segment_power.append(0.0)
            compliance.append(True)
            continue
        t0 = start + settle_fraction * (end - start)
        power = sum(d.rail.trace.mean(t0, end) for d in devices)
        segment_power.append(power)
        compliance.append(power <= watts + 0.5)

    workload = OpenLoopResult(
        records=IoRecords.concat(job.records.view() for job in jobs),
        offered=sum(j.offered for j in jobs),
        submitted=sum(j.submitted for j in jobs),
        shed=sum(j.shed for j in jobs),
    )
    return DemandResponseResult(
        budget=budget,
        fleet_power=tuple(segment_power),
        compliance=tuple(compliance),
        workload=workload,
        actions=tuple(controller.actions),
        duration_s=duration_s,
    )
