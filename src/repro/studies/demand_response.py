"""Demand response: a fleet of live devices tracks a budget dip.

The paper closes by proposing power-adaptive storage systems "using SLOs
and power budgets as inputs".  This scenario runs one in miniature on
:mod:`repro.policy`: ``n_devices`` ssd2 drives serve an evenly sharded
open-loop random-write load while the fleet budget dips and recovers.
Each drive's :class:`~repro.policy.runtime.PolicyRuntime` runs the
``feedback`` controller against an equal 1/n share of the fleet budget,
the split :class:`~repro.fleet.governor.ClusterGovernor` water-filling
gives n identical, equally loaded devices.  The result scores each
budget segment for compliance and carries the QoS cost: requests queued
behind the throttle or shed by the clients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro._units import GiB, KiB
from repro.devices.catalog import build_device
from repro.iogen.arrivals import ArrivalProcess, OpenLoopJob, OpenLoopResult
from repro.iogen.spec import IoPattern
from repro.iogen.stats import IoRecords
from repro.policy import BudgetSchedule, PolicySpec, PolicySummary
from repro.policy.runtime import PolicyRuntime
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = ["DemandResponseResult", "budget_segments", "run_demand_response"]

PRESET = "ssd2"
REQUEST_BYTES = 256 * KiB
#: Leading share of each budget segment its compliance mean skips, so the
#: controllers' convergence after a step is not scored.
SETTLE_FRACTION = 0.4
#: Decision cadence and sensing window of each device's controller.
CONTROL_INTERVAL_S = 10e-3


def budget_segments(
    budget: BudgetSchedule, duration_s: float
) -> tuple[tuple[float, float, float], ...]:
    """``(start, end, watts)`` for each stretch of constant budget.

    Edges are the instants in ``[0, duration_s)`` where
    ``budget.watts_at`` changes.  A diurnal budget never holds still, so
    it raises :class:`ValueError`.
    """
    if budget.shape == "diurnal":
        raise ValueError("a diurnal budget has no constant segments to score")
    # Every instant a step could change; neighbours with equal budgets
    # merge (a constant schedule, or rounding at the end of the run).
    period = budget.period_s
    edges = [0.0]
    k = 0
    while k * period < duration_s:
        edges += [(k + budget.duty) * period, (k + 1) * period]
        k += 1
    bounds = [t for t in edges if t < duration_s] + [duration_s]
    segments: list[tuple[float, float, float]] = []
    for start, end in zip(bounds, bounds[1:]):
        watts = budget.watts_at(0.5 * (start + end))
        if segments and segments[-1][2] == watts:
            start = segments.pop()[0]
        segments.append((start, end, watts))
    return tuple(segments)


@dataclass(frozen=True)
class DemandResponseResult:
    """Outcome of :func:`run_demand_response`.

    Attributes:
        budget: The fleet budget applied.
        fleet_power: Fleet mean power over the settled part of each of
            the :func:`budget_segments`.
        compliance: Per-segment ``mean power <= budget + 0.5 W`` flags.
        workload: Open-loop workload outcome (latency includes the
            throttling the controllers caused).
        policies: Each device's policy summary, in device order; its
            samples hold the set points its controller commanded.
        duration_s: Length of the offered load, in simulated seconds.
    """

    budget: BudgetSchedule
    fleet_power: tuple[float, ...]
    compliance: tuple[bool, ...]
    workload: OpenLoopResult
    policies: tuple[PolicySummary, ...]
    duration_s: float

    @property
    def fully_compliant(self) -> bool:
        return all(self.compliance)

    def describe(self) -> str:
        segments = budget_segments(self.budget, self.duration_s)
        lines = [
            f"  from {start * 1e3:6.1f} ms: budget {watts:6.1f} W, "
            f"measured {power:6.1f} W  [{'compliant' if ok else 'OVER BUDGET'}]"
            for (start, _end, watts), power, ok in zip(
                segments, self.fleet_power, self.compliance
            )
        ]
        changes = sum(policy.set_point_changes for policy in self.policies)
        lines.append(f"  set-point changes: {changes} on {len(self.policies)} devices")
        return "\n".join(lines)


def run_demand_response(
    n_devices: int = 4,
    budget: Optional[BudgetSchedule] = None,
    offered_load_bps: float = 4 * GiB,
    duration_s: float = 0.9,
    seed: int = 0,
) -> DemandResponseResult:
    """Run the closed-loop demand-response scenario.

    ``n_devices`` ssd2 drives serve ``offered_load_bps`` of open-loop
    random writes for ``duration_s`` while the fleet budget follows
    ``budget`` (default: ample, a 30 % cut, ample again, in thirds).
    """
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices!r}")
    if budget is None:
        peak = 15.0 * n_devices  # sized against ssd2-class devices
        budget = BudgetSchedule.step(peak, 0.70 * peak, period_s=2 * duration_s / 3)
    segments = budget_segments(budget, duration_s)
    share = replace(
        budget, high_w=budget.high_w / n_devices, low_w=budget.low_w / n_devices
    )
    spec = PolicySpec(
        "feedback", share, interval_s=CONTROL_INTERVAL_S, window_s=CONTROL_INTERVAL_S
    )

    engine = Engine()
    rngs = RngStreams(seed)
    devices, runtimes, jobs = [], [], []
    try:
        for index in range(n_devices):
            streams = rngs.fork(index)
            device = build_device(engine, PRESET, rng=streams)
            device.name = f"{PRESET}-{index}"
            devices.append(device)
            runtimes.append(PolicyRuntime(engine, device, spec, streams))
            arrivals = ArrivalProcess(
                offered_load_bps / n_devices,
                request_bytes=REQUEST_BYTES,
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
        engine.run(until=duration_s + 0.05)  # drain in-flight writes

        fleet_power, compliance = [], []
        for start, end, watts in segments:
            settled = start + SETTLE_FRACTION * (end - start)
            power = sum(device.rail.trace.mean(settled, end) for device in devices)
            fleet_power.append(power)
            compliance.append(power <= watts + 0.5)
        workload = OpenLoopResult(
            records=IoRecords.concat(job.records.view() for job in jobs),
            offered=sum(job.offered for job in jobs),
            submitted=sum(job.submitted for job in jobs),
            shed=sum(job.shed for job in jobs),
        )
        return DemandResponseResult(
            budget=budget,
            fleet_power=tuple(fleet_power),
            compliance=tuple(compliance),
            workload=workload,
            policies=tuple(runtime.summary() for runtime in runtimes),
            duration_s=duration_s,
        )
    finally:
        engine.close()
        for device in devices:
            device.close()
        for runtime in runtimes:
            runtime.close()
