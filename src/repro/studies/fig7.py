"""Figure 7: 860 EVO power during ALPM standby transitions.

Two 1-second traces with the ALPM command issued mid-trace:

(a) idle -> standby: the command at 200 ms; power drops from the 0.35 W
    idle level to the 0.17 W SLUMBER level, with a transient bump while the
    transition runs.
(b) standby -> idle: the command at 400 ms; power returns to idle, again
    with a transition transient.

The paper's takeaways this reproduces: standby roughly halves SSD idle
power, and the whole transition completes within 0.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.catalog import build_device
from repro.devices.link import LinkPowerMode
from repro.power.logger import PowerTrace
from repro.power.meter import MeterConfig, PowerMeter
from repro.sata.alpm import AlpmController
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = ["Fig7Result", "render", "run"]

TRACE_SECONDS = 1.0
ENTER_CMD_AT = 0.2
EXIT_CMD_AT = 0.4


@dataclass(frozen=True)
class Fig7Result:
    """Both transition traces plus the settled levels.

    Attributes:
        enter_trace / exit_trace: 1 kHz measured traces for panels (a)/(b).
        idle_power_w / slumber_power_w: Settled levels (paper: 0.35/0.17).
        enter_settle_s / exit_settle_s: Time from the ALPM command until
            power stays within 10 % of the destination level.
    """

    enter_trace: PowerTrace
    exit_trace: PowerTrace
    idle_power_w: float
    slumber_power_w: float
    enter_settle_s: float
    exit_settle_s: float


def _settle_time(trace: PowerTrace, cmd_at: float, target_w: float) -> float:
    """Time after ``cmd_at`` until the trace stays within 10 % of target."""
    tolerance = 0.1 * target_w
    after = trace.times >= cmd_at
    times, watts = trace.times[after], trace.watts[after]
    outside = np.abs(watts - target_w) > tolerance
    if not outside.any():
        return 0.0
    last_outside = np.flatnonzero(outside)[-1]
    if last_outside + 1 >= len(times):
        return float(times[-1] - cmd_at)
    return float(times[last_outside + 1] - cmd_at)


def _capture(scenario: str) -> tuple[PowerTrace, float, float]:
    """Run one transition scenario; returns (trace, level_before, level_after)."""
    engine = Engine()
    rngs = RngStreams(0)
    device = build_device(engine, "860evo", rng=rngs)
    alpm = AlpmController(device)
    target = (
        LinkPowerMode.SLUMBER if scenario == "enter" else LinkPowerMode.ACTIVE
    )
    cmd_at = ENTER_CMD_AT if scenario == "enter" else EXIT_CMD_AT
    try:
        if scenario == "exit":
            # Pre-position in SLUMBER, then reset the clock window by
            # running the preparation before the trace starts.
            slumber = alpm.set_mode(LinkPowerMode.SLUMBER)
            engine.run_until_complete(engine.process(slumber))
        t0 = engine.now
        engine.call_at(
            t0 + cmd_at, lambda: engine.process(alpm.set_mode(target))
        )
        engine.run(until=t0 + TRACE_SECONDS)
        meter = PowerMeter(device.rail, MeterConfig(), rng=rngs.get("meter"))
        trace = meter.measure(
            t0, t0 + TRACE_SECONDS, label=f"860evo {scenario}"
        )
    finally:
        engine.close()
        device.close()
    # Shift times so the trace starts at 0 like the figure's x-axis.
    trace = PowerTrace(
        times=trace.times - t0,
        watts=trace.watts,
        rail_voltage=trace.rail_voltage,
        sample_rate_hz=trace.sample_rate_hz,
        label=trace.label,
    )
    before = float(trace.window(0.0, cmd_at).watts.mean())
    after = float(trace.window(TRACE_SECONDS - 0.2, TRACE_SECONDS).watts.mean())
    return trace, before, after


def run() -> Fig7Result:
    enter_trace, idle_w, slumber_w = _capture("enter")
    exit_trace, __, idle_after = _capture("exit")
    return Fig7Result(
        enter_trace=enter_trace,
        exit_trace=exit_trace,
        idle_power_w=(idle_w + idle_after) / 2.0,
        slumber_power_w=slumber_w,
        enter_settle_s=_settle_time(enter_trace, ENTER_CMD_AT, slumber_w),
        exit_settle_s=_settle_time(exit_trace, EXIT_CMD_AT, idle_w),
    )


def render(result: Fig7Result) -> str:
    return "\n".join(
        [
            "Figure 7. 860 EVO power across ALPM standby transitions.",
            (
                f"  idle {result.idle_power_w:.3f} W (paper 0.35), "
                f"slumber {result.slumber_power_w:.3f} W (paper 0.17) -- "
                f"{1 - result.slumber_power_w / result.idle_power_w:.0%} saving"
            ),
            (
                f"  (a) idle->standby: command at {ENTER_CMD_AT * 1e3:.0f} ms, "
                f"settled in {result.enter_settle_s * 1e3:.0f} ms, "
                f"transient peak {result.enter_trace.max():.2f} W"
            ),
            (
                f"  (b) standby->idle: command at {EXIT_CMD_AT * 1e3:.0f} ms, "
                f"settled in {result.exit_settle_s * 1e3:.0f} ms, "
                f"transient peak {result.exit_trace.max():.2f} W"
            ),
            "  (paper: transitions complete within 0.5 s)",
        ]
    )


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run()))
