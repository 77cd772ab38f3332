"""Headline claims of sections 1-3, each checked against the simulation.

=====  ==============================================================
claim  paper statement
=====  ==============================================================
C1     measurement system: <1 % relative error at millisecond sampling
C2     HDD standby 1.1 W vs 3.76 W idle -- saves 2.66 W, comparable to
       the idle-to-active span
C3     HDD spin-down/spin-up takes up to 10 seconds
C4     860 EVO standby transition completes within 0.5 s; standby halves
       idle power
C5     PM1743: 9 W cap is ~40 % of uncapped maximum and 1.8x its 5 W idle
C6     power dynamic range up to 59.4 % of maximum operating power (SSD2)
C7     applying mechanisms blindly can drop throughput to ~1/25 (4 %) of
       maximum (the HDD floor)
=====  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import KiB
from repro.core.reporting import format_table
from repro.devices.catalog import build_device
from repro.iogen.spec import IoPattern
from repro.power.meter import MeterConfig, PowerMeter
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.studies import fig7, fig10
from repro.studies.common import DEFAULT, StudyScale, run_point

__all__ = ["Claim", "render", "run"]


@dataclass(frozen=True)
class Claim:
    """One checked claim."""

    claim_id: str
    statement: str
    paper_value: str
    measured_value: str
    holds: bool


def _meter_error_claim() -> Claim:
    """C1: drive a device, compare metered vs ground-truth mean power."""
    result = run_point(
        "ssd2", IoPattern.RANDWRITE, 256 * KiB, 64, scale=DEFAULT
    )
    error = result.meter_relative_error
    return Claim(
        "C1",
        "power meter relative error at 1 kHz sampling",
        "< 1%",
        f"{error:.3%}",
        error < 0.01,
    )


def _hdd_standby_claim() -> tuple[Claim, Claim]:
    """C2 and C3: HDD standby power and spin-up duration."""
    engine = Engine()
    hdd = build_device(engine, "hdd")
    try:
        engine.run(until=0.5)
        idle_w = hdd.rail.trace.mean(0.2, 0.5)
        engine.run_until_complete(engine.process(hdd.enter_standby()))
        t0 = engine.now
        engine.run(until=t0 + 0.5)
        standby_w = hdd.rail.trace.mean(t0 + 0.2, t0 + 0.5)
        spinup_start = engine.now
        engine.run_until_complete(engine.process(hdd.exit_standby()))
        spinup_s = engine.now - spinup_start
    finally:
        engine.close()
        hdd.close()
    saving = idle_w - standby_w
    c2 = Claim(
        "C2",
        "HDD standby saves most of idle power",
        "3.76 W -> 1.1 W (saves 2.66 W)",
        f"{idle_w:.2f} W -> {standby_w:.2f} W (saves {saving:.2f} W)",
        2.0 <= saving <= 3.2 and standby_w < 1.5,
    )
    c3 = Claim(
        "C3",
        "HDD spin-up duration",
        "up to 10 s",
        f"{spinup_s:.1f} s",
        1.0 <= spinup_s <= 10.0,
    )
    return c2, c3


def _evo_claim() -> Claim:
    """C4: EVO standby halves idle power within 0.5 s."""
    result = fig7.run()
    halved = result.slumber_power_w <= 0.6 * result.idle_power_w
    fast = max(result.enter_settle_s, result.exit_settle_s) <= 0.5
    return Claim(
        "C4",
        "860 EVO: standby halves idle power, transition < 0.5 s",
        "0.35 -> 0.17 W within 0.5 s",
        (
            f"{result.idle_power_w:.2f} -> {result.slumber_power_w:.2f} W, "
            f"settle {max(result.enter_settle_s, result.exit_settle_s):.2f} s"
        ),
        halved and fast,
    )


def _pm1743_claim(scale: StudyScale) -> Claim:
    """C5: the PM1743 cap arithmetic from section 2."""
    uncapped = run_point(
        "pm1743", IoPattern.RANDWRITE, 2048 * KiB, 64, power_state=0, scale=scale
    )
    capped = run_point(
        "pm1743", IoPattern.RANDWRITE, 2048 * KiB, 64, power_state=2, scale=scale
    )
    engine = Engine()
    device = build_device(engine, "pm1743", rng=RngStreams(0))
    try:
        engine.run(until=0.3)
        meter = PowerMeter(device.rail, MeterConfig(), rng=RngStreams(0).get("m"))
        idle_w = meter.measure(0.1, 0.3).mean()
    finally:
        engine.close()
        device.close()
    cap_vs_max = capped.mean_power_w / uncapped.mean_power_w
    cap_vs_idle = capped.mean_power_w / idle_w
    return Claim(
        "C5",
        "PM1743: 9 W cap ~40% of uncapped max, ~1.8x idle (5 W)",
        "40% of max, 1.8x idle",
        f"{cap_vs_max:.0%} of max, {cap_vs_idle:.1f}x idle ({idle_w:.1f} W)",
        0.3 <= cap_vs_max <= 0.55 and 1.4 <= cap_vs_idle <= 2.2,
    )


def _model_claims(
    scale: StudyScale, n_workers: int | None
) -> tuple[Claim, Claim]:
    """C6 and C7 from the fig10 models."""
    ssd2 = fig10.build_model("ssd2", scale=scale, n_workers=n_workers)
    hdd = fig10.build_model("hdd", scale=scale, n_workers=n_workers)
    c6 = Claim(
        "C6",
        "power dynamic range up to 59.4% of max (SSD2, random write)",
        "59.4%",
        f"{ssd2.dynamic_range_fraction:.1%}",
        0.45 <= ssd2.dynamic_range_fraction <= 0.70,
    )
    floor = hdd.min_normalized_throughput
    c7 = Claim(
        "C7",
        "blind mechanism choice can drop throughput to ~1/25 of max (HDD)",
        "~4%",
        f"{floor:.1%}",
        floor <= 0.10,
    )
    return c6, c7


def run(scale: StudyScale = DEFAULT, n_workers: int | None = 1) -> list[Claim]:
    """Check every claim; ``n_workers`` fans out the two model sweeps
    (``None`` = every core) without changing their results."""
    claims = [_meter_error_claim()]
    claims.extend(_hdd_standby_claim())
    claims.append(_evo_claim())
    claims.append(_pm1743_claim(scale))
    claims.extend(_model_claims(scale, n_workers))
    return claims


def render(claims: list[Claim]) -> str:
    return format_table(
        ["ID", "Claim", "Paper", "Measured", "Holds"],
        [
            [c.claim_id, c.statement, c.paper_value, c.measured_value,
             "yes" if c.holds else "NO"]
            for c in claims
        ],
        title="Headline claims, paper vs simulation.",
    )


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run()))
