"""Table 1: evaluated storage devices and their measured power ranges.

Paper values::

    SSD1  NVMe  Samsung PM9A3       3.5 - 13.5 W
    SSD2  NVMe  Intel D7-P5510      5   - 15.1 W
    SSD3  SATA  Intel D3-S4510      1   - 3.5 W
    HDD   SATA  Seagate Exos 7E2000 1   - 5.3 W

The *minimum* of each range is the device's quiescent draw (idle; for the
HDD, standby rounds to ~1 W); the *maximum* is the highest instantaneous
sample observed across the workload sweep -- which is why it exceeds the
maximum *average* power (program-current pulses, Fig. 2a).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import KiB
from repro.core.options import ExecutionOptions
from repro.core.parallel import results_or_raise, run_configs
from repro.devices.catalog import build_device
from repro.iogen.spec import IoPattern
from repro.power.meter import MeterConfig, PowerMeter
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.core.reporting import format_table
from repro.studies.common import DEFAULT, StudyScale, point_config

__all__ = ["DeviceRange", "PAPER_RANGES", "render", "run"]

#: Paper Table 1: label -> (protocol, model, min W, max W).
PAPER_RANGES: dict[str, tuple[str, str, float, float]] = {
    "ssd1": ("NVMe", "Samsung PM9A3", 3.5, 13.5),
    "ssd2": ("NVMe", "Intel D7-P5510", 5.0, 15.1),
    "ssd3": ("SATA", "Intel D3-S4510", 1.0, 3.5),
    "hdd": ("SATA", "Seagate Exos 7E2000", 1.0, 5.3),
}

#: Heavy workloads probed for the maximum-power end of each range.
_HEAVY = (
    (IoPattern.RANDWRITE, 2048 * KiB, 64),
    (IoPattern.WRITE, 256 * KiB, 64),
)


@dataclass(frozen=True)
class DeviceRange:
    """One row of the reproduced Table 1."""

    label: str
    protocol: str
    model: str
    measured_min_w: float
    measured_max_w: float
    paper_min_w: float
    paper_max_w: float


def _quiescent_power(label: str, seed: int = 0) -> float:
    """Device power with no IO offered (idle; standby for the HDD)."""
    engine = Engine()
    device = build_device(engine, label, rng=RngStreams(seed))
    try:
        if label == "hdd":
            engine.run_until_complete(engine.process(device.enter_standby()))
        start = engine.now
        engine.run(until=start + 0.3)
        rng = RngStreams(seed).get("meter")
        meter = PowerMeter(device.rail, MeterConfig(), rng=rng)
        return meter.measure(start + 0.1, start + 0.3).mean()
    finally:
        engine.close()
        device.close()


def run(
    scale: StudyScale = DEFAULT, n_workers: int | None = 1
) -> list[DeviceRange]:
    """Reproduce Table 1.

    The heavy max-power probes (two workloads per device) are independent
    experiments, so they fan out across ``n_workers`` processes.
    """
    labels = list(PAPER_RANGES)
    probes = [
        (label, workload) for label in labels for workload in _HEAVY
    ]
    outcomes = run_configs(
        [
            point_config(label, pattern, block_size, iodepth, scale=scale)
            for label, (pattern, block_size, iodepth) in probes
        ],
        ExecutionOptions(n_workers=n_workers),
    )
    max_w: dict[str, float] = {label: 0.0 for label in labels}
    for (label, __), result in zip(probes, results_or_raise(outcomes)):
        max_w[label] = max(max_w[label], result.power.max_w)

    rows = []
    for label, (protocol, model, p_min, p_max) in PAPER_RANGES.items():
        low = _quiescent_power(label)
        high = max_w[label]
        rows.append(
            DeviceRange(
                label=label,
                protocol=protocol,
                model=model,
                measured_min_w=low,
                measured_max_w=high,
                paper_min_w=p_min,
                paper_max_w=p_max,
            )
        )
    return rows


def render(rows: list[DeviceRange]) -> str:
    """Paper-style Table 1 with paper-vs-measured columns."""
    return format_table(
        ["Label", "Protocol", "Model", "Measured Range", "Paper Range"],
        [
            [
                row.label.upper(),
                row.protocol,
                row.model,
                f"{row.measured_min_w:.1f}-{row.measured_max_w:.1f} W",
                f"{row.paper_min_w}-{row.paper_max_w} W",
            ]
            for row in rows
        ],
        title="Table 1. Evaluated storage devices.",
    )


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run()))
