"""Figure 10: the power-throughput model (paper section 3.3).

Normalized power versus normalized throughput for the random-write
workload, across every combination of power-control mechanism (device
power state x chunk size x queue depth):

(a) across the four storage devices -- the models "generalize across
    storage devices";
(b) SSD2 broken out by power state.

Headline numbers the study checks: SSD2's power dynamic range reaches
~59.4 % of its maximum power, and the HDD's throughput floor is ~4 % of
its maximum.  The module also reproduces the worked SSD1 example: a 20 %
power cut maps to a configuration that curtails ~40 % of peak throughput
(~1.3 GiB/s of best-effort load).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import GiB, KiB
from repro.core.experiment import ExperimentResult
from repro.core.model import AdaptivePlan, PowerThroughputModel
from repro.core.options import ExecutionOptions
from repro.core.parallel import results_or_raise, run_configs
from repro.core.reporting import ascii_scatter, format_table
from repro.core.sweep import SweepPoint
from repro.iogen.spec import IoPattern
from repro.studies.common import DEFAULT, StudyScale, point_config

__all__ = ["Fig10Result", "build_model", "render", "run"]

#: Power states per device for the mechanism sweep (None = no NVMe table).
DEVICE_STATES: dict[str, tuple[int | None, ...]] = {
    "ssd1": (0, 1, 2),
    "ssd2": (0, 1, 2),
    "ssd3": (None,),
    "hdd": (None,),
}

#: The sweep's IO-shaping grid (a representative subset of the paper's
#: 6 x 6 full grid keeps the flagship sweep tractable in pure Python).
SWEEP_CHUNKS = (4 * KiB, 64 * KiB, 256 * KiB, 2048 * KiB)
SWEEP_DEPTHS = (1, 8, 64)


def build_model(
    device: str,
    pattern: IoPattern = IoPattern.RANDWRITE,
    scale: StudyScale = DEFAULT,
    chunks: tuple[int, ...] = SWEEP_CHUNKS,
    depths: tuple[int, ...] = SWEEP_DEPTHS,
    states: tuple[int | None, ...] | None = None,
    n_workers: int | None = 1,
) -> PowerThroughputModel:
    """Sweep one device's mechanism grid and fit its model.

    ``n_workers > 1`` (or ``None`` for all cores) fans the grid out across
    a process pool; results are identical to the sequential run.
    """
    if states is None:
        states = DEVICE_STATES.get(device, (None,))
    points = [
        SweepPoint(pattern, block_size, iodepth, ps)
        for ps in states
        for block_size in chunks
        for iodepth in depths
    ]
    outcomes = run_configs(
        [
            point_config(
                device,
                point.pattern,
                point.block_size,
                point.iodepth,
                power_state=point.power_state,
                scale=scale,
            )
            for point in points
        ],
        ExecutionOptions(n_workers=n_workers),
    )
    results: dict[SweepPoint, ExperimentResult] = dict(
        zip(points, results_or_raise(outcomes))
    )
    return PowerThroughputModel.from_sweep(device, results)


@dataclass(frozen=True)
class Fig10Result:
    """Models for all devices plus the worked example.

    Attributes:
        models: Per-device power-throughput models (the scatter data).
        ssd1_plan: The section-3.3 worked example: SSD1's plan for a 20 %
            power cut.
    """

    models: dict[str, PowerThroughputModel]
    ssd1_plan: AdaptivePlan


def run(scale: StudyScale = DEFAULT, n_workers: int | None = 1) -> Fig10Result:
    models = {
        device: build_model(device, scale=scale, n_workers=n_workers)
        for device in DEVICE_STATES
    }
    return Fig10Result(models=models, ssd1_plan=models["ssd1"].plan_power_cut(0.20))


def render(result: Fig10Result) -> str:
    rows = []
    for device, model in result.models.items():
        rows.append(
            [
                device.upper(),
                len(model.points),
                model.max_power_w,
                model.min_power_w,
                f"{model.dynamic_range_fraction:.1%}",
                f"{model.min_normalized_throughput:.1%}",
            ]
        )
    blocks = [
        format_table(
            [
                "Device",
                "Points",
                "Max W",
                "Min W",
                "Dyn range",
                "Tput floor",
            ],
            rows,
            title=(
                "Figure 10. Power-throughput model, random write "
                "(normalized per device)."
            ),
        ),
        (
            "SSD2 dynamic range "
            f"{result.models['ssd2'].dynamic_range_fraction:.1%} "
            "(paper: 59.4%); HDD throughput floor "
            f"{result.models['hdd'].min_normalized_throughput:.1%} (paper: ~4%)"
        ),
        (
            "Worked example (paper section 3.3) -- SSD1 under a 20% power "
            "cut:\n  " + result.ssd1_plan.describe()
            + f"\n  curtailed load {result.ssd1_plan.curtailed_bps / GiB:.1f}"
            " GiB/s (paper: ~1.3 GiB/s)"
        ),
    ]
    # Panel (a): the normalized scatter across devices, as the paper plots.
    scatter = {
        label: [(t, p) for t, p, __ in model.normalized()]
        for label, model in result.models.items()
    }
    blocks.append(
        "Figure 10a. Normalized power vs normalized throughput "
        "(random write):\n"
        + ascii_scatter(
            scatter, x_label="norm throughput", y_label="norm power"
        )
    )
    # Scatter listing for panel (b): SSD2 by power state.
    ssd2 = result.models["ssd2"]
    scatter_rows = [
        [
            point.point.describe(),
            f"{norm_tput:.2f}",
            f"{norm_power:.2f}",
        ]
        for norm_tput, norm_power, point in sorted(
            ssd2.normalized(), key=lambda triple: (triple[0], triple[1])
        )
    ]
    blocks.append(
        format_table(
            ["SSD2 configuration", "Norm tput", "Norm power"],
            scatter_rows,
            title="Figure 10b. SSD2 operating points by power state.",
        )
    )
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run()))
