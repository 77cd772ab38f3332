"""Figure 2: millisecond-scale power measurement example.

(a) SSD1's power trace over ~1.2 s of a random-write experiment (256 KiB
chunks, queue depth 64): substantial variability on small timescales,
produced in our model by NAND program-intensity waves and per-op pulses.

(b) Violin-style distribution of the power samples for all four devices
under the same workload: medians and means nearly overlap, and devices
differ in spread.

This study uses the paper's actual 1 kHz sampling over near-full-length
windows (unlike the throughput sweeps, which use scaled windows with a
faster sampler), and demonstrates the methodological point of section 3.1:
resampling the same experiment at a slow rate hides the variability
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import GiB, KiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.reporting import format_table
from repro.iogen.spec import IoPattern, JobSpec
from repro.power.analysis import PowerSummary
from repro.power.logger import PowerTrace
from repro.power.meter import MeterConfig

__all__ = ["Fig2Result", "render", "run"]

_DEVICES = ("ssd2", "ssd3", "ssd1", "hdd")  # Fig. 2b order

#: Trace length for panel (a); the paper's x-axis spans ~1.2 s.
TRACE_SECONDS = 1.25
#: Window per device for the distribution panel.
DISTRIBUTION_SECONDS = 0.35


@dataclass(frozen=True)
class Fig2Result:
    """Series behind both panels.

    Attributes:
        trace: SSD1's measured 1 kHz power trace (panel a).
        distributions: Per-device power summaries (panel b's violins).
        slow_rate_spread / full_rate_spread: Power spread visible at 10 Hz
            versus at the full 1 kHz rate -- quantifying what a slow
            sampler (IPMI-class reporting) would miss.
    """

    trace: PowerTrace
    distributions: dict[str, PowerSummary]
    slow_rate_spread: float
    full_rate_spread: float


def _measure_device(label: str, runtime_s: float):
    config = ExperimentConfig(
        device=label,
        job=JobSpec(
            IoPattern.RANDWRITE,
            block_size=256 * KiB,
            iodepth=64,
            runtime_s=runtime_s,
            size_limit_bytes=8 * GiB,
        ),
        warmup_fraction=0.1,
        meter=MeterConfig(),  # the paper's 1 kHz chain
        keep_trace=True,
    )
    return run_experiment(config)


def run() -> Fig2Result:
    distributions: dict[str, PowerSummary] = {}
    trace = None
    for label in _DEVICES:
        runtime = TRACE_SECONDS if label == "ssd1" else DISTRIBUTION_SECONDS
        result = _measure_device(label, runtime)
        assert result.trace is not None
        distributions[label] = result.power
        if label == "ssd1":
            trace = result.trace
    assert trace is not None
    watts = trace.watts
    # Resample at 10 Hz: average per 100 ms bucket, the best a slow
    # polling interface could report.
    bucket = max(int(trace.sample_rate_hz / 10), 1)
    n_buckets = len(watts) // bucket
    slow = watts[: n_buckets * bucket].reshape(n_buckets, bucket).mean(axis=1)
    slow_spread = float(slow.max() - slow.min()) if len(slow) else 0.0
    return Fig2Result(
        trace=trace,
        distributions=distributions,
        slow_rate_spread=slow_spread,
        full_rate_spread=float(watts.max() - watts.min()),
    )


def render(result: Fig2Result) -> str:
    lines = [
        "Figure 2a. SSD1 random-write power trace (256 KiB, QD64):",
        (
            f"  {len(result.trace)} samples at "
            f"{result.trace.sample_rate_hz:.0f} Hz, "
            f"range [{result.trace.min():.2f}, {result.trace.max():.2f}] W, "
            f"mean {result.trace.mean():.2f} W"
        ),
        (
            f"  variability: {result.full_rate_spread:.2f} W at 1 kHz vs "
            f"{result.slow_rate_spread:.2f} W visible at 10 Hz"
        ),
        "",
    ]
    rows = []
    for label, summary in result.distributions.items():
        rows.append(
            [
                label.upper(),
                summary.mean_w,
                summary.median_w,
                summary.quantiles[0.05],
                summary.quantiles[0.95],
                summary.max_w,
            ]
        )
    lines.append(
        format_table(
            ["Device", "Mean W", "Median W", "p5 W", "p95 W", "Max W"],
            rows,
            title="Figure 2b. Power distribution during the same workload.",
        )
    )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run()))
