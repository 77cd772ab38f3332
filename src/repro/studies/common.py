"""Shared scaling and helpers for the figure drivers.

The paper runs every point for one minute or 4 GiB.  A pure-Python event
simulation reproduces steady-state *rates* from far shorter windows, so the
drivers use scaled stop rules.  HDD points need longer simulated spans than
SSD points (mechanical service times are milliseconds, and write-cache
fill must be excluded from steady state), which is what
:class:`StudyScale` encodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import GiB, MiB
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.iogen.spec import IoPattern, JobSpec

__all__ = [
    "DEFAULT",
    "QUICK",
    "StudyScale",
    "decision_cadence",
    "point_config",
    "run_point",
]


@dataclass(frozen=True)
class StudyScale:
    """Stop rules per device class and experiment type.

    ``latency`` variants apply to QD1 latency studies (Figs. 5/6), which
    need enough completions for a stable p99.
    """

    ssd_runtime_s: float = 0.08
    ssd_bytes: int = 48 * MiB
    ssd_latency_runtime_s: float = 0.5
    ssd_latency_bytes: int = 2 * GiB
    hdd_runtime_s: float = 6.0
    hdd_bytes: int = 64 * MiB
    hdd_warmup: float = 0.5
    ssd_warmup: float = 0.25

    def job(
        self,
        pattern: IoPattern,
        block_size: int,
        iodepth: int,
        device: str,
        latency_study: bool = False,
    ) -> JobSpec:
        if device == "hdd":
            runtime, nbytes = self.hdd_runtime_s, self.hdd_bytes
        elif latency_study:
            runtime, nbytes = self.ssd_latency_runtime_s, self.ssd_latency_bytes
        else:
            runtime, nbytes = self.ssd_runtime_s, self.ssd_bytes
        return JobSpec(
            pattern=pattern,
            block_size=block_size,
            iodepth=iodepth,
            runtime_s=runtime,
            size_limit_bytes=nbytes,
        )

    def warmup(self, device: str) -> float:
        return self.hdd_warmup if device == "hdd" else self.ssd_warmup


#: Benchmark-scale runs (what EXPERIMENTS.md records).
DEFAULT = StudyScale()

#: CI-speed runs for integration tests: coarser but same mechanisms.
#: The byte budget must stay well above the SSD write buffer (8 MiB on the
#: NVMe presets) so steady-state ack rate, not buffer fill, dominates the
#: measurement window.
QUICK = StudyScale(
    ssd_runtime_s=0.05,
    ssd_bytes=32 * MiB,
    ssd_latency_runtime_s=0.15,
    ssd_latency_bytes=GiB // 2,
    hdd_runtime_s=2.0,
    hdd_bytes=24 * MiB,
    ssd_warmup=0.3,
)


def decision_cadence(device: str) -> dict:
    """A policy's ``interval_s`` and ``window_s`` on its device class's
    timescale: tens of milliseconds for the HDD's mechanics, NVMe
    cadence for the SSDs."""
    if device == "hdd":
        return {"interval_s": 0.05, "window_s": 0.1}
    return {"interval_s": 1.5e-3, "window_s": 3e-3}


def point_config(
    device: str,
    pattern: IoPattern,
    block_size: int,
    iodepth: int,
    power_state: int | None = None,
    scale: StudyScale = DEFAULT,
    latency_study: bool = False,
    seed: int = 0,
    keep_trace: bool = False,
) -> ExperimentConfig:
    """Config for one figure data point, with the study's scaling conventions.

    Split out from :func:`run_point` so drivers can build whole batches of
    configs and hand them to :func:`repro.core.parallel.run_configs`.
    """
    return ExperimentConfig(
        device=device,
        job=scale.job(pattern, block_size, iodepth, device, latency_study),
        power_state=power_state,
        warmup_fraction=scale.warmup(device),
        seed=seed,
        keep_trace=keep_trace,
    )


def run_point(
    device: str,
    pattern: IoPattern,
    block_size: int,
    iodepth: int,
    power_state: int | None = None,
    scale: StudyScale = DEFAULT,
    latency_study: bool = False,
    seed: int = 0,
    keep_trace: bool = False,
) -> ExperimentResult:
    """Run one figure data point with the study's scaling conventions."""
    return run_experiment(
        point_config(
            device,
            pattern,
            block_size,
            iodepth,
            power_state=power_state,
            scale=scale,
            latency_study=latency_study,
            seed=seed,
            keep_trace=keep_trace,
        )
    )
