"""One measurement-study experiment.

An experiment is exactly what the paper runs per data point: configure a
device's power-control mechanisms (NVMe power state, ALPM link mode), drive
one fio job against it, and record device power through the measurement
chain alongside throughput and latency from the workload generator.

Everything is deterministic from ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.devices.base import StorageDevice
from repro.devices.catalog import DeviceConfig, build_device
from repro.devices.link import LinkPowerMode
from repro.devices.ssd import SimulatedSSD
from repro.faults.injector import FaultInjector, FaultSummary
from repro.faults.plan import FaultPlan
from repro.iogen.engine import FioJob
from repro.iogen.spec import JobSpec
from repro.iogen.stats import JobResult, LatencyStats
from repro.obs.events import Tracer
from repro.obs.profile import RunProfiler
from repro.power.adc import AdcConfig
from repro.power.analysis import PowerSummary, summarize_samples
from repro.power.logger import PowerTrace
from repro.power.meter import MeterConfig, PowerMeter
from repro.sata.alpm import AlpmController
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment.

    Attributes:
        device: Preset label (``"ssd1"``, ``"ssd2"``, ``"ssd3"``, ``"hdd"``,
            ``"860evo"``, ``"pm1743"``) or an explicit device config.
        job: The fio-style workload.
        power_state: NVMe power state to select before the job (SSDs with a
            power state table only).
        alpm_mode: SATA link power mode to set before the job.
        warmup_fraction: Leading fraction of the job excluded from
            steady-state statistics (cache/buffer ramp-in).
        seed: Root seed for every random stream in the experiment.
        meter: Measurement chain configuration.  The default samples at
            20 kHz rather than the paper's 1 kHz: scaled-down experiments
            last tens of milliseconds instead of a minute, and the sample
            *count* per experiment must stay comparable for the averages
            to have the paper's fidelity (1 kHz over 15 ms is 15 samples,
            which aliases against millisecond power pulses).  Trace
            studies that specifically demonstrate 1 kHz behaviour
            (Figs. 2 and 7) pass the paper-rate meter explicitly with
            full-length windows.
        keep_trace: Retain the full measured power trace on the result
            (costs memory across big sweeps; figure drivers that plot
            traces turn it on).
        faults: Optional :class:`~repro.faults.plan.FaultPlan` injected
            deterministically (from the same root seed) while the job
            runs.  ``None`` -- the default -- leaves every device on the
            null injector and reproduces pre-fault results bit for bit.
        policy: Optional :class:`~repro.policy.spec.PolicySpec` running
            an online power-adaptive controller against the device
            while the job runs.  Typed as ``object`` so this module
            never imports :mod:`repro.policy`: ``None`` -- the default
            -- keeps the policy package entirely unloaded and the run
            bit-identical to a build without it.
        fastpath: Optional
            :class:`~repro.sim.fastpath.options.FastpathOptions` enabling
            the analytic steady-state fast-forward.  Typed as ``object``
            for the same lazy-import contract as ``policy``: ``None`` --
            the default -- keeps :mod:`repro.sim.fastpath` entirely
            unloaded and the run bit-identical to a build without it.  Ineligible runs
            (writes, faults, policies, non-SSD devices...) fall back to
            the exact kernel and are also bit-identical; eligible runs
            are equivalent within the options' declared tolerances.
    """

    device: Union[str, DeviceConfig]
    job: JobSpec
    power_state: Optional[int] = None
    alpm_mode: Optional[LinkPowerMode] = None
    warmup_fraction: float = 0.25
    seed: int = 0
    meter: MeterConfig = field(
        default_factory=lambda: MeterConfig(
            adc=AdcConfig(sample_rate_hz=20000.0)
        )
    )
    keep_trace: bool = False
    faults: Optional[FaultPlan] = None
    policy: Optional[object] = None
    fastpath: Optional[object] = None

    def __post_init__(self) -> None:
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")

    @property
    def device_label(self) -> str:
        if isinstance(self.device, str):
            return self.device
        return self.device.name

    def describe(self) -> str:
        parts = [self.device_label, self.job.describe()]
        if self.power_state is not None:
            parts.append(f"ps{self.power_state}")
        if self.alpm_mode is not None:
            parts.append(f"alpm={self.alpm_mode.value}")
        if self.policy is not None:
            describe = getattr(self.policy, "describe", None)
            parts.append(
                f"policy={describe() if describe else self.policy!r}"
            )
        return " ".join(parts)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything the paper reports about one experiment.

    Attributes:
        config: The experiment that ran.
        job: Workload-side results (throughput, latency).
        power: Measured power summary over the steady-state window.
        true_mean_power_w: Ground-truth rail mean over the same window
            (for meter-accuracy accounting).
        cap_w: The power cap the run *intended* (NVMe Set Features), if
            any.  Under an injected governor failure the device stops
            enforcing it, which :attr:`cap_respected` then reports.
        trace: Full measured power trace when ``keep_trace`` was set.
        faults: Fault accounting when the experiment configured a fault
            plan (``None`` for clean runs).
        policy: :class:`~repro.policy.api.PolicySummary` accounting when
            the experiment configured an online policy (``None``
            otherwise; typed loosely for the same lazy-import reason as
            ``ExperimentConfig.policy``).
        fastpath: :class:`~repro.sim.fastpath.options.FastpathSummary`
            accounting when the experiment configured a fastpath
            (``None`` otherwise) -- whether it engaged, which mode ran,
            and the per-splice replication ledger the
            ``fastpath_equivalence`` invariant audits.
    """

    config: ExperimentConfig
    job: JobResult
    power: PowerSummary
    true_mean_power_w: float
    cap_w: Optional[float]
    trace: Optional[PowerTrace] = None
    faults: Optional[FaultSummary] = None
    policy: Optional[object] = None
    fastpath: Optional[object] = None

    # -- the quantities the paper's figures plot --------------------------

    @property
    def mean_power_w(self) -> float:
        return self.power.mean_w

    @property
    def throughput_mib_s(self) -> float:
        return self.job.throughput_mib_s

    @property
    def throughput_bps(self) -> float:
        return self.job.throughput_bps

    def latency(self) -> LatencyStats:
        return self.job.latency_stats()

    @property
    def meter_relative_error(self) -> float:
        """Relative error of the measured vs ground-truth mean power."""
        if self.true_mean_power_w == 0:
            return 0.0
        return abs(self.power.mean_w - self.true_mean_power_w) / self.true_mean_power_w

    @property
    def cap_respected(self) -> bool:
        """Whether mean power stayed under the active cap (NVMe semantics).

        The NVMe cap bounds the *average over any 10 s window*; experiments
        are shorter than 10 s, so the whole-window mean is the right check.
        """
        if self.cap_w is None:
            return True
        return self.true_mean_power_w <= self.cap_w + 1e-9

    def summary(self) -> str:
        lat = self.latency()
        return (
            f"{self.config.describe()}: {self.mean_power_w:.2f} W, "
            f"{self.throughput_mib_s:.0f} MiB/s, "
            f"lat avg {lat.mean * 1e6:.0f} us / p99 {lat.p99 * 1e6:.0f} us"
        )


def _apply_power_controls(
    engine: Engine, device: StorageDevice, config: ExperimentConfig
) -> None:
    if config.power_state is not None:
        if not isinstance(device, SimulatedSSD) or not device.config.power_states:
            raise ValueError(
                f"{device.name} does not support NVMe power states"
            )
        engine.run_until_complete(
            engine.process(device.set_power_state(config.power_state))
        )
    if config.alpm_mode is not None:
        if not isinstance(device, SimulatedSSD):
            raise ValueError("ALPM control is modelled for SATA SSDs only")
        alpm = AlpmController(device)
        engine.run_until_complete(engine.process(alpm.set_mode(config.alpm_mode)))


def run_experiment(
    config: ExperimentConfig,
    tracer: Optional[Tracer] = None,
    profiler: Optional[RunProfiler] = None,
    audit=None,
) -> ExperimentResult:
    """Run one experiment end to end and return its results.

    Args:
        config: The experiment to run.
        tracer: Optional :class:`repro.obs.events.Tracer`; the engine and
            every device component emit structured events through it.
            Tracing is strictly passive -- results are bit-identical with
            and without it (the test suite asserts this).
        profiler: Optional :class:`repro.obs.profile.RunProfiler`
            collecting wall-clock cost and kernel-event throughput.
        audit: Optional :class:`repro.validate.audit.RailAudit` attached
            to the device's power rail for per-component energy
            accounting.  Like tracing, auditing is strictly passive:
            results are bit-identical with and without it.

    >>> from repro.iogen import IoPattern, JobSpec
    >>> cfg = ExperimentConfig(
    ...     device="ssd3",
    ...     job=JobSpec(IoPattern.RANDREAD, block_size=4096, iodepth=4,
    ...                 runtime_s=0.02, size_limit_bytes=1 << 20),
    ... )
    >>> result = run_experiment(cfg)
    >>> result.mean_power_w > 0
    True
    """
    wall_start = RunProfiler.clock() if profiler is not None else 0.0
    engine = Engine(tracer=tracer)
    device = policy_runtime = None
    try:
        if tracer is not None and tracer.enabled:
            tracer.set_scope(config.describe())
        rngs = RngStreams(config.seed)
        faults = (
            FaultInjector(engine, config.faults, rngs)
            if config.faults is not None
            else None
        )
        device = build_device(engine, config.device, rng=rngs, faults=faults)
        if audit is not None:
            device.rail.attach_audit(audit)
        if faults is not None:
            faults.install(device)
        _apply_power_controls(engine, device, config)
        if config.policy is not None:
            # Lazy: runs without a policy must never load repro.policy (the
            # policy row of benchmarks/zero_cost.py proves it).
            from repro.policy.runtime import PolicyRuntime

            policy_runtime = PolicyRuntime(engine, device, config.policy, rngs)

        job = FioJob(engine, device, config.job, rng=rngs.get("io.offsets"))
        fastpath_summary = None
        if config.fastpath is not None:
            # Lazy, like policy: runs without a fastpath must never load
            # repro.sim.fastpath (the poisoned-import test pins this).
            from repro.sim.fastpath import drive_job

            fastpath_summary = drive_job(
                engine, device, job, config, config.fastpath
            )
        else:
            # Not engine.run(): housekeeping processes never finish.
            engine.run_until_complete(job.start())

        job_result = job.result(warmup_fraction=config.warmup_fraction)
        meter = PowerMeter(device.rail, config.meter, rng=rngs.get("meter"))
        t_measure, t_end = job_result.measure_window
        if t_end - t_measure < 2.0 / meter.sample_rate_hz:
            # Degenerate (ultra-short) runs: measure the full span instead.
            t_measure, t_end = job_result.start_time, job_result.end_time
        trace = meter.measure(t_measure, t_end, label=config.describe())
        power = summarize_samples(trace)
        cap_w = None
        if isinstance(device, SimulatedSSD):
            # intended_cap_w survives an injected governor failure, so the
            # result still knows which cap the run was *supposed* to honour.
            cap_w = device.governor.intended_cap_w
        if profiler is not None:
            profiler.record(
                label=config.describe(),
                wall_s=RunProfiler.clock() - wall_start,
                sim_events=engine.events_processed,
                sim_time_s=engine.now,
                sim_events_fast_forwarded=engine.events_fast_forwarded,
            )
        return ExperimentResult(
            config=config,
            job=job_result,
            power=power,
            true_mean_power_w=device.rail.trace.mean(t_measure, t_end),
            cap_w=cap_w,
            trace=trace if config.keep_trace else None,
            faults=faults.summary() if faults is not None else None,
            policy=(
                policy_runtime.summary() if policy_runtime is not None else None
            ),
            fastpath=fastpath_summary,
        )
    finally:
        # The result exists (or the run raised): end the simulation so
        # reference counting frees its graph now, not the cyclic collector
        # some time later (DESIGN.md section 10, "Run lifetime").
        engine.close()
        if device is not None:
            device.close()
        if policy_runtime is not None:
            policy_runtime.close()
