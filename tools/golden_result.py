#!/usr/bin/env python3
"""Canonical bit-exact flattening of experiment results.

The kernel-performance work (and any future hot-path change) is gated on
a hard correctness bar: the optimized simulator must produce *bit-identical*
``ExperimentResult`` values for every catalog device.  Raw ``pickle`` bytes
are the wrong comparison medium -- adding ``__slots__`` to a dataclass or
reordering its fields changes the pickle byte stream without changing a
single simulated value.  This module instead flattens a result to a
canonical JSON structure in which every float is rendered with
``float.hex()`` (a lossless, bit-exact encoding), so two results compare
equal iff every numeric value in them is bit-for-bit identical, regardless
of class layout.

Used by ``tests/kernel/test_golden_equivalence.py`` (fixtures live in
``tests/kernel/golden/``) and regenerable via::

    PYTHONPATH=src python tools/golden_result.py --write

Regenerating is only legitimate when simulated *behaviour* is meant to
change (a model fix, a new noise draw order); a perf-only PR must leave
these fixtures untouched.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "kernel" / "golden"


def flatten(obj: object) -> object:
    """Flatten a result object tree to a canonical JSON-able structure.

    Floats become ``float.hex()`` strings (bit-exact, including inf/nan);
    dataclasses become ``[type name, [(field, value)...]]`` pairs; numpy
    arrays become lists of hex floats; an ``IoRecords`` view becomes the
    sequence of ``IoRecord`` dataclasses it stands for.  The encoding
    depends only on the *values* a simulation produced, never on class
    layout, ``__slots__``, dict ordering, or pickle protocol details.
    """
    import numpy as np

    from repro.iogen.stats import IoRecord, IoRecords

    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, flatten(obj.value)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, flatten(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, IoRecords):
        # Exactly as the tuple of IoRecord it stands for, read by column.
        names = [f.name for f in dataclasses.fields(IoRecord)]
        columns = [getattr(obj, name).tolist() for name in names]
        return [
            "seq",
            [
                [
                    IoRecord.__name__,
                    [[name, flatten(v)] for name, v in zip(names, row)],
                ]
                for row in zip(*columns)
            ],
        ]
    if isinstance(obj, np.ndarray):
        return ["ndarray", [flatten(v) for v in obj.tolist()]]
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return [
            "dict",
            sorted(
                ([flatten(k), flatten(v)] for k, v in obj.items()), key=repr
            ),
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [flatten(item) for item in obj]]
    raise TypeError(
        f"golden flattening does not know how to encode {type(obj).__name__}"
    )


def golden_configs() -> dict:
    """The pinned per-device-class experiments the goldens cover.

    One governed write path and one read path per catalog device; the
    capped SSD additionally runs under a non-default power state so the
    governor admission loop is exercised.  Stop conditions are small
    enough that the whole golden suite replays in a few seconds.
    """
    from repro._units import MiB
    from repro.core.experiment import ExperimentConfig
    from repro.iogen.spec import IoPattern, JobSpec

    def job(pattern: IoPattern, iodepth: int) -> JobSpec:
        return JobSpec(
            pattern=pattern,
            block_size=64 * 1024,
            iodepth=iodepth,
            runtime_s=0.02,
            size_limit_bytes=8 * MiB,
        )

    configs = {}
    for device in ("ssd1", "ssd2", "ssd3", "hdd"):
        configs[f"{device}_randwrite"] = ExperimentConfig(
            device=device, job=job(IoPattern.RANDWRITE, 8), seed=7
        )
        configs[f"{device}_randread"] = ExperimentConfig(
            device=device, job=job(IoPattern.RANDREAD, 8), seed=7
        )
    # Governor admission under a real cap (ssd2 publishes NVMe states).
    configs["ssd2_randwrite_ps2"] = ExperimentConfig(
        device="ssd2", job=job(IoPattern.RANDWRITE, 16), power_state=2, seed=7
    )
    configs["ssd2_seqwrite"] = ExperimentConfig(
        device="ssd2", job=job(IoPattern.WRITE, 4), seed=7
    )
    # Online policy runtime: the feedback controller tracking a step
    # budget, so the decision trail (ticks, set-point changes, retained
    # samples) is pinned bit-for-bit alongside the physics.
    from repro.policy import BudgetSchedule, PolicySpec

    configs["ssd2_policy_feedback"] = ExperimentConfig(
        device="ssd2",
        job=job(IoPattern.RANDWRITE, 8),
        seed=7,
        policy=PolicySpec(
            kind="feedback",
            budget=BudgetSchedule.step(high_w=14.0, low_w=9.0, period_s=0.01),
            interval_s=1.5e-3,
            window_s=3e-3,
        ),
    )
    configs["ssd2_policy_ladder"] = ExperimentConfig(
        device="ssd2",
        job=job(IoPattern.RANDWRITE, 8),
        seed=7,
        policy=PolicySpec(
            kind="ladder",
            budget=BudgetSchedule.diurnal(high_w=13.0, low_w=8.0, period_s=0.02),
            interval_s=2e-3,
            window_s=4e-3,
        ),
    )
    configs.update(cold_path_configs())
    return configs


def tiny_ssd_config(**overrides):
    """A 4-channel x 2-die SSD with 8-page blocks: GC is reachable fast.

    A copy of ``tests/conftest.py::tiny_ssd_config``, not an import: the
    cold-path fixtures pin this exact config, and must not move when a
    test helper is edited.
    """
    from repro._units import MiB
    from repro.devices.power_states import NvmePowerState
    from repro.devices.ssd import ControllerConfig, SsdConfig
    from repro.ftl.gc import GcConfig
    from repro.nand.geometry import NandGeometry
    from repro.nand.ops import NandPower, NandTimings

    defaults = dict(
        name="tiny",
        geometry=NandGeometry(
            channels=4,
            dies_per_channel=2,
            planes_per_die=1,
            blocks_per_plane=8,
            pages_per_block=8,
            page_size=16 * 1024,
        ),
        timings=NandTimings(t_read=47e-6, t_program=300e-6, t_erase=2e-3),
        nand_power=NandPower(p_read=0.05, p_program=0.3, p_erase=0.25),
        channel_bandwidth=1.0e9,
        channel_transfer_power_w=0.2,
        link_bandwidth=2.0e9,
        link_transfer_power_w=0.5,
        controller=ControllerConfig(
            cores=2,
            command_time_s=5e-6,
            core_active_power_w=0.4,
            idle_power_w=1.0,
            completion_time_s=2e-6,
        ),
        dram_power_w=0.3,
        write_buffer_bytes=1 * MiB,
        power_states=(
            NvmePowerState(0, 20.0, True, 0.0, 0.0, 1.5),
            NvmePowerState(1, 3.5, True, 20e-6, 20e-6, 1.5),
            NvmePowerState(2, 2.8, True, 20e-6, 20e-6, 1.5),
            NvmePowerState(3, 20.0, False, 1e-3, 2e-3, 0.4),
        ),
        governor_baseline_w=1.5,
        governor_headroom_w=0.6,
        overprovision=0.4,
        gc=GcConfig(low_watermark=4, high_watermark=8),
        maintenance_programs=0,
    )
    defaults.update(overrides)
    return SsdConfig(**defaults)


def io_path_faults():
    """The fault plan the faulted cold-path runs share: IO errors,
    latency spikes, a thermal throttle and stuck transitions."""
    from repro.faults.plan import (
        FaultPlan,
        IoErrorSpec,
        LatencySpikeSpec,
        StuckTransitionSpec,
        ThermalThrottleSpec,
    )

    return FaultPlan(
        io_errors=IoErrorSpec(probability=0.05, retry_cost_s=2e-4),
        latency_spikes=(
            LatencySpikeSpec(
                start_s=2e-3, duration_s=2e-3, extra_s=3e-4, repeat_every_s=8e-3
            ),
        ),
        thermal_throttle=ThermalThrottleSpec(
            start_s=4e-3, duration_s=5e-3, cap_scale=0.6
        ),
        stuck_transitions=StuckTransitionSpec(probability=1.0, max_stuck=2),
    )


def cold_path_configs() -> dict:
    """Runs that reach the control-plane paths the 8 MiB grid never does.

    Garbage collection, APST doze and wake, housekeeping bursts sharing
    dies and the governor with host flushes, every IO-path fault, an
    ALPM slumber wake, and the HDD's cold paths.  Each stays well under
    a second of CPU.
    """
    import dataclasses

    from repro._units import KiB, MiB
    from repro.core.experiment import ExperimentConfig
    from repro.devices.catalog import ssd_d7p5510
    from repro.devices.link import LinkPowerMode
    from repro.faults.plan import FaultPlan, StuckTransitionSpec
    from repro.iogen.spec import IoPattern, JobSpec

    def job(pattern, block_kib, iodepth, runtime_s, size_mib, **extra):
        return JobSpec(
            pattern=pattern,
            block_size=block_kib * KiB,
            iodepth=iodepth,
            runtime_s=runtime_s,
            size_limit_bytes=size_mib * MiB,
            **extra,
        )

    faults = io_path_faults()
    return {
        "tiny_gc_randwrite": ExperimentConfig(
            device=tiny_ssd_config(),
            job=job(IoPattern.RANDWRITE, 16, 16, 0.2, 64),
            seed=7,
        ),
        # GC under a cap: pulsed relocation programs, fault delays inside
        # relocations, and GC admissions that stall behind host flushes.
        "tiny_gc_faults_ps2": ExperimentConfig(
            device=tiny_ssd_config(program_pulse_ratio=1.2),
            job=job(IoPattern.RANDWRITE, 16, 16, 0.2, 64),
            power_state=2,
            faults=faults,
            seed=7,
        ),
        "tiny_apst_randwrite": ExperimentConfig(
            device=tiny_ssd_config(apst_idle_timeout_s=2e-4),
            job=job(IoPattern.RANDWRITE, 16, 2, 0.03, 64, host_overhead_s=1e-3),
            seed=7,
        ),
        # Every APST doze and every wake sticks: both re-pay their latency.
        "tiny_apst_stuck": ExperimentConfig(
            device=tiny_ssd_config(apst_idle_timeout_s=2e-4),
            job=job(IoPattern.RANDWRITE, 16, 2, 0.03, 64, host_overhead_s=1e-3),
            faults=FaultPlan(
                stuck_transitions=StuckTransitionSpec(probability=1.0, max_stuck=2)
            ),
            seed=7,
        ),
        "ssd2_maintenance_ps1": ExperimentConfig(
            device=dataclasses.replace(ssd_d7p5510(), maintenance_interval_s=4e-3),
            job=job(IoPattern.RANDWRITE, 64, 8, 0.02, 64),
            power_state=1,
            seed=7,
        ),
        "ssd2_randwrite_4k_qd64_ps2": ExperimentConfig(
            device="ssd2",
            job=job(IoPattern.RANDWRITE, 4, 64, 0.02, 8),
            power_state=2,
            seed=7,
        ),
        "ssd2_faults_randwrite": ExperimentConfig(
            device="ssd2",
            job=job(IoPattern.RANDWRITE, 64, 8, 0.02, 64),
            power_state=1,
            faults=faults,
            seed=7,
        ),
        "ssd2_faults_randread": ExperimentConfig(
            device="ssd2",
            job=job(IoPattern.RANDREAD, 16, 8, 0.02, 64),
            power_state=1,
            faults=faults,
            seed=7,
        ),
        "ssd3_alpm_slumber": ExperimentConfig(
            device="ssd3",
            job=job(IoPattern.RANDWRITE, 64, 4, 0.03, 8),
            alpm_mode=LinkPowerMode.SLUMBER,
            seed=7,
        ),
        **hdd_cold_path_configs(),
    }


def hdd_cold_path_configs() -> dict:
    """HDD runs past the 64 KiB QD8 grid points.

    Write-through media writes, writers parked on a full write cache,
    IO-path faults on both directions, sequential continuations at a
    deep queue, and EPC idle conditions entered by the ladder policy,
    whose recoveries the next media access pays (with stuck retries).
    """
    import dataclasses

    from repro._units import KiB, MiB
    from repro.core.experiment import ExperimentConfig
    from repro.devices.catalog import hdd_exos_7e2000
    from repro.faults.plan import FaultPlan, StuckTransitionSpec
    from repro.iogen.spec import IoPattern, JobSpec
    from repro.policy import BudgetSchedule, PolicySpec

    def job(pattern, block_kib, iodepth, runtime_s=0.02, size_mib=8):
        return JobSpec(
            pattern=pattern,
            block_size=block_kib * KiB,
            iodepth=iodepth,
            runtime_s=runtime_s,
            size_limit_bytes=size_mib * MiB,
        )

    hdd = hdd_exos_7e2000()
    faults = io_path_faults()
    return {
        "hdd_write_through": ExperimentConfig(
            device=dataclasses.replace(hdd, write_cache_enabled=False),
            job=job(IoPattern.RANDWRITE, 4, 8),
            seed=7,
        ),
        "hdd_cache_full": ExperimentConfig(
            device=dataclasses.replace(hdd, cache_bytes=256 * KiB),
            job=job(IoPattern.RANDWRITE, 64, 32),
            seed=7,
        ),
        "hdd_faults_randread": ExperimentConfig(
            device="hdd",
            job=job(IoPattern.RANDREAD, 64, 8, runtime_s=0.2),
            faults=faults,
            seed=7,
        ),
        "hdd_faults_randwrite": ExperimentConfig(
            device="hdd", job=job(IoPattern.RANDWRITE, 64, 8), faults=faults, seed=7
        ),
        "hdd_seqread_4k_qd64": ExperimentConfig(
            device="hdd", job=job(IoPattern.READ, 4, 64), seed=7
        ),
        "hdd_ladder_epc": ExperimentConfig(
            device="hdd",
            job=job(IoPattern.RANDREAD, 64, 2, runtime_s=0.03),
            seed=7,
            faults=FaultPlan(
                stuck_transitions=StuckTransitionSpec(probability=0.5, max_stuck=2)
            ),
            policy=PolicySpec(
                kind="ladder",
                budget=BudgetSchedule.step(high_w=3.5, low_w=2.8, period_s=0.05),
            ),
        ),
    }


def traced_configs() -> dict:
    """The traced cases, whose emitted event streams are pinned.

    A capped ssd2 write, and an HDD write through a 256 KiB cache under
    the IO-path fault plan (cache hits and misses, parked writers, fault
    delays and retries).
    """
    import dataclasses

    from repro._units import KiB, MiB
    from repro.core.experiment import ExperimentConfig
    from repro.devices.catalog import hdd_exos_7e2000
    from repro.iogen.spec import IoPattern, JobSpec

    job = JobSpec(
        pattern=IoPattern.RANDWRITE,
        block_size=64 * KiB,
        iodepth=8,
        runtime_s=0.01,
        size_limit_bytes=4 * MiB,
    )
    return {
        "ssd2_traced_ps2": ExperimentConfig(
            device="ssd2", job=job, power_state=2, seed=7
        ),
        "hdd_traced": ExperimentConfig(
            device=dataclasses.replace(hdd_exos_7e2000(), cache_bytes=256 * KiB),
            job=dataclasses.replace(
                job, block_size=16 * KiB, iodepth=16, runtime_s=0.03
            ),
            faults=io_path_faults(),
            seed=7,
        ),
    }


def compute_traced_golden(name: str) -> object:
    """A traced run's result plus a digest of every emitted event.

    The event stream (a few thousand events) is pinned by count, by a
    per-kind census and by a SHA-256 over its canonical flattening,
    which keeps the fixture small while still failing on one moved bit.
    """
    import hashlib

    from repro.core.experiment import run_experiment
    from repro.obs.events import Tracer

    tracer = Tracer()
    result = run_experiment(traced_configs()[name], tracer=tracer)
    events = tracer.events
    census: dict = {}
    for event in events:
        census[event.kind.value] = census.get(event.kind.value, 0) + 1
    stream = json.dumps(flatten(list(events)), separators=(",", ":"))
    return flatten(
        {
            "result": result,
            "events": len(events),
            "census": census,
            "sha256": hashlib.sha256(stream.encode()).hexdigest(),
        }
    )


def compute_fleet_golden() -> object:
    """Epoch digests of a tiny but complete :func:`run_fleet` day.

    The full :class:`~repro.fleet.cluster.FleetResult` carries rollup and
    validation payloads whose shapes are free to evolve; the *physics* of
    the run is the per-epoch budget/allocation/power/latency digest plus
    the actuator ranges, so exactly that is pinned.
    """
    from repro._units import MiB
    from repro.fleet import FleetSpec, run_fleet
    from repro.studies.common import StudyScale

    scale = StudyScale(
        ssd_runtime_s=0.02,
        ssd_bytes=12 * MiB,
        hdd_runtime_s=1.0,
        hdd_bytes=12 * MiB,
    )
    spec = FleetSpec.sized(
        3, mix=("ssd1", "ssd2", "ssd3"), epochs=2, tenants=8, skew=1.0, seed=5
    )
    result = run_fleet(spec, scale)
    return flatten(
        {
            "epochs": result.epochs,
            "floors_w": result.floors_w,
            "ceilings_w": result.ceilings_w,
        }
    )


def compute_golden(name: str) -> object:
    if name == "fleet_tiny":
        return compute_fleet_golden()
    if name in traced_configs():
        return compute_traced_golden(name)
    from repro.core.experiment import run_experiment

    return flatten(run_experiment(golden_configs()[name]))


def golden_names() -> list:
    """Every golden fixture name, experiment grid plus composite runs."""
    return sorted(golden_configs()) + ["fleet_tiny"] + sorted(traced_configs())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="(re)generate the golden fixtures instead of verifying them",
    )
    args = parser.parse_args(argv)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in golden_names():
        path = GOLDEN_DIR / f"{name}.json"
        flat = compute_golden(name)
        if args.write:
            path.write_text(json.dumps(flat, indent=1) + "\n")
            print(f"wrote {path.relative_to(REPO_ROOT)}")
        else:
            if not path.exists():
                failures.append(f"{name}: missing fixture {path}")
                continue
            if json.loads(path.read_text()) != flat:
                failures.append(f"{name}: result diverged from golden fixture")
            else:
                print(f"ok {name}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
