"""Tracing must be strictly passive: results identical on and off.

The whole observability layer rides on one invariant -- enabling a
tracer, metrics collector, or profiler cannot change a single bit of any
:class:`~repro.core.experiment.ExperimentResult`.  These tests pin it
three ways: byte-identical pickles for one experiment, value-identical
sweeps, and event streams that are stable across ``PYTHONHASHSEED``.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, run_sweep
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs.events import Tracer
from repro.obs.metrics import MetricsCollector
from repro.obs.profile import RunProfiler

SRC = str(Path(__file__).resolve().parents[2] / "src")


def quick_config(**overrides):
    defaults = dict(
        device="ssd1",
        job=JobSpec(
            IoPattern.RANDWRITE,
            block_size=64 * KiB,
            iodepth=8,
            runtime_s=0.01,
            size_limit_bytes=2 * MiB,
        ),
        power_state=2,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestTracerOffEquivalence:
    def test_results_byte_identical_with_and_without_tracer(self):
        baseline = run_experiment(quick_config())
        tracer = Tracer()
        tracer.subscribe(MetricsCollector())
        traced = run_experiment(
            quick_config(), tracer=tracer, profiler=RunProfiler()
        )
        assert len(tracer.events) > 0, "sanity: tracing actually happened"
        assert pickle.dumps(traced) == pickle.dumps(baseline)

    def test_hdd_results_unchanged_by_tracing(self):
        config = quick_config(
            device="hdd",
            power_state=None,
            job=JobSpec(
                IoPattern.RANDREAD,
                block_size=64 * KiB,
                iodepth=4,
                runtime_s=0.02,
                size_limit_bytes=1 * MiB,
            ),
        )
        baseline = run_experiment(config)
        traced = run_experiment(config, tracer=Tracer())
        assert pickle.dumps(traced) == pickle.dumps(baseline)

    def test_sweep_values_unchanged_by_tracing(self):
        grid = SweepGrid(
            device="ssd3",
            patterns=(IoPattern.RANDREAD,),
            block_sizes=(16 * KiB, 64 * KiB),
            iodepths=(1, 8),
            power_states=(None,),
            base_job=JobSpec(
                IoPattern.RANDREAD,
                block_size=4096,
                iodepth=1,
                runtime_s=0.01,
                size_limit_bytes=2 * MiB,
            ),
            seed=5,
        )
        plain = run_sweep(grid)
        traced = run_sweep(
            grid, ExecutionOptions(tracer=Tracer(), telemetry=True)
        )
        assert list(traced) == list(plain)
        for point in plain:
            assert pickle.dumps(traced[point]) == pickle.dumps(plain[point])


EVENT_STREAM_SCRIPT = """
from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs.events import Tracer

tracer = Tracer()
run_experiment(
    ExperimentConfig(
        device="ssd1",
        job=JobSpec(IoPattern.RANDWRITE, block_size=64 * KiB, iodepth=8,
                    runtime_s=0.01, size_limit_bytes=2 * MiB),
        power_state=2,
        seed=11,
    ),
    tracer=tracer,
)
for e in tracer.events:
    print(f"{e.time!r}|{e.seq}|{e.kind.value}|{e.component}|{sorted(e.fields.items())!r}")
"""


class TestEventOrderingDeterminism:
    def test_event_stream_identical_across_hash_seeds(self):
        outputs = set()
        for hashseed in ("0", "1", "random"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", EVENT_STREAM_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "event stream differed across hash seeds"
        assert "|io_submit|" in outputs.pop()

    def test_event_order_is_total_and_stable_in_process(self):
        streams = []
        for _ in range(2):
            tracer = Tracer()
            run_experiment(quick_config(), tracer=tracer)
            streams.append(
                [(e.time, e.seq, e.kind, e.component) for e in tracer.events]
            )
        assert streams[0] == streams[1]
        keys = [(t, s) for t, s, _k, _c in streams[0]]
        assert keys == sorted(keys)
