"""Engineering benchmark: simulation throughput itself.

Not a paper figure -- this tracks the cost of the simulation substrate so
performance regressions in the kernel or device models are visible.  Runs
a fixed random-write workload against SSD2 and reports simulated-IO/s of
wall time via pytest-benchmark's normal statistics (several rounds, unlike
the one-shot figure benches).  A small sequential sweep rides along as the
baseline the parallel-sweep bench (bench_parallel_sweep.py) compares to.
"""

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, run_sweep
from repro.iogen.spec import IoPattern, JobSpec


def _workload():
    return run_experiment(
        ExperimentConfig(
            device="ssd2",
            job=JobSpec(
                IoPattern.RANDWRITE,
                block_size=64 * KiB,
                iodepth=32,
                runtime_s=0.02,
                size_limit_bytes=16 * MiB,
            ),
        )
    )


def test_simulation_throughput(benchmark):
    result = benchmark.pedantic(_workload, iterations=1, rounds=5)
    # Sanity: the workload actually ran.
    assert result.job.records
    assert result.mean_power_w > 0


def test_sweep_throughput(benchmark):
    """Sequential cost of a small mechanism grid (the pre-parallel path)."""
    grid = SweepGrid(
        device="ssd2",
        block_sizes=(16 * KiB, 256 * KiB),
        iodepths=(1, 64),
        base_job=JobSpec(
            IoPattern.RANDWRITE,
            block_size=4096,
            iodepth=1,
            runtime_s=0.02,
            size_limit_bytes=16 * MiB,
        ),
    )
    results = benchmark.pedantic(
        lambda: run_sweep(grid, ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4
