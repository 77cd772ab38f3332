"""Engineering benchmark: parallel sweep scaling.

Not a paper figure -- this times the same fig10-style mechanism grid
executed sequentially and across a process pool, so the speedup (and any
regression in the parallel substrate) is visible next to the simulator
throughput numbers.  Equivalence of the two paths is asserted, not just
timed: parallel execution must reproduce the sequential results exactly.
"""

import os

from repro._units import KiB, MiB
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, run_sweep
from repro.iogen.spec import IoPattern, JobSpec


def _grid() -> SweepGrid:
    # A fig10-scale slice: 4 chunk sizes x 3 queue depths on SSD2.
    return SweepGrid(
        device="ssd2",
        patterns=(IoPattern.RANDWRITE,),
        block_sizes=(16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB),
        iodepths=(1, 8, 64),
        base_job=JobSpec(
            pattern=IoPattern.RANDWRITE,
            block_size=4096,
            iodepth=1,
            runtime_s=0.05,
            size_limit_bytes=32 * MiB,
        ),
    )


def test_sequential_sweep(benchmark):
    results = benchmark.pedantic(
        lambda: run_sweep(_grid(), ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 12


def test_parallel_sweep(benchmark):
    workers = min(4, os.cpu_count() or 1)
    results = benchmark.pedantic(
        lambda: run_sweep(_grid(), ExecutionOptions(n_workers=workers)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 12
    # Point-for-point equivalence with the sequential path.
    sequential = run_sweep(_grid(), ExecutionOptions(n_workers=1))
    assert list(results) == list(sequential)
    for point, result in results.items():
        assert result.mean_power_w == sequential[point].mean_power_w
        assert result.throughput_bps == sequential[point].throughput_bps
