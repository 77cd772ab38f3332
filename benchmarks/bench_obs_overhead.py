"""Engineering benchmark: observability overhead.

The tracing layer promises **~0 %** overhead when disabled: every engine
carries the ``NULL_TRACER`` singleton and instrumentation sites pay one
class-attribute flag test.  With a full tracer + metrics collector +
profiler attached the budget is **< 5 %** on the paper's representative
read grids; the dense-write stress grid below documents the worst case
(every NAND program unit consults the power governor, so the event rate
approaches the kernel event rate and pure-Python emission cost -- about
2-3 us/event after the slots/memo optimizations -- becomes visible,
measured around 15-20 %).

Five rows: untraced read baseline, explicit NullTracer (must match the
baseline), fully-traced read grid, and an untraced/traced write-stress
pair.  Equivalence is asserted, not just timed: traced sweeps must
reproduce baseline results exactly (the passivity invariant pinned
per-experiment by ``tests/obs/test_equivalence.py``).
"""

from repro._units import KiB, MiB
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, run_sweep
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs.events import NullTracer, Tracer
from repro.obs.metrics import MetricsCollector
from repro.obs.profile import RunProfiler


def _grid(pattern: IoPattern) -> SweepGrid:
    return SweepGrid(
        device="ssd2",
        patterns=(pattern,),
        block_sizes=(64 * KiB, 256 * KiB),
        iodepths=(8, 64),
        base_job=JobSpec(
            pattern=pattern,
            block_size=4096,
            iodepth=1,
            runtime_s=0.05,
            size_limit_bytes=32 * MiB,
        ),
    )


def _read_grid() -> SweepGrid:
    """The paper's common case: read IOs, no GC / write-buffer churn."""
    return _grid(IoPattern.RANDREAD)


def _write_grid() -> SweepGrid:
    """Stress case: writes drive the governor once per NAND program unit."""
    return _grid(IoPattern.RANDWRITE)


def _traced_sweep(grid: SweepGrid):
    tracer = Tracer()
    tracer.subscribe(MetricsCollector())
    results = run_sweep(
        grid,
        ExecutionOptions(n_workers=1, tracer=tracer, profiler=RunProfiler()),
    )
    return results, tracer


def test_baseline_untraced(benchmark):
    """The default path: engines fall back to the NULL_TRACER singleton."""
    results = benchmark.pedantic(
        lambda: run_sweep(_read_grid(), ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4


def test_null_tracer_explicit(benchmark):
    """An explicit NullTracer must cost the same as the default (~0 %)."""
    results = benchmark.pedantic(
        lambda: run_sweep(
            _read_grid(), ExecutionOptions(n_workers=1, tracer=NullTracer())
        ),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4


def test_traced_read_grid(benchmark):
    """Full observability on the read grid: the < 5 % budget row."""
    (results, tracer) = benchmark.pedantic(
        lambda: _traced_sweep(_read_grid()), iterations=1, rounds=3
    )
    assert len(results) == 4
    assert len(tracer.events) > 0
    baseline = run_sweep(_read_grid(), ExecutionOptions(n_workers=1))
    for point, result in results.items():
        assert result.mean_power_w == baseline[point].mean_power_w
        assert result.throughput_bps == baseline[point].throughput_bps


def test_baseline_write_stress(benchmark):
    """Untraced comparator for the write-stress row below."""
    results = benchmark.pedantic(
        lambda: run_sweep(_write_grid(), ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4


def test_traced_write_stress(benchmark):
    """Worst case: governor-dense writes.  Documented, not budgeted."""
    (results, tracer) = benchmark.pedantic(
        lambda: _traced_sweep(_write_grid()), iterations=1, rounds=3
    )
    assert len(results) == 4
    # Sanity: the stress grid really is event-dense (governor + cache
    # events on top of IO), or it stops stressing anything.
    assert len(tracer.events) > 4000
    baseline = run_sweep(_write_grid(), ExecutionOptions(n_workers=1))
    for point, result in results.items():
        assert result.mean_power_w == baseline[point].mean_power_w
        assert result.throughput_bps == baseline[point].throughput_bps
