"""Engineering benchmark: fault-injection overhead.

The fault subsystem promises **zero** cost when no plan is configured:
devices carry the ``NULL_INJECTOR`` singleton and every fault site pays
one attribute flag test.  An *inert* ``FaultPlan()`` (constructed but
with no specs) attaches a real injector whose sites all short-circuit on
``enabled`` -- it must reproduce the no-injector sweep **bit-identically**
(the injector never draws from any RNG stream), at indistinguishable
cost.  An active plan is then timed for documentation: injected retries
and latency spikes do extra simulated work, so that row is expected to
be slower and is asserted only for plausibility, not budget.

Three rows: no-faults baseline, inert-plan equivalence (bit-identity
asserted across mean/true power and throughput), and an active
io_error + spike plan.
"""

from repro._units import KiB, MiB
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, run_sweep
from repro.faults import FaultPlan, IoErrorSpec, LatencySpikeSpec
from repro.iogen.spec import IoPattern, JobSpec


def _grid(faults=None) -> SweepGrid:
    return SweepGrid(
        device="ssd2",
        patterns=(IoPattern.RANDREAD,),
        block_sizes=(64 * KiB, 256 * KiB),
        iodepths=(8, 64),
        base_job=JobSpec(
            pattern=IoPattern.RANDREAD,
            block_size=4096,
            iodepth=1,
            runtime_s=0.05,
            size_limit_bytes=32 * MiB,
        ),
        faults=faults,
    )


ACTIVE_PLAN = FaultPlan(
    io_errors=IoErrorSpec(probability=0.05, retry_cost_s=5e-4),
    latency_spikes=(
        LatencySpikeSpec(
            start_s=0.01, duration_s=0.01, extra_s=2e-4, repeat_every_s=0.02
        ),
    ),
)


def test_baseline_no_faults(benchmark):
    """The default path: no plan, devices hold the NULL_INJECTOR."""
    results = benchmark.pedantic(
        lambda: run_sweep(_grid(), ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4
    assert all(r.faults is None for r in results.values())


def test_inert_plan_bit_identical(benchmark):
    """An empty FaultPlan must match the no-injector run bit for bit."""
    results = benchmark.pedantic(
        lambda: run_sweep(_grid(FaultPlan()), ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4
    baseline = run_sweep(_grid(), ExecutionOptions(n_workers=1))
    for point, result in results.items():
        assert result.mean_power_w == baseline[point].mean_power_w
        assert result.true_mean_power_w == baseline[point].true_mean_power_w
        assert result.throughput_bps == baseline[point].throughput_bps
        # The inert injector reports empty accounting, nothing more.
        assert result.faults.total == 0


def test_active_plan_documented(benchmark):
    """Faults firing: retries + spikes cost simulated work by design."""
    results = benchmark.pedantic(
        lambda: run_sweep(_grid(ACTIVE_PLAN), ExecutionOptions(n_workers=1)),
        iterations=1,
        rounds=3,
    )
    assert len(results) == 4
    assert sum(r.faults.count("io_error") for r in results.values()) > 0
