"""``ExecutionOptions`` and the entry points that take it.

One frozen options object carries everything about *how* a sweep
executes.  ``run_sweep``, ``sweep_outcome`` and ``run_configs`` accept
nothing else in its place: a bare worker count, ``None`` or a stray
keyword is a ``TypeError`` at the boundary, never a silently different
execution plan.
"""

import dataclasses
import warnings

import pytest

from repro._units import KiB, MiB
from repro.core.options import ExecutionOptions
from repro.core.parallel import run_configs
from repro.core.sweep import SweepGrid, run_sweep, sweep_outcome
from repro.iogen.spec import IoPattern, JobSpec
from tests.conftest import tiny_ssd_config


def quick_job():
    return JobSpec(
        IoPattern.RANDREAD,
        block_size=16 * KiB,
        iodepth=2,
        runtime_s=0.01,
        size_limit_bytes=4 * MiB,
    )


def small_grid():
    return SweepGrid(
        device=tiny_ssd_config(),
        patterns=(IoPattern.RANDREAD,),
        block_sizes=(16 * KiB,),
        iodepths=(1, 4),
        power_states=(0,),
        base_job=quick_job(),
    )


class TestExecutionOptions:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.n_workers == 1
        assert opts.cache_dir is None
        assert opts.tracer is None
        assert opts.telemetry is False
        assert opts.timeout_s is None
        assert opts.retries == 0
        assert opts.ledger is None
        # The whole settable surface, all of it *how* a batch runs:
        # there is no resume switch (a re-run over the same cache_dir
        # skips every cached point), and a sweep-wide policy is part of
        # what runs, so it lives on SweepGrid.
        assert [f.name for f in dataclasses.fields(ExecutionOptions)] == [
            "n_workers", "cache_dir", "tracer", "timeout_s", "retries",
            "validate", "fastpath", "telemetry", "ledger", "progress",
        ]

    def test_frozen(self):
        opts = ExecutionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.n_workers = 4

    def test_evolve_returns_new_instance(self):
        opts = ExecutionOptions(n_workers=2)
        evolved = opts.evolve(retries=3)
        assert evolved is not opts
        assert evolved.n_workers == 2
        assert evolved.retries == 3
        assert opts.retries == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_workers=0),
            dict(n_workers=-1),
            dict(timeout_s=0.0),
            dict(timeout_s=-5.0),
            dict(retries=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionOptions(**kwargs)


class TestSignature:
    """The options slot takes an ``ExecutionOptions`` and nothing else."""

    def test_run_sweep_rejects_string_worker_count(self):
        with pytest.raises(TypeError, match="must be an ExecutionOptions"):
            run_sweep(small_grid(), "4")

    @pytest.mark.parametrize("bad", [None, 2])
    def test_entry_points_reject_non_options(self, bad):
        """``None`` once meant "all cores" here and a bare int a worker
        count; both now fail loudly instead of picking a pool width."""
        grid = small_grid()
        configs = [grid.config_for(point) for point in grid.points()]
        for call in (
            lambda: run_sweep(grid, bad),
            lambda: sweep_outcome(grid, bad),
            lambda: run_configs(configs, bad),
        ):
            with pytest.raises(TypeError, match="ExecutionOptions"):
                call()

    def test_run_sweep_rejects_typoed_kwarg(self):
        with pytest.raises(TypeError, match="n_worker"):
            run_sweep(small_grid(), n_worker=2)

    def test_cli_path_does_not_warn(self):
        """repro.cli routes through ExecutionOptions -- no deprecations."""
        grid = small_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = sweep_outcome(
                grid, ExecutionOptions(n_workers=1, retries=1, timeout_s=60.0)
            )
        assert not outcome.failures
