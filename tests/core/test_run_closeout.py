"""One pair of bookends around the executor.

``ExecutionOptions.opened()`` opens a run's result cache and run ledger
once, and ``ExecutionOptions.close_run()`` writes the run's one ``run``
record.  Every orchestrator -- ``sweep_outcome`` and the policy, chaos
and fleet studies -- goes through both, so a run record carries the
cache's statistics whether the cache was given as a directory path or
as an open ``ResultCache``.  What runs stays on the configs: a
sweep-wide policy lives on ``SweepGrid``, and the fastpath rider is
applied by the batch engine itself, so ``run_configs`` and
``sweep_outcome`` run the same configs.
"""

import pickle
from dataclasses import replace

import pytest

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig
from repro.core.ledger import RunLedger
from repro.core.options import ExecutionOptions
from repro.core.parallel import ResultCache, config_content_hash, run_configs
from repro.core.sweep import SweepGrid, sweep_outcome
from repro.faults.campaign import run_campaign
from repro.fleet.cluster import FleetSpec, run_fleet
from repro.iogen.spec import IoPattern, JobSpec
from repro.policy import BudgetSchedule, PolicySpec
from repro.sim.fastpath import FastpathOptions
from repro.studies import policy_tracking
from repro.studies.common import StudyScale

#: Small stop rules: every study phase runs, in well under a second.
TINY = StudyScale(
    ssd_runtime_s=0.02,
    ssd_bytes=12 * MiB,
    hdd_runtime_s=1.0,
    hdd_bytes=12 * MiB,
)


class TestOpened:
    def test_paths_become_a_cache_and_a_ledger(self, tmp_path):
        opts = ExecutionOptions(
            cache_dir=tmp_path / "cache", ledger=tmp_path / "ledger.jsonl"
        ).opened()
        assert isinstance(opts.cache_dir, ResultCache)
        assert isinstance(opts.ledger, RunLedger)
        assert opts.cache_dir.root == tmp_path / "cache"
        assert opts.ledger.path == tmp_path / "ledger.jsonl"

    def test_open_objects_pass_through(self, tmp_path):
        opts = ExecutionOptions(
            cache_dir=tmp_path / "cache", ledger=tmp_path / "ledger.jsonl"
        ).opened()
        assert opts.opened() is opts
        assert ExecutionOptions().opened() == ExecutionOptions()

    def test_each_open_of_a_path_keeps_its_own_stats(self, tmp_path):
        options = ExecutionOptions(cache_dir=tmp_path)
        assert options.opened().cache_dir is not options.opened().cache_dir


class TestCloseRun:
    def test_without_a_ledger_nothing_is_written(self, tmp_path):
        opts = ExecutionOptions(cache_dir=tmp_path / "cache").opened()
        opts.close_run("sweep", points=1)
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]
        assert list((tmp_path / "cache").iterdir()) == []

    def test_record_carries_counts_cache_stats_and_payload(self, tmp_path):
        opts = ExecutionOptions(
            cache_dir=tmp_path / "cache", ledger=tmp_path / "ledger.jsonl"
        ).opened()
        opts.cache_dir.stats.hits = 2
        opts.close_run("chaos", points=3, failures=1, chaos={"cells": 3})
        (record,) = RunLedger.load(tmp_path / "ledger.jsonl")
        assert record["rec"] == "run"
        assert record["kind"] == "chaos"
        assert (record["points"], record["failures"]) == (3, 1)
        assert record["telemetry"]["cache"]["hits"] == 2
        assert record["chaos"] == {"cells": 3}


def _policy(cache_dir, ledger):
    policy_tracking.run(
        TINY,
        devices=("ssd2",),
        policies=("static",),
        cache_dir=cache_dir,
        ledger=ledger,
    )


def _chaos(cache_dir, ledger):
    run_campaign(
        TINY,
        controllers=("static",),
        budget_cells=1,
        cache_dir=cache_dir,
        ledger=ledger,
    )


def _fleet(cache_dir, ledger):
    spec = FleetSpec.sized(2, mix=("ssd3",), epochs=2, tenants=4, seed=3)
    run_fleet(spec, TINY, cache_dir=cache_dir, ledger=ledger)


STUDIES = {"policy": _policy, "chaos": _chaos, "fleet": _fleet}


class TestStudiesRecordCacheStats:
    @pytest.mark.parametrize("kind", sorted(STUDIES))
    def test_a_cache_path_reaches_the_run_record(self, tmp_path, kind):
        """Given a directory path, a study opens one cache for all its
        phases, and its run record counts every lookup: the first call
        misses and writes every point, an identical second call only
        hits."""
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(2):
            STUDIES[kind](tmp_path / "cache", ledger)
        first, second = [
            record["telemetry"]["cache"]
            for record in RunLedger.load(ledger)
            if record["rec"] == "run" and record["kind"] == kind
        ]
        assert first["misses"] == first["puts"] > 0
        assert first["hits"] == 0
        assert second["hits"] == first["misses"]
        assert second["misses"] == second["puts"] == 0


def _read_grid(**fields):
    """A pm1743 4 KiB sequential-read point the splice engages on."""
    return SweepGrid(
        device="pm1743",
        patterns=(IoPattern.READ,),
        block_sizes=(4 * KiB,),
        iodepths=(8,),
        **fields,
    )


class TestWhatRunsStaysOnTheConfigs:
    def test_run_configs_applies_the_fastpath_as_the_sweep_does(self):
        grid = _read_grid()
        options = ExecutionOptions(fastpath=FastpathOptions())
        swept = list(sweep_outcome(grid, options).results.values())
        batch = run_configs([grid.config_for(p) for p in grid.points()], options)
        assert swept[0].fastpath.engaged, swept[0].fastpath.describe()
        assert [r.fastpath for r in batch] == [r.fastpath for r in swept]
        assert pickle.dumps(batch) == pickle.dumps(swept)

    def test_run_configs_refuses_to_validate(self):
        config = ExperimentConfig(
            device="ssd3",
            job=JobSpec(
                IoPattern.RANDREAD,
                block_size=4 * KiB,
                iodepth=1,
                runtime_s=0.01,
                size_limit_bytes=1 * MiB,
            ),
        )
        with pytest.raises(ValueError, match="sweep_outcome"):
            run_configs([config], ExecutionOptions(validate=True))

    def test_grid_policy_hashes_as_the_stamped_config_did(self):
        spec = PolicySpec(
            kind="static",
            budget=BudgetSchedule.constant(10.0),
            interval_s=1.5e-3,
            window_s=3e-3,
        )
        plain, governed = _read_grid(), _read_grid(policy=spec)
        for point in plain.points():
            stamped = replace(plain.config_for(point), policy=spec)
            assert governed.config_for(point) == stamped
            assert config_content_hash(
                governed.config_for(point)
            ) == config_content_hash(stamped)
