"""The per-point cost record: its clock, its file formats, and the
fast-forwarded events it counts on both executor paths."""

import json

import pytest

from repro._units import KiB, MiB
from repro.cli import main
from repro.core.ledger import RunLedger
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, sweep_outcome
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs.profile import RunProfiler
from repro.sim.fastpath import FastpathOptions


def _grid(**overrides):
    defaults = dict(
        device="ssd3",
        patterns=(IoPattern.RANDREAD,),
        block_sizes=(16 * KiB, 64 * KiB),
        iodepths=(1, 8),
        base_job=JobSpec(
            IoPattern.RANDREAD,
            block_size=4096,
            iodepth=1,
            runtime_s=0.01,
            size_limit_bytes=2 * MiB,
        ),
        seed=5,
    )
    defaults.update(overrides)
    return SweepGrid(**defaults)


class _CountingClock:
    """Advances 0.25 s per read and counts the reads made in this process
    (a forked worker counts into its own copy), like perfbench's
    reference clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        self.now += 0.25
        return self.now


class TestCostClock:
    """perfbench's per-point ``point_s`` is the ledger's ``wall_s``, read
    from ``RunProfiler.clock`` twice per point and nowhere else."""

    @pytest.mark.parametrize("n_workers, parent_reads", [(1, 8), (2, 0)])
    def test_points_are_timed_on_the_profiler_clock(
        self, monkeypatch, tmp_path, n_workers, parent_reads
    ):
        clock = _CountingClock()
        monkeypatch.setattr(RunProfiler, "clock", staticmethod(clock))
        ledger = tmp_path / "ledger.jsonl"
        outcome = sweep_outcome(
            _grid(), ExecutionOptions(n_workers=n_workers, ledger=ledger)
        )
        assert outcome.ok
        points = [r for r in RunLedger.load(ledger) if r["rec"] == "point"]
        assert [r["wall_s"] for r in points] == [0.25] * 4
        assert clock.reads == parent_reads


#: Every key a done point's ledger record carries.
POINT_KEYS = {
    "rec", "v", "key", "label", "device", "seed", "power_state", "pattern",
    "block_size", "iodepth", "status", "attempts", "wall_s", "events_per_s",
    "sim_events", "result",
}
#: ``SweepTelemetry.snapshot()``, also a run record's ``telemetry``.
TELEMETRY_KEYS = {
    "points", "by_status", "retries", "wall_s", "executed_wall_s",
    "sim_events", "events_per_second", "mean_queue_wait_s", "utilization",
    "workers", "cache",
}
#: ``RunProfiler.snapshot()``, the ``profile`` section of ``--metrics``.
PROFILE_KEYS = {
    "points", "n_points", "total_wall_s", "total_sim_events",
    "total_sim_events_fast_forwarded", "events_per_second",
    "effective_events_per_second",
}
PROFILE_POINT_KEYS = {
    "label", "wall_s", "sim_events", "sim_time_s", "events_per_second",
    "sim_events_fast_forwarded", "effective_events_per_second",
}


class TestFormats:
    def test_record_and_snapshot_keys(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        outcome = sweep_outcome(
            _grid(), ExecutionOptions(telemetry=True, ledger=ledger)
        )
        records = RunLedger.load(ledger)
        points = [r for r in records if r["rec"] == "point"]
        (run,) = [r for r in records if r["rec"] == "run"]
        assert len(points) == 4
        assert all(set(r) == POINT_KEYS for r in points)
        assert set(outcome.telemetry.snapshot()) == TELEMETRY_KEYS
        assert set(run["telemetry"]) == TELEMETRY_KEYS

        run_metrics = tmp_path / "run.json"
        sweep_metrics = tmp_path / "sweep.json"
        assert main([
            "run", "--device", "ssd3", "--rw", "randread", "--bs", "16k",
            "--iodepth", "4", "--runtime", "0.01", "--size", "1M",
            "--metrics", str(run_metrics),
        ]) == 0
        assert main([
            "sweep", "--device", "ssd3", "--rw", "randread", "--bs", "16k",
            "--iodepth", "1", "--iodepth", "4", "--runtime", "0.01",
            "--size", "1M", "--metrics", str(sweep_metrics),
        ]) == 0
        capsys.readouterr()
        for path, n_points in ((run_metrics, 1), (sweep_metrics, 2)):
            profile = json.loads(path.read_text())["profile"]
            assert set(profile) == PROFILE_KEYS
            assert profile["n_points"] == n_points
            assert all(set(p) == PROFILE_POINT_KEYS for p in profile["points"])


class TestFastForwardedEvents:
    """The splice's skipped events reach each point's record on both
    executor paths, so a spliced number can be told from an exact one.
    The pm1743 reads engage the splice (as in ``TestSteadyGridPayoff``)."""

    def test_pooled_spans_count_what_in_process_spans_count(self):
        grid = _grid(
            device="pm1743",
            block_sizes=(64 * KiB,),
            iodepths=(8, 16),
            base_job=JobSpec(
                IoPattern.RANDREAD,
                block_size=4096,
                iodepth=1,
                runtime_s=0.5,
                size_limit_bytes=4096 * MiB,
            ),
            seed=11,
        )
        skipped = {}
        for n_workers in (1, 2):
            telemetry = sweep_outcome(
                grid,
                ExecutionOptions(
                    n_workers=n_workers, fastpath=FastpathOptions(), telemetry=True
                ),
            ).telemetry
            skipped[n_workers] = [
                span.profile.sim_events_fast_forwarded for span in telemetry.spans
            ]
            assert "effective ev/s" in telemetry.profile.describe()
        assert len(skipped[1]) == 2 and all(n > 0 for n in skipped[1])
        assert skipped[2] == skipped[1]
