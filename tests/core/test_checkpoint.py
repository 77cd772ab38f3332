"""Tests for the checkpoint journal and sweep resume.

The capstone test interrupts a real sweep subprocess with SIGINT mid-run
and resumes it in-process, asserting that only the unfinished points are
recomputed -- the exact crash-recovery story ``repro sweep --resume`` sells.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro._units import KiB, MiB
from repro.core import parallel
from repro.core.checkpoint import CheckpointEntry, CheckpointJournal, PointState
from repro.core.options import ExecutionOptions
from repro.core.parallel import run_configs
from repro.core.sweep import SweepGrid, run_sweep, sweep_outcome
from repro.iogen.spec import IoPattern, JobSpec
from tests.conftest import tiny_ssd_config

SRC = str(Path(__file__).resolve().parents[2] / "src")


def quick_job():
    return JobSpec(
        IoPattern.RANDREAD,
        block_size=16 * KiB,
        iodepth=4,
        runtime_s=0.01,
        size_limit_bytes=4 * MiB,
    )


def small_grid(**overrides):
    defaults = dict(
        device=tiny_ssd_config(),
        patterns=(IoPattern.RANDREAD,),
        block_sizes=(16 * KiB, 64 * KiB),
        iodepths=(1, 8),
        power_states=(0,),
        base_job=quick_job(),
    )
    defaults.update(overrides)
    return SweepGrid(**defaults)


class TestJournal:
    def test_round_trip_last_entry_wins(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record("a", PointState.IN_FLIGHT)
            journal.record("b", PointState.IN_FLIGHT)
            journal.record("a", PointState.DONE, attempt=1)
            journal.record("b", PointState.FAILED, attempt=1, detail="boom")
            journal.record("b", PointState.IN_FLIGHT, attempt=2)
        entries = CheckpointJournal.load(path)
        assert entries["a"].state is PointState.DONE
        assert not entries["a"].interrupted
        assert entries["b"].state is PointState.IN_FLIGHT
        assert entries["b"].attempt == 2
        assert entries["b"].interrupted

    def test_missing_journal_loads_empty(self, tmp_path):
        assert CheckpointJournal.load(tmp_path / "absent.jsonl") == {}

    def test_torn_and_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path) as journal:
            journal.record("a", PointState.DONE)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"key": "b", "state": "no-such-state"}\n')
            fh.write('{"key": "c", "state": "do')  # torn tail, no newline
        entries = CheckpointJournal.load(path)
        assert set(entries) == {"a"}
        assert entries["a"].state is PointState.DONE

    def test_fresh_truncates_append_preserves(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal(path)
        journal.open(fresh=True)
        journal.record("a", PointState.DONE)
        journal.close()
        journal.open(fresh=False)
        journal.record("b", PointState.DONE)
        journal.close()
        assert set(CheckpointJournal.load(path)) == {"a", "b"}
        journal.open(fresh=True)
        journal.close()
        assert CheckpointJournal.load(path) == {}

    def test_record_requires_open(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ck.jsonl")
        with pytest.raises(RuntimeError, match="not open"):
            journal.record("a", PointState.DONE)

    def test_summarize(self):
        entries = {
            "a": CheckpointEntry("a", PointState.DONE),
            "b": CheckpointEntry("b", PointState.DONE),
            "c": CheckpointEntry("c", PointState.IN_FLIGHT),
            "d": CheckpointEntry("d", PointState.EXHAUSTED),
        }
        assert CheckpointJournal.summarize(entries) == (
            "2 done, 1 in-flight, 1 exhausted"
        )
        assert CheckpointJournal.summarize({}) == "empty journal"


class TestJournaledExecution:
    def test_interrupt_leaves_in_flight_entry(self, tmp_path, monkeypatch):
        """A Ctrl-C mid-sweep must leave the running point IN_FLIGHT."""
        grid = small_grid()
        configs = [grid.config_for(p) for p in grid.points()]
        real = parallel.run_experiment
        seen = []

        def interrupt_second(config):
            seen.append(config)
            if len(seen) == 2:
                raise KeyboardInterrupt
            return real(config)

        monkeypatch.setattr(parallel, "run_experiment", interrupt_second)
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal(path)
        journal.open(fresh=True)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_configs(
                    configs, ExecutionOptions(n_workers=1), journal=journal
                )
        finally:
            journal.close()
        entries = CheckpointJournal.load(path)
        states = [entry.state for entry in entries.values()]
        assert states.count(PointState.DONE) == 1
        assert states.count(PointState.IN_FLIGHT) == 1

    def test_resume_requires_cache_and_checkpoint(self, tmp_path):
        grid = small_grid()
        with pytest.raises(ValueError, match="resume requires cache_dir"):
            sweep_outcome(
                grid,
                ExecutionOptions(resume=True, checkpoint=tmp_path / "ck.jsonl"),
            )
        with pytest.raises(ValueError, match="checkpoint journal"):
            sweep_outcome(grid, ExecutionOptions(resume=True, cache_dir=tmp_path))

    def test_resume_skips_completed_points(self, tmp_path, monkeypatch):
        grid = small_grid()
        ck = tmp_path / "ck.jsonl"
        cache = tmp_path / "cache"
        # Simulate an interrupted sweep by completing only half the grid.
        partial = small_grid(block_sizes=(16 * KiB,))
        first = run_sweep(partial, ExecutionOptions(cache_dir=cache, checkpoint=ck))
        assert len(first) == 2

        real = parallel.run_experiment
        executed = []

        def counting(config):
            executed.append(config)
            return real(config)

        monkeypatch.setattr(parallel, "run_experiment", counting)
        results = run_sweep(
            grid, ExecutionOptions(cache_dir=cache, checkpoint=ck, resume=True)
        )
        assert len(results) == 4
        # Only the two 64 KiB points were recomputed.
        assert len(executed) == 2
        assert all(c.job.block_size == 64 * KiB for c in executed)
        entries = CheckpointJournal.load(ck)
        done = [e for e in entries.values() if e.state is PointState.DONE]
        assert len(done) == 4
        assert sum(e.detail == "cached" for e in done) == 2


SIGINT_SCRIPT = """
import time
from repro.core import parallel

real = parallel.run_experiment

def slow(config):
    time.sleep(0.5)  # widen the window so SIGINT lands mid-sweep
    return real(config)

parallel.run_experiment = slow

from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, run_sweep
from repro.iogen.spec import IoPattern, JobSpec

grid = SweepGrid(
    device="ssd3",
    patterns=(IoPattern.RANDREAD,),
    block_sizes=(16384, 65536),
    iodepths=(1, 8),
    base_job=JobSpec(
        IoPattern.RANDREAD,
        block_size=4096,
        iodepth=1,
        runtime_s=0.01,
        size_limit_bytes=2 * 1024 * 1024,
    ),
    seed=5,
)
run_sweep(
    grid, ExecutionOptions(n_workers=1, cache_dir={cache!r}, checkpoint={ck!r})
)
print("finished-uninterrupted", flush=True)
"""


class TestSigintResume:
    def _parent_grid(self):
        return SweepGrid(
            device="ssd3",
            patterns=(IoPattern.RANDREAD,),
            block_sizes=(16384, 65536),
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

    def test_interrupted_sweep_resumes_without_recomputing(
        self, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "cache")
        ck = str(tmp_path / "ck.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", SIGINT_SCRIPT.format(cache=cache, ck=ck)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            # Wait for at least one completed point, then interrupt.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                entries = CheckpointJournal.load(ck)
                if any(
                    e.state is PointState.DONE for e in entries.values()
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep subprocess never completed a point")
            proc.send_signal(signal.SIGINT)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert "finished-uninterrupted" not in stdout

        entries = CheckpointJournal.load(ck)
        done_before = sum(
            e.state is PointState.DONE for e in entries.values()
        )
        assert 1 <= done_before < 4, CheckpointJournal.summarize(entries)

        real = parallel.run_experiment
        executed = []

        def counting(config):
            executed.append(config)
            return real(config)

        monkeypatch.setattr(parallel, "run_experiment", counting)
        results = run_sweep(
            self._parent_grid(),
            ExecutionOptions(
                n_workers=1, cache_dir=cache, checkpoint=ck, resume=True
            ),
        )
        assert len(results) == 4
        # Resume recomputed exactly the points the interrupt lost.
        assert len(executed) == 4 - done_before
        final = CheckpointJournal.load(ck)
        assert sum(e.state is PointState.DONE for e in final.values()) == 4
