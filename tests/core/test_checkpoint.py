"""Tests for picking up an interrupted sweep: the run ledger's attempt
records say where every point stands, and a re-run over the same result
cache recomputes only what the cache lacks.

The capstone test interrupts a real sweep subprocess with SIGINT mid-run
and re-runs it in-process, asserting that only the unfinished points are
recomputed -- the crash-recovery story of re-running ``repro sweep``
over the same ``--cache``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro._units import KiB, MiB
from repro.cli import main
from repro.core import parallel
from repro.core.ledger import RunLedger, last_attempts
from repro.core.options import ExecutionOptions
from repro.core.parallel import run_configs
from repro.core.report import build_report, render_markdown
from repro.core.sweep import SweepGrid, run_sweep
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


def attempt(key, state, n=1, detail=""):
    record = {"rec": "attempt", "key": key, "state": state, "attempt": n}
    if detail:
        record["detail"] = detail
    return record


def attempt_states(path):
    """Each point's last attempt state in the ledger at ``path``."""
    return [a["state"] for a in last_attempts(RunLedger.load(path)).values()]


def counting_stand_in(monkeypatch):
    """Replace run_experiment with a pass-through that records its calls."""
    real = parallel.run_experiment
    executed = []

    def counting(config, **kwargs):
        # kwargs: with a ledger, the point's profiler rides along.
        executed.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(parallel, "run_experiment", counting)
    return executed


class TestJournal:
    """The ledger's attempt records, read back as each point's last one."""

    def test_round_trip_last_entry_wins(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        for record in (
            attempt("a", "in_flight"),
            attempt("b", "in_flight"),
            attempt("a", "done"),
            attempt("b", "failed", detail="boom"),
            attempt("b", "in_flight", n=2),
        ):
            ledger.append(record)
        last = last_attempts(RunLedger.load(path))
        assert last["a"]["state"] == "done"
        assert last["b"]["state"] == "in_flight"
        assert last["b"]["attempt"] == 2

    def test_torn_and_corrupt_lines_skipped(self, tmp_path):
        """An unknown state and a torn tail are skipped."""
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(attempt("a", "done"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"rec": "attempt", "key": "b", "state": "no-such-state"}\n')
            fh.write('{"rec": "attempt", "key": "c", "state": "do')  # torn tail
        last = last_attempts(RunLedger.load(path))
        assert set(last) == {"a"}
        assert last["a"]["state"] == "done"

    def test_summarize(self):
        """The report counts the points whose last attempt is in flight."""
        records = [
            attempt("a", "in_flight"), attempt("a", "done"),
            attempt("b", "in_flight"), attempt("b", "failed"),
            attempt("b", "in_flight", n=2),
            attempt("c", "in_flight"), attempt("c", "failed"),
            attempt("c", "exhausted"),
            attempt("d", "in_flight"),
        ]
        report = build_report(records)
        assert report["overview"]["in_flight"] == 2
        assert report["overview"]["skipped_records"] == 0
        assert report["ok"] is False
        assert "2 point(s) interrupted mid-attempt" in render_markdown(report)
        clean = build_report(records[:2])
        assert clean["overview"]["in_flight"] == 0
        assert clean["ok"] is True
        assert "interrupted" not in render_markdown(clean)


class TestJournaledExecution:
    @staticmethod
    def _interrupt_second_point(monkeypatch):
        real = parallel.run_experiment
        seen = []

        def interrupt_second(config, **kwargs):
            # kwargs: with a ledger, the point's profiler rides along.
            seen.append(config)
            if len(seen) == 2:
                raise KeyboardInterrupt
            return real(config, **kwargs)

        monkeypatch.setattr(parallel, "run_experiment", interrupt_second)

    def test_interrupt_leaves_in_flight_entry(self, tmp_path, monkeypatch):
        """A Ctrl-C mid-batch must leave the running point in flight."""
        grid = small_grid()
        configs = [grid.config_for(p) for p in grid.points()]
        self._interrupt_second_point(monkeypatch)
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_configs(configs, ExecutionOptions(n_workers=1, ledger=path))
        states = attempt_states(path)
        assert states.count("done") == 1
        assert states.count("in_flight") == 1
        # The batch never returned, so it wrote no point records.
        assert [r["rec"] for r in RunLedger.load(path)] == ["attempt"] * 3

    def test_interrupted_batch_is_reported_until_rerun(
        self, tmp_path, monkeypatch, capsys
    ):
        grid = small_grid()
        configs = [grid.config_for(p) for p in grid.points()]
        options = ExecutionOptions(
            cache_dir=tmp_path, ledger=tmp_path / "ledger.jsonl"
        )
        self._interrupt_second_point(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_configs(configs, options)
        report = build_report(RunLedger.load(tmp_path / "ledger.jsonl"))
        assert report["overview"]["in_flight"] == 1
        assert report["ok"] is False
        assert main(["report", "--cache", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 point(s) interrupted mid-attempt" in out
        assert "re-run the same command over the same `--cache`" in out

        executed = counting_stand_in(monkeypatch)
        run_configs(configs, options)
        # The first point came from the cache; the other three ran.
        assert executed == configs[1:]
        report = build_report(RunLedger.load(tmp_path / "ledger.jsonl"))
        assert report["overview"]["in_flight"] == 0
        assert report["ok"] is True
        assert main(["report", "--cache", str(tmp_path)]) == 0
        assert "interrupted" not in capsys.readouterr().out

    def test_resume_skips_completed_points(self, tmp_path, monkeypatch):
        """A re-run over the same cache is the resume: it recomputes only
        the points the cache lacks."""
        grid = small_grid()
        ledger = tmp_path / "ledger.jsonl"
        cache = tmp_path / "cache"
        # Simulate an interrupted sweep by completing only half the grid.
        partial = small_grid(block_sizes=(16 * KiB,))
        first = run_sweep(partial, ExecutionOptions(cache_dir=cache, ledger=ledger))
        assert len(first) == 2

        executed = counting_stand_in(monkeypatch)
        results = run_sweep(grid, ExecutionOptions(cache_dir=cache, ledger=ledger))
        assert len(results) == 4
        # Only the two 64 KiB points were recomputed.
        assert len(executed) == 2
        assert all(c.job.block_size == 64 * KiB for c in executed)
        assert attempt_states(ledger) == ["done"] * 4
        # Cache hits get point records but no attempt records.
        second_run = [r for r in RunLedger.load(ledger) if r["rec"] == "point"][2:]
        assert sorted(r["status"] for r in second_run) == [
            "cached", "cached", "done", "done",
        ]


SIGINT_SCRIPT = """
import time
from repro.core import parallel

real = parallel.run_experiment

def slow(config, **kwargs):
    time.sleep(0.5)  # widen the window so SIGINT lands mid-sweep
    return real(config, **kwargs)

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
    grid, ExecutionOptions(n_workers=1, cache_dir={cache!r}, ledger={ledger!r})
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
        ledger = str(tmp_path / "ledger.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                SIGINT_SCRIPT.format(cache=cache, ledger=ledger),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            # Wait for at least one completed point, then interrupt.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if "done" in attempt_states(ledger):
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

        states = attempt_states(ledger)
        done_before = states.count("done")
        assert 1 <= done_before < 4, states

        executed = counting_stand_in(monkeypatch)
        results = run_sweep(
            self._parent_grid(),
            ExecutionOptions(n_workers=1, cache_dir=cache, ledger=ledger),
        )
        assert len(results) == 4
        # The re-run recomputed exactly the points the interrupt lost.
        assert len(executed) == 4 - done_before
        assert attempt_states(ledger) == ["done"] * 4
