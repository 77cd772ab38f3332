"""Contracts of the continuous benchmark runner (``benchmarks/run.py``).

Pure-logic tests: the regression gate and metadata stamps are exercised
on synthetic report/baseline dicts, plus a check that the committed
BENCH_10.json actually carries the claims this PR's acceptance criteria
rest on (machine metadata, and the >=5x steady-grid speedup).
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.run import (
    POINT_REGRESSION_TOLERANCE,
    check_against_baseline,
    machine_metadata,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _report(agg=100.0, points=(), fastpath_modes=None):
    report = {
        "events_per_second": agg,
        "points": [
            {"label": label, "events_per_second": eps} for label, eps in points
        ],
    }
    if fastpath_modes is not None:
        report["fastpath"] = {
            "modes": {
                mode: {"effective_events_per_second": eff, "speedup": s}
                for mode, (eff, s) in fastpath_modes.items()
            }
        }
    return report


class TestRegressionGate:
    def test_clean_run_passes(self):
        ok, message = check_against_baseline(
            _report(agg=100.0, points=(("a", 50.0),)),
            baseline=_report(agg=100.0, points=(("a", 50.0),)),
        )
        assert ok
        assert message.startswith("ok")

    def test_all_regressions_are_named_not_just_the_first(self):
        current = _report(
            agg=50.0,
            points=(("a", 10.0), ("b", 50.0), ("c", 10.0)),
            fastpath_modes={"splice": (100.0, 2.0)},
        )
        baseline = _report(
            agg=100.0,
            points=(("a", 50.0), ("b", 50.0), ("c", 50.0)),
            fastpath_modes={"splice": (500.0, 9.0)},
        )
        ok, message = check_against_baseline(current, baseline)
        assert not ok
        assert "REGRESSION in 4 benchmark(s)" in message
        for name in ("aggregate events/sec", "a", "c", "fastpath splice"):
            assert name in message, f"{name!r} missing from:\n{message}"
        assert "b:" not in message  # unregressed points are not accused

    def test_points_gate_wider_than_aggregate(self):
        drop = 1.0 - POINT_REGRESSION_TOLERANCE + 0.01
        ok, _ = check_against_baseline(
            _report(agg=100.0, points=(("a", 50.0 * drop),)),
            baseline=_report(agg=100.0, points=(("a", 50.0),)),
        )
        assert ok, "a within-tolerance point drop must not fail the gate"

    def test_unknown_points_are_ignored(self):
        """New benchmarks gate only once the baseline is re-pinned."""
        ok, _ = check_against_baseline(
            _report(points=(("brand-new", 1.0),)),
            baseline=_report(points=()),
        )
        assert ok

    def test_fastpath_modes_gate_on_speedup(self):
        """Absolute effective rates are machine noise; the ratio gates."""
        ok, message = check_against_baseline(
            _report(fastpath_modes={"splice": (999999.0, 4.0)}),
            baseline=_report(fastpath_modes={"splice": (100.0, 9.0)}),
        )
        assert not ok
        assert "fastpath splice speedup" in message


class TestMachineMetadata:
    def test_metadata_names_the_runtime(self):
        meta = machine_metadata()
        assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
        assert meta["python"].count(".") == 2
        assert meta["platform"]


class TestCommittedBenchReport:
    def test_bench_10_carries_machine_metadata(self):
        report = json.loads((REPO_ROOT / "BENCH_10.json").read_text())
        assert report["machine"]["cpu_count"] >= 1
        assert report["machine"]["python"]

    def test_bench_10_meets_the_steady_grid_speedup_claim(self):
        report = json.loads((REPO_ROOT / "BENCH_10.json").read_text())
        assert report["fastpath"]["steady_speedup"] >= 5.0
