"""Contracts of the zero-cost harness (``benchmarks/zero_cost.py``) and
of the committed BENCH_10.json report.

The harness tests run altered copies of real rows for one round each:
a row must fail when its off path loads a module it names, and when its
inert variant changes the physics.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from benchmarks import zero_cost

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestZeroCostHarness:
    def test_table_has_a_row_per_feature(self):
        assert [row.name for row in zero_cost.ROWS] == [
            "obs",
            "faults",
            "validate",
            "policy",
            "telemetry",
            "chaos",
            "fleet",
        ]

    def test_a_real_row_holds(self, monkeypatch, capsys):
        """The validate row, proof subprocess included, passes as is."""
        monkeypatch.setattr(zero_cost, "ROUNDS", 1)
        validate = next(row for row in zero_cost.ROWS if row.name == "validate")
        monkeypatch.setattr(zero_cost, "ROWS", (validate,))

        assert zero_cost.main() == 0
        assert "every row holds" in capsys.readouterr().out

    def test_every_failing_row_is_named(self, monkeypatch, capsys):
        monkeypatch.setattr(zero_cost, "ROUNDS", 1)
        faults = next(row for row in zero_cost.ROWS if row.name == "faults")
        poisoned = replace(
            faults, name="poisoned", unloaded=("repro.core.experiment",)
        )
        active = replace(faults, name="active-inert", inert=faults.on)
        monkeypatch.setattr(zero_cost, "ROWS", (poisoned, active))

        assert zero_cost.main() == 1

        out = capsys.readouterr().out
        assert "FAILED rows: poisoned, active-inert" in out
        assert "loaded while off: repro.core.experiment" in out
        assert "active-inert: inert differs from off" in out


class TestCommittedBenchReport:
    def test_bench_10_carries_machine_metadata(self):
        report = json.loads((REPO_ROOT / "BENCH_10.json").read_text())
        assert report["machine"]["cpu_count"] >= 1
        assert report["machine"]["python"]

    def test_bench_10_meets_the_steady_grid_speedup_claim(self):
        report = json.loads((REPO_ROOT / "BENCH_10.json").read_text())
        assert report["fastpath"]["steady_speedup"] >= 5.0
