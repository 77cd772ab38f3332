"""The harness can catch its own quarry: tamper, shrink, report.

Two layers:

- Unit tests pin :func:`tests.equivalence.shrink.shrink_scenario`'s
  contract (1-minimality, rejection of non-diverging input) against a
  synthetic divergence predicate, with no simulator in the loop.
- An end-to-end drill tampers the splice (a seeded, conditional
  replication error -- the kind of bug the differential harness exists
  to catch), confirms the harness flags it, delta-debugs the reproducer
  down to at most two knobs, and pushes the failure through the run
  ledger so ``repro report`` exits non-zero and names the broken
  invariant.  If this test ever fails, the safety net itself has a
  hole.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.core.ledger import RunLedger, run_record
from repro.validate.report import ValidationReport, Violation

from tests.equivalence.scenarios import (
    BASELINE,
    Scenario,
    changed_knobs,
    compare,
    run_pair,
)
from tests.equivalence.shrink import shrink_scenario


class TestShrinkScenario:
    def test_rejects_a_non_diverging_scenario(self):
        with pytest.raises(ValueError):
            shrink_scenario(BASELINE, lambda s: False)

    def test_resets_irrelevant_knobs(self):
        start = Scenario(block_kib=128, iodepth=16, seed=99, runtime_ms=3)
        diverges = lambda s: s.block_kib == 128 and s.iodepth == 16  # noqa: E731
        shrunk = shrink_scenario(start, diverges)
        assert set(changed_knobs(shrunk)) == {"block_kib", "iodepth"}

    def test_result_is_one_minimal(self):
        start = Scenario(block_kib=128, iodepth=16, seed=99)
        diverges = lambda s: s.block_kib == 128 and s.iodepth == 16  # noqa: E731
        shrunk = shrink_scenario(start, diverges)
        for name in changed_knobs(shrunk):
            relaxed = dataclasses.replace(
                shrunk, **{name: getattr(BASELINE, name)}
            )
            assert not diverges(relaxed), (
                f"resetting {name} should lose the divergence"
            )


class TestSeededTamper:
    def test_tamper_is_caught_shrunk_and_reported(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.sim.fastpath.driver as driver

        real = driver.splice_windows

        def tampered(engine, device, job, stats, n_windows):
            # The seeded fault: on pm1743 only, the replicated windows
            # carry half again the template's power -- conditional, and
            # invisible to record counts or timing.
            values = device.rail.trace._values
            before = len(values)
            spliced = real(engine, device, job, stats, n_windows)
            if device.name == "pm1743":
                values[before:] = [v * 1.5 for v in values[before:]]
            return spliced

        monkeypatch.setattr(driver, "splice_windows", tampered)

        def diverges(scenario):
            exact, fast = run_pair(scenario)
            return fast.fastpath.engaged and bool(compare(exact, fast))

        # The "fuzzer finding": a diverging scenario buried in noise
        # knobs.  A splice needs runway, so the run is 40 ms long.
        found = Scenario(
            device="pm1743", block_kib=16, seed=123, runtime_ms=40
        )
        assert diverges(found), "the tampered splice must diverge"

        shrunk = shrink_scenario(found, diverges)
        knobs = changed_knobs(shrunk)
        assert len(knobs) <= 2, f"reproducer not minimal: {knobs}"
        assert "device" in knobs, (
            "the tamper trigger must survive shrinking"
        )

        # Close the loop: the divergence lands in the run ledger as a
        # failed fastpath_equivalence validation, and `repro report`
        # surfaces it with a non-zero exit.
        exact, fast = run_pair(shrunk)
        divergences = compare(exact, fast)
        report = ValidationReport(
            violations=tuple(
                Violation(
                    invariant="fastpath_equivalence",
                    subject=shrunk.describe(),
                    message=text,
                    measured=0.0,
                    expected=0.0,
                )
                for text in divergences
            ),
            checked=1,
            invariants=("fastpath_equivalence",),
        )
        assert not report.ok
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(ledger_path)
        ledger.append(
            run_record("sweep", validation=report, points=1, failures=0)
        )

        code = cli_main(["report", "--ledger", str(ledger_path)])
        out = capsys.readouterr().out
        assert code == 1, "a failed validation must fail the report"
        assert "fastpath_equivalence" in out
