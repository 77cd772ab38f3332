"""Tests for the run ledger (repro.core.ledger) and report builder."""

import json

import pytest

from repro.core.ledger import RunLedger, point_record, run_record
from repro.core.report import build_report, render_markdown


class TestRunLedger:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "ledger.jsonl"  # parent auto-created
        ledger = RunLedger(path)
        ledger.append({"rec": "point", "key": "abc"})
        ledger.append({"rec": "run", "kind": "sweep", "failures": 0})
        records = RunLedger.load(path)
        assert [r["rec"] for r in records] == ["point", "run"]
        assert all(r["v"] == 1 for r in records)  # version stamped

    def test_directory_is_made_once_and_only_when_missing(
        self, tmp_path, monkeypatch
    ):
        """Constructing a ledger touches nothing; the first append makes
        the missing nested directory, and later appends never call
        ``mkdir`` again (it cost about a quarter of each append)."""
        from pathlib import Path

        calls = []
        depth = [0]
        real_mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            # Count the outermost calls: parents=True recurses.
            if depth[0] == 0:
                calls.append(self)
            depth[0] += 1
            try:
                return real_mkdir(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        path = tmp_path / "a" / "b" / "ledger.jsonl"
        ledger = RunLedger(path)
        assert not path.parent.exists()
        for i in range(100):
            ledger.append({"rec": "point", "key": str(i)})
        assert len(calls) <= 1
        assert [r["key"] for r in RunLedger.load(path)] == [
            str(i) for i in range(100)
        ]

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunLedger.load(tmp_path / "absent.jsonl") == []

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append({"rec": "point", "key": "ok"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "point", "key": "tor')  # crash mid-write
        records = RunLedger.load(path)
        assert len(records) == 1
        assert records[0]["key"] == "ok"

    def test_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            '\n[1, 2, 3]\n{"no_rec_field": true}\n'
            '{"rec": "run", "kind": "sweep"}\n'
        )
        records = RunLedger.load(path)
        assert len(records) == 1
        assert records[0]["kind"] == "sweep"

    def test_appends_interleave_not_rewrite(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append({"rec": "point", "key": "a"})
        first = path.read_text()
        ledger.append({"rec": "point", "key": "b"})
        assert path.read_text().startswith(first)  # append-only

    def test_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append({"rec": "point", "zeta": 1, "alpha": 2})
        line = path.read_text().strip()
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)


@pytest.fixture(scope="module")
def quick_result():
    from repro.core.experiment import run_experiment
    from repro.iogen.spec import IoPattern
    from repro.studies.common import QUICK, point_config

    config = point_config("ssd2", IoPattern.RANDREAD, 64 * 1024, 4,
                          scale=QUICK)
    return config, run_experiment(config)


def _span(config, outcome, attempts=1):
    """The span the executor's books give a point that ran."""
    from repro.core.telemetry import PointSpan, point_status

    return PointSpan(index=0, key="k", label=config.describe(),
                     status=point_status(outcome), attempts=attempts)


class TestPointRecord:
    def test_from_result(self, quick_result):
        config, result = quick_result
        record = point_record(config, result, _span(config, result))
        assert record["rec"] == "point"
        assert record["status"] == "done"
        assert record["device"] == "ssd2"
        assert record["seed"] == config.seed
        assert record["result"]["mean_power_w"] == result.mean_power_w
        assert record["result"]["p99_us"] == pytest.approx(
            result.latency().p99 * 1e6
        )
        json.dumps(record)  # must be JSON-serializable as-is

    def test_span_supplies_execution_fields(self, quick_result):
        from repro.core.telemetry import PointSpan
        from repro.obs.profile import PointProfile

        config, result = quick_result
        profile = PointProfile(config.describe(), wall_s=0.5,
                               sim_events=1000, sim_time_s=0.01)
        span = PointSpan(index=0, key="k", label=config.describe(),
                         status="done", attempts=2, profile=profile)
        record = point_record(config, result, span=span)
        assert record["key"] == "k"
        assert record["attempts"] == 2
        assert record["wall_s"] == 0.5
        assert record["events_per_s"] == pytest.approx(2000.0)

    def test_from_failure(self, quick_result):
        from repro.core.parallel import PointFailure

        config, _ = quick_result
        failure = PointFailure(
            config=config, error_type="PointTimeoutError",
            message="exceeded 1.0s", traceback="", attempts=2,
        )
        record = point_record(config, failure, _span(config, failure, 2))
        assert record["status"] == "timeout"
        assert record["error_type"] == "PointTimeoutError"
        assert record["attempts"] == 2
        assert record["wall_s"] == 0.0  # no profile: the attempt was killed
        assert "result" not in record


class TestRunRecord:
    def test_minimal(self):
        record = run_record("sweep", points=4)
        assert record == {
            "rec": "run", "kind": "sweep", "failures": 0, "points": 4,
        }

    def test_cache_stats_without_telemetry(self):
        from repro.core.parallel import CacheStats

        record = run_record(
            "policy", points=2, cache=CacheStats(hits=1, misses=1, puts=1)
        )
        assert record["telemetry"]["cache"]["hits"] == 1

    def test_validation_rollup(self, quick_result):
        from repro.validate.checkers import RESULT_INVARIANTS, check_result
        from repro.validate.report import ValidationReport

        _, result = quick_result
        report = ValidationReport(
            violations=tuple(check_result(result)),
            checked=1,
            invariants=RESULT_INVARIANTS,
        )
        record = run_record("sweep", validation=report, points=1)
        assert record["validation"]["ok"] is True
        assert record["validation"]["checked"] == 1


def _points(n, status="done", device="ssd2", **result_extra):
    records = []
    for i in range(n):
        record = {
            "rec": "point", "key": f"k{i}", "label": f"pt{i}",
            "device": device, "power_state": None, "status": status,
            "attempts": 1, "wall_s": 0.1 * (i + 1),
            "events_per_s": 1000.0, "sim_events": int(100 * (i + 1)),
        }
        if status == "done":
            record["result"] = {
                "mean_power_w": 10.0, "throughput_mib_s": 100.0,
                "p99_us": 300.0 * (i + 1), **result_extra,
            }
        records.append(record)
    return records


class TestBuildReport:
    def test_sections_present(self):
        records = _points(8) + [
            run_record("sweep", points=8),
        ]
        report = build_report(records)
        assert report["ok"] is True
        assert report["overview"]["points"] == 8
        assert report["executor"]["executed"] == 8
        assert len(report["executor"]["events_per_s_trend"]) == 4
        assert len(report["executor"]["slowest"]) == 5
        assert report["rollup"]["ssd2"]["points"] == 8
        assert "policy" not in report

    def test_incidents_and_failures_flip_verdict(self):
        records = _points(2) + _points(1, status="timeout") + [
            {"rec": "run", "kind": "sweep", "failures": 1, "points": 3},
        ]
        report = build_report(records)
        assert report["ok"] is False
        assert len(report["executor"]["incidents"]) == 1
        assert report["executor"]["incidents"][0]["status"] == "timeout"

    def test_failed_validation_flips_verdict(self):
        records = _points(2) + [
            {
                "rec": "run", "kind": "sweep", "failures": 0, "points": 2,
                "validation": {
                    "ok": False, "checked": 2,
                    "violations": {"energy_conservation": 1},
                },
            },
        ]
        report = build_report(records)
        assert report["ok"] is False
        assert report["validation"]["violations"] == {
            "energy_conservation": 1
        }

    def test_only_latest_run_judges_the_verdict(self):
        """A failed run earlier in the ledger's history must not taint a
        later clean re-run: ok is judged on the latest run record."""
        records = (
            _points(1, status="failed")
            + [{"rec": "run", "kind": "sweep", "failures": 1, "points": 1}]
            + _points(1)
            + [{"rec": "run", "kind": "sweep", "failures": 0, "points": 1}]
        )
        assert build_report(records)["ok"] is True

    def test_only_attempts_after_the_latest_run_count(self):
        """A point cut off before the latest run record belongs to a batch
        that run already judged: it must not flip a later clean verdict,
        while one cut off after it does."""
        cut_off = {"rec": "attempt", "key": "k", "state": "in_flight",
                   "attempt": 1}
        clean_run = {"rec": "run", "kind": "sweep", "failures": 0, "points": 1}
        records = [cut_off] + _points(1) + [clean_run]
        report = build_report(records)
        assert report["overview"]["in_flight"] == 0
        assert report["ok"] is True
        report = build_report(records + [cut_off])
        assert report["overview"]["in_flight"] == 1
        assert report["ok"] is False
        assert report["overview"]["skipped_records"] == 0

    def test_no_run_records_judges_point_statuses(self):
        assert build_report(_points(2))["ok"] is True
        assert build_report(_points(1, status="crashed"))["ok"] is False

    def test_cache_falls_back_to_point_census(self):
        records = _points(3) + _points(1, status="cached")
        cache = build_report(records)["cache"]
        assert cache["hits"] == 1
        assert cache["misses"] == 3
        assert cache["hit_rate"] == pytest.approx(0.25)

    def test_policy_rollup(self):
        records = _points(
            2, policy={"kind": "feedback", "decisions": 10,
                       "set_point_changes": 3, "mean_abs_error_w": 0.5,
                       "max_overshoot_w": 1.0},
        )
        policy = build_report(records)["policy"]
        assert policy["ssd2/feedback"]["points"] == 2
        assert policy["ssd2/feedback"]["set_point_changes"] == 6
        assert policy["ssd2/feedback"]["mean_tracking_error_w"] == 0.5

    def test_rollup_p99_is_honest_upper_bound(self):
        report = build_report(_points(4))
        worst = report["rollup"]["ssd2"]["p99_us_worst"]
        assert worst == pytest.approx(1200.0)  # max of 300*(i+1)
        assert report["rollup"]["ssd2"]["p99_us_p99"] <= worst * (1 + 1e-9)


class TestRenderMarkdown:
    def test_sections_render(self):
        records = _points(8) + [run_record("sweep", points=8)]
        text = render_markdown(build_report(records))
        assert "# Sweep health report" in text
        assert "## Executor" in text
        assert "## Cache" in text
        assert "## Metrics rollup" in text
        assert "## Validation" in text
        assert "### Slowest points" in text
        assert "**OK**" in text

    def test_not_ok_and_incidents_render(self):
        records = _points(1, status="timeout") + [
            {"rec": "run", "kind": "sweep", "failures": 1, "points": 1},
        ]
        text = render_markdown(build_report(records))
        assert "**NOT OK**" in text
        assert "### Incidents" in text
        assert "timeout" in text

    def test_empty_ledger_renders(self):
        text = render_markdown(build_report([]))
        assert "no points" in text
