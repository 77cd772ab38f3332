"""End-to-end fleet runs: governor loop, ledger, report, study render."""

import pytest

from repro._units import MiB
from repro.core.ledger import RunLedger
from repro.core.report import build_report, render_markdown
from repro.fleet.cluster import (
    DEFAULT_MIX,
    FleetSpec,
    _epoch_metrics,
    _epoch_p99,
    device_power_range,
    run_fleet,
)
from repro.fleet.model import FleetModel
from repro.iogen.stats import LatencyStats
from repro.obs.aggregate import BucketedHistogram
from repro.studies import fleet_scale
from repro.studies.common import StudyScale

#: Small stop rules: mechanisms intact, CI-speed walls.
TINY = StudyScale(
    ssd_runtime_s=0.02,
    ssd_bytes=12 * MiB,
    hdd_runtime_s=1.0,
    hdd_bytes=12 * MiB,
)

SSD_MIX = ("ssd1", "ssd2", "ssd3")


def tiny_spec(n=4, **kwargs):
    defaults = dict(mix=SSD_MIX, epochs=3, tenants=12, skew=1.0, seed=3)
    defaults.update(kwargs)
    return FleetSpec.sized(n, **defaults)


@pytest.fixture(scope="module")
def tiny_result():
    return run_fleet(tiny_spec(), TINY)


class TestSpec:
    def test_sized_cycles_the_mix(self):
        spec = FleetSpec.sized(6, mix=DEFAULT_MIX)
        assert spec.devices == (
            "ssd1", "ssd2", "ssd3", "hdd", "ssd1", "ssd2"
        )

    def test_validates_fields(self):
        with pytest.raises(ValueError, match="at least one device"):
            FleetSpec(devices=())
        with pytest.raises(ValueError, match="unknown device preset"):
            FleetSpec(devices=("floppy",))
        with pytest.raises(ValueError, match="epochs"):
            tiny_spec(epochs=0)
        with pytest.raises(ValueError, match="budget"):
            tiny_spec(budget_low=0.9, budget_high=0.6)
        with pytest.raises(ValueError, match="fraction"):
            tiny_spec(budget_high=1.2)

    def test_budget_schedule_spans_the_fraction_envelope(self):
        spec = tiny_spec()
        ceiling = sum(device_power_range(d)[1] for d in spec.devices)
        schedule = spec.budget_schedule()
        watts = [schedule.watts_at(t / 16) for t in range(16)]
        assert max(watts) <= spec.budget_high * ceiling + 1e-6
        assert min(watts) >= spec.budget_low * ceiling - 1e-6

    def test_device_power_range_orders_floor_and_ceiling(self):
        for label in DEFAULT_MIX:
            floor, ceiling = device_power_range(label)
            assert 0 < floor < ceiling


class TestEpochAggregatesMatchTheRecordLoop:
    """The columnar epoch aggregates against the per-record loops they
    replaced, kept here as the reference."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.core.experiment import run_experiment
        from repro.iogen.spec import IoPattern
        from repro.studies.common import point_config

        return [
            run_experiment(point_config(device, pattern, 16 * 1024, 8, scale=TINY))
            for device, pattern in (
                ("ssd1", IoPattern.RANDWRITE),
                ("ssd3", IoPattern.RANDREAD),
            )
        ]

    def test_epoch_p99(self, results):
        latencies = [
            record.latency for result in results for record in result.job.records
        ]
        expected = LatencyStats.from_latencies(latencies).p99
        assert _epoch_p99(results).hex() == expected.hex()
        assert _epoch_p99([]) == 0.0

    def test_epoch_metrics(self, results):
        histogram = BucketedHistogram()
        ios = nbytes = 0
        for result in results:
            for record in result.job.records:
                ios += 1
                nbytes += record.nbytes
                histogram.observe(record.latency)
        metrics = _epoch_metrics(results)
        assert metrics["fleet.ios"]["all"]["value"] == ios
        assert metrics["fleet.bytes"]["all"]["value"] == nbytes
        assert metrics["fleet.latency_s"]["all"] == histogram.snapshot()


class TestRunFleet:
    def test_tiny_fleet_validates_clean(self, tiny_result):
        assert tiny_result.ok, tiny_result.validation.render()
        assert len(tiny_result.epochs) == 3
        assert len(tiny_result.floors_w) == 4

    def test_epoch_accounting_is_coherent(self, tiny_result):
        for e in tiny_result.epochs:
            assert e.allocated_w <= e.budget_w + 1e-6
            assert e.deficit_w == 0.0
            assert e.measured_w > 0
            assert e.baseline_w > 0
            assert 0 < e.intensity <= 1.0

    def test_headline_properties(self, tiny_result):
        assert tiny_result.baseline_power_w > 0
        assert tiny_result.governed_power_w <= (
            tiny_result.baseline_power_w * 1.05
        )
        assert tiny_result.p99_blowup >= 1.0
        assert tiny_result.dynamic_range_w >= 0.0

    def test_digest_is_repeat_stable(self, tiny_result):
        again = run_fleet(tiny_spec(), TINY)
        assert again.digest() == tiny_result.digest()
        assert len(tiny_result.digest()) == 32

    def test_metrics_fold_across_epochs(self, tiny_result):
        metrics = tiny_result.metrics
        assert metrics["fleet.ios"]["all"]["value"] > 0
        assert metrics["fleet.bytes"]["all"]["value"] > 0
        hist = metrics["fleet.latency_s"]["all"]
        assert hist["type"] == "bucketed_histogram"
        assert hist["count"] == metrics["fleet.ios"]["all"]["value"]

    def test_rollup_groups_by_device(self, tiny_result):
        assert set(tiny_result.rollup["groups"]) <= {
            "ssd1", "ssd2", "ssd3", "hdd"
        }

    def test_summary_is_json_ready(self, tiny_result):
        import json

        summary = tiny_result.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["devices"] == 4
        assert summary["digest"] == tiny_result.digest()

    def test_rejects_non_allocator(self):
        with pytest.raises(TypeError, match="BudgetAllocator"):
            run_fleet(tiny_spec(), TINY, allocator=object())

    def test_offline_fleet_model_drops_in_as_allocator(self):
        """The protocol's point: a FleetModel drives the same loop."""
        from repro.core.model import ModelPoint, PowerThroughputModel
        from repro.core.sweep import SweepPoint
        from repro.iogen.spec import IoPattern

        spec = tiny_spec()

        def model_for(label):
            floor, ceiling = device_power_range(label)
            points = [
                ModelPoint(
                    SweepPoint(IoPattern.RANDWRITE, 4096, 1, None),
                    power_w=floor,
                    throughput_bps=50e6,
                    latency_p99_s=1e-3,
                    latency_mean_s=1e-3,
                ),
                ModelPoint(
                    SweepPoint(IoPattern.RANDWRITE, 4096, 8, None),
                    power_w=ceiling,
                    throughput_bps=400e6,
                    latency_p99_s=2e-3,
                    latency_mean_s=2e-3,
                ),
            ]
            return PowerThroughputModel(label, points)

        model = FleetModel([model_for(d) for d in spec.devices])
        result = run_fleet(spec, TINY, allocator=model)
        assert len(result.epochs) == 3
        for epoch, caps_sum in zip(
            result.epochs, (e.allocated_w for e in result.epochs)
        ):
            assert caps_sum <= epoch.budget_w + 1e-6


class TestLedgerAndReport:
    def test_fleet_run_feeds_the_report(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        run_fleet(tiny_spec(), TINY, ledger=ledger_path)
        records = RunLedger.load(ledger_path)
        kinds = {r.get("rec") for r in records}
        assert {"point", "fleet", "run"} <= kinds

        report = build_report(records)
        assert report["ok"] is True
        assert report["overview"]["skipped_records"] == 0
        assert "fleet" in report
        assert len(report["fleet"]["epochs"]) == 3
        summary = report["fleet"]["summary"]
        assert summary["devices"] == 4

        text = render_markdown(report)
        assert "## Fleet" in text
        assert "harvested" in text
        assert "skipped" not in text

    def test_unknown_record_kinds_are_counted_not_dropped(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(ledger_path)
        run_fleet(tiny_spec(n=2, mix=("ssd3",), epochs=2), TINY,
                  ledger=ledger)
        ledger.append({"rec": "from_the_future", "payload": 1})
        ledger.append({"rec": "also_unknown"})
        report = build_report(RunLedger.load(ledger_path))
        assert report["overview"]["skipped_records"] == 2
        text = render_markdown(report)
        assert "skipped 2 unrecognized record(s)" in text


class TestStudy:
    def test_render_has_table_headline_and_digest(self, monkeypatch):
        monkeypatch.setattr(fleet_scale, "TOLERANCES", None)
        result = fleet_scale.run(
            scale=TINY, n_devices=3, epochs=3, tenants=9, skew=1.0,
            mix=SSD_MIX, seed=5,
        )
        text = fleet_scale.render(result)
        assert "Fleet of 3 devices" in text
        assert "harvested" in text
        assert "digest " in text
        assert "Epoch" in text

    def test_render_is_repeat_stable(self):
        kwargs = dict(
            scale=TINY, n_devices=3, epochs=3, tenants=9, skew=1.0,
            mix=SSD_MIX, seed=5,
        )
        assert fleet_scale.render(fleet_scale.run(**kwargs)) == (
            fleet_scale.render(fleet_scale.run(**kwargs))
        )
