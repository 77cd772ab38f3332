"""Tests for mergeable cross-point metrics (repro.obs.aggregate)."""

import random

import numpy as np
import pytest

from repro.obs.aggregate import (
    DEFAULT_BOUNDS,
    BucketedHistogram,
    SweepRollup,
    merge_snapshots,
)


def exact_nearest_rank(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def assert_snapshots_close(a, b):
    """Recursive equality, tolerating float summation-order ulps.

    Bucket *counts* merge exactly; float *sums* may differ in the last
    bit depending on accumulation order, which is fine -- the honesty
    contract is about counts and bounds, not about bitwise sums.
    """
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert set(a) == set(b)
        for key in a:
            assert_snapshots_close(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_snapshots_close(x, y)
    elif isinstance(a, float):
        assert a == pytest.approx(b)
    else:
        assert a == b


class TestBucketedHistogram:
    def test_basic_accounting(self):
        h = BucketedHistogram()
        for v in (1e-5, 2e-5, 3e-5):
            h.observe(v)
        assert h.count == 3
        assert h.min == 1e-5
        assert h.max == 3e-5
        assert h.mean == pytest.approx(2e-5)

    def test_empty_quantile_is_zero(self):
        h = BucketedHistogram()
        assert h.quantile(0.5) == 0.0
        assert h.min == 0.0 and h.max == 0.0 and h.mean == 0.0

    def test_single_sample_quantiles_return_it(self):
        h = BucketedHistogram()
        h.observe(3.7e-4)
        # Clamped to the observed max: with one sample the bucket edge
        # would over-report, the clamp makes the bound tight.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 3.7e-4

    def test_quantile_bounds_validated(self):
        with pytest.raises(ValueError):
            BucketedHistogram().quantile(1.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            BucketedHistogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            BucketedHistogram(bounds=())

    def test_quantile_never_under_reports(self):
        """The honesty contract: the bucketed quantile is an upper bound
        on the exact nearest-rank quantile of the same population."""
        rng = random.Random(7)
        samples = [rng.lognormvariate(-8.0, 2.0) for _ in range(500)]
        h = BucketedHistogram.from_samples(samples)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert h.quantile(q) >= exact_nearest_rank(samples, q)
            assert h.quantile(q) <= max(samples)

    def test_overflow_bucket_reports_observed_max(self):
        h = BucketedHistogram(bounds=(1.0, 2.0))
        h.observe(50.0)
        h.observe(60.0)
        assert h.quantile(0.99) == 60.0

    def test_merge_equals_pooled_population(self):
        rng = random.Random(11)
        first = [rng.uniform(1e-6, 1e-2) for _ in range(100)]
        second = [rng.uniform(1e-4, 1.0) for _ in range(150)]
        merged = BucketedHistogram.from_samples(first).merge(
            BucketedHistogram.from_samples(second)
        )
        pooled = BucketedHistogram.from_samples(first + second)
        assert merged.counts == pooled.counts
        assert_snapshots_close(merged.snapshot(), pooled.snapshot())

    def test_merge_is_associative_and_commutative(self):
        rng = random.Random(13)
        shards = [
            BucketedHistogram.from_samples(
                rng.uniform(1e-6, 1e-1) for _ in range(50)
            )
            for _ in range(3)
        ]
        a, b, c = shards
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a.merge(b))
        assert left.snapshot() == right.snapshot() == swapped.snapshot()

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            BucketedHistogram(bounds=(1.0, 2.0)).merge(BucketedHistogram())

    def test_snapshot_round_trip(self):
        h = BucketedHistogram.from_samples([1e-5, 4e-4, 0.2, 7.0])
        clone = BucketedHistogram.from_snapshot(h.snapshot())
        assert clone.snapshot() == h.snapshot()
        assert clone.bounds == h.bounds

    def test_empty_snapshot_round_trip(self):
        snap = BucketedHistogram().snapshot()
        assert snap == {"type": "bucketed_histogram", "count": 0}
        clone = BucketedHistogram.from_snapshot(snap)
        assert clone.count == 0
        assert clone.bounds == DEFAULT_BOUNDS

    def test_bulk_observe_is_bit_equal_to_the_per_sample_loop(self):
        """Counts, total, min and max match observing one sample at a
        time, across calls, including both edge buckets and values that
        sit exactly on a bound."""
        rng = np.random.default_rng(11)
        chunks = [
            rng.lognormal(-8.0, 3.0, 4000),  # spans every bucket
            np.array([DEFAULT_BOUNDS[0], DEFAULT_BOUNDS[7], 1e-9, 500.0]),
            np.array([]),
            rng.uniform(1e-4, 2e-4, 1000),
        ]
        one_by_one, bulk = BucketedHistogram(), BucketedHistogram()
        for chunk in chunks:
            for value in chunk.tolist():
                one_by_one.observe(value)
            bulk.observe_many(chunk)
        assert bulk.counts == one_by_one.counts
        assert bulk.count == one_by_one.count
        assert bulk.total.hex() == one_by_one.total.hex()
        assert bulk.min.hex() == one_by_one.min.hex()
        assert bulk.max.hex() == one_by_one.max.hex()
        assert bulk.snapshot() == one_by_one.snapshot()
        # The samples are ones where NumPy's pairwise sum would not do.
        loop_total = 0.0
        for value in chunks[0].tolist():
            loop_total += value
        assert float(np.sum(chunks[0])).hex() != loop_total.hex()


@pytest.fixture(scope="module")
def two_results():
    from repro.core.experiment import run_experiment
    from repro.iogen.spec import IoPattern
    from repro.studies.common import QUICK, point_config

    return [
        run_experiment(
            point_config(
                "ssd2", IoPattern.RANDREAD, 64 * 1024, depth, scale=QUICK
            )
        )
        for depth in (4, 16)
    ]


class TestSweepRollup:
    def test_groups_by_device_and_power_state(self, two_results):
        rollup = SweepRollup.from_results(two_results)
        assert rollup.group_by == ("device", "power_state")
        assert set(rollup.groups) == {("ssd2", "None")}
        stats = rollup.groups[("ssd2", "None")]
        assert stats.points == 2
        assert stats.ios == sum(len(r.job.records) for r in two_results)
        assert stats.latency.count == stats.ios
        assert stats.energy_j > 0

    def test_matches_the_per_record_loop(self, two_results):
        """The columnar rollup equals the per-record loop it replaced."""
        rollup = SweepRollup.from_results(two_results)
        stats = rollup.groups[("ssd2", "None")]
        reference = BucketedHistogram()
        for result in two_results:
            for record in result.job.records:
                reference.observe(record.latency)
        assert stats.latency.snapshot() == reference.snapshot()
        assert stats.bytes == sum(
            r.nbytes for result in two_results for r in result.job.records
        )

    def test_accepts_mapping_like_sweep_results(self, two_results):
        keyed = {i: r for i, r in enumerate(two_results)}
        rollup = SweepRollup.from_results(keyed)
        assert rollup.groups[("ssd2", "None")].points == 2

    def test_alternate_grouping_separates_iodepths(self, two_results):
        rollup = SweepRollup.from_results(two_results, group_by=("iodepth",))
        assert set(rollup.groups) == {("4",), ("16",)}

    def test_unknown_dimension_rejected(self, two_results):
        with pytest.raises(ValueError):
            SweepRollup.from_results(two_results, group_by=("color",))

    def test_merge_accumulates_across_shards(self, two_results):
        first = SweepRollup.from_results(two_results[:1])
        second = SweepRollup.from_results(two_results[1:])
        merged = first.merge(second)
        pooled = SweepRollup.from_results(two_results)
        assert_snapshots_close(merged.snapshot(), pooled.snapshot())

    def test_merge_rejects_different_grouping(self, two_results):
        a = SweepRollup.from_results(two_results)
        b = SweepRollup.from_results(two_results, group_by=("iodepth",))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_snapshot_is_json_shaped(self, two_results):
        snap = SweepRollup.from_results(two_results).snapshot()
        assert snap["group_by"] == ["device", "power_state"]
        group = snap["groups"]["ssd2/None"]
        assert group["points"] == 2
        assert group["latency"]["type"] == "bucketed_histogram"


class TestMergeSnapshots:
    def test_counters_add(self):
        a = {"io.done": {"_": {"type": "counter", "value": 3.0}}}
        b = {"io.done": {"_": {"type": "counter", "value": 4.0}}}
        assert merge_snapshots(a, b)["io.done"]["_"]["value"] == 7.0

    def test_disjoint_series_pass_through(self):
        a = {"io.done": {"_": {"type": "counter", "value": 1.0}}}
        b = {"gc.runs": {"_": {"type": "counter", "value": 2.0}}}
        merged = merge_snapshots(a, b)
        assert merged["io.done"]["_"]["value"] == 1.0
        assert merged["gc.runs"]["_"]["value"] == 2.0

    def test_exact_histogram_percentiles_dropped(self):
        """Merged p99s cannot be derived from two p99s; reporting one
        anyway is the lie this module exists to prevent."""
        a = {
            "lat": {
                "_": {
                    "type": "histogram", "count": 2, "sum": 3.0,
                    "min": 1.0, "max": 2.0, "mean": 1.5,
                    "p50": 1.0, "p99": 2.0,
                }
            }
        }
        b = {
            "lat": {
                "_": {
                    "type": "histogram", "count": 1, "sum": 9.0,
                    "min": 9.0, "max": 9.0, "mean": 9.0,
                    "p50": 9.0, "p99": 9.0,
                }
            }
        }
        merged = merge_snapshots(a, b)["lat"]["_"]
        assert merged["count"] == 3
        assert merged["mean"] == pytest.approx(4.0)
        assert merged["min"] == 1.0 and merged["max"] == 9.0
        assert "p50" not in merged and "p99" not in merged

    def test_bucketed_histogram_percentiles_survive(self):
        a = BucketedHistogram.from_samples([1e-5, 2e-5]).snapshot()
        b = BucketedHistogram.from_samples([5e-3]).snapshot()
        merged = merge_snapshots(
            {"lat": {"_": a}}, {"lat": {"_": b}}
        )["lat"]["_"]
        pooled = BucketedHistogram.from_samples([1e-5, 2e-5, 5e-3])
        assert merged == pooled.snapshot()
        assert "p99" in merged

    def test_empty_histogram_merges_cleanly(self):
        empty = BucketedHistogram().snapshot()
        full = BucketedHistogram.from_samples([1e-4]).snapshot()
        merged = merge_snapshots(
            {"lat": {"_": empty}}, {"lat": {"_": full}}
        )["lat"]["_"]
        assert merged == full

    def test_state_timer_durations_add_fractions_recompute(self):
        a = {
            "ps": {
                "_": {
                    "type": "state_timer", "state": "ps0",
                    "durations_s": {"ps0": 3.0, "ps2": 1.0},
                    "fractions": {"ps0": 0.75, "ps2": 0.25},
                }
            }
        }
        b = {
            "ps": {
                "_": {
                    "type": "state_timer", "state": "ps2",
                    "durations_s": {"ps2": 4.0},
                    "fractions": {"ps2": 1.0},
                }
            }
        }
        merged = merge_snapshots(a, b)["ps"]["_"]
        assert merged["durations_s"] == {"ps0": 3.0, "ps2": 5.0}
        assert merged["fractions"]["ps2"] == pytest.approx(5.0 / 8.0)
        assert merged["state"] is None  # no single current state exists

    def test_gauges_keep_conservative_max(self):
        a = {"depth": {"_": {"type": "gauge", "value": 3.0}}}
        b = {"depth": {"_": {"type": "gauge", "value": 7.0}}}
        assert merge_snapshots(a, b)["depth"]["_"]["value"] == 7.0

    def test_type_mismatch_raises(self):
        a = {"x": {"_": {"type": "counter", "value": 1.0}}}
        b = {"x": {"_": {"type": "gauge", "value": 1.0}}}
        with pytest.raises(ValueError):
            merge_snapshots(a, b)

    def test_merge_is_associative(self):
        shards = [
            {"io": {"_": {"type": "counter", "value": float(v)}}}
            for v in (1, 2, 3)
        ]
        left = merge_snapshots(merge_snapshots(shards[0], shards[1]), shards[2])
        right = merge_snapshots(shards[0], merge_snapshots(shards[1], shards[2]))
        assert left == right
