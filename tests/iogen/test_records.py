"""The columnar IO record view and the statistics computed from it.

A result keeps its IO records as three columns (:class:`IoRecords`); these
tests pin that the view still reads like the tuple of :class:`IoRecord` it
replaced, and that every statistic computed from the columns is bit-equal
to the per-record loop it replaced (kept here as the reference).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.iogen.spec import IoPattern, JobSpec
from repro.iogen.stats import IoLog, IoRecord, IoRecords, JobResult, LatencyStats

RECORDS = (
    IoRecord(0.0, 1.5e-4, 4096),
    IoRecord(1.0e-4, 2.5e-4, 8192),
    IoRecord(2.0e-4, 2.25e-4, 4096),
    IoRecord(3.0e-4, 7.0e-4, 16384),
)


@pytest.fixture(scope="module")
def result():
    """A real run with a warmup cut, so the measurement window matters."""
    return run_experiment(
        ExperimentConfig(
            device="ssd3",
            job=JobSpec(
                IoPattern.RANDREAD,
                block_size=4 * KiB,
                iodepth=8,
                runtime_s=0.01,
                size_limit_bytes=16 * MiB,
            ),
            warmup_fraction=0.2,
            seed=3,
        )
    )


def _bits(value):
    """A float as its exact bits; anything else as is."""
    return value.hex() if isinstance(value, float) else value


class TestView:
    def test_len_and_truthiness(self):
        view = IoRecords.from_records(RECORDS)
        assert len(view) == 4
        assert view
        assert not IoRecords()
        assert len(IoRecords()) == 0

    def test_index_and_negative_index_yield_records(self):
        view = IoRecords.from_records(RECORDS)
        assert view[0] == RECORDS[0]
        assert view[-1] == RECORDS[-1]
        assert type(view[-1].submit_time) is float
        assert type(view[-1].nbytes) is int
        with pytest.raises(IndexError):
            view[4]

    def test_slice_is_a_view_of_the_same_records(self):
        view = IoRecords.from_records(RECORDS)
        tail = view[1:3]
        assert isinstance(tail, IoRecords)
        assert list(tail) == list(RECORDS[1:3])
        assert list(view[::-1]) == list(RECORDS[::-1])

    def test_iteration_yields_the_records_in_order(self):
        view = IoRecords.from_records(RECORDS)
        assert list(view) == list(RECORDS)
        assert [r.latency for r in view] == [r.latency for r in RECORDS]

    def test_columns_are_read_only_arrays(self):
        view = IoRecords.from_records(RECORDS)
        assert view.submit_time.dtype == np.float64
        assert view.nbytes.dtype == np.int64
        np.testing.assert_array_equal(
            view.latency, [r.complete_time - r.submit_time for r in RECORDS]
        )
        with pytest.raises(ValueError):
            view.complete_time[0] = 1.0

    def test_equality(self):
        view = IoRecords.from_records(RECORDS)
        assert view == IoRecords.from_records(RECORDS)
        assert view == RECORDS
        assert view == list(RECORDS)
        assert view != RECORDS[:3]
        assert view != IoRecords.from_records(RECORDS[:3])
        moved = RECORDS[:3] + (dataclasses.replace(RECORDS[3], nbytes=1),)
        assert view != IoRecords.from_records(moved)
        with pytest.raises(TypeError):
            {view}  # unhashable, like the arrays it holds

    def test_unequal_column_lengths_are_rejected(self):
        with pytest.raises(ValueError):
            IoRecords([0.0, 1.0], [1.0], [4096, 4096])

    def test_job_result_converts_any_record_sequence(self, result):
        empty = dataclasses.replace(result.job, records=())
        assert isinstance(empty.records, IoRecords)
        assert len(empty.records) == 0
        listed = dataclasses.replace(result.job, records=list(result.job.records))
        assert listed == result.job

    def test_pickle_round_trip(self, result):
        loaded = pickle.loads(pickle.dumps(result))
        assert loaded == result
        assert loaded.job.records == result.job.records
        for name in ("submit_time", "complete_time", "nbytes"):
            column = getattr(loaded.job.records, name)
            assert column.tobytes() == getattr(result.job.records, name).tobytes()
            assert not column.flags.writeable
        assert loaded.latency() == result.latency()

    def test_result_pickles_in_under_32_bytes_per_record(self, result):
        """A result's pickle grows by its three raw columns, 24 B per
        record.  One ``IoRecord`` object per IO pickled to about 31 B, so
        the bound sits below that, not just below 32 B."""
        n = len(result.job.records)
        assert n > 400
        empty = dataclasses.replace(
            result, job=dataclasses.replace(result.job, records=())
        )
        overhead = len(pickle.dumps(empty)) + 64
        assert len(pickle.dumps(result)) < 25 * n + overhead
        legacy = len(pickle.dumps(tuple(result.job.records)))
        assert legacy > 28 * n  # the object layout this guard rules out


class TestLog:
    def test_append_extend_and_view(self):
        log = IoLog()
        for r in RECORDS[:2]:
            log.append(r.submit_time, r.complete_time, r.nbytes)
        rest = IoRecords.from_records(RECORDS[2:])
        log.extend(rest.submit_time, rest.complete_time, rest.nbytes)
        assert len(log) == 4
        assert log.view() == RECORDS
        assert log.view(1, 3) == RECORDS[1:3]

    def test_view_is_a_copy(self):
        log = IoLog()
        log.append(0.0, 1.0, 4096)
        view = log.view()
        log.append(1.0, 2.0, 4096)
        assert len(view) == 1


class TestStatisticsMatchTheRecordLoop:
    """Columnar statistics against the per-record loops they replaced."""

    @staticmethod
    def _reference(job: JobResult):
        measured = [r for r in job.records if r.complete_time >= job.measure_start]
        window = job.end_time - job.measure_start
        return {
            "throughput_bps": sum(r.nbytes for r in measured) / window,
            "iops": len(measured) / window,
            "latency": LatencyStats.from_latencies([r.latency for r in measured]),
        }

    def _assert_matches_reference(self, job: JobResult):
        expected = self._reference(job)
        assert _bits(job.throughput_bps) == _bits(expected["throughput_bps"])
        assert _bits(job.iops) == _bits(expected["iops"])
        got = dataclasses.astuple(job.latency_stats())
        want = dataclasses.astuple(expected["latency"])
        assert [_bits(v) for v in got] == [_bits(v) for v in want]

    def test_on_a_real_run(self, result):
        assert result.job.measure_start > result.job.start_time
        self._assert_matches_reference(result.job)

    def test_on_synthetic_records(self):
        rng = np.random.default_rng(5)
        submit = np.sort(rng.uniform(0.0, 1.0, 500))
        records = [
            IoRecord(float(s), float(s + lat), int(n))
            for s, lat, n in zip(
                submit,
                rng.lognormal(-9.0, 1.0, 500),
                rng.choice([4096, 65536, 131072], 500),
            )
        ]
        spec = JobSpec(IoPattern.RANDREAD, block_size=4 * KiB, iodepth=4)
        job = JobResult(spec, 0.0, 1.2, tuple(records), measure_start=0.3)
        self._assert_matches_reference(job)
