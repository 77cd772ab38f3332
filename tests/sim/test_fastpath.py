"""Unit tests for the fastpath building blocks.

The differential harness in ``tests/equivalence/`` proves end-to-end
equivalence; these tests pin the individual contracts the harness rests
on: offset-stream ``skip()`` fidelity, the stationarity detector's
windowing logic, the eligibility gate's decline reasons, the
``FastpathOptions`` / ``FastpathSummary`` surfaces, and the splice's
payoff on long steady reads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.devices.catalog import DEVICE_PRESETS, build_device
from repro.devices.link import LinkPowerMode
from repro.iogen.patterns import RandomOffsets, SequentialOffsets
from repro.iogen.spec import IoPattern, JobSpec
from repro.iogen.stats import IoLog, IoRecord
from repro.obs.events import Tracer
from repro.obs.profile import RunProfiler
from repro.sim.engine import Engine
from repro.sim.fastpath import driver
from repro.sim.fastpath.detect import StationarityDetector
from repro.sim.fastpath.driver import splice_eligibility
from repro.sim.fastpath.options import FastpathOptions, FastpathSummary
from repro.sim.fastpath.splice import Fixup, apply_fixups
from repro.sim.rng import RngStreams


# -- offset stream skip() ------------------------------------------------


BLOCK = 4 * KiB


def _sequential_pair():
    make = lambda: SequentialOffsets(0, 64 * BLOCK, BLOCK)  # noqa: E731
    return make(), make()


def _random_pair(seed: int = 7):
    make = lambda: RandomOffsets(  # noqa: E731
        0, 4096 * BLOCK, BLOCK, np.random.default_rng(seed)
    )
    return make(), make()


class TestOffsetSkip:
    """skip(n) must equal n discarded next_offset() calls exactly."""

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 100])
    def test_sequential_skip_matches_discards(self, n):
        skipped, stepped = _sequential_pair()
        skipped.skip(n)
        for _ in range(n):
            stepped.next_offset()
        assert [skipped.next_offset() for _ in range(16)] == [
            stepped.next_offset() for _ in range(16)
        ]

    def test_sequential_skip_wraps_like_stepping(self):
        skipped, stepped = _sequential_pair()
        n = 3 * skipped.slots + 5  # several whole laps plus a remainder
        skipped.skip(n)
        for _ in range(n):
            stepped.next_offset()
        assert skipped.next_offset() == stepped.next_offset()

    @pytest.mark.parametrize("n", [0, 1, 100, 4096, 5000, 3 * 4096 + 17])
    def test_random_skip_matches_discards(self, n):
        skipped, stepped = _random_pair()
        skipped.skip(n)
        for _ in range(n):
            stepped.next_offset()
        assert [skipped.next_offset() for _ in range(64)] == [
            stepped.next_offset() for _ in range(64)
        ]

    def test_random_skip_mid_batch_keeps_rng_position(self):
        """A skip that starts mid-batch and crosses the batch boundary
        leaves the underlying generator at the identical stream
        position (the same whole batches are drawn)."""
        skipped, stepped = _random_pair()
        for gen in (skipped, stepped):
            for _ in range(3):
                gen.next_offset()
        n = 4100  # remainder of batch one + most of batch two
        skipped.skip(n)
        for _ in range(n):
            stepped.next_offset()
        assert (
            skipped._rng.bit_generator.state
            == stepped._rng.bit_generator.state
        )
        assert skipped.next_offset() == stepped.next_offset()

    def test_negative_skip_rejected(self):
        for gen in (*_sequential_pair(), *_random_pair()):
            with pytest.raises(ValueError):
                gen.skip(-1)


# -- stationarity detector ----------------------------------------------


class _ConstantTrace:
    """A rail trace stub whose window mean is scripted per probe window."""

    def __init__(self, means):
        self._means = list(means)

    def mean(self, t_start, t_end):
        return self._means.pop(0) if self._means else 5.0


class _RailStub:
    def __init__(self, trace):
        self.trace = trace


class _JobStub:
    def __init__(self, block_size=BLOCK):
        self.records = IoLog()
        self._issued_bytes = 0
        self.spec = dataclasses.make_dataclass("Spec", ["block_size"])(
            block_size
        )

    def complete_window(self, n, t_start, latency_s):
        """Append n evenly spaced completions inside [t_start, t_start+1ms)."""
        for i in range(n):
            submit = t_start + i * (1e-3 / n)
            self.records.append(submit, submit + latency_s, self.spec.block_size)
            self._issued_bytes += self.spec.block_size


def _opts(**overrides):
    defaults = dict(window_records=8)
    defaults.update(overrides)
    return FastpathOptions(**defaults)


class TestStationarityDetector:
    def _steady(self, detector, job, probes, latency_s=1e-4, start=0.0):
        """Feed ``probes`` steady windows; return the last probe result."""
        result = None
        for k in range(probes):
            job.complete_window(8, start + k * 1e-3, latency_s)
            result = detector.probe(start + (k + 1) * 1e-3, 100 * (k + 1))
        return result

    def test_needs_three_checkpoints(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([])), _opts()
        )
        assert detector.next_probe_len == 8
        assert self._steady(detector, job, probes=2) is None

    def test_steady_run_yields_the_latest_window(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([5.0, 5.0])), _opts()
        )
        stats = self._steady(detector, job, probes=3)
        assert stats is not None
        assert stats.t_start == pytest.approx(2e-3)
        assert stats.t_end == pytest.approx(3e-3)
        assert stats.window_s == pytest.approx(1e-3)
        assert (stats.records_start, stats.records_end) == (16, 24)
        assert stats.records == 8
        assert stats.submissions == 8
        assert stats.events == 100
        assert stats.mean_power_w == 5.0

    def test_probe_advances_the_next_probe_threshold(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([])), _opts()
        )
        self._steady(detector, job, probes=1)
        assert detector.next_probe_len == len(job.records) + 8

    def test_rate_drift_rejected(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([5.0, 5.0])), _opts()
        )
        self._steady(detector, job, probes=2)
        # Third window spans 2.5 ms for the same 8 records: rate falls
        # 60%, far outside the 2% gate.
        job.complete_window(8, 2e-3, 1e-4)
        assert detector.probe(4.5e-3, 300) is None

    def test_latency_drift_rejected(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([5.0, 5.0])), _opts()
        )
        self._steady(detector, job, probes=2)
        job.complete_window(8, 2e-3, 1.5e-4)  # +50% latency, gate is 10%
        assert detector.probe(3e-3, 300) is None

    def test_power_drift_rejected(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([5.0, 6.0])), _opts()
        )
        assert self._steady(detector, job, probes=3) is None

    def test_zero_width_window_rejected(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([])), _opts()
        )
        self._steady(detector, job, probes=2)
        job.complete_window(8, 2e-3, 1e-4)
        assert detector.probe(2e-3, 300) is None  # same instant as probe 2

    def test_reset_forgets_checkpoints_and_rearms(self):
        job = _JobStub()
        detector = StationarityDetector(
            job, _RailStub(_ConstantTrace([5.0] * 8)), _opts()
        )
        assert self._steady(detector, job, probes=3) is not None
        detector.reset()
        assert detector.next_probe_len == len(job.records) + 8
        # Post-reset the detector must re-earn three checkpoints.
        assert self._steady(detector, job, probes=2, start=3e-3) is None
        assert self._steady(detector, job, probes=1, start=5e-3) is not None


# -- in-flight fixups -----------------------------------------------------


def _apply_fixups_loop(records, fixups):
    """The per-record loop the masked add replaced: the reference."""
    records = list(records)
    fixed = 0
    for fixup in fixups:
        for i in range(fixup.position, len(records)):
            r = records[i]
            if r.submit_time <= fixup.t_splice:
                records[i] = IoRecord(
                    r.submit_time + fixup.shift_s, r.complete_time, r.nbytes
                )
                fixed += 1
    return records, fixed


def _columns(records):
    return [
        np.array([getattr(r, name) for r in records]).tobytes()
        for name in ("submit_time", "complete_time", "nbytes")
    ]


class TestApplyFixups:
    def test_masked_add_matches_the_record_loop_on_a_spliced_run(
        self, monkeypatch
    ):
        seen = []
        real = driver.apply_fixups

        def spy(records, fixups):
            before = records.view()
            fixed = real(records, fixups)
            seen.append((before, list(fixups), records.view(), fixed))
            return fixed

        monkeypatch.setattr(driver, "apply_fixups", spy)
        result = run_experiment(
            ExperimentConfig(
                device="pm1743",
                job=JobSpec(
                    IoPattern.RANDREAD,
                    block_size=BLOCK,
                    iodepth=8,
                    runtime_s=0.02,
                    size_limit_bytes=256 * MiB,
                ),
                seed=7,
                fastpath=FastpathOptions(window_records=8),
            )
        )
        assert result.fastpath.engaged
        ((before, fixups, after, fixed),) = seen
        expected, expected_fixed = _apply_fixups_loop(before, fixups)
        assert fixed == expected_fixed > 0
        assert _columns(after) == _columns(expected)
        assert result.job.records == after

    def test_chained_fixups_match_the_record_loop(self):
        """A later fixup sees the submit times an earlier one moved."""
        log = IoLog()
        for i in range(40):
            log.append(i * 1e-4, i * 1e-4 + 3.3e-4, BLOCK)
        fixups = [
            Fixup(position=10, t_splice=1.5e-3, shift_s=2.5e-3),
            # Overlaps the first: records 12-15 are tested on the submit
            # times the first fixup gave them, so 13-15 stay put.
            Fixup(position=12, t_splice=3.75e-3, shift_s=1.1e-3),
        ]
        expected, expected_fixed = _apply_fixups_loop(log.view(), fixups)
        assert [r.submit_time > 4e-3 for r in expected[12:16]] == [
            True, False, False, False
        ]
        assert apply_fixups(log, fixups) == expected_fixed
        assert _columns(log.view()) == _columns(expected)
        # The log is still growable once the fixups are applied.
        log.append(1.0, 1.1, BLOCK)


# -- eligibility gate ----------------------------------------------------


def _config(pattern=IoPattern.RANDREAD, **overrides):
    return ExperimentConfig(
        device="ssd3",
        job=JobSpec(
            pattern=pattern, block_size=64 * KiB, iodepth=8, runtime_s=4e-3
        ),
        **overrides,
    )


def _device(name="ssd3", engine=None, config=None):
    return build_device(
        engine or Engine(), config or name, rng=RngStreams(7)
    )


class TestEligibilityGate:
    """Each decline clause fires for exactly its own hidden-state hazard."""

    def test_eligible_read_job_passes_the_gate(self):
        assert splice_eligibility(_device(), _config()) == ""

    def test_writes_decline(self):
        reason = splice_eligibility(
            _device(), _config(pattern=IoPattern.RANDWRITE)
        )
        assert "write" in reason

    def test_fault_plans_decline(self):
        from repro.faults import parse_fault_plan

        config = _config(faults=parse_fault_plan("governor:at=0.002"))
        assert "fault" in splice_eligibility(_device(), config)

    def test_policies_decline(self):
        from repro.policy import BudgetSchedule, PolicySpec

        config = _config(
            policy=PolicySpec(
                kind="feedback",
                budget=BudgetSchedule.constant(8.0),
                interval_s=1e-3,
                window_s=2e-3,
            )
        )
        assert "polic" in splice_eligibility(_device(), config)

    def test_power_wave_declines(self):
        assert "wave" in splice_eligibility(_device("ssd1"), _config())

    def test_rail_audit_declines(self):
        from repro.validate.audit import RailAudit

        device = _device()
        device.rail.attach_audit(RailAudit())
        assert "audit" in splice_eligibility(device, _config())

    def test_non_operational_power_state_declines(self):
        device = _device("pm1743")
        device._resident = device.config.power_states[3]
        assert not device.config.power_states[3].operational
        assert "non-operational" in splice_eligibility(device, _config())

    def test_hdd_declines(self):
        assert "not a simulated SSD" in splice_eligibility(
            _device("hdd"), _config()
        )

    # Batch mode once declined the next three hazards because it stepped
    # the SSD network without the event kernel.  Batch is gone: the mode
    # is refused, and the splice keeps the kernel, so the link wake path,
    # an APST timer and a tracer all keep their exact semantics and the
    # run stays eligible.

    def test_batch_declines_low_power_link(self):
        with pytest.raises(ValueError, match="mode"):
            FastpathOptions(mode="batch")
        device = _device()
        device.link.mode = LinkPowerMode.SLUMBER
        assert splice_eligibility(device, _config()) == ""

    def test_batch_declines_apst(self):
        with pytest.raises(ValueError, match="mode"):
            FastpathOptions(mode="batch")
        # pm1743 has non-operational states for APST to doze into.
        config = dataclasses.replace(
            DEVICE_PRESETS["pm1743"](), apst_idle_timeout_s=1e-3
        )
        assert splice_eligibility(_device(config=config), _config()) == ""

    def test_batch_declines_enabled_tracer(self):
        with pytest.raises(ValueError, match="mode"):
            FastpathOptions(mode="batch")
        engine = Engine(tracer=Tracer())
        assert splice_eligibility(_device(engine=engine), _config()) == ""


# -- options + summary surfaces -----------------------------------------


class TestFastpathOptions:
    def test_defaults_validate(self):
        assert FastpathOptions().mode == "splice"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "warp"},
            {"mode": "auto"},
            {"mode": "batch"},
            {"window_records": 7},
            {"min_windows": 0},
            {"margin_windows": 0},
            {"rate_rtol": 0.0},
            {"power_rtol": 1.0},
            {"latency_rtol": -0.1},
            {"max_splices": 0},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            FastpathOptions(**overrides)

    def test_frozen_and_hashable(self):
        opts = FastpathOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.mode = "exact"
        assert hash(opts) == hash(FastpathOptions())


class TestFastpathSummary:
    def test_declined_describe_names_the_reason(self):
        text = FastpathSummary(
            engaged=False, mode="exact", reason="rail audit shadows"
        ).describe()
        assert "declined" in text and "rail audit shadows" in text

    def test_splice_describe_counts_splices(self):
        text = FastpathSummary(
            engaged=True,
            mode="splice",
            events_fast_forwarded=99,
            time_fast_forwarded_s=2e-3,
        ).describe()
        assert "splice" in text and "2.0 ms" in text and "99" in text


class TestSteadyGridPayoff:
    """The splice pays on long steady reads: 64 KiB random reads at QD8
    for 0.5 s on the wave-free SSDs.  The gate counts kernel events, not
    wall time, so it repeats exactly: the engine processes 12 %, 14 % and
    3.2 % of the events the run accounts for (the rest are fast-forwarded)
    on ssd3, 860evo and pm1743."""

    @pytest.mark.parametrize("device", ["ssd3", "860evo", "pm1743"])
    def test_splice_processes_at_most_a_fifth_of_the_events(self, device):
        config = ExperimentConfig(
            device=device,
            job=JobSpec(
                IoPattern.RANDREAD,
                block_size=64 * KiB,
                iodepth=8,
                runtime_s=0.5,
                size_limit_bytes=4096 * MiB,
            ),
            seed=11,
            fastpath=FastpathOptions(),
        )
        profiler = RunProfiler()
        result = run_experiment(config, profiler=profiler)
        point = profiler.points[-1]

        assert result.fastpath.engaged, result.fastpath.describe()
        accounted = point.sim_events + point.sim_events_fast_forwarded
        assert point.sim_events <= accounted / 5
