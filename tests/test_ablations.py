"""Ablations of DESIGN.md section 7's design decisions.

Each reruns one mechanism with the shipped design choice swapped out and
checks the outcome that made the choice: the cap governor's live
feedback (decision 1), the HDD's write cache and RPO lookahead
(decision 3), and the meter's 1 kHz sampling (decision 4).
"""

import dataclasses

import pytest

from repro._units import GiB, KiB, MiB
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.devices.catalog import hdd_exos_7e2000, ssd_d7p5510
from repro.iogen.spec import IoPattern, JobSpec
from repro.power.adc import AdcConfig
from repro.power.meter import MeterConfig

pytestmark = pytest.mark.integration


def _capped_seqwrite(feedback: bool, baseline_w: float) -> tuple[float, float]:
    """SSD2 sequential 256 KiB writes at QD64 under ps1's 12 W cap:
    (mean power W, throughput MiB/s)."""
    device = dataclasses.replace(
        ssd_d7p5510(), governor_feedback=feedback, governor_baseline_w=baseline_w
    )
    result = run_experiment(
        ExperimentConfig(
            device=device,
            job=JobSpec(
                IoPattern.WRITE,
                block_size=256 * KiB,
                iodepth=64,
                runtime_s=0.08,
                size_limit_bytes=48 * MiB,
            ),
            power_state=1,
        )
    )
    return result.mean_power_w, result.throughput_mib_s


def _hdd_randwrite_mib_s(write_cache: bool, rpo_window: int) -> float:
    """Sustained 4 KiB random-write throughput of the Exos at QD16."""
    device = dataclasses.replace(
        hdd_exos_7e2000(), write_cache_enabled=write_cache, rpo_window=rpo_window
    )
    result = run_experiment(
        ExperimentConfig(
            device=device,
            job=JobSpec(
                IoPattern.RANDWRITE,
                block_size=4 * KiB,
                iodepth=16,
                runtime_s=6.0,
                size_limit_bytes=48 * MiB,
            ),
            warmup_fraction=0.5,
        )
    )
    return result.throughput_mib_s


class TestGovernorFeedback:
    def test_feedback_holds_the_cap_a_static_baseline_cannot(self):
        feedback_w, feedback_mib_s = _capped_seqwrite(True, 6.4)
        low_static_w, __ = _capped_seqwrite(False, 3.0)
        __, high_static_mib_s = _capped_seqwrite(False, 8.5)
        assert feedback_w <= 12.0 + 0.15
        # A low static baseline overshoots the cap...
        assert low_static_w > 12.0
        # ...while a conservatively high one gives up throughput.
        assert high_static_mib_s < feedback_mib_s


class TestHddWriteCache:
    def test_lookahead_and_write_back_set_the_random_write_floor(self):
        wide = _hdd_randwrite_mib_s(True, 32)
        # FIFO-like scheduling (window 1) is clearly worse...
        assert wide > 1.5 * _hdd_randwrite_mib_s(True, 1)
        # ...and write-back with scheduling beats write-through.
        assert wide > _hdd_randwrite_mib_s(False, 16)


@pytest.fixture(scope="module")
def sampled_ssd1():
    """SSD1 random writes (256 KiB, QD64, 0.6 s) through 10 Hz, 100 Hz and
    1 kHz meters: sample rate -> (mean W, max - min W)."""
    readings = {}
    for rate in (10.0, 100.0, 1000.0):
        result = run_experiment(
            ExperimentConfig(
                device="ssd1",
                job=JobSpec(
                    IoPattern.RANDWRITE,
                    block_size=256 * KiB,
                    iodepth=64,
                    runtime_s=0.6,
                    size_limit_bytes=8 * GiB,
                ),
                warmup_fraction=0.1,
                meter=MeterConfig(adc=AdcConfig(sample_rate_hz=rate)),
                keep_trace=True,
            )
        )
        readings[rate] = (result.power.mean_w, result.power.max_w - result.power.min_w)
    return readings


class TestSamplingRate:
    def test_rates_agree_on_mean_and_1khz_sees_watt_scale_swings(self, sampled_ssd1):
        # 100 Hz already gives tens of samples: the means converge.
        assert abs(sampled_ssd1[1000.0][0] - sampled_ssd1[100.0][0]) < 0.5
        assert sampled_ssd1[1000.0][1] > 4.0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 3: the meter point-samples the rail, so 10 Hz "
            "reads a 4.80 W spread against 7.26 W at 1 kHz (needs > 2x); "
            "a period-mean ADC should make this pass"
        ),
    )
    def test_1khz_shows_over_twice_the_10hz_spread(self, sampled_ssd1):
        assert sampled_ssd1[1000.0][1] > 2 * sampled_ssd1[10.0][1]
