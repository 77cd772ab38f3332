"""Integration tests: the paper's findings, as shape assertions.

These run the actual figure pipelines at CI scale (``QUICK``) and assert
the *relationships* the paper reports -- who wins, in which direction, by
roughly what factor.  Exact magnitudes live in EXPERIMENTS.md; these bands
are deliberately loose so the tests check mechanisms, not calibration
decimals.
"""

import pytest

from repro._units import KiB
from repro.core.adaptive import PowerAdaptivePlanner
from repro.iogen.spec import IoPattern
from repro.studies import fig10, fig4, fig6, fig7, proportionality, table1
from repro.studies.common import QUICK, run_point


pytestmark = pytest.mark.integration


class TestTable1Ranges:
    """Table 1: measured power ranges straddle the paper's figures."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {row.label: row for row in table1.run(QUICK)}

    @pytest.mark.parametrize("label", ["ssd1", "ssd2", "ssd3", "hdd"])
    def test_min_power_close_to_paper(self, rows, label):
        row = rows[label]
        assert row.measured_min_w == pytest.approx(row.paper_min_w, abs=0.4)

    @pytest.mark.parametrize("label", ["ssd1", "ssd2", "ssd3", "hdd"])
    def test_max_power_close_to_paper(self, rows, label):
        row = rows[label]
        assert row.measured_max_w == pytest.approx(row.paper_max_w, rel=0.15)

    def test_nvme_ssds_have_widest_absolute_range(self, rows):
        nvme_span = rows["ssd2"].measured_max_w - rows["ssd2"].measured_min_w
        sata_span = rows["ssd3"].measured_max_w - rows["ssd3"].measured_min_w
        hdd_span = rows["hdd"].measured_max_w - rows["hdd"].measured_min_w
        assert nvme_span > sata_span
        assert nvme_span > hdd_span


class TestFig2Variability:
    """Fig. 2: millisecond sampling shows swings a 10 Hz view averages away."""

    def test_full_rate_spread_dwarfs_the_10hz_view(self, fig2_result):
        assert fig2_result.full_rate_spread > 4 * fig2_result.slow_rate_spread


class TestFig4PowerCapAsymmetry:
    """Fig. 4: caps crush writes, leave reads alone."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(QUICK)

    def test_write_throughput_drops_under_ps1(self, result):
        ratio = result.mean_state_ratio(IoPattern.WRITE, 1)
        assert 0.50 <= ratio <= 0.90  # paper: 0.74

    def test_write_throughput_drops_more_under_ps2(self, result):
        r1 = result.mean_state_ratio(IoPattern.WRITE, 1)
        r2 = result.mean_state_ratio(IoPattern.WRITE, 2)
        assert r2 < r1
        assert 0.30 <= r2 <= 0.70  # paper: 0.55

    def test_read_throughput_insensitive_to_caps(self, result):
        for ps in (1, 2):
            ratio = result.mean_state_ratio(IoPattern.READ, ps)
            assert ratio == pytest.approx(1.0, abs=0.05)


class TestFig5And6Latency:
    """Figs. 5/6: capped write latency inflates; read latency does not."""

    @pytest.fixture(scope="class")
    def large_chunk_writes(self):
        """SSD2 1 MiB QD1 random-write latency at ps0 and at ps2."""
        return [
            run_point(
                "ssd2", IoPattern.RANDWRITE, 1024 * KiB, 1,
                power_state=ps, scale=QUICK, latency_study=True,
            ).latency()
            for ps in (0, 2)
        ]

    def test_capped_write_latency_inflates_at_large_chunks(self, large_chunk_writes):
        l0, l2 = large_chunk_writes
        assert l2.mean / l0.mean > 1.5  # paper: up to ~2x
        assert l2.p99 / l0.p99 > 1.8  # paper: up to 6.19x

    def test_worst_p99_inflation_exceeds_twofold(self, large_chunk_writes):
        """Fig. 5b's worst chunk is at least as inflated as 1 MiB."""
        l0, l2 = large_chunk_writes
        assert l2.p99 / l0.p99 > 2.0

    def test_small_chunk_write_latency_unaffected(self):
        l0 = run_point(
            "ssd2", IoPattern.RANDWRITE, 4 * KiB, 1,
            power_state=0, scale=QUICK, latency_study=True,
        ).latency()
        l2 = run_point(
            "ssd2", IoPattern.RANDWRITE, 4 * KiB, 1,
            power_state=2, scale=QUICK, latency_study=True,
        ).latency()
        assert l2.mean / l0.mean == pytest.approx(1.0, abs=0.1)

    def test_read_latency_unaffected_by_caps(self):
        l0 = run_point(
            "ssd2", IoPattern.RANDREAD, 64 * KiB, 1, power_state=0, scale=QUICK
        ).latency()
        l2 = run_point(
            "ssd2", IoPattern.RANDREAD, 64 * KiB, 1, power_state=2, scale=QUICK
        ).latency()
        assert l2.mean / l0.mean == pytest.approx(1.0, abs=0.02)
        assert l2.p99 / l0.p99 == pytest.approx(1.0, abs=0.05)

    def test_read_latency_flat_across_every_chunk(self):
        """Fig. 6: no capped state moves any chunk's avg or p99 by 5 %."""
        assert fig6.run(QUICK).worst_deviation < 0.05


class TestFig7Standby:
    """Fig. 7: the EVO's ALPM transition."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run()

    def test_slumber_halves_idle_power(self, result):
        assert result.idle_power_w == pytest.approx(0.35, abs=0.02)
        assert result.slumber_power_w == pytest.approx(0.17, abs=0.02)

    def test_transitions_complete_within_half_second(self, result):
        assert result.enter_settle_s <= 0.5
        assert result.exit_settle_s <= 0.5

    def test_transition_draws_transient_power(self, result):
        # The bump above the idle level during the transition (Fig. 7's
        # visible transient).
        assert result.enter_trace.max() > result.idle_power_w + 0.2


class TestFig8And9IoShaping:
    """Figs. 8/9: chunk size and queue depth modulate power and throughput."""

    def test_small_chunks_save_power_and_cost_throughput(self):
        small = run_point("ssd2", IoPattern.RANDWRITE, 4 * KiB, 64, scale=QUICK)
        large = run_point("ssd2", IoPattern.RANDWRITE, 2048 * KiB, 64, scale=QUICK)
        power_saving = 1 - small.mean_power_w / large.mean_power_w
        throughput_loss = 1 - small.throughput_bps / large.throughput_bps
        assert 0.15 <= power_saving <= 0.45  # paper: up to 30 %
        assert 0.30 <= throughput_loss <= 0.80  # paper: up to 50 %

    @pytest.mark.parametrize("device", ["ssd1", "ssd2"])
    def test_fig8_small_chunks_trade_throughput_for_power(self, fig8_quick, device):
        assert fig8_quick.power_saving_small_chunks(device) > 0.10
        assert fig8_quick.throughput_loss_small_chunks(device) > 0.25

    def test_shallow_queue_saves_power_and_costs_throughput(self, fig9_quick):
        result = fig9_quick
        saving = result.power_saving_qd1("ssd2")
        fraction = result.throughput_fraction_qd1("ssd2")
        assert 0.20 <= saving <= 0.55  # paper: up to 40 %
        assert fraction <= 0.15  # paper: ~10 %

    def test_power_monotone_in_queue_depth(self, fig9_quick):
        result = fig9_quick
        series = result.power_w["ssd2"]
        assert series[0] == min(series)
        assert max(series) == pytest.approx(max(series[-2:]), rel=0.1)


class TestFig10Model:
    """Fig. 10: the power-throughput model's headline numbers."""

    @pytest.fixture(scope="class")
    def ssd2_model(self):
        return fig10.build_model(
            "ssd2",
            scale=QUICK,
            chunks=(4 * KiB, 256 * KiB, 2048 * KiB),
            depths=(1, 64),
        )

    @pytest.fixture(scope="class")
    def hdd_model(self):
        return fig10.build_model(
            "hdd",
            scale=QUICK,
            chunks=(4 * KiB, 2048 * KiB),
            depths=(1, 64),
        )

    def test_ssd2_dynamic_range_near_paper(self, ssd2_model):
        # Paper: 59.4 % of maximum power.
        assert 0.45 <= ssd2_model.dynamic_range_fraction <= 0.70

    def test_hdd_throughput_floor_small(self, hdd_model):
        # Paper: throughput can drop to ~4 % of maximum (1/25).
        assert hdd_model.min_normalized_throughput <= 0.10

    def test_hdd_dynamic_range_narrow(self, hdd_model, ssd2_model):
        """HDDs have a narrow operating power range (paper section 2)."""
        assert hdd_model.dynamic_range_fraction < ssd2_model.dynamic_range_fraction

    def test_worked_example_direction(self, ssd2_model):
        """A 20 % power cut costs a disproportionate throughput share."""
        __, curtailed = ssd2_model.throughput_cost_of_power_cut(0.20)
        assert curtailed >= 0.2

    def test_ssd1_power_cut_curtails_load(self):
        """Section 3.3's worked example: SSD1 under a 20 % cut sheds load."""
        model = fig10.build_model(
            "ssd1",
            scale=QUICK,
            chunks=(256 * KiB, 2048 * KiB),
            depths=(1, 64),
        )
        assert PowerAdaptivePlanner(model).plan_power_cut(0.20).curtailed_bps > 0


class TestMeterAccuracy:
    """Section 3: the measurement system's <1 % relative error claim."""

    @pytest.mark.parametrize("device", ["ssd1", "ssd2", "ssd3"])
    def test_meter_error_below_one_percent(self, device):
        result = run_point(device, IoPattern.RANDWRITE, 256 * KiB, 64, scale=QUICK)
        assert result.meter_relative_error < 0.01


class TestProportionality:
    """Footnote 1: the devices are adaptive but weakly power proportional."""

    @pytest.fixture(scope="class")
    def curves(self):
        return proportionality.run(QUICK)

    def test_power_rises_with_load_above_an_idle_floor(self, curves):
        for curve in curves:
            assert curve.power_w[-1] > curve.power_w[0]
            assert 0.2 <= curve.idle_fraction <= 0.95
            assert 0.0 < curve.proportionality_index < 1.0

    def test_hdd_least_proportional(self, curves):
        """Constant rotation makes the HDD the least proportional device."""
        indices = {curve.device: curve.proportionality_index for curve in curves}
        assert indices["hdd"] == min(indices.values())
