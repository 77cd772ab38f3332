"""Unit tests for the power rail."""

import pytest

from repro.power.rail import PowerRail


class TestPowerRail:
    def test_total_sums_components(self, engine):
        rail = PowerRail(engine)
        rail.set_draw("a", 2.0)
        rail.set_draw("b", 3.0)
        assert rail.total_watts == pytest.approx(5.0)

    def test_set_draw_is_absolute(self, engine):
        rail = PowerRail(engine)
        rail.set_draw("a", 2.0)
        rail.set_draw("a", 1.0)
        assert rail.total_watts == pytest.approx(1.0)

    def test_add_draw_is_relative(self, engine):
        rail = PowerRail(engine)
        rail.add_draw("a", 2.0)
        rail.add_draw("a", 0.5)
        assert rail.draw_of("a") == pytest.approx(2.5)

    def test_negative_draw_rejected(self, engine):
        rail = PowerRail(engine)
        with pytest.raises(ValueError):
            rail.set_draw("a", -1.0)

    def test_negative_via_add_rejected(self, engine):
        rail = PowerRail(engine)
        rail.add_draw("a", 1.0)
        with pytest.raises(ValueError):
            rail.add_draw("a", -2.0)

    def test_invalid_voltage_rejected(self, engine):
        with pytest.raises(ValueError):
            PowerRail(engine, voltage=0.0)

    def test_trace_records_changes_at_sim_time(self, engine):
        rail = PowerRail(engine)
        rail.set_draw("a", 1.0)
        engine.timeout(2.0).add_callback(lambda e: rail.set_draw("a", 3.0))
        engine.run()
        assert list(rail.trace.sample([1.0, 2.5])) == [1.0, 3.0]

    def test_mean_power_window(self, engine):
        rail = PowerRail(engine)
        rail.set_draw("a", 2.0)
        engine.timeout(1.0).add_callback(lambda e: rail.set_draw("a", 4.0))
        engine.timeout(2.0)
        engine.run()
        assert rail.mean_power(0.0, 2.0) == pytest.approx(3.0)

    def test_draw_of_prefix(self, engine):
        rail = PowerRail(engine)
        rail.set_draw("die0", 1.0)
        rail.set_draw("die1", 2.0)
        rail.set_draw("ctrl", 4.0)
        assert rail.draw_of_prefix("die") == pytest.approx(3.0)

    def test_components_snapshot_is_copy(self, engine):
        rail = PowerRail(engine)
        rail.set_draw("a", 1.0)
        snapshot = rail.components()
        snapshot["a"] = 99.0
        assert rail.draw_of("a") == pytest.approx(1.0)

    def test_unknown_component_draws_zero(self, engine):
        rail = PowerRail(engine)
        assert rail.draw_of("ghost") == 0.0
