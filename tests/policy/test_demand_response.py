"""The demand-response scenario: a fleet of live devices on repro.policy."""

import numpy as np
import pytest

from repro._units import GiB
from repro.policy import BudgetSchedule
from repro.studies.demand_response import budget_segments, run_demand_response


def _targets(policy, start, end):
    """Set points ``policy`` commanded at decision ticks in ``[start, end)``."""
    return [target for t, _b, target, _m in policy.samples if start <= t < end]


class TestBudgetSegments:
    @pytest.mark.parametrize(
        "budget, duration_s, expected",
        [
            # High, low, high in thirds; the next edge rounds to just
            # under the end of the run and must not split off a sliver.
            (
                BudgetSchedule.step(30.0, 20.5, period_s=0.3),
                0.45,
                ((0.0, 0.15, 30.0), (0.15, 0.3, 20.5), (0.3, 0.45, 30.0)),
            ),
            (
                BudgetSchedule.step(8.0, 2.0, period_s=1.0, duty=0.25),
                2.1,
                (
                    (0.0, 0.25, 8.0),
                    (0.25, 1.0, 2.0),
                    (1.0, 1.25, 8.0),
                    (1.25, 2.0, 2.0),
                    (2.0, 2.1, 8.0),
                ),
            ),
            (BudgetSchedule.constant(12.0), 2.4, ((0.0, 2.4, 12.0),)),
        ],
    )
    def test_edges_are_where_the_budget_changes(self, budget, duration_s, expected):
        assert budget_segments(budget, duration_s) == expected

    def test_diurnal_budget_rejected(self):
        budget = BudgetSchedule.diurnal(30.0, 20.0, period_s=0.3)
        with pytest.raises(ValueError, match="diurnal"):
            budget_segments(budget, 0.45)
        with pytest.raises(ValueError, match="diurnal"):
            run_demand_response(n_devices=1, budget=budget, duration_s=0.45)


class TestRunDemandResponse:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="n_devices"):
            run_demand_response(n_devices=0)

    def test_same_seed_same_run(self):
        def run():
            return run_demand_response(
                n_devices=1, offered_load_bps=GiB, duration_s=0.06, seed=3
            )

        first, second = run(), run()
        assert first.fleet_power == second.fleet_power
        for column in ("submit_time", "complete_time", "nbytes"):
            assert np.array_equal(
                getattr(first.workload.records, column),
                getattr(second.workload.records, column),
            )
        assert len(first.workload.records) > 0


@pytest.mark.integration
class TestDemandResponseScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_demand_response(
            n_devices=2,
            offered_load_bps=int(4.8 * GiB),
            duration_s=0.45,
            budget=BudgetSchedule.step(30.0, 20.5, period_s=0.3),
        )

    def test_all_segments_compliant(self, result):
        assert len(result.compliance) == 3
        assert result.fully_compliant, result.describe()

    def test_controller_throttled_during_dip(self, result):
        for policy in result.policies:
            dip = _targets(policy, 0.15, 0.30)
            assert dip and max(dip) <= 20.5 / 2

    def test_controller_recovered_after_dip(self, result):
        for policy in result.policies:
            assert _targets(policy, 0.30, 0.45)[-1] == 30.0 / 2

    def test_qos_cost_visible(self, result):
        """Throttling under the dip queues or sheds offered load."""
        stats = result.workload.latency_stats()
        assert result.workload.shed > 0 or stats.p99 > 5 * stats.p50
