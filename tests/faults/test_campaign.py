"""Chaos campaign harness: sampling, shrinking, and bit-reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import parse_fault_plan
from repro.faults.campaign import (
    CONTROLLER_FAMILIES,
    CampaignCell,
    _sample_cells,
    plan_vocabulary,
    run_campaign,
    shrink_plan,
)
from repro.studies.common import QUICK

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def campaign():
    """One small campaign over every family plus the unsafe fixture."""
    return run_campaign(scale=QUICK, budget_cells=8, seed=0)


class TestPlanVocabulary:
    def test_every_plan_parses(self):
        for name, spec in plan_vocabulary(1.5e-3, 0.0105):
            plan = parse_fault_plan(spec)
            assert plan.active, name

    def test_head_plan_is_the_lying_meter(self):
        name, spec = plan_vocabulary(1.5e-3, 0.0105)[0]
        assert name == "bias-low"
        assert parse_fault_plan(spec).sensor.bias_w == -1.5

    def test_windows_scale_with_the_horizon(self):
        short = dict(plan_vocabulary(1.5e-3, 0.01))
        long = dict(plan_vocabulary(1.5e-3, 1.0))
        assert (
            parse_fault_plan(short["dropout"]).sensor.dropout_start_s
            < parse_fault_plan(long["dropout"]).sensor.dropout_start_s
        )


class TestSampling:
    def _cells(self, n_plans=4, devices=("ssd2",), controllers=("a", "b")):
        return [
            CampaignCell(d, c, f"plan{i}", "sensor:bias=-1.5")
            for i in range(n_plans)
            for d in devices
            for c in controllers
        ]

    def test_no_budget_keeps_everything(self):
        cells = self._cells()
        assert _sample_cells(cells, None, 0) == cells
        assert _sample_cells(cells, 100, 0) == cells

    def test_coverage_first_keeps_one_cell_per_pair(self):
        cells = self._cells()
        sampled = _sample_cells(cells, 2, 0)
        assert {(c.device, c.controller) for c in sampled} == {
            ("ssd2", "a"),
            ("ssd2", "b"),
        }
        # The kept head cells carry the vocabulary's first plan.
        assert all(c.plan_name == "plan0" for c in sampled)

    def test_sampling_is_deterministic(self):
        cells = self._cells(n_plans=6)
        assert _sample_cells(cells, 5, 7) == _sample_cells(cells, 5, 7)

    def test_sampling_preserves_enumeration_order(self):
        cells = self._cells(n_plans=6)
        sampled = _sample_cells(cells, 5, 7)
        indices = [cells.index(c) for c in sampled]
        assert indices == sorted(indices)


class TestShrinkPlan:
    def test_drops_irrelevant_clauses(self):
        spec = "sensor:bias=-1.5;actuator:drop=0.5;governor:at=0.02"
        shrunk = shrink_plan(
            spec, lambda candidate: "sensor" in candidate
        )
        assert shrunk == "sensor:bias=-1.5"

    def test_single_clause_is_already_minimal(self):
        assert shrink_plan("governor:at=0.02", lambda _: True) == (
            "governor:at=0.02"
        )

    def test_result_is_canonical(self):
        # Clause order and float spelling normalize on the way out.
        shrunk = shrink_plan(
            "actuator:drop=0.50;sensor:bias=-1.5",
            lambda candidate: "actuator" in candidate,
        )
        assert shrunk == "actuator:drop=0.5"
        assert parse_fault_plan(shrunk).actuator.drop_p == 0.5


class TestCampaign:
    def test_finds_the_seeded_violation(self, campaign):
        """--controllers all must catch the unsafe fixture lying-meter
        bug: at least one violating cell, and a non-ok campaign."""
        assert not campaign.ok
        unsafe = [o for o in campaign.outcomes if o.cell.controller == "unsafe"]
        assert any(o.violations for o in unsafe)

    def test_shipped_families_stay_safe_under_watchdog(self, campaign):
        assert campaign.watchdog_armed
        for outcome in campaign.outcomes:
            if outcome.cell.controller in CONTROLLER_FAMILIES:
                assert outcome.violations == (), (
                    outcome.cell,
                    outcome.violations,
                )

    def test_reproducers_are_minimal_and_reparse(self, campaign):
        assert campaign.reproducers
        for cell, spec in campaign.reproducers:
            assert len(spec.split(";")) <= 2, (cell, spec)
            assert parse_fault_plan(spec).active

    def test_ranking_orders_unsafe_last(self, campaign):
        ranking = campaign.ranking()
        assert ranking[-1][0] == "unsafe"
        assert ranking[-1][3] > 0
        # Best-first: violation counts never decrease down the table.
        counts = [row[3] for row in ranking]
        assert counts == sorted(counts)

    def test_summary_dict_is_json_ready(self, campaign):
        digest = campaign.summary_dict()
        assert json.loads(json.dumps(digest)) == digest
        assert digest["cells"] == campaign.checked
        assert digest["violations"] > 0


_REPRO_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.faults.campaign import run_campaign
from repro.studies.common import QUICK

result = run_campaign(
    scale=QUICK, controllers=("static",), budget_cells=2, seed=3
)
print(json.dumps(result.summary_dict(), sort_keys=True))
"""


class TestBitReproducibility:
    def test_identical_across_hash_seeds(self, tmp_path):
        """The campaign digest must be byte-identical across processes
        with different PYTHONHASHSEED values: nothing in enumeration,
        sampling, execution, or scoring may depend on hash order."""
        script = tmp_path / "campaign_digest.py"
        script.write_text(_REPRO_SCRIPT.format(src=SRC))
        digests = []
        for hash_seed in ("0", "42"):
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]
        assert json.loads(digests[0])["violations"] == 0
