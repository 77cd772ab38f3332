"""Bit-identity gate for the optimized simulation kernel.

``tools/golden_result.py`` replays the committed fixture grid (all four
catalog devices across read/write patterns) and flattens every
``ExperimentResult`` to a canonical form where floats are compared by
``float.hex()``.  Any kernel "optimization" that changes a single bit of any
result -- a reordered float sum, a skipped event, a shifted RNG draw --
fails here, not in a downstream study.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import golden_result  # noqa: E402


class TestGoldenEquivalence:
    def test_all_fixtures_bit_identical(self):
        """Every committed golden fixture must replay bit-identically."""
        assert golden_result.main([]) == 0

    def test_fixture_set_is_nonempty(self):
        """An empty fixture directory must never silently pass the gate."""
        fixtures = sorted(golden_result.GOLDEN_DIR.glob("*.json"))
        assert len(fixtures) >= 21

    def test_covers_every_catalog_device(self):
        """The grid must exercise each catalog device class at least once."""
        names = {p.stem.split("_")[0] for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {"ssd1", "ssd2", "ssd3", "hdd"} <= names

    def test_covers_policy_runtime_and_fleet(self):
        """The composite paths -- online policy decisions and the fleet
        epoch loop -- must be pinned alongside the single-device grid."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert "ssd2_policy_feedback" in stems
        assert "ssd2_policy_ladder" in stems
        assert "fleet_tiny" in stems

    def test_covers_the_cold_paths(self):
        """Handlers reach GC, APST, housekeeping, faults, the ALPM wake
        and tracing through the inline driver, and GC relocations reach
        stalled admissions, pulsed programs and fault delays; each is
        pinned by a run that actually gets there."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {
            "tiny_gc_randwrite",
            "tiny_gc_faults_ps2",
            "tiny_apst_randwrite",
            "ssd2_maintenance_ps1",
            "ssd2_randwrite_4k_qd64_ps2",
            "ssd2_faults_randwrite",
            "ssd2_faults_randread",
            "ssd3_alpm_slumber",
            "ssd2_traced_ps2",
        } <= stems

    def test_covers_the_hdd_cold_paths(self):
        """The HDD's handler path reaches write-through media writes,
        writers parked on a full cache, IO-path faults, the sequential
        continuation pick and EPC recovery; tracing is pinned too."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {
            "hdd_write_through",
            "hdd_cache_full",
            "hdd_faults_randread",
            "hdd_faults_randwrite",
            "hdd_seqread_4k_qd64",
            "hdd_ladder_epc",
            "hdd_traced",
        } <= stems

    def test_every_named_case_has_a_fixture(self):
        """golden_names() and the committed fixture set must agree, so a
        new case cannot be added to the tool without committing its
        fixture (and vice versa)."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert stems == set(golden_result.golden_names())
