"""The public API surface, pinned.

``repro.api`` (mirrored by the ``repro`` top level) is the supported
import surface.  ``PUBLIC_API`` below is the snapshot: adding or
removing a public name without editing this list fails the suite, so
the surface can only change deliberately.  To change it, change
``repro/api.py`` *and* this snapshot in the same commit, and say why in
the commit message.

The import lint half (``tools/check_api_surface.py``) keeps README code
blocks and ``examples/`` honest about importing only these names.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_api_surface  # noqa: E402

import repro  # noqa: E402
import repro.api  # noqa: E402

#: The supported surface.  Keep sorted; keep in sync with repro/api.py.
PUBLIC_API = (
    "AbsorptionResult",
    "ActuatorFaultSpec",
    "AdaptivePlan",
    "AdcConfig",
    "AlpmController",
    "AsymmetricPlan",
    "AsymmetricPlanner",
    "AtaPowerMode",
    "BucketedHistogram",
    "BudgetAllocator",
    "BudgetSchedule",
    "BudgetSplit",
    "ClusterGovernor",
    "DEFAULT",
    "DEVICE_PRESETS",
    "DemandResponseResult",
    "DeviceView",
    "Engine",
    "EventKind",
    "ExecutionOptions",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultInjector",
    "FaultPlan",
    "FaultSummary",
    "FeedbackBudgetPolicy",
    "FleetAllocation",
    "FleetModel",
    "FleetResult",
    "FleetSpec",
    "GiB",
    "HysteresisLadderPolicy",
    "IOKind",
    "IORequest",
    "IOResult",
    "InvariantViolationError",
    "IoPattern",
    "JobSpec",
    "KiB",
    "LinkPowerMode",
    "MeterConfig",
    "MetricsCollector",
    "MetricsRegistry",
    "MiB",
    "ModelPoint",
    "NullTracer",
    "NvmeCli",
    "PointFailure",
    "PointSpan",
    "PolicySpec",
    "PolicySummary",
    "PowerMeter",
    "PowerThroughputModel",
    "ProgressUpdate",
    "QUICK",
    "RedirectionDecision",
    "RedirectionPolicy",
    "ResultCache",
    "RngStreams",
    "RunLedger",
    "RunProfiler",
    "SensorFaultSpec",
    "SimEvent",
    "StandbyProfile",
    "StaticCapPolicy",
    "StorageDevice",
    "StudyScale",
    "SweepExecutionError",
    "SweepGrid",
    "SweepOutcome",
    "SweepPoint",
    "SweepRollup",
    "SweepTelemetry",
    "Tolerances",
    "Tracer",
    "ValidationReport",
    "Violation",
    "WatchdogSpec",
    "WorkerStats",
    "WriteAbsorptionScenario",
    "build_device",
    "build_model",
    "build_policy",
    "check_power_mode",
    "idle_immediate",
    "merge_snapshots",
    "parse_fault_plan",
    "render_fault_plan",
    "run_configs",
    "run_demand_response",
    "run_experiment",
    "run_fleet",
    "run_sweep",
    "standby_immediate",
    "sweep_outcome",
    "validate_result",
)


class TestSurfaceSnapshot:
    def test_api_matches_snapshot(self):
        """A name appearing in or vanishing from ``repro.api`` must come
        with a deliberate snapshot update here."""
        assert tuple(repro.api.__all__) == PUBLIC_API, (
            "repro.api.__all__ diverged from the PUBLIC_API snapshot in "
            "tests/test_api_surface.py; if the change is intentional, "
            "update the snapshot in the same commit"
        )

    def test_top_level_mirrors_api(self):
        assert tuple(n for n in repro.__all__ if n != "__version__") == (
            PUBLIC_API
        )
        assert "__version__" in repro.__all__

    def test_snapshot_is_sorted(self):
        assert tuple(sorted(PUBLIC_API)) == PUBLIC_API

    def test_every_name_resolves_identically(self):
        """``repro.X`` and ``repro.api.X`` are the same objects."""
        for name in PUBLIC_API:
            assert getattr(repro, name) is getattr(repro.api, name)

    def test_no_undeclared_public_attributes(self):
        """Nothing module-like or underscore-private leaks into the
        declared surface."""
        for name in PUBLIC_API:
            assert not name.startswith("_")
            assert not type(getattr(repro.api, name)).__name__ == "module"


class TestApiSurfaceLint:
    def test_repo_is_clean(self):
        """README code blocks and examples/ import only repro/repro.api."""
        assert check_api_surface.main([]) == 0

    def _seed_tree(self, tmp_path, readme="", example=""):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "api.py").write_text(
            '__all__ = ["run_experiment"]\n'
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "README.md").write_text(readme)
        if example:
            (tmp_path / "examples" / "demo.py").write_text(example)
        return tmp_path

    def test_detects_deep_import_in_example(self, tmp_path, capsys):
        root = self._seed_tree(
            tmp_path, example="from repro.core.parallel import run_configs\n"
        )
        assert check_api_surface.main([str(root)]) == 1
        assert "examples/demo.py:1" in capsys.readouterr().out

    def test_detects_deep_import_in_readme_block(self, tmp_path, capsys):
        readme = "# t\n\n```python\nfrom repro.sim.engine import Engine\n```\n"
        root = self._seed_tree(tmp_path, readme=readme)
        assert check_api_surface.main([str(root)]) == 1
        assert "README.md:4" in capsys.readouterr().out

    def test_detects_unknown_public_name(self, tmp_path, capsys):
        root = self._seed_tree(
            tmp_path, example="from repro import not_a_real_name\n"
        )
        assert check_api_surface.main([str(root)]) == 1
        assert "not_a_real_name" in capsys.readouterr().out

    def test_accepts_supported_imports(self, tmp_path):
        readme = "```python\nfrom repro import run_experiment\n```\n"
        root = self._seed_tree(
            tmp_path,
            readme=readme,
            example="import repro\nfrom repro.api import run_experiment\n",
        )
        assert check_api_surface.main([str(root)]) == 0

    def test_non_repro_imports_ignored(self, tmp_path):
        root = self._seed_tree(
            tmp_path, example="import numpy as np\nfrom pathlib import Path\n"
        )
        assert check_api_surface.main([str(root)]) == 0
