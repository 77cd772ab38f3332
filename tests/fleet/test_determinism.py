"""Determinism and zero-cost guarantees of the fleet subsystem.

Mirrors ``tests/policy/test_determinism.py`` for the fleet layer:

1. A fleet run's digest is byte-identical across interpreter processes
   with different ``PYTHONHASHSEED`` values -- placement, per-run seeds
   and the governor arithmetic all derive from keyed ``blake2b``, never
   the builtin ``hash()``.
2. ``repro.core`` never imports ``repro.fleet``: a non-fleet run (a
   plain experiment, a pooled batch) cannot even *load* the package,
   so single-device users pay nothing for the cluster layer.
3. The fleet model has one home, :mod:`repro.fleet.model`, which imports
   without warnings and backs the ``repro`` facade.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

FLEET_SCRIPT = """
from repro._units import MiB
from repro.fleet.cluster import FleetSpec, run_fleet
from repro.studies.common import StudyScale

spec = FleetSpec.sized(
    3, mix=("ssd1", "ssd2", "ssd3"), epochs=2, tenants=8, skew=1.0, seed=9
)
scale = StudyScale(ssd_runtime_s=0.02, ssd_bytes=12 * MiB)
result = run_fleet(spec, scale)
print(result.digest())
print(repr(sorted(result.summary().items())))
"""

ZERO_IMPORT_SCRIPT = """
import sys
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.options import ExecutionOptions
from repro.core.parallel import run_configs
from repro.iogen.spec import IoPattern, JobSpec

# The facade (repro/__init__) re-exports repro.fleet eagerly.  Evict it
# and poison any reload: the non-fleet execution path -- one experiment
# plus a pooled batch -- must never come back for it.
for name in [m for m in sys.modules if m.startswith("repro.fleet")]:
    del sys.modules[name]


class Poison:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("repro.fleet"):
            raise ImportError(
                "repro.fleet loaded on the non-fleet path: " + name
            )
        return None


sys.meta_path.insert(0, Poison())
config = ExperimentConfig(
    device="ssd3",
    job=JobSpec(IoPattern.RANDREAD, block_size=16384, iodepth=4,
                runtime_s=0.005, size_limit_bytes=2 * 1024 * 1024),
)
run_experiment(config)
run_configs([config], ExecutionOptions(n_workers=1))
assert not any(m.startswith("repro.fleet") for m in sys.modules)
print("clean")
"""


def _run_with_hashseed(script: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


class TestCrossProcessDeterminism:
    def test_fleet_digest_identical_across_hash_seeds(self):
        outputs = {_run_with_hashseed(FLEET_SCRIPT, hs) for hs in ("1", "2")}
        assert len(outputs) == 1, f"fleet runs diverged: {outputs}"


class TestZeroImport:
    def test_non_fleet_run_never_loads_the_package(self):
        """Plain experiments and pooled batches survive a poisoned
        repro.fleet."""
        out = _run_with_hashseed(ZERO_IMPORT_SCRIPT, "0")
        assert out.strip() == "clean"

    def test_core_sources_never_import_fleet_at_module_level(self):
        """Nothing in the single-device layers touches the fleet package
        at import time; they must stay decoupled."""
        src_root = Path(SRC) / "repro"
        offenders = []
        for layer in ("core", "devices", "sim", "policy", "obs"):
            for path in sorted((src_root / layer).glob("*.py")):
                tree = ast.parse(path.read_text())
                for node in tree.body:  # module level only
                    names = []
                    if isinstance(node, ast.Import):
                        names = [a.name for a in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    if any(n.startswith("repro.fleet") for n in names):
                        offenders.append(f"{path}:{node.lineno}")
        assert not offenders, offenders


class TestModuleHome:
    def test_new_path_does_not_warn(self):
        # Restore the original module object afterwards: a fresh import
        # would otherwise give later tests a different FleetModel class
        # than the one the facade captured at startup.
        saved = {
            name: module
            for name, module in sys.modules.items()
            if name.startswith("repro.fleet.model")
        }
        try:
            for name in saved:
                del sys.modules[name]
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                module = importlib.import_module("repro.fleet.model")
            assert hasattr(module, "FleetModel")
        finally:
            sys.modules.update(saved)

    def test_facade_exports_come_from_the_new_home(self):
        import repro
        from repro.fleet.model import FleetModel

        assert repro.FleetModel is FleetModel
