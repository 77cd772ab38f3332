"""The fastpath equivalence gate: fastpath-on vs fastpath-off, fuzzed.

Two hypothesis properties split the scenario space along the
eligibility gate:

- **Engage domain** (eligible read jobs): the accelerated result must
  match the exact result within the declared tolerances of
  :mod:`tests.equivalence.tolerances` -- statistical bounds when a
  splice engaged, bit identity whenever the gate declined after all.
- **Decline domain** (writes, faults, policies, wavy devices): the gate
  must refuse, and refusing must cost nothing -- the result is
  bit-for-bit identical to a run that never configured a fastpath.

Together the two properties run 240 generated scenarios (480 simulator
runs), which keeps the whole module inside the CI budget of roughly a
minute.  A zero-cost subprocess test additionally pins that the
no-fastpath path never even imports ``repro.sim.fastpath``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from tests.equivalence.scenarios import (
    Scenario,
    compare,
    decline_scenarios,
    engage_scenarios,
    run_pair,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    derandomize=True,  # CI stability: the corpus is the spec, not a dice roll
)


class TestEngageDomain:
    @settings(max_examples=150, **_SETTINGS)
    @given(scenario=engage_scenarios())
    def test_accelerated_runs_match_exact_within_tolerances(self, scenario):
        exact, fast = run_pair(scenario)
        divergences = compare(exact, fast)
        assert not divergences, (
            f"fastpath diverged on {scenario.describe()} "
            f"(mode={fast.fastpath.mode}, engaged={fast.fastpath.engaged}): "
            + "; ".join(divergences)
        )

    def test_splice_engages_on_a_steady_scenario(self):
        """A steady eligible scenario must actually splice (a gate that
        declined everything would pass the property above vacuously).

        Splice needs runway: the detector observes ~3 windows of 96
        completions before its first probe, then skips whole windows.
        """
        _, fast = run_pair(Scenario(device="pm1743", runtime_ms=40))
        assert fast.fastpath.engaged and fast.fastpath.mode == "splice"
        assert fast.fastpath.splices
        assert fast.fastpath.time_fast_forwarded_s > 0


class TestDeclineDomain:
    @settings(max_examples=90, **_SETTINGS)
    @given(scenario=decline_scenarios())
    def test_declined_runs_are_bit_identical(self, scenario):
        exact, fast = run_pair(scenario)
        assert not fast.fastpath.engaged, (
            f"gate engaged outside its domain on {scenario.describe()} "
            f"(mode={fast.fastpath.mode})"
        )
        divergences = compare(exact, fast)
        assert not divergences, (
            f"declined fastpath perturbed the run on {scenario.describe()}: "
            + "; ".join(divergences)
        )

    def test_decline_reasons_name_the_gate(self):
        cases = {
            Scenario(device="ssd1"): "wave",
            Scenario(pattern="randwrite"): "write",
            Scenario(faults="governor:at=0.002"): "fault",
            Scenario(policy=True): "polic",
        }
        for scenario, needle in cases.items():
            _, fast = run_pair(scenario)
            assert not fast.fastpath.engaged
            assert needle in fast.fastpath.reason, (
                f"{scenario.describe()}: reason {fast.fastpath.reason!r} "
                f"does not mention {needle!r}"
            )


ZERO_IMPORT_SCRIPT = """
import sys
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core import sweep  # the sweep layer must not need it either
from repro.iogen.spec import IoPattern, JobSpec

for name in [m for m in sys.modules if m.startswith("repro.sim.fastpath")]:
    del sys.modules[name]


class Poison:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("repro.sim.fastpath"):
            raise ImportError(
                "repro.sim.fastpath loaded on the no-fastpath path: " + name
            )
        return None


sys.meta_path.insert(0, Poison())
run_experiment(ExperimentConfig(
    device="ssd3",
    job=JobSpec(IoPattern.RANDREAD, block_size=16384, iodepth=4,
                runtime_s=0.005, size_limit_bytes=2 * 1024 * 1024),
))
assert not any(m.startswith("repro.sim.fastpath") for m in sys.modules)
print("clean")
"""


class TestZeroCost:
    def test_no_fastpath_run_never_imports_the_package(self):
        """``fastpath=None`` must keep repro.sim.fastpath entirely
        unloaded -- the opt-out is free, byte for byte."""
        proc = subprocess.run(
            [sys.executable, "-c", ZERO_IMPORT_SCRIPT],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": SRC,
                "PATH": "/usr/bin:/bin",
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "clean"
