"""Zero-cost gates: ``python -m benchmarks.zero_cost``.

Every optional subsystem promises that, off, it costs nothing and that,
present but inert or only observing, it leaves the paper's power and
throughput numbers bit-identical.  Each promise is one row of
:data:`ROWS`; a new feature adds a row, not a file.  A row names:

- ``unloaded``: the modules the off path never loads.  The off variant
  runs once in a fresh interpreter under a ``sys.meta_path`` finder
  that refuses them.  That interpreter enters ``repro`` as a bare
  package, skipping the facade (``repro/__init__`` imports every
  subsystem), so the proof catches a module-level import on the off
  path as well as a lazy one;
- the ``off``, ``inert`` and ``on`` variants.  Each runs the feature's
  workload, raises if one of its own expectations fails (faults were
  injected, the watchdog never tripped, ...) and returns a fingerprint
  of the physics;
- ``same``: the variants whose fingerprints must be equal.

Each variant runs :data:`ROUNDS` times, interleaved with the row's other
variants, and must repeat its first fingerprint every round, so the off
path is also shown unchanged after the feature ran in the same process.
The harness prints one line per row with each variant's best wall time
and exits 1 naming every failing row.  Times are shown, not gated: the
noise of a shared machine exceeds the overheads they document, and
``perfbench/`` is the timing tool.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig
from repro.core.options import ExecutionOptions
from repro.core.parallel import SweepExecutionError, run_configs
from repro.core.sweep import SweepGrid, sweep_outcome
from repro.faults import (
    ActuatorFaultSpec,
    FaultPlan,
    IoErrorSpec,
    LatencySpikeSpec,
    SensorFaultSpec,
)
from repro.iogen.spec import IoPattern, JobSpec
from repro.obs import MetricsCollector, NullTracer, Tracer

REPO_ROOT = Path(__file__).resolve().parents[1]

ROUNDS = 3

VARIANTS = ("off", "inert", "on")


@dataclass(frozen=True)
class Row:
    """One feature's zero-cost promise (see the module docstring)."""

    name: str
    unloaded: tuple[str, ...]
    off: Callable[[], Any]
    inert: Callable[[], Any]
    on: Callable[[], Any]
    same: tuple[str, ...] = VARIANTS


class ExpectationFailed(Exception):
    """A variant's own expectation about its run did not hold."""


def _expect(holds: bool, what: str) -> None:
    if not holds:
        raise ExpectationFailed(what)


def _grid(pattern: IoPattern, block_sizes=(64 * KiB, 256 * KiB)) -> SweepGrid:
    return SweepGrid(
        device="ssd2",
        patterns=(pattern,),
        block_sizes=block_sizes,
        iodepths=(8, 64),
        base_job=JobSpec(
            pattern=pattern,
            block_size=4096,
            iodepth=1,
            runtime_s=0.05,
            size_limit_bytes=32 * MiB,
        ),
    )


#: Reads: the paper's common case, no GC or write-buffer churn.
READ = _grid(IoPattern.RANDREAD)
#: Writes: every NAND program unit consults the power governor.
WRITE = _grid(IoPattern.RANDWRITE)


def _sweep(grid: SweepGrid, n_workers: int = 1, **options):
    """A sweep in which every point ran and passed any validation."""
    outcome = sweep_outcome(grid, ExecutionOptions(n_workers=n_workers, **options))
    if outcome.failures:
        raise SweepExecutionError(list(outcome.failures.values()))
    if outcome.validation is not None:
        _expect(outcome.validation.ok, outcome.validation.render())
    return outcome


def _physics(results) -> dict:
    return {
        point: (
            r.true_mean_power_w.hex(),
            r.power.mean_w.hex(),
            r.power.energy_j.hex(),
            r.throughput_bps.hex(),
        )
        for point, r in results.items()
    }


def _plain(grid: SweepGrid, n_workers: int = 1) -> dict:
    """The off path: a sweep that carries no trace of any feature."""
    outcome = _sweep(grid, n_workers)
    results = outcome.results
    _expect(
        outcome.validation is None
        and outcome.telemetry is None
        and all(r.faults is None and r.policy is None for r in results.values()),
        "a plain sweep carries feature accounting",
    )
    return results


def _read_off():
    return _physics(_plain(READ))


def _write_off():
    return _physics(_plain(WRITE))


# -- obs: tracer, metrics collector, per-point cost record ---------------


def _traced(make_tracer, telemetry=False, least_events=(0, 0)):
    prints = []
    for grid, least in zip((READ, WRITE), least_events):
        tracer = make_tracer()
        outcome = _sweep(grid, tracer=tracer, telemetry=telemetry)
        events = len(tracer.events) if tracer is not None else 0
        _expect(events >= least, f"{events} trace events, expected at least {least}")
        if telemetry:
            profiled = len(outcome.telemetry.profile.points)
            _expect(profiled == 4, f"{profiled} of 4 points profiled")
        prints.append(_physics(outcome.results))
    return prints


def _obs_off():
    return _traced(lambda: None)


def _full_tracer():
    tracer = Tracer()
    tracer.subscribe(MetricsCollector())
    return tracer


def _obs_on():
    """Every observer attached, the per-point cost record included.  The
    write grid must stay event-dense (governor and cache events on top
    of IO), or it stresses nothing."""
    return _traced(_full_tracer, telemetry=True, least_events=(1, 4001))


# -- faults --------------------------------------------------------------


def _faults_inert():
    outcome = _sweep(replace(READ, faults=FaultPlan()))
    _expect(
        all(r.faults.total == 0 for r in outcome.results.values()),
        "the inert plan counted faults",
    )
    return _physics(outcome.results)


def _faults_on():
    spike = LatencySpikeSpec(
        start_s=0.01, duration_s=0.01, extra_s=2e-4, repeat_every_s=0.02
    )
    plan = FaultPlan(
        io_errors=IoErrorSpec(probability=0.05, retry_cost_s=5e-4),
        latency_spikes=(spike,),
    )
    outcome = _sweep(replace(READ, faults=plan))
    _expect(
        sum(r.faults.count("io_error") for r in outcome.results.values()) > 0,
        "the active plan injected no io error",
    )
    return _physics(outcome.results)


# -- validate: post-hoc checkers and live auditors -----------------------


def _validate_inert():
    return _physics(_sweep(READ, validate=True).results)


def _validate_on():
    from repro.validate import live_validate

    results = {}
    for point in READ.points():
        results[point], report = live_validate(READ.config_for(point))
        _expect(report.ok, report.render())
    return _physics(results)


# -- policy: the decision loop -------------------------------------------


def _policy_inert():
    """A static cap above anything ssd2 draws: it ticks and never binds."""
    from repro.policy import BudgetSchedule, PolicySpec

    spec = PolicySpec(
        kind="static",
        budget=BudgetSchedule.constant(50.0),
        interval_s=1.5e-3,
        window_s=3e-3,
    )
    outcome = _sweep(replace(WRITE, policy=spec))
    _expect(
        all(r.policy.decisions > 1 for r in outcome.results.values()),
        "the inert cap never ticked",
    )
    return _physics(outcome.results)


def _feedback(**fields):
    from repro.policy import BudgetSchedule, PolicySpec

    return PolicySpec(
        kind="feedback",
        budget=BudgetSchedule.step(high_w=14.0, low_w=10.0, period_s=0.025),
        interval_s=1.5e-3,
        window_s=3e-3,
        **fields,
    )


def _policy_on():
    outcome = _sweep(replace(WRITE, policy=_feedback()), validate=True)
    _expect(
        all(r.policy.decisions > 3 for r in outcome.results.values()),
        "the feedback loop took too few decisions",
    )
    return _physics(outcome.results)


# -- telemetry: spans and the run ledger ---------------------------------


def _telemetry(**options):
    """The read grid in-process and on a 2-worker pool, fingerprinted as
    pickled results.  A pooled result has crossed the worker pipe and
    pickles to other (value-equal) bytes, so each worker mode is only
    ever compared with itself."""
    prints = []
    for n_workers in (1, 2):
        if not options:
            prints.append(pickle.dumps(_plain(READ, n_workers)))
            continue
        outcome = _sweep(READ, n_workers, **options)
        spans = outcome.telemetry
        _expect(
            spans.points == spans.count("done") == 4
            and spans.profile.total_sim_events > 0,
            f"telemetry on {n_workers} worker(s) missed points",
        )
        _expect(
            n_workers == 1
            or (spans.workers and all(w.utilization <= 1.0 for w in spans.workers)),
            "pooled telemetry names no workers, or one busier than alive",
        )
        prints.append(pickle.dumps(outcome.results))
    return prints


def _telemetry_off():
    return _telemetry()


def _telemetry_on():
    from repro.core.ledger import RunLedger

    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"
        prints = _telemetry(telemetry=True, ledger=ledger)
        kinds = [record["rec"] for record in RunLedger.load(ledger)]
    _expect(
        kinds.count("point") == 8 and kinds.count("run") == 2,
        f"the ledger holds {kinds.count('point')} point and "
        f"{kinds.count('run')} run records, expected 8 and 2",
    )
    return prints


# -- chaos: control-plane seams and the watchdog -------------------------


def _policy_run(spec, faults=None):
    """Large writes under a stepped budget; a clean control plane never
    degrades, trips or counts a fault."""
    grid = replace(
        _grid(IoPattern.RANDWRITE, (256 * KiB,)), faults=faults, policy=spec
    )
    results = _sweep(grid).results
    _expect(
        all(
            r.policy.degraded_fraction == 0.0
            and r.policy.watchdog_trips == 0
            and (r.faults is None or r.faults.total == 0)
            for r in results.values()
        ),
        "a clean control plane degraded, tripped or counted faults",
    )
    decisions = [(r.policy.decisions, r.policy.samples) for r in results.values()]
    return _physics(results), decisions


def _chaos_off():
    """Rail sensing, direct actuation, no watchdog."""
    return _policy_run(_feedback())


def _chaos_inert():
    """The meter seam under all-default sensor and actuator specs."""
    plan = FaultPlan(sensor=SensorFaultSpec(), actuator=ActuatorFaultSpec())
    return _policy_run(_feedback(sense="meter"), plan)


def _chaos_on():
    """A clean meter with the watchdog armed."""
    from repro.policy import WatchdogSpec

    watchdog = WatchdogSpec(stale_after_s=3 * 1.5e-3)
    return _policy_run(_feedback(sense="meter", watchdog=watchdog))


# -- fleet: the cluster runner -------------------------------------------


def _fleet_off():
    """A plain single-device batch."""
    job = JobSpec(
        IoPattern.RANDWRITE,
        block_size=16 * KiB,
        iodepth=4,
        runtime_s=0.01,
        size_limit_bytes=4 * MiB,
    )
    config = ExperimentConfig(device="ssd3", job=job, seed=5)
    (result,) = run_configs([config], ExecutionOptions(n_workers=1))
    return _physics({"plain": result}), result.latency()


def _fleet(n_workers: int):
    from repro.fleet.cluster import FleetSpec, run_fleet
    from repro.studies.common import StudyScale

    spec = FleetSpec.sized(
        4, mix=("ssd1", "ssd2", "ssd3"), epochs=3, tenants=16, skew=1.0, seed=7
    )
    scale = StudyScale(ssd_runtime_s=0.02, ssd_bytes=12 * MiB)
    result = run_fleet(spec, scale, n_workers=n_workers)
    _expect(
        result.ok and result.metrics["fleet.ios"]["all"]["value"] > 0,
        f"the {n_workers}-worker fleet failed validation or ran no IO",
    )
    return result.digest()


#: obs and faults name no module: every run loads ``repro.obs`` (the
#: engine's null tracer) and ``repro.faults`` (the devices' null
#: injector).  The fleet's inert variant is a one-worker fleet, the
#: reference its pooled fleet must match; its off path is a plain batch.
ROWS = (
    Row("obs", (), _obs_off, partial(_traced, NullTracer), _obs_on),
    Row("faults", (), _read_off, _faults_inert, _faults_on, ("off", "inert")),
    Row("validate", ("repro.validate",), _read_off, _validate_inert, _validate_on),
    Row(
        "policy",
        ("repro.policy",),
        _write_off,
        _policy_inert,
        _policy_on,
        ("off", "inert"),
    ),
    Row(
        "telemetry",
        ("repro.core.telemetry", "repro.core.ledger"),
        _telemetry_off,
        partial(_telemetry, telemetry=True),
        _telemetry_on,
    ),
    Row(
        "chaos",
        ("repro.faults.control", "repro.faults.campaign", "repro.policy.watchdog"),
        _chaos_off,
        _chaos_inert,
        _chaos_on,
    ),
    Row(
        "fleet",
        ("repro.fleet",),
        _fleet_off,
        partial(_fleet, 1),
        partial(_fleet, 2),
        ("inert", "on"),
    ),
)


# -- the harness ---------------------------------------------------------

#: Runs one row's off variant, named by ``off``, in a fresh interpreter;
#: exits non-zero naming any refused module, even one whose ImportError
#: the off path swallowed.
_PROOF = """
import importlib, sys, types

package = types.ModuleType("repro")
package.__path__ = [{package_dir!r}]
sys.modules["repro"] = package
unloaded = {unloaded!r}
refused = []


class Poison:
    def find_spec(self, name, path=None, target=None):
        if any(name == m or name.startswith(m + ".") for m in unloaded):
            refused.append(name)
            raise ImportError("loaded while off: " + name)
        return None


sys.meta_path.insert(0, Poison())
getattr(importlib.import_module("benchmarks.zero_cost"), {off!r})()
if refused:
    sys.exit("loaded while off: " + ", ".join(refused))
"""


def _prove_unloaded(row: Row) -> list[str]:
    if not row.unloaded:
        return []
    script = _PROOF.format(
        package_dir=str(REPO_ROOT / "src" / "repro"),
        unloaded=row.unloaded,
        off=row.off.__name__,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return []
    last = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return [f"off, in a fresh interpreter: {last}"]


def run_row(row: Row) -> tuple[dict, list[str]]:
    """Each variant's best wall time over :data:`ROUNDS` interleaved
    rounds, and every way the row failed."""
    failures = []
    prints = {variant: [] for variant in VARIANTS}
    best_s = {}
    variant = "off"
    try:
        failures += _prove_unloaded(row)
        for _ in range(ROUNDS):
            for variant in VARIANTS:
                start = time.perf_counter()
                prints[variant].append(getattr(row, variant)())
                elapsed = time.perf_counter() - start
                best_s[variant] = min(best_s.get(variant, elapsed), elapsed)
    except Exception as exc:  # one failing row must not hide the others
        failures.append(f"{variant}: {type(exc).__name__}: {exc}")
        return best_s, failures
    for variant, seen in prints.items():
        if any(fingerprint != seen[0] for fingerprint in seen):
            failures.append(f"{variant} changed between rounds")
    first = row.same[0]
    for variant in row.same[1:]:
        if prints[variant][0] != prints[first][0]:
            failures.append(f"{variant} differs from {first}")
    return best_s, failures


def main() -> int:
    heads = "".join(f"{v + ' s':>9}" for v in VARIANTS)
    print(f"{'row':<10}{heads}  {'verdict':<8}unloaded while off")
    failed = {}
    for row in ROWS:
        best_s, failures = run_row(row)
        times = "".join(f"{best_s.get(v, float('nan')):9.3f}" for v in VARIANTS)
        verdict = "FAILED" if failures else "ok"
        print(f"{row.name:<10}{times}  {verdict:<8}{', '.join(row.unloaded) or '-'}")
        if failures:
            failed[row.name] = failures
    if failed:
        print(f"FAILED rows: {', '.join(failed)}")
        for name, failures in failed.items():
            for failure in failures:
                print(f"  {name}: {failure}")
        return 1
    print(f"every row holds (best of {ROUNDS} rounds, wall seconds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
