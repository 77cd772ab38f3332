"""The benchmark's passes and report; ``run.py`` is the command line.

The timed pass repeats a workload's public call and reports end-to-end
metrics; the traced pass reports per-layer metrics from ``cProfile``.
Both check every experiment (``check.py``) and print one JSON line last.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layers
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups after each call, so they sample the host
#: across the run; their median is ``setup_s``.
SETUP_PROBES_PER_CALL = 3

#: CPU seconds of one baseline probe (``setup_probe.py baseline``) on the
#: reference host: about its median on the 2-vCPU Xeon VM the bounds were
#: set on.  Set-up times are reported as on that host.
BASELINE_REFERENCE_S = 0.22

#: Every time here is in reference CPU seconds, not wall seconds: on a
#: shared host the same call's wall and CPU time move by a third between
#: runs, its reference CPU time by a few percent.  Calls are scaled by a
#: calibration loop (``refclock.py``), set-ups by a baseline interpreter.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "sim_s_per_cpu_s": "s/s",
    "point_cpu_p50_ms": "ms",
    "point_cpu_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Decline reasons of the fastpath gate -> metric suffix.  A reason not
#: listed here counts as ``other``.
DECLINE_REASONS = {
    "device is not a simulated SSD": "not_ssd",
    "write workloads mutate FTL/GC state": "writes",
    "fault plans are windowed in absolute time": "faults",
    "online policies observe the live rail": "policy",
    "program-intensity wave draws per-toggle RNG": "wave",
    "rail audit shadows every draw update": "audit",
    "device is in a non-operational power state": "nonop_state",
    "link is in a low-power mode (wake path has state)": "link",
    "APST could doze inside the batch window": "apst",
    "tracing needs the per-IO event stream": "tracing",
    "no stationary window detected": "no_window",
}
DECLINE_SLUGS = sorted(set(DECLINE_REASONS.values())) + ["other"]


def per_layer_units() -> dict:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units[f"{layers.OTHER}.self_s"] = "s"
    units["sim.events"] = "count"
    units["sim.events_per_s"] = "1/s"
    for name in layers.BOUNDARIES:
        units[name] = "count" if name in layers.COUNTED else "s"
    units["fastpath.engaged_points"] = "count"
    units["fastpath.ff_time_share"] = "ratio"
    units["fastpath.ff_events"] = "count"
    units["fastpath.worst_rel_error"] = "ratio"
    for slug in DECLINE_SLUGS:
        units[f"fastpath.declined.{slug}"] = "count"
    units["executor.busy_share"] = "ratio"
    units["executor.overhead_s"] = "s"
    units["executor.pickle_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    units["trace.layer_coverage"] = "ratio"
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> str:
    return (
        f"nproc={nproc()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )


def peak_rss_kib(who: int) -> int:
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest reaped
    child (``RUSAGE_CHILDREN``), in KiB as Linux reports it."""
    return resource.getrusage(who).ru_maxrss


def probe(*args: str) -> float:
    """CPU seconds of one fresh interpreter running ``setup_probe.py``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, grid_seed: int) -> list:
    """Set-up times of fresh interpreters (import + input build), in
    reference seconds: each one's CPU seconds scaled by the mean of the
    baseline probes run just before and just after it."""
    times = []
    before = probe("baseline")
    for _ in range(SETUP_PROBES_PER_CALL):
        setup = probe(workload, str(grid_seed))
        after = probe("baseline")
        times.append(setup * BASELINE_REFERENCE_S * 2.0 / (before + after))
        before = after
    return times


def fastpath_metrics(rep, reference: dict) -> dict:
    """Engagement, fast-forwarded share, worst drift from the exact
    reference and decline reasons of one call."""
    metrics = {f"fastpath.declined.{slug}": 0 for slug in DECLINE_SLUGS}
    summaries = [getattr(o, "fastpath", None) for o in rep.outcomes]
    engaged = [
        (outcome, entry)
        for outcome, entry, summary in zip(
            rep.outcomes, reference["points"], summaries
        )
        if summary is not None and summary.engaged
    ]
    for summary in summaries:
        if summary is not None and not summary.engaged:
            slug = DECLINE_REASONS.get(summary.reason, "other")
            metrics[f"fastpath.declined.{slug}"] += 1
    ff_s = sum(o.fastpath.time_fast_forwarded_s for o, _ in engaged)
    metrics["fastpath.engaged_points"] = len(engaged)
    metrics["fastpath.ff_events"] = sum(
        o.fastpath.events_fast_forwarded for o, _ in engaged
    )
    metrics["fastpath.ff_time_share"] = (
        ff_s / rep.sim_seconds if rep.sim_seconds > 0 else 0.0
    )
    metrics["fastpath.worst_rel_error"] = max(
        (max(check.splice_errors(o, entry)) for o, entry in engaged),
        default=0.0,
    )
    return metrics


class Session:
    """One benchmark run: a workload, its inputs and its reference."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = workloads.WORKLOADS[name]
        self.input_set = seed % self.workload.input_sets
        self.held_out = (
            self.workload.input_sets > 1
            and self.input_set == self.workload.input_sets - 1
        )
        self.reference = check.load_reference(name)[str(self.input_set)]
        self.grid_seed = self.reference["seed"]
        self.inputs = self.workload.build(self.grid_seed)
        self.checks = check.CheckResult()

    def call(self, workers: int, profiler=None):
        """One checked workload call in a fresh ledger directory."""
        gc.collect()
        with workloads.fresh_ledger() as ledger:
            rep = self.workload.run(self.inputs, ledger, workers, profiler)
        self.checks.add(check.check_rep(rep, self.reference))
        return rep


def timed_pass(session: Session, seconds: float) -> tuple:
    """End-to-end metrics from repeated calls for ``seconds``: medians
    over the calls, and for the per-experiment figures each experiment's
    median over the calls."""
    per_call = {"cpu_s": [], "sim_s_per_cpu_s": []}
    points, gaps, walls, setups = [], [], [], []
    pool_kib = 0
    timed = 0.0
    # No warm-up call: the inputs are built and ``repro`` imported before
    # the first call, which measures no slower than the ones after it.
    while True:
        start = time.perf_counter()
        with workloads.reference_clock():
            rep = session.call(session.workload.workers)
        walls.append(rep.wall_s)
        per_call["cpu_s"].append(rep.cpu_s)
        per_call["sim_s_per_cpu_s"].append(rep.sim_seconds / rep.cpu_s)
        points.append(rep.point_s)
        gap = workloads.paper_gap_pp(rep)
        if gap is not None:
            gaps.append(gap)
        del rep
        timed += time.perf_counter() - start
        if len(points) == 1:
            # The pool's workers, read before any set-up probe (also a
            # child of this process) has run; every call forks the same.
            pool_kib = peak_rss_kib(resource.RUSAGE_CHILDREN)
        setups += setup_seconds(session.workload.name, session.grid_seed)
        # Stop before a call that would, at the mean pace so far, end past
        # the deadline: a run spends at most ``seconds`` in timed calls
        # (set-up probes not counted) and makes at least one.
        if timed * (len(points) + 1) / len(points) > seconds:
            break
    metrics = {name: statistics.median(v) for name, v in per_call.items()}
    # Each experiment's median over the calls, then the distribution over
    # experiments: one experiment's time moves more between calls than
    # the call's total does.
    point_s = [statistics.median(times) for times in zip(*points)]
    tail = stats.tail(point_s)
    metrics["point_cpu_p50_ms"] = statistics.median(point_s) * 1e3
    # The tail's mean, not the one experiment at the rank: the percentile
    # falls where experiment times climb steeply, so the experiment at it
    # moves by 12% between calls, the mean of the tail by 5%.
    metrics["point_cpu_tail_ms"] = tail.mean * 1e3
    metrics["peak_rss_mib"] = (peak_rss_kib(resource.RUSAGE_SELF) + pool_kib) / 1024
    metrics["setup_s"] = statistics.median(setups)
    notes = [
        f"calls: {len(points)} timed in {timed:.1f} s, "
        f"{tail.n} experiments each, median wall {statistics.median(walls):.2f} s "
        f"(not a metric: other tenants move it); setup_s is the median "
        f"of {len(setups)} fresh interpreters run between the calls",
        f"point_cpu_tail_ms is the mean of the {tail.beyond + 1} experiments at and "
        f"beyond p{tail.percentile:.1f} of {tail.n} (p{tail.percentile:.1f} itself: "
        f"{tail.value * 1e3:.1f} ms), each its median over the calls",
    ]
    if gaps:
        notes.append(
            f"paper_gap_pp {statistics.median(gaps):.3f} pp: SSD2 dynamic range "
            f"vs the paper's 59.4% (claim C6)"
        )
    return metrics, notes


def traced_pass(session: Session) -> tuple:
    """Per-layer metrics from an untraced and a profiled call."""
    plain = session.call(1)
    profiler = cProfile.Profile()
    traced = session.call(1, profiler)
    table = pstats.Stats(profiler).stats
    profile = layers.attribute(table)
    metrics = {}
    for layer in layers.LAYERS + (layers.OTHER,):
        metrics[f"{layer}.self_s"] = profile.self_s.get(layer, 0.0)
        if layer != layers.OTHER:
            metrics[f"{layer}.calls"] = profile.calls.get(layer, 0)
    bounds, missing = layers.boundaries(table)
    metrics.update(bounds)
    metrics["sim.events"] = plain.sim_events
    metrics["sim.events_per_s"] = plain.sim_events / plain.wall_s
    metrics.update(fastpath_metrics(plain, session.reference))
    metrics["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1.0
    metrics["trace.layer_coverage"] = profile.coverage
    metrics.update(executor_metrics(session))
    notes = [
        f"traced call {traced.wall_s:.2f} s vs untraced {plain.wall_s:.2f} s, "
        f"both in-process; layers cover {profile.coverage:.1%} of "
        f"{profile.total_s:.2f} profiled s"
    ]
    if missing:
        notes.append("boundary functions not found: " + ", ".join(missing))
    return metrics, notes


def executor_metrics(session: Session) -> dict:
    """Pool busy share and overhead from the ledger of one unprofiled
    pooled call, and pickling from a second pooled call with its parent
    side profiled (its forked workers inherit the profiler, so their walls
    are inflated and used for nothing).  Zero for in-process workloads,
    which run no pool."""
    workers = session.workload.workers
    if workers == 1:
        return {
            "executor.busy_share": 0.0,
            "executor.overhead_s": 0.0,
            "executor.pickle_s": 0.0,
        }
    pooled = session.call(workers)
    busy = sum(pooled.point_s)
    profiler = cProfile.Profile()
    session.call(workers, profiler)
    return {
        "executor.busy_share": busy / (workers * pooled.wall_s),
        "executor.overhead_s": pooled.wall_s - busy / workers,
        "executor.pickle_s": layers.pickle_seconds(pstats.Stats(profiler).stats),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    """One benchmark run; prints the report and returns the exit code
    (0 correct, 1 an output check failed, 2 the run could not start)."""
    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        print(
            f"perfbench: unknown workload {workload_name!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if workload.workers > nproc():
        print(
            f"perfbench: {workload.name} needs {workload.workers} workers "
            f"but only {nproc()} processors are available",
            file=sys.stderr,
        )
        return 2
    session = Session(workload_name, seed)
    if trace:
        metrics, notes = traced_pass(session)
        units = per_layer_units()
    else:
        metrics, notes = timed_pass(session, seconds)
        units = END_TO_END
    checks = session.checks

    held_out = " (held out for claims)" if session.held_out else ""
    print(
        f"perfbench {workload.name}: seed {seed} -> input set "
        f"{session.input_set} of {workload.input_sets}{held_out}; "
        f"{'traced' if trace else 'timed'} pass"
    )
    print(f"machine: {machine()}")
    for note in notes:
        print(note)
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<34} {shown} {unit}")
    print(
        f"  {'point_failure_rate':<34} "
        f"{stats.failure_rate(checks.attempted, checks.failed):>16.6g} ratio "
        f"({checks.failed} of {checks.attempted} experiments failed the "
        "output check)"
    )
    for message in checks.messages[:10]:
        print(f"  FAILED {message}")
    correct = checks.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1
