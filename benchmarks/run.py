"""Continuous kernel benchmark: ``python -m benchmarks.run``.

Runs two pinned grids through :func:`repro.core.experiment.run_experiment`:

- the **exact micro-grid** (randread / randwrite / seqwrite x 2 devices
  x 2 queue depths) that every prior BENCH_<n> measured, reporting wall
  seconds, kernel events/sec and peak RSS per point; and
- the **steady-heavy fastpath grid** (long random reads on the three
  fastpath-eligible SSDs) run exact vs ``fastpath=splice``, reporting
  *effective* events/sec -- processed plus analytically fast-forwarded
  events over wall time -- and the splice's speedup against the exact
  kernel on the same configs.

Results land in a machine-readable ``BENCH_<n>.json`` at the repo root so
successive PRs accumulate a performance trajectory, and ``--check`` turns
the run into a regression gate against the committed
``benchmarks/baseline.json``.  The gate compares every benchmark it has a
baseline number for -- the exact aggregate, each exact grid point, and
each fastpath mode's effective aggregate -- and a failure names *all*
regressed benchmarks, not just the first.

Usage::

    python -m benchmarks.run                     # run, write BENCH_<n>.json
    python -m benchmarks.run --check             # also gate vs baseline
    python -m benchmarks.run --update-baseline   # re-pin the baseline

The grids, seeds and stop conditions are pinned: changing them
invalidates the trajectory, so treat them like golden fixtures.
Baselines are machine-relative -- re-pin with ``--update-baseline`` when
moving to new hardware, in the same commit that explains why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Version stamp of the emitted trajectory file.  Bumped when the kernel
#: event stream was redefined (handler entries; no callback-less
#: process-done entries, one entry per buffer wake-up), which makes
#: events/sec incomparable with BENCH_10.json and earlier.
BENCH_INDEX = 13

BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline.json"

#: Regression gate: fail --check when an *aggregate* events/sec figure
#: drops by more than this fraction below the committed baseline.
REGRESSION_TOLERANCE = 0.10

#: Individual grid points are ~100 ms of wall time and correspondingly
#: noisier than the aggregates; they gate at a wider tolerance so one
#: slow scheduler tick does not fail CI while a real per-point cliff
#: (e.g. an HDD-only regression invisible in the SSD-dominated
#: aggregate) still does.
POINT_REGRESSION_TOLERANCE = 0.25

#: The pinned exact micro-grid.
GRID_DEVICES = ("ssd2", "hdd")
GRID_PATTERNS = ("randread", "randwrite", "write")
GRID_IODEPTHS = (4, 16)
GRID_BLOCK_SIZE = 64 * 1024
GRID_RUNTIME_S = 0.02
GRID_SIZE_LIMIT = 8 * 1024 * 1024
GRID_SEED = 11

#: The pinned steady-heavy fastpath grid: long eligible random reads on
#: the wave-free SSDs, where most of the run sits in the quasi-steady
#: window the paper's Table 1 / Fig. 10 measurements average over.
FASTPATH_DEVICES = ("ssd3", "860evo", "pm1743")
FASTPATH_MODES = ("splice",)
FASTPATH_PATTERN = "randread"
FASTPATH_BLOCK_SIZE = 64 * 1024
FASTPATH_IODEPTH = 8
FASTPATH_RUNTIME_S = 0.5
FASTPATH_SIZE_LIMIT = 4096 * 1024 * 1024
FASTPATH_SEED = 11


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak * 1024 if sys.platform != "darwin" else peak


def machine_metadata() -> dict:
    """The hardware/runtime context a baseline number is relative to."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def grid_configs():
    from repro.core.experiment import ExperimentConfig
    from repro.iogen.spec import IoPattern, JobSpec

    configs = []
    for device in GRID_DEVICES:
        for pattern in GRID_PATTERNS:
            for iodepth in GRID_IODEPTHS:
                configs.append(
                    ExperimentConfig(
                        device=device,
                        job=JobSpec(
                            pattern=IoPattern(pattern),
                            block_size=GRID_BLOCK_SIZE,
                            iodepth=iodepth,
                            runtime_s=GRID_RUNTIME_S,
                            size_limit_bytes=GRID_SIZE_LIMIT,
                        ),
                        seed=GRID_SEED,
                    )
                )
    return configs


def _best_run(config, repeats: int) -> dict:
    """Best-of-``repeats`` execution of one config; effective accounting."""
    from repro.core.experiment import run_experiment
    from repro.obs.profile import RunProfiler

    best = None
    for _ in range(max(1, repeats)):
        profiler = RunProfiler()
        t0 = time.perf_counter()
        run_experiment(config, profiler=profiler)
        wall_s = time.perf_counter() - t0
        profile = profiler.points[-1]
        sample = {
            "label": config.describe(),
            "wall_s": wall_s,
            "sim_events": profile.sim_events,
            "sim_events_fast_forwarded": profile.sim_events_fast_forwarded,
            "sim_time_s": profile.sim_time_s,
            "events_per_second": profile.sim_events / wall_s,
            "effective_events_per_second": (
                (profile.sim_events + profile.sim_events_fast_forwarded)
                / wall_s
            ),
        }
        if best is None or sample["wall_s"] < best["wall_s"]:
            best = sample
    return best


def run_grid(repeats: int) -> dict:
    """Execute the pinned exact micro-grid; returns its report section."""
    points = [_best_run(config, repeats) for config in grid_configs()]
    total_wall = sum(p["wall_s"] for p in points)
    total_events = sum(p["sim_events"] for p in points)
    return {
        "bench_index": BENCH_INDEX,
        "grid": {
            "devices": list(GRID_DEVICES),
            "patterns": list(GRID_PATTERNS),
            "iodepths": list(GRID_IODEPTHS),
            "block_size": GRID_BLOCK_SIZE,
            "runtime_s": GRID_RUNTIME_S,
            "size_limit_bytes": GRID_SIZE_LIMIT,
            "seed": GRID_SEED,
            "repeats": repeats,
        },
        "machine": machine_metadata(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "points": points,
        "total_wall_s": total_wall,
        "total_sim_events": total_events,
        "events_per_second": total_events / total_wall if total_wall else 0.0,
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def run_fastpath_grid(repeats: int) -> dict:
    """Exact vs fastpath on the steady-heavy grid; per-mode speedups."""
    import dataclasses

    from repro.core.experiment import ExperimentConfig
    from repro.iogen.spec import IoPattern, JobSpec
    from repro.sim.fastpath import FastpathOptions

    exact_runs = {}
    points = []
    for device in FASTPATH_DEVICES:
        exact_config = ExperimentConfig(
            device=device,
            job=JobSpec(
                pattern=IoPattern(FASTPATH_PATTERN),
                block_size=FASTPATH_BLOCK_SIZE,
                iodepth=FASTPATH_IODEPTH,
                runtime_s=FASTPATH_RUNTIME_S,
                size_limit_bytes=FASTPATH_SIZE_LIMIT,
            ),
            seed=FASTPATH_SEED,
        )
        exact_runs[device] = _best_run(exact_config, repeats)
        for mode in FASTPATH_MODES:
            fast_config = dataclasses.replace(
                exact_config, fastpath=FastpathOptions(mode=mode)
            )
            fast = _best_run(fast_config, repeats)
            exact = exact_runs[device]
            points.append(
                {
                    "label": f"{device} {FASTPATH_PATTERN} {mode}",
                    "device": device,
                    "mode": mode,
                    "exact_wall_s": exact["wall_s"],
                    "exact_events_per_second": exact["events_per_second"],
                    "wall_s": fast["wall_s"],
                    "sim_events": fast["sim_events"],
                    "sim_events_fast_forwarded": fast[
                        "sim_events_fast_forwarded"
                    ],
                    "effective_events_per_second": fast[
                        "effective_events_per_second"
                    ],
                    "speedup": (
                        fast["effective_events_per_second"]
                        / exact["events_per_second"]
                    ),
                }
            )

    modes = {}
    for mode in FASTPATH_MODES:
        rows = [p for p in points if p["mode"] == mode]
        fast_events = sum(
            p["sim_events"] + p["sim_events_fast_forwarded"] for p in rows
        )
        fast_wall = sum(p["wall_s"] for p in rows)
        exact_events = sum(e["sim_events"] for e in exact_runs.values())
        exact_wall = sum(e["wall_s"] for e in exact_runs.values())
        effective = fast_events / fast_wall if fast_wall else 0.0
        exact_eps = exact_events / exact_wall if exact_wall else 0.0
        modes[mode] = {
            "wall_s": fast_wall,
            "effective_events_per_second": effective,
            "exact_events_per_second": exact_eps,
            "speedup": effective / exact_eps if exact_eps else 0.0,
        }

    return {
        "grid": {
            "devices": list(FASTPATH_DEVICES),
            "modes": list(FASTPATH_MODES),
            "pattern": FASTPATH_PATTERN,
            "block_size": FASTPATH_BLOCK_SIZE,
            "iodepth": FASTPATH_IODEPTH,
            "runtime_s": FASTPATH_RUNTIME_S,
            "size_limit_bytes": FASTPATH_SIZE_LIMIT,
            "seed": FASTPATH_SEED,
            "repeats": repeats,
        },
        "points": points,
        "modes": modes,
        # The headline number for the steady-state-heavy claim: the
        # analytic fast-forward's aggregate effective speedup.
        "steady_speedup": modes["splice"]["speedup"],
    }


def _gate(name: str, current: float, base: float, tolerance: float):
    """One regression verdict; None when within tolerance."""
    floor = base * (1.0 - tolerance)
    if current >= floor:
        return None
    return (
        f"{name}: current {current:,.6g} vs baseline {base:,.6g} "
        f"({current / base:.2f}x, floor {floor:,.6g})"
    )


def check_against_baseline(report: dict, baseline: dict | None = None):
    """Gate ``report`` against the committed baseline.

    Returns ``(ok, message)``.  Every benchmark the baseline has a
    number for is compared -- the exact aggregate, each exact grid
    point, and each fastpath mode's effective aggregate -- and the
    failure message names *all* regressed benchmarks.  A missing
    baseline is a failure: the gate must never silently pass because
    someone forgot to commit the pin.
    """
    if baseline is None:
        if not BASELINE_PATH.exists():
            return False, (
                f"no baseline at {BASELINE_PATH}; run "
                "`python -m benchmarks.run --update-baseline` and commit it"
            )
        baseline = json.loads(BASELINE_PATH.read_text())

    failures = []
    verdict = _gate(
        "aggregate events/sec",
        report["events_per_second"],
        baseline["events_per_second"],
        REGRESSION_TOLERANCE,
    )
    if verdict:
        failures.append(verdict)

    base_points = {p["label"]: p for p in baseline.get("points", ())}
    for point in report["points"]:
        base = base_points.get(point["label"])
        if base is None:
            continue
        verdict = _gate(
            point["label"],
            point["events_per_second"],
            base["events_per_second"],
            POINT_REGRESSION_TOLERANCE,
        )
        if verdict:
            failures.append(verdict)

    base_modes = baseline.get("fastpath", {}).get("modes", {})
    for mode, stats in report.get("fastpath", {}).get("modes", {}).items():
        base = base_modes.get(mode)
        if base is None:
            continue
        # Gate the *speedup*, not the absolute effective rate: exact and
        # accelerated kernels run in the same process, so their ratio
        # cancels machine noise that moves both absolute figures.
        verdict = _gate(
            f"fastpath {mode} speedup",
            stats["speedup"],
            base["speedup"],
            POINT_REGRESSION_TOLERANCE,
        )
        if verdict:
            failures.append(verdict)

    if failures:
        lines = "\n".join(f"  - {f}" for f in failures)
        return False, (
            f"REGRESSION in {len(failures)} benchmark(s):\n{lines}"
        )
    return True, (
        f"ok: aggregate {report['events_per_second']:,.0f} ev/s vs baseline "
        f"{baseline['events_per_second']:,.0f} "
        f"({report['events_per_second'] / baseline['events_per_second']:.2f}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.run", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per grid point; the best wall time is kept (default 3)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) listing every benchmark that regressed vs "
        "the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"write this run as the new {BASELINE_PATH.name}",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / f"BENCH_{BENCH_INDEX}.json"),
        help="path of the machine-readable report (default: repo root)",
    )
    args = parser.parse_args(argv)

    report = run_grid(args.repeats)
    for point in report["points"]:
        print(
            f"{point['label']:<42} {point['wall_s'] * 1e3:8.1f} ms "
            f"{point['events_per_second']:12,.0f} ev/s"
        )
    print(
        f"{'TOTAL':<42} {report['total_wall_s'] * 1e3:8.1f} ms "
        f"{report['events_per_second']:12,.0f} ev/s  "
        f"peak RSS {report['peak_rss_bytes'] / 2**20:.0f} MiB"
    )

    report["fastpath"] = run_fastpath_grid(args.repeats)
    for point in report["fastpath"]["points"]:
        print(
            f"{point['label']:<42} {point['wall_s'] * 1e3:8.1f} ms "
            f"{point['effective_events_per_second']:12,.0f} eff-ev/s "
            f"{point['speedup']:6.2f}x"
        )
    for mode, stats in report["fastpath"]["modes"].items():
        print(
            f"{'FASTPATH ' + mode.upper():<42} "
            f"{stats['wall_s'] * 1e3:8.1f} ms "
            f"{stats['effective_events_per_second']:12,.0f} eff-ev/s "
            f"{stats['speedup']:6.2f}x"
        )

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        report["baseline_events_per_second"] = baseline["events_per_second"]
        report["speedup_vs_baseline"] = (
            report["events_per_second"] / baseline["events_per_second"]
        )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report -> {output}")

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(report, indent=1) + "\n")
        print(f"baseline -> {BASELINE_PATH}")

    if args.check:
        ok, message = check_against_baseline(report)
        print(message)
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
