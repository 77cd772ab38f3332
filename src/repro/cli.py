"""Command-line interface: ``python -m repro ...``.

Ten subcommands cover the workflows a user of the artifact needs:

- ``devices`` -- list the calibrated device presets;
- ``run`` -- one experiment with fio-style options (the paper's inner
  measurement loop);
- ``sweep`` -- a mechanism grid on one device, fanned out across worker
  processes (``--workers``), with an optional on-disk result cache and
  resilience controls (``--timeout``, ``--retries``); re-running it over
  the same ``--cache`` recomputes only the points the cache lacks;
- ``figure`` -- regenerate a paper table/figure and print its rows;
- ``validate`` -- audit the physics invariants (energy conservation,
  power envelopes, Little's law, monotonicity contracts) over a
  mechanism sweep of each device, exiting non-zero on any violation;
- ``policy`` -- run the online power-adaptive controllers
  (:mod:`repro.policy`) against time-varying budgets on each device and
  report harvested dynamic range vs. p99 cost, exiting non-zero on any
  invariant violation;
- ``chaos`` -- run a control-plane chaos campaign
  (:mod:`repro.faults.campaign`): enumerate sensor/actuator fault plans
  against every controller family, validate each cell, shrink any
  violation to a minimal ``--faults`` reproducer, and rank controllers
  by harvested-range retention; exits non-zero on any violation;
- ``fleet`` -- simulate a power-governed fleet (:mod:`repro.fleet`):
  tens of heterogeneous devices serve a diurnal tenant-skewed stream
  while a cluster governor re-divides one global power budget into
  per-device caps each epoch; reports harvested fleet power, governed
  dynamic range and p99 blowup, exiting non-zero on any invariant
  violation;
- ``report`` -- render a sweep health report (throughput trend, slowest
  points, cache effectiveness, retry/timeout incidents, policy tracking
  rollups, chaos campaign verdicts, fleet epoch accounting, validation
  verdicts) from the run ledger that ``sweep``, ``policy``, ``chaos``
  and ``fleet`` append beside their ``--cache`` directory;
- ``plan`` -- fit a device's power-throughput model and plan a power cut
  (the section-3.3 worked example), exiting 1 when no configuration
  fits the cut (and the optional p99 SLO).

``sweep --cache DIR`` additionally appends to the run ledger
``DIR/ledger.jsonl`` for ``repro report``: one record whenever a point's
attempt starts or ends, one per point and a run summary.  ``repro
report`` counts the points an interrupted run left mid-attempt, and
``sweep --progress`` paints a live done/ETA line on stderr.  Both
observe the run; neither changes a result.

``run`` and ``sweep`` accept ``--faults SPEC`` for deterministic fault
injection (see :func:`repro.faults.parse_fault_plan` for the grammar,
e.g. ``io_error:p=0.01;governor:at=0.02``) and observability options:
``--trace PATH``
(with ``--trace-format jsonl|chrome``) exports every mechanism event --
power-state transitions, governor throttling, GC, spindle, ALPM -- and
``--metrics PATH`` writes a sim-time metrics snapshot (power-state
residency, queue depths, cache hit rates) plus runner profiling.  The
chrome format loads directly in Perfetto (https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import math
from typing import Optional, Sequence

from repro._units import parse_size
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.devices.catalog import DEVICE_PRESETS
from repro.iogen.spec import IoPattern, JobSpec
from repro.policy.spec import POLICY_KINDS
from repro.studies import DEFAULT, FIGURES, QUICK, reproduce

__all__ = ["build_parser", "main"]


def _workers_arg(value: str) -> Optional[int]:
    """Parse ``--workers``: a positive integer, or ``all`` for all cores."""
    if value.strip().lower() == "all":
        return None
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'all', got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1 (or 'all'), got {workers}"
        )
    return workers


def _cut_arg(value: str) -> float:
    """Parse ``plan --cut``: a power-reduction fraction in [0, 1)."""
    try:
        cut = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction in [0, 1), got {value!r}"
        ) from None
    if not 0 <= cut < 1:
        raise argparse.ArgumentTypeError(
            f"power cut must be in [0, 1), got {value}"
        )
    return cut


def _slo_ms_arg(value: str) -> float:
    """Parse ``plan --slo-p99-ms``: a finite, positive latency in ms."""
    try:
        slo_ms = float(value)
    except ValueError:
        slo_ms = math.nan
    if not (math.isfinite(slo_ms) and slo_ms > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite, positive number of ms, got {value!r}"
        )
    return slo_ms


def _faults_arg(value: str):
    from repro.faults import FaultSpecError, parse_fault_plan

    try:
        return parse_fault_plan(value)
    except FaultSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- shared flag groups ----------------------------------------------------
#
# Each builder returns an ``add_help=False`` parent parser holding one
# flag group that several subcommands share; ``add_parser(...,
# parents=[...])`` wires them declaratively.  Help strings differ per
# subcommand, so builders take the text as a parameter where needed.

_WORKERS_HELP = (
    "worker processes: a positive integer or 'all' (default 1 = in-process)"
)
_CACHE_HELP = (
    "on-disk result cache; re-runs skip already-computed points"
)


def _workers_parent(help_text: str = _WORKERS_HELP) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=_workers_arg, default=1, help=help_text
    )
    return parent


def _seed_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0)
    return parent


def _quick_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--quick", action="store_true", help="CI-scale run (coarser, faster)"
    )
    return parent


def _faults_parent(help_text: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--faults",
        type=_faults_arg,
        default=None,
        metavar="SPEC",
        help=help_text,
    )
    return parent


def _fastpath_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--fastpath",
        nargs="?",
        const="splice",
        default=None,
        choices=["splice"],
        metavar="MODE",
        help="splice detected steady-state windows analytically (splice, "
        "the only mode; bare flag = splice).  Ineligible runs fall back "
        "to the exact kernel bit-identically; spliced runs are "
        "equivalent within declared tolerances (see DESIGN.md)",
    )
    return parent


def _cache_parent(help_text: str = _CACHE_HELP) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache", default=None, metavar="DIR", help=help_text
    )
    return parent


def _device_parent(help_text: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--device",
        action="append",
        choices=sorted(DEVICE_PRESETS),
        help=help_text,
    )
    return parent


def _resilience_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("resilience")
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per point attempt; hung workers are "
        "killed and the point retried",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per failing point (timeouts, crashes, "
        "exceptions)",
    )
    return parent


def _obs_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    obs = parent.add_argument_group("observability")
    obs.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export mechanism events (power states, governor, GC, "
        "spindle, ALPM, IO) to PATH",
    )
    obs.add_argument(
        "--trace-format",
        default="jsonl",
        choices=["jsonl", "chrome"],
        help="jsonl = one event per line; chrome = Perfetto-loadable "
        "trace_event JSON (default: jsonl)",
    )
    obs.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a sim-time metrics snapshot (JSON) to PATH",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Can Storage Devices be Power Adaptive?' "
            "(HotStorage '24)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the calibrated device presets")

    run_p = sub.add_parser(
        "run",
        help="run one measurement experiment",
        parents=[
            _seed_parent(),
            _faults_parent(
                "inject faults, e.g. 'io_error:p=0.01;governor:at=0.02' "
                "(kinds: io_error, spike, throttle, stuck, governor, spinup)"
            ),
            _fastpath_parent(),
            _obs_parent(),
        ],
    )
    run_p.add_argument("--device", required=True, choices=sorted(DEVICE_PRESETS))
    run_p.add_argument(
        "--rw",
        default="randwrite",
        choices=[p.value for p in IoPattern],
        help="access pattern (fio rw=)",
    )
    run_p.add_argument("--bs", default="256k", help="chunk size (fio bs=)")
    run_p.add_argument("--iodepth", type=int, default=64)
    run_p.add_argument("--runtime", type=float, default=0.08, help="seconds")
    run_p.add_argument("--size", default="48M", help="byte stop condition")
    run_p.add_argument("--ps", type=int, default=None, help="NVMe power state")

    sweep_p = sub.add_parser(
        "sweep",
        help="run a mechanism grid, optionally across worker processes",
        parents=[
            _workers_parent(),
            _cache_parent(),
            _seed_parent(),
            _faults_parent(
                "inject faults into every point, e.g. 'io_error:p=0.01'"
            ),
            _fastpath_parent(),
            _resilience_parent(),
            _obs_parent(),
        ],
    )
    sweep_p.add_argument("--device", required=True, choices=sorted(DEVICE_PRESETS))
    sweep_p.add_argument(
        "--rw",
        action="append",
        choices=[p.value for p in IoPattern],
        help="access pattern; repeat for several (default: randwrite)",
    )
    sweep_p.add_argument(
        "--bs",
        action="append",
        help="chunk size; repeat for several (default: the paper's six)",
    )
    sweep_p.add_argument(
        "--iodepth",
        action="append",
        type=int,
        help="queue depth; repeat for several (default: the paper's six)",
    )
    sweep_p.add_argument(
        "--ps",
        action="append",
        type=int,
        help="NVMe power state; repeat for several (default: none)",
    )
    sweep_p.add_argument("--runtime", type=float, default=0.05, help="seconds")
    sweep_p.add_argument("--size", default="32M", help="byte stop condition")
    sweep_p.add_argument(
        "--progress",
        action="store_true",
        help="paint a live done/cached/ETA line on stderr while the "
        "sweep runs",
    )

    fig_p = sub.add_parser(
        "figure",
        help="regenerate a paper table/figure",
        parents=[
            _quick_parent(),
            _workers_parent(
                "worker processes for sweep-backed figures: a positive "
                "integer or 'all'"
            ),
        ],
    )
    fig_p.add_argument("name", choices=tuple(FIGURES))

    sub.add_parser(
        "validate",
        help="audit physics invariants over a mechanism sweep",
        description=(
            "Run a fig10-style mechanism sweep per device with every "
            "repro.validate invariant checker enabled (energy "
            "conservation, power envelopes, Little's law, monotonicity "
            "contracts, ...) plus one live-audited experiment per device, "
            "and report any violation.  Exit status 1 if an invariant "
            "failed."
        ),
        parents=[
            _device_parent(
                "device to audit; repeat for several (default: the paper's "
                "four Table 1 devices)"
            ),
            _quick_parent(),
            _workers_parent(),
            _seed_parent(),
        ],
    )

    policy_p = sub.add_parser(
        "policy",
        help="run online power-adaptive controllers against time-varying "
        "budgets",
        description=(
            "Run the policy tracking study: an uncontrolled baseline per "
            "device, then each controller family (static cap, PI "
            "feedback, hysteresis ladder) tracking a budget schedule "
            "derived from it.  Reports harvested dynamic range, p99 "
            "blowup, set-point changes and tracking error per (device, "
            "policy), and validates every result against the physics "
            "invariants.  Exit status 1 if any invariant failed."
        ),
        parents=[
            _device_parent(
                "device to control; repeat for several (default: the "
                "paper's four Table 1 devices)"
            ),
            _quick_parent(),
            _seed_parent(),
            _workers_parent(),
            _faults_parent(
                "inject faults into every policy run (baselines stay "
                "clean), e.g. 'governor:at=0.02'"
            ),
            _cache_parent(),
        ],
    )
    policy_p.add_argument(
        "--policy",
        action="append",
        choices=POLICY_KINDS,
        help="controller family; repeat for several (default: all three)",
    )

    chaos_p = sub.add_parser(
        "chaos",
        help="run a control-plane chaos campaign against the controllers",
        description=(
            "Enumerate control-plane fault plans (lying/dead meters, "
            "lossy/stuck actuators, governor failures) against each "
            "controller family, validate every cell against the "
            "physics and budget-safety invariants, shrink violations "
            "to minimal --faults reproducers, and rank controllers by "
            "harvested-range retention and p99 blowup.  Exit status 1 "
            "if any cell violated an invariant."
        ),
        parents=[
            _device_parent(
                "device to attack; repeat for several (default: ssd2)"
            ),
            _quick_parent(),
            _seed_parent(),
            _workers_parent(),
            _cache_parent(
                "on-disk result cache; also appends campaign records to "
                "DIR/ledger.jsonl for `repro report`"
            ),
        ],
    )
    chaos_p.add_argument(
        "--controllers",
        action="append",
        choices=("all",) + POLICY_KINDS + ("unsafe",),
        help="controller family; repeat for several; 'all' adds the "
        "deliberately-unsafe fixture to the shipped families "
        "(default: all)",
    )
    chaos_p.add_argument(
        "--budget-cells",
        type=int,
        default=None,
        metavar="N",
        help="cap on executed fault cells (deterministic coverage-first "
        "sampling; default: the full grid)",
    )
    chaos_p.add_argument(
        "--no-watchdog",
        action="store_true",
        help="disarm the safe-mode watchdog (measures the unprotected "
        "controllers)",
    )

    fleet_p = sub.add_parser(
        "fleet",
        help="simulate a power-governed fleet against a global diurnal "
        "budget",
        description=(
            "Run the fleet-scale study: N heterogeneous devices serve a "
            "diurnal, tenant-skewed front-end stream while a cluster "
            "governor re-divides one global power budget into per-device "
            "caps each epoch, actuated through the per-device policy "
            "runtime.  Reports per-epoch budget/power/latency accounting, "
            "harvested fleet power, governed dynamic range and worst-epoch "
            "p99 blowup, and validates every run against the physics and "
            "fleet budget invariants.  Exit status 1 if any invariant "
            "failed."
        ),
        parents=[
            _quick_parent(),
            _seed_parent(),
            _workers_parent(),
            _cache_parent(
                "on-disk result cache; also appends fleet records to "
                "DIR/ledger.jsonl for `repro report`"
            ),
        ],
    )
    fleet_p.add_argument(
        "--devices",
        type=int,
        default=64,
        metavar="N",
        help="fleet size; slots cycle through the paper's four catalog "
        "devices (default 64)",
    )
    fleet_p.add_argument(
        "--epochs",
        type=int,
        default=4,
        help="governor re-division periods over the simulated day "
        "(default 4)",
    )
    fleet_p.add_argument(
        "--tenants",
        type=int,
        default=96,
        help="front-end tenants generating the skewed stream (default 96)",
    )
    fleet_p.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="Zipf exponent of tenant weights; 0 = uniform (default 1.1)",
    )
    fleet_p.add_argument(
        "--budget-low",
        type=float,
        default=0.55,
        metavar="FRAC",
        help="diurnal budget trough as a fraction of the fleet's actuator "
        "ceiling (default 0.55)",
    )
    fleet_p.add_argument(
        "--budget-high",
        type=float,
        default=0.85,
        metavar="FRAC",
        help="diurnal budget peak as a fraction of the fleet's actuator "
        "ceiling (default 0.85)",
    )

    report_p = sub.add_parser(
        "report",
        help="render a sweep health report from a run ledger",
        description=(
            "Read the append-only run ledger that sweep/policy/chaos/"
            "fleet runs write beside their --cache directory and render "
            "a sweep health report: executor throughput trend and "
            "slowest points, retry/timeout incidents, cache "
            "effectiveness, per-(device, power-state) metric rollups, "
            "policy tracking error, fleet epoch accounting, and "
            "validation verdicts.  Exit status 1 if the latest run "
            "recorded failures or a failed validation, 2 if there is no "
            "ledger to read."
        ),
    )
    report_p.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="ledger file to read (default: LEDGER inside --cache)",
    )
    report_p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="cache directory of the sweep; reads DIR/ledger.jsonl",
    )
    report_p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of markdown",
    )

    plan_p = sub.add_parser("plan", help="plan a power cut on a device model")
    plan_p.add_argument("--device", required=True, choices=sorted(DEVICE_PRESETS))
    plan_p.add_argument(
        "--cut",
        type=_cut_arg,
        default=0.2,
        help="power reduction fraction in [0, 1) (default 0.2)",
    )
    plan_p.add_argument(
        "--slo-p99-ms", type=_slo_ms_arg, default=None, help="latency SLO in ms"
    )
    return parser


class _ObsSession:
    """Tracer + metrics bundle behind --trace/--metrics."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.obs import MetricsCollector, Tracer

        self.trace_path = args.trace
        self.trace_format = args.trace_format
        self.metrics_path = args.metrics
        self.enabled = bool(self.trace_path or self.metrics_path)
        self.tracer = None
        self.collector = None
        if not self.enabled:
            return
        # Keep the event buffer only if a trace file was asked for.
        self.tracer = Tracer(keep_events=bool(self.trace_path))
        if self.metrics_path:
            self.collector = MetricsCollector()
            self.tracer.subscribe(self.collector)

    def export(self, cache=None, profiler=None) -> list[str]:
        """Write the requested files, the metrics file's ``profile``
        section from ``profiler``; returns human summary lines."""
        from repro.obs import (
            write_chrome_trace,
            write_events_jsonl,
            write_metrics_json,
        )

        notes = []
        if self.trace_path:
            if self.trace_format == "chrome":
                count = write_chrome_trace(self.tracer.events, self.trace_path)
                notes.append(
                    f"trace: {count} trace events -> {self.trace_path} "
                    "(chrome trace_event; open in https://ui.perfetto.dev)"
                )
            else:
                count = write_events_jsonl(self.tracer.events, self.trace_path)
                notes.append(f"trace: {count} events -> {self.trace_path} (jsonl)")
        if self.metrics_path:
            write_metrics_json(
                self.collector.snapshot(),
                self.metrics_path,
                profile=profiler.snapshot() if profiler is not None else None,
                cache=cache.stats.snapshot() if cache is not None else None,
            )
            notes.append(f"metrics: -> {self.metrics_path}")
            if profiler is not None and profiler.points:
                notes.append(f"profile: {profiler.describe()}")
        return notes


def _cmd_devices() -> str:
    from repro.core.reporting import format_table
    from repro.devices.hdd_drive import HddConfig

    rows = []
    for label in sorted(DEVICE_PRESETS):
        config = DEVICE_PRESETS[label]()
        if isinstance(config, HddConfig):
            kind = "HDD"
            states = "standby/EPC"
        else:
            kind = "SSD"
            states = (
                f"{len(config.power_states)} NVMe states"
                if config.power_states
                else "ALPM"
            )
        rows.append([label, kind, f"{config.idle_power_w:.2f}", states])
    return format_table(
        ["Preset", "Type", "Idle W", "Power control"], rows
    )


def _cmd_run(args: argparse.Namespace) -> str:
    from repro.obs import RunProfiler

    job = JobSpec(
        pattern=IoPattern(args.rw),
        block_size=parse_size(args.bs),
        iodepth=args.iodepth,
        runtime_s=args.runtime,
        size_limit_bytes=parse_size(args.size),
    )
    obs = _ObsSession(args)
    profiler = RunProfiler() if obs.metrics_path else None
    fastpath = _fastpath_options(args)
    result = run_experiment(
        ExperimentConfig(
            device=args.device,
            job=job,
            power_state=args.ps,
            seed=args.seed,
            faults=args.faults,
            fastpath=fastpath,
        ),
        tracer=obs.tracer,
        profiler=profiler,
    )
    lines = [result.summary()]
    if result.faults is not None:
        lines.append(f"faults: {result.faults.describe()}")
    if result.fastpath is not None:
        lines.append(f"fastpath: {result.fastpath.describe()}")
    if obs.enabled:
        lines.extend(obs.export(profiler=profiler))
    return "\n".join(lines)


def _ledger_path(args: argparse.Namespace):
    """The run ledger inside ``--cache DIR`` (``None`` without a cache)."""
    from pathlib import Path

    return Path(args.cache) / "ledger.jsonl" if args.cache else None


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    from repro.core.options import ExecutionOptions
    from repro.core.parallel import resolve_workers
    from repro.core.reporting import format_table
    from repro.core.sweep import SweepGrid, sweep_outcome
    from repro.iogen.spec import (
        JobSpec,
        PAPER_CHUNK_SIZES,
        PAPER_QUEUE_DEPTHS,
    )

    patterns = tuple(
        IoPattern(rw) for rw in (args.rw or ["randwrite"])
    )
    grid = SweepGrid(
        device=args.device,
        patterns=patterns,
        block_sizes=tuple(parse_size(bs) for bs in args.bs)
        if args.bs
        else PAPER_CHUNK_SIZES,
        iodepths=tuple(args.iodepth) if args.iodepth else PAPER_QUEUE_DEPTHS,
        power_states=tuple(args.ps) if args.ps else (None,),
        base_job=JobSpec(
            pattern=patterns[0],
            block_size=4096,
            iodepth=1,
            runtime_s=args.runtime,
            size_limit_bytes=parse_size(args.size),
        ),
        seed=args.seed,
        faults=args.faults,
    )
    obs = _ObsSession(args)
    ledger = _ledger_path(args)
    progress = _progress_printer() if args.progress else None
    # Opened here, not in the sweep, so the cache's statistics stay
    # readable for the summary below.
    options = ExecutionOptions(
        n_workers=args.workers,
        cache_dir=args.cache or None,
        tracer=obs.tracer,
        timeout_s=args.timeout,
        retries=args.retries,
        fastpath=_fastpath_options(args),
        telemetry=bool(args.progress or args.metrics or ledger is not None),
        ledger=ledger,
        progress=progress,
    ).opened()
    cache = options.cache_dir
    try:
        outcome = sweep_outcome(grid, options)
    finally:
        if progress is not None:
            progress.finish()
    rows = [
        [
            point.describe(),
            f"{result.mean_power_w:.2f}",
            f"{result.throughput_mib_s:.0f}",
            f"{result.latency().p99 * 1e6:.0f}",
        ]
        for point, result in outcome.results.items()
    ]
    blocks = [
        format_table(
            ["Point", "Mean W", "MiB/s", "p99 us"],
            rows,
            title=f"Sweep of {args.device}: {len(rows)} points.",
        )
    ]
    if outcome.failures:
        blocks.append(
            f"{len(outcome.failures)} point(s) FAILED:\n"
            + "\n".join(
                f"  {failure.describe()}"
                for failure in outcome.failures.values()
            )
        )
    summary_notes = []
    if cache is not None:
        stats = cache.stats
        summary_notes.append(
            f"cache: {stats.hits} hit(s), {stats.misses} miss(es) "
            f"({stats.snapshot()['hit_rate']:.0%} hit rate), "
            f"{stats.corrupt} corrupt, {stats.puts} write(s)"
        )
    if outcome.telemetry is not None:
        summary_notes.append(f"executor: {outcome.telemetry.describe()}")
    if (
        obs.enabled
        and resolve_workers(args.workers) > 1
        and len(outcome.results) + len(outcome.failures) > 1
    ):
        summary_notes.append(
            "workers: --trace and --metrics run the points in this process "
            "(their events cannot cross from a worker process), so "
            f"--workers {args.workers or 'all'} went unused"
        )
    if ledger is not None:
        summary_notes.append(
            f"ledger: -> {ledger} (render with `repro report --cache "
            f"{args.cache}`)"
        )
    if summary_notes:
        blocks.append("\n".join(summary_notes))
    if obs.enabled:
        profiler = outcome.telemetry.profile if args.metrics else None
        blocks.append("\n".join(obs.export(cache=cache, profiler=profiler)))
    return "\n\n".join(blocks), 0 if outcome.ok else 1


def _fastpath_options(args: argparse.Namespace):
    """Build FastpathOptions from --fastpath (None when the flag is absent).

    Imported lazily so a run without the flag never loads
    :mod:`repro.sim.fastpath` (the poisoned-import test pins this).
    """
    if args.fastpath is None:
        return None
    from repro.sim.fastpath import FastpathOptions

    return FastpathOptions(mode=args.fastpath)


class _progress_printer:
    """Stderr live-progress sink for ``ExecutionOptions(progress=...)``.

    Repaints one carriage-return line per update so a long sweep shows
    done/cached counts and an ETA without polluting stdout (which holds
    the machine-readable report).
    """

    def __init__(self) -> None:
        import sys

        self._err = sys.stderr
        self._width = 0

    def __call__(self, update) -> None:
        line = update.describe()
        pad = " " * max(0, self._width - len(line))
        self._width = len(line)
        self._err.write("\r" + line + pad)
        self._err.flush()

    def finish(self) -> None:
        if self._width:
            self._err.write("\n")
            self._err.flush()


def _cmd_figure(args: argparse.Namespace) -> str:
    return reproduce(args.name, QUICK if args.quick else DEFAULT, args.workers)


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    from repro.core.options import ExecutionOptions
    from repro.core.sweep import SweepGrid, sweep_outcome
    from repro.iogen.spec import IoPattern
    from repro.studies.common import point_config
    from repro.studies.fig10 import DEVICE_STATES, SWEEP_CHUNKS, SWEEP_DEPTHS
    from repro.validate import live_validate
    from repro.validate.strategies import PAPER_DEVICES

    devices = tuple(args.device) if args.device else PAPER_DEVICES
    scale = QUICK if args.quick else DEFAULT
    pattern = IoPattern.RANDWRITE
    blocks = []
    total_checked = 0
    total_violations = 0
    for device in devices:
        grid = SweepGrid(
            device=device,
            patterns=(pattern,),
            block_sizes=SWEEP_CHUNKS,
            iodepths=SWEEP_DEPTHS,
            power_states=DEVICE_STATES.get(device, (None,)),
            base_job=scale.job(pattern, 4096, 1, device),
            warmup_fraction=scale.warmup(device),
            seed=args.seed,
        )
        outcome = sweep_outcome(
            grid,
            ExecutionOptions(n_workers=args.workers, validate=True),
        )
        report = outcome.validation
        lines = [f"{device}: {report.render()}"]
        if outcome.failures:
            lines.append(
                f"{device}: {len(outcome.failures)} point(s) failed to run:\n"
                + "\n".join(
                    f"  {failure.describe()}"
                    for failure in outcome.failures.values()
                )
            )
        # One fully live-audited experiment on top of the post-hoc sweep
        # checks: rail energy conservation and event-stream invariants
        # need in-process shadow state a worker pool cannot ship back.
        _result, live_report = live_validate(
            point_config(device, pattern, 256 * 1024, 8, scale=scale,
                         seed=args.seed)
        )
        lines.append(f"{device} (live audit): {live_report.render()}")
        total_checked += report.checked + live_report.checked
        total_violations += (
            len(report.violations)
            + len(live_report.violations)
            + len(outcome.failures)
        )
        blocks.append("\n".join(lines))
    verdict = (
        f"validated {total_checked} experiment(s) across "
        f"{len(devices)} device(s): "
        + ("all invariants hold" if total_violations == 0
           else f"{total_violations} violation(s)")
    )
    blocks.append(verdict)
    return "\n\n".join(blocks), 0 if total_violations == 0 else 1


def _cmd_policy(args: argparse.Namespace) -> tuple[str, int]:
    from repro.studies import policy_tracking

    result = policy_tracking.run(
        scale=QUICK if args.quick else DEFAULT,
        n_workers=args.workers,
        seed=args.seed,
        devices=tuple(args.device) if args.device else policy_tracking.DEVICES,
        policies=tuple(args.policy) if args.policy else POLICY_KINDS,
        faults=args.faults,
        cache_dir=args.cache or None,
        ledger=_ledger_path(args),
    )
    # Validation runs post-hoc over the *returned* results, cache hits
    # included, so the exit code cannot be laundered by a warm cache.
    return policy_tracking.render(result), 0 if result.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> tuple[str, int]:
    from repro.faults.campaign import run_campaign
    from repro.studies import chaos_resilience

    controllers = None
    if args.controllers and "all" not in args.controllers:
        controllers = tuple(dict.fromkeys(args.controllers))
    result = run_campaign(
        scale=QUICK if args.quick else DEFAULT,
        n_workers=args.workers,
        seed=args.seed,
        devices=tuple(args.device) if args.device else ("ssd2",),
        controllers=controllers,
        budget_cells=args.budget_cells,
        watchdog=not args.no_watchdog,
        cache_dir=args.cache or None,
        ledger=_ledger_path(args),
    )
    # Validation runs post-hoc over the returned results, cache hits
    # included, so the exit code cannot be laundered by a warm cache.
    return chaos_resilience.render(result), 0 if result.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> tuple[str, int]:
    from repro.studies import fleet_scale

    result = fleet_scale.run(
        scale=QUICK if args.quick else DEFAULT,
        n_workers=args.workers,
        seed=args.seed,
        n_devices=args.devices,
        epochs=args.epochs,
        tenants=args.tenants,
        skew=args.skew,
        budget_low=args.budget_low,
        budget_high=args.budget_high,
        cache_dir=args.cache or None,
        ledger=_ledger_path(args),
    )
    # Validation runs post-hoc over the returned results, cache hits
    # included, so the exit code cannot be laundered by a warm cache.
    return fleet_scale.render(result), 0 if result.ok else 1


def _cmd_report(args: argparse.Namespace) -> tuple[str, int]:
    import json
    from pathlib import Path

    from repro.core.ledger import RunLedger
    from repro.core.report import build_report, render_markdown

    if not args.ledger and not args.cache:
        return ("report: provide --ledger PATH or --cache DIR", 2)
    path = Path(args.ledger) if args.ledger else _ledger_path(args)
    if not path.exists():
        return (
            f"report: no ledger at {path} (run `repro sweep --cache` or "
            "`repro policy --cache` first)",
            2,
        )
    records = RunLedger.load(path)
    if not records:
        return (f"report: ledger at {path} holds no records", 2)
    report = build_report(records)
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = render_markdown(report)
    return text, 0 if report["ok"] else 1


def _cmd_plan(args: argparse.Namespace) -> tuple[str, int]:
    from repro.studies.fig10 import build_model

    model = build_model(args.device, scale=QUICK)
    slo = None if args.slo_p99_ms is None else args.slo_p99_ms * 1e-3
    try:
        plan = model.plan_power_cut(args.cut, max_latency_p99_s=slo)
    except ValueError as exc:
        return f"plan: {exc}", 1
    return (
        f"{args.device}: model of {len(model.points)} points, "
        f"peak {model.max_power_w:.2f} W\n"
        f"power cut {args.cut:.0%}: {plan.describe()}",
        0,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "devices":
        print(_cmd_devices())
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "sweep":
        text, code = _cmd_sweep(args)
        print(text)
        return code
    elif args.command == "figure":
        print(_cmd_figure(args))
    elif args.command == "validate":
        text, code = _cmd_validate(args)
        print(text)
        return code
    elif args.command == "policy":
        text, code = _cmd_policy(args)
        print(text)
        return code
    elif args.command == "chaos":
        text, code = _cmd_chaos(args)
        print(text)
        return code
    elif args.command == "fleet":
        text, code = _cmd_fleet(args)
        print(text)
        return code
    elif args.command == "report":
        text, code = _cmd_report(args)
        print(text)
        return code
    elif args.command == "plan":
        text, code = _cmd_plan(args)
        print(text)
        return code
    return 0
