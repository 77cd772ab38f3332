"""The benchmark's workloads: inputs from a seed, one public call each.

Every workload is a closed loop with one client -- the benchmark process
-- that issues one public call and waits for it.  Inputs are built up
front from the grid seed of the chosen input set (see ``run.py``); the
call is timed alone.

- ``mechanism_sweep``: the Fig. 10 random-write mechanism grid (power
  state x chunk x queue depth) on ssd1, ssd2, ssd3 and hdd at QUICK
  scale, in-process.  The paper's flagship sweep.  It stresses the write
  path (engine, SSD write/buffer coroutines, NAND programs, FTL, power
  rail edges); the fastpath declines every write and no pool runs, so it
  bypasses both.
- ``read_sweep``: random and sequential reads, 4k-256k x QD 1-64, on
  ssd1, ssd3, pm1743 and hdd at DEFAULT scale with the splice fastpath,
  as ``repro sweep --fastpath splice`` runs them.  The read side of the
  same layers with no FTL or programs, and both sides of the fastpath
  gate (it engages on some points and declines the rest for several
  different reasons).
- ``fleet_16``: ``run_fleet`` over 16 devices x 4 epochs x 96 tenants at
  QUICK scale on a 2-worker pool.  The only pooled workload and the only
  one that runs the executor and its pickling, the policy runtime, the
  cluster governor and fleet validation; it mixes reads and writes.
"""

from __future__ import annotations

import cProfile
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import refclock
import repro.fleet.cluster as cluster
from repro._units import KiB
from repro.core.ledger import RunLedger
from repro.core.model import PowerThroughputModel
from repro.core.options import ExecutionOptions
from repro.core.sweep import SweepGrid, sweep_outcome
from repro.fleet import FleetSpec, run_fleet
from repro.iogen.spec import IoPattern
from repro.obs.profile import RunProfiler
from repro.sim.fastpath import FastpathOptions
from repro.studies.common import DEFAULT, QUICK
from repro.studies.fig10 import DEVICE_STATES, SWEEP_CHUNKS, SWEEP_DEPTHS

#: The paper's SSD2 random-write power dynamic range (claim C6), percent.
PAPER_SSD2_DYNAMIC_RANGE_PCT = 59.4

#: Input sets per workload: ``--seed n`` selects set ``n`` modulo the
#: workload's count, each a grid seed with a stored exact reference chosen
#: by ``make_reference.py``.  The last set was not used while building the
#: benchmark; a performance claim must also hold on it.
INPUT_SETS = 11

#: Run ledgers go here, inside the checkout, one fresh directory per call.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_work"

READ_DEVICES = ("ssd1", "ssd3", "pm1743", "hdd")
READ_PATTERNS = (IoPattern.RANDREAD, IoPattern.READ)
READ_CHUNKS = (4 * KiB, 64 * KiB, 256 * KiB)
READ_DEPTHS = (1, 8, 64)

FLEET_DEVICES = 16
FLEET_EPOCHS = 4
FLEET_TENANTS = 96


@dataclass
class Rep:
    """One timed workload call and what it produced.

    Attributes:
        wall_s: Host wall seconds of the public call.
        cpu_s: Reference CPU seconds of the call (``Call.cpu_s``) under
            :func:`reference_clock`, else 0.
        outcomes: Every experiment's result (or failure), in call order.
        labels: A readable name per experiment, same order.
        point_s: Host seconds per experiment, from the run ledger: wall
            seconds, or reference CPU seconds under :func:`reference_clock`.
        sim_events: Kernel events over all experiments, from the ledger.
        extra: Workload-specific outputs (fitted models, fleet result).
    """

    wall_s: float
    cpu_s: float
    outcomes: list
    labels: List[str]
    point_s: List[float]
    sim_events: int
    extra: dict = field(default_factory=dict)

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds over all completed experiments (spliced
        time included: the job's simulated span is what it covered)."""
        return sum(
            o.job.duration for o in self.outcomes if hasattr(o, "job")
        )


@dataclass(frozen=True)
class SweepInputs:
    grids: Tuple[SweepGrid, ...]
    fastpath: Optional[FastpathOptions]


def _split(outcomes: list, ledger: Path) -> Tuple[List[float], int]:
    """Per-experiment host seconds and total kernel events, from the
    ledger's point records (one per experiment, in call order)."""
    points = [r for r in RunLedger.load(ledger) if r.get("rec") == "point"]
    if len(points) != len(outcomes):
        raise RuntimeError(
            f"ledger holds {len(points)} point records for "
            f"{len(outcomes)} experiments"
        )
    return (
        [float(p.get("wall_s", 0.0)) for p in points],
        sum(int(p.get("sim_events", 0)) for p in points),
    )


@contextmanager
def reference_clock() -> Iterator[None]:
    """Time calls and experiments in reference CPU seconds (``refclock``).

    The run ledger's per-point ``wall_s`` is read from
    ``RunProfiler.clock``; pool workers fork with the class as patched,
    so they time their points the same way.  Outside this context,
    points are timed on the wall clock and ``Rep.cpu_s`` is 0.
    """
    clock = RunProfiler.__dict__["clock"]
    refclock.CLOCK.reset()
    RunProfiler.clock = staticmethod(refclock.CLOCK)
    Call.clock = refclock.CLOCK
    try:
        yield
    finally:
        RunProfiler.clock = clock
        Call.clock = None


class Call:
    """Times one public call, optionally under a profiler.

    The profiler is enabled only around the call itself, so reading the
    ledger afterwards is neither timed nor attributed to a layer.
    """

    #: The reference clock, inside :func:`reference_clock` only.
    clock: Optional[Callable[[], float]] = None

    def __init__(self, profiler: Optional[cProfile.Profile] = None) -> None:
        self.profiler = profiler
        self.wall_s = 0.0
        self.ref_s = 0.0

    def __enter__(self) -> "Call":
        if self.profiler is not None:
            self.profiler.enable()
        self._ref = self.clock() if self.clock is not None else 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.clock is not None:
            self.ref_s = self.clock() - self._ref
        if self.profiler is not None:
            self.profiler.disable()

    def cpu_s(self, workers: int, point_s: List[float]) -> float:
        """Reference CPU seconds of the call: this process's, plus the
        experiments' when a pool ran them (their workers' CPU outside
        the experiments is not seen)."""
        if self.clock is None:
            return 0.0
        return self.ref_s + (sum(point_s) if workers > 1 else 0.0)


def _run_sweeps(
    inputs: SweepInputs,
    ledger: Path,
    workers: int,
    profiler: Optional[cProfile.Profile] = None,
) -> Rep:
    options = ExecutionOptions(
        n_workers=workers, fastpath=inputs.fastpath, ledger=ledger
    )
    with Call(profiler) as call:
        results = [sweep_outcome(grid, options) for grid in inputs.grids]
        models = {
            grid.device: PowerThroughputModel.from_sweep(
                grid.device, outcome.results
            )
            for grid, outcome in zip(inputs.grids, results)
            if not outcome.failures
        }
    outcomes, labels = [], []
    for grid, outcome in zip(inputs.grids, results):
        for point in grid.points():
            outcomes.append(
                outcome.results.get(point) or outcome.failures.get(point)
            )
            labels.append(f"{grid.device} {point.describe()}")
    point_s, events = _split(outcomes, ledger)
    return Rep(
        call.wall_s, call.cpu_s(workers, point_s), outcomes, labels,
        point_s, events, {"models": models},
    )


def build_mechanism_sweep(seed: int) -> SweepInputs:
    pattern = IoPattern.RANDWRITE
    return SweepInputs(
        grids=tuple(
            SweepGrid(
                device=device,
                patterns=(pattern,),
                block_sizes=SWEEP_CHUNKS,
                iodepths=SWEEP_DEPTHS,
                power_states=states,
                base_job=QUICK.job(pattern, 4 * KiB, 1, device),
                warmup_fraction=QUICK.warmup(device),
                seed=seed,
            )
            for device, states in DEVICE_STATES.items()
        ),
        fastpath=None,
    )


def build_read_sweep(seed: int) -> SweepInputs:
    return SweepInputs(
        grids=tuple(
            SweepGrid(
                device=device,
                patterns=READ_PATTERNS,
                block_sizes=READ_CHUNKS,
                iodepths=READ_DEPTHS,
                base_job=DEFAULT.job(READ_PATTERNS[0], 4 * KiB, 1, device),
                warmup_fraction=DEFAULT.warmup(device),
                seed=seed,
            )
            for device in READ_DEVICES
        ),
        fastpath=FastpathOptions(mode="splice"),
    )


def build_fleet(seed: int) -> FleetSpec:
    return FleetSpec.sized(
        FLEET_DEVICES, epochs=FLEET_EPOCHS, tenants=FLEET_TENANTS, seed=seed
    )


def _run_fleet(
    spec: FleetSpec,
    ledger: Path,
    workers: int,
    profiler: Optional[cProfile.Profile] = None,
) -> Rep:
    """``run_fleet`` with its executor batches observed.

    The fleet result keeps only epoch aggregates, so the benchmark wraps
    the cluster's batch call (``repro.fleet.cluster.run_configs``) to see
    each experiment's result as it comes back; the wrapper only records.
    """
    captured: list = []
    batch = cluster.run_configs

    def observed(configs, *args, **kwargs):
        outcomes = batch(configs, *args, **kwargs)
        captured.extend(outcomes)
        return outcomes

    cluster.run_configs = observed
    try:
        with Call(profiler) as call:
            result = run_fleet(spec, QUICK, n_workers=workers, ledger=ledger)
    finally:
        cluster.run_configs = batch
    labels = [f"#{i} {o.config.describe()}" for i, o in enumerate(captured)]
    point_s, events = _split(captured, ledger)
    return Rep(
        call.wall_s, call.cpu_s(workers, point_s), captured, labels,
        point_s, events, {"fleet": result},
    )


@contextmanager
def fresh_ledger() -> Iterator[Path]:
    """A ledger path in a new, empty directory, removed afterwards, so no
    call sees another's records (and no result cache exists to hit)."""
    WORK_ROOT.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield directory / "ledger.jsonl"
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def exact_inputs(inputs):
    """The same inputs with the fastpath off (how references are made)."""
    if isinstance(inputs, SweepInputs):
        return replace(inputs, fastpath=None)
    return inputs


@dataclass(frozen=True)
class Workload:
    """A named workload.

    Attributes:
        name: As given to ``--workload``.
        build: Grid seed -> inputs.
        run: ``(inputs, ledger path, pool width, profiler or None) -> Rep``.
        workers: Pool width of the timed pass.  The traced pass always
            runs in-process, so the profiler sees every experiment.
        input_sets: How many input sets the workload has.
    """

    name: str
    build: Callable[[int], object]
    run: Callable[..., Rep]
    workers: int = 1
    input_sets: int = INPUT_SETS


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mechanism_sweep", build_mechanism_sweep, _run_sweeps),
        # One input (grid seed 0): between grid seeds the experiment at
        # the tail percentile moves by up to 15%, as the percentile falls
        # where the per-experiment times climb steeply.
        Workload("read_sweep", build_read_sweep, _run_sweeps, input_sets=1),
        # One input: the fleet ``repro fleet --devices 16 --tenants 96``
        # builds by default (placement seed 0).  Placement is the fleet's
        # only seeded input, and between seeds it moves the fleet's work
        # by up to 2x and its tail experiment by half, more than any bound
        # can absorb.
        Workload("fleet_16", build_fleet, _run_fleet, workers=2, input_sets=1),
    )
}


def paper_gap_pp(rep: Rep) -> Optional[float]:
    """Distance from the paper's SSD2 dynamic range, percentage points."""
    model = rep.extra.get("models", {}).get("ssd2")
    if model is None:
        return None
    return abs(model.dynamic_range_fraction * 100 - PAPER_SSD2_DYNAMIC_RANGE_PCT)
