"""Fleet-scale cluster simulation: a governor over many governed devices.

This is the runner behind ``repro fleet`` and
:mod:`repro.studies.fleet_scale`.  One :func:`run_fleet` call simulates
``len(spec.devices)`` heterogeneous devices for ``spec.epochs`` epochs,
twice:

- **Baseline phase** -- every (device, epoch) job from the
  :class:`~repro.fleet.workload.FrontEnd` runs uncontrolled, in one
  deterministic process-pool batch
  (:func:`repro.core.parallel.run_configs`).  This establishes the
  fleet's natural draw and tail latency under the same diurnal,
  tenant-skewed stream.
- **Governed phase** -- epoch by epoch, the
  :class:`~repro.fleet.api.BudgetAllocator` re-divides the global
  budget (a time-varying :class:`~repro.policy.spec.BudgetSchedule`
  evaluated once per epoch) into per-device caps, using last epoch's
  measured draws as its live meters; each cap is actuated through the
  existing per-device policy runtime (a ``static`` controller pinned at
  the cap), and the epoch's devices run as one pool batch.

An epoch is therefore the governor's re-division cadence: within an
epoch caps are constant and the per-device controllers do the fast
actuation; across epochs the cluster loop closes (measure -> re-divide
-> actuate), mirroring the online multi-disk DPM blueprint in PAPERS.md.

Everything observable is deterministic: jobs and placement are pure
functions of the spec, per-run seeds derive from keyed ``blake2b``, the
executor preserves submission order, and :meth:`FleetResult.digest`
condenses the whole outcome into a hash that must be byte-identical
across processes and ``PYTHONHASHSEED`` values (pinned by
``tests/fleet/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.options import ExecutionOptions
from repro.core.parallel import results_or_raise, run_configs
from repro.devices.catalog import DEVICE_PRESETS
from repro.devices.hdd_drive import HddConfig
from repro.fleet.api import BudgetAllocator, DeviceView
from repro.fleet.governor import ClusterGovernor
from repro.fleet.workload import FrontEnd
from repro.iogen.stats import IoRecords, LatencyStats
from repro.obs.aggregate import BucketedHistogram, SweepRollup, merge_snapshots
from repro.policy.runtime import _hdd_range, _ssd_range
from repro.policy.spec import BudgetSchedule, PolicySpec
from repro.studies.common import DEFAULT, StudyScale, decision_cadence
from repro.validate.checkers import RESULT_INVARIANTS, check_result
from repro.validate.report import Tolerances, ValidationReport, Violation

__all__ = [
    "DEFAULT_MIX",
    "FleetEpoch",
    "FleetResult",
    "FleetSpec",
    "device_power_range",
    "run_fleet",
]

#: Heterogeneous slot mix cycled by :meth:`FleetSpec.sized` -- the
#: paper's four Table 1 devices in presentation order.
DEFAULT_MIX = ("ssd1", "ssd2", "ssd3", "hdd")

#: Fleet-level invariants checked on top of the per-result physics set.
FLEET_INVARIANTS = (
    "fleet_budget_partition",
    "fleet_cap_bounds",
    "fleet_budget_tracking",
)

#: Budget-tracking slack: relative to the epoch's baseline draw, plus an
#: absolute fleet-wide cushion in watts.  Tracking is *directional*, not
#: numeric cap adherence: several catalog actuators are rung-quantized
#: or cannot shed load-dependent power at all (the HDD's EPC under media
#: access, the SATA drive's read path), so a device pinned at its floor
#: cap can legitimately draw above the cap.  What a correct governor can
#: never do is make the fleet draw *more* than it would uncontrolled.
_TRACKING_REL = 0.03
_TRACKING_ABS_W = 0.5


def device_power_range(label: str) -> tuple[float, float]:
    """(floor_w, ceiling_w) a device preset's actuator can honor.

    Delegates to the policy runtime's range derivation so governor caps
    are, by construction, caps the per-device actuator can actually
    hold (NVMe operational power states, the analog governor envelope,
    or the HDD's EPC/seek range).
    """
    config = DEVICE_PRESETS[label]()
    if isinstance(config, HddConfig):
        floor_w, ceiling_w, _ = _hdd_range(config)
    else:
        floor_w, ceiling_w, _ = _ssd_range(config)
    return floor_w, ceiling_w


def _seed_for(base_seed: int, phase: str, slot: int, epoch: int) -> int:
    """Per-run seed from the keyed hash house rule (never ``hash()``)."""
    digest = hashlib.blake2b(
        f"fleet:{base_seed}:{phase}:{slot}:{epoch}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class FleetSpec:
    """One fleet simulation, fully described.

    Attributes:
        devices: Catalog label per device slot (repeats allowed; a rack
            of 16 identical SSDs is 16 entries).
        epochs: Governor re-division periods over the simulated day.
        tenants: Front-end customers generating the skewed stream.
        skew: Zipf exponent of tenant weights (0 = uniform).
        budget_low / budget_high: The global diurnal budget envelope as
            fractions of the fleet's actuator-ceiling sum.
        seed: Base seed for placement and per-run streams.
    """

    devices: tuple[str, ...]
    epochs: int = 4
    tenants: int = 64
    skew: float = 1.1
    budget_low: float = 0.55
    budget_high: float = 0.85
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a fleet needs at least one device slot")
        unknown = sorted(set(self.devices) - set(DEVICE_PRESETS))
        if unknown:
            raise ValueError(
                f"unknown device preset(s) {unknown}; choose from "
                f"{sorted(DEVICE_PRESETS)}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants!r}")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew!r}")
        if not 0 < self.budget_low <= self.budget_high:
            raise ValueError(
                "budget fractions must satisfy 0 < low <= high, got "
                f"low={self.budget_low!r} high={self.budget_high!r}"
            )
        if self.budget_high > 1.0:
            raise ValueError(
                f"budget_high is a fraction of fleet ceiling; "
                f"got {self.budget_high!r} > 1"
            )

    @classmethod
    def sized(
        cls,
        n_devices: int,
        mix: Sequence[str] = DEFAULT_MIX,
        **kwargs,
    ) -> "FleetSpec":
        """A spec with ``n_devices`` slots cycling through ``mix``."""
        if n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {n_devices!r}")
        if not mix:
            raise ValueError("mix must name at least one device preset")
        devices = tuple(mix[i % len(mix)] for i in range(n_devices))
        return cls(devices=devices, **kwargs)

    def budget_schedule(self) -> BudgetSchedule:
        """The global diurnal budget over one simulated day (t in days)."""
        ceiling = sum(device_power_range(d)[1] for d in self.devices)
        return BudgetSchedule.diurnal(
            high_w=self.budget_high * ceiling,
            low_w=self.budget_low * ceiling,
            period_s=1.0,
        )


@dataclass(frozen=True)
class FleetEpoch:
    """One governor period: what was asked, granted, and measured.

    Attributes:
        index: Epoch number (0-based).
        budget_w: Global budget the schedule imposed this epoch.
        allocated_w: Sum of the caps the allocator handed out.
        deficit_w: Floor shortfall reported by the allocator (0 when
            the budget was feasible).
        measured_w: Governed fleet draw (sum of true mean powers).
        baseline_w: Uncontrolled fleet draw under the same jobs.
        p99_s / baseline_p99_s: Exact fleet-wide p99 latency over every
            IO completed in the epoch (governed / baseline).
        intensity: The front-end's diurnal load factor this epoch.
    """

    index: int
    budget_w: float
    allocated_w: float
    deficit_w: float
    measured_w: float
    baseline_w: float
    p99_s: float
    baseline_p99_s: float
    intensity: float


@dataclass(frozen=True)
class FleetResult:
    """Everything :func:`run_fleet` measured, plus the verdicts.

    Attributes:
        spec: The fleet that ran.
        epochs: Per-epoch budget/power/latency accounting.
        floors_w / ceilings_w: Actuator range per device slot.
        rollup: Per-device-class governed-phase rollup snapshot
            (:meth:`repro.obs.aggregate.SweepRollup.snapshot`).
        metrics: Fleet-wide mergeable metrics folded across epochs with
            :func:`repro.obs.aggregate.merge_snapshots` (counters plus
            a bucketed latency histogram; exact percentiles are
            per-epoch only -- see DESIGN.md section 15).
        validation: Physics invariants over every run plus the
            fleet-level budget invariants.
    """

    spec: FleetSpec
    epochs: tuple[FleetEpoch, ...]
    floors_w: tuple[float, ...]
    ceilings_w: tuple[float, ...]
    rollup: dict = field(repr=False)
    metrics: dict = field(repr=False)
    validation: ValidationReport = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.validation.ok

    @property
    def baseline_power_w(self) -> float:
        """Mean uncontrolled fleet draw across epochs."""
        return sum(e.baseline_w for e in self.epochs) / len(self.epochs)

    @property
    def governed_power_w(self) -> float:
        """Mean governed fleet draw across epochs."""
        return sum(e.measured_w for e in self.epochs) / len(self.epochs)

    @property
    def harvest_fraction(self) -> float:
        """Fleet power harvested vs. the uncontrolled baseline."""
        base = self.baseline_power_w
        if base <= 0:
            return 0.0
        return (base - self.governed_power_w) / base

    @property
    def dynamic_range_w(self) -> float:
        """Peak-to-trough swing of governed fleet power -- the dynamic
        range the governor actually drove across the simulated day."""
        measured = [e.measured_w for e in self.epochs]
        return max(measured) - min(measured)

    @property
    def p99_blowup(self) -> float:
        """Worst per-epoch governed/baseline p99 ratio (1.0 = free)."""
        worst = 1.0
        for e in self.epochs:
            if e.baseline_p99_s > 0:
                worst = max(worst, e.p99_s / e.baseline_p99_s)
        return worst

    def digest(self) -> str:
        """Hex digest of every number the headline result depends on.

        Byte-identical digests across two processes mean the two fleet
        runs agreed on every epoch's budget, allocation, measured power
        and tail latency -- the cross-process determinism contract.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(repr(self.spec).encode())
        for e in self.epochs:
            h.update(
                (
                    f"{e.index}:{e.budget_w!r}:{e.allocated_w!r}:"
                    f"{e.deficit_w!r}:{e.measured_w!r}:{e.baseline_w!r}:"
                    f"{e.p99_s!r}:{e.baseline_p99_s!r}"
                ).encode()
            )
        return h.hexdigest()

    def summary(self) -> dict:
        """Compact JSON-ready digest for the run ledger close-out."""
        return {
            "devices": len(self.spec.devices),
            "epochs": len(self.epochs),
            "baseline_power_w": self.baseline_power_w,
            "governed_power_w": self.governed_power_w,
            "harvest_fraction": self.harvest_fraction,
            "dynamic_range_w": self.dynamic_range_w,
            "p99_blowup": self.p99_blowup,
            "digest": self.digest(),
        }


def _policy_for(label: str, cap_w: float) -> PolicySpec:
    """The per-device actuation of one governor cap: a static controller
    pinned at the cap, on the device class's decision cadence (the one
    the policy tracking study uses)."""
    return PolicySpec(
        kind="static", budget=BudgetSchedule.constant(cap_w), **decision_cadence(label)
    )


def _epoch_p99(results: Sequence[ExperimentResult]) -> float:
    """Exact fleet-wide p99 over every IO the epoch completed."""
    latencies = IoRecords.concat(result.job.records for result in results).latency
    if not len(latencies):
        return 0.0
    return LatencyStats.from_latencies(latencies).p99


def _epoch_metrics(results: Sequence[ExperimentResult]) -> dict:
    """A mergeable metrics snapshot for one fleet epoch.

    Counters add and the latency histogram is bucketed, so epoch (and
    cross-shard) snapshots fold associatively through
    :func:`~repro.obs.aggregate.merge_snapshots` without fabricating
    percentiles -- the honest-aggregation contract from PR 7.
    """
    ios = 0
    nbytes = 0
    energy_j = 0.0
    histogram = BucketedHistogram()
    for result in results:
        job = result.job
        ios += len(job.records)
        nbytes += int(job.records.nbytes.sum())
        energy_j += result.true_mean_power_w * job.duration
        histogram.observe_many(job.records.latency)
    return {
        "fleet.ios": {"all": {"type": "counter", "value": ios}},
        "fleet.bytes": {"all": {"type": "counter", "value": nbytes}},
        "fleet.energy_mj": {
            "all": {"type": "counter", "value": round(energy_j * 1e3)}
        },
        "fleet.latency_s": {"all": histogram.snapshot()},
    }


def _fleet_violations(
    spec: FleetSpec,
    epoch: FleetEpoch,
    caps: Sequence[float],
    floors: Sequence[float],
    ceilings: Sequence[float],
) -> list[Violation]:
    """Fleet-level budget invariants for one governed epoch."""
    violations: list[Violation] = []
    subject = f"fleet@epoch{epoch.index}"
    feasible_total = epoch.budget_w if epoch.deficit_w == 0 else sum(floors)
    if epoch.allocated_w > feasible_total + 1e-6:
        violations.append(
            Violation(
                invariant="fleet_budget_partition",
                subject=subject,
                message=(
                    "allocator handed out more than the global budget: "
                    f"{epoch.allocated_w:.3f} W of {feasible_total:.3f} W"
                ),
                measured=epoch.allocated_w,
                expected=feasible_total,
            )
        )
    for i, cap in enumerate(caps):
        if not floors[i] - 1e-9 <= cap <= ceilings[i] + 1e-9:
            violations.append(
                Violation(
                    invariant="fleet_cap_bounds",
                    subject=f"{spec.devices[i]}[{i}]@epoch{epoch.index}",
                    message=(
                        f"cap {cap:.3f} W outside actuator range "
                        f"[{floors[i]:.3f}, {ceilings[i]:.3f}] W"
                    ),
                    measured=cap,
                    expected=ceilings[i],
                )
            )
    slack = max(_TRACKING_REL * epoch.baseline_w, _TRACKING_ABS_W)
    if epoch.measured_w > epoch.baseline_w + slack:
        violations.append(
            Violation(
                invariant="fleet_budget_tracking",
                subject=subject,
                message=(
                    f"governed fleet draw {epoch.measured_w:.3f} W exceeds "
                    f"the uncontrolled baseline {epoch.baseline_w:.3f} W "
                    f"beyond slack {slack:.3f} W (capping must never cost "
                    "power)"
                ),
                measured=epoch.measured_w,
                expected=epoch.baseline_w,
            )
        )
    return violations


def run_fleet(
    spec: FleetSpec,
    scale: StudyScale = DEFAULT,
    *,
    allocator: Optional[BudgetAllocator] = None,
    budget: Optional[BudgetSchedule] = None,
    n_workers: Optional[int] = 1,
    cache_dir=None,
    ledger=None,
    tolerances: Optional[Tolerances] = None,
) -> FleetResult:
    """Simulate the fleet: baseline phase, then the governed epochs.

    Args:
        spec: The fleet to simulate.
        scale: Stop rules per device class (``QUICK`` for CI scale).
        allocator: Any :class:`~repro.fleet.api.BudgetAllocator`;
            defaults to the online :class:`ClusterGovernor`.  The
            offline :class:`~repro.fleet.model.FleetModel` drops in
            unchanged -- that interchangeability is the point of the
            protocol.
        budget: Global budget schedule in absolute watts over one
            simulated day (t in [0, 1)); defaults to the spec's diurnal
            fraction-of-ceiling envelope.
        n_workers: Process-pool width for each batch (``None`` = all
            cores); results are order- and value-deterministic either
            way.
        cache_dir: Optional :class:`~repro.core.parallel.ResultCache`
            (or path) shared by both phases.
        ledger: Optional run ledger (path or
            :class:`~repro.core.ledger.RunLedger`): appends one point
            record per run, one ``fleet`` record per epoch, and a
            ``run`` close-out carrying the validation verdict and the
            fleet digest.
        tolerances: Validation tolerances (``None`` = library defaults).

    Raises:
        SweepExecutionError: If any underlying run fails outright
            (validation violations do *not* raise -- they are reported
            in ``result.validation`` and gate the CLI exit code).
    """
    if allocator is None:
        allocator = ClusterGovernor()
    if not isinstance(allocator, BudgetAllocator):
        raise TypeError(
            f"allocator {allocator!r} does not satisfy BudgetAllocator "
            "(needs an allocate(budget_w, views=None) method)"
        )
    schedule = budget if budget is not None else spec.budget_schedule()
    front = FrontEnd(
        n_devices=len(spec.devices),
        tenants=spec.tenants,
        skew=spec.skew,
        seed=spec.seed,
    )
    ranges = [device_power_range(label) for label in spec.devices]
    floors = tuple(r[0] for r in ranges)
    ceilings = tuple(r[1] for r in ranges)
    n = len(spec.devices)
    epochs = spec.epochs
    options = ExecutionOptions(
        n_workers=n_workers, cache_dir=cache_dir, ledger=ledger
    ).opened()

    def job(slot: int, epoch: int):
        return front.job_for(slot, epoch, epochs, scale, spec.devices[slot])

    # -- baseline phase: every (slot, epoch), one pool batch -------------
    baseline_configs = [
        ExperimentConfig(
            device=spec.devices[slot],
            job=job(slot, epoch),
            warmup_fraction=scale.warmup(spec.devices[slot]),
            seed=_seed_for(spec.seed, "baseline", slot, epoch),
        )
        for epoch in range(epochs)
        for slot in range(n)
    ]
    baseline_flat = results_or_raise(run_configs(baseline_configs, options))
    baseline: list[list[ExperimentResult]] = [
        list(baseline_flat[epoch * n : (epoch + 1) * n])
        for epoch in range(epochs)
    ]

    # -- governed phase: epoch by epoch, meters feeding the allocator ----
    epoch_records: list[FleetEpoch] = []
    epoch_caps: list[tuple[float, ...]] = []
    governed: list[list[ExperimentResult]] = []
    metrics: Optional[dict] = None
    previous: Optional[list[ExperimentResult]] = None
    for epoch in range(epochs):
        budget_w = schedule.watts_at((epoch + 0.5) / epochs)
        demands = front.demands(epoch, epochs)
        meters = previous if previous is not None else baseline[0]
        views = [
            DeviceView(
                label=spec.devices[i],
                floor_w=floors[i],
                ceiling_w=ceilings[i],
                measured_w=meters[i].true_mean_power_w,
                demand=demands[i],
            )
            for i in range(n)
        ]
        split = allocator.allocate(budget_w, views)
        caps = tuple(split.caps_w)
        if len(caps) != n:
            raise ValueError(
                f"allocator returned {len(caps)} caps for {n} devices"
            )
        configs = [
            ExperimentConfig(
                device=spec.devices[i],
                job=job(i, epoch),
                warmup_fraction=scale.warmup(spec.devices[i]),
                seed=_seed_for(spec.seed, "governed", i, epoch),
                policy=_policy_for(spec.devices[i], caps[i]),
            )
            for i in range(n)
        ]
        results = results_or_raise(run_configs(configs, options))
        record = FleetEpoch(
            index=epoch,
            budget_w=budget_w,
            allocated_w=sum(caps),
            deficit_w=getattr(split, "deficit_w", 0.0),
            measured_w=sum(r.true_mean_power_w for r in results),
            baseline_w=sum(
                r.true_mean_power_w for r in baseline[epoch]
            ),
            p99_s=_epoch_p99(results),
            baseline_p99_s=_epoch_p99(baseline[epoch]),
            intensity=front.intensity(epoch, epochs),
        )
        epoch_records.append(record)
        epoch_caps.append(caps)
        governed.append(results)
        snapshot = _epoch_metrics(results)
        metrics = (
            snapshot if metrics is None else merge_snapshots(metrics, snapshot)
        )
        previous = results
        if options.ledger is not None:
            options.ledger.append(
                {
                    "rec": "fleet",
                    "epoch": epoch,
                    "devices": n,
                    "budget_w": record.budget_w,
                    "allocated_w": record.allocated_w,
                    "deficit_w": record.deficit_w,
                    "measured_w": record.measured_w,
                    "baseline_w": record.baseline_w,
                    "p99_us": record.p99_s * 1e6,
                    "baseline_p99_us": record.baseline_p99_s * 1e6,
                    "intensity": record.intensity,
                }
            )

    # -- verdicts --------------------------------------------------------
    all_results = [r for epoch in baseline for r in epoch]
    all_results += [r for epoch in governed for r in epoch]
    violations: list[Violation] = []
    for result in all_results:
        violations.extend(check_result(result, tolerances))
    for epoch in range(epochs):
        violations.extend(
            _fleet_violations(
                spec, epoch_records[epoch], epoch_caps[epoch], floors, ceilings
            )
        )
    validation = ValidationReport(
        violations=tuple(violations),
        checked=len(all_results) + epochs,
        invariants=tuple(RESULT_INVARIANTS) + FLEET_INVARIANTS,
    )
    rollup = SweepRollup.from_results(
        [r for epoch in governed for r in epoch], group_by=("device",)
    ).snapshot()

    result = FleetResult(
        spec=spec,
        epochs=tuple(epoch_records),
        floors_w=floors,
        ceilings_w=ceilings,
        rollup=rollup,
        metrics=metrics or {},
        validation=validation,
    )
    options.close_run(
        "fleet",
        validation=validation,
        points=len(all_results),
        fleet=result.summary(),
    )
    return result
