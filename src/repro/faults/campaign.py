"""Chaos campaigns: sweep the fault-plan space against every controller.

The campaign answers the tentpole question -- *how much dynamic range do
our controllers harvest when their senses and actuators lie, and does
the watchdog keep them budget-safe?* -- by brute, deterministic
enumeration:

1. One clean baseline run per device (no policy) anchors the budget
   schedules (via :func:`repro.studies.policy_tracking.spec_for`) and
   the fault-window placement: every window in the plan vocabulary is a
   fraction of the *measured* baseline duration, because short runs end
   when their bytes run out, not at the nominal runtime.
2. One clean *reference* policy run per (device, controller) scores the
   un-attacked harvest and p99.
3. Every (plan, device, controller) cell runs through the resilient
   executor with the same spec plus the fault plan, then through
   :func:`repro.validate.checkers.check_result` -- including the
   ``budget_safety_under_faults`` / ``watchdog_liveness`` /
   ``safe_mode_entry`` invariants.
4. Any violating cell's plan is **shrunk** to a minimal reproducer by
   greedy delta-debugging over its grammar clauses: drop one clause at
   a time, re-run the cell in-process, keep the removal if the
   violation survives, repeat until no single removal does.  The
   minimized plan is round-tripped through
   :func:`repro.faults.spec.render_fault_plan` so it pastes straight
   back into ``--faults``.

Determinism: cell enumeration is pure, sampling under ``budget_cells``
draws one permutation from the keyed ``faults.campaign`` stream, and
every run inherits the experiment seed -- the whole campaign is
bit-reproducible across processes and ``PYTHONHASHSEED`` values.

This module is imported only by the ``repro chaos`` CLI and
:mod:`repro.studies.chaos_resilience` -- never by ``repro.faults``
itself, so fault-injecting runs that don't campaign pay nothing for it
(held by the chaos row of ``benchmarks/zero_cost.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.experiment import run_experiment
from repro.core.options import ExecutionOptions
from repro.core.parallel import results_or_raise, run_configs
from repro.faults.spec import parse_fault_plan, render_fault_plan
from repro.iogen.spec import IoPattern
from repro.policy import POLICY_KINDS, PolicySpec, WatchdogSpec
from repro.sim.rng import RngStreams
from repro.studies.common import DEFAULT, StudyScale, point_config
from repro.studies.policy_tracking import spec_for
from repro.validate.checkers import RESULT_INVARIANTS, check_result
from repro.validate.report import ValidationReport
from repro._units import KiB

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "CellOutcome",
    "CONTROLLER_FAMILIES",
    "plan_vocabulary",
    "run_campaign",
    "shrink_plan",
]

#: The shipped controller families every campaign covers.
CONTROLLER_FAMILIES = POLICY_KINDS

#: The deliberately-broken fixture ``--controllers all`` adds on top.
UNSAFE_FAMILY = "unsafe"

_PATTERN = IoPattern.RANDWRITE
_BLOCK_SIZE = 256 * KiB
_IODEPTH = 8


def plan_vocabulary(
    interval_s: float, horizon_s: float
) -> tuple[tuple[str, str], ...]:
    """The named fault plans one campaign enumerates.

    Windows and lags scale with the controller's decision ``interval_s``
    and the device's measured run ``horizon_s`` so every plan actually
    bites within the run.  Values are plain float arithmetic on those
    two inputs: the vocabulary is a pure function, and its spec strings
    render identically on every platform.
    """
    third = horizon_s / 3.0
    window = max(8.0 * interval_s, horizon_s / 6.0)
    vocabulary = [
        # Ordered worst-first: the coverage-first sampler keeps the
        # head of this list, and bias-low is the plan that provably
        # breaks an unclamped controller (it reads phantom headroom).
        ("bias-low", "sensor:bias=-1.5"),
        ("gain-low", "sensor:gain=0.6"),
        ("quantized", "sensor:quant=0.5"),
        ("laggy", f"sensor:lag={4.0 * interval_s!r}"),
        ("dropout", f"sensor:drop_at={third!r},drop_dur={window!r}"),
        ("freeze", f"sensor:freeze_at={third!r},freeze_dur={window!r}"),
        ("cmd-drop", "actuator:drop=0.5"),
        ("cmd-delay", f"actuator:delay={2.0 * interval_s!r}"),
        ("cmd-partial", "actuator:partial=0.4"),
        ("cmd-stuck", f"actuator:stuck_at={third!r}"),
        ("governor-dead", f"governor:at={third!r}"),
        (
            "bias-low+cmd-drop",
            "sensor:bias=-1.5;actuator:drop=0.5",
        ),
        (
            "dropout+cmd-delay",
            f"sensor:drop_at={third!r},drop_dur={window!r};"
            f"actuator:delay={2.0 * interval_s!r}",
        ),
    ]
    return tuple(vocabulary)


@dataclass(frozen=True)
class CampaignCell:
    """One (fault plan, device, controller) grid point."""

    device: str
    controller: str
    plan_name: str
    plan_spec: str


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell, scored against its clean reference run.

    Attributes:
        cell: The grid point that ran.
        harvest_retained: Fraction of the clean run's harvested power
            the faulted run still harvested (1.0 = faults cost nothing,
            values above 1.0 mean the faults accidentally saved power).
        p99_blowup: Faulted p99 latency over clean p99.
        degraded_fraction: Decision ticks spent in watchdog safe mode.
        watchdog_trips: Safe-mode entries during the faulted run.
        violations: Invariant names that fired on the faulted run.
        reproducer: Minimal violating ``--faults`` spec (shrunk and
            round-tripped through the grammar), or ``None`` if the cell
            passed validation.
    """

    cell: CampaignCell
    harvest_retained: float
    p99_blowup: float
    degraded_fraction: float
    watchdog_trips: int
    violations: tuple[str, ...]
    reproducer: Optional[str]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CampaignResult:
    """Every cell outcome plus campaign-level accounting."""

    outcomes: tuple[CellOutcome, ...]
    checked: int
    seed: int
    watchdog_armed: bool
    validation: ValidationReport

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def reproducers(self) -> tuple[tuple[CampaignCell, str], ...]:
        return tuple(
            (o.cell, o.reproducer)
            for o in self.outcomes
            if o.reproducer is not None
        )

    def ranking(self) -> tuple[tuple[str, float, float, int], ...]:
        """Controllers ranked best-first by resilience.

        Returns ``(controller, mean_harvest_retained, max_p99_blowup,
        violation_count)`` rows, sorted by fewest violations, then
        highest retained harvest.
        """
        controllers: list[str] = []
        for outcome in self.outcomes:
            if outcome.cell.controller not in controllers:
                controllers.append(outcome.cell.controller)
        rows = []
        for controller in controllers:
            cells = [
                o for o in self.outcomes if o.cell.controller == controller
            ]
            mean_retained = sum(o.harvest_retained for o in cells) / len(
                cells
            )
            max_blowup = max(o.p99_blowup for o in cells)
            violation_count = sum(len(o.violations) for o in cells)
            rows.append(
                (controller, mean_retained, max_blowup, violation_count)
            )
        rows.sort(key=lambda row: (row[3], -row[1], row[2], row[0]))
        return tuple(rows)

    def summary_dict(self) -> dict:
        """JSON-ready digest (ledger record + bit-repro comparisons)."""
        return {
            "cells": len(self.outcomes),
            "seed": self.seed,
            "watchdog": self.watchdog_armed,
            "violations": sum(len(o.violations) for o in self.outcomes),
            "controllers": {
                controller: {
                    "harvest_retained": retained,
                    "max_p99_blowup": blowup,
                    "violations": count,
                }
                for controller, retained, blowup, count in self.ranking()
            },
            "reproducers": [
                {
                    "device": cell.device,
                    "controller": cell.controller,
                    "plan": cell.plan_name,
                    "faults": spec,
                }
                for cell, spec in self.reproducers
            ],
        }


def _sample_cells(
    cells: list[CampaignCell], budget_cells: Optional[int], seed: int
) -> list[CampaignCell]:
    """Deterministic coverage-first sampling down to ``budget_cells``.

    The first cell of every (device, controller) pair -- which carries
    the vocabulary's head plan, the adversarial ``bias-low`` sensor --
    is always kept, so every controller faces at least one lying-meter
    plan whenever the budget allows one cell per pair.  The remaining
    budget is filled from a ``faults.campaign``-keyed permutation of
    the rest, re-sorted into enumeration order for stable output.
    """
    if budget_cells is None or budget_cells >= len(cells):
        return cells
    seen_pairs: set[tuple[str, str]] = set()
    head_indices: list[int] = []
    for i, cell in enumerate(cells):
        pair = (cell.device, cell.controller)
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            head_indices.append(i)
    head = head_indices[:budget_cells]
    remaining = budget_cells - len(head)
    chosen = set(head)
    if remaining > 0:
        rest = [i for i in range(len(cells)) if i not in chosen]
        stream = RngStreams(seed).get("faults.campaign")
        order = [rest[int(k)] for k in stream.permutation(len(rest))]
        chosen.update(order[:remaining])
    return [cells[i] for i in sorted(chosen)]


def shrink_plan(plan_spec: str, is_violating) -> str:
    """Greedy delta-debugging over grammar clauses.

    Repeatedly tries dropping one ``;``-clause at a time, keeping any
    removal under which ``is_violating(candidate_spec)`` still returns
    True, until no single-clause removal preserves the violation.  The
    result is 1-minimal (removing any one remaining clause loses the
    violation) and is returned in canonical form via the
    parse/render round trip, so it is guaranteed to re-parse.
    """
    clauses = [c for c in plan_spec.split(";") if c.strip()]
    shrunk = True
    while shrunk and len(clauses) > 1:
        shrunk = False
        for i in range(len(clauses)):
            candidate = clauses[:i] + clauses[i + 1 :]
            if is_violating(";".join(candidate)):
                clauses = candidate
                shrunk = True
                break
    return render_fault_plan(parse_fault_plan(";".join(clauses)))


def _spec_with_seams(
    device: str,
    controller: str,
    baseline_mean_w: float,
    scale: StudyScale,
    watchdog: bool,
) -> PolicySpec:
    spec = spec_for(device, controller, baseline_mean_w, scale)
    return replace(
        spec,
        sense="meter",
        watchdog=(
            WatchdogSpec(stale_after_s=3.0 * spec.interval_s)
            if watchdog
            else None
        ),
    )


def run_campaign(
    scale: StudyScale = DEFAULT,
    devices: tuple[str, ...] = ("ssd2",),
    controllers: Optional[tuple[str, ...]] = None,
    budget_cells: Optional[int] = None,
    watchdog: bool = True,
    seed: int = 0,
    n_workers: int | None = 1,
    cache_dir=None,
    ledger=None,
) -> CampaignResult:
    """Run one chaos campaign.

    Args:
        scale: Study scale for every run in the grid.
        devices: Catalog devices to attack.
        controllers: Controller kinds; ``None`` means the shipped
            families plus the ``unsafe`` fixture (the ``--controllers
            all`` grid).
        budget_cells: Optional cap on executed fault cells
            (coverage-first deterministic sampling; ``None`` = the full
            grid).
        watchdog: Arm the safe-mode watchdog on every policy run.
        seed: Experiment seed; also keys the sampling stream.
        n_workers: Executor parallelism for the grid batches.
        cache_dir: Optional result cache (path or ``ResultCache``).
        ledger: Optional run ledger (path or ``RunLedger``); receives
            per-point records plus one ``chaos`` summary record.
    """
    if controllers is None:
        controllers = CONTROLLER_FAMILIES + (UNSAFE_FAMILY,)
    options = ExecutionOptions(
        n_workers=n_workers, cache_dir=cache_dir, ledger=ledger
    ).opened()

    # Phase 1: clean baselines anchor budgets and fault windows.
    baseline_configs = [
        point_config(
            device, _PATTERN, _BLOCK_SIZE, _IODEPTH, scale=scale, seed=seed
        )
        for device in devices
    ]
    baselines = dict(
        zip(devices, results_or_raise(run_configs(baseline_configs, options)))
    )

    specs = {
        (device, controller): _spec_with_seams(
            device,
            controller,
            baselines[device].true_mean_power_w,
            scale,
            watchdog,
        )
        for device in devices
        for controller in controllers
    }

    # Phase 2: clean reference policy runs score the un-attacked grid.
    pairs = [(d, c) for d in devices for c in controllers]
    reference_configs = [
        replace(baselines[d].config, policy=specs[(d, c)]) for d, c in pairs
    ]
    references = dict(
        zip(pairs, results_or_raise(run_configs(reference_configs, options)))
    )

    # Phase 3: enumerate, sample, and run the fault grid.
    vocabularies = {
        device: plan_vocabulary(
            specs[(device, controllers[0])].interval_s,
            baselines[device].job.end_time,
        )
        for device in devices
    }
    cells: list[CampaignCell] = []
    for plan_index in range(max(len(v) for v in vocabularies.values())):
        for device in devices:
            vocabulary = vocabularies[device]
            if plan_index >= len(vocabulary):
                continue
            name, spec_str = vocabulary[plan_index]
            for controller in controllers:
                cells.append(
                    CampaignCell(device, controller, name, spec_str)
                )
    cells = _sample_cells(cells, budget_cells, seed)
    cell_configs = [
        replace(
            baselines[cell.device].config,
            policy=specs[(cell.device, cell.controller)],
            faults=parse_fault_plan(cell.plan_spec),
        )
        for cell in cells
    ]
    outcomes = results_or_raise(run_configs(cell_configs, options))

    # Phase 4: validate every faulted run, shrink every violator.
    def harvest(device: str, result) -> float:
        base = baselines[device].true_mean_power_w
        if base <= 0:
            return 0.0
        return (base - result.true_mean_power_w) / base

    all_violations = []
    cell_outcomes: list[CellOutcome] = []
    for cell, config, result in zip(cells, cell_configs, outcomes):
        violations = check_result(result)
        all_violations.extend(violations)
        reference = references[(cell.device, cell.controller)]
        clean_harvest = harvest(cell.device, reference)
        faulted_harvest = harvest(cell.device, result)
        clean_p99 = reference.latency().p99
        reproducer = None
        if violations:

            def is_violating(candidate_spec: str) -> bool:
                candidate = replace(
                    config, faults=parse_fault_plan(candidate_spec)
                )
                return bool(check_result(run_experiment(candidate)))

            reproducer = shrink_plan(cell.plan_spec, is_violating)
        policy = result.policy
        cell_outcomes.append(
            CellOutcome(
                cell=cell,
                harvest_retained=(
                    faulted_harvest / clean_harvest
                    if clean_harvest > 1e-9
                    else 1.0
                ),
                p99_blowup=(
                    result.latency().p99 / clean_p99
                    if clean_p99 > 0
                    else 1.0
                ),
                degraded_fraction=getattr(policy, "degraded_fraction", 0.0),
                watchdog_trips=getattr(policy, "watchdog_trips", 0),
                violations=tuple(v.invariant for v in violations),
                reproducer=reproducer,
            )
        )

    validation = ValidationReport(
        violations=tuple(all_violations),
        checked=len(cells),
        invariants=RESULT_INVARIANTS,
    )
    result = CampaignResult(
        outcomes=tuple(cell_outcomes),
        checked=len(cells),
        seed=seed,
        watchdog_armed=watchdog,
        validation=validation,
    )
    options.close_run(
        "chaos",
        validation=validation,
        points=len(cells),
        chaos=result.summary_dict(),
    )
    return result
