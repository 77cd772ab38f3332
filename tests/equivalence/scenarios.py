"""Scenario generation and comparison for the fastpath differential harness.

A :class:`Scenario` is a flat bag of knobs -- device, workload shape,
seed, optional fault plan or policy -- from which both sides of one
differential pair are built: the exact run (``fastpath=None``) and the
accelerated run (identical config plus ``FastpathOptions``).
:func:`run_pair` executes both; :func:`compare` applies the declared
tolerances from :mod:`tests.equivalence.tolerances` according to what the
fastpath actually did (declined -> bit identity, splice -> statistical
bounds) and returns human-readable divergences.

Knobs are deliberately flat scalars so :mod:`tests.equivalence.shrink`
can delta-debug a diverging scenario toward :data:`BASELINE` one knob at
a time.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.iogen.spec import IoPattern, JobSpec
from repro.sim.fastpath import FastpathOptions

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from golden_result import flatten  # noqa: E402

from tests.equivalence import tolerances as tol  # noqa: E402

__all__ = [
    "BASELINE",
    "DECLINE_DEVICES",
    "ENGAGE_DEVICES",
    "Scenario",
    "changed_knobs",
    "compare",
    "decline_scenarios",
    "engage_scenarios",
    "run_pair",
]

#: Devices whose read path is fastpath-eligible (no program-intensity
#: wave, no rail audit): the gate engages here.
ENGAGE_DEVICES = ("ssd3", "860evo", "pm1743")

#: Devices that always decline (their power wave draws per-toggle RNG
#: during reads, which the splice cannot replay).
DECLINE_DEVICES = ("ssd1", "ssd2")

_PATTERNS = {p.value: p for p in IoPattern}


@dataclass(frozen=True)
class Scenario:
    """One differential test case, as flat shrinkable knobs."""

    device: str = "ssd3"
    pattern: str = "randread"
    block_kib: int = 64
    iodepth: int = 8
    runtime_ms: int = 4
    seed: int = 7
    power_state: Optional[int] = None
    faults: Optional[str] = None
    policy: bool = False

    def describe(self) -> str:
        return " ".join(
            f"{name}={getattr(self, name)!r}"
            for name in changed_knobs(self) or ("device",)
        )


#: The all-defaults scenario every shrink converges toward: an eligible
#: random-read job the fastpath gate accepts.
BASELINE = Scenario()


def changed_knobs(scenario: Scenario) -> tuple:
    """The knob names on which ``scenario`` differs from :data:`BASELINE`."""
    return tuple(
        f.name
        for f in dataclasses.fields(Scenario)
        if getattr(scenario, f.name) != getattr(BASELINE, f.name)
    )


def _configs(scenario: Scenario) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The (exact, fastpath) config pair for one scenario."""
    plan = None
    if scenario.faults is not None:
        from repro.faults import parse_fault_plan

        plan = parse_fault_plan(scenario.faults)
    policy = None
    if scenario.policy:
        from repro.policy import BudgetSchedule, PolicySpec

        policy = PolicySpec(
            kind="feedback",
            budget=BudgetSchedule.constant(8.0),
            interval_s=1e-3,
            window_s=2e-3,
        )
    exact = ExperimentConfig(
        device=scenario.device,
        job=JobSpec(
            pattern=_PATTERNS[scenario.pattern],
            block_size=scenario.block_kib * KiB,
            iodepth=scenario.iodepth,
            runtime_s=scenario.runtime_ms * 1e-3,
            size_limit_bytes=256 * MiB,
        ),
        power_state=scenario.power_state,
        seed=scenario.seed,
        faults=plan,
        policy=policy,
    )
    fast = dataclasses.replace(exact, fastpath=FastpathOptions())
    return exact, fast


def run_pair(scenario: Scenario) -> tuple[ExperimentResult, ExperimentResult]:
    """Run the exact and fastpath sides of one scenario."""
    exact_config, fast_config = _configs(scenario)
    return run_experiment(exact_config), run_experiment(fast_config)


def _strip(result: ExperimentResult) -> object:
    """Flatten a result with the fastpath bookkeeping removed.

    The accelerated run necessarily differs in its ``config.fastpath``
    and ``result.fastpath`` fields; bit-identity is claimed for (and
    checked over) everything else.
    """
    return flatten(
        dataclasses.replace(
            result,
            config=dataclasses.replace(result.config, fastpath=None),
            fastpath=None,
        )
    )


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _metric_rows(exact, fast):
    """(name, exact value, fast value, allowed rtol) per compared metric."""
    rows = [
        (
            "true_mean_power_w",
            exact.true_mean_power_w,
            fast.true_mean_power_w,
            tol.SPLICE_MEAN_POWER_RTOL,
        ),
        (
            "throughput_bps",
            exact.throughput_bps,
            fast.throughput_bps,
            tol.SPLICE_THROUGHPUT_RTOL,
        ),
    ]
    if exact.job.records and fast.job.records:
        lat_exact, lat_fast = exact.latency(), fast.latency()
        rows.append(
            (
                "p50_latency_s",
                lat_exact.p50,
                lat_fast.p50,
                tol.SPLICE_P50_LATENCY_RTOL,
            )
        )
        rows.append(
            (
                "p99_latency_s",
                lat_exact.p99,
                lat_fast.p99,
                tol.SPLICE_P99_LATENCY_RTOL,
            )
        )
    return rows


def compare(exact: ExperimentResult, fast: ExperimentResult) -> list[str]:
    """Divergences between one differential pair, [] when equivalent.

    The contract applied depends on what the fastpath reports it did:
    a declined (or never-configured) fastpath must be bit-identical to
    the exact run; an engaged splice is held to its statistical bounds.
    Every tolerance is a named constant from
    :mod:`tests.equivalence.tolerances`.
    """
    summary = fast.fastpath
    divergences: list[str] = []
    if summary is None or not summary.engaged:
        reason = "no fastpath summary" if summary is None else summary.reason
        if _strip(exact) != _strip(fast):
            divergences.append(
                f"declined fastpath ({reason}) is not bit-identical to the "
                "exact run"
            )
        return divergences

    n_exact, n_fast = len(exact.job.records), len(fast.job.records)
    if n_exact and _rel(n_exact, n_fast) > tol.SPLICE_IO_COUNT_RTOL:
        divergences.append(
            f"io_count: exact={n_exact} splice={n_fast} "
            f"(rel {_rel(n_exact, n_fast):.4f} > "
            f"{tol.SPLICE_IO_COUNT_RTOL})"
        )
    for name, a, b, rtol in _metric_rows(exact, fast):
        if _rel(a, b) > rtol:
            divergences.append(
                f"{name}: exact={a:.6g} {summary.mode}={b:.6g} "
                f"(rel {_rel(a, b):.4g} > {rtol})"
            )
    return divergences


# -- hypothesis strategies ----------------------------------------------


def engage_scenarios() -> st.SearchStrategy[Scenario]:
    """Scenarios inside the fastpath's engagement domain.

    Read-only jobs on wave-free devices; the gate may still decline
    (e.g. splice finding no stationary window), which :func:`compare`
    then holds to bit identity -- also a correctness claim worth
    fuzzing.
    """

    def build(device: str) -> st.SearchStrategy[Scenario]:
        power_states = (
            st.sampled_from((None, 0, 1, 2))
            if device == "pm1743"
            else st.none()
        )
        return st.builds(
            Scenario,
            device=st.just(device),
            pattern=st.sampled_from(("read", "randread")),
            block_kib=st.sampled_from((4, 16, 64, 128)),
            iodepth=st.sampled_from((1, 2, 4, 8, 16)),
            runtime_ms=st.sampled_from((2, 3, 4, 5)),
            seed=st.integers(min_value=0, max_value=2**20),
            power_state=power_states,
        )

    return st.sampled_from(ENGAGE_DEVICES).flatmap(build)


def decline_scenarios() -> st.SearchStrategy[Scenario]:
    """Scenarios the eligibility gate must refuse, each for one cause.

    Covers every decline clause: wavy devices, mutating (write)
    workloads, fault plans, and online policies.  The contract here is
    the strongest one -- bit identity with the exact run.
    """
    wave_device = st.builds(
        Scenario,
        device=st.sampled_from(DECLINE_DEVICES),
        pattern=st.sampled_from(("read", "randread")),
        iodepth=st.sampled_from((2, 8)),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    writes = st.builds(
        Scenario,
        device=st.sampled_from(ENGAGE_DEVICES),
        pattern=st.sampled_from(("write", "randwrite")),
        iodepth=st.sampled_from((2, 8)),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    faulted = st.builds(
        Scenario,
        faults=st.sampled_from(
            (
                "governor:at=0.002",
                "io_error:p=0.05",
                "spike:at=0.001,dur=0.002,extra=2e-4",
            )
        ),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    policied = st.builds(
        Scenario,
        policy=st.just(True),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    return st.one_of(wave_device, writes, faulted, policied)
