"""Fastpath configuration and accounting records.

Everything here is a small frozen dataclass so fastpath settings ride on
:class:`~repro.core.experiment.ExperimentConfig` exactly like fault plans
and policies do: pickled to pool workers unchanged, folded into result
cache keys by content, and carrying no imports from the simulation
layers (the fastpath package itself stays unloaded until a config
actually enables it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FastpathOptions", "FastpathSummary", "SpliceRecord"]

_MODES = ("splice",)


@dataclass(frozen=True)
class FastpathOptions:
    """How aggressively to trade exactness for speed.

    Attributes:
        mode: ``"splice"``, the only mode: run the event kernel with
            analytic fast-forward over detected steady windows, or exact
            stepping when the eligibility gate declines.  Runs that need
            exact records leave the fastpath off instead.
        window_records: Completions per observation window.  Larger
            windows make the stationarity test stricter (means computed
            over more samples) but delay the first possible splice.
        min_windows: Smallest number of whole windows worth skipping
            for a splice to engage -- below this the bookkeeping costs
            more than the events it saves.
        margin_windows: Exact-simulation margin left before every
            behavior-change horizon (job deadline, size limit), in
            windows.  The run always finishes under the event kernel so
            boundary behavior (final partial queue drain, deadline
            crossing) is simulated, not extrapolated.
        rate_rtol: Maximum relative disagreement in completion rate
            between consecutive windows for them to count as stationary.
        power_rtol: Same, for mean rail power over the windows.
        latency_rtol: Same, for mean completion latency.
        max_splices: Hard cap on splices per run (defensive bound; a
            steady run needs exactly one).
    """

    mode: str = "splice"
    window_records: int = 96
    min_windows: int = 8
    margin_windows: int = 2
    rate_rtol: float = 0.02
    power_rtol: float = 0.02
    latency_rtol: float = 0.10
    max_splices: int = 4

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"fastpath mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.window_records < 8:
            raise ValueError("window_records must be >= 8")
        if self.min_windows < 1:
            raise ValueError("min_windows must be >= 1")
        if self.margin_windows < 1:
            raise ValueError("margin_windows must be >= 1")
        for name in ("rate_rtol", "power_rtol", "latency_rtol"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        if self.max_splices < 1:
            raise ValueError("max_splices must be >= 1")


@dataclass(frozen=True)
class SpliceRecord:
    """Accounting for one analytic fast-forward.

    The exactness contract the ``fastpath_equivalence`` invariant checks
    lives here: the splice *must* have added exactly ``n_windows`` copies
    of the observed window -- ``records_added == n_windows *
    records_per_window`` and ``energy_added_j == n_windows *
    energy_per_window_j`` (up to float summation) -- and advanced time by
    exactly ``n_windows * window_s``.

    Attributes:
        t_from: Simulated time the splice engaged.
        t_to: Simulated time exact stepping resumed.
        window_s: Span of the replicated observation window.
        n_windows: Whole windows skipped.
        records_per_window: Completed IOs in the template window.
        records_added: IO records synthesized by replication.
        energy_per_window_j: Rail energy of the template window.
        energy_added_j: Rail energy of the replicated span.
        events_skipped: Kernel events the window would have cost,
            scaled by ``n_windows`` (measured, not estimated: the
            detector counts the template window's events).
    """

    t_from: float
    t_to: float
    window_s: float
    n_windows: int
    records_per_window: int
    records_added: int
    energy_per_window_j: float
    energy_added_j: float
    events_skipped: int


@dataclass(frozen=True)
class FastpathSummary:
    """What the fastpath actually did for one experiment.

    Attributes:
        engaged: Whether any fast-forward happened.
        mode: The mode that ran (``"splice"``, or ``"exact"`` when the
            eligibility gate declined).
        reason: Why the gate declined (empty when engaged).
        splices: Per-splice accounting.
        events_fast_forwarded: Kernel events skipped analytically; the
            benchmark's "effective events/sec" adds these to
            ``engine.events_processed``.
        time_fast_forwarded_s: Simulated seconds skipped analytically.
    """

    engaged: bool
    mode: str
    reason: str = ""
    splices: tuple[SpliceRecord, ...] = field(default_factory=tuple)
    events_fast_forwarded: int = 0
    time_fast_forwarded_s: float = 0.0

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        if not self.engaged:
            return f"declined ({self.reason}); ran exact"
        return (
            f"splice: {len(self.splices)} splice(s), "
            f"{self.time_fast_forwarded_s * 1e3:.1f} ms and "
            f"{self.events_fast_forwarded} events fast-forwarded"
        )
