"""The power rail: where component draws become a measurable signal.

Every simulated hardware component (controller, DRAM, each NAND die, link
PHY, spindle motor, voice coil...) owns a named channel on its device's
:class:`PowerRail` and updates that channel's draw in watts whenever its
activity changes.  The rail maintains the instantaneous total as a
:class:`~repro.sim.trace.StepTrace`, which is the ground-truth signal the
simulated measurement chain then observes through the shunt resistor.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.trace import StepTrace

__all__ = ["PowerRail"]


def _values_getter(keys: list[str]) -> Callable[[dict], tuple]:
    """``d -> tuple(d[k] for k in keys)``, as one C call where it can be
    (``itemgetter`` returns a bare value for one key and takes none)."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda d: tuple(map(d.__getitem__, keys))


class PowerRail:
    """Aggregates per-component power draw into one ground-truth trace.

    Attributes:
        voltage: Supply voltage in volts (12 V for SATA drive motors and
            PCIe slots, 5 V for 2.5" SATA SSDs).  The measurement chain uses
            it to convert the sensed current back to power.
        trace: Ground-truth instantaneous total power (W) over time.
    """

    def __init__(self, engine: Engine, voltage: float = 12.0, name: str = "rail") -> None:
        if voltage <= 0:
            raise ValueError(f"rail voltage must be positive, got {voltage!r}")
        self.engine = engine
        self.voltage = voltage
        self.name = name
        self._draws: dict[str, float] = {}
        self._total = 0.0
        #: Count of draw changes so far: a reader that caches a value
        #: derived from the draws recomputes it only when this moved.
        self.draw_changes = 0
        # Memoized prefix -> getter of the matching components' draws, in
        # insertion order (the order each first drew non-zero power).  The
        # component set only ever grows, so each getter stays valid until
        # a new component appears; the count stamp detects that cheaply.
        # Governor feedback reads prefix sums on every admission decision,
        # which made the naive scan a sweep hot spot.
        self._prefix_getters: dict[str, Callable[[dict], tuple]] = {}
        self._prefix_stamp = 0
        # Optional per-component shadow accounting (energy-conservation
        # validation).  None by default: the hot path pays one load +
        # None test, the same guard pattern as the null tracer.
        self._audit = None
        self.trace = StepTrace(t0=engine.now, initial=0.0)

    def attach_audit(self, audit) -> None:
        """Shadow every future draw update into ``audit``.

        ``audit`` is a :class:`repro.validate.audit.RailAudit`; it
        snapshots the current component draws on attachment and receives
        ``record(component, watts, t)`` for every subsequent change.
        Auditing is strictly passive -- it reads updates, never alters
        them -- so audited results are bit-identical to unaudited ones.
        """
        audit.attach(self)
        self._audit = audit

    @property
    def total_watts(self) -> float:
        """Current instantaneous total draw in watts."""
        return self._total

    def set_draw(self, component: str, watts: float) -> None:
        """Set ``component``'s instantaneous draw (absolute, not a delta)."""
        if watts < 0:
            if watts > -1e-9:
                # Float round-off from repeated add/subtract cycles.
                watts = 0.0
            else:
                raise ValueError(
                    f"{self.name}/{component}: negative power draw {watts!r} W"
                )
        draws = self._draws
        previous = draws.get(component, 0.0)
        if watts == previous:
            return
        draws[component] = watts
        self.draw_changes += 1
        total = self._total + (watts - previous)
        # Guard against float drift accumulating into tiny negatives.
        if -1e-9 < total < 0:
            total = 0.0
        self._total = total
        # Inlined StepTrace.set (same semantics): the trace append runs on
        # every draw change, which is several times per simulated IO.
        trace = self.trace
        times = trace._times
        values = trace._values
        t = self.engine._now
        last_t = times[-1]
        if t < last_t:
            raise ValueError(
                f"StepTrace.set at t={t!r} before last breakpoint {last_t!r}"
            )
        if t == last_t:
            values[-1] = total
        elif total != values[-1]:
            times.append(t)
            values.append(total)
        audit = self._audit
        if audit is not None:
            audit.record(component, watts, t)

    def add_draw(self, component: str, delta_watts: float) -> None:
        """Adjust ``component``'s draw by a delta (e.g. one more die busy).

        Same semantics as ``set_draw(component, current + delta)`` with the
        body inlined: die busy/idle brackets call this twice per NAND op.
        """
        draws = self._draws
        previous = draws.get(component, 0.0)
        watts = previous + delta_watts
        if watts < 0:
            if watts > -1e-9:
                watts = 0.0
            else:
                raise ValueError(
                    f"{self.name}/{component}: negative power draw {watts!r} W"
                )
        if watts == previous:
            return
        draws[component] = watts
        self.draw_changes += 1
        total = self._total + (watts - previous)
        if -1e-9 < total < 0:
            total = 0.0
        self._total = total
        trace = self.trace
        times = trace._times
        values = trace._values
        t = self.engine._now
        last_t = times[-1]
        if t < last_t:
            raise ValueError(
                f"StepTrace.set at t={t!r} before last breakpoint {last_t!r}"
            )
        if t == last_t:
            values[-1] = total
        elif total != values[-1]:
            times.append(t)
            values.append(total)
        audit = self._audit
        if audit is not None:
            audit.record(component, watts, t)

    def draw_of(self, component: str) -> float:
        """Current draw registered for ``component`` (0 if never set)."""
        return self._draws.get(component, 0.0)

    def components(self) -> dict[str, float]:
        """Snapshot of all component draws (copy)."""
        return dict(self._draws)

    def draw_of_prefix(self, prefix: str) -> float:
        """Total draw of all components whose name starts with ``prefix``.

        Used by feedback power governors to separate, e.g., total NAND
        draw (components ``die0`` .. ``dieN``) from the rest of the device.
        """
        draws = self._draws
        if len(draws) != self._prefix_stamp:
            self._prefix_getters.clear()
            self._prefix_stamp = len(draws)
        getter = self._prefix_getters.get(prefix)
        if getter is None:
            # Insertion order, exactly like scanning draws.items(): the
            # cached path must sum the same floats in the same order so
            # results stay bit-identical to the naive scan.
            members = [name for name in draws if name.startswith(prefix)]
            getter = self._prefix_getters[prefix] = _values_getter(members)
        # One C call gathers the draws; sum() then makes the same
        # left-to-right float additions as the naive scan.
        return sum(getter(draws))

    def mean_power(self, t_start: Optional[float] = None, t_end: Optional[float] = None) -> float:
        """Ground-truth time-weighted mean power over a window.

        Defaults to the whole recorded span up to "now".  This is the value
        measurement-chain accuracy is judged against.
        """
        t0 = self.trace.start_time if t_start is None else t_start
        t1 = self.engine.now if t_end is None else t_end
        if t1 <= t0:
            return self.trace.last_value
        return self.trace.mean(t0, t1)
