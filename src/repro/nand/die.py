"""NAND die state machines and the assembled flash array.

A :class:`NandDie` executes one operation at a time (plane-level parallelism
is folded into the per-die service time).  While an operation is in flight
the die draws its op-specific power on the device rail -- the sum of these
per-die draws is the NAND component of the device's measurable power.

:class:`NandArray` assembles ``geometry.total_dies`` dies and one
:class:`~repro.nand.onfi.ChannelBus` per channel, and provides
:meth:`NandArray.execute`, the single entry point the FTL/device layer uses
to run a physical-page operation with correct die/bus interleaving:

- PROGRAM: data crosses the bus first, then the die is busy for tPROG.
- READ: the die senses for tR, then data crosses the bus.
- ERASE: die-only, no data transfer.
"""

from __future__ import annotations

from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.onfi import ChannelBus
from repro.nand.ops import NandPower, NandTimings, OpKind
from repro.power.rail import PowerRail
from repro.sim.engine import Engine
from repro.sim.resources import Resource

__all__ = ["NandArray", "NandDie"]


class NandDie:
    """One flash die: a single-server queue with op-dependent service.

    Program operations optionally draw their power as a *pulse profile*:
    the charge-pump phase of a program draws ``pulse_ratio`` times the
    average for ``pulse_fraction`` of the duration, with the remainder
    scaled down so per-op energy is unchanged.  Pulses from concurrently
    programming dies beat against each other, producing the millisecond-
    scale power variability the paper's 1 kHz sampling reveals (Fig. 2).
    """

    def __init__(
        self,
        engine: Engine,
        rail: PowerRail,
        die_index: int,
        timings: NandTimings,
        power: NandPower,
        pulse_ratio: float = 1.0,
        pulse_fraction: float = 0.3,
        rng=None,
    ) -> None:
        if pulse_ratio < 1.0:
            raise ValueError("pulse_ratio must be >= 1")
        if not 0 < pulse_fraction < 1:
            raise ValueError("pulse_fraction must be in (0, 1)")
        if pulse_ratio > 1.0 / pulse_fraction:
            raise ValueError(
                "pulse_ratio * pulse_fraction > 1 would need negative "
                "off-pulse power to conserve energy"
            )
        self.engine = engine
        self.rail = rail
        self.index = die_index
        self.timings = timings
        self.power = power
        self.pulse_ratio = pulse_ratio
        self.pulse_fraction = pulse_fraction
        self._rng = rng
        self._server = Resource(engine, capacity=1, name=f"die{die_index}")
        self._component = f"die{die_index}"
        # Timings/power are frozen per run; table lookups replace the
        # per-op if-chains in the hot path.
        self._op_draw = {kind: power.draw(kind) for kind in OpKind}
        self._op_duration = {kind: timings.duration(kind) for kind in OpKind}
        self._pulsed_programs = pulse_ratio > 1.0 and rng is not None
        # The pulse profile's shape is fixed per die -- only the pulse
        # placement is random.  Precompute the three phase powers and the
        # placement span with the exact arithmetic run_op used inline, so
        # the values are bit-identical.
        duration = self._op_duration[OpKind.PROGRAM]
        draw = self._op_draw[OpKind.PROGRAM]
        self._prog_t_pulse = pulse_fraction * duration
        self._prog_p_pulse = pulse_ratio * draw
        self._prog_span = duration - self._prog_t_pulse
        self._prog_p_rest = (
            draw * duration - self._prog_p_pulse * self._prog_t_pulse
        ) / (duration - self._prog_t_pulse)
        # Completed operations, one int per kind (see op_counts).
        self.reads = self.programs = self.erases = 0
        if power.p_idle:
            rail.set_draw(self._component, power.p_idle)

    @property
    def op_counts(self) -> dict[OpKind, int]:
        """Completed operations by kind."""
        return {
            OpKind.READ: self.reads,
            OpKind.PROGRAM: self.programs,
            OpKind.ERASE: self.erases,
        }

    def _count(self, kind: OpKind) -> None:
        if kind is OpKind.READ:
            self.reads += 1
        elif kind is OpKind.PROGRAM:
            self.programs += 1
        else:
            self.erases += 1

    @property
    def busy(self) -> bool:
        return self._server.in_use > 0

    @property
    def queued(self) -> int:
        return self._server.queued

    def acquire(self):
        """Event granting exclusive use of the die."""
        return self._server.request()

    def release(self) -> None:
        self._server.release()

    def run_op(self, kind: OpKind):
        """Process generator: die-busy phase of ``kind`` (die already held).

        Draws the op's power above idle for its duration; programs use the
        pulse profile when configured.
        """
        draw = self._op_draw[kind]
        duration = self._op_duration[kind]
        if not (self._pulsed_programs and kind is OpKind.PROGRAM):
            rail = self.rail
            component = self._component
            rail.add_draw(component, draw)
            try:
                yield self.engine.timeout(duration)
                self._count(kind)
            finally:
                rail.add_draw(component, -draw)
            return

        # Off-pulse power (precomputed) keeps the op's total energy at
        # draw*duration; only the pulse placement is drawn per op.
        t_pulse = self._prog_t_pulse
        p_pulse = self._prog_p_pulse
        p_rest = self._prog_p_rest
        t_before = float(self._rng.uniform(0.0, self._prog_span))
        t_after = self._prog_span - t_before
        phases = ((p_rest, t_before), (p_pulse, t_pulse), (p_rest, t_after))
        for power_w, phase_time in phases:
            if phase_time <= 0:
                continue
            self.rail.add_draw(self._component, power_w)
            try:
                yield self.engine.timeout(phase_time)
            finally:
                self.rail.add_draw(self._component, -power_w)
        self.programs += 1


class NandArray:
    """All dies and channel buses of one SSD."""

    def __init__(
        self,
        engine: Engine,
        rail: PowerRail,
        geometry: NandGeometry,
        timings: NandTimings,
        power: NandPower,
        channel_bandwidth: float,
        channel_transfer_power_w: float,
        pulse_ratio: float = 1.0,
        pulse_fraction: float = 0.3,
        rng=None,
    ) -> None:
        self.engine = engine
        self.rail = rail
        self.geometry = geometry
        self.timings = timings
        self.power = power
        self.dies = [
            NandDie(
                engine,
                rail,
                i,
                timings,
                power,
                pulse_ratio=pulse_ratio,
                pulse_fraction=pulse_fraction,
                rng=rng,
            )
            for i in range(geometry.total_dies)
        ]
        self._op_draw = {kind: power.draw(kind) for kind in OpKind}
        self._total_pages = geometry.total_pages
        self._pages_per_die = geometry.pages_per_die
        self._dies_per_channel = geometry.dies_per_channel
        self.channels = [
            ChannelBus(
                engine,
                rail,
                c,
                bandwidth=channel_bandwidth,
                transfer_power_w=channel_transfer_power_w,
            )
            for c in range(geometry.channels)
        ]

    def locate(self, ppn: int) -> tuple[NandDie, ChannelBus]:
        """Die and channel of linear page ``ppn``, without a
        :class:`PhysicalPageAddress`: the canonical order puts each die's
        pages, and each channel's dies, in one contiguous run."""
        if not 0 <= ppn < self._total_pages:
            raise ValueError(f"page index {ppn} out of range")
        die = self.dies[ppn // self._pages_per_die]
        return die, self.channels[die.index // self._dies_per_channel]

    @property
    def busy_dies(self) -> int:
        return sum(1 for die in self.dies if die.busy)

    def execute(
        self,
        ppa: PhysicalPageAddress,
        kind: OpKind,
        nbytes: int | None = None,
        admission=None,
    ):
        """Process generator: run one physical-page operation end to end.

        ``nbytes`` defaults to a full page; partial-page reads transfer only
        the requested bytes (sense time is unchanged -- the array always
        senses a whole page).

        ``admission``, when given, must expose ``request(watts) -> Event``
        and ``release(watts)`` (a :class:`~repro.devices.power_states.
        PowerGovernor`).  It brackets exactly the die-busy phase -- the
        interval during which the operation draws its power -- so a power
        cap rations concurrent *array activity*, not bus occupancy.
        """
        if nbytes is None:
            nbytes = self.geometry.page_size
        geometry = self.geometry
        die = self.dies[ppa.die_index(geometry)]
        channel = self.channels[ppa.channel]
        watts = self._op_draw[kind]
        yield die.acquire()
        try:
            # The admission bracket and the non-pulsed die-busy phase are
            # inlined rather than delegated to helper generators: every
            # simulated page op passes through here, and each extra frame
            # in the yield-from chain taxes every event that bubbles
            # through it.  The inlined statements mirror die.run_op's
            # un-pulsed path exactly so the event sequence is unchanged.
            pulsed = die._pulsed_programs and kind is OpKind.PROGRAM
            if kind is OpKind.PROGRAM:
                yield from channel.transfer(nbytes)
                if admission is not None:
                    yield admission.request(watts)
                try:
                    if pulsed:
                        # Inlined die.run_op's pulsed-program path: same
                        # phases, same RNG draw, one fewer generator frame.
                        t_pulse = die._prog_t_pulse
                        p_pulse = die._prog_p_pulse
                        p_rest = die._prog_p_rest
                        t_before = float(die._rng.uniform(0.0, die._prog_span))
                        t_after = die._prog_span - t_before
                        rail = die.rail
                        component = die._component
                        engine = self.engine
                        for power_w, phase_time in (
                            (p_rest, t_before),
                            (p_pulse, t_pulse),
                            (p_rest, t_after),
                        ):
                            if phase_time <= 0:
                                continue
                            rail.add_draw(component, power_w)
                            try:
                                yield engine.timeout(phase_time)
                            finally:
                                rail.add_draw(component, -power_w)
                        die.programs += 1
                    else:
                        rail = die.rail
                        component = die._component
                        rail.add_draw(component, watts)
                        try:
                            yield self.engine.timeout(die._op_duration[kind])
                            die.programs += 1
                        finally:
                            rail.add_draw(component, -watts)
                finally:
                    if admission is not None:
                        admission.release(watts)
            elif kind is OpKind.READ:
                if admission is not None:
                    yield admission.request(watts)
                try:
                    rail = die.rail
                    component = die._component
                    rail.add_draw(component, watts)
                    try:
                        yield self.engine.timeout(die._op_duration[kind])
                        die.reads += 1
                    finally:
                        rail.add_draw(component, -watts)
                finally:
                    if admission is not None:
                        admission.release(watts)
                yield from channel.transfer(nbytes)
            else:  # ERASE
                if admission is None:
                    yield from die.run_op(kind)
                else:
                    yield admission.request(watts)
                    try:
                        yield from die.run_op(kind)
                    finally:
                        admission.release(watts)
        finally:
            die.release()

    def op_counts(self) -> dict[OpKind, int]:
        """Aggregate operation counts across all dies."""
        totals = {kind: 0 for kind in OpKind}
        for die in self.dies:
            for kind, count in die.op_counts.items():
                totals[kind] += count
        return totals
