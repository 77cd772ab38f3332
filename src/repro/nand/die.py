"""NAND die state machines and the assembled flash array.

A :class:`NandDie` runs one operation at a time (plane-level parallelism
is folded into the per-die service time).  While an operation is in flight
the die draws its op-specific power on the device rail -- the sum of these
per-die draws is the NAND component of the device's measurable power.

:class:`NandArray` assembles ``geometry.total_dies`` dies and one
:class:`~repro.nand.onfi.ChannelBus` per channel.  Its handler-form page
operations are the only way to run one, for host IO, garbage collection
and housekeeping alike.  Each finds its die and channel with
:meth:`NandArray.locate`, holds the die throughout, takes one engine
entry per hop and calls ``then(arg)`` once it released the die:

- :meth:`~NandArray.program_call`: the page crosses the channel bus, the
  governor admits the program, then the die is busy for tPROG.
- :meth:`~NandArray.read_call`: the die senses for tR, then the data
  crosses the bus.  Reads are never governed.
- :meth:`~NandArray.erase_call`: the governor admits the erase, then the
  die is busy for tBERS.  No data crosses the bus.

Generator code waits on an operation with
:func:`repro.sim.process.wait_call`.
"""

from __future__ import annotations

from repro.nand.geometry import NandGeometry
from repro.nand.onfi import ChannelBus
from repro.nand.ops import NandPower, NandTimings, OpKind
from repro.power.rail import PowerRail
from repro.sim.engine import Engine, bind_handlers
from repro.sim.resources import Resource

__all__ = ["NandArray", "NandDie"]

#: Pulse placements drawn per batch (see ``NandArray._on_program_admitted``).
_PLACEMENT_BATCH = 256


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
        self.index = die_index
        self.timings = timings
        self.power = power
        self.pulse_ratio = pulse_ratio
        self.pulse_fraction = pulse_fraction
        self._rng = rng
        self._server = Resource(engine, capacity=1, name=f"die{die_index}")
        self._component = f"die{die_index}"
        self._pulsed_programs = pulse_ratio > 1.0 and rng is not None
        # The pulse profile's shape is fixed per die -- only the pulse
        # placement is random: precompute the three phase powers and the
        # placement span.
        duration = timings.duration(OpKind.PROGRAM)
        draw = power.draw(OpKind.PROGRAM)
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

    @property
    def busy(self) -> bool:
        return self._server.in_use > 0

    @property
    def queued(self) -> int:
        return self._server.queued


class _PageOp:
    """One page operation, from its die request to ``then(arg)``.

    ``nbytes`` is what crosses the bus; a pulsed program also keeps its
    pulse placement (``t_before``) and the index of its current phase.
    """

    __slots__ = ("die", "channel", "nbytes", "then", "arg", "t_before", "phase")


def _pulse_phase(op: _PageOp) -> tuple:
    """(power, duration) of a pulsed program's current phase: rest, pulse,
    rest, around a pulse placed ``t_before`` into the program."""
    die = op.die
    if op.phase == 0:
        return die._prog_p_rest, op.t_before
    if op.phase == 1:
        return die._prog_p_pulse, die._prog_t_pulse
    return die._prog_p_rest, die._prog_span - op.t_before


class NandArray:
    """All dies and channel buses of one SSD, and the page operations
    that run on them (see the module docstring)."""

    #: Hop methods named by engine entries, bound once per array.
    _handlers = (
        "_on_sense", "_on_sensed", "_on_read_bus", "_on_read_moved",
        "_on_program_die", "_on_program_bus", "_on_program_moved",
        "_on_program_admitted", "_on_phase", "_on_programmed",
        "_on_erase_die", "_on_erase_admitted", "_on_erased",
    )

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
        bind_handlers(self)
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
        self.channels = [
            ChannelBus(
                engine,
                c,
                bandwidth=channel_bandwidth,
                transfer_power_w=channel_transfer_power_w,
            )
            for c in range(geometry.channels)
        ]
        self._total_pages = geometry.total_pages
        self._pages_per_die = geometry.pages_per_die
        self._dies_per_channel = geometry.dies_per_channel
        self._page_size = geometry.page_size
        self._read_w = power.draw(OpKind.READ)
        self._read_s = timings.duration(OpKind.READ)
        self._program_w = power.draw(OpKind.PROGRAM)
        self._program_s = timings.duration(OpKind.PROGRAM)
        self._erase_w = power.draw(OpKind.ERASE)
        self._erase_s = timings.duration(OpKind.ERASE)
        self._governor = None
        self._program_commit_w = self._erase_commit_w = 0.0
        # Pulse placements drawn ahead, next one last (see
        # _on_program_admitted).
        self._placements: list[float] = []

    def set_governor(self, governor, program_w: float, erase_w: float) -> None:
        """Admit every program and erase through ``governor``.

        A program commits ``program_w`` and an erase ``erase_w`` for
        exactly its die-busy phase -- the interval during which it draws
        its power -- so a cap rations concurrent *array activity*, not
        bus occupancy.  ``governor`` is a
        :class:`~repro.devices.power_states.PowerGovernor` or anything
        with its ``request_call(watts, handler, arg)`` and
        ``release(watts)``.
        """
        self._governor = governor
        self._program_commit_w = program_w
        self._erase_commit_w = erase_w

    def locate(self, ppn: int) -> tuple[NandDie, ChannelBus]:
        """Die and channel of linear page ``ppn``, without a
        :class:`~repro.nand.geometry.PhysicalPageAddress`: the canonical
        order puts each die's pages, and each channel's dies, in one
        contiguous run."""
        if not 0 <= ppn < self._total_pages:
            raise ValueError(f"page index {ppn} out of range")
        die = self.dies[ppn // self._pages_per_die]
        return die, self.channels[die.index // self._dies_per_channel]

    @property
    def busy_dies(self) -> int:
        return sum(1 for die in self.dies if die.busy)

    def op_counts(self) -> dict[OpKind, int]:
        """Aggregate operation counts across all dies."""
        totals = {kind: 0 for kind in OpKind}
        for die in self.dies:
            for kind, count in die.op_counts.items():
                totals[kind] += count
        return totals

    # -- page operations ---------------------------------------------------

    def read_call(self, ppn: int, nbytes: int, then, arg=None) -> None:
        """Sense page ``ppn``, move ``nbytes`` of it over the channel bus,
        then call ``then(arg)``.

        A partial-page read transfers only the requested bytes; the sense
        time is unchanged, since the die always senses a whole page.
        """
        self._start(ppn, nbytes, then, arg, self._on_sense)

    def program_call(self, ppn: int, then, arg=None) -> None:
        """Move one page over the channel bus and program it at ``ppn``,
        then call ``then(arg)``."""
        self._start(ppn, self._page_size, then, arg, self._on_program_die)

    def erase_call(self, ppn: int, then, arg=None) -> None:
        """Erase the block holding page ``ppn``, then call ``then(arg)``."""
        self._start(ppn, 0, then, arg, self._on_erase_die)

    def _start(self, ppn: int, nbytes: int, then, arg, hop) -> None:
        op = _PageOp()
        op.die, op.channel = self.locate(ppn)
        op.nbytes = nbytes
        op.then = then
        op.arg = arg
        op.die._server.request_call(hop, op)

    def _end(self, op: _PageOp, commit_w: float) -> None:
        """Return a program's or erase's grant and its die, then ``then``."""
        if self._governor is not None:
            self._governor.release(commit_w)
        op.die._server.release()
        op.then(op.arg)

    # Read hops: sense, then the bus.

    def _on_sense(self, op: _PageOp) -> None:
        self.rail.add_draw(op.die._component, self._read_w)
        self.engine.schedule(self._read_s, self._on_sensed, op)

    def _on_sensed(self, op: _PageOp) -> None:
        die = op.die
        die.reads += 1
        self.rail.add_draw(die._component, -self._read_w)
        op.channel._bus.request_call(self._on_read_bus, op)

    def _on_read_bus(self, op: _PageOp) -> None:
        channel = op.channel
        self.rail.add_draw(channel._component, channel.transfer_power_w)
        self.engine.schedule(op.nbytes / channel.bandwidth, self._on_read_moved, op)

    def _on_read_moved(self, op: _PageOp) -> None:
        channel = op.channel
        channel.bytes_transferred += op.nbytes
        self.rail.add_draw(channel._component, -channel.transfer_power_w)
        channel._bus.release()
        op.die._server.release()
        op.then(op.arg)

    # Program hops: the bus, admission, then the die-busy phase.

    def _on_program_die(self, op: _PageOp) -> None:
        op.channel._bus.request_call(self._on_program_bus, op)

    def _on_program_bus(self, op: _PageOp) -> None:
        channel = op.channel
        self.rail.add_draw(channel._component, channel.transfer_power_w)
        self.engine.schedule(op.nbytes / channel.bandwidth, self._on_program_moved, op)

    def _on_program_moved(self, op: _PageOp) -> None:
        channel = op.channel
        channel.bytes_transferred += op.nbytes
        self.rail.add_draw(channel._component, -channel.transfer_power_w)
        channel._bus.release()
        if self._governor is None:
            self._on_program_admitted(op)
        else:
            self._governor.request_call(
                self._program_commit_w, self._on_program_admitted, op
            )

    def _on_program_admitted(self, op: _PageOp) -> None:
        die = op.die
        if die._pulsed_programs:
            placements = self._placements
            if not placements:
                # Every die of the array shares one rng (the SSD's
                # ``{name}.nand`` stream) and one placement span, and pulse
                # placement is the stream's only consumer: a batch drawn
                # ahead hands each program the value a scalar
                # ``uniform(0.0, span)`` draw at its admission would.
                placements = self._placements = die._rng.uniform(
                    0.0, die._prog_span, size=_PLACEMENT_BATCH
                ).tolist()[::-1]
            op.t_before = placements.pop()
            op.phase = 0
            self._program_phase(op)
            return
        self.rail.add_draw(die._component, self._program_w)
        self.engine.schedule(self._program_s, self._on_programmed, op)

    def _program_phase(self, op: _PageOp) -> None:
        """Start the next non-empty phase of a pulsed program, or end it."""
        while op.phase < 3:
            power_w, phase_time = _pulse_phase(op)
            if phase_time > 0:
                self.rail.add_draw(op.die._component, power_w)
                self.engine.schedule(phase_time, self._on_phase, op)
                return
            op.phase += 1
        op.die.programs += 1
        self._end(op, self._program_commit_w)

    def _on_phase(self, op: _PageOp) -> None:
        power_w, _ = _pulse_phase(op)
        self.rail.add_draw(op.die._component, -power_w)
        op.phase += 1
        self._program_phase(op)

    def _on_programmed(self, op: _PageOp) -> None:
        die = op.die
        die.programs += 1
        self.rail.add_draw(die._component, -self._program_w)
        self._end(op, self._program_commit_w)

    # Erase hops: admission, then the die-busy phase.

    def _on_erase_die(self, op: _PageOp) -> None:
        if self._governor is None:
            self._on_erase_admitted(op)
        else:
            self._governor.request_call(
                self._erase_commit_w, self._on_erase_admitted, op
            )

    def _on_erase_admitted(self, op: _PageOp) -> None:
        self.rail.add_draw(op.die._component, self._erase_w)
        self.engine.schedule(self._erase_s, self._on_erased, op)

    def _on_erased(self, op: _PageOp) -> None:
        die = op.die
        die.erases += 1
        self.rail.add_draw(die._component, -self._erase_w)
        self._end(op, self._erase_commit_w)
