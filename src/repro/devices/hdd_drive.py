"""The simulated hard disk drive.

A single-actuator drive with a constantly-rotating spindle (while powered),
an on-board write-back cache, and drive-internal command scheduling by
rotational position ordering (RPO).  The service loop::

    pending reads ──┐
                    ├── RPO pick ── seek ── rotational wait ── media transfer
    write cache  ───┘

Power structure (paper Table 1's HDD, Seagate Exos 7E2000):

- electronics: always-on resident draw (this *is* standby power),
- spindle: rotation draw while spun up, surge during spin-up,
- voice coil: draw while seeking,
- read/write channel: draw while data streams off/onto the platter.

The narrow active range (idle 3.76 W to peak ~5.3 W) and the expensive
standby transition are both emergent from these parts, matching the paper's
section 2 characterization of HDDs.

The host IO path and the actuator run as engine handlers, one method per
hop (DESIGN.md section 10); standby, spin-up waits and EPC recovery stay
generators, reached through ``drive_inline``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Optional

from repro._units import MiB
from repro.devices.base import HostIO, IOKind, IORequest, StorageDevice
from repro.devices.link import HostLink, LinkPowerTable
from repro.hdd.cache import CachedWrite, WriteCache
from repro.hdd.geometry import HddGeometry
from repro.hdd.mechanics import RotationModel, SeekModel
from repro.hdd.spindle import Spindle, SpindleConfig
from repro.obs.events import EventKind
from repro.sim.engine import Engine, unbind_handlers
from repro.sim.process import drive_inline

__all__ = ["HddConfig", "IdleCondition", "SimulatedHDD"]


class IdleCondition(enum.Enum):
    """ATA Extended Power Conditions idle sub-states.

    The shallow rungs of the HDD power ladder between full idle and
    standby (the "low-power idle modes" of paper section 2):

    - ``IDLE_A``: full idle -- platters at speed, heads loaded.
    - ``IDLE_B``: heads unloaded onto the ramp; saves servo/windage power,
      costs a head-reload delay on the next access.
    - ``IDLE_C``: heads unloaded *and* spindle at reduced rpm; saves more,
      costs a longer recovery while the spindle returns to speed.
    """

    IDLE_A = "idle_a"
    IDLE_B = "idle_b"
    IDLE_C = "idle_c"


@dataclass(frozen=True)
class HddConfig:
    """Full parameterization of one HDD model.

    Attributes:
        electronics_power_w: Always-on board draw; equals standby power.
        seek_power_w: Voice-coil draw while seeking.
        transfer_power_w: Channel draw while data streams.
        command_time_s: Per-command firmware overhead.
        cache_bytes: Write-back cache size (scaled down with the rest of the
            simulation; behaviour depends on entry *count* via the elevator).
        rpo_window: Lookahead width of the internal scheduler.
        write_cache_enabled: WCE bit; when off, writes complete only after
            the media write.
    """

    name: str
    geometry: HddGeometry = field(default_factory=HddGeometry)
    seek: SeekModel = field(default_factory=SeekModel)
    spindle: SpindleConfig = field(default_factory=SpindleConfig)
    electronics_power_w: float = 1.0
    seek_power_w: float = 1.55
    transfer_power_w: float = 0.25
    command_time_s: float = 20e-6
    cache_bytes: int = 16 * MiB
    rpo_window: int = 16
    write_cache_enabled: bool = True
    link_bandwidth: float = 530e6
    link_transfer_power_w: float = 0.12
    link_power_table: LinkPowerTable = field(default_factory=LinkPowerTable)
    rail_voltage: float = 12.0
    # ATA EPC idle sub-states (savings are against full idle; recoveries
    # are paid by the next media access).
    idle_b_savings_w: float = 0.55
    idle_b_recovery_s: float = 0.4
    idle_c_savings_w: float = 1.35
    idle_c_recovery_s: float = 2.0

    def __post_init__(self) -> None:
        if self.electronics_power_w < 0 or self.seek_power_w < 0:
            raise ValueError("powers must be non-negative")
        if self.cache_bytes <= 0 or self.rpo_window < 1:
            raise ValueError("bad cache/window parameters")
        if not 0 <= self.idle_b_savings_w <= self.idle_c_savings_w:
            raise ValueError("EPC savings must be ordered: 0 <= B <= C")
        if self.idle_b_recovery_s < 0 or self.idle_c_recovery_s < 0:
            raise ValueError("EPC recoveries must be non-negative")
        if self.idle_c_savings_w >= self.idle_power_w:
            raise ValueError("idle_c cannot save more than idle power")

    @property
    def idle_power_w(self) -> float:
        """Draw while spun up and quiescent (incl. the active link PHY)."""
        from repro.devices.link import LinkPowerMode

        return (
            self.electronics_power_w
            + self.spindle.rotation_power_w
            + self.link_power_table.phy_power_w[LinkPowerMode.ACTIVE]
        )

    @property
    def standby_power_w(self) -> float:
        """Draw while spun down (electronics + link PHY)."""
        from repro.devices.link import LinkPowerMode

        return (
            self.electronics_power_w
            + self.link_power_table.phy_power_w[LinkPowerMode.ACTIVE]
        )


class _HddIO(HostIO):
    """One host command; a read or write-through also queues for the media.

    ``place`` is the target's ``(radial fraction, angular offset)``,
    computed once at enqueue for the RPO cost.
    """

    __slots__ = ("place",)


class SimulatedHDD(StorageDevice):
    """See module docstring."""

    _handlers = (
        "_io_start", "_io_ready", "_io_commanded", "_cache_write", "_media_enqueue",
        "_media_done", "_complete", "_actuate", "_serve_one", "_seeked",
        "_transfer", "_transferred",
    )

    def __init__(self, engine: Engine, config: HddConfig, faults=None) -> None:
        super().__init__(engine, config.name, config.rail_voltage, faults=faults)
        self.config = config
        # Hot-path aliases: the RPO cost function runs once per queued
        # candidate per actuator decision, and every hop reads a few
        # config terms, so skip the config attribute chains there.
        self._geometry = config.geometry
        self._seek = config.seek
        self._capacity_bytes = config.geometry.capacity_bytes
        self._rpo_window = config.rpo_window
        self._command_time_s = config.command_time_s
        self._write_cache_enabled = config.write_cache_enabled
        self._seek_power_w = config.seek_power_w
        self._transfer_power_w = config.transfer_power_w
        self.rotation = RotationModel(config.geometry)
        self.spindle = Spindle(
            engine,
            self.rail,
            config.spindle,
            start_spinning=True,
            name=f"{config.name}.spindle",
            faults=self.faults,
        )
        self.cache = WriteCache(engine, config.cache_bytes)
        self.link = HostLink(
            engine,
            self.rail,
            bandwidth=config.link_bandwidth,
            transfer_power_w=config.link_transfer_power_w,
            power_table=config.link_power_table,
            name=f"{config.name}.link",
        )
        self.rail.set_draw("electronics", config.electronics_power_w)
        self._media_queue: Deque[_HddIO] = deque()
        self._idle_condition = IdleCondition.IDLE_A
        self._head_byte = 0
        self._sequential_end: Optional[int] = None
        self._standby_requested = False
        self.media_ops_served = 0
        self.seek_time_total = 0.0
        self._ready_gate = self.spindle.ready_gate
        # The actuator's start entry; idle, it has none until woken.
        self._actuator_idle = False
        engine.call_soon(self._actuate)

    def close(self) -> None:
        """Also unbind the link's handlers and drop the media queue."""
        super().close()
        unbind_handlers(self.link)
        self._media_queue.clear()

    @property
    def capacity_bytes(self) -> int:
        return self.config.geometry.capacity_bytes

    @property
    def is_standby(self) -> bool:
        return not self.spindle.is_ready

    # -- host-facing IO -----------------------------------------------------

    def _submit(self, request: IORequest, done, on_done) -> None:
        if request.offset + request.nbytes > self._capacity_bytes:
            self.check_request(request)  # raises, naming the range
        self.engine.call_soon(self._io_start, _HddIO(request, done, on_done))

    def _io_start(self, io: _HddIO) -> None:
        self._standby_requested = False
        self._accept(io, self._io_ready)

    def _io_ready(self, io: _HddIO) -> None:
        if not self.spindle.is_ready:
            drive_inline(self._spin_up_wait(), self._io_command, io)
        else:
            self._io_command(io)

    def _spin_up_wait(self):
        """Generator: ATA semantics -- any IO to a standby drive triggers
        spin-up, and the command (cached or not) is not accepted until the
        drive is ready: the spin-up latency the paper warns about."""
        self.engine.process(self.spindle.spin_up())
        yield self._ready_gate.wait_open()

    def _io_command(self, io: _HddIO) -> None:
        self.engine.schedule(self._command_time_s, self._io_commanded, io)

    def _io_commanded(self, io: _HddIO) -> None:
        request = io.request
        if request.kind is IOKind.READ:
            self._media_enqueue(io)
        elif self._write_cache_enabled:
            self.link.transfer_call(request.nbytes, self._cache_write, io)
        else:
            # Write-through: host data must arrive before the media write.
            self.link.transfer_call(request.nbytes, self._media_enqueue, io)

    def _cache_write(self, io: _HddIO) -> None:
        tracer = self.engine.tracer
        if tracer.enabled:
            # A hit completes in DRAM at DMA speed; a miss parks the host
            # behind the media drain until space frees up.
            nbytes = io.request.nbytes
            tracer.emit(
                EventKind.CACHE_HIT
                if self.cache.fits(nbytes)
                else EventKind.CACHE_MISS,
                f"{self.name}.wcache",
                nbytes=nbytes,
                used=self.cache.used_bytes,
            )
        self._cache_admit(io)

    def _cache_admit(self, io: _HddIO) -> None:
        request = io.request
        cache = self.cache
        if not cache.fits(request.nbytes):
            cache.wait_for_space_call(self._cache_admit, io)
            return
        cache.put(request.offset, request.nbytes, self._place(request.offset))
        self._signal_work()
        self._complete(io)

    def _media_enqueue(self, io: _HddIO) -> None:
        io.place = self._place(io.request.offset)
        self._media_queue.append(io)
        self._signal_work()

    def _media_done(self, io: _HddIO) -> None:
        """The actuator finished this IO's media access."""
        if io.request.kind is IOKind.READ:
            self.link.transfer_call(io.request.nbytes, self._complete, io)
        else:
            self._complete(io)

    # -- EPC idle conditions ------------------------------------------------

    @property
    def idle_condition(self) -> IdleCondition:
        return self._idle_condition

    def set_idle_condition(self, condition: IdleCondition) -> None:
        """ATA EPC: move between idle sub-states (instant command).

        Power drops immediately; the *cost* is deferred -- the next media
        access pays the condition's recovery time (head reload and, for
        IDLE_C, spindle re-acceleration).

        Under a ``stuck_transitions`` fault plan the drive may silently
        refuse to leave IDLE_A (firmware rejecting the EPC command), the
        failure mode a power-control rollout has to detect from measured
        power rather than command status.
        """
        if (
            condition is not self._idle_condition
            and condition is not IdleCondition.IDLE_A
            and self.faults.enabled
            and self.faults.epc_refused(f"{self.name}.epc")
        ):
            return
        deratings = {
            IdleCondition.IDLE_A: 0.0,
            IdleCondition.IDLE_B: self.config.idle_b_savings_w,
            IdleCondition.IDLE_C: self.config.idle_c_savings_w,
        }
        previous = self._idle_condition
        self._idle_condition = condition
        self.spindle.set_derating(deratings[condition])
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.POWER_STATE,
                f"{self.name}.power",
                state=condition.value,
                from_state=previous.value,
                operational=True,
                saving_w=deratings[condition],
            )

    def _epc_recovery_s(self) -> float:
        if self._idle_condition is IdleCondition.IDLE_B:
            return self.config.idle_b_recovery_s
        if self._idle_condition is IdleCondition.IDLE_C:
            return self.config.idle_c_recovery_s
        return 0.0

    # -- standby control --------------------------------------------------------

    def enter_standby(self):
        """Process generator: ATA STANDBY IMMEDIATE.

        Flushes the write cache, then spins down.  Cancelled implicitly if
        an IO arrives mid-flush (the IO clears the request flag and the
        drive stays up).
        """
        self._standby_requested = True
        while not self.cache.is_empty or self._media_queue:
            if not self._standby_requested:
                return
            yield self.engine.timeout(1e-3)
        if not self._standby_requested or not self.spindle.is_ready:
            return
        yield from self.spindle.spin_down()

    def exit_standby(self):
        """Process generator: spin the drive back up (ATA IDLE IMMEDIATE)."""
        self._standby_requested = False
        yield from self.spindle.spin_up()

    # -- the actuator -------------------------------------------------------------
    #
    # A loop of hops: idle until there is work, wait for the spindle,
    # pick by RPO, pay any EPC recovery, seek, rotate, transfer.

    def _signal_work(self) -> None:
        # One entry at this instant wakes the idle actuator.  Only the
        # actuator removes work, so the woken _actuate finds some.
        if self._actuator_idle:
            self._actuator_idle = False
            self.engine.call_soon(self._actuate)

    def _actuate(self, _arg=None) -> None:
        if not self._media_queue and self.cache.is_empty:
            self._actuator_idle = True
        else:
            self._ready_gate.wait_open_call(self._serve_one)

    def _place(self, offset: int) -> tuple:
        """``(radial fraction, angular offset)`` of a byte offset."""
        geometry = self._geometry
        return geometry.radial_fraction(offset), geometry.angular_offset(offset)

    def _pick(self):
        """``(op, queue index, cost, seek)`` RPO serves next, or ``None``.

        Candidates are the leading ``rpo_window`` host media ops, then the
        write cache's elevator window (a :class:`CachedWrite`; its index is
        unused); the earliest of the cheapest wins.  A candidate's cost is
        its seek plus rotational wait from the head, or zero for a
        sequential continuation of the last transfer.  An op off the head's
        radial position costs at least the (positive) settle time, so when
        none at it precedes the continuation, the continuation is taken
        unpriced.  Otherwise no cost is negative: the scan stops at the
        first zero.
        """
        window = self._rpo_window
        sequential_end = self._sequential_end
        head = self._geometry.radial_fraction(self._head_byte)
        queue = self._media_queue
        if sequential_end is not None:
            for index, io in enumerate(islice(queue, window)):
                if io.request.offset == sequential_end:
                    # The window call also moves the elevator.
                    self.cache.window(window)
                    return io, index, 0.0, 0.0
                if io.place[0] == head:
                    break
        now = self.engine._now
        seek_time = self._seek.seek_time
        rotational_wait = self.rotation.rotational_wait
        best = None
        best_cost = 0.0
        best_seek = 0.0
        best_index = 0
        for index, io in enumerate(islice(queue, window)):
            if io.request.offset == sequential_end:
                cost = seek = 0.0
            else:
                radial, angle = io.place
                seek = seek_time(abs(radial - head), io.request.kind is IOKind.WRITE)
                cost = seek + rotational_wait(now, seek, angle)
            if best is None or cost < best_cost:
                best, best_cost, best_seek, best_index = io, cost, seek, index
                if cost == 0.0:
                    break
        # Always taken: the window call also moves the elevator.
        entries = self.cache.window(window)
        if best is None or best_cost > 0.0:
            for entry in entries:
                if entry.offset == sequential_end:
                    cost = seek = 0.0
                else:
                    radial, angle = entry.place or self._place(entry.offset)
                    seek = seek_time(abs(radial - head), True)
                    cost = seek + rotational_wait(now, seek, angle)
                if best is None or cost < best_cost:
                    best, best_cost, best_seek = entry, cost, seek
                    if cost == 0.0:
                        break
        if best is None:
            return None
        return best, best_index, best_cost, best_seek

    def _serve_one(self, _arg) -> None:
        """Pick the next media op and start its access.

        The access is ``(op, offset, nbytes, positioning, seek part)``;
        the pick's seek is still valid, since the head has not moved.
        """
        pick = self._pick()
        if pick is None:
            self._actuate()
            return
        op, index, positioning, seek = pick
        if isinstance(op, CachedWrite):
            offset, nbytes = op.offset, op.nbytes
        else:
            del self._media_queue[index]
            offset, nbytes = op.request.offset, op.request.nbytes
        access = (op, offset, nbytes, positioning, min(positioning, seek))
        recovery = self._epc_recovery_s()
        if recovery > 0:
            drive_inline(self._epc_recovery(recovery), self._seek_op, access)
        else:
            self._seek_op(access)

    def _epc_recovery(self, recovery: float):
        """Generator: leave the EPC idle condition before the access."""
        if self.faults.enabled:
            # Head reload can fail transiently.
            yield from self.faults.stuck_retries(f"{self.name}.epc", "epc", recovery)
        # Reload heads (and re-spin for IDLE_C) before the access.
        self.set_idle_condition(IdleCondition.IDLE_A)
        yield self.engine.timeout(recovery)

    def _seek_op(self, access: tuple) -> None:
        if access[4] > 0:
            self.rail.add_draw("voice_coil", self._seek_power_w)
            self.engine.schedule(access[4], self._seeked, access)
        else:
            self._rotate(access)

    def _seeked(self, access: tuple) -> None:
        self.rail.add_draw("voice_coil", -self._seek_power_w)
        self._rotate(access)

    def _rotate(self, access: tuple) -> None:
        # The rotational wait is unpowered: the model folds it into the
        # positioning interval at the blended cost already computed.
        rot_wait = access[3] - access[4]
        if rot_wait > 0:
            self.engine.schedule(rot_wait, self._transfer, access)
        else:
            self._transfer(access)

    def _transfer(self, access: tuple) -> None:
        transfer = self._geometry.transfer_time(access[1], access[2])
        self.rail.add_draw("channel", self._transfer_power_w)
        self.engine.schedule(transfer, self._transferred, access)

    def _transferred(self, access: tuple) -> None:
        self.rail.add_draw("channel", -self._transfer_power_w)
        op, offset, nbytes, positioning, _seek = access
        self.seek_time_total += positioning
        self._head_byte = min(offset + nbytes, self._capacity_bytes - 1)
        self._sequential_end = offset + nbytes
        if isinstance(op, CachedWrite):
            self.cache.remove(op)
        else:
            self.engine.call_soon(self._media_done, op)
        self.media_ops_served += 1
        self._actuate()
