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
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Deque, Optional

from repro._units import MiB
from repro.devices.base import IOKind, IORequest, IOResult, StorageDevice
from repro.devices.link import HostLink, LinkPowerTable
from repro.hdd.cache import CachedWrite, WriteCache
from repro.hdd.geometry import HddGeometry
from repro.hdd.mechanics import RotationModel, SeekModel
from repro.hdd.spindle import Spindle, SpindleConfig
from repro.obs.events import EventKind
from repro.sim.engine import Engine, Event

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


@dataclass(eq=False)
class _PendingMediaOp:
    """A queued media access awaiting the actuator.

    ``place`` is the target's ``(radial fraction, angular offset)``,
    computed once at enqueue for the RPO cost.
    """

    request: IORequest
    done: Event
    enqueued_at: float
    place: tuple


class SimulatedHDD(StorageDevice):
    """See module docstring."""

    def __init__(self, engine: Engine, config: HddConfig, faults=None) -> None:
        super().__init__(engine, config.name, config.rail_voltage, faults=faults)
        self.config = config
        # Hot-path aliases: the RPO cost function runs once per queued
        # candidate per actuator decision, so skip the config attribute
        # chains there.
        self._geometry = config.geometry
        self._seek = config.seek
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
        self._media_queue: Deque[_PendingMediaOp] = deque()
        self._idle_condition = IdleCondition.IDLE_A
        self._head_byte = 0
        self._sequential_end: Optional[int] = None
        self._work_waiter: Optional[Event] = None
        self._standby_requested = False
        self.media_ops_served = 0
        self.seek_time_total = 0.0
        engine.process(self._actuator_loop())

    @property
    def capacity_bytes(self) -> int:
        return self.config.geometry.capacity_bytes

    @property
    def is_standby(self) -> bool:
        return not self.spindle.is_ready

    # -- host-facing IO -----------------------------------------------------

    def submit(self, request: IORequest) -> Event:
        self.check_request(request)
        done = Event(self.engine)
        self.engine.process(self._io(request, done))
        return done

    def _io(self, request: IORequest, done: Event):
        submit_time = self.engine.now
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.IO_SUBMIT,
                f"{self.name}.io",
                kind=request.kind.value,
                offset=request.offset,
                nbytes=request.nbytes,
            )
        self._standby_requested = False
        if self.faults.enabled:
            yield from self.faults.io_delay(f"{self.name}.io", request.kind.value)
        if not self.spindle.is_ready:
            # ATA semantics: any IO to a standby drive triggers spin-up,
            # and the command (cached or not) is not accepted until the
            # drive is ready -- the spin-up latency the paper warns about.
            self.engine.process(self.spindle.spin_up())
            yield self.spindle.ready_gate.wait_open()
        yield self.engine.timeout(self.config.command_time_s)
        if request.kind is IOKind.WRITE and self.config.write_cache_enabled:
            yield from self.link.transfer(request.nbytes)
            if tracer.enabled:
                # A hit completes in DRAM at DMA speed; a miss parks the
                # host behind the media drain until space frees up.
                tracer.emit(
                    EventKind.CACHE_HIT
                    if self.cache.fits(request.nbytes)
                    else EventKind.CACHE_MISS,
                    f"{self.name}.wcache",
                    nbytes=request.nbytes,
                    used=self.cache.used_bytes,
                )
            while not self.cache.fits(request.nbytes):
                yield self.cache.wait_for_space()
            self.cache.put(
                request.offset, request.nbytes, self._place(request.offset)
            )
            self._signal_work()
            self.record_completion(request)
            self._trace_complete(request, submit_time)
            done.succeed(IOResult(request, submit_time, self.engine.now))
            return
        if request.kind is IOKind.WRITE:
            # Write-through: host data must arrive before the media write.
            yield from self.link.transfer(request.nbytes)
        media_done = Event(self.engine)
        self._media_queue.append(
            _PendingMediaOp(
                request, media_done, self.engine.now, self._place(request.offset)
            )
        )
        self._signal_work()
        yield media_done
        if request.kind is IOKind.READ:
            yield from self.link.transfer(request.nbytes)
        self.record_completion(request)
        self._trace_complete(request, submit_time)
        done.succeed(IOResult(request, submit_time, self.engine.now))

    def _trace_complete(self, request: IORequest, submit_time: float) -> None:
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.IO_COMPLETE,
                f"{self.name}.io",
                kind=request.kind.value,
                nbytes=request.nbytes,
                latency_s=self.engine.now - submit_time,
            )

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

    def _signal_work(self) -> None:
        if self._work_waiter is not None:
            waiter, self._work_waiter = self._work_waiter, None
            waiter.succeed()

    def _actuator_loop(self):
        while True:
            if not self._media_queue and self.cache.is_empty:
                self._work_waiter = Event(self.engine)
                yield self._work_waiter
            yield self.spindle.ready_gate.wait_open()
            served = yield from self._serve_one()
            if served:
                self.media_ops_served += 1

    def _place(self, offset: int) -> tuple:
        """``(radial fraction, angular offset)`` of a byte offset."""
        geometry = self._geometry
        return geometry.radial_fraction(offset), geometry.angular_offset(offset)

    def _serve_one(self):
        """Pick the cheapest pending media op by RPO and execute it.

        Candidates are the leading ``rpo_window`` host media ops, then the
        write cache's elevator window; the earliest of the cheapest wins.
        A candidate's cost is its seek plus rotational wait from the head,
        or zero for a sequential continuation of the last transfer.  No
        cost is negative, so the scan stops at the first zero.
        """
        now = self.engine._now
        window = self.config.rpo_window
        sequential_end = self._sequential_end
        head = self._geometry.radial_fraction(self._head_byte)
        seek_time = self._seek.seek_time
        rotational_wait = self.rotation.rotational_wait
        best = None
        best_cost = 0.0
        best_index = 0
        for index, op in enumerate(islice(self._media_queue, window)):
            if op.request.offset == sequential_end:
                cost = 0.0
            else:
                radial, angle = op.place
                seek = seek_time(
                    abs(radial - head), op.request.kind is IOKind.WRITE
                )
                cost = seek + rotational_wait(now, seek, angle)
            if best is None or cost < best_cost:
                best, best_cost, best_index = op, cost, index
                if cost == 0.0:
                    break
        # Always taken: the window call also moves the elevator.
        entries = self.cache.window(window)
        if best is None or best_cost > 0.0:
            for entry in entries:
                if entry.offset == sequential_end:
                    cost = 0.0
                else:
                    radial, angle = entry.place or self._place(entry.offset)
                    seek = seek_time(abs(radial - head), True)
                    cost = seek + rotational_wait(now, seek, angle)
                if best is None or cost < best_cost:
                    best, best_cost = entry, cost
                    if cost == 0.0:
                        break
        if best is None:
            return False
        if isinstance(best, CachedWrite):
            yield from self._media_access(
                best.offset, best.nbytes, IOKind.WRITE, best_cost
            )
            self.cache.remove(best)
        else:
            del self._media_queue[best_index]
            request = best.request
            yield from self._media_access(
                request.offset, request.nbytes, request.kind, best_cost
            )
            best.done.succeed()
        return True

    def _media_access(self, offset: int, nbytes: int, kind: IOKind, positioning: float):
        """Seek + rotational wait + media transfer, with power draws."""
        recovery = self._epc_recovery_s()
        if recovery > 0:
            if self.faults.enabled:
                # Head reload can fail transiently; each stuck attempt
                # re-pays the recovery latency.
                stuck = self.faults.transition_stuck(f"{self.name}.epc", "epc")
                for attempt in range(1, stuck + 1):
                    self.faults.note_retry(
                        "stuck_transition", f"{self.name}.epc", attempt
                    )
                    yield self.engine.timeout(recovery)
            # Leave the EPC idle condition: reload heads (and re-spin for
            # IDLE_C) before the access can proceed.
            self.set_idle_condition(IdleCondition.IDLE_A)
            yield self.engine.timeout(recovery)
        if positioning > 0:
            # Voice coil works during the seek portion; the model folds the
            # (unpowered) rotational wait into the same interval at the
            # blended cost already computed.
            seek_part = min(
                positioning,
                self.config.seek.seek_time(
                    abs(
                        self.config.geometry.radial_fraction(offset)
                        - self.config.geometry.radial_fraction(self._head_byte)
                    ),
                    is_write=(kind is IOKind.WRITE),
                ),
            )
            if seek_part > 0:
                self.rail.add_draw("voice_coil", self.config.seek_power_w)
                try:
                    yield self.engine.timeout(seek_part)
                finally:
                    self.rail.add_draw("voice_coil", -self.config.seek_power_w)
            rot_wait = positioning - seek_part
            if rot_wait > 0:
                yield self.engine.timeout(rot_wait)
        transfer = self.config.geometry.transfer_time(offset, nbytes)
        self.rail.add_draw("channel", self.config.transfer_power_w)
        try:
            yield self.engine.timeout(transfer)
        finally:
            self.rail.add_draw("channel", -self.config.transfer_power_w)
        self.seek_time_total += positioning
        self._head_byte = min(
            offset + nbytes, self.config.geometry.capacity_bytes - 1
        )
        self._sequential_end = offset + nbytes
