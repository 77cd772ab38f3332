"""The simulated SSD.

Architecture (mirroring a real enterprise NVMe drive)::

    host ── HostLink ── controller cores ── DRAM write buffer ── FTL ── NAND
                              │                                          │
                          PowerGovernor  <── NVMe power state (cap) ─────┘

Key behaviours the paper's measurements rest on, and where they live here:

- **Write-back buffering**: writes complete once DMA'd into the DRAM buffer
  (enterprise drives have power-loss protection).  Background flush programs
  the buffered stream to NAND.  When a power cap throttles the flush, the
  buffer backs up and *write admission* stalls -- that is the mechanism
  behind capped random-write latency inflation at QD1 (paper Fig. 5).
- **Governor gates programs/erases only**: reads draw too little to matter
  to the cap, so read throughput and latency are insensitive to power
  states (paper Figs. 4b and 6).
- **Die striping**: the flush and read paths spread over channels/dies, so
  IO size and queue depth modulate array parallelism, and with it both
  power and throughput (paper Figs. 8 and 9).
- **Housekeeping bursts**: periodic metadata maintenance competes with host
  flush for the governor budget, producing the capped tail-latency blowup
  (paper Fig. 5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro._units import MiB
from repro.devices.base import HostIO, IOKind, IORequest, StorageDevice
from repro.devices.link import HostLink, LinkPowerTable
from repro.devices.power_states import NvmePowerState, PowerGovernor
from repro.ftl.allocator import WriteAllocator
from repro.ftl.gc import GarbageCollector, GcConfig
from repro.ftl.mapping import PageMap
from repro.ftl.wear import WearTracker
from repro.nand.die import NandArray
from repro.nand.geometry import NandGeometry
from repro.nand.ops import NandPower, NandTimings, OpKind
from repro.obs.events import EventKind
from repro.sim.engine import Engine, unbind_handlers
from repro.sim.process import drive_inline, wait_call
from repro.sim.resources import Gate, Resource
from repro.sim.rng import RngStreams

__all__ = ["ControllerConfig", "SimulatedSSD", "SsdConfig"]

_PHANTOM_HASH = 2654435761
_PHANTOM_MOD = 2**32


class _HostIO(HostIO):
    """One host command, plus the page reads it still waits for.

    A read starts one entry per page, all for this IO; they pop in page
    order, so each takes the next page from ``next_lpn``.
    """

    __slots__ = ("pages_left", "next_lpn")

    def __init__(self, request: IORequest, done, on_done) -> None:
        # HostIO's fields, set here: a super().__init__ call per IO costs
        # more than the four stores.
        self.request = request
        self.done = done
        self.on_done = on_done
        self.submit_time = 0.0
        self.pages_left = 0


@dataclass(frozen=True)
class ControllerConfig:
    """SSD controller front end.

    Attributes:
        cores: Command-processing cores; with ``command_time_s`` they set
            the small-IO IOPS ceiling.
        command_time_s: Per-command firmware processing time.
        core_active_power_w: Extra draw per busy core.
        idle_power_w: Controller resident draw (excluding DRAM and PHY).
        completion_time_s: Completion/interrupt posting time per IO.
    """

    cores: int = 2
    command_time_s: float = 8.0e-6
    core_active_power_w: float = 0.6
    idle_power_w: float = 2.0
    completion_time_s: float = 3.0e-6

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one controller core")
        if self.command_time_s <= 0 or self.completion_time_s < 0:
            raise ValueError("command times must be positive")
        if self.core_active_power_w < 0 or self.idle_power_w < 0:
            raise ValueError("controller powers must be non-negative")


@dataclass(frozen=True)
class SsdConfig:
    """Full parameterization of one SSD model.

    Power-relevant fields are documented on the classes they feed
    (:class:`~repro.nand.ops.NandPower`, :class:`ControllerConfig`, ...).

    Attributes:
        governor_baseline_w: Firmware's estimate of non-NAND power used to
            budget the power cap (see
            :class:`~repro.devices.power_states.PowerGovernor`).
        overprovision: Fraction of physical capacity hidden from the host.
        phantom_reads: Treat reads of never-written LBAs as real NAND reads
            at a hashed location -- equivalent to running on a
            preconditioned drive, without simulating the multi-hour fill.
        maintenance_interval_s / maintenance_programs: Housekeeping cadence
            and burst size (0 programs disables housekeeping).
    """

    name: str
    geometry: NandGeometry
    timings: NandTimings = field(default_factory=NandTimings)
    nand_power: NandPower = field(default_factory=NandPower)
    program_pulse_ratio: float = 1.0
    program_pulse_fraction: float = 0.3
    channel_bandwidth: float = 1.2e9
    channel_transfer_power_w: float = 0.55
    link_bandwidth: float = 3.2e9
    link_transfer_power_w: float = 0.9
    link_power_table: LinkPowerTable = field(default_factory=LinkPowerTable)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    dram_power_w: float = 0.8
    write_buffer_bytes: int = 8 * MiB
    power_states: tuple[NvmePowerState, ...] = ()
    governor_baseline_w: float = 6.0
    governor_feedback: bool = True
    governor_headroom_w: float = 0.0
    overprovision: float = 0.10
    gc: GcConfig = field(default_factory=GcConfig)
    rail_voltage: float = 12.0
    maintenance_interval_s: float = 0.05
    maintenance_programs: int = 0
    maintenance_erases: int = 0
    power_wave_w: float = 0.0
    power_wave_duty: float = 0.15
    power_wave_period_s: float = 3e-3
    apst_idle_timeout_s: Optional[float] = None
    phantom_reads: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.overprovision < 0.5:
            raise ValueError("overprovision must be in [0, 0.5)")
        if self.write_buffer_bytes < self.geometry.page_size:
            raise ValueError("write buffer must hold at least one page")
        if (
            self.maintenance_programs < 0
            or self.maintenance_erases < 0
            or self.maintenance_interval_s <= 0
        ):
            raise ValueError("bad maintenance parameters")
        if self.power_wave_w < 0 or self.power_wave_period_s <= 0:
            raise ValueError("bad power wave parameters")
        if not 0 < self.power_wave_duty < 1:
            raise ValueError("power_wave_duty must be in (0, 1)")
        if self.apst_idle_timeout_s is not None:
            if self.apst_idle_timeout_s <= 0:
                raise ValueError("APST idle timeout must be positive")
            if not any(not ps.operational for ps in self.power_states):
                raise ValueError(
                    "APST needs at least one non-operational power state"
                )
        indices = [ps.index for ps in self.power_states]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("power states must have unique ascending indices")
        if self.power_states and not self.power_states[0].operational:
            raise ValueError("ps0 must be operational")

    @property
    def logical_pages(self) -> int:
        return int(self.geometry.total_pages * (1.0 - self.overprovision))

    @property
    def idle_power_w(self) -> float:
        """Resident draw at operational idle (controller + DRAM + PHY)."""
        from repro.devices.link import LinkPowerMode

        return (
            self.controller.idle_power_w
            + self.dram_power_w
            + self.link_power_table.phy_power_w[LinkPowerMode.ACTIVE]
        )


class SimulatedSSD(StorageDevice):
    """See module docstring for the architecture overview."""

    _handlers = (
        "_io_start", "_io_wake", "_on_core", "_on_command", "_write_buffer",
        "_io_complete", "_io_finish", "_page_start", "_page_read",
        "_on_page_read", "_on_pages_read", "_buffer_retry", "_program_start",
        "_program_done",
    )

    def __init__(
        self,
        engine: Engine,
        config: SsdConfig,
        rng: RngStreams | None = None,
        faults=None,
    ) -> None:
        super().__init__(engine, config.name, config.rail_voltage, faults=faults)
        self.config = config
        rngs = rng or RngStreams(0)
        self.array = NandArray(
            engine,
            self.rail,
            config.geometry,
            config.timings,
            config.nand_power,
            channel_bandwidth=config.channel_bandwidth,
            channel_transfer_power_w=config.channel_transfer_power_w,
            pulse_ratio=config.program_pulse_ratio,
            pulse_fraction=config.program_pulse_fraction,
            rng=rngs.get(f"{config.name}.nand"),
        )
        self.page_map = PageMap(config.logical_pages)
        # GC must always be able to open a relocation block on any die, so
        # the reserve covers one block per die (plus slack), and the GC
        # watermarks sit above the reserve -- otherwise host allocation
        # would hit the reserve wall before GC pressure ever triggered.
        gc_reserve = config.geometry.total_dies + 2
        self.allocator = WriteAllocator(
            config.geometry, gc_reserve_blocks=gc_reserve
        )
        gc_low = max(config.gc.low_watermark, gc_reserve + 2)
        gc_high = max(config.gc.high_watermark, gc_low + 4)
        effective_gc = GcConfig(low_watermark=gc_low, high_watermark=gc_high)
        self.wear = WearTracker(config.geometry.total_blocks)
        self.link = HostLink(
            engine,
            self.rail,
            bandwidth=config.link_bandwidth,
            transfer_power_w=config.link_transfer_power_w,
            power_table=config.link_power_table,
            name=f"{config.name}.link",
        )
        self.cores = Resource(
            engine, config.controller.cores, name=f"{config.name}.cores"
        )
        initial_cap = (
            config.power_states[0].max_power_w if config.power_states else None
        )
        self.governor = PowerGovernor(
            engine,
            baseline_w=config.governor_baseline_w,
            cap_w=initial_cap,
            name=f"{config.name}.governor",
            other_power_fn=(self._non_nand_power if config.governor_feedback else None),
            headroom_w=config.governor_headroom_w,
        )

        def committed_w(kind: OpKind) -> float:
            # The goldens pin this float bit for bit: keep it as the op's
            # draw plus its transfer extra, not _governed_op_power itself.
            draw = config.nand_power.draw(kind)
            return draw + (self._governed_op_power(kind) - draw)

        # Programs and erases -- host flush, GC and housekeeping alike --
        # pass the governor for their die-busy phase; reads never do.
        self.array.set_governor(
            self.governor, committed_w(OpKind.PROGRAM), committed_w(OpKind.ERASE)
        )
        self.gc = GarbageCollector(
            self.array,
            self.allocator,
            self.page_map,
            config=effective_gc,
            wear=self.wear,
            name=f"{config.name}.gc",
            faults=self.faults,
        )
        # Buffer accounting (bytes) with explicit waiters.
        self._buffer_used = 0
        self._buffer_waiters: list[_HostIO] = []
        self._pending_program_bytes = 0
        self._staged_lpns: list[int] = []
        # Power state machinery.
        self._resident: NvmePowerState | None = (
            config.power_states[0] if config.power_states else None
        )
        self._operational_state = self._resident
        # An online policy's cap rides *alongside* the power-state cap
        # (the governor enforces the min of both); None = no policy.
        self._policy_cap_w: float | None = None
        self._ready = Gate(engine, is_open=True, name=f"{config.name}.ready")
        self._waking = False
        self._writes_since_maintenance = 0
        self._maintenance_rr_die = 0
        self._last_activity = engine.now
        self._inflight_ios = 0
        self._link_xfer_component = f"{config.name}.link.xfer"
        self._wave_avg_w = config.power_wave_w * config.power_wave_duty
        # _non_nand_power's last value and the rail's draw_changes it saw.
        self._budget_stamp = -1
        self._budget_other_w = 0.0
        # Hot-path config scalars, hoisted out of the chained dataclass
        # attribute lookups the per-IO handlers would otherwise repeat.
        self._page_size = config.geometry.page_size
        self._total_pages = config.geometry.total_pages
        self._capacity_bytes = config.logical_pages * self._page_size
        self._logical_pages = config.logical_pages
        self._command_time_s = config.controller.command_time_s
        self._completion_time_s = config.controller.completion_time_s
        self._core_active_w = config.controller.core_active_power_w
        self._write_buffer_bytes = config.write_buffer_bytes
        self._apply_idle_draws()
        self._trace_power_state(None)  # baseline residency mark at t=0
        if config.maintenance_programs > 0 or config.maintenance_erases > 0:
            engine.process(self._maintenance_loop())
        if config.power_wave_w > 0:
            engine.process(self._power_wave_loop(rngs.get(f"{config.name}.wave")))
        if config.apst_idle_timeout_s is not None:
            engine.process(self._apst_loop())

    def close(self) -> None:
        """Also unbind the array's and the link's handlers, drop the
        governor's feedback reading and the writers parked on the buffer."""
        super().close()
        unbind_handlers(self.array)
        unbind_handlers(self.link)
        self.governor.other_power_fn = None
        self._buffer_waiters.clear()

    # -- properties -------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    @property
    def current_power_state(self) -> NvmePowerState | None:
        return self._resident

    @property
    def buffer_used_bytes(self) -> int:
        return self._buffer_used

    def _trace_power_state(self, previous: NvmePowerState | None) -> None:
        """Emit the power-state transition that just took effect."""
        tracer = self.engine.tracer
        if not tracer.enabled or self._resident is None:
            return
        tracer.emit(
            EventKind.POWER_STATE,
            f"{self.name}.power",
            state=f"ps{self._resident.index}",
            state_index=self._resident.index,
            from_state=None if previous is None else f"ps{previous.index}",
            operational=self._resident.operational,
            cap_w=self._resident.max_power_w,
        )

    def _non_nand_power(self) -> float:
        """Live device power excluding all array-serving activity.

        Excludes die draws, channel transfers and host-link streaming --
        everything proportional to governed array work.  Those costs are
        charged to the ops themselves via :meth:`_governed_op_power`, which
        keeps the feedback loop free of self-correlation (an op's own
        transfer activity must not shrink the budget it is admitted
        against).

        The program-intensity wave is replaced by its duty-cycled average
        at full die utilization (``power_wave_w * duty``): the live wave
        signal self-correlates with governed work just like die draws, but
        no grant brackets it (it fires on busy dies regardless of who
        holds admission), so ops cannot carry its cost either.  Budgeting
        the static average is exact in the saturated regime -- the only
        regime where a cap binds -- and merely conservative below it.
        """
        rail = self.rail
        if rail.draw_changes == self._budget_stamp:
            # No draw moved since the last admission check (a third of
            # them on the mechanism sweep): the same value again.
            return self._budget_other_w
        self._budget_stamp = rail.draw_changes
        self._budget_other_w = other = (
            rail.total_watts
            - rail.draw_of_prefix("die")
            - rail.draw_of_prefix("chan")
            - rail.draw_of_prefix("nand.wave")
            - rail.draw_of(self._link_xfer_component)
            + self._wave_avg_w
        )
        return other

    def _governed_op_power(self, kind: OpKind) -> float:
        """Effective committed power of one governed array operation.

        The op's average draw plus the amortized channel/link transfer
        power its page data costs over the op's duration, so the cap
        budget accounts for the whole power footprint of admitting it.

        The program-intensity wave is handled in :meth:`_non_nand_power`
        (as a static expected draw), not here: the wave fires on *busy*
        dies whether or not their op holds a grant (channel-transfer
        phases, GC reads), so a per-granted-op share systematically
        undercounts it exactly when the cap binds.
        """
        config = self.config
        base = config.nand_power.draw(kind)
        if kind is OpKind.ERASE:
            return base
        duration = config.timings.duration(kind)
        page = config.geometry.page_size
        chan_share = (
            config.channel_transfer_power_w * (page / config.channel_bandwidth) / duration
        )
        link_share = (
            config.link_transfer_power_w * (page / config.link_bandwidth) / duration
        )
        return base + chan_share + link_share

    # -- idle power --------------------------------------------------------

    def _apply_idle_draws(self) -> None:
        """Set resident draws for the current power state."""
        if self._resident is None or self._resident.operational:
            self.rail.set_draw("ctrl.idle", self.config.controller.idle_power_w)
            self.rail.set_draw("dram", self.config.dram_power_w)
        else:
            # Non-operational: the state's idle figure covers everything
            # except the link PHY (which ALPM controls separately).
            self.rail.set_draw("ctrl.idle", self._resident.idle_power_w)
            self.rail.set_draw("dram", 0.0)

    # -- power state control --------------------------------------------------

    def _effective_cap(self, state_cap_w: float | None) -> float | None:
        """The governor cap implied by the power state *and* the policy.

        Both mechanisms constrain the same budget, so the tighter one
        wins.  Keeping the combination in one place is the fix for the
        cap-clobber bug: ``set_power_state`` and ``_wake`` used to write
        the state cap straight to the governor, silently discarding a
        tighter policy cap on every APST doze/wake cycle.
        """
        if self._policy_cap_w is None:
            return state_cap_w
        if state_cap_w is None:
            return self._policy_cap_w
        return min(state_cap_w, self._policy_cap_w)

    def set_policy_cap(self, cap_w: float | None) -> None:
        """Set (or clear, with ``None``) the online policy's power cap.

        Takes effect immediately: the governor re-drains its admission
        queue against the new budget.  The cap composes with the
        resident power state's cap via :meth:`_effective_cap`.
        """
        self._policy_cap_w = cap_w
        state_cap_w = (
            self._operational_state.max_power_w
            if self._operational_state is not None
            else None
        )
        self.governor.set_cap(self._effective_cap(state_cap_w))

    def set_power_state(self, index: int):
        """Process generator: NVMe Set Features (Power Management)."""
        states = {ps.index: ps for ps in self.config.power_states}
        if index not in states:
            raise ValueError(f"{self.name} has no power state {index}")
        target = states[index]
        if target.entry_latency_s > 0:
            if self.faults.enabled:
                yield from self.faults.stuck_retries(
                    f"{self.name}.power", "nvme_ps", target.entry_latency_s
                )
            yield self.engine.timeout(target.entry_latency_s)
        previous = self._resident
        self._resident = target
        self._trace_power_state(previous)
        if target.operational:
            self._operational_state = target
            self.governor.set_cap(self._effective_cap(target.max_power_w))
            self._apply_idle_draws()
            self._ready.open()
        else:
            self._apply_idle_draws()
            self._ready.close()

    def enter_standby(self):
        """Process generator: drop into the deepest non-operational state."""
        non_op = [ps for ps in self.config.power_states if not ps.operational]
        if not non_op:
            raise NotImplementedError(
                f"{self.name} has no non-operational power states"
            )
        deepest = min(non_op, key=lambda ps: ps.idle_power_w)
        yield from self.set_power_state(deepest.index)

    def exit_standby(self):
        """Process generator: return to the last operational state."""
        if self._resident is None or self._resident.operational:
            return
        yield from self._wake()

    def _wake(self):
        """Leave a non-operational state, paying its exit latency once."""
        if self._resident is None or self._resident.operational:
            return
        if self._waking:
            yield self._ready.wait_open()
            return
        self._waking = True
        try:
            if self.faults.enabled:
                yield from self.faults.stuck_retries(
                    f"{self.name}.power", "nvme_ps", self._resident.exit_latency_s
                )
            yield self.engine.timeout(self._resident.exit_latency_s)
        finally:
            self._waking = False
        assert self._operational_state is not None
        previous = self._resident
        self._resident = self._operational_state
        self._trace_power_state(previous)
        self.governor.set_cap(
            self._effective_cap(self._operational_state.max_power_w)
        )
        self._apply_idle_draws()
        self._ready.open()

    # -- IO front end --------------------------------------------------------
    #
    # The per-IO path runs as engine handlers: each method below is one hop,
    # named for the moment it runs.  A hop pushes exactly the entries a
    # generator process taking the same steps would push, in the same
    # order (the hop-faithful rules, DESIGN.md §10).  Cold generator code
    # (fault delays, power-state wake, GC) is reached through
    # drive_inline with ``yield from`` semantics.  Page reads and programs
    # are the array's handler-form operations.

    def _submit(self, request: IORequest, done, on_done) -> None:
        if request.offset + request.nbytes > self._capacity_bytes:
            self.check_request(request)  # raises, naming the range
        self.engine.call_soon(self._io_start, _HostIO(request, done, on_done))

    def _io_start(self, io: "_HostIO") -> None:
        self._last_activity = self.engine._now
        self._inflight_ios += 1
        self._accept(io, self._io_wake)

    def _io_wake(self, io: "_HostIO") -> None:
        """Leave a non-operational power state before taking a core."""
        if self._resident is not None and not self._resident.operational:
            drive_inline(self._wake(), self._io_command, io)
        else:
            self.cores.request_call(self._on_core, io)

    def _io_command(self, io: "_HostIO") -> None:
        """Occupy a controller core for the command, drawing core power."""
        self.cores.request_call(self._on_core, io)

    def _on_core(self, io: "_HostIO") -> None:
        self.rail.add_draw("ctrl.active", self._core_active_w)
        self.engine.schedule(self._command_time_s, self._on_command, io)

    def _on_command(self, io: "_HostIO") -> None:
        self.rail.add_draw("ctrl.active", -self._core_active_w)
        self.cores.release()
        if io.request.kind is IOKind.READ:
            self._read_pages(io)
        else:
            self.link.transfer_call(io.request.nbytes, self._write_buffer, io)

    def _io_complete(self, io: "_HostIO") -> None:
        """Pay the completion-posting time, then finish the IO."""
        if self._completion_time_s > 0:
            self.engine.schedule(self._completion_time_s, self._io_finish, io)
        else:
            self._io_finish(io)

    def _io_finish(self, io: "_HostIO") -> None:
        self._inflight_ios -= 1
        self._last_activity = self.engine._now
        self._complete(io)

    # -- read path ---------------------------------------------------------------

    def _read_pages(self, io: "_HostIO") -> None:
        """Start one page read per touched page; the IO waits for all."""
        request = io.request
        page_size = self._page_size
        io.next_lpn = first = request.offset // page_size
        io.pages_left = (request.offset + request.nbytes - 1) // page_size - first + 1
        call_soon = self.engine.call_soon
        for _ in range(io.pages_left):
            call_soon(self._page_start, io)

    def _page_start(self, io: "_HostIO") -> None:
        lpn = io.next_lpn
        io.next_lpn = lpn + 1
        request = io.request
        offset = request.offset
        page_start = lpn * self._page_size
        nbytes = min(offset + request.nbytes, page_start + self._page_size) - max(
            offset, page_start
        )
        ppn = self.page_map.lookup(lpn)
        if ppn is None:
            if not self.config.phantom_reads:
                # Unmapped and no preconditioning emulation: zero-fill, only
                # the controller/DMA cost applies (no NAND touch).
                self._page_read(io)
                return
            ppn = (lpn * _PHANTOM_HASH) % _PHANTOM_MOD % self._total_pages
        # Reads are not power-governed (see module docstring).
        self.array.read_call(ppn, nbytes, self._page_read, io)

    def _page_read(self, io: "_HostIO") -> None:
        self.engine.call_soon(self._on_page_read, io)

    def _on_page_read(self, io: "_HostIO") -> None:
        io.pages_left -= 1
        if io.pages_left == 0:
            self.engine.call_soon(self._on_pages_read, io)

    def _on_pages_read(self, io: "_HostIO") -> None:
        self.link.transfer_call(io.request.nbytes, self._io_complete, io)

    # -- write path -----------------------------------------------------------------

    def _write_buffer(self, io: "_HostIO") -> None:
        """The write's data crossed the link: claim DRAM buffer space."""
        tracer = self.engine.tracer
        if tracer.enabled:
            # Buffer admission is the capped-write stall mechanism (Fig. 5):
            # a hit absorbs the write at DMA speed, a miss parks the host
            # behind the throttled flush.
            nbytes = io.request.nbytes
            fits = self._buffer_used + nbytes <= self._write_buffer_bytes
            tracer.emit(
                EventKind.CACHE_HIT if fits else EventKind.CACHE_MISS,
                f"{self.name}.wbuf",
                nbytes=nbytes,
                used=self._buffer_used,
            )
        self._buffer_admit(io)

    def _buffer_admit(self, io: "_HostIO") -> None:
        request = io.request
        nbytes = request.nbytes
        if self._buffer_used + nbytes > self._write_buffer_bytes:
            self._buffer_waiters.append(io)
            return
        self._buffer_used += nbytes
        self.wear.record_host_write(nbytes)
        # Stage the LPNs this write fully covers for mapping updates.
        page_size = self._page_size
        offset = request.offset
        logical_pages = self._logical_pages
        staged = self._staged_lpns
        for lpn in range(-(-offset // page_size), (offset + nbytes) // page_size):
            if lpn < logical_pages:
                staged.append(lpn)
        self._pending_program_bytes += nbytes
        while self._pending_program_bytes >= page_size:
            self._pending_program_bytes -= page_size
            self.engine.call_soon(self._program_start, None)
        # Residual bytes stay buffered until later writes complete the page.
        self._io_complete(io)

    def _buffer_release(self, nbytes: int) -> None:
        """Free buffer space and retry every parked writer, oldest first.

        One entry retries them all: waking each writer with its own entry
        would push those entries back to back at this instant, and nothing
        can be pushed between consecutive same-instant entries, so they
        would pop back to back too.  Writers that still do not fit re-park
        in order.
        """
        self._buffer_used -= nbytes
        if self._buffer_used < 0:
            self._buffer_used = 0
        if self._buffer_waiters:
            waiters, self._buffer_waiters = self._buffer_waiters, []
            self.engine.call_soon(self._buffer_retry, waiters)

    def _buffer_retry(self, waiters: list) -> None:
        for io in waiters:
            self._buffer_admit(io)

    def _program_start(self, _: None) -> None:
        """Flush one page of buffered write data to NAND.

        Allocation retries with GC until a page is produced.  Many flushes
        race for the free pool, so a single pressure-check before
        allocating is not enough: the reserve can drain between the check
        and the allocation.  A device whose GC cannot reclaim anything
        (all data valid -- genuine capacity exhaustion) re-raises.
        """
        if self.gc.pressure:
            drive_inline(self.gc.maybe_collect(), self._program_allocate)
        else:
            self._program_allocate(None)

    def _program_allocate(self, _: None) -> None:
        gc = self.gc
        try:
            ppn = self.allocator.allocate()
        except RuntimeError as exc:
            error = exc  # ``exc`` is unbound once this block ends
            relocated_before = gc.pages_relocated
            erased_before = gc.blocks_erased

            def after_collect(_: None) -> None:
                made_progress = (
                    gc.blocks_erased > erased_before
                    or gc.pages_relocated > relocated_before
                )
                if not made_progress and self.allocator.free_blocks == 0:
                    raise error
                self._program_start(None)

            drive_inline(gc.maybe_collect(), after_collect)
            return
        if self._staged_lpns:
            lpn = self._staged_lpns.pop(0)
            stale = self.page_map.bind(lpn, ppn)
            if stale is not None:
                self.allocator.mark_invalid(stale)
        else:
            # Sub-page log traffic: the page holds fragments that are not
            # tracked at map granularity; it is immediately reclaimable.
            self.allocator.mark_invalid(ppn)
        self.array.program_call(ppn, self._program_done)

    def _program_done(self, _: None) -> None:
        """The page is on NAND; its die and governor grant are released."""
        self.wear.record_nand_write(self._page_size)
        self._writes_since_maintenance += 1
        self._buffer_release(self._page_size)

    # -- housekeeping -------------------------------------------------------------------

    def _maintenance_loop(self):
        """Periodic metadata maintenance (journal compaction, mapping flush).

        Abstract power/timing model only: the burst programs a reserved
        metadata region and does not touch the host-visible FTL state.  Under
        a tight power cap the burst competes with host flush for the
        governor budget, stalling host writes -- the tail-latency mechanism
        of paper Fig. 5b.  Bursts are skipped while the device is write-idle
        so idle power stays at specification.
        """
        interval = self.config.maintenance_interval_s
        while True:
            yield self.engine.timeout(interval)
            if self._writes_since_maintenance == 0:
                continue
            self._writes_since_maintenance = 0
            workers = [
                self.engine.process(self._maintenance_op(self.array.program_call))
                for _ in range(self.config.maintenance_programs)
            ]
            workers.extend(
                self.engine.process(self._maintenance_op(self.array.erase_call))
                for _ in range(self.config.maintenance_erases)
            )
            yield self.engine.all_of(workers)

    def _apst_loop(self):
        """NVMe Autonomous Power State Transitions.

        When the host enables APST the controller drops itself into a
        non-operational state after an idle period; the next IO pays the
        exit latency (handled by the ordinary wake path).  This is the
        SSD-side analogue of ALPM, and what makes the paper's power-aware
        IO redirection self-managing: consolidating load away from a
        device lets its own idle timer harvest the standby saving.
        """
        timeout = self.config.apst_idle_timeout_s
        assert timeout is not None
        while True:
            yield self.engine.timeout(timeout / 2)
            if self._resident is None or not self._resident.operational:
                continue
            idle_for = self.engine.now - self._last_activity
            if self._inflight_ios == 0 and idle_for >= timeout:
                yield from self.enter_standby()

    def _power_wave_loop(self, rng):
        """Device-wide program-intensity wave.

        TLC program energy is not uniform across a multi-pass programming
        sequence: the device alternates between heavier and lighter program
        phases on millisecond epochs (SLC-buffer destage, upper-page
        passes).  Modelled as a square wave of additional draw, scaled by
        the fraction of busy dies and duty-cycled, it reproduces the large
        millisecond-scale power swings the paper's Fig. 2a traces show for
        SSD1.  The wave's *average* contribution is part of the device's
        calibrated active power (the preset lowers per-die program power to
        compensate), so mean power is unchanged -- only the texture.
        """
        config = self.config
        period = config.power_wave_period_s
        high_time = config.power_wave_duty * period
        low_time = period - high_time
        total_dies = config.geometry.total_dies
        while True:
            yield self.engine.timeout(low_time * float(rng.uniform(0.8, 1.2)))
            busy_fraction = self.array.busy_dies / total_dies
            self.rail.set_draw("nand.wave", config.power_wave_w * busy_fraction)
            yield self.engine.timeout(high_time * float(rng.uniform(0.8, 1.2)))
            self.rail.set_draw("nand.wave", 0.0)

    def _maintenance_op(self, op_call):
        """One housekeeping program or erase (``op_call`` is the array's
        ``program_call`` or ``erase_call``), on the next die in turn."""
        geometry = self.config.geometry
        die = self._maintenance_rr_die
        self._maintenance_rr_die = (die + 1) % geometry.total_dies
        # Page 0 of block 0 on the chosen die stands in for the metadata
        # region; only its timing/power matter.
        yield wait_call(self.engine, op_call, die * geometry.pages_per_die)
