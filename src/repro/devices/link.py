"""Host interface link: bandwidth, PHY power, and low-power link states.

Models the PCIe or SATA connection between host and device.  Transfers
serialize on the link at its effective bandwidth and draw transfer power
while streaming.  The PHY also has a resident draw that depends on the link
power mode -- the SATA modes (ACTIVE / PARTIAL / SLUMBER) are what
Aggressive Link Power Management manipulates in the paper's standby
experiments (Fig. 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.power.rail import PowerRail
from repro.sim.engine import Engine, bind_handlers
from repro.sim.process import drive_inline
from repro.sim.resources import Resource

__all__ = ["HostLink", "LinkPowerMode", "LinkPowerTable"]


class LinkPowerMode(enum.Enum):
    """Interface power management states (SATA naming)."""

    ACTIVE = "active"
    PARTIAL = "partial"
    SLUMBER = "slumber"


@dataclass(frozen=True)
class LinkPowerTable:
    """PHY draw per link mode and exit latencies back to ACTIVE.

    Defaults are SATA-typical: PARTIAL exits in ~10 us, SLUMBER in ~10 ms.
    """

    phy_power_w: dict[LinkPowerMode, float] = field(
        default_factory=lambda: {
            LinkPowerMode.ACTIVE: 0.18,
            LinkPowerMode.PARTIAL: 0.09,
            LinkPowerMode.SLUMBER: 0.01,
        }
    )
    exit_latency_s: dict[LinkPowerMode, float] = field(
        default_factory=lambda: {
            LinkPowerMode.ACTIVE: 0.0,
            LinkPowerMode.PARTIAL: 10e-6,
            LinkPowerMode.SLUMBER: 10e-3,
        }
    )


class HostLink:
    """The device's host-facing data link.

    Attributes:
        bandwidth: Effective payload bandwidth (bytes/s) -- PCIe 3 x4 in the
            paper's testbed tops out near 3.2 GB/s, SATA 3 near 530 MB/s.
        transfer_power_w: Extra draw while a transfer streams.
    """

    #: Bound once: every transfer's entries name them.
    _handlers = ("_on_bus", "_streamed")

    def __init__(
        self,
        engine: Engine,
        rail: PowerRail,
        bandwidth: float,
        transfer_power_w: float,
        power_table: LinkPowerTable | None = None,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        if transfer_power_w < 0:
            raise ValueError("transfer power must be non-negative")
        self.engine = engine
        self.rail = rail
        self.bandwidth = bandwidth
        self.transfer_power_w = transfer_power_w
        self.power_table = power_table or LinkPowerTable()
        self.name = name
        self.mode = LinkPowerMode.ACTIVE
        self._bus = Resource(engine, capacity=1, name=f"{name}.bus")
        self._xfer_component = f"{name}.xfer"
        self._phy_component = f"{name}.phy"
        self.bytes_transferred = 0
        bind_handlers(self)
        self._apply_phy_power()

    def _apply_phy_power(self) -> None:
        self.rail.set_draw(
            self._phy_component, self.power_table.phy_power_w[self.mode]
        )

    def transfer_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def transfer_call(self, nbytes: int, then, arg=None) -> None:
        """Move ``nbytes`` across the link, then call ``then(arg)``.

        Takes the bus (one entry at the grant), wakes the link out of a
        low-power mode first, paying its exit latency, streams at link
        bandwidth drawing transfer power (one entry at the stream's end),
        releases the bus and calls ``then`` synchronously.
        """
        self._bus.request_call(self._on_bus, (nbytes, then, arg))

    def _on_bus(self, xfer) -> None:
        if self.mode is not LinkPowerMode.ACTIVE:
            drive_inline(self._wake(), self._stream, xfer)
        else:
            self._stream(xfer)

    def _stream(self, xfer) -> None:
        self.rail.add_draw(self._xfer_component, self.transfer_power_w)
        self.engine.schedule(xfer[0] / self.bandwidth, self._streamed, xfer)

    def _streamed(self, xfer) -> None:
        nbytes, then, arg = xfer
        self.bytes_transferred += nbytes
        self.rail.add_draw(self._xfer_component, -self.transfer_power_w)
        self._bus.release()
        then(arg)

    def _wake(self):
        exit_latency = self.power_table.exit_latency_s[self.mode]
        self.mode = LinkPowerMode.ACTIVE
        self._apply_phy_power()
        if exit_latency > 0:
            yield self.engine.timeout(exit_latency)

    def set_mode(self, mode: LinkPowerMode) -> None:
        """Immediately place the PHY in ``mode`` (ALPM decision).

        Higher-level protocol (transition transients, device-side state)
        lives in :mod:`repro.sata.alpm`; this just switches the PHY draw.
        """
        self.mode = mode
        self._apply_phy_power()
