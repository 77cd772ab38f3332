"""Per-channel data bus model.

Each flash channel is a shared bus between the controller and the dies
hanging off it.  Page data must cross the bus once per operation (out for
programs, in for reads), taking ``bytes / bandwidth`` during which the bus
is held exclusively and the interface logic draws transfer power.  The
array's page operations (:class:`~repro.nand.die.NandArray`) hold the bus
and draw that power; this class is the bus's state.

The bus is what couples *IO size* to *power*: larger IOs keep channels
streaming a larger fraction of the time, raising average interface power --
one leg of the paper's IO-shaping mechanism (Fig. 8).
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.resources import Resource

__all__ = ["ChannelBus"]


class ChannelBus:
    """One flash channel's shared data bus.

    Attributes:
        bandwidth: Transfer rate in bytes/second (e.g. 1.2 GB/s for a
            modern ONFI/Toggle interface).
        transfer_power_w: Interface power drawn while a transfer streams.
        bytes_transferred: Page data moved so far.
    """

    def __init__(
        self,
        engine: Engine,
        channel_index: int,
        bandwidth: float,
        transfer_power_w: float,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("channel bandwidth must be positive")
        if transfer_power_w < 0:
            raise ValueError("transfer power must be non-negative")
        self.index = channel_index
        self.bandwidth = bandwidth
        self.transfer_power_w = transfer_power_w
        self._bus = Resource(engine, capacity=1, name=f"chan{channel_index}")
        self._component = f"chan{channel_index}.xfer"
        self.bytes_transferred = 0

    def transfer_time(self, nbytes: int) -> float:
        """Bus occupancy for ``nbytes`` of page data."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return nbytes / self.bandwidth

    @property
    def busy(self) -> bool:
        return self._bus.in_use > 0

    @property
    def queued(self) -> int:
        return self._bus.queued
