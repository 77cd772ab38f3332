"""NAND flash substrate.

Models the part of an SSD below the FTL:

- :class:`~repro.nand.geometry.NandGeometry` -- channel/die/plane/block/page
  organization and physical addressing.
- :class:`~repro.nand.ops.NandTimings` / :class:`~repro.nand.ops.NandPower`
  -- per-operation service times and power draws.  These are the physical
  root cause of every trend the paper measures: program operations are an
  order of magnitude more power-hungry than reads, which is why power caps
  throttle writes but barely touch reads (paper Fig. 4).
- :class:`~repro.nand.die.NandDie` / :class:`~repro.nand.die.NandArray` --
  the die state machines, drawing power on the device rail while busy,
  and the array's handler-form read, program and erase operations that
  host IO, garbage collection and housekeeping all run.
- :class:`~repro.nand.onfi.ChannelBus` -- the shared per-channel data bus
  whose transfer time couples IO size to service time.
"""

from repro.nand.die import NandArray, NandDie
from repro.nand.geometry import NandGeometry, PhysicalPageAddress
from repro.nand.onfi import ChannelBus
from repro.nand.ops import NandPower, NandTimings, OpKind

__all__ = [
    "ChannelBus",
    "NandArray",
    "NandDie",
    "NandGeometry",
    "NandPower",
    "NandTimings",
    "OpKind",
    "PhysicalPageAddress",
]
