"""Discrete-event simulation kernel.

A small, dependency-free, simpy-style engine used as the substrate for all
device simulation in this project:

- :class:`~repro.sim.engine.Engine` -- the simulated clock, a heap of
  future ``(time, seq, handler, arg)`` entries and a FIFO of entries due
  now; hot paths schedule plain handlers.
- :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Timeout` --
  one-shot events processes can wait on.
- :class:`~repro.sim.process.Process` -- generator-based coroutines that
  ``yield`` events to wait for them; :func:`~repro.sim.process.drive_inline`
  runs one from a handler with ``yield from`` semantics, and
  :func:`~repro.sim.process.wait_call` is its mirror: an event, costing no
  entry, for a generator to wait on a handler-form call (a NAND page
  operation).
- :mod:`~repro.sim.resources` -- FIFO resources and gates used to model
  controllers, dies, buses and spin-up holds, each with an event form
  for processes and a handler form for handler chains.
- :class:`~repro.sim.trace.StepTrace` -- piecewise-constant time series used
  to record instantaneous power draw.
- :class:`~repro.sim.rng.RngStreams` -- deterministic, named random streams.

Simulated time is a float in **seconds**.
"""

from repro.sim.engine import Engine, Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.sim.resources import Gate, Resource
from repro.sim.rng import RngStreams
from repro.sim.trace import StepTrace

__all__ = [
    "Engine",
    "Event",
    "Gate",
    "Process",
    "Resource",
    "RngStreams",
    "SimulationError",
    "StepTrace",
    "Timeout",
]
