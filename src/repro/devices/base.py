"""Host-visible storage device interface.

All device models expose the same minimal contract the measurement harness
and the workload engine need:

- :meth:`StorageDevice.submit` -- asynchronous IO submission returning an
  event that fires with an :class:`IOResult`; :meth:`StorageDevice.
  submit_call` is its handler form (a callback, passed the completion
  time, instead of an event).  Both go through the device's one
  ``_submit`` and end in the shared :meth:`StorageDevice._complete`, so
  the two forms deliver a result from the same queue position.
- power control entry points (``set_power_state``, ``enter_standby``,
  ``exit_standby``), each a process generator because transitions take
  simulated time.

Devices draw all power on their :class:`~repro.power.rail.PowerRail`, which
is where the simulated measurement chain attaches.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

from repro.faults.injector import NULL_INJECTOR
from repro.obs.events import EventKind
from repro.power.rail import PowerRail
from repro.sim.engine import Engine, Event, bind_handlers, unbind_handlers
from repro.sim.process import drive_inline

__all__ = ["HostIO", "IOKind", "IORequest", "IOResult", "StorageDevice"]


class IOKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True, init=False)
class IORequest:
    """One host IO.

    Attributes:
        kind: Read or write.
        offset: Starting byte offset on the device.
        nbytes: Transfer length in bytes.
    """

    kind: IOKind
    offset: int
    nbytes: int

    def __init__(self, kind: IOKind, offset: int, nbytes: int) -> None:
        # Written out (init=False): the fio workers build one request per
        # simulated IO, and the generated __init__ (three
        # object.__setattr__ calls, then __post_init__) costs about twice
        # what setting the slots through their descriptors does.
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        _set_kind(self, kind)
        _set_offset(self, offset)
        _set_nbytes(self, nbytes)

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


_set_kind = IORequest.kind.__set__
_set_offset = IORequest.offset.__set__
_set_nbytes = IORequest.nbytes.__set__


@dataclass(frozen=True, slots=True)
class IOResult:
    """Completion record for one IO.

    Attributes:
        request: The originating request.
        submit_time: Simulated time the device accepted the IO.
        complete_time: Simulated completion time.
    """

    request: IORequest
    submit_time: float
    complete_time: float

    @property
    def latency(self) -> float:
        return self.complete_time - self.submit_time


class HostIO:
    """One host command while a device's handlers run it: ``done`` is
    :meth:`StorageDevice.submit`'s event, else ``None`` and ``on_done``
    is the :meth:`StorageDevice.submit_call` callback."""

    __slots__ = ("request", "done", "on_done", "submit_time")

    def __init__(self, request: IORequest, done, on_done) -> None:
        self.request = request
        self.done = done
        self.on_done = on_done
        self.submit_time = 0.0


class StorageDevice(abc.ABC):
    """Common behaviour of all simulated drives."""

    #: Handler methods that per-IO entries and continuations name, bound
    #: once per device (:func:`~repro.sim.engine.bind_handlers`).
    _handlers: tuple[str, ...] = ()

    def __init__(
        self, engine: Engine, name: str, rail_voltage: float, faults=None
    ) -> None:
        bind_handlers(self)
        self.engine = engine
        self.name = name
        self.rail = PowerRail(engine, voltage=rail_voltage, name=f"{name}.rail")
        # Fault sites guard on ``self.faults.enabled``; the null injector
        # makes the clean path one attribute load per site.
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.ios_completed = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- IO ------------------------------------------------------------------

    def submit(self, request: IORequest) -> Event:
        """Submit an IO; the returned event fires with an :class:`IOResult`."""
        done = Event(self.engine)
        self._submit(request, done, None)
        return done

    def submit_call(self, request: IORequest, on_done) -> None:
        """Submit an IO; ``on_done(complete_time)`` runs when it completes.

        Runs at the instant, and in the queue position, where a process
        waiting on :meth:`submit`'s event would resume.
        """
        self._submit(request, None, on_done)

    @abc.abstractmethod
    def _submit(self, request: IORequest, done, on_done) -> None:
        """Validate and start one IO; it ends in :meth:`_complete`."""

    def _accept(self, io: HostIO, then) -> None:
        """Stamp and trace an IO at its start entry, pay any fault delay
        (a cold generator, driven inline), then ``then(io)``."""
        engine = self.engine
        io.submit_time = engine._now
        request = io.request
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.IO_SUBMIT,
                f"{self.name}.io",
                kind=request.kind.value,
                offset=request.offset,
                nbytes=request.nbytes,
            )
        if self.faults.enabled:
            drive_inline(
                self.faults.io_delay(f"{self.name}.io", request.kind.value), then, io
            )
        else:
            then(io)

    def _complete(self, io: HostIO) -> None:
        """Account and trace a finished IO, then deliver its result: the
        event's entry, or an ``on_done`` entry in the same queue position."""
        engine = self.engine
        request = io.request
        self.ios_completed += 1
        if request.kind is IOKind.READ:
            self.bytes_read += request.nbytes
        else:
            self.bytes_written += request.nbytes
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.IO_COMPLETE,
                f"{self.name}.io",
                kind=request.kind.value,
                nbytes=request.nbytes,
                latency_s=engine._now - io.submit_time,
            )
        if io.done is not None:
            io.done.succeed(IOResult(request, io.submit_time, engine._now))
        else:
            engine.call_soon(io.on_done, engine._now)

    @property
    @abc.abstractmethod
    def capacity_bytes(self) -> int:
        """Addressable logical capacity."""

    def check_request(self, request: IORequest) -> None:
        """Validate a request against the device's address space."""
        if request.end > self.capacity_bytes:
            raise ValueError(
                f"{self.name}: IO [{request.offset}, {request.end}) exceeds "
                f"capacity {self.capacity_bytes}"
            )

    def close(self) -> None:
        """Break the reference cycles this device holds, once its run is
        over and its engine closed: the handlers bound into its own
        ``__dict__`` (subclasses add their components' cycles).  Its
        rail, counters and state stay readable."""
        unbind_handlers(self)

    # -- power control ----------------------------------------------------------

    def set_power_state(self, index: int):
        """Process generator: select a device power state (NVMe-style).

        Devices without power states raise ``NotImplementedError`` -- the
        SATA devices in the study are controlled via ALPM/standby instead.
        """
        raise NotImplementedError(f"{self.name} has no power states")
        yield  # pragma: no cover - makes this a generator for subclasses

    def enter_standby(self):
        """Process generator: enter the device's lowest-power resident state."""
        raise NotImplementedError(f"{self.name} has no standby mode")
        yield  # pragma: no cover

    def exit_standby(self):
        """Process generator: return to the active/idle state."""
        raise NotImplementedError(f"{self.name} has no standby mode")
        yield  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
