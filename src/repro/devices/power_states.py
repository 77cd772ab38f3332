"""NVMe power states and the in-device power governor.

An NVMe power state caps the device's average power over any 10-second
window (NVM Express Base Spec, "Power Management").  Firmware enforces a cap
by rationing the operations that actually move power: NAND **program** and
**erase**.  Array reads draw an order of magnitude less and fit under any
operational cap, so firmware leaves them ungated -- this asymmetry is the
mechanism behind the paper's Figure 4 (write throughput collapses under
caps, read throughput barely moves).

:class:`PowerGovernor` implements that rationing as admission control over
"op power": each program/erase must be granted its average draw before it
may start, against a budget of ``cap - baseline``, where ``baseline`` is the
firmware's estimate of non-NAND power (idle + controller + interface).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.obs.events import EventKind
from repro.sim.engine import Engine, SimulationError

__all__ = ["NvmePowerState", "PowerGovernor"]


@dataclass(frozen=True)
class NvmePowerState:
    """One entry of an NVMe controller's power state table.

    Attributes:
        index: Power state number (ps0 is the highest-performance state).
        max_power_w: The cap (NVMe ``MP``), in watts.
        operational: ``False`` for idle states entered only when quiescent.
        entry_latency_s: NVMe ``ENLAT``.
        exit_latency_s: NVMe ``EXLAT``.
        idle_power_w: Device idle draw while resident in this state.
            For operational states this equals the device's normal idle.
    """

    index: int
    max_power_w: float
    operational: bool
    entry_latency_s: float
    exit_latency_s: float
    idle_power_w: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("power state index must be >= 0")
        if self.max_power_w <= 0 or self.idle_power_w < 0:
            raise ValueError("power figures must be positive")
        if self.entry_latency_s < 0 or self.exit_latency_s < 0:
            raise ValueError("latencies must be non-negative")


class PowerGovernor:
    """Admission control over power-hungry NAND operations.

    Grants are FIFO.  A grant of ``watts`` is allowed when the committed
    total plus ``watts`` fits the budget ``cap - (non-NAND power)``;
    otherwise the requester queues.  At least one operation is always
    admissible even if its draw alone exceeds the budget (a cap must not
    deadlock the device), mirroring real firmware behaviour where the cap
    is honoured on average.

    Two budgeting modes:

    - **feedback** (``other_power_fn`` given): the governor reads the
      device's live non-NAND power and budgets against it.  Because the
      controller/interface overhead shrinks together with the throughput
      the cap allows, this closed loop converges exactly to the trade-off
      the paper measures (seq-write ~74 %/~55 % under SSD2's ps1/ps2).
    - **static** (baseline only): a fixed firmware estimate of non-NAND
      power, kept as an ablation of the feedback design.

    Attributes:
        baseline_w: Firmware's static estimate of non-NAND device power.
        committed_w: Sum of currently granted op powers.
    """

    def __init__(
        self,
        engine: Engine,
        baseline_w: float,
        cap_w: Optional[float] = None,
        name: str = "governor",
        other_power_fn: Optional[Callable[[], float]] = None,
        headroom_w: float = 0.0,
    ) -> None:
        if baseline_w < 0:
            raise ValueError("baseline power must be non-negative")
        if headroom_w < 0:
            raise ValueError("headroom must be non-negative")
        self.engine = engine
        self.name = name
        self.baseline_w = baseline_w
        self.other_power_fn = other_power_fn
        self.headroom_w = headroom_w
        self._cap_w = cap_w
        self._intended_cap_w = cap_w
        self.committed_w = 0.0
        self.granted_ops = 0
        # Queued requests in FIFO order: (handler, arg, watts).
        self._waiters: Deque[tuple] = deque()
        engine.register_waiters(self._waiters)
        self.total_grants = 0
        self.total_stalls = 0
        self.failed = False
        self.throttle_scale = 1.0

    @property
    def cap_w(self) -> Optional[float]:
        """Active power cap; ``None`` means uncapped."""
        return self._cap_w

    @property
    def intended_cap_w(self) -> Optional[float]:
        """The cap the last Set Features command asked for.

        Equal to :attr:`cap_w` while the governor works; after
        :meth:`fail_unconstrained` it keeps tracking what firmware *should*
        be enforcing, so experiment accounting can report the violated cap
        (paper §4.1's failure hazard).
        """
        return self._intended_cap_w

    @property
    def budget_w(self) -> float:
        """Power currently available for NAND operations."""
        if self._cap_w is None:
            return float("inf")
        other = (
            self.other_power_fn()
            if self.other_power_fn is not None
            else self.baseline_w
        )
        return max(self._cap_w * self.throttle_scale - other - self.headroom_w, 0.0)

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def _admissible(self, watts: float) -> bool:
        if self.granted_ops == 0:
            return True  # never deadlock: one op always runs
        return self.committed_w + watts <= self.budget_w + 1e-12

    def request_call(self, watts: float, handler, arg=None) -> None:
        """Ask for ``watts`` of op power; ``handler(arg)`` runs on grant.

        Grants are FIFO.  The grant is an entry due at the instant of
        admission: at once when the request fits, else when a release or
        a cap change admits it.
        """
        if watts < 0:
            raise ValueError("op power must be non-negative")
        if not self._waiters and self._admissible(watts):
            self._grant(watts)
            self.engine.call_soon(handler, arg)
        else:
            self._stall(watts)
            self._waiters.append((handler, arg, watts))

    def _stall(self, watts: float) -> None:
        self.total_stalls += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.GOV_THROTTLE,
                self.name,
                watts=watts,
                queued=len(self._waiters) + 1,
                committed_w=self.committed_w,
            )

    def release(self, watts: float) -> None:
        """Return a grant and re-examine the queue."""
        if self.granted_ops <= 0:
            raise SimulationError(f"{self.name}: release without grant")
        self.granted_ops -= 1
        self.committed_w -= watts
        if -1e-9 < self.committed_w < 0 or (
            self.granted_ops == 0 and abs(self.committed_w) < 1e-9
        ):
            # Float round-off from repeated add/subtract cycles.
            self.committed_w = 0.0
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.GOV_RELEASE,
                self.name,
                watts=watts,
                committed_w=self.committed_w,
            )
        self._drain()

    def set_cap(self, cap_w: Optional[float]) -> None:
        """Change the active cap (entering a new power state).

        A failed governor (:meth:`fail_unconstrained`) records the intent
        but ignores the command -- the §4.1 failure mode where the device
        no longer responds to power control.
        """
        if cap_w is not None and cap_w <= 0:
            raise ValueError("cap must be positive or None")
        self._intended_cap_w = cap_w
        if self.failed:
            return
        self._cap_w = cap_w
        self._drain()

    def set_throttle(self, scale: float) -> None:
        """Derate the effective cap to ``scale`` x cap (thermal throttle)."""
        if not 0.0 < scale <= 1.0:
            raise ValueError("throttle scale must be in (0, 1]")
        self.throttle_scale = scale
        self._drain()

    def fail_unconstrained(self) -> None:
        """Stop enforcing the cap: the device reverts to uncapped draw.

        The paper-§4.1 hazard a :class:`~repro.core.safety.PowerDomain`
        must survive.  All queued admissions drain immediately and every
        later :meth:`set_cap` is ignored (only recorded as intent).
        """
        self.failed = True
        self._cap_w = None
        self._drain()

    def _grant(self, watts: float, queued: bool = False) -> None:
        self.committed_w += watts
        self.granted_ops += 1
        self.total_grants += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            # One admission event per request (not a request/grant pair):
            # governor traffic dominates a write-heavy trace, and the
            # queued flag preserves the only information a separate
            # request-time event would add.
            tracer.emit(
                EventKind.GOV_REQUEST,
                self.name,
                watts=watts,
                committed_w=self.committed_w,
                queued=queued,
            )

    def _drain(self) -> None:
        waiters = self._waiters
        while waiters and self._admissible(waiters[0][2]):
            handler, arg, watts = waiters.popleft()
            self._grant(watts, queued=True)
            self.engine.call_soon(handler, arg)
