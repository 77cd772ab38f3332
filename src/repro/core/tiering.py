"""Tiered write absorption (paper section 4).

"In tiered storage, the longer standby/spin-up latencies of HDDs may be
masked by temporarily absorbing writes with SSDs."

:class:`WriteAbsorptionScenario` is an *event-driven* policy experiment on
real simulated devices, not a model-level estimate: an HDD tier sits in
standby when a write burst arrives.  Without absorption every write stalls
behind the multi-second spin-up; with absorption an SSD takes the burst at
microsecond latency while the HDD spins up in the background, and the data
is destaged sequentially afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import mib_per_s
from repro.devices.base import IOKind, IORequest
from repro.devices.catalog import build_device
from repro.iogen.stats import LatencyStats
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

__all__ = ["AbsorptionResult", "WriteAbsorptionScenario"]


@dataclass(frozen=True)
class AbsorptionResult:
    """Outcome of one burst delivery.

    Attributes:
        absorbed: Whether the SSD absorbed the burst.
        burst_latency: Client-visible write latencies during the burst.
        burst_duration_s: Time to complete the whole burst.
        destage_duration_s: Time to move absorbed data to the HDD after
            spin-up (0 when not absorbed).
        hdd_spinups: Spin-ups the scenario triggered.
    """

    absorbed: bool
    burst_latency: LatencyStats
    burst_duration_s: float
    destage_duration_s: float
    hdd_spinups: int

    def describe(self) -> str:
        from repro._units import fmt_duration

        mode = "SSD-absorbed" if self.absorbed else "direct-to-HDD"
        return (
            f"{mode}: burst took {fmt_duration(self.burst_duration_s)}, "
            f"write p99 {fmt_duration(self.burst_latency.p99)}, "
            f"max {fmt_duration(self.burst_latency.max)}"
            + (
                f", destage {fmt_duration(self.destage_duration_s)}"
                if self.absorbed
                else ""
            )
        )


class WriteAbsorptionScenario:
    """A two-tier (SSD + HDD) write burst against a spun-down HDD.

    Args:
        ssd_preset / hdd_preset: Device presets for the two tiers.
        burst_bytes: Total size of the write burst.
        chunk_bytes: Size of each client write.
        seed: Determinism root.
    """

    def __init__(
        self,
        ssd_preset: str = "ssd1",
        hdd_preset: str = "hdd",
        burst_bytes: int = 8 << 20,
        chunk_bytes: int = 256 << 10,
        seed: int = 0,
    ) -> None:
        if burst_bytes < chunk_bytes:
            raise ValueError("burst must hold at least one chunk")
        self.ssd_preset = ssd_preset
        self.hdd_preset = hdd_preset
        self.burst_bytes = burst_bytes
        self.chunk_bytes = chunk_bytes
        self.seed = seed

    def run(self, absorb: bool) -> AbsorptionResult:
        """Deliver the burst with or without SSD absorption."""
        engine = Engine()
        rngs = RngStreams(self.seed)
        ssd = build_device(engine, self.ssd_preset, rng=rngs)
        hdd = build_device(engine, self.hdd_preset)

        latencies: list[float] = []
        burst_span: list[float] = [0.0, 0.0]
        destage_span: list[float] = [0.0, 0.0]

        def deliver():
            burst_span[0] = engine.now
            n_chunks = self.burst_bytes // self.chunk_bytes
            target = ssd if absorb else hdd
            if absorb:
                # Start waking the HDD immediately, in the background.
                engine.process(hdd.exit_standby())
            for i in range(n_chunks):
                offset = i * self.chunk_bytes
                t0 = engine.now
                result = yield target.submit(
                    IORequest(IOKind.WRITE, offset, self.chunk_bytes)
                )
                latencies.append(result.latency)
            burst_span[1] = engine.now
            if absorb:
                # Destage sequentially once the HDD is up.
                yield hdd.spindle.ready_gate.wait_open()
                destage_span[0] = engine.now
                for i in range(n_chunks):
                    offset = i * self.chunk_bytes
                    yield hdd.submit(
                        IORequest(IOKind.WRITE, offset, self.chunk_bytes)
                    )
                # Wait for the HDD cache to fully drain: destage is done
                # when the data is on the platters.
                while not hdd.cache.is_empty:
                    yield engine.timeout(1e-2)
                destage_span[1] = engine.now

        try:
            # Put the HDD tier into standby first (cache is empty, so this
            # is just the spin-down).
            engine.run_until_complete(engine.process(hdd.enter_standby()))
            engine.run_until_complete(engine.process(deliver()))
            return AbsorptionResult(
                absorbed=absorb,
                burst_latency=LatencyStats.from_latencies(latencies),
                burst_duration_s=burst_span[1] - burst_span[0],
                destage_duration_s=max(destage_span[1] - destage_span[0], 0.0),
                hdd_spinups=hdd.spindle.spinups,
            )
        finally:
            engine.close()
            ssd.close()
            hdd.close()

    def compare(self) -> tuple[AbsorptionResult, AbsorptionResult]:
        """Run both variants; returns (direct, absorbed)."""
        return self.run(absorb=False), self.run(absorb=True)
