"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro._units import MiB
from repro.devices.power_states import NvmePowerState
from repro.devices.ssd import ControllerConfig, SimulatedSSD, SsdConfig
from repro.ftl.gc import GcConfig
from repro.nand.geometry import NandGeometry
from repro.nand.ops import NandPower, NandTimings
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


def drive(engine: Engine, process) -> object:
    """Run the engine until ``process`` completes.

    Returns the process's value, or raises its exception if it failed.
    """
    process.add_callback(lambda event: None)  # observe (possible) failure
    while process.is_alive:
        engine.step()
    if not process.ok:
        raise process.value
    return process.value


class Grant:
    """A grant handler for ``PowerGovernor.request_call``: ``triggered``
    once the grant's entry has run."""

    triggered = False

    def __call__(self, _arg) -> None:
        self.triggered = True


@pytest.fixture
def engine() -> Engine:
    return Engine()


# -- study results shared across test files ------------------------------
#
# A figure driver is deterministic from its scale, so each is run once per
# session and shared by every test that only reads its result.


@pytest.fixture(scope="session")
def fig2_result():
    """Fig. 2 at its one, fixed size (~6 s): the study takes no scale."""
    from repro.studies import fig2

    return fig2.run()


@pytest.fixture(scope="session")
def fig8_quick():
    from repro.studies import fig8
    from repro.studies.common import QUICK

    return fig8.run(QUICK)


@pytest.fixture(scope="session")
def fig9_quick():
    from repro.studies import fig9
    from repro.studies.common import QUICK

    return fig9.run(QUICK)


@pytest.fixture
def rngs() -> RngStreams:
    return RngStreams(seed=1234)


def tiny_ssd_config(**overrides) -> SsdConfig:
    """A small, fast SSD config for unit tests.

    4 channels x 2 dies, 16 KiB pages, tiny blocks so GC is reachable in a
    test, cheap controller.  Tests override fields via kwargs.
    """
    defaults = dict(
        name="tiny",
        geometry=NandGeometry(
            channels=4,
            dies_per_channel=2,
            planes_per_die=1,
            blocks_per_plane=8,
            pages_per_block=8,
            page_size=16 * 1024,
        ),
        # t_read deliberately off the 20 kHz meter grid (50 us) so sampled
        # power does not phase-lock with op boundaries.
        timings=NandTimings(t_read=47e-6, t_program=300e-6, t_erase=2e-3),
        nand_power=NandPower(p_read=0.05, p_program=0.3, p_erase=0.25),
        channel_bandwidth=1.0e9,
        channel_transfer_power_w=0.2,
        link_bandwidth=2.0e9,
        link_transfer_power_w=0.5,
        controller=ControllerConfig(
            cores=2,
            command_time_s=5e-6,
            core_active_power_w=0.4,
            idle_power_w=1.0,
            completion_time_s=2e-6,
        ),
        dram_power_w=0.3,
        write_buffer_bytes=1 * MiB,
        power_states=(
            NvmePowerState(0, 20.0, True, 0.0, 0.0, 1.5),
            NvmePowerState(1, 3.5, True, 20e-6, 20e-6, 1.5),
            NvmePowerState(2, 2.8, True, 20e-6, 20e-6, 1.5),
            NvmePowerState(3, 20.0, False, 1e-3, 2e-3, 0.4),
        ),
        governor_baseline_w=1.5,
        governor_headroom_w=0.6,
        # Generous OP: the tiny array (64 blocks) must leave GC enough
        # garbage margin above its reserve + watermarks to make progress.
        overprovision=0.4,
        gc=GcConfig(low_watermark=4, high_watermark=8),
        maintenance_programs=0,
    )
    defaults.update(overrides)
    return SsdConfig(**defaults)


@pytest.fixture
def tiny_ssd(engine: Engine, rngs: RngStreams) -> SimulatedSSD:
    return SimulatedSSD(engine, tiny_ssd_config(), rng=rngs)
