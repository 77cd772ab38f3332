"""Shared fixtures for the core-model suites.

The analytic-model tests (policies, pareto, latency, fleet) all need
small hand-built operating-point models.  Those used to live as
module-level constants in each file; they are immutable and identical
for every test, so they belong here as session-scoped fixtures: built
once, shared everywhere, and impossible to shadow or mutate by accident
from a test module.

Local ``mk(...)`` helpers stay in the files that generate *ad hoc*
points (hypothesis strategies, SLO edge cases); only the shared
constants moved.
"""

import pytest

from repro.core.model import ModelPoint, PowerThroughputModel
from repro.core.redirection import StandbyProfile
from repro.core.sweep import SweepPoint
from repro.iogen.spec import IoPattern


def _model_point(power, tput, latency=1e-3, bs=4096, qd=1, ps=None):
    return ModelPoint(
        SweepPoint(IoPattern.RANDWRITE, bs, qd, ps),
        power_w=power,
        throughput_bps=tput,
        latency_p99_s=latency,
        latency_mean_s=latency,
    )


def _latency_point(power, mean_lat, p99, tput=100e6):
    return ModelPoint(
        SweepPoint(IoPattern.RANDWRITE, 4096, 1, None),
        power_w=power,
        throughput_bps=tput,
        latency_p99_s=p99,
        latency_mean_s=mean_lat,
    )


@pytest.fixture(scope="session")
def write_model():
    """A write-path model: throughput saturates hard above 10 W."""
    return PowerThroughputModel(
        "w",
        [
            _model_point(5.0, 100e6),
            _model_point(10.0, 800e6),
            _model_point(15.0, 1000e6),
        ],
    )


@pytest.fixture(scope="session")
def read_model():
    """A read-path model: cheaper and much faster than the write path."""
    return PowerThroughputModel(
        "r",
        [
            _model_point(5.0, 200e6),
            _model_point(7.0, 2000e6),
            _model_point(9.0, 3000e6),
        ],
    )


@pytest.fixture(scope="session")
def ssd_standby():
    """SSD-like standby: milliseconds to wake."""
    return StandbyProfile(
        standby_power_w=0.8, wake_latency_s=5e-3, idle_power_w=5.0
    )


@pytest.fixture(scope="session")
def hdd_standby():
    """HDD-like standby: a spin-up takes seconds."""
    return StandbyProfile(
        standby_power_w=1.1, wake_latency_s=8.0, idle_power_w=3.76
    )


@pytest.fixture(scope="session")
def pareto_points():
    """Five points, one (12 W / 400 MB) dominated by the 10 W point."""
    return [
        _model_point(5.0, 100e6),
        _model_point(8.0, 500e6),
        _model_point(10.0, 900e6),
        _model_point(14.0, 1000e6),
        _model_point(12.0, 400e6),  # dominated
    ]


@pytest.fixture(scope="session")
def latency_points():
    """Four latency points, one (10 W) with a worse tail at more power."""
    return [
        _latency_point(5.0, 2e-3, 10e-3, tput=50e6),
        _latency_point(8.0, 0.5e-3, 2e-3, tput=500e6),
        _latency_point(12.0, 0.2e-3, 0.8e-3, tput=900e6),
        _latency_point(10.0, 1.5e-3, 9e-3, tput=300e6),  # dominated
    ]


@pytest.fixture(scope="session")
def adaptive_model():
    """The planner/fleet model: four states, 5-12 W, 100-1000 MB/s."""
    return PowerThroughputModel(
        "dev",
        [
            _model_point(5.0, 100e6),
            _model_point(8.0, 600e6),
            _model_point(10.0, 900e6),
            _model_point(12.0, 1000e6),
        ],
    )
