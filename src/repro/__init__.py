"""repro -- a full reproduction of "Can Storage Devices be Power Adaptive?"

(Xie, Stavrinos, Zhu, Peter, Kasikci, Anderson -- HotStorage '24)

The paper is a hardware measurement study; this package rebuilds the entire
apparatus in simulation -- devices, power meter, workload generator -- and
the paper's contribution on top: per-device power-throughput models and the
power-adaptive storage policies they enable.

Quickstart::

    from repro import ExperimentConfig, IoPattern, JobSpec, run_experiment

    cfg = ExperimentConfig(
        device="ssd2",
        job=JobSpec(IoPattern.RANDWRITE, block_size=256 * 1024, iodepth=64),
    )
    result = run_experiment(cfg)
    print(result.summary())

The supported import surface is exactly :mod:`repro.api` (re-exported
here); anything deeper is implementation detail.  See DESIGN.md for the
full system inventory and EXPERIMENTS.md for the paper-versus-measured
record of every table and figure.
"""

from repro import api
from repro.api import *  # noqa: F403 -- the facade is repro.api.__all__

__version__ = "1.1.0"

__all__ = [*api.__all__, "__version__"]
