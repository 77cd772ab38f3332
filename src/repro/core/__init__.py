"""The paper's primary contribution.

Everything in this package corresponds to sections 3.3 and 4 of the paper:

- :mod:`~repro.core.experiment` -- one measurement: a device, a workload,
  a power-control configuration; returns power, throughput and latency.
- :mod:`~repro.core.sweep` -- the full mechanism grid (chunk sizes x queue
  depths x power states x patterns) behind every figure.
- :mod:`~repro.core.parallel` -- worker-pool execution of experiment
  batches: deterministic ordering, per-point failure capture, an on-disk
  result cache keyed by config content hash.
- :mod:`~repro.core.model` -- the per-device power-throughput model
  (Fig. 10): normalized operating points, dynamic range, configuration
  queries under power budgets.
- :mod:`~repro.core.pareto` -- Pareto frontiers over operating points.
- :mod:`~repro.core.adaptive` -- the single-device planner of the paper's
  worked example (find a config meeting a power cut with minimal
  throughput loss; compute curtailable best-effort load).
- :mod:`~repro.core.redirection` -- power-aware IO redirection (section 4).
- :mod:`~repro.core.asymmetric` -- asymmetric read/write segregation.
- :mod:`~repro.core.tiering` -- tiered write absorption during spin-up.
- :mod:`~repro.core.reporting` -- text tables for benches/EXPERIMENTS.md.

Extensions past the paper's evaluation (its section-4 sketches, built):

- :mod:`~repro.core.latency_model` -- the power-*latency* model.
- :mod:`~repro.core.controller` -- an online feedback controller tracking
  a time-varying power budget on live simulated devices.
- :mod:`~repro.core.safety` -- breaker-safe staged rollout (section 4.1).
- :mod:`~repro.core.interactions` -- CPU-throttle interaction analysis.
"""

from repro.core.adaptive import AdaptivePlan, PowerAdaptivePlanner
from repro.core.controller import BudgetSignal, OnlinePowerController
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.latency_model import LatencyPoint, PowerLatencyModel
from repro.core.model import ModelPoint, PowerThroughputModel
from repro.core.parallel import (
    PointFailure,
    ResultCache,
    SweepExecutionError,
    config_content_hash,
    run_configs,
)
from repro.core.pareto import pareto_frontier
from repro.core.sweep import SweepGrid, SweepOutcome, run_sweep, sweep_outcome

__all__ = [
    "AdaptivePlan",
    "BudgetSignal",
    "ExperimentConfig",
    "ExperimentResult",
    "LatencyPoint",
    "ModelPoint",
    "OnlinePowerController",
    "PointFailure",
    "PowerAdaptivePlanner",
    "PowerLatencyModel",
    "PowerThroughputModel",
    "ResultCache",
    "SweepExecutionError",
    "SweepGrid",
    "SweepOutcome",
    "config_content_hash",
    "pareto_frontier",
    "run_configs",
    "run_sweep",
    "sweep_outcome",
]
