"""The supported public surface of :mod:`repro`, in one place.

Import from here (or from the :mod:`repro` top level, which re-exports the
same names) rather than from submodules: everything below is covered by
the API-surface snapshot test (``tests/test_api_surface.py``) and the
README/examples import lint (``tools/check_api_surface.py``), so it cannot
change or disappear without a deliberate snapshot update.  Submodule paths
are implementation detail and may move between releases.

The surface in one screen::

    from repro.api import (
        ExperimentConfig, run_experiment,          # one experiment
        SweepGrid, ExecutionOptions, run_sweep,    # a grid of them
        PowerThroughputModel,                      # fit the paper's model
        run_demand_response, FleetModel,           # act on it
        Tracer, MetricsCollector, RunProfiler,     # observe any of it
        FaultPlan,                                 # and break it on purpose
    )
"""

from repro._units import GiB, KiB, MiB
from repro.core.asymmetric import AsymmetricPlan, AsymmetricPlanner
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.core.ledger import RunLedger
from repro.core.model import AdaptivePlan, ModelPoint, PowerThroughputModel
from repro.core.options import ExecutionOptions
from repro.core.parallel import (
    PointFailure,
    ResultCache,
    SweepExecutionError,
    run_configs,
)
from repro.core.redirection import (
    RedirectionDecision,
    RedirectionPolicy,
    StandbyProfile,
)
from repro.core.sweep import (
    SweepGrid,
    SweepOutcome,
    SweepPoint,
    run_sweep,
    sweep_outcome,
)
from repro.core.telemetry import (
    PointSpan,
    ProgressUpdate,
    SweepTelemetry,
    WorkerStats,
)
from repro.core.tiering import AbsorptionResult, WriteAbsorptionScenario
from repro.devices import DEVICE_PRESETS, build_device
from repro.devices.base import IOKind, IORequest, IOResult, StorageDevice
from repro.devices.link import LinkPowerMode
from repro.faults import (
    ActuatorFaultSpec,
    FaultInjector,
    FaultPlan,
    FaultSummary,
    SensorFaultSpec,
    parse_fault_plan,
    render_fault_plan,
)
from repro.fleet.api import BudgetAllocator, BudgetSplit, DeviceView
from repro.fleet.cluster import FleetResult, FleetSpec, run_fleet
from repro.fleet.governor import ClusterGovernor
from repro.fleet.model import FleetAllocation, FleetModel
from repro.iogen import IoPattern, JobSpec
from repro.nvme.cli import NvmeCli
from repro.obs import (
    BucketedHistogram,
    EventKind,
    MetricsCollector,
    MetricsRegistry,
    NullTracer,
    RunProfiler,
    SimEvent,
    SweepRollup,
    Tracer,
    merge_snapshots,
)
from repro.policy import (
    BudgetSchedule,
    FeedbackBudgetPolicy,
    HysteresisLadderPolicy,
    PolicySpec,
    PolicySummary,
    StaticCapPolicy,
    WatchdogSpec,
    build_policy,
)
from repro.power.adc import AdcConfig
from repro.power.meter import MeterConfig, PowerMeter
from repro.sata.alpm import AlpmController
from repro.sata.ata import (
    AtaPowerMode,
    check_power_mode,
    idle_immediate,
    standby_immediate,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.studies.common import DEFAULT, QUICK, StudyScale
from repro.studies.demand_response import DemandResponseResult, run_demand_response
from repro.studies.fig10 import build_model
from repro.validate import (
    InvariantViolationError,
    Tolerances,
    ValidationReport,
    Violation,
    validate_result,
)

__all__ = [
    "AbsorptionResult",
    "ActuatorFaultSpec",
    "AdaptivePlan",
    "AdcConfig",
    "AlpmController",
    "AsymmetricPlan",
    "AsymmetricPlanner",
    "AtaPowerMode",
    "BucketedHistogram",
    "BudgetAllocator",
    "BudgetSchedule",
    "BudgetSplit",
    "ClusterGovernor",
    "DEFAULT",
    "DEVICE_PRESETS",
    "DemandResponseResult",
    "DeviceView",
    "Engine",
    "EventKind",
    "ExecutionOptions",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultInjector",
    "FaultPlan",
    "FaultSummary",
    "FeedbackBudgetPolicy",
    "FleetAllocation",
    "FleetModel",
    "FleetResult",
    "FleetSpec",
    "GiB",
    "HysteresisLadderPolicy",
    "IOKind",
    "IORequest",
    "IOResult",
    "InvariantViolationError",
    "IoPattern",
    "JobSpec",
    "KiB",
    "LinkPowerMode",
    "MeterConfig",
    "MetricsCollector",
    "MetricsRegistry",
    "MiB",
    "ModelPoint",
    "NullTracer",
    "NvmeCli",
    "PointFailure",
    "PointSpan",
    "PolicySpec",
    "PolicySummary",
    "PowerMeter",
    "PowerThroughputModel",
    "ProgressUpdate",
    "QUICK",
    "RedirectionDecision",
    "RedirectionPolicy",
    "ResultCache",
    "RngStreams",
    "RunLedger",
    "RunProfiler",
    "SensorFaultSpec",
    "SimEvent",
    "StandbyProfile",
    "StaticCapPolicy",
    "StorageDevice",
    "StudyScale",
    "SweepExecutionError",
    "SweepGrid",
    "SweepOutcome",
    "SweepPoint",
    "SweepRollup",
    "SweepTelemetry",
    "Tolerances",
    "Tracer",
    "ValidationReport",
    "Violation",
    "WatchdogSpec",
    "WorkerStats",
    "WriteAbsorptionScenario",
    "build_device",
    "build_model",
    "build_policy",
    "check_power_mode",
    "idle_immediate",
    "merge_snapshots",
    "parse_fault_plan",
    "render_fault_plan",
    "run_configs",
    "run_demand_response",
    "run_experiment",
    "run_fleet",
    "run_sweep",
    "standby_immediate",
    "sweep_outcome",
    "validate_result",
]
