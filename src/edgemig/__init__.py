"""Planning, orchestration and simulation for stateful edge migrations.

The package splits into a worst-case cost model (:mod:`edgemig.model`),
workload profiling and parameter calibration (:mod:`edgemig.profiler`),
the orchestration decision logic (:mod:`edgemig.orchestrator`), the
protocol state machines (:mod:`edgemig.agents`), a deterministic
discrete-event simulator (:mod:`edgemig.simnet`), scenario file handling
(:mod:`edgemig.scenario`) and a command-line front end
(:mod:`edgemig.cli`).
"""

from .errors import (
    CalibrationError,
    DomainError,
    ScenarioError,
)
from .model import (
    BYTES_PER_S_PER_MBPS,
    DEFAULT_ITERATION_CAP,
    DEFAULT_PAGE_SIZE,
    Kpis,
    ModelParams,
    MsProfile,
    StrategyChoice,
    StrategyKind,
    cold_kpis,
    frame_loss,
    max_iterations,
    min_bandwidth,
    precopy_kpis,
)
from .orchestrator import (
    BandwidthDistribution,
    MetricsView,
    MigrationConfig,
    MigrationTask,
    Objective,
    StrategyDistribution,
    design,
    strategy_distribution,
)
from .profiler import (
    CalibrationFit,
    CalibrationRun,
    DirtyRateEstimate,
    DirtySample,
    calibration_fit,
    estimate_dirty_rate,
)
from .scenario import (
    Scenario,
    SweepSpec,
    load_scenario,
    parse_scenario,
)
from .simnet import (
    DelayRule,
    DropRule,
    MigrationOutcome,
    dirty_set_size,
    plan_from_scenario,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthDistribution",
    "BYTES_PER_S_PER_MBPS",
    "CalibrationError",
    "CalibrationFit",
    "CalibrationRun",
    "DEFAULT_ITERATION_CAP",
    "DEFAULT_PAGE_SIZE",
    "DelayRule",
    "DirtyRateEstimate",
    "DirtySample",
    "DomainError",
    "DropRule",
    "Kpis",
    "MetricsView",
    "MigrationConfig",
    "MigrationOutcome",
    "MigrationTask",
    "ModelParams",
    "MsProfile",
    "Objective",
    "Scenario",
    "ScenarioError",
    "StrategyChoice",
    "StrategyDistribution",
    "StrategyKind",
    "SweepSpec",
    "calibration_fit",
    "cold_kpis",
    "design",
    "dirty_set_size",
    "estimate_dirty_rate",
    "frame_loss",
    "load_scenario",
    "max_iterations",
    "min_bandwidth",
    "parse_scenario",
    "plan_from_scenario",
    "precopy_kpis",
    "run_scenario",
    "strategy_distribution",
]
