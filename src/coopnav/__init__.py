"""Cooperative network localization: sigma-point belief propagation over a
simulated ultra-wideband ranging network, with threshold-based channel-access
activation and information-driven measurement allocation."""

from .config import ACRONYMS, ScenarioConfig, load_scenario, save_scenario
from .errors import (
    ConfigError,
    CoopnavError,
    DegenerateGeometryError,
    EstimationFailureError,
    InvalidArgumentError,
    NumericFailureError,
    RangingError,
    SimulationError,
)
from .harness import Comparison, MetricReport, compare, evaluate, replicate
from .model import GaussianBelief, MotionModel
from .simkernel import RunRecord, RunResult, Simulation, run

__version__ = "0.1.0"

__all__ = [
    "ACRONYMS",
    "Comparison",
    "ConfigError",
    "CoopnavError",
    "DegenerateGeometryError",
    "EstimationFailureError",
    "GaussianBelief",
    "InvalidArgumentError",
    "MetricReport",
    "MotionModel",
    "NumericFailureError",
    "RangingError",
    "RunRecord",
    "RunResult",
    "ScenarioConfig",
    "Simulation",
    "SimulationError",
    "compare",
    "evaluate",
    "load_scenario",
    "replicate",
    "run",
    "save_scenario",
]
