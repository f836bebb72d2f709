"""Multi-target tracking in clutter.

Simulated radar-style scenarios, a shared constant-velocity Kalman filter,
three interchangeable association engines (gated global-nearest-neighbour,
JPDA, and a learned LSTM), OSPA/identity-switch/timing metrics, and a
reproducible Monte Carlo benchmark harness.
"""

__version__ = "0.1.0"

from .domain import (  # noqa: E402
    CLUTTER,
    Assignment,
    AssocProbabilities,
    CapacityError,
    ComplexityError,
    ConfigError,
    ContractViolation,
    CostMatrix,
    ModelFormatError,
    NumericalError,
    Region,
    Scan,
    ScenarioConfig,
    ToolkitError,
    Track,
    TrackSet,
    five_crossing_targets,
    hard_assignment_from_probs,
)
from .kalman import FilterParams, predict, update_weighted
from .assoc import GateParams, hungarian, jpda
from .scenario import GroundTruth, TrainingSet, generate_scans, generate_truth, make_training_set
from .deepda import (
    LstmModel,
    NetConfig,
    NormStats,
    TrainConfig,
    forward_scan,
    load_model,
    rmsprop_step,
    save_model,
    train,
)
from .metrics import OspaParams, ospa, stti, timed
from .bench import BenchReport, BenchSpec, emit_report, run_episode, run_grid

__all__ = [
    "__version__",
    "CLUTTER",
    "Assignment",
    "AssocProbabilities",
    "BenchReport",
    "BenchSpec",
    "CapacityError",
    "ComplexityError",
    "ConfigError",
    "ContractViolation",
    "CostMatrix",
    "FilterParams",
    "GateParams",
    "GroundTruth",
    "LstmModel",
    "ModelFormatError",
    "NetConfig",
    "NormStats",
    "NumericalError",
    "OspaParams",
    "Region",
    "Scan",
    "ScenarioConfig",
    "ToolkitError",
    "Track",
    "TrackSet",
    "TrainConfig",
    "TrainingSet",
    "emit_report",
    "five_crossing_targets",
    "forward_scan",
    "generate_scans",
    "generate_truth",
    "hard_assignment_from_probs",
    "hungarian",
    "jpda",
    "load_model",
    "make_training_set",
    "ospa",
    "predict",
    "rmsprop_step",
    "run_episode",
    "run_grid",
    "save_model",
    "stti",
    "timed",
    "train",
    "update_weighted",
]
