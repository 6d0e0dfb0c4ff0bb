"""Linear SVM training via iteratively-reweighted least squares.

Each update minimizes a convex quadratic surrogate of the penalized risk, so
the monitored risk decreases at every iteration. All 12 combinations of the
hinge / least-squares / squared-hinge / logistic losses with 2-norm / 1-norm /
elastic-net penalties are supported.

The names below are the public API that README documents; the building
blocks behind them live in the submodules.
"""

from .core import (
    Dataset,
    FitResult,
    Loss,
    ModelParams,
    Monitor,
    Penalty,
    RiskSpec,
    TerminationReason,
    monitor_kind,
    predict,
    predict_batch,
)
from .data_io import (
    DataError,
    generate_gaussian_mixture,
    load_dataset_csv,
    read_model,
    read_trajectory_csv,
    write_dataset_csv,
    write_model,
    write_trajectory_csv,
)
from .engine import FitError, FitOptions, Init, fit, risk, smoothed_risk

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "Dataset",
    "FitError",
    "FitOptions",
    "FitResult",
    "Init",
    "Loss",
    "ModelParams",
    "Monitor",
    "Penalty",
    "RiskSpec",
    "TerminationReason",
    "fit",
    "generate_gaussian_mixture",
    "load_dataset_csv",
    "monitor_kind",
    "predict",
    "predict_batch",
    "read_model",
    "read_trajectory_csv",
    "risk",
    "smoothed_risk",
    "write_dataset_csv",
    "write_model",
    "write_trajectory_csv",
]
