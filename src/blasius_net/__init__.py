"""Sigmoid-network solver for the flat-plate boundary-layer equation.

The third-order two-point problem y''' + (1/2) y y'' = 0, y(0) = y'(0) = 0,
y'(far) = 1 is solved directly (no first-order reduction) by gradient descent
on a collocation loss over a trial solution built around a small sigmoid
network.  Classical oracles (wall power series, RK4 shooting) and bundled
reference tables provide independent validation.
"""

from .network import NetworkParams, ParamGradient, input_derivative, param_gradient
from .trial import TrialMode, TrialSpec, trial_derivative, trial_param_gradient, trial_value
from .problem import (
    DEFAULT_PENALTY_WEIGHT,
    CollocationGrid,
    LossEvaluator,
    LossReport,
    loss,
    loss_gradient,
)
from .training import (
    MOMENTUM_COEFF,
    AllRunsDivergedError,
    TrainingConfig,
    TrainingDivergedError,
    TrainingRun,
    XorShift64Star,
    best_run,
    init_params,
    multi_run,
    seed_sweep,
    train,
)
from .oracles import (
    IntegrationError,
    SeriesCoefficients,
    SeriesNotConvergedError,
    rk4_profile,
    series_coefficients,
    series_eval,
    series_tail_estimate,
    shoot,
)
from .profiles import SolutionProfile, format_float, read_profile_csv, write_profile_csv
from .tables import (
    PrintedError,
    ReferenceColumn,
    ReferenceTable,
    available_table_ids,
    fixtures_dir,
    load_table,
    parse_printed_error,
)
from .report import ComparisonRow, TableJoinError, compare, evaluate_profile, relative_error
from .gradcheck import GradCheckResult, fd_param_gradient, run_gradient_checks
from .model_io import (
    MODEL_HEADER,
    ModelFormatError,
    ModelVersionError,
    load_model,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkParams", "ParamGradient", "input_derivative", "param_gradient",
    "TrialMode", "TrialSpec", "trial_value", "trial_derivative", "trial_param_gradient",
    "DEFAULT_PENALTY_WEIGHT", "CollocationGrid", "LossEvaluator", "LossReport",
    "loss", "loss_gradient",
    "MOMENTUM_COEFF", "TrainingConfig", "TrainingRun",
    "TrainingDivergedError", "AllRunsDivergedError", "XorShift64Star",
    "init_params", "train", "seed_sweep", "best_run", "multi_run",
    "SeriesCoefficients", "SeriesNotConvergedError", "IntegrationError",
    "series_coefficients", "series_eval", "series_tail_estimate", "rk4_profile", "shoot",
    "SolutionProfile", "format_float", "write_profile_csv", "read_profile_csv",
    "PrintedError", "ReferenceColumn", "ReferenceTable", "parse_printed_error",
    "fixtures_dir", "available_table_ids", "load_table",
    "ComparisonRow", "TableJoinError", "relative_error", "evaluate_profile", "compare",
    "GradCheckResult", "fd_param_gradient", "run_gradient_checks",
    "MODEL_HEADER", "ModelFormatError", "ModelVersionError", "save_model", "load_model",
    "__version__",
]
