"""kscreen: model-free feature screening for high-dimensional tabular data.

The headline statistic is the regularized kernel canonical correlation of
each feature with the response, computed from centered Gaussian-kernel Gram
matrices, each held as a low-rank pivoted-Cholesky factor; HSIC, distance
correlation, and absolute Pearson correlation are provided as baselines
sharing the same rank-and-select pipeline.  A seeded Monte Carlo harness
benchmarks the methods on synthetic suites, and the ``kscreen`` CLI screens
real CSV data.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    DataError,
    DegenerateDataError,
    DegenerateDataWarning,
    KScreenError,
    NumericError,
    NumericGuardWarning,
    TuningError,
    UnsupportedMethodError,
)
from .kernels import (
    DEFAULT_TOL_REL,
    Bandwidth,
    CenteredGram,
    DataMatrix,
    bandwidth,
    center,
    center_and_decompose,
    centered_distances,
    gaussian_kernel,
    gram,
)
from .measures import (
    Method,
    dcor_score,
    hsic_score,
    kcca_singular_value,
    pearson_score,
)
from .tuning import GCV_GRID, RidgeSelection, gcv_value, select_epsilon
from .screening import (
    ScreeningResult,
    ThresholdRule,
    auto_threshold,
    rank_by_score,
    screen,
)
from .simulation import (
    SIM1_ACTIVE,
    SIM1_CONSTANTS,
    MetricsReport,
    ModelInstance,
    SimulationSpec,
    ar_gaussian,
    default_d_values,
    gen_sim1,
    gen_sim2,
    min_model_size,
    run_suite,
)
from .dataio import json_dumps, load_csv

__all__ = [
    "__version__",
    "ArgumentError",
    "DataError",
    "DegenerateDataError",
    "DegenerateDataWarning",
    "KScreenError",
    "NumericError",
    "NumericGuardWarning",
    "TuningError",
    "UnsupportedMethodError",
    "DEFAULT_TOL_REL",
    "Bandwidth",
    "CenteredGram",
    "DataMatrix",
    "bandwidth",
    "center",
    "center_and_decompose",
    "centered_distances",
    "gaussian_kernel",
    "gram",
    "Method",
    "dcor_score",
    "hsic_score",
    "kcca_singular_value",
    "pearson_score",
    "GCV_GRID",
    "RidgeSelection",
    "gcv_value",
    "select_epsilon",
    "ScreeningResult",
    "ThresholdRule",
    "auto_threshold",
    "rank_by_score",
    "screen",
    "SIM1_ACTIVE",
    "SIM1_CONSTANTS",
    "MetricsReport",
    "ModelInstance",
    "SimulationSpec",
    "ar_gaussian",
    "default_d_values",
    "gen_sim1",
    "gen_sim2",
    "min_model_size",
    "run_suite",
    "json_dumps",
    "load_csv",
]
