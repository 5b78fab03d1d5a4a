"""Weighting diagnostics for non-probability surveys.

Calibration weighting with an entropy objective, sensitivity analysis
for confounders the weights miss (robustness values, bias contours,
benchmarking against observed covariates, margin sweeps for partially
observed ones), graph-based screening of which variables need weighting,
and percentile-bootstrap uncertainty, all behind one deterministic CLI.
"""

__version__ = "0.1.0"

from .bias import (
    ObservedScale,
    SensitivityParams,
    adjusted_estimate,
    bias,
    decompose,
    error_vector,
)
from .benchmark import (
    BenchmarkRecord,
    benchmark,
    benchmark_subset,
    benchmark_table,
    loo_weights,
    min_k,
    mrcs,
    scaled_params,
)
from .bootstrap import BootstrapResult, bootstrap_interval
from .calibrate import (
    CalibrationProblem,
    RakingDiagnostics,
    WeightVector,
    balance_table,
    entropy_divergence,
    oracle_ipw,
    solve_many,
    solve_raking,
    weighted_mean,
    weighted_se,
)
from .config import RunConfig, load_config
from .cover import SeparatingSetResult, solve_separating_set
from .data import (
    Design,
    FeatureTerm,
    MarginTarget,
    PopulationTarget,
    SurveyFrame,
    apply_filters,
    build_features,
    frame_from_columns,
    load_margins,
    load_population_target,
    load_table,
    terms_from_config,
)
from .detect import DetectionReport, detect
from .errors import (
    ConfigError,
    DetectionError,
    InfeasibleTargetsError,
    RankDeficiencyError,
    SchemaError,
    SurveySenseError,
)
from .mrf import MixedGraph, fit_mrf
from .partial import (
    PartialSweep,
    SweepPoint,
    binary_grid,
    partial_ipw_error,
    partial_sweep,
    standardized_grid,
)
from .paths import PathMatrix, enumerate_paths
from .summary import (
    ContourGrid,
    RobustnessInput,
    boundary_r2,
    contour_grid,
    killer_region_area,
    robustness_value,
)
from .svg import render_contour, render_sweep

__all__ = [
    "__version__",
    "ObservedScale",
    "SensitivityParams",
    "adjusted_estimate",
    "bias",
    "decompose",
    "error_vector",
    "BenchmarkRecord",
    "benchmark",
    "benchmark_subset",
    "benchmark_table",
    "loo_weights",
    "min_k",
    "mrcs",
    "scaled_params",
    "BootstrapResult",
    "bootstrap_interval",
    "CalibrationProblem",
    "RakingDiagnostics",
    "WeightVector",
    "balance_table",
    "entropy_divergence",
    "oracle_ipw",
    "solve_many",
    "solve_raking",
    "weighted_mean",
    "weighted_se",
    "RunConfig",
    "load_config",
    "SeparatingSetResult",
    "solve_separating_set",
    "Design",
    "FeatureTerm",
    "MarginTarget",
    "PopulationTarget",
    "SurveyFrame",
    "apply_filters",
    "build_features",
    "frame_from_columns",
    "load_margins",
    "load_population_target",
    "load_table",
    "terms_from_config",
    "DetectionReport",
    "detect",
    "ConfigError",
    "DetectionError",
    "InfeasibleTargetsError",
    "RankDeficiencyError",
    "SchemaError",
    "SurveySenseError",
    "MixedGraph",
    "fit_mrf",
    "PartialSweep",
    "SweepPoint",
    "binary_grid",
    "partial_ipw_error",
    "partial_sweep",
    "standardized_grid",
    "PathMatrix",
    "enumerate_paths",
    "ContourGrid",
    "RobustnessInput",
    "boundary_r2",
    "contour_grid",
    "killer_region_area",
    "robustness_value",
    "render_contour",
    "render_sweep",
]
