"""Weighting diagnostics for non-probability surveys.

Calibration weighting with an entropy objective, sensitivity analysis
for confounders the weights miss (robustness values, bias contours,
benchmarking against observed covariates, margin sweeps for partially
observed ones), graph-based screening of which variables need weighting,
and percentile-bootstrap uncertainty, all behind one deterministic CLI.

``import surveysense`` loads none of the layer modules. Each public name
below resolves on first use by importing the module that defines it
(PEP 562), so a CLI subcommand pays only for the layers it runs. Names are
looked up on every access, not cached in the package.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: the public names, by the module that defines them
_EXPORTS = {
    "bias": "ObservedScale SensitivityParams adjusted_estimate bias decompose error_vector",
    "benchmark": "BenchmarkRecord benchmark benchmark_subset benchmark_table loo_weights "
    "min_k mrcs scaled_params",
    "bootstrap": "BootstrapResult bootstrap_interval",
    "calibrate": "CalibrationProblem RakingDiagnostics WeightVector balance_table "
    "entropy_divergence oracle_ipw solve_many solve_raking weighted_mean weighted_se",
    "config": "RunConfig load_config",
    "cover": "SeparatingSetResult solve_separating_set",
    "data": "MarginTarget PopulationTarget SurveyFrame apply_filters build_features "
    "frame_from_columns load_margins load_population_target load_table terms_from_config",
    "detect": "DetectionReport detect",
    "errors": "ConfigError DetectionError InfeasibleTargetsError RankDeficiencyError "
    "SchemaError SurveySenseError",
    "mrf": "MixedGraph fit_mrf",
    "partial": "PartialSweep SweepPoint binary_grid partial_ipw_error partial_sweep "
    "standardized_grid",
    "paths": "PathMatrix enumerate_paths",
    "summary": "ContourGrid RobustnessInput boundary_r2 contour_grid killer_region_area "
    "robustness_value",
    "svg": "render_contour render_sweep",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package module. A submodule is bound as a package attribute when
    it first loads; for ``bias``, ``benchmark`` and ``detect`` that binding
    is dropped, so those names stay the functions they export."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
