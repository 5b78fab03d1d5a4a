"""The weighting pipeline, report blocks, report assembly and artifact writers.

One loaded pipeline backs every survey subcommand: survey rows, expanded
design, solved baseline weights. Each ``*_block`` turns one stage's result
into its part of ``report.json``, and each ``write_*`` writes one artifact;
the CLI's stages build the results. Reports serialize deterministically
(sorted keys, no timestamps, shortest-round-trip floats) and validate
against the JSON schema shipped with the package.

Building the pipeline loads only the data, calibration and bias layers;
each block or writer below imports the layer it calls when it runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, TextIO

import numpy as np

from . import __version__
from .bias import ObservedScale
from .calibrate import (
    CalibrationProblem,
    WeightVector,
    balance_table,
    solve_raking,
    weighted_mean,
    weighted_se,
)
from .config import RunConfig
from .data import (
    SurveyFrame,
    apply_filters,
    build_features,
    load_margins,
    load_population_target,
    load_table,
    terms_from_config,
)
from .errors import ConfigError, SchemaError, SurveySenseError

if TYPE_CHECKING:  # the blocks below import these layers when they run
    from .benchmark import BenchmarkRecord
    from .bootstrap import BootstrapResult
    from .detect import DetectionReport
    from .partial import PartialSweep
    from .summary import ContourGrid

__all__ = [
    "Pipeline",
    "build_pipeline",
    "assemble_report",
    "canonical_json",
    "validate_report",
    "write_weights_csv",
    "write_balance_csv",
    "write_contour_csv",
    "write_benchmarks_csv",
    "write_sweep_csv",
]

SE_KIND = "approximate design-based"


@dataclass(frozen=True)
class Pipeline:
    """Everything downstream commands share after loading and weighting."""

    config: RunConfig
    frame: SurveyFrame
    problem: CalibrationProblem
    y: np.ndarray
    baseline: WeightVector

    @property
    def scale(self) -> ObservedScale:
        return ObservedScale.from_sample(self.y, self.baseline.values)


def load_survey(cfg: RunConfig) -> SurveyFrame:
    """The survey rows the config selects: the table, then its filters."""
    frame = load_table(cfg.survey, cfg.schema)
    return apply_filters(frame, list(cfg.filters)) if cfg.filters else frame


def build_pipeline(cfg: RunConfig) -> Pipeline:
    frame = load_survey(cfg)
    if frame.kind(cfg.outcome) == "categorical":
        raise ConfigError(
            f"outcome {cfg.outcome!r} is categorical; a numeric outcome is required"
        )

    needed = set(cfg.weighting_variables)
    for combo in cfg.interactions:
        needed.update(combo)
    if cfg.margins is not None:
        target = load_margins(cfg.margins)
    else:
        pop_schema = {v: cfg.schema[v] for v in sorted(needed)}
        target = load_population_target(
            cfg.population, pop_schema, weight_column=cfg.population_weight
        )

    terms = terms_from_config(
        list(cfg.weighting_variables), [list(c) for c in cfg.interactions]
    )
    base = frame.column(cfg.base_weight) if cfg.base_weight else None
    if base is not None and not np.all(np.asarray(base, dtype=np.float64) > 0):
        raise SchemaError(f"{cfg.survey}: base weight column {cfg.base_weight!r} must be positive")
    problem = build_features(frame, target, terms, base)
    baseline = solve_raking(problem)
    if not baseline.diagnostics.converged:
        raise SurveySenseError(
            "baseline calibration did not converge: "
            f"violation {baseline.diagnostics.max_violation:.3g}"
        )
    y = np.asarray(frame.column(cfg.outcome), dtype=np.float64)
    return Pipeline(config=cfg, frame=frame, problem=problem, y=y, baseline=baseline)


def _num(value: float) -> float | None:
    v = float(value)
    return v if np.isfinite(v) else None


def estimates_block(pipe: Pipeline) -> dict:
    ones = np.ones_like(pipe.y)
    return {
        "unweighted": {
            "value": float(pipe.y.mean()),
            "se": float(weighted_se(pipe.y, ones)),
        },
        "weighted": {
            "value": float(weighted_mean(pipe.y, pipe.baseline.values)),
            "se": float(weighted_se(pipe.y, pipe.baseline.values)),
        },
        "se_kind": SE_KIND,
    }


def calibration_block(pipe: Pipeline) -> dict:
    d = pipe.baseline.diagnostics
    return {
        "converged": bool(d.converged),
        "iterations": int(d.iterations),
        "max_violation": float(d.max_violation),
        "dual_norm": float(d.dual_norm),
        "newton_steps": int(d.newton_steps),
        "fallback_sweeps": int(d.fallback_sweeps),
        "columns": list(pipe.problem.column_names),
        "dropped_columns": list(d.dropped_columns),
    }


def balance_block(pipe: Pipeline) -> list[dict]:
    return [
        {
            "column": row["constraint"],
            "target": row["target"],
            "unweighted": row["unweighted"],
            "weighted": row["weighted"],
        }
        for row in balance_table(pipe.problem, pipe.baseline.values)
    ]


def robustness_block(pipe: Pipeline, b_star: float) -> dict:
    from .summary import RobustnessInput, robustness_value

    scale = pipe.scale
    gap = scale.mu_hat - b_star
    denom = scale.var_y * scale.var_w
    a = (gap * gap / denom) if denom > 0 else 0.0
    rv = robustness_value(
        RobustnessInput(
            mu_hat=scale.mu_hat, b_star=b_star, var_y=scale.var_y, var_w=scale.var_w
        )
    )
    if rv >= 1.0:
        raise ConfigError(f"b_star {b_star!r} is too far from the weighted estimate "
                          f"{scale.mu_hat!r}: the robustness value rounds to 1")
    return {"b_star": float(b_star), "gap": float(gap), "a": float(a), "rv": float(rv)}


def benchmarks_block(records: list[BenchmarkRecord]) -> list[dict]:
    return [
        {
            "label": r.label,
            "r2_raw": float(r.r2_raw),
            "r2": float(r.r2),
            "rho": float(r.rho),
            "est_bias": float(r.est_bias),
            "mrcs": None if r.mrcs is None else _num(r.mrcs),
            "rho_defined": bool(r.rho_defined),
            "converged": bool(r.converged),
        }
        for r in records
    ]


def contour_block(grid: ContourGrid) -> dict:
    from .summary import killer_region_area

    return {
        "rho_step": float(np.round(grid.rho_axis[1] - grid.rho_axis[0], 12)),
        "r2_step": float(np.round(grid.r2_axis[1] - grid.r2_axis[0], 12)),
        "r2_max": float(grid.r2_axis[-1]),
        "n_rho": int(grid.rho_axis.size),
        "n_r2": int(grid.r2_axis.size),
        "killer_area": float(killer_region_area(grid)),
        "csv": "contour.csv",
        "svg": "contour.svg",
    }


def sweep_block(sweep: PartialSweep) -> dict:
    return {
        "label": sweep.label,
        "baseline_t": float(sweep.baseline_t),
        "baseline_estimate": float(sweep.baseline_estimate),
        "points": [
            {
                "t_v": float(p.t_v),
                "estimate": _num(p.estimate),
                "se": _num(p.se),
                "feasible": bool(p.feasible),
                "converged": bool(p.converged),
                "is_baseline": bool(p.is_baseline),
            }
            for p in sweep.points
        ],
        "csv": "sweep.csv",
        "svg": "sweep.svg",
    }


def bootstrap_block(result: BootstrapResult) -> dict:
    return {
        "lower": float(result.lower),
        "upper": float(result.upper),
        "draws_kept": int(result.draws.size),
        "dropped": int(result.dropped),
        "dropped_by_reason": {k: int(v) for k, v in result.dropped_by_reason.items()},
        "n_draws": int(result.n_draws),
        "alpha": float(result.alpha),
        "rho": float(result.params.rho),
        "r2": float(result.params.r2),
        "reestimate": bool(result.reestimate),
    }


def assemble_report(
    pipe: Pipeline,
    config_sha256: str,
    *,
    robustness: dict | None = None,
    benchmarks: list[dict] | None = None,
    contour: dict | None = None,
    sweep: dict | None = None,
    detection: dict | None = None,
    bootstrap: dict | None = None,
) -> dict:
    import scipy

    report = {
        "schema_version": "1",
        "provenance": {
            "config_sha256": config_sha256,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "seed": int(pipe.config.seed),
        },
        "n_rows": int(pipe.frame.n),
        "estimates": estimates_block(pipe),
        "calibration": calibration_block(pipe),
        "balance": balance_block(pipe),
        "scale": {
            "var_y": float(pipe.scale.var_y),
            "var_w": float(pipe.scale.var_w),
            "mu_hat": float(pipe.scale.mu_hat),
        },
        "robustness": robustness,
        "benchmarks": benchmarks if benchmarks is not None else [],
        "contour": contour,
        "sweep": sweep,
        "detection": detection,
        "bootstrap": bootstrap,
    }
    validate_report(report)
    return report


def _schema() -> dict:
    text = (
        resources.files("surveysense") / "schemas" / "report.schema.json"
    ).read_text()
    return json.loads(text)


def validate_report(report: dict) -> None:
    """Schema validation; raises ``SchemaError`` with the failing path."""
    import jsonschema

    schema = _schema()  # checked against its metaschema by the tests, not per run
    validator = jsonschema.validators.validator_for(schema)(schema)
    err = jsonschema.exceptions.best_match(validator.iter_errors(report))
    if err is not None:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise SchemaError(f"report failed schema validation at {path}: {err.message}")


def canonical_json(obj: dict) -> str:
    """Deterministic serialization: sorted keys, fixed indent, no NaN."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_rows(out: Path | TextIO, header: list[str], rows: Iterable[Iterable]) -> None:
    """The one CSV writer for tables that hold names, into a file at ``out``
    or an open text stream: each field goes through ``_cell``, and
    ``csv.writer`` quotes a name holding the delimiter, a quote or ``\\n``,
    so that ``csv.reader`` gives the name back."""
    if isinstance(out, Path):
        with open(out, "w", newline="") as handle:
            return _write_rows(handle, header, rows)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)


def _cell(value) -> str:
    """A CSV field: None empty, a bool 1 or 0, a float its shortest repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_weights_csv(path: Path, pipe: Pipeline) -> None:
    # as in write_contour_csv, no int or float repr needs CSV quoting
    lines = ["row_id,weight"]
    lines += [
        f"{rid},{w!r}"
        for rid, w in zip(pipe.frame.row_ids.tolist(), pipe.baseline.values.tolist())
    ]
    path.write_text("\n".join(lines) + "\n", newline="")


def write_balance_csv(path: Path, pipe: Pipeline) -> None:
    _write_rows(path, ["column", "target", "unweighted", "weighted"],
                ([b["column"], b["target"], b["unweighted"], b["weighted"]]
                 for b in balance_block(pipe)))


def write_contour_csv(path: Path, grid: ContourGrid) -> None:
    # reprs of Python floats equal _cell's, and no field ever needs CSV quoting,
    # so this matches _write_rows byte for byte; one rho row is written at once
    r2_cells = list(map(repr, grid.r2_axis.tolist()))
    with open(path, "w", newline="") as handle:
        handle.write("rho,r2,bias,adjusted,killer\n")
        for rho_cell, bias_row, adj_row, kill_row in zip(
            map(repr, grid.rho_axis.tolist()), grid.bias, grid.adjusted, grid.killer_mask
        ):
            fields = zip(repeat(rho_cell), r2_cells, map(repr, bias_row.tolist()),
                         map(repr, adj_row.tolist()), map(("0", "1").__getitem__, kill_row.tolist()))
            handle.write("\n".join(map(",".join, fields)) + "\n")


def write_benchmarks_csv(path: Path, blocks: list[dict]) -> None:
    header = ["variable", "r2_raw", "r2", "rho", "est_bias", "mrcs"]
    keys = ["label", *header[1:]]
    _write_rows(path, header, ([b[key] for key in keys] for b in blocks))


def write_sweep_csv(path: Path, sweep: PartialSweep) -> None:
    _write_rows(
        path, ["t_v", "estimate", "se", "feasible", "converged", "is_baseline"],
        ([p.t_v, p.estimate, p.se, p.feasible, p.converged, p.is_baseline] for p in sweep.points),
    )


def write_detection_artifacts(out: Path, rep: DetectionReport) -> str:
    """Write detection.json and detection.dot; returns the JSON text."""
    from .detect import graph_to_dot

    text = canonical_json(rep.to_dict())
    (out / "detection.json").write_text(text)
    (out / "detection.dot").write_text(graph_to_dot(rep))
    return text
