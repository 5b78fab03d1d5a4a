"""Run configuration: one JSON file driving every subcommand.

Strict parsing: unknown keys are rejected so typos fail loudly instead
of silently running defaults. The decision threshold has no default on
purpose; commands that need it refuse to run without one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .data import _FILTER_OPS, KINDS
from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "config_from_dict"]

_TOP_KEYS = {
    "survey", "columns", "outcome", "out", "margins", "population",
    "weighting", "b_star", "grid", "sweep", "benchmark", "bootstrap",
    "detection", "filters", "seed",
}


def is_penalty(lam: Any) -> bool:
    """The rule of ``detection.lambda`` and the graph fit's ``lam``."""
    if isinstance(lam, str):
        return lam == "cv"
    return (isinstance(lam, (int, float)) and not isinstance(lam, bool)
            and math.isfinite(lam) and lam > 0)


def check_seed(seed: Any) -> int:
    """A seed every random stream takes: an int, not a bool, in uint64's range."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), not {seed!r}")
    return seed


@dataclass(frozen=True)
class RunConfig:
    survey: str
    schema: dict[str, str]
    outcome: str
    weighting_variables: tuple[str, ...]
    out: str = "surveysense-out"
    margins: str | None = None
    population: str | None = None
    population_weight: str | None = None
    interactions: tuple[tuple[str, ...], ...] = ()
    base_weight: str | None = None
    b_star: float | None = None
    rho_step: float = 0.01
    r2_step: float = 0.005
    r2_max: float = 0.95
    sweep_variable: str | None = None
    sweep_grid: tuple[float, ...] | None = None
    benchmark_covariates: tuple[str, ...] | None = None
    bootstrap_draws: int = 1000
    bootstrap_alpha: float = 0.05
    bootstrap_rho: float = 0.0
    bootstrap_r2: float = 0.0
    bootstrap_reestimate: bool = True
    detection_sampling_set: tuple[str, ...] = ()
    detection_partial: tuple[str, ...] = ()
    detection_lambda: float | str = "cv"
    filters: tuple[dict, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not self.survey:
            raise ConfigError("a survey file path is required")
        if (self.margins is None) == (self.population is None):
            raise ConfigError("exactly one of margins/population must be given")
        for name, kind in self.schema.items():
            if kind not in KINDS:
                raise ConfigError(f"column {name!r} has unknown kind {kind!r}")
        if self.outcome not in self.schema:
            raise ConfigError(f"outcome {self.outcome!r} missing from columns")
        if not self.weighting_variables:
            raise ConfigError("at least one weighting variable is required")
        known = set(self.schema)
        for group, names in (
            ("weighting", self.weighting_variables),
            ("benchmark", self.benchmark_covariates or ()),
            ("detection sampling set", self.detection_sampling_set),
        ):
            stray = [v for v in names if v not in known]
            if stray:
                raise ConfigError(f"{group} variables missing from columns: {stray}")
        for combo in self.interactions:
            stray = [v for v in combo if v not in known]
            if stray:
                raise ConfigError(f"interaction variables missing from columns: {stray}")
        if self.sweep_variable is not None and self.sweep_variable not in known:
            raise ConfigError(
                f"sweep variable {self.sweep_variable!r} missing from columns"
            )
        stray = [v for v in self.detection_partial
                 if v not in set(self.detection_sampling_set)]
        if stray:
            raise ConfigError(
                f"partial variables must belong to the detection sampling set: {stray}"
            )
        if self.base_weight is not None and self.base_weight not in known:
            raise ConfigError(f"base weight column {self.base_weight!r} missing from columns")
        if self.b_star is not None and not math.isfinite(self.b_star):
            raise ConfigError("b_star must be finite")
        for i, spec in enumerate(self.filters):  # in a tuple, a list op or column cannot raise
            if not (isinstance(spec, dict) and set(spec) == {"column", "op", "value"}
                    and spec["op"] in tuple(_FILTER_OPS) and spec["column"] in tuple(known)):
                raise ConfigError(
                    f"filters[{i}] must be an object with exactly column (a declared one), "
                    f"op ({' '.join(_FILTER_OPS)}) and value, not {spec!r}"
                )
        draws, again = self.bootstrap_draws, self.bootstrap_reestimate
        if isinstance(draws, bool) or not isinstance(draws, int):
            raise ConfigError(f"bootstrap.draws must be an integer, not {draws!r}")
        if not isinstance(again, bool):
            raise ConfigError(f"bootstrap.reestimate must be true or false, not {again!r}")
        check_seed(self.seed)
        if self.bootstrap_draws < 1:
            raise ConfigError("bootstrap draws must be at least 1")
        if not 0.0 < self.bootstrap_alpha < 1.0:
            raise ConfigError("bootstrap alpha must lie in (0, 1)")
        if not (0 < self.rho_step <= 1 and 0 < self.r2_step <= 1):
            raise ConfigError("grid steps must lie in (0, 1]")
        if not 0.0 < self.r2_max < 1.0:
            raise ConfigError("r2_max must lie in (0, 1)")
        lam = self.detection_lambda
        if not is_penalty(lam):
            raise ConfigError(f'detection.lambda must be "cv" or a positive number, not {lam!r}')

    def require_b_star(self) -> float:
        """Commands that interpret bias must be told the threshold."""
        if self.b_star is None:
            raise ConfigError(
                "b_star is required for this command; set it in the config "
                "(it is a substantive choice with no default)"
            )
        return self.b_star

    def with_overrides(
        self,
        *,
        out: str | None = None,
        seed: int | None = None,
    ) -> "RunConfig":
        changes: dict[str, Any] = {}
        if out is not None:
            changes["out"] = out
        if seed is not None:
            changes["seed"] = seed
        return replace(self, **changes) if changes else self


def _expect(block: Any, keys: set[str], where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block).difference(keys)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return block


def _str_list(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of strings")
    return tuple(value)


def config_from_dict(raw: dict) -> RunConfig:
    _expect(raw, _TOP_KEYS, "config")
    try:
        survey = raw["survey"]
        columns = raw["columns"]
        outcome = raw["outcome"]
        weighting = raw["weighting"]
    except KeyError as err:
        raise ConfigError(f"config is missing required key {err.args[0]!r}") from err
    _expect(columns, set(columns), "columns")  # type check only
    if not all(isinstance(v, str) for v in columns.values()):
        raise ConfigError("columns must map names to kind strings")

    weighting = _expect(weighting, {"variables", "interactions", "base_weight"}, "weighting")
    variables = _str_list(weighting.get("variables", []), "weighting.variables")
    interactions = tuple(
        _str_list(combo, "weighting.interactions entry")
        for combo in weighting.get("interactions", [])
    )

    population = raw.get("population")
    pop_path = pop_weight = None
    if population is not None:
        if isinstance(population, str):
            pop_path = population
        else:
            block = _expect(population, {"path", "weight"}, "population")
            pop_path = block.get("path")
            pop_weight = block.get("weight")
            if pop_path is None:
                raise ConfigError("population.path is required")

    grid = _expect(raw.get("grid", {}), {"rho_step", "r2_step", "r2_max"}, "grid")
    sweep = _expect(raw.get("sweep", {}), {"variable", "grid"}, "sweep")
    sweep_grid = sweep.get("grid")
    if sweep_grid is not None:
        if not isinstance(sweep_grid, list) or not all(
            isinstance(v, (int, float)) for v in sweep_grid
        ):
            raise ConfigError("sweep.grid must be a list of numbers")
        sweep_grid = tuple(float(v) for v in sweep_grid)
    bench = _expect(raw.get("benchmark", {}), {"covariates"}, "benchmark")
    covariates = bench.get("covariates")
    boot = _expect(
        raw.get("bootstrap", {}),
        {"draws", "alpha", "rho", "r2", "reestimate"},
        "bootstrap",
    )
    det = _expect(
        raw.get("detection", {}), {"sampling_set", "partial", "lambda"}, "detection"
    )
    filters = raw.get("filters", [])
    if not isinstance(filters, list):
        raise ConfigError("filters must be a list")

    try:
        return RunConfig(
            survey=survey,
            schema=dict(columns),
            outcome=outcome,
            out=raw.get("out", "surveysense-out"),
            margins=raw.get("margins"),
            population=pop_path,
            population_weight=pop_weight,
            weighting_variables=variables,
            interactions=interactions,
            base_weight=weighting.get("base_weight"),
            b_star=None if raw.get("b_star") is None else float(raw["b_star"]),
            rho_step=float(grid.get("rho_step", 0.01)),
            r2_step=float(grid.get("r2_step", 0.005)),
            r2_max=float(grid.get("r2_max", 0.95)),
            sweep_variable=sweep.get("variable"),
            sweep_grid=sweep_grid,
            benchmark_covariates=None if covariates is None
            else _str_list(covariates, "benchmark.covariates"),
            bootstrap_draws=boot.get("draws", 1000),
            bootstrap_alpha=float(boot.get("alpha", 0.05)),
            bootstrap_rho=float(boot.get("rho", 0.0)),
            bootstrap_r2=float(boot.get("r2", 0.0)),
            bootstrap_reestimate=boot.get("reestimate", True),
            detection_sampling_set=_str_list(
                det.get("sampling_set", []), "detection.sampling_set"
            ),
            detection_partial=_str_list(det.get("partial", []), "detection.partial"),
            detection_lambda=det.get("lambda", "cv"),
            filters=tuple(filters),
            seed=raw.get("seed", 0),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid config value: {err}") from err


def load_config(path: str) -> tuple[RunConfig, str]:
    """Parse a JSON config; returns (config, sha256 of the file bytes).

    Input paths (survey, margins, population) resolve relative to the
    config file's directory, so a generated bundle stays portable. The
    output directory stays relative to the working directory.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    cfg = config_from_dict(raw)
    base = Path(path).resolve().parent

    def _resolve(p: str | None) -> str | None:
        if p is None or Path(p).is_absolute():
            return p
        return str(base / p)

    cfg = replace(
        cfg,
        survey=_resolve(cfg.survey),
        margins=_resolve(cfg.margins),
        population=_resolve(cfg.population),
    )
    return cfg, hashlib.sha256(blob).hexdigest()
