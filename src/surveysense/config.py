"""Run configuration: one JSON file driving every subcommand.

Strict parsing: unknown keys are rejected so typos fail loudly instead
of silently running defaults. The decision threshold has no default on
purpose; commands that need it refuse to run without one.

Each key is one row of ``_KEYS``: its path, its ``RunConfig`` field and the
reader that applies its own rule; rules tying keys together are in ``__post_init__``.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .data import _FILTER_OPS, KINDS
from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "config_from_dict"]

#: most (rho, R2) points the contour grid may hold; the default grid has 38,391
MAX_GRID_POINTS = 1_000_000


def _is_number(value: Any) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(number: int | float) -> bool:
    """Not ``NaN`` or ``Infinity``, which ``json`` reads, nor an int past float's range."""
    return abs(number) <= sys.float_info.max


def is_penalty(lam: Any) -> bool:
    """The rule of ``detection.lambda`` and the graph fit's ``lam``."""
    if isinstance(lam, str):
        return lam == "cv"
    return _is_number(lam) and _is_finite(lam) and lam > 0


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
    weighting_variables: tuple[str, ...] = ()
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
        if (self.margins is None) == (self.population is None):
            raise ConfigError("exactly one of margins/population must be given")
        if self.outcome not in self.schema:
            raise ConfigError(f"outcome {self.outcome!r} missing from columns")
        if not self.weighting_variables:  # a weighting block may leave variables out
            raise ConfigError("at least one weighting variable is required")
        known = set(self.schema)
        if self.sweep_variable is not None and self.sweep_variable not in known:
            raise ConfigError(f"sweep variable {self.sweep_variable!r} missing from columns")
        if self.base_weight is not None and self.base_weight not in known:
            raise ConfigError(f"base weight column {self.base_weight!r} missing from columns")
        enforced = set(self.weighting_variables).union(*self.interactions)  # the calibrated ones
        for names, allowed, message in (
            (self.weighting_variables, known, "weighting variables missing from columns"),
            (self.benchmark_covariates or (), known, "benchmark variables missing from columns"),
            (self.detection_sampling_set, known,
             "detection sampling set variables missing from columns"),
            *((combo, known, "interaction variables missing from columns")
              for combo in self.interactions),
            (self.detection_partial, set(self.detection_sampling_set),
             "partial variables must belong to the detection sampling set"),
            (self.benchmark_covariates or (), enforced,
             "benchmark.covariates must be weighting variables"),
            (self.detection_sampling_set, known - {self.outcome},
             "detection.sampling_set must not hold the outcome"),
            (() if self.sweep_variable is None else (self.sweep_variable,),
             known - enforced - {self.outcome},
             "sweep.variable must be neither a weighting variable nor the outcome"),
            (() if self.sweep_variable is None else (self.sweep_variable,),
             {v for v in known if self.schema[v] != "categorical"},
             "sweep.variable must be binary or continuous"),
        ):
            stray = [v for v in names if v not in allowed]
            if stray:
                raise ConfigError(f"{message}: {stray}")
        for i, spec in enumerate(self.filters):  # in a tuple, a list op or column cannot raise
            if not (isinstance(spec, dict) and set(spec) == {"column", "op", "value"}
                    and spec["op"] in tuple(_FILTER_OPS) and spec["column"] in tuple(known)):
                raise ConfigError(
                    f"filters[{i}] must be an object with exactly column (a declared one), "
                    f"op ({' '.join(_FILTER_OPS)}) and value, not {spec!r}"
                )
            numeric = self.schema[spec["column"]] != "categorical"
            if not numeric and spec["op"] not in ("==", "!="):
                raise ConfigError(f"filters[{i}] op {spec['op']!r} needs a numeric column, "
                                  f"{spec['column']!r} is categorical")
            if numeric and not _is_number(spec["value"]):
                raise ConfigError(f"filters[{i}] value must be a number for numeric column "
                                  f"{spec['column']!r}, not {spec['value']!r}")
            if numeric and not _is_finite(spec["value"]):
                raise ConfigError(f"filters[{i}] value must be finite, not {spec['value']!r}")
        axes = (2.0 / self.rho_step, self.r2_max / self.r2_step)  # as contour_grid rounds them
        if math.prod(round(min(n, MAX_GRID_POINTS)) + 1 for n in axes) > MAX_GRID_POINTS:
            raise ConfigError(f"grid.rho_step {self.rho_step!r} and grid.r2_step {self.r2_step!r} "
                              f"make a contour grid over the cap of {MAX_GRID_POINTS:,} points")
        check_seed(self.seed)

    def require_b_star(self) -> float:
        """Commands that interpret bias must be told the threshold."""
        if self.b_star is None:
            raise ConfigError(
                "b_star is required for this command; set it in the config "
                "(it is a substantive choice with no default)"
            )
        return self.b_star


def _rule(*checks, convert=None):
    """A reader, (value, JSON path) -> field value: each ``(test, message)`` must hold
    in turn, then ``convert`` applies; a message may show {path} and the value {0!r}."""
    def read(value, path):
        for test, message in checks:
            if not test(value):
                raise ConfigError(message.format(value, path=path))
        return value if convert is None else convert(value)
    return read


def _number(test, message: str):
    """A JSON number for which ``test`` holds, as a float."""
    return _rule((_is_number, "{path} must be a number, not {0!r}"), (test, message),
                 convert=float)


def _or_null(read):
    """``read``, but a JSON null reads as None, the field's unset value."""
    return lambda value, path: None if value is None else read(value, path)


def _columns(value: Any, path: str) -> dict[str, str]:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    if not all(isinstance(v, str) for v in value.values()):
        raise ConfigError(f"{path} must map names to kind strings")
    for name, kind in value.items():
        if kind not in KINDS:
            raise ConfigError(f"column {name!r} has unknown kind {kind!r}")
    return dict(value)


_TEXT = (lambda v: isinstance(v, str), "{path} must be a string, not {0!r}")
_NAME = _rule(_TEXT)  # a file path or a column name
_STRINGS = _rule((lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                  "{path} must be a list of strings"), convert=tuple)
_LIST = _rule((lambda v: isinstance(v, list), "{path} must be a list, not {0!r}"))
_STEP = _number(lambda v: 0 < v <= 1, "grid steps must lie in (0, 1]")

#: one row per key: its JSON path ("block.key" inside a block), the RunConfig
#: field it sets, and its reader (None: the value as it is)
_KEYS = (
    ("survey", "survey", _rule(_TEXT, (bool, "a survey file path is required"))),
    ("columns", "schema", _columns),
    ("outcome", "outcome", _NAME),
    ("out", "out", _NAME),
    ("margins", "margins", _or_null(_NAME)),
    ("population.path", "population", _rule((lambda v: v is not None, "{path} is required"),
                                            _TEXT)),
    ("population.weight", "population_weight", _or_null(_NAME)),
    ("weighting.variables", "weighting_variables", _STRINGS),
    ("weighting.interactions", "interactions", lambda value, path: tuple(
        _STRINGS(combo, f"{path} entry") for combo in _LIST(value, path))),
    ("weighting.base_weight", "base_weight", _or_null(_NAME)),
    ("b_star", "b_star", _or_null(_number(  # the robustness value squares a = gap²/(var_y·var_w)
        lambda v: abs(v) <= 1e50, "b_star must be finite and within ±1e50, not {0!r}"))),
    ("grid.rho_step", "rho_step", _STEP),
    ("grid.r2_step", "r2_step", _STEP),
    ("grid.r2_max", "r2_max", _number(lambda v: 0 < v < 1, "r2_max must lie in (0, 1)")),
    ("sweep.variable", "sweep_variable", _or_null(_NAME)),
    ("sweep.grid", "sweep_grid", _or_null(_rule(
        (lambda v: isinstance(v, list) and all(map(_is_number, v)),
         "{path} must be a list of numbers"),
        (lambda v: all(map(_is_finite, v)), "{path} entries must be finite, not {0!r}"),
        convert=lambda v: tuple(map(float, v))))),
    ("benchmark.covariates", "benchmark_covariates", _or_null(_STRINGS)),
    ("bootstrap.draws", "bootstrap_draws",  # an int, never a bool
     _rule((lambda v: type(v) is int, "{path} must be an integer, not {0!r}"),
           (lambda v: v >= 1, "bootstrap draws must be at least 1"))),
    ("bootstrap.alpha", "bootstrap_alpha",
     _number(lambda v: 0 < v < 1, "bootstrap alpha must lie in (0, 1)")),
    ("bootstrap.rho", "bootstrap_rho",
     _number(lambda v: -1 <= v <= 1, "{path} must lie in [-1, 1], not {0!r}")),
    ("bootstrap.r2", "bootstrap_r2",
     _number(lambda v: 0 <= v < 1, "{path} must lie in [0, 1), not {0!r}")),
    ("bootstrap.reestimate", "bootstrap_reestimate",
     _rule((lambda v: isinstance(v, bool), "{path} must be true or false, not {0!r}"))),
    ("detection.sampling_set", "detection_sampling_set", _STRINGS),
    ("detection.partial", "detection_partial", _STRINGS),
    ("detection.lambda", "detection_lambda",
     _rule((is_penalty, '{path} must be "cv" or a positive number, not {0!r}'))),
    ("filters", "filters", _rule((lambda v: isinstance(v, list), "{path} must be a list"),
                                 convert=tuple)),
    ("seed", "seed", None),  # checked on the field: --seed sets it after parsing
)

#: the keys each level allows: "config" for the top level, then each block
_LEVELS: dict[str, set[str]] = {}
for _path, _, _ in _KEYS:
    _top, _, _key = _path.rpartition(".")
    _LEVELS.setdefault(_top or "config", set()).add(_key)
_LEVELS["config"] |= _LEVELS.keys() - {"config"}

#: keys the config must hold, then a key its block must hold when the block is given
_REQUIRED = ("survey", "columns", "outcome", "weighting", "population.path")


def _expect(block: Any, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block).difference(_LEVELS[where])
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return block


def config_from_dict(raw: dict) -> RunConfig:
    raw = dict(_expect(raw, "config"))
    population = raw.pop("population", None)  # a path, or a block holding one
    if population is not None:
        raw["population"] = {"path": population} if isinstance(population, str) else population
    levels = {"config": raw}
    levels.update((top, _expect(raw[top], top)) for top in _LEVELS if top in raw)
    for path in _REQUIRED:  # a block's key is required only when the block is given
        top, _, key = path.rpartition(".")
        if key not in levels.get(top or "config", (key,)):
            raise ConfigError(f"{path} is required" if top
                              else f"config is missing required key {key!r}")
    fields = {}
    try:
        for path, field, read in _KEYS:
            top, _, key = path.rpartition(".")
            if key in levels.get(top or "config", ()):
                value = levels[top or "config"][key]
                fields[field] = value if read is None else read(value, path)
        return RunConfig(**fields)
    except (TypeError, ValueError, OverflowError) as err:
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
