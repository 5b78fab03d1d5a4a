"""Survey ingestion, schema validation, and constraint-design construction.

The loaders are strict on purpose: every used column must be declared with a
kind (``categorical``, ``binary``, ``continuous``), unparseable cells raise
``SchemaError`` with the row number, and so do numeric cells that parse to
NaN or an infinity. Rows with missing values in declared columns are removed
listwise with a logged count. Downstream code never sees NaN.

Input files, surveys, populations and margins alike, are decoded as UTF-8,
with or without a byte-order mark, and read in csv's default dialect by one
reader, ``_read_cells``: rectangular text without a quote character or a
carriage return is split on ``\n`` and the comma, which gives
``csv.reader``'s fields by construction, and any other text goes to
``csv.reader``. A binary column of only ``0`` and ``1`` cells is decoded at
once; other numeric cells are parsed by ``float()`` one at a time.

``build_features`` turns weighting terms (tuples of variable names) into the
``CalibrationProblem`` itself. One expansion serves the survey and the
population frame, coding each categorical variable once per frame; each
column carries its parts' levels, and margin rows are found by those levels.
This module only reads and expands: the rank check of the expanded design is
the solver's own guard, ``calibrate.check_rank``.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import operator
from dataclasses import dataclass, replace
from itertools import compress, product
from typing import TYPE_CHECKING

import numpy as np

from .errors import RankDeficiencyError, SchemaError

if TYPE_CHECKING:  # build_features imports the solver layer when it runs
    from .calibrate import CalibrationProblem

logger = logging.getLogger(__name__)

KINDS = frozenset({"categorical", "binary", "continuous"})

#: cell texts treated as missing by the loaders
MISSING_TOKENS = ("", "NA")

#: the ASCII characters ``str.strip`` removes, but for ``\n``
_ASCII_BLANKS = "".join(c for c in map(chr, range(128)) if c.isspace() and c != "\n")

_FILTER_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class SurveyFrame:
    """Column store for one rectangular dataset.

    ``columns`` maps name to a numpy array (float64 for binary/continuous,
    object dtype of str for categorical); ``row_ids`` keeps the 1-based
    source row numbers so weight output stays joinable after listwise
    deletion and filtering.
    """

    columns: dict[str, np.ndarray]
    kinds: dict[str, str]
    row_ids: np.ndarray

    @property
    def n(self) -> int:
        return len(self.row_ids)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise SchemaError(f"column {name!r} is not in the frame")
        return self.columns[name]

    def kind(self, name: str) -> str:
        if name not in self.kinds:
            raise SchemaError(f"column {name!r} has no declared kind")
        return self.kinds[name]

    def select(self, mask: np.ndarray) -> "SurveyFrame":
        cols = {k: v[mask] for k, v in self.columns.items()}
        return replace(self, columns=cols, row_ids=self.row_ids[mask])

    def levels(self, name: str) -> tuple[str, ...]:
        """Sorted distinct levels of a categorical column."""
        if self.kind(name) != "categorical":
            raise SchemaError(f"column {name!r} is not categorical")
        return tuple(sorted(set(self.columns[name].tolist())))


def _parse_cell(text: str, kind: str, column: str, row: int):
    if kind == "categorical":
        return text
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(
            f"row {row}, column {column!r}: {text!r} is not numeric"
        ) from None
    if kind == "binary" and value not in (0.0, 1.0):
        raise SchemaError(
            f"row {row}, column {column!r}: binary value must be 0 or 1, got {text!r}"
        )
    if not math.isfinite(value):
        raise SchemaError(f"row {row}, column {column!r}: {text!r} is not finite")
    return value


def _read_cells(
    path: str, names: list[str]
) -> tuple[dict[str, list[str]], np.ndarray, bool]:
    """Raw fields of the named columns over the non-blank data rows of a
    comma-separated file, read as ``csv.reader`` reads it; which rows are long
    enough to hold every named column (the others read as empty); and
    whether the text is plain, ASCII without whitespace but ``\\n``, so that
    no field needs ``str.strip``.

    Text without a quote character or a carriage return holds nothing the
    default dialect treats specially besides the comma and ``\\n``. If
    each line there also has the header's field count and none is longer
    than ``csv.field_size_limit()`` (so no field is), each column is a
    strided slice of one flat split of the lines. Any other text, ragged or
    over-long lines included, goes through ``csv.reader``; a field over the
    limit raises ``SchemaError`` naming the record.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        text = handle.read()
    split = '"' not in text and "\r" not in text
    plain = split and text.isascii() and not any(map(text.__contains__, _ASCII_BLANKS))
    if split:
        first, *lines = text.split("\n")
        lines = [first, *filter(None, lines)]  # blank lines are skipped
    else:
        lines = io.StringIO(text, newline="")
    del text
    flat = None
    if split and len(lines) > 1 and max(map(len, lines)) <= csv.field_size_limit():
        # a line of exactly the header's fields puts its first field, led by
        # the joining newline, at a multiple of that count in the flat split
        header = lines[0].split(",") if lines[0] else []
        step, count = len(header), len(lines) - 1
        flat = ",\n".join(lines[1:]).split(",")
        if len(flat) == step * count and (
            "".join(flat[step::step]).count("\n") == count - 1
        ):
            flat[::step] = "".join(flat[::step]).split("\n")
        else:
            flat = None
    if flat is None:
        reader = csv.reader(lines)
        header, rows = None, []
        try:
            header = next(reader, [])
            for row in reader:
                if row:
                    rows.append(row)
        except csv.Error as err:
            where = "header" if header is None else f"data row {len(rows) + 1}"
            raise SchemaError(f"{path}: {where}: {err}") from None
    absent = [name for name in names if name not in header]
    if absent:
        raise SchemaError(f"{path}: declared columns missing from header: {absent}")
    position = {name: j for j, name in enumerate(header)}
    if flat is not None:
        return {name: flat[position[name]::step] for name in names}, np.ones(count, bool), plain
    width = max((position[name] + 1 for name in names), default=0)
    # a row shorter than that lacks a declared column, so it is dropped
    keep = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) >= width
    if not keep.all():
        rows = [row if len(row) >= width else [""] * width for row in rows]
    cells = {name: list(map(operator.itemgetter(position[name]), rows)) for name in names}
    return cells, keep, plain


def _zero_one(cells: list[str]) -> np.ndarray | None:
    """The cells as 0.0 and 1.0 if each is exactly ``0`` or ``1``, else None:
    only such cells, joined on newlines, alternate digit and newline."""
    joined = "\n".join(cells) + "\n"
    if len(joined) != 2 * len(cells) or not joined.isascii():
        return None
    digit, gap = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, 2).T
    if np.any(gap != ord("\n")) or np.any((digit != ord("0")) & (digit != ord("1"))):
        return None
    return (digit == ord("1")).astype(np.float64)


def load_table(path: str, schema: dict[str, str]) -> SurveyFrame:
    """Read a comma-separated file, keeping only the declared columns.

    Rows with a missing token in any declared column, or too short to hold
    one, are dropped and the count is logged; blank lines are skipped. Raises
    ``SchemaError`` for undeclared kinds, absent columns, fields over csv's
    size limit, or unparseable or non-finite cells (the first in row order).
    Of duplicate header names the last wins.
    """
    for name, kind in schema.items():
        if kind not in KINDS:
            raise SchemaError(f"column {name!r}: unknown kind {kind!r}")
    cells, keep, plain = _read_cells(path, list(schema))
    if not plain:
        cells = {name: list(map(str.strip, col)) for name, col in cells.items()}
    missing = set(MISSING_TOKENS)
    # a 0/1 column holds no missing token
    bits = {name: v for name, kind in schema.items()
            if kind == "binary" and (v := _zero_one(cells[name])) is not None}
    for name, col in cells.items():
        if name not in bits and not missing.isdisjoint(col):
            keep &= ~np.fromiter(map(missing.__contains__, col), dtype=bool, count=len(col))
    row_ids = np.flatnonzero(keep) + 1
    if row_ids.size < keep.size:
        cells = {name: list(compress(col, keep)) for name, col in cells.items()}
        bits = {name: v[keep] for name, v in bits.items()}
    columns: dict | None = {}
    try:
        for name, kind in schema.items():
            if kind == "categorical":
                columns[name] = np.asarray(cells[name], dtype=object)
                continue
            if name in bits:
                columns[name] = bits[name]
                continue
            values = np.fromiter(map(float, cells[name]), dtype=np.float64, count=len(row_ids))
            if not np.isfinite(values).all() or (
                kind == "binary" and not np.all(np.isin(values, (0.0, 1.0)))
            ):
                raise ValueError(name)
            columns[name] = values
    except ValueError:
        columns = None
    if columns is None:
        # replay cell by cell so the error names the first bad cell in row order
        for row_id, *row in zip(row_ids.tolist(), *cells.values()):
            for (name, kind), text in zip(schema.items(), row):
                _parse_cell(text, kind, name, row_id)
    dropped = len(keep) - len(row_ids)
    if dropped:
        logger.info("%s: dropped %d rows with missing values (listwise)", path, dropped)
    if not row_ids.size:
        raise SchemaError(f"{path}: no complete rows after listwise deletion")
    return SurveyFrame(columns, dict(schema), row_ids)


def apply_filters(frame: SurveyFrame, filters: list[dict]) -> SurveyFrame:
    """Apply row filters of the form {column, op, value}.

    ``op`` is one of ==, !=, <, <=, >, >= (ordering ops require a numeric
    column). Categorical comparisons are on the level string.
    """
    mask = np.ones(frame.n, dtype=bool)
    for spec in filters:
        try:
            column, op, value = spec["column"], spec["op"], spec["value"]
        except KeyError as err:
            raise SchemaError(f"filter needs column/op/value, got {spec!r}") from err
        if op not in _FILTER_OPS:
            raise SchemaError(f"filter op {op!r} not supported")
        values = frame.column(column)
        if frame.kind(column) == "categorical":
            if op not in ("==", "!="):
                raise SchemaError(f"op {op!r} needs a numeric column, {column!r} is categorical")
            hit = np.asarray([_FILTER_OPS[op](v, str(value)) for v in values.tolist()])
        else:
            hit = _FILTER_OPS[op](values, float(value))
        mask &= hit
    kept = frame.select(mask)
    if kept.n < frame.n:
        logger.info("filters kept %d of %d rows", kept.n, frame.n)
    if kept.n == 0:
        raise SchemaError("filters removed every row")
    return kept


# --- targets -----------------------------------------------------------------


@dataclass(frozen=True)
class PopulationTarget:
    """Target moments taken from a population frame (census, big probe)."""

    frame: SurveyFrame
    weights: np.ndarray  # positive, one per row

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if len(w) != self.frame.n:
            raise SchemaError("population weights length differs from frame rows")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise SchemaError("population weights must be positive and finite")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class MarginTarget:
    """Target moments given directly as margins.

    ``margins`` maps a variable to {None: mean} for a continuous variable,
    or to {level: share}: one per categorical level, level "1" for a
    binary. An interaction "a:b" maps its parts' levels joined by ":" (a
    binary or continuous part stands in by its name) to the mean of the
    product of their columns. Shares lie in [0, 1]; two or more listed sum
    to 1 within 1e-9 (a lone level's complement is implied). This checks
    names without ":"; ``build_features`` holds each single variable and
    each all-categorical interaction, a joint distribution, to the rule,
    and an interaction with a binary part but none continuous to [0, 1].
    """

    margins: dict[str, dict[str | None, float]]

    def __post_init__(self):
        for var, entry in self.margins.items():
            if None in entry and len(entry) > 1:
                raise SchemaError(f"margin variable {var!r} mixes mean and level rows")
            if ":" not in var:
                _check_shares(var, entry)


def _check_shares(var: str, entry: dict[str | None, float], partition: bool = True) -> None:
    """Shares lie in [0, 1]; a partition's, two or more listed, sum to 1."""
    if None in entry:
        return
    shares = np.asarray(list(entry.values()), dtype=np.float64)
    if np.any(shares < 0) or np.any(shares > 1):
        raise SchemaError(f"margin shares for {var!r} must lie in [0, 1]")
    if partition and len(shares) > 1 and abs(shares.sum() - 1.0) > 1e-9:
        raise SchemaError(f"margin shares for {var!r} sum to {shares.sum():.12g}, expected 1")


TargetSpec = PopulationTarget | MarginTarget


def load_population_target(
    path: str,
    schema: dict[str, str],
    *,
    weight_column: str | None = None,
) -> PopulationTarget:
    """Load a population frame; ``weight_column`` defaults to uniform."""
    full_schema = dict(schema)
    if weight_column is not None:
        full_schema[weight_column] = "continuous"
    frame = load_table(path, full_schema)
    if weight_column is None:
        weights = np.ones(frame.n)
    else:
        weights = frame.column(weight_column)
        columns = {k: v for k, v in frame.columns.items() if k != weight_column}
        kinds = {k: v for k, v in frame.kinds.items() if k != weight_column}
        frame = SurveyFrame(columns, kinds, frame.row_ids)
    return PopulationTarget(frame, weights)


def load_margins(path: str) -> MarginTarget:
    """Read a margin file with columns ``variable``, ``level`` and ``value``,
    through the same reader as survey files; a level left empty gives a mean."""
    margins: dict[str, dict[str | None, float]] = {}
    cells, keep, _ = _read_cells(path, ["variable", "level", "value"])
    rows = zip(keep.tolist(), *cells.values())
    for lineno, (whole, var, level, text) in enumerate(rows, start=1):
        if not whole:
            raise SchemaError(f"{path} row {lineno}: short row, needs variable,level,value")
        try:
            value = float(text)
        except ValueError:
            raise SchemaError(f"{path} row {lineno}: value {text!r} is not numeric") from None
        if not math.isfinite(value):
            raise SchemaError(f"{path} row {lineno}: value {text!r} is not finite")
        var, level = var.strip(), level.strip()
        entry = margins.setdefault(var, {})
        key = level if level else None
        if key in entry:
            raise SchemaError(f"{path} row {lineno}: duplicate margin for {var!r}/{level!r}")
        entry[key] = value
    if not margins:
        raise SchemaError(f"{path}: margin file is empty")
    return MarginTarget(margins)


# --- feature expansion -------------------------------------------------------


def terms_from_config(
    variables: list[str], interactions: list[list[str]] | None = None
) -> tuple[tuple[str, ...], ...]:
    """Weighting terms as tuples of source variables: each variable alone,
    then each interaction, whose columns are products."""
    terms = [(v,) for v in variables]
    for combo in interactions or []:
        if len(combo) < 2:
            raise SchemaError(f"interaction needs at least two variables, got {combo}")
        terms.append(tuple(combo))
    names = [":".join(t) for t in terms]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate weighting terms")
    return tuple(terms)


def _expand_variable(
    frame: SurveyFrame, var: str, levels: tuple[str, ...] | None
) -> list[tuple[str, str | None, np.ndarray]]:
    """Expanded columns of one variable as (name, level, column), reference
    level dropped.

    The reference is the lexicographically smallest level; binary and
    continuous variables pass through under their own name, with level
    None. A categorical column is coded to level indices in one pass, and
    each indicator compares the codes.
    """
    kind = frame.kind(var)
    if kind == "categorical":
        assert levels is not None
        index = {level: i for i, level in enumerate(levels)}
        codes = np.fromiter(
            map(index.__getitem__, frame.column(var).tolist()), dtype=np.intp, count=frame.n
        )
        return [
            (f"{var}={level}", level, (codes == i).astype(np.float64))
            for i, level in enumerate(levels[1:], start=1)
        ]
    return [(var, None, frame.column(var))]


def _expand_terms(frame: SurveyFrame, terms: tuple[tuple[str, ...], ...], levels: dict):
    """Each term's columns on ``frame``, in design order: the term, the
    (name, level, column) parts a column multiplies, and the product. Each
    variable is expanded once and shared by its terms."""
    order = dict.fromkeys(v for term in terms for v in term)
    expanded = {v: _expand_variable(frame, v, levels.get(v)) for v in order}
    for term in terms:
        for parts in product(*(expanded[v] for v in term)):
            column = parts[0][2].copy()
            for part in parts[1:]:
                column = column * part[2]
            yield term, parts, column


def _level_sets(
    survey: SurveyFrame, target: TargetSpec, variables: set[str]
) -> dict[str, tuple[str, ...]]:
    """Shared level sets for categorical variables; mismatches are errors."""
    levels: dict[str, tuple[str, ...]] = {}
    for var in sorted(variables):
        if survey.kind(var) != "categorical":
            continue
        survey_levels = set(survey.levels(var))
        if isinstance(target, PopulationTarget):
            target_levels = set(target.frame.levels(var))
        else:
            entry = target.margins.get(var)
            if entry is None or set(entry) == {None}:
                raise SchemaError(f"no margin rows for categorical variable {var!r}")
            target_levels = {str(k) for k in entry}
        extra_survey = survey_levels - target_levels
        extra_target = target_levels - survey_levels
        problems = []
        if extra_survey:
            problems.append(f"levels {sorted(extra_survey)} appear in the survey only")
        if extra_target:
            problems.append(f"levels {sorted(extra_target)} appear in the target only")
        if problems:
            raise SchemaError(f"variable {var!r}: " + "; ".join(problems))
        levels[var] = tuple(sorted(survey_levels))
    return levels


def _margin_lookup(target: MarginTarget, term: tuple[str, ...], parts: tuple) -> float:
    """Margin value of the column that multiplies ``parts``, found by the
    levels they carry."""
    name = ":".join(term)
    entry = target.margins.get(name)
    if entry is None:
        raise SchemaError(f"interaction {name!r} needs margin rows or a population frame"
                          if len(term) > 1 else f"no margin rows for variable {name!r}")
    if len(term) == 1 and parts[0][1] is None:
        key = None if None in entry else "1"  # a mean, or a binary variable's level-1 share
        if key not in entry:
            raise SchemaError(f"margin for binary variable {name!r} needs a level-1 row")
        return float(entry[key])
    # a binary or continuous part of an interaction stands in by its name
    level = ":".join(part if level is None else level for part, level, _ in parts)
    if level not in entry:
        raise SchemaError(f"margin for {name!r} lacks level {level!r}")
    return float(entry[level])


def build_features(
    survey: SurveyFrame,
    target: TargetSpec,
    terms: tuple[tuple[str, ...], ...],
    base_weights: np.ndarray | None = None,
) -> CalibrationProblem:
    """Expand weighting terms into a full-rank ``CalibrationProblem``.

    Categorical variables expand to level indicators with the reference
    (lexicographically smallest) level dropped; interactions are products
    of the expanded columns. Targets are the same columns' weighted means
    on the population frame, or the margin values their levels name (see
    ``MarginTarget``). A design that ``calibrate.check_rank`` finds rank
    deficient raises ``RankDeficiencyError`` with the dependent column
    names. ``base_weights`` pass through to the problem.
    """
    from .calibrate import CalibrationProblem, check_rank

    if not terms:
        raise SchemaError("at least one weighting term is required")
    variables = {v for term in terms for v in term}
    for var in sorted(variables):
        survey.kind(var)  # raises if undeclared
    levels = _level_sets(survey, target, variables)

    expanded = list(_expand_terms(survey, terms, levels))
    if isinstance(target, PopulationTarget):
        pop_w = target.weights / target.weights.sum()
        targets = [float(pop_w @ col) for *_, col in _expand_terms(target.frame, terms, levels)]
    else:
        for term in terms:
            kinds = {survey.kind(v) for v in term}
            if len(term) == 1 or "continuous" not in kinds:
                name = ":".join(term)
                # an interaction with a binary part gives shares of joint events
                _check_shares(name, target.margins.get(name, {}),
                              len(term) == 1 or kinds == {"categorical"})
        targets = [_margin_lookup(target, term, parts) for term, parts, _ in expanded]

    names = tuple(":".join(part[0] for part in parts) for _, parts, _ in expanded)
    matrix = np.column_stack([col for *_, col in expanded]).astype(np.float64)
    dependent = check_rank(matrix)
    if dependent:
        raise RankDeficiencyError(tuple(names[j] for j in dependent))
    return CalibrationProblem(
        matrix,
        targets,
        column_names=names,
        column_sources=tuple(frozenset(term) for term, _, _ in expanded),
        base_weights=base_weights,
    )
