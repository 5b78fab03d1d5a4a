"""Survey ingestion, schema validation, and constraint-design construction.

The loaders are strict on purpose: every used column must be declared with a
kind (``categorical``, ``binary``, ``continuous``), unparseable cells raise
``SchemaError`` with the row number, and so do numeric cells that parse to
NaN or an infinity. Rows with missing values in declared columns are removed
listwise with a logged count. Downstream code never sees NaN.

Input files are decoded as UTF-8, with or without a byte-order mark, and read
in csv's default dialect. ``load_table`` splits text that has no quote
character and no carriage return on ``\\n`` and the delimiter, which gives
``csv.reader``'s fields by construction, and hands any other text to
``csv.reader``; both routes drop the same short rows and reject the same
over-long fields; there, ASCII text without whitespace but ``\n`` skips
``str.strip``. A binary column of only ``0`` and ``1`` cells is decoded at once;
other numeric cells are parsed by ``float()`` one at a time.
``build_features`` codes each categorical variable once per frame.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import operator
from dataclasses import dataclass, replace
from itertools import compress, product

import numpy as np

from .errors import RankDeficiencyError, SchemaError

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


def frame_from_columns(
    columns: dict[str, np.ndarray], kinds: dict[str, str]
) -> SurveyFrame:
    """Build a frame from in-memory arrays, validating kinds and lengths."""
    if not columns:
        raise SchemaError("frame needs at least one column")
    lengths = {len(v) for v in columns.values()}
    if len(lengths) != 1:
        raise SchemaError(f"column lengths differ: {sorted(lengths)}")
    out: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        kind = kinds.get(name)
        if kind not in KINDS:
            raise SchemaError(f"column {name!r}: unknown kind {kind!r}")
        arr = np.asarray(values)
        if kind == "categorical":
            out[name] = np.asarray([str(v) for v in arr.tolist()], dtype=object)
        else:
            arr = arr.astype(np.float64)
            if not np.all(np.isfinite(arr)):
                raise SchemaError(f"column {name!r} contains non-finite values")
            if kind == "binary" and not np.all(np.isin(arr, (0.0, 1.0))):
                raise SchemaError(f"column {name!r}: binary values must be 0 or 1")
            out[name] = arr
    n = lengths.pop()
    return SurveyFrame(out, dict(kinds), np.arange(1, n + 1, dtype=np.int64))


def _read_cells(
    path: str, names: list[str], delimiter: str
) -> tuple[dict[str, list[str]], np.ndarray]:
    """Stripped cells of the named columns over the non-blank data rows of a
    delimited file, read as ``csv.reader`` reads it, and which rows are long
    enough to hold every named column (the others read as empty).

    Text without a quote character or a carriage return holds nothing the
    default dialect treats specially besides the delimiter and ``\\n``, so
    splitting lines on ``\\n`` and fields on the delimiter gives csv's
    fields; when every line has the header's field count, each column is a
    strided slice of one flat split. Other text goes through ``csv.reader``.
    On both routes a field longer than ``csv.field_size_limit()`` raises
    ``SchemaError`` naming the record.
    """
    csv.reader((), delimiter=delimiter)  # rejects the delimiters csv rejects, on both routes
    with open(path, newline="", encoding="utf-8-sig") as handle:
        text = handle.read()
    lines, plain = None, False
    if '"' in text or "\r" in text:
        reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
        header, rows = None, []
        try:
            header = next(reader, [])
            for row in reader:
                if row:
                    rows.append(row)
        except csv.Error as err:
            where = "header" if header is None else f"data row {len(rows) + 1}"
            raise SchemaError(f"{path}: {where}: {err}") from None
    else:
        plain = text.isascii() and not any(map(text.__contains__, _ASCII_BLANKS))
        first, *lines = text.split("\n")
        header = first.split(delimiter) if first else []
        lines = list(filter(None, lines))  # blank lines are skipped
        limit = csv.field_size_limit()
        where = _over_limit(header, lines, delimiter, limit)
        if where:
            raise SchemaError(f"{path}: {where}: field larger than field limit ({limit})")
    del text
    absent = [name for name in names if name not in header]
    if absent:
        raise SchemaError(f"{path}: declared columns missing from header: {absent}")
    position = {name: j for j, name in enumerate(header)}
    # a cell of plain text holds no whitespace that str.strip would remove
    clean = list if plain else lambda col: list(map(str.strip, col))
    if lines is not None:
        # a line of exactly the header's fields puts its first field, led by
        # the joining newline, at a multiple of that count in the flat split
        step = len(header)
        flat = (delimiter + "\n").join(lines).split(delimiter) if lines else []
        if flat and len(flat) == step * len(lines) and (
            "".join(flat[step::step]).count("\n") == len(lines) - 1
        ):
            if plain:  # but for the joining newline that leads a line's first field
                flat[::step] = "".join(flat[::step]).split("\n")
            cells = {name: clean(flat[position[name]::step]) for name in names}
            return cells, np.ones(len(lines), dtype=bool)
        del flat
        rows = [line.split(delimiter) for line in lines]
    width = max((position[name] + 1 for name in names), default=0)
    # a row shorter than that lacks a declared column, so it is dropped
    keep = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) >= width
    if not keep.all():
        rows = [row if len(row) >= width else [""] * width for row in rows]
    cells = {name: clean(map(operator.itemgetter(position[name]), rows)) for name in names}
    return cells, keep


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


def _over_limit(header: list[str], lines: list[str], delimiter: str, limit: int) -> str | None:
    """The first record, ``header`` or ``data row N``, with a field longer
    than ``limit`` characters, as ``csv.reader`` would raise for; else None."""
    if max(map(len, header), default=0) > limit:
        return "header"
    if max(map(len, lines), default=0) > limit:
        for row, line in enumerate(lines, start=1):
            if max(map(len, line.split(delimiter))) > limit:
                return f"data row {row}"
    return None


def load_table(
    path: str,
    schema: dict[str, str],
    *,
    delimiter: str = ",",
    missing: tuple[str, ...] = MISSING_TOKENS,
) -> SurveyFrame:
    """Read a delimited file, keeping only the declared columns.

    Rows with a missing token in any declared column, or too short to hold
    one, are dropped and the count is logged; blank lines are skipped. Raises
    ``SchemaError`` for undeclared kinds, absent columns, fields over csv's
    size limit, or unparseable or non-finite cells (the first in row order).
    Of duplicate header names the last wins.
    """
    for name, kind in schema.items():
        if kind not in KINDS:
            raise SchemaError(f"column {name!r}: unknown kind {kind!r}")
    cells, keep = _read_cells(path, list(schema), delimiter)
    missing_set = set(missing)
    # a 0/1 column holds no missing token, unless 0 or 1 is one
    bits = {name: v for name, kind in schema.items() if kind == "binary"
            and missing_set.isdisjoint(("0", "1")) and (v := _zero_one(cells[name])) is not None}
    for name, col in cells.items():
        if name not in bits and not missing_set.isdisjoint(col):
            keep &= ~np.fromiter(map(missing_set.__contains__, col), dtype=bool, count=len(col))
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

    ``margins`` maps variable name to either {level: share} for categorical,
    binary (levels "0"/"1"), and interaction variables ("a:b" with joint
    levels "x:y"), or {None: mean} for continuous variables. Shares lie in
    [0, 1]; with two or more levels listed they must sum to 1 within 1e-9
    (a lone level's complement is implied).
    """

    margins: dict[str, dict[str | None, float]]

    def __post_init__(self):
        for var, entry in self.margins.items():
            keys = set(entry)
            if keys == {None}:
                continue
            if None in keys:
                raise SchemaError(f"margin variable {var!r} mixes mean and level rows")
            shares = np.asarray(list(entry.values()), dtype=np.float64)
            if np.any(shares < 0) or np.any(shares > 1):
                raise SchemaError(f"margin shares for {var!r} must lie in [0, 1]")
            if len(shares) > 1 and abs(shares.sum() - 1.0) > 1e-9:
                raise SchemaError(
                    f"margin shares for {var!r} sum to {shares.sum():.12g}, expected 1"
                )


TargetSpec = PopulationTarget | MarginTarget


def load_population_target(
    path: str,
    schema: dict[str, str],
    *,
    weight_column: str | None = None,
    delimiter: str = ",",
) -> PopulationTarget:
    """Load a population frame; ``weight_column`` defaults to uniform."""
    full_schema = dict(schema)
    if weight_column is not None:
        full_schema[weight_column] = "continuous"
    frame = load_table(path, full_schema, delimiter=delimiter)
    if weight_column is None:
        weights = np.ones(frame.n)
    else:
        weights = frame.column(weight_column)
        columns = {k: v for k, v in frame.columns.items() if k != weight_column}
        kinds = {k: v for k, v in frame.kinds.items() if k != weight_column}
        frame = SurveyFrame(columns, kinds, frame.row_ids)
    return PopulationTarget(frame, weights)


def load_margins(path: str, *, delimiter: str = ",") -> MarginTarget:
    """Read a margin file with header ``variable,level,value``."""
    margins: dict[str, dict[str | None, float]] = {}
    fields, records = None, []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        try:
            fields = reader.fieldnames or []
            for record in reader:
                records.append(record)
        except csv.Error as err:
            where = "header" if fields is None else f"data row {len(records) + 1}"
            raise SchemaError(f"{path}: {where}: {err}") from None
    required = {"variable", "level", "value"}
    if not required.issubset(fields):
        raise SchemaError(f"{path}: margin file needs columns variable,level,value")
    for lineno, record in enumerate(records, start=1):
        if any(record[name] is None for name in required):
            raise SchemaError(f"{path} row {lineno}: short row, needs variable,level,value")
        var = record["variable"].strip()
        level = record["level"].strip()
        try:
            value = float(record["value"])
        except ValueError:
            raise SchemaError(
                f"{path} row {lineno}: value {record['value']!r} is not numeric"
            ) from None
        if not math.isfinite(value):
            raise SchemaError(f"{path} row {lineno}: value {record['value']!r} is not finite")
        entry = margins.setdefault(var, {})
        key = level if level else None
        if key in entry:
            raise SchemaError(f"{path} row {lineno}: duplicate margin for {var!r}/{level!r}")
        entry[key] = value
    if not margins:
        raise SchemaError(f"{path}: margin file is empty")
    return MarginTarget(margins)


# --- feature expansion -------------------------------------------------------


@dataclass(frozen=True)
class FeatureTerm:
    """One weighting term: a single variable or a product interaction."""

    sources: tuple[str, ...]

    @property
    def name(self) -> str:
        return ":".join(self.sources)

    @property
    def is_interaction(self) -> bool:
        return len(self.sources) > 1


def terms_from_config(
    variables: list[str], interactions: list[list[str]] | None = None
) -> tuple[FeatureTerm, ...]:
    terms = [FeatureTerm((v,)) for v in variables]
    for combo in interactions or []:
        if len(combo) < 2:
            raise SchemaError(f"interaction needs at least two variables, got {combo}")
        terms.append(FeatureTerm(tuple(combo)))
    names = [t.name for t in terms]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate weighting terms")
    return tuple(terms)


@dataclass(frozen=True)
class Design:
    """Constraint design: columns of f(X) with their population targets."""

    matrix: np.ndarray  # (n, p) float64
    column_names: tuple[str, ...]
    column_sources: tuple[frozenset, ...]
    targets: np.ndarray  # (p,)
    term_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_problem(self, base_weights=None, *, tol: float = 1e-8, max_iter: int = 200):
        from .calibrate import CalibrationProblem

        return CalibrationProblem(
            self.matrix,
            self.targets,
            column_names=self.column_names,
            column_sources=self.column_sources,
            base_weights=base_weights,
            tol=tol,
            max_iter=max_iter,
        )


def _expand_variable(
    frame: SurveyFrame, var: str, levels: tuple[str, ...] | None
) -> list[tuple[str, np.ndarray]]:
    """Expanded columns of one variable, reference level dropped.

    The reference is the lexicographically smallest level; for binary and
    continuous variables the column passes through under its own name. A
    categorical column is coded to level indices in one pass, and each
    indicator compares the codes.
    """
    kind = frame.kind(var)
    if kind == "categorical":
        assert levels is not None
        index = {level: i for i, level in enumerate(levels)}
        codes = np.fromiter(
            map(index.__getitem__, frame.column(var).tolist()), dtype=np.intp, count=frame.n
        )
        return [
            (f"{var}={level}", (codes == i).astype(np.float64))
            for i, level in enumerate(levels[1:], start=1)
        ]
    return [(var, frame.column(var))]


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


def _margin_lookup(target: MarginTarget, term: FeatureTerm, column: str) -> float:
    """Margin value for one expanded column name."""
    if term.is_interaction:
        entry = target.margins.get(term.name)
        if entry is None:
            raise SchemaError(
                f"interaction {term.name!r} needs margin rows or a population frame"
            )
        # column is like "a=x:b=y"; the margin level key is "x:y"
        level = ":".join(part.split("=", 1)[1] if "=" in part else part
                         for part in column.split(":"))
        if level not in entry:
            raise SchemaError(f"margin for {term.name!r} lacks level {level!r}")
        return float(entry[level])
    var = term.sources[0]
    entry = target.margins.get(var)
    if entry is None:
        raise SchemaError(f"no margin rows for variable {var!r}")
    if "=" in column:
        level = column.split("=", 1)[1]
        if level not in entry:
            raise SchemaError(f"margin for {var!r} lacks level {level!r}")
        return float(entry[level])
    if None in entry:
        return float(entry[None])
    # binary variable given as level shares
    if "1" not in entry:
        raise SchemaError(f"margin for binary variable {var!r} needs a level-1 row")
    return float(entry["1"])


#: remaining column norms this close to the largest, relative to the
#: columns' own norms and per square root of the rows, count as tied in
#: pivoting; the earliest is taken. The n-row QR leaves equal columns'
#: R factors up to about sqrt(n) ulps apart.
PIVOT_TIE = 8 * np.finfo(np.float64).eps

#: a problem whose Gram matrix has its smallest eigenvalue above this share
#: of its trace is full rank without a QR; see ``_gram_certifies``
GRAM_TAU = 1e-10


def check_rank(
    matrix: np.ndarray, row_counts: np.ndarray | None = None
) -> tuple[int, ...] | list[tuple[int, ...]]:
    """Indices of linearly dependent columns, judged with the implicit
    normalization constraint included (a constant column is dependent).

    ``row_counts`` weighs rows by multiplicity (sqrt(count) row scaling). A
    (B, n) stack of counts checks B problems on the same rows at once and
    returns one tuple per problem; a row with count 0 is absent from that
    problem, and a problem without rows has every column dependent. Columns
    are scaled by their largest magnitude over the rows present.

    Full rank is settled first from each problem's count-weighted
    (p+1)-square Gram matrix (``_gram_certifies``), one product over the
    rows. Only the problems it cannot settle build the augmented design
    and run the QR: the n-row QR runs in numpy, and so does the column-pivoted QR of its (p+1)-row R
    factor, whose column inner products, hence pivots, are the full
    matrix's. Pivoting takes the earliest of the columns whose remaining
    norms tie to within ``PIVOT_TIE * sqrt(n)`` of their own norms, so of
    two equal columns the later one is dropped, whatever the rounding. A
    smallest singular value of R far above the rank threshold settles
    full rank without pivoting.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, p = matrix.shape
    counts = np.ones((1, n)) if row_counts is None else np.atleast_2d(row_counts)
    present = counts > 0
    if present.all():
        peak = np.abs(matrix).max(axis=0, initial=0.0)[None]
    else:
        peak = np.max(
            np.broadcast_to(np.abs(matrix), (len(counts), n, p)),
            axis=1, where=present[:, :, None], initial=0.0,
        )
    found = _dependent_columns(matrix, counts, peak)
    return found if row_counts is not None and np.ndim(row_counts) == 2 else found[0]


def _dependent_columns(matrix: np.ndarray, counts: np.ndarray, peak: np.ndarray) -> list:
    """``check_rank`` per problem of a (B, n) stack of ``counts``, given the
    columns' peaks over each problem's rows, (B, p), or (1, p) if shared."""
    n, p = matrix.shape
    found = [()] * len(counts)
    todo = np.flatnonzero(~_gram_certifies(matrix, counts, peak))
    if todo.size == 0:
        return found
    if len(peak) > 1:
        peak = peak[todo]
    augmented = np.ones((todo.size, n, p + 1))
    augmented[:, :, 1:] = matrix / np.maximum(peak, 1e-300)[:, None, :]
    augmented *= np.sqrt(counts[todo])[:, :, None]
    r = np.linalg.qr(augmented, mode="r")
    unclear = np.arange(todo.size)
    if r.shape[1] == p + 1:
        # Every diagonal entry of any QR of a matrix, pivoted or not, is at
        # least its smallest singular value, and the largest column norm is
        # pivoting's first entry; far above the rank threshold, pivoting
        # could not find a dependent column.
        biggest = np.sqrt(np.einsum("bij,bij->bj", r, r).max(axis=1))
        smallest = np.linalg.svd(r, compute_uv=False)[:, -1]
        unclear = np.flatnonzero(smallest <= 1e-8 * np.maximum(biggest, 1.0))
    if unclear.size == 0:
        return found
    diag, pivots = _pivoted_diagonal(r[unclear], PIVOT_TIE * np.sqrt(n))
    ranks = np.sum(diag > 1e-10 * np.maximum(diag[:, :1], 1.0), axis=1)
    for i, rank, order in zip(todo[unclear], ranks, pivots):
        dependent = sorted(int(j) - 1 for j in order[rank:] if j > 0)
        if 0 in order[rank:]:
            # pivoting discarded the intercept; blame a constant design column
            rows = counts[i] > 0
            constants = [
                j for j in range(p) if not rows.any() or np.ptp(matrix[rows, j]) == 0.0
            ]
            dependent = sorted(set(dependent) | set(constants))
        found[i] = tuple(dependent)
    return found


def _gram_certifies(matrix: np.ndarray, counts: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Per problem of a (B, n) stack of ``counts``, whether the scaled,
    augmented design A = diag(sqrt(c)) [1 | X / peak] is certainly full
    rank, so that ``check_rank``'s QR would cut none of its columns.

    G = AᵀA = D [[Σc, cᵀX], [Xᵀc, Xᵀdiag(c)X]] D with D = diag(1, 1/peak)
    is formed by one stacked product over the rows, and problem b is
    certified when λ_min(G_b) > τ · max(trace(G_b), 1).

    Why a certified problem is one the QR keeps whole: the computed Gram
    is within about n·eps·trace(G) of the exact one in norm, and the
    symmetric eigensolver adds (p+1)·eps·‖G‖ (Golub & Van Loan, Matrix
    Computations, 4th ed., §5.3 and §8.1; Higham, Accuracy and Stability
    of Numerical Algorithms, §3.5). τ is ``GRAM_TAU``, raised to
    10·(n+p+1)·eps once that is larger (n > 4·10⁴ or so), so the exact
    λ_min(AᵀA) is at least 0.9·τ·max(trace, 1), and σ_min(A) at least
    about 1e-5·max(‖A‖_F, 1). The QR path cuts nothing while σ_min(R)
    exceeds 1e-8·max(largest column norm, 1), three orders lower, and its
    own backward error, about n·(p+1)·eps·‖A‖_F, cannot close that gap.
    """
    n, p = matrix.shape
    root = np.sqrt(counts)
    # A's columns after the first (sqrt(c)), in one buffer: a second fresh
    # n-row array would cost about as much as the product itself
    scaled = np.empty((len(counts), n, p))
    np.divide(matrix, np.maximum(peak, 1e-300)[:, None, :], out=scaled)
    if len(peak) > 1:
        scaled[counts == 0] = 0.0  # an absent row may not fit its problem's peak
    scaled *= root[:, :, None]
    gram = np.empty((len(counts), p + 1, p + 1))
    gram[:, 0, 0] = counts.sum(axis=1)
    gram[:, 0, 1:] = gram[:, 1:, 0] = np.matmul(root[:, None, :], scaled)[:, 0]
    gram[:, 1:, 1:] = np.matmul(np.swapaxes(scaled, 1, 2), scaled)
    smallest = np.linalg.eigvalsh(gram)[:, 0]
    trace = np.einsum("bii->b", gram)
    tau = max(GRAM_TAU, 10.0 * (n + p + 1) * np.finfo(np.float64).eps)
    return smallest > tau * np.maximum(trace, 1.0)


def design_cells(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix`` in lexicographic order, and the index
    of each row's cell: ``np.unique(matrix, axis=0, return_inverse=True)``
    by one lexsort, which is several times faster."""
    n, p = matrix.shape
    if p == 0:
        return matrix[:1], np.zeros(n, dtype=np.intp)
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    cell_of_row = np.empty(n, dtype=np.intp)
    cell_of_row[order] = np.cumsum(starts) - 1
    return ordered[starts], cell_of_row


def _pivoted_diagonal(r: np.ndarray, tie: float) -> tuple[np.ndarray, np.ndarray]:
    """|diag R| and the column order of a column-pivoted Householder QR of
    each matrix in a (B, m, c) stack, taking the earliest of the columns
    whose remaining norms are within ``tie`` times their own norms of the
    largest."""
    r = r.copy()
    batch, m, c = r.shape
    order = np.tile(np.arange(c), (batch, 1))
    diag = np.zeros((batch, min(m, c)))
    every = np.arange(batch)
    slack = tie * np.sqrt(np.einsum("bij,bij->bj", r, r))
    for k in range(min(m, c)):
        tail = r[:, k:, k:]
        norms = np.sqrt(np.einsum("bij,bij->bj", tail, tail))
        top = np.argmax(norms, axis=1)
        bar = norms[every, top][:, None] - np.maximum(slack[:, k:], slack[every, k + top][:, None])
        # swaps reorder the columns, so earliest means the smallest index
        pick = np.argmin(np.where(norms >= bar, order[:, k:], c), axis=1)
        alpha = norms[every, pick]
        swap = k + pick
        for arr in (r, order, slack):
            arr[every, ..., k], arr[every, ..., swap] = arr[every, ..., swap], arr[every, ..., k].copy()
        diag[:, k] = alpha
        # reflect column k onto the axis: v = x + sign(x0)|x| e0
        v = r[:, k:, k].copy()
        v[:, 0] += np.copysign(alpha, v[:, 0])
        scale = np.einsum("bi,bi->b", v, v)
        v /= np.sqrt(np.where(scale > 0.0, scale, 1.0))[:, None]
        tail -= 2.0 * v[:, :, None] * np.einsum("bi,bij->bj", v, tail)[:, None, :]
    return diag, order


def build_features(
    survey: SurveyFrame, target: TargetSpec, terms: tuple[FeatureTerm, ...]
) -> Design:
    """Expand weighting terms into a full-rank design with targets.

    Categorical variables expand to level indicators with the reference
    (lexicographically smallest) level dropped; interactions are products
    of the expanded columns. Targets are weighted means on the population
    frame or direct margin values. Rank deficiency raises with the
    dependent column names.
    """
    if not terms:
        raise SchemaError("at least one weighting term is required")
    variables = {v for t in terms for v in t.sources}
    for var in sorted(variables):
        survey.kind(var)  # raises if undeclared
    levels = _level_sets(survey, target, variables)

    pop_frame = target.frame if isinstance(target, PopulationTarget) else None
    pop_w = None
    # each variable is expanded once per frame and shared by its terms
    order = dict.fromkeys(v for t in terms for v in t.sources)
    expanded = {v: _expand_variable(survey, v, levels.get(v)) for v in order}
    if pop_frame is not None:
        pop_w = target.weights / target.weights.sum()
        pop_expanded = {v: _expand_variable(pop_frame, v, levels.get(v)) for v in order}

    columns: list[np.ndarray] = []
    names: list[str] = []
    sources: list[frozenset] = []
    targets: list[float] = []
    for term in terms:
        expansions = [expanded[v] for v in term.sources]
        if pop_frame is not None:
            pop_expansions = [pop_expanded[v] for v in term.sources]
        for idx in product(*[range(len(e)) for e in expansions]):
            parts = [expansions[k][i] for k, i in enumerate(idx)]
            name = ":".join(p[0] for p in parts)
            col = parts[0][1].copy()
            for _, extra in parts[1:]:
                col = col * extra
            if pop_frame is not None:
                pop_col = pop_expansions[0][idx[0]][1].copy()
                for k, i in enumerate(idx[1:], start=1):
                    pop_col = pop_col * pop_expansions[k][i][1]
                tgt = float(pop_w @ pop_col)
            else:
                tgt = _margin_lookup(target, term, name)
            columns.append(col)
            names.append(name)
            sources.append(frozenset(term.sources))
            targets.append(tgt)

    matrix = np.column_stack(columns).astype(np.float64)
    dependent = check_rank(matrix)
    if dependent:
        raise RankDeficiencyError(tuple(names[j] for j in dependent))
    return Design(
        matrix=matrix,
        column_names=tuple(names),
        column_sources=tuple(sources),
        targets=np.asarray(targets, dtype=np.float64),
        term_names=tuple(t.name for t in terms),
    )
