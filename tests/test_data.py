"""Loading, filtering, and feature expansion."""

import csv
import io
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surveysense import (
    MarginTarget,
    PopulationTarget,
    RankDeficiencyError,
    SchemaError,
    SurveyFrame,
    apply_filters,
    build_features,
    load_margins,
    load_population_target,
    load_table,
    terms_from_config,
)
from surveysense.calibrate import check_rank
from surveysense.data import MISSING_TOKENS, _parse_cell, _zero_one


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def frame_of(columns, kinds):
    """An in-memory frame: categorical cells as str, the others as float64,
    with row ids 1 to n."""
    arrays = {name: np.asarray(values, dtype=object) if kinds[name] == "categorical"
              else np.asarray(values).astype(np.float64) for name, values in columns.items()}
    n = len(next(iter(arrays.values())))
    return SurveyFrame(arrays, dict(kinds), np.arange(1, n + 1, dtype=np.int64))


SURVEY = (
    "age,party,voted\n"
    "34,dem,1\n"
    "51,rep,0\n"
    "29,dem,NA\n"
    "44,ind,1\n"
    "61,rep,1\n"
    "38,ind,0\n"
)
SCHEMA = {"age": "continuous", "party": "categorical", "voted": "binary"}


def test_load_table_drops_missing_rows(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    assert frame.n == 5
    # row ids are 1-based data-row numbers from the source file
    assert frame.row_ids.tolist() == [1, 2, 4, 5, 6]
    assert frame.column("age").tolist() == [34.0, 51.0, 44.0, 61.0, 38.0]
    assert frame.kind("party") == "categorical"
    assert frame.levels("party") == ("dem", "ind", "rep")


def test_load_table_rejects_bad_cells(tmp_path):
    path = write(tmp_path, "s.csv", "age\nforty\n")
    with pytest.raises(SchemaError, match="forty"):
        load_table(path, {"age": "continuous"})
    with pytest.raises(SchemaError, match="missing from header"):
        load_table(path, {"income": "continuous"})
    with pytest.raises(SchemaError, match="unknown kind"):
        load_table(path, {"age": "numeric"})


def dictreader_load_table(path, schema, missing=MISSING_TOKENS):
    """Row-by-row loader, kept as the oracle for the column-wise one. Each
    kept row's cells go through ``_parse_cell``, which rejects an unparseable
    cell, a binary cell other than 0 or 1, and a NaN or infinite one."""
    raw = {name: [] for name in schema}
    row_ids = []
    dropped = 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        absent = [name for name in schema if name not in header]
        if absent:
            raise SchemaError(f"{path}: declared columns missing from header: {absent}")
        for lineno, record in enumerate(reader, start=1):
            cells = {name: record[name] for name in schema}
            if any(cells[name] is None or cells[name].strip() in missing for name in schema):
                dropped += 1
                continue
            for name in schema:
                raw[name].append(_parse_cell(cells[name].strip(), schema[name], name, lineno))
            row_ids.append(lineno)
    if dropped:
        logging.getLogger("surveysense.data").info(
            "%s: dropped %d rows with missing values (listwise)", path, dropped
        )
    if not row_ids:
        raise SchemaError(f"{path}: no complete rows after listwise deletion")
    columns = {
        name: np.asarray(raw[name], dtype=object if schema[name] == "categorical" else np.float64)
        for name in schema
    }
    return columns, np.asarray(row_ids, dtype=np.int64)


def _load_outcome(loader, path, schema, caplog):
    """Columns, row ids and log lines of a load, or its SchemaError text."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="surveysense.data"):
        try:
            result = loader(path, schema)
        except SchemaError as err:
            return "error", str(err), caplog.messages
    if isinstance(result, tuple):
        columns, row_ids = result
    else:
        columns, row_ids = result.columns, result.row_ids
    return columns, row_ids, caplog.messages


INGEST_CASES = {
    "blank_short_long_rows": (
        "a,b,c\n1,x,0\n\n2,y\n3,z,1,extra,more\n\n\n4,w,0\n5\n",
        {"a": "continuous", "b": "categorical", "c": "binary"},
    ),
    "duplicate_header": (
        "a,b,a\n1,x,7\n2,y\n3,z,9\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "quoted_delimiter_and_newline": (
        'a,b\n1,"x,y"\n2,"two\nlines"\n3," padded "\n',
        {"a": "continuous", "b": "categorical"},
    ),
    "padded_cells": (
        "a,b,c\n 1 ,  x ,1 \n\t2\t, y,  0\n",
        {"a": "continuous", "b": "categorical", "c": "binary"},
    ),
    "missing_in_one_column": (
        "a,b,c\n1,x,1\n2,NA,0\n3,,1\n4, NA ,1\n5,v,0\n",
        {"a": "continuous", "b": "categorical", "c": "binary"},
    ),
    "float_accepts": (
        'a,c\n" 1e3 ",1\ninf,0.0\n1_0,1e0\n-inf,-0\nnan,1\n',
        {"a": "continuous", "c": "binary"},
    ),
    "bad_numeric_cell": (
        "a,c\n1,0\n2,NA\n3,1\nforty,1\nfifty,0\n",
        {"a": "continuous", "c": "binary"},
    ),
    "bad_binary_cell": (
        "a,c\n1,0\n2,1\n3,2\n4,0.5\n",
        {"a": "continuous", "c": "binary"},
    ),
    "bad_cells_in_two_columns": (
        "a,c\n1,0\n2,nan\nsix,1\n",
        {"a": "continuous", "c": "binary"},
    ),
    "bad_cells_in_one_row": (
        "a,c\n1,0\nsix,2\n",
        {"a": "continuous", "c": "binary"},
    ),
    "bad_cell_in_a_dropped_row": (
        "a,c\nforty,NA\n2,1\n",
        {"a": "continuous", "c": "binary"},
    ),
    "non_finite_cell_in_a_dropped_row": (
        "a,c\nnan,NA\n-inf,\n2,1\n",
        {"a": "continuous", "c": "binary"},
    ),
    "every_row_dropped": (
        "a,b\n1,NA\n,x\n3\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "header_only": ("a,b\n", {"a": "continuous"}),
    "empty_file": ("", {"a": "continuous"}),
    "no_final_newline": ("a,b\n1,x\n2,y", {"a": "continuous", "b": "categorical"}),
    "whitespace_only_line": (
        "a,b\n1,x\n \n\t\n2,y\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "delimiters_only_line": (
        "a,b,c\n1,x,0\n,,\n2,y,1\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "crlf_line_endings": (
        "a,b\r\n1,x\r\n\r\n2,y\r\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "form_feed_and_separators_in_fields": (
        "a,b\n1,x\x0cy\n2,p\x1cq\n3,u\u2028v\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "quote_inside_a_field": (
        'a,b\n1,x"y\n2,z""\n',
        {"a": "continuous", "b": "categorical"},
    ),
    "header_only_without_newline": ("a,b", {"a": "continuous"}),
    "every_row_longer_than_header": (
        "a,b\n1,x,7\n2,y,8,9\n",
        {"a": "continuous", "b": "categorical"},
    ),
    "tab_delimiter": (  # a tab is field text, not a separator: one column
        "a\tb\tc\n1\tx, y\t0\n2\t\t1\n3\tz\n",
        {"a\tb\tc": "categorical"},
    ),
}


def assert_same_outcome(got, want, schema):
    if want[0] == "error" or got[0] == "error":
        assert got == want
        return
    assert got[2] == want[2]  # the same logged drop count
    np.testing.assert_array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype
    assert list(got[0]) == list(want[0])
    for name in schema:
        assert got[0][name].dtype == want[0][name].dtype
        np.testing.assert_array_equal(got[0][name], want[0][name])


@pytest.mark.parametrize("case", sorted(INGEST_CASES))
def test_load_table_matches_dictreader_oracle(tmp_path, caplog, case):
    text, schema = INGEST_CASES[case]
    path = write(tmp_path, "s.csv", text)
    got = _load_outcome(load_table, path, schema, caplog)
    want = _load_outcome(dictreader_load_table, path, schema, caplog)
    assert_same_outcome(got, want, schema)


#: cell texts of the property test: digits, letters that spell inf, nan and
#: exponents, spaces, the missing token and both of csv's special characters
CELL_PIECES = list("0123456789") + ["a", "e", "f", "i", "n", "x", " ", "NA", '"', "\r"]


@st.composite
def delimited_texts(draw):
    """A schema over the columns a, b, c, e; a header naming all but e in
    some order, perhaps with others, quoted or repeated; and rows of cells drawn
    from the cell pieces, commas and newlines, most of them as wide as the
    header."""
    kinds = st.sampled_from(["binary", "categorical", "continuous"])
    schema = draw(st.dictionaries(st.sampled_from(["a", "b", "c", "e"]), kinds, min_size=1))
    extra = draw(st.lists(st.sampled_from(["a", "d", '"b"', " c", ""]), max_size=2))
    names = draw(st.permutations([name for name in schema if name != "e"] + extra))
    cell = st.lists(st.sampled_from(CELL_PIECES + [",", "\n"]), max_size=3).map("".join)
    width = st.one_of(st.just(len(names)), st.integers(0, len(names) + 1))
    rows = draw(st.lists(width.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)), max_size=6))
    ending = draw(st.sampled_from(["", "\n", "\n\n"]))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    return "\n".join(lines) + ending, schema


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(delimited_texts())
def test_load_table_matches_oracle_on_drawn_texts(tmp_path, caplog, case):
    text, schema = case
    path = write(tmp_path, "s.csv", text)
    got = _load_outcome(load_table, path, schema, caplog)
    want = _load_outcome(dictreader_load_table, path, schema, caplog)
    assert_same_outcome(got, want, schema)


def dictreader_load_margins(path):
    """The margin loader as it read files through ``csv.DictReader``, kept as
    the oracle for ``load_margins``, which reads them as survey files."""
    margins = {}
    fields, records = None, []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
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


#: field texts of the drawn margin files: names and levels, finite and
#: non-finite values, and padding; and csv's special characters
MARGIN_PIECES = ["a", "b", "1", "0.5", "0.25", "-", "e", "inf", "nan", " ", ":", ","]
CSV_SPECIALS = ['"', "\r", "\n"]


@st.composite
def margin_texts(draw):
    """A header naming variable, level and value in some order, perhaps
    with others, repeated or quoted, or lacking one; rows of fields, most as
    wide as the header and most values numeric, and blank lines; one line
    ending; and a field size limit that some fields pass. About half the
    texts hold no quote and no carriage return, which the table reader
    splits itself."""
    names = ["variable", "level", "value"]
    if draw(st.integers(0, 3)) == 3:
        del names[draw(st.integers(0, 2))]
    extra = draw(st.lists(st.sampled_from(["value", "x", " variable", ""]), max_size=2))
    header = draw(st.permutations(names + extra))
    pieces = MARGIN_PIECES + (CSV_SPECIALS if draw(st.booleans()) else [])
    field = st.one_of(st.sampled_from(["a", "b", "", "1", "x"]),
                      st.lists(st.sampled_from(pieces), max_size=4).map("".join))
    if '"' in pieces:
        field = st.one_of(field, field.map(lambda f: '"' + f.replace('"', '""') + '"'))
        header = [draw(st.sampled_from([name, f'"{name}"'])) for name in header]
    numeric = st.sampled_from(["0.5", " 0.25", "1", "0", "2"])
    value = st.one_of(numeric, numeric, field)
    width = st.one_of(st.just(len(header)), st.integers(0, len(header) + 1))
    rows = draw(st.lists(width.flatmap(lambda k: st.tuples(*(
        value if j < len(header) and header[j].strip('"') == "value" else field for j in range(k)
    ))), max_size=5))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"] if '"' in pieces else ["\n"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    limit = draw(st.sampled_from([None, None, 8, 12]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), limit


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(margin_texts())
def test_load_margins_matches_dictreader_oracle_on_drawn_texts(tmp_path, case):
    text, limit = case
    path = write(tmp_path, "m.csv", text)
    outcomes = []
    default = csv.field_size_limit()
    try:
        csv.field_size_limit(limit or default)
        for loader in (load_margins, dictreader_load_margins):
            try:
                outcomes.append(loader(path).margins)
            except SchemaError as err:
                outcomes.append(str(err))
    finally:
        csv.field_size_limit(default)
    got, want = outcomes
    if want == f"{path}: margin file needs columns variable,level,value":
        # the one message that changed: the table reader names what is absent
        header = next(csv.reader(io.StringIO(text, newline="")), [])
        absent = [name for name in ("variable", "level", "value") if name not in header]
        want = f"{path}: declared columns missing from header: {absent}"
    assert got == want


#: cells of one numeric column in the route test: 0/1 cells, which the
#: binary decode takes; cells that only ``float()`` or stripping make 0 or 1;
#: and the missing tokens. The third row is dropped by column k.
ROUTE_COLUMNS = {
    "zero_one": ["1", "0", "0", "1", "1", "0"],
    "padded": ["0", "1", "1.0", " 1", "\t0", "1"],
    "gaps": ["1", "", "0", "NA", "1", "0"],
}


@pytest.mark.parametrize("missing", [MISSING_TOKENS], ids=["default"])
@pytest.mark.parametrize("kind", ["binary", "continuous"])
@pytest.mark.parametrize("cells", sorted(ROUTE_COLUMNS))
def test_load_table_routes_agree(tmp_path, caplog, cells, kind, missing):
    """The split route, with or without whitespace to strip and with or
    without the 0/1 decode, gives the csv.reader route's frame, which a
    quoted header field forces, and the row-by-row oracle's."""
    column = ROUTE_COLUMNS[cells]
    rows = zip(["x", "y", "NA", "x", "y", "x"], column, range(7, 13))
    body = "".join(f"{k},{v},{c}\n" for k, v, c in rows)
    schema = {"v": kind, "c": "continuous", "k": "categorical"}
    loads = []
    for name, header in (("split.csv", "k,v,c"), ("quoted.csv", '"k",v,c')):
        path = write(tmp_path, name, f"{header}\n{body}")
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="surveysense.data"):
            frame = load_table(path, schema)
        loads.append((frame, [m.removeprefix(path) for m in caplog.messages]))
    (split, split_log), (quoted, quoted_log) = loads
    want, want_ids = dictreader_load_table(tmp_path / "split.csv", schema, missing)
    assert split_log == quoted_log and len(split_log) == 1  # the same dropped count
    assert split.kinds == quoted.kinds == schema
    for frame in (split, quoted):
        np.testing.assert_array_equal(frame.row_ids, want_ids)
        for name in schema:
            assert frame.columns[name].dtype == want[name].dtype
            np.testing.assert_array_equal(frame.columns[name], want[name])
    if cells != "gaps":
        assert split.column("v").tolist() == [float(v) for v in column[:2] + column[3:]]


@pytest.mark.parametrize(
    "cells",
    [[], ["2"], ["", "01"], ["0\n1", "1"], ["1", " 0"], ["\uff11"], ["0", "1", "1.0"], ["00"]],
)
def test_zero_one_decodes_only_single_digit_cells(cells):
    assert _zero_one(["1", "0", "0"]).tolist() == [1.0, 0.0, 0.0]
    assert _zero_one(["1", "0", "0"]).dtype == np.float64
    assert _zero_one(cells) is None


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv_reader"])
def test_field_size_limit_on_both_routes(tmp_path, quoted):
    limit = csv.field_size_limit()
    q = '"' if quoted else ""
    schema = {"a": "continuous", "b": "categorical"}
    at_limit = write(tmp_path, "ok.csv", f"a,b\n1,{q}x{q}\n2,{'y' * limit}\n")
    assert load_table(at_limit, schema).column("b")[1] == "y" * limit
    data_row = write(tmp_path, "row.csv", f"a,b\n1,{q}x{q}\n\n2,{'y' * (limit + 1)}\n3,z\n")
    message = f"{data_row}: data row 2: field larger than field limit ({limit})"
    with pytest.raises(SchemaError) as err:
        load_table(data_row, schema)
    assert str(err.value) == message
    header = write(tmp_path, "head.csv", f"a,b,{'c' * (limit + 1)}\n1,{q}x{q},0\n")
    with pytest.raises(SchemaError, match=r": header: field larger than field limit"):
        load_table(header, schema)


def test_loaders_skip_a_byte_order_mark(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", "\ufeff" + SURVEY), SCHEMA)
    assert frame.column("age").tolist() == [34.0, 51.0, 44.0, 61.0, 38.0]
    quoted = load_table(write(tmp_path, "q.csv", '\ufeffage,party\n1,"a"\n'), {"age": "continuous"})
    assert quoted.column("age").tolist() == [1.0]
    margins = load_margins(write(tmp_path, "m.csv", "\ufeffvariable,level,value\nage,,47.5\n"))
    assert margins.margins == {"age": {None: 47.5}}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\nnan,1\ninf,0\n2,1\n", "row 1, column 'a': 'nan' is not finite"),
        (INGEST_CASES["float_accepts"][0], "row 2, column 'a': 'inf' is not finite"),
        ("a,b\n1,0\n2,x\n1e400,1\n", "row 3, column 'a': '1e400' is not finite"),
    ],
)
def test_load_table_rejects_non_finite_cells(tmp_path, text, message):
    path = write(tmp_path, "s.csv", text)
    for loader in (load_table, dictreader_load_table):
        with pytest.raises(SchemaError) as err:
            loader(path, {"a": "continuous"})
        assert str(err.value) == message


def test_load_table_binary_must_be_01(tmp_path):
    path = write(tmp_path, "s.csv", "v\n2\n")
    with pytest.raises(SchemaError):
        load_table(path, {"v": "binary"})


def test_apply_filters(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    kept = apply_filters(frame, [{"column": "age", "op": ">=", "value": 40}])
    assert kept.column("age").tolist() == [51.0, 44.0, 61.0]
    kept = apply_filters(frame, [{"column": "party", "op": "==", "value": "dem"}])
    assert kept.n == 1
    with pytest.raises(SchemaError, match="removed every row"):
        apply_filters(frame, [{"column": "age", "op": ">", "value": 100}])
    with pytest.raises(SchemaError, match="categorical"):
        apply_filters(frame, [{"column": "party", "op": "<", "value": 1}])


class TestMargins:
    @staticmethod
    def test_load(tmp_path):
        text = "variable,level,value\nparty,dem,0.4\nparty,rep,0.35\nparty,ind,0.25\nage,,47.5\n"
        target = load_margins(write(tmp_path, "m.csv", text))
        assert target.margins["party"]["dem"] == 0.4
        assert target.margins["age"][None] == 47.5

    @staticmethod
    def test_duplicate_rows_rejected(tmp_path):
        text = "variable,level,value\nparty,dem,0.4\nparty,dem,0.4\n"
        with pytest.raises(SchemaError, match="duplicate"):
            load_margins(write(tmp_path, "m.csv", text))

    @staticmethod
    def test_short_row_rejected(tmp_path):
        path = write(tmp_path, "m.csv", "variable,level,value\nage\n")
        with pytest.raises(SchemaError, match=r"m\.csv row 1: short row"):
            load_margins(path)

    @staticmethod
    @pytest.mark.parametrize("value", ["nan", " -inf", "1e999"])
    def test_non_finite_value_rejected(tmp_path, value):
        path = write(tmp_path, "m.csv", f"variable,level,value\nage,,47.5\nx,,{value}\n")
        with pytest.raises(SchemaError) as err:
            load_margins(path)
        assert str(err.value) == f"{path} row 2: value {value!r} is not finite"

    @staticmethod
    def test_columns_in_any_order(tmp_path):
        path = write(tmp_path, "m.csv", "value,variable,level\n0.4,party,dem\nx,party,rep\n")
        with pytest.raises(SchemaError) as err:
            load_margins(path)
        assert str(err.value) == f"{path} row 2: value 'x' is not numeric"
        path = write(tmp_path, "m.csv", "level,value,variable\ndem,0.4,party\nrep,0.6,party\n")
        assert load_margins(path).margins == {"party": {"dem": 0.4, "rep": 0.6}}

    @staticmethod
    def test_over_long_field_rejected(tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, "m.csv", f"variable,level,value\nage,,47.5\ng,{'x' * (limit + 1)},1\n")
        with pytest.raises(SchemaError) as err:
            load_margins(path)
        assert str(err.value) == f"{path}: data row 2: field larger than field limit ({limit})"
        header = write(tmp_path, "h.csv", f"variable,level,value,{'c' * (limit + 1)}\nage,,1,0\n")
        with pytest.raises(SchemaError, match=r"h\.csv: header: field larger than field limit"):
            load_margins(header)

    @staticmethod
    def test_shares_must_sum_to_one():
        with pytest.raises(SchemaError, match="sum to"):
            MarginTarget({"party": {"dem": 0.5, "rep": 0.4}})
        # a single listed level leaves the complement implicit
        MarginTarget({"voted": {"1": 0.62}})

    @staticmethod
    def test_mean_and_level_rows_cannot_mix():
        with pytest.raises(SchemaError, match="mixes"):
            MarginTarget({"age": {None: 47.5, "young": 0.5}})


def test_load_population_target_weight_column(tmp_path):
    text = "voted,wt\n1,2\n0,1\n1,1\n"
    target = load_population_target(
        write(tmp_path, "p.csv", text), {"voted": "binary"}, weight_column="wt"
    )
    assert target.weights.tolist() == [2.0, 1.0, 1.0]
    assert "wt" not in target.frame.columns


def test_terms_from_config_rejects_duplicates():
    with pytest.raises(SchemaError, match="duplicate"):
        terms_from_config(["a", "a"])
    with pytest.raises(SchemaError, match="at least two"):
        terms_from_config(["a"], [["b"]])


def test_check_rank_flags_constant_and_dependent_columns():
    rng = np.random.default_rng(7)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    assert check_rank(np.column_stack([a, b])) == ()
    assert check_rank(np.column_stack([a, b, a + b])) != ()
    assert 1 in check_rank(np.column_stack([a, np.ones(40)]))
    # one row whose only entry is zero: the column's peak is 0, so its
    # scale falls to the floor and the column is cut
    assert check_rank(np.array([[0.0]])) == (0,)


def test_build_features_margin_targets(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    target = MarginTarget(
        {
            "party": {"dem": 0.4, "rep": 0.35, "ind": 0.25},
            "voted": {"1": 0.62},
        }
    )
    problem = build_features(frame, target, terms_from_config(["party", "voted"]))
    # reference level (lexicographically first) dropped: dem stays implicit
    assert problem.column_names == ("party=ind", "party=rep", "voted")
    assert problem.targets.tolist() == [0.25, 0.35, 0.62]
    assert problem.n == 5 and problem.p == 3


def test_build_features_population_targets(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    pop = load_population_target(
        write(tmp_path, "p.csv", "voted,wt\n1,3\n0,1\n"),
        {"voted": "binary"},
        weight_column="wt",
    )
    design = build_features(frame, pop, terms_from_config(["voted"]))
    assert design.targets.tolist() == [0.75]


def test_build_features_interaction_from_population(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    pop_text = "voted,age\n1,30\n0,50\n1,70\n0,40\n"
    pop = load_population_target(write(tmp_path, "p.csv", pop_text), {"voted": "binary", "age": "continuous"})
    design = build_features(
        frame, pop, terms_from_config(["voted", "age"], [["age", "voted"]])
    )
    assert design.column_names == ("voted", "age", "age:voted")
    np.testing.assert_allclose(
        design.matrix[:, 2], frame.column("age") * frame.column("voted")
    )
    assert design.targets.tolist() == [0.5, 47.5, 25.0]
    # a self-product duplicates the source column and trips the rank check
    dup = terms_from_config(["voted"], [["voted", "voted"]])
    with pytest.raises(RankDeficiencyError):
        build_features(frame, pop, dup)



def test_interaction_margins_are_joint_means_unless_all_categorical(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    # a continuous x binary row is E[age * voted], not a share
    target = MarginTarget({"voted": {"1": 0.5}, "age": {None: 47.5},
                           "age:voted": {"age:voted": 25.0}})
    problem = build_features(frame, target, terms_from_config(["voted", "age"], [["age", "voted"]]))
    assert problem.targets.tolist() == [0.5, 47.5, 25.0]
    # an all-categorical interaction is a joint distribution
    pair = frame_of({"a": ["u", "w", "u", "w", "w"], "b": ["s", "s", "t", "t", "s"]},
                    {"a": "categorical", "b": "categorical"})
    joint = {"u:s": 0.25, "u:t": 0.25, "w:s": 0.25, "w:t": 0.2}
    shares = {"a": {"u": 0.5, "w": 0.5}, "b": {"s": 0.5, "t": 0.5}}
    terms = terms_from_config(["a", "b"], [["a", "b"]])
    with pytest.raises(SchemaError, match="margin shares for 'a:b' sum to 0.95, expected 1"):
        build_features(pair, MarginTarget({**shares, "a:b": joint}), terms)
    problem = build_features(pair, MarginTarget({**shares, "a:b": {**joint, "w:t": 0.25}}), terms)
    assert problem.column_names == ("a=w", "b=t", "a=w:b=t")
    assert problem.targets.tolist() == [0.5, 0.5, 0.25]

#: variable names of the two-route property; some hold "=", as generated
#: column names do
ROUTE_NAMES = {"categorical": ("c", "c=k"), "binary": ("b", "b=1"), "continuous": ("x", "x=yrs")}


@st.composite
def two_route_cases(draw):
    """A survey and a weighted population over one variable of each kind
    and a second of a drawn kind, with every pair of them interacted.

    Each categorical level and both binary values appear in both frames, so
    the level sets agree and no binary share rounds to 0 or 1.
    """
    extra = draw(st.sampled_from(sorted(ROUTE_NAMES)))
    kinds = {names[0]: kind for kind, names in ROUTE_NAMES.items()}
    kinds[ROUTE_NAMES[extra][1]] = extra
    levels = {v: ("u", "w", "z")[: draw(st.integers(2, 3))] for v, k in kinds.items()
              if k == "categorical"}

    def frame(n):
        columns = {}
        for var, kind in kinds.items():
            if kind == "categorical":
                head = [*levels[var], "u"][:3]
                tail = draw(st.lists(st.sampled_from(levels[var]), min_size=n, max_size=n))
            elif kind == "binary":
                head = ["0", "1", "1"]
                tail = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
            else:
                head = []
                tail = draw(st.lists(st.integers(-4, 9), min_size=n + 3, max_size=n + 3))
            columns[var] = head + tail
        return frame_of(columns, kinds)

    survey = frame(draw(st.integers(20, 60)))
    population = frame(draw(st.integers(3, 40)))
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=population.n,
                            max_size=population.n))
    names = list(kinds)
    pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
    return survey, population, np.asarray(weights), levels, terms_from_config(names, pairs)


def margin_rows(population, weights, levels, terms):
    """The population's weighted means in the margin file's key convention:
    a categorical part iterates its levels, a binary or continuous part
    stands in by its name, and a lone binary or continuous variable takes
    level 1 or an empty level."""
    w = weights / weights.sum()
    rows = []
    for term in terms:
        choices = [levels.get(v, [None]) for v in term]
        for picks in itertools.product(*choices):
            column = np.ones(population.n)
            for var, level in zip(term, picks):
                values = population.column(var)
                column = column * (values == level if level is not None else values)
            if len(term) == 1 and picks[0] is None:
                key = "1" if population.kind(term[0]) == "binary" else ""
            else:
                key = ":".join(v if level is None else level for v, level in zip(term, picks))
            rows.append([":".join(term), key, repr(float(w @ column))])
    return rows


def _route_outcome(survey, target, terms):
    try:
        return build_features(survey, target, terms)
    except RankDeficiencyError as err:
        return err.columns


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(two_route_cases())
def test_margin_file_route_matches_population_route(tmp_path, case):
    survey, population, weights, levels, terms = case
    pop = PopulationTarget(population, weights)
    path = tmp_path / "margins.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(
            [["variable", "level", "value"], *margin_rows(population, weights, levels, terms)]
        )
    from_pop = _route_outcome(survey, pop, terms)
    from_margins = _route_outcome(survey, load_margins(str(path)), terms)
    if isinstance(from_pop, tuple):
        assert from_margins == from_pop
        return
    assert from_margins.column_names == from_pop.column_names
    assert from_margins.column_sources == from_pop.column_sources
    np.testing.assert_array_equal(from_margins.matrix, from_pop.matrix)
    np.testing.assert_allclose(from_margins.targets, from_pop.targets, rtol=0, atol=1e-12)
