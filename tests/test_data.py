"""Loading, filtering, and feature expansion."""

import numpy as np
import pytest

from surveysense import (
    MarginTarget,
    RankDeficiencyError,
    SchemaError,
    apply_filters,
    build_features,
    frame_from_columns,
    load_margins,
    load_population_target,
    load_table,
    terms_from_config,
)
from surveysense.data import check_rank


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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


def test_load_table_binary_must_be_01(tmp_path):
    path = write(tmp_path, "s.csv", "v\n2\n")
    with pytest.raises(SchemaError):
        load_table(path, {"v": "binary"})


def test_frame_from_columns_checks_shapes():
    with pytest.raises(SchemaError, match="lengths differ"):
        frame_from_columns(
            {"a": np.arange(3.0), "b": np.zeros(2)},
            {"a": "continuous", "b": "binary"},
        )
    with pytest.raises(SchemaError, match="unknown kind"):
        frame_from_columns({"a": np.arange(3.0)}, {"a": "count"})
    with pytest.raises(SchemaError, match="0 or 1"):
        frame_from_columns({"a": np.array([0.0, 2.0])}, {"a": "binary"})


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


def test_build_features_margin_targets(tmp_path):
    frame = load_table(write(tmp_path, "s.csv", SURVEY), SCHEMA)
    target = MarginTarget(
        {
            "party": {"dem": 0.4, "rep": 0.35, "ind": 0.25},
            "voted": {"1": 0.62},
        }
    )
    design = build_features(frame, target, terms_from_config(["party", "voted"]))
    # reference level (lexicographically first) dropped: dem stays implicit
    assert design.column_names == ("party=ind", "party=rep", "voted")
    assert design.targets.tolist() == [0.25, 0.35, 0.62]
    problem = design.to_problem()
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
