"""Config parsing rules and deterministic report assembly."""

import json
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from surveysense.benchmark import BenchmarkRecord
from surveysense.bias import ObservedScale, SensitivityParams
from surveysense.bootstrap import bootstrap_interval
from surveysense.calibrate import RakingDiagnostics
from surveysense.config import config_from_dict, load_config
from surveysense.errors import ConfigError, SchemaError
from surveysense.partial import SweepPoint
from surveysense.report import (
    _cell,
    _schema,
    _write_rows,
    assemble_report,
    bootstrap_block,
    build_pipeline,
    canonical_json,
    validate_report,
    write_contour_csv,
    write_weights_csv,
)
from surveysense.summary import ContourGrid


def minimal_config(**extra):
    cfg = {
        "survey": "survey.csv",
        "columns": {"x": "binary", "y": "continuous"},
        "outcome": "y",
        "weighting": {"variables": ["x"]},
        "margins": "margins.csv",
    }
    cfg.update(extra)
    return cfg


class TestConfigDict:
    def test_minimal_parses_with_defaults(self):
        cfg = config_from_dict(minimal_config())
        assert cfg.weighting_variables == ("x",)
        assert cfg.out == "surveysense-out"
        assert cfg.bootstrap_draws == 1000
        assert cfg.detection_lambda == "cv"
        assert cfg.b_star is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys.*tpyo"):
            config_from_dict(minimal_config(tpyo=1))

    def test_threads_key_is_rejected(self):
        # the bootstrap thread pool is gone; naming it must fail, not be ignored
        with pytest.raises(ConfigError, match="unknown config keys.*threads"):
            config_from_dict(minimal_config(threads=2))

    def test_unknown_block_key(self):
        with pytest.raises(ConfigError, match="unknown grid keys"):
            config_from_dict(minimal_config(grid={"rho_step": 0.1, "extra": 2}))
        with pytest.raises(ConfigError, match="unknown bootstrap keys"):
            config_from_dict(minimal_config(bootstrap={"nsim": 10}))

    def test_grid_cap_and_b_star_bound_are_inclusive(self):
        # 1001 x 951 points lie under the cap; 1001 x 1001 lie over it
        fine = config_from_dict(minimal_config(grid={"rho_step": 0.002, "r2_step": 0.001}))
        assert (fine.rho_step, fine.r2_step) == (0.002, 0.001)
        with pytest.raises(ConfigError, match="over the cap of 1,000,000 points"):
            config_from_dict(minimal_config(grid={"rho_step": 0.002, "r2_step": 0.00095}))
        assert config_from_dict(minimal_config(b_star=-1e50)).b_star == -1e50
        with pytest.raises(ConfigError, match="b_star must be finite"):
            config_from_dict(minimal_config(b_star=float("nan")))

    def test_margins_population_exclusive(self):
        raw = minimal_config()
        raw["population"] = "pop.csv"
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(raw)
        del raw["margins"]
        del raw["population"]
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict(raw)

    def test_population_block_with_weight(self):
        raw = minimal_config()
        del raw["margins"]
        raw["population"] = {"path": "pop.csv", "weight": "wt"}
        cfg = config_from_dict(raw)
        assert cfg.population == "pop.csv"
        assert cfg.population_weight == "wt"

    def test_missing_required_key(self):
        raw = minimal_config()
        del raw["outcome"]
        with pytest.raises(ConfigError, match="missing required key 'outcome'"):
            config_from_dict(raw)

    def test_stray_weighting_variable(self):
        with pytest.raises(ConfigError, match="weighting variables missing"):
            config_from_dict(minimal_config(weighting={"variables": ["nope"]}))

    def test_partial_outside_sampling_set(self):
        raw = minimal_config(detection={"sampling_set": ["x"], "partial": ["y"]})
        with pytest.raises(ConfigError, match="belong to the detection sampling set"):
            config_from_dict(raw)

    def test_bad_detection_lambda(self):
        with pytest.raises(ConfigError, match='"cv" or a positive number'):
            config_from_dict(minimal_config(detection={"lambda": "auto"}))
        with pytest.raises(ConfigError, match='"cv" or a positive number'):
            config_from_dict(minimal_config(detection={"lambda": -0.5}))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, True, "3", None])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            config_from_dict(minimal_config(seed=seed))

    def test_seed_range_and_override(self):
        cfg = config_from_dict(minimal_config(seed=2**64 - 1))
        assert cfg.seed == 2**64 - 1
        assert replace(cfg, seed=0).seed == 0
        with pytest.raises(ConfigError, match="^seed must be"):
            replace(cfg, seed=-1)

    @pytest.mark.parametrize(
        "entry",
        [
            "x == 1",
            {"column": "x", "op": "=="},
            {"column": "x", "op": "==", "value": 1, "and": 2},
            {"column": "x", "op": "=~", "value": 1},
            {"column": "x", "op": ["=="], "value": 1},
            {"column": "z", "op": "==", "value": 1},
            {"column": ["x"], "op": "==", "value": 1},
        ],
    )
    def test_bad_filter_entry(self, entry):
        good = {"column": "x", "op": "==", "value": 1}
        assert config_from_dict(minimal_config(filters=[good])).filters == (good,)
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_config(filters=[good, entry]))
        assert str(err.value) == (
            "filters[1] must be an object with exactly column (a declared one), "
            f"op (== != < <= > >=) and value, not {entry!r}"
        )

    def test_every_key_reaches_its_field(self):
        columns = {"x": "binary", "y": "continuous", "v": "binary", "w": "continuous",
                   "g": "categorical"}
        raw = {
            "survey": "s.csv", "columns": columns, "outcome": "y", "out": "o",
            "population": {"path": "p.csv", "weight": "pw"},
            "weighting": {"variables": ["x", "g"], "interactions": [["x", "g"]],
                          "base_weight": "w"},
            "b_star": 1, "grid": {"rho_step": 0.02, "r2_step": 0.04, "r2_max": 0.5},
            "sweep": {"variable": "v", "grid": [0.25, 1]}, "benchmark": {"covariates": ["g"]},
            "bootstrap": {"draws": 50, "alpha": 0.1, "rho": -0.5, "r2": 0.25,
                          "reestimate": False},
            "detection": {"sampling_set": ["x", "v"], "partial": ["v"], "lambda": 0.5},
            "filters": [{"column": "w", "op": ">", "value": 0}], "seed": 7,
        }
        cfg = config_from_dict(raw)
        assert vars(cfg) == {
            "survey": "s.csv", "schema": columns, "outcome": "y", "out": "o",
            "margins": None, "population": "p.csv", "population_weight": "pw",
            "weighting_variables": ("x", "g"), "interactions": (("x", "g"),),
            "base_weight": "w", "b_star": 1.0, "rho_step": 0.02, "r2_step": 0.04,
            "r2_max": 0.5, "sweep_variable": "v", "sweep_grid": (0.25, 1.0),
            "benchmark_covariates": ("g",), "bootstrap_draws": 50, "bootstrap_alpha": 0.1,
            "bootstrap_rho": -0.5, "bootstrap_r2": 0.25, "bootstrap_reestimate": False,
            "detection_sampling_set": ("x", "v"), "detection_partial": ("v",),
            "detection_lambda": 0.5, "filters": ({"column": "w", "op": ">", "value": 0},),
            "seed": 7,
        }
        assert type(cfg.b_star) is float and type(cfg.sweep_grid[1]) is float

    def test_filter_on_a_categorical_column_takes_any_value(self):
        # a categorical filter compares str(value) with each level; only a
        # numeric column needs a number
        columns = {"x": "binary", "y": "continuous", "g": "categorical"}
        for value in (1, True, "a", [1]):
            spec = {"column": "g", "op": "==", "value": value}
            cfg = config_from_dict(minimal_config(columns=columns, filters=[spec]))
            assert cfg.filters == (spec,)

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"reestimate": "false"}, "bootstrap.reestimate must be true or false, not 'false'"),
            ({"reestimate": 0}, "bootstrap.reestimate must be true or false, not 0"),
            ({"draws": 100.9}, "bootstrap.draws must be an integer, not 100.9"),
            ({"draws": True}, "bootstrap.draws must be an integer, not True"),
        ],
    )
    def test_bootstrap_values_are_not_coerced(self, block, message):
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_config(bootstrap=block))
        assert str(err.value) == message
        cfg = config_from_dict(minimal_config(bootstrap={"draws": 100, "reestimate": False}))
        assert (cfg.bootstrap_draws, cfg.bootstrap_reestimate) == (100, False)

    def test_require_b_star(self):
        cfg = config_from_dict(minimal_config())
        with pytest.raises(ConfigError, match="b_star is required"):
            cfg.require_b_star()
        assert config_from_dict(minimal_config(b_star=2)).require_b_star() == 2.0

    def test_overrides(self, tmp_path, monkeypatch):
        # --out and --seed replace the config's values; a flag not given keeps them
        from surveysense.cli import _Run

        monkeypatch.delenv("SURVEYSENSE_OUT", raising=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config(seed=5)))
        cfg, _ = load_config(str(path))
        same = _Run(SimpleNamespace(config=str(path), out=None, seed=None)).cfg
        assert same == cfg
        bumped = _Run(SimpleNamespace(config=str(path), out="elsewhere", seed=9)).cfg
        assert (bumped.out, bumped.seed) == ("elsewhere", 9)
        assert bumped == replace(cfg, out="elsewhere", seed=9)


class TestLoadConfig:
    def test_paths_resolve_relative_to_config(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        (sub / "cfg.json").write_text(json.dumps(minimal_config()))
        cfg, digest = load_config(str(sub / "cfg.json"))
        assert cfg.survey == str(sub / "survey.csv")
        assert cfg.margins == str(sub / "margins.csv")
        assert cfg.out == "surveysense-out"  # output stays cwd-relative
        assert len(digest) == 64

    def test_sha_tracks_bytes(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        p1.write_text(json.dumps(minimal_config()))
        p2.write_text(json.dumps(minimal_config(), indent=2))
        _, d1 = load_config(str(p1))
        _, d2 = load_config(str(p2))
        assert d1 != d2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.json"))


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        text = canonical_json({"b": 1, "a": [1.5, 2.25]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert canonical_json({"b": 1, "a": [1.5, 2.25]}) == text

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


@pytest.fixture(scope="module")
def pipeline(demo_bundle):
    cfg, sha = load_config(str(demo_bundle / "config.json"))
    return build_pipeline(cfg), sha


class TestAssembledReport:
    def test_report_validates_and_serializes(self, pipeline):
        pipe, sha = pipeline
        report = assemble_report(pipe, sha)
        assert report["provenance"]["config_sha256"] == sha
        assert report["n_rows"] == pipe.frame.n
        weighted = report["estimates"]["weighted"]["value"]
        assert weighted == pytest.approx(
            float(np.mean(pipe.baseline.values * pipe.y))
        )
        assert report["calibration"]["converged"] is True
        text = canonical_json(report)
        assert json.loads(text) == report

    def test_schema_rejects_missing_section(self, pipeline):
        pipe, sha = pipeline
        report = assemble_report(pipe, sha)
        del report["estimates"]
        with pytest.raises(SchemaError, match="schema validation"):
            validate_report(report)

    def test_schema_rejects_wrong_type(self, pipeline):
        pipe, sha = pipeline
        report = assemble_report(pipe, sha)
        report["n_rows"] = "many"
        with pytest.raises(SchemaError, match="n_rows"):
            validate_report(report)

    def test_bootstrap_block_with_drop_reasons_validates(self, pipeline):
        pipe, sha = pipeline
        block = bootstrap_block(
            bootstrap_interval(pipe.problem, pipe.y, SensitivityParams(0.0, 0.0), b=100)
        )
        assert block["dropped_by_reason"] == {
            "infeasible": 0, "rank_deficient": 0, "not_converged": 0
        }
        report = assemble_report(pipe, sha)
        assert report["bootstrap"] is None
        report["bootstrap"] = block
        validate_report(report)
        # the key is an addition: a block written without it still validates
        del block["dropped_by_reason"]
        validate_report(report)
        block["dropped_by_reason"] = {"infeasible": 1}
        with pytest.raises(SchemaError, match="schema validation"):
            validate_report(report)

    def test_shipped_schema_meets_its_metaschema(self):
        # validate_report skips this check on every run; it is made here once
        import jsonschema

        schema = _schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_each_record_layout_is_declared_once(self):
        # a record the report builds from a dataclass has exactly its fields
        props = _schema()["properties"]
        layouts = [
            (props["benchmarks"]["items"], BenchmarkRecord, ()),
            (props["sweep"]["properties"]["points"]["items"], SweepPoint, ()),
            (props["scale"], ObservedScale, ()),
            (props["calibration"], RakingDiagnostics, ("columns",)),
        ]
        for block, record, extra in layouts:
            assert set(block["required"]) == {f.name for f in fields(record)} | set(extra)

    def test_weights_csv_round_trips_floats(self, pipeline, tmp_path):
        pipe, _ = pipeline
        path = tmp_path / "weights.csv"
        write_weights_csv(path, pipe)
        lines = path.read_text().splitlines()
        assert lines[0] == "row_id,weight"
        assert len(lines) == pipe.frame.n + 1
        rid, cell = lines[1].split(",")
        assert rid == str(pipe.frame.row_ids[0])
        assert float(cell) == pipe.baseline.values[0]  # repr round-trip is exact

    def test_weights_csv_matches_the_csv_writer_byte_for_byte(self, tmp_path):
        # row ids with gaps, as listwise deletion leaves them, and floats
        # whose reprs take an exponent or many digits
        values = np.array([1e-300, 0.1, 1e16, 2.5, 1 / 3, 123456789.125, 5e-324])
        pipe = SimpleNamespace(
            frame=SimpleNamespace(row_ids=np.array([1, 2, 5, 9, 10, 400, 70001])),
            baseline=SimpleNamespace(values=values),
        )
        fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        write_weights_csv(fast, pipe)
        _write_rows(
            oracle, ["row_id", "weight"],
            [[str(rid), _cell(float(w))] for rid, w in zip(pipe.frame.row_ids, values)],
        )
        assert fast.read_bytes() == oracle.read_bytes()

    def test_contour_csv_matches_the_csv_writer_byte_for_byte(self, tmp_path):
        # signed zero, floats whose reprs take an exponent, the smallest
        # subnormal, and both killer flags
        rho = np.array([-1.0, -0.0, 0.5])
        r2 = np.array([0.0, 1e-05, 1e16, 5e-324])
        bias = np.array([[-0.0, 1e-05, -1e16, 5e-324], [0.0, -0.0, 1 / 3, 2.5],
                         [1e-300, 0.1, 1e16, -5e-324]])
        grid = ContourGrid(
            rho_axis=rho, r2_axis=r2, bias=bias, adjusted=1.0 - bias,
            killer_mask=bias > 0.0, boundary=np.zeros(3),
            scale=SimpleNamespace(), b_star=1.0,
        )
        fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
        write_contour_csv(fast, grid)
        _write_rows(
            oracle, ["rho", "r2", "bias", "adjusted", "killer"],
            [
                [_cell(float(rho[i])), _cell(float(r2[j])), _cell(float(bias[i, j])),
                 _cell(float(grid.adjusted[i, j])), "1" if grid.killer_mask[i, j] else "0"]
                for i in range(len(rho)) for j in range(len(r2))
            ],
        )
        assert fast.read_bytes() == oracle.read_bytes()
        assert {line[-1] for line in fast.read_text().splitlines()[1:]} == {"0", "1"}

    def test_balance_rows_hit_targets(self, pipeline):
        pipe, sha = pipeline
        report = assemble_report(pipe, sha)
        for row in report["balance"]:
            assert abs(row["weighted"] - row["target"]) < 1e-8
