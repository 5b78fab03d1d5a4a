"""Subcommand behavior through cli.main: artifacts, stdout, exit codes."""

import csv
import json

import numpy as np
import pytest

from surveysense import cli
from surveysense.simulate import draw_sample, generate, three_covariate_dgp


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_bundle_layout(demo_bundle):
    for name in ("survey.csv", "population.csv", "margins.csv", "config.json", "truth.json"):
        assert (demo_bundle / name).exists(), name
    truth = json.loads((demo_bundle / "truth.json").read_text())
    assert 0.02 < truth["n_sample"] / truth["n_population"] < 0.10
    header = (demo_bundle / "survey.csv").read_text().splitlines()[0]
    assert header == "x1,x2,x3,y"


def test_simulate_bundle_rows_carry_each_unit_features(demo_bundle):
    # every population and sample row holds its own unit's features, and
    # the margins are the population means of those features
    truth = json.loads((demo_bundle / "truth.json").read_text())
    pop = generate(three_covariate_dgp(seed=truth["dgp_seed"]), replication=0)
    idx = draw_sample(pop, replication=0)
    feats = pop.features()
    population = np.loadtxt(demo_bundle / "population.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(population, feats)
    survey = np.loadtxt(demo_bundle / "survey.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(survey[:, :-1], feats[idx])
    np.testing.assert_array_equal(survey[:, -1], pop.y[idx])
    margins = (demo_bundle / "margins.csv").read_text().splitlines()[1:]
    values = [float(line.split(",")[2]) for line in margins]
    np.testing.assert_array_equal(values, feats.mean(axis=0))


def test_simulate_stdout_points_at_files(capsys, tmp_path):
    rc, out, _ = run(capsys, ["simulate", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["config"] == str(tmp_path / "config.json")
    assert payload["n_sample"] > 0


def test_weight_writes_artifacts(capsys, demo_bundle, tmp_path):
    out_dir = tmp_path / "w"
    rc, out, _ = run(
        capsys,
        ["weight", "--config", str(demo_bundle / "config.json"), "--out", str(out_dir)],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["calibration"]["converged"] is True
    assert (out_dir / "weights.csv").exists()
    assert (out_dir / "balance.csv").exists()
    for row in payload["balance"]:
        assert abs(row["weighted"] - row["target"]) < 1e-8


def test_weight_csv_stdout(capsys, demo_bundle, tmp_path):
    rc, out, _ = run(
        capsys,
        [
            "weight",
            "--config",
            str(demo_bundle / "config.json"),
            "--out",
            str(tmp_path / "w"),
            "--format",
            "csv",
        ],
    )
    assert rc == 0
    assert out.splitlines()[0] == "column,target,unweighted,weighted"


def test_summary_writes_report_and_validates(capsys, demo_bundle, tmp_path):
    out_dir = tmp_path / "s"
    rc, out, _ = run(
        capsys,
        ["summary", "--config", str(demo_bundle / "config.json"), "--out", str(out_dir)],
    )
    assert rc == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert json.loads(out) == report
    assert report["robustness"]["rv"] > 0
    assert report["contour"]["csv"] == "contour.csv"
    assert report["detection"]["status"] in {"found", "none-exists", "direct-edge-blocker"}
    for name in (
        "weights.csv",
        "balance.csv",
        "contour.csv",
        "contour.svg",
        "benchmarks.csv",
        "detection.json",
        "detection.dot",
    ):
        assert (out_dir / name).exists(), name


def test_contour_svg_stdout(capsys, demo_bundle, tmp_path):
    rc, out, _ = run(
        capsys,
        [
            "contour",
            "--config",
            str(demo_bundle / "config.json"),
            "--out",
            str(tmp_path / "c"),
            "--format",
            "svg",
        ],
    )
    assert rc == 0
    assert out.startswith("<svg")
    assert (tmp_path / "c" / "contour.csv").exists()


def test_benchmark_csv(capsys, demo_bundle, tmp_path):
    rc, out, _ = run(
        capsys,
        [
            "benchmark",
            "--config",
            str(demo_bundle / "config.json"),
            "--out",
            str(tmp_path / "b"),
            "--format",
            "csv",
        ],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "variable,r2_raw,r2,rho,est_bias,mrcs"
    assert len(lines) == 4  # x1, x2, x3


def test_bootstrap_command(capsys, demo_bundle, tmp_path):
    cfg = json.loads((demo_bundle / "config.json").read_text())
    cfg["bootstrap"] = {"draws": 120}
    cfg_path = tmp_path / "boot.json"
    cfg["survey"] = str(demo_bundle / "survey.csv")
    cfg["margins"] = str(demo_bundle / "margins.csv")
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bt"
    rc, out, _ = run(
        capsys, ["bootstrap", "--config", str(cfg_path), "--out", str(out_dir)]
    )
    assert rc == 0
    block = json.loads(out)
    assert block["lower"] < block["upper"]
    assert block["n_draws"] == 120
    assert json.loads((out_dir / "bootstrap.json").read_text()) == block


def test_missing_config_exits_2(capsys):
    rc, _, err = run(capsys, ["weight"])
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    assert "--config" in payload["error"]["message"]


def test_unreadable_config_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, ["weight", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in json.loads(err)["error"]["message"]


def test_disallowed_format_exits_2(capsys, demo_bundle):
    rc, _, err = run(
        capsys,
        ["summary", "--config", str(demo_bundle / "config.json"), "--format", "csv"],
    )
    assert rc == 2
    assert "not available" in json.loads(err)["error"]["message"]


def test_env_out_override(capsys, demo_bundle, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("SURVEYSENSE_OUT", str(env_dir))
    rc, _, _ = run(capsys, ["weight", "--config", str(demo_bundle / "config.json")])
    assert rc == 0
    assert (env_dir / "weights.csv").exists()


def test_flag_beats_env(capsys, demo_bundle, tmp_path, monkeypatch):
    monkeypatch.setenv("SURVEYSENSE_OUT", str(tmp_path / "ignored"))
    flag_dir = tmp_path / "from-flag"
    rc, _, _ = run(
        capsys,
        ["weight", "--config", str(demo_bundle / "config.json"), "--out", str(flag_dir)],
    )
    assert rc == 0
    assert (flag_dir / "weights.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_threads_flag_is_rejected(capsys, demo_bundle):
    with pytest.raises(SystemExit) as exc:
        cli.main(["weight", "--config", str(demo_bundle / "config.json"), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_benchmark_subsets_key_exits_2(capsys, demo_bundle, tmp_path):
    config = json.loads((demo_bundle / "config.json").read_text())
    config["benchmark"] = {"subsets": [["x1", "x2"]]}
    path = demo_bundle / "config_subsets.json"
    path.write_text(json.dumps(config))
    rc, out, err = run(
        capsys, ["benchmark", "--config", str(path), "--out", str(tmp_path / "b")]
    )
    assert rc == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    assert "unknown benchmark keys" in payload["error"]["message"]
    assert "subsets" in payload["error"]["message"]


def test_summary_deterministic_across_runs(capsys, demo_bundle, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        rc, _, _ = run(
            capsys,
            [
                "summary",
                "--config",
                str(demo_bundle / "config.json"),
                "--out",
                str(out_dir),
            ],
        )
        assert rc == 0
        outs.append(out_dir)
    a, b = outs
    for name in ("report.json", "weights.csv", "contour.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _config_with(demo_bundle, tmp_path, **paths):
    """The bundle's config with some input files swapped, written to tmp_path."""
    config = json.loads((demo_bundle / "config.json").read_text())
    config["survey"] = str(demo_bundle / "survey.csv")
    config["margins"] = str(demo_bundle / "margins.csv")
    config.update(paths)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_short_margin_row_exits_2(capsys, demo_bundle, tmp_path):
    margins = tmp_path / "margins.csv"
    margins.write_text("variable,level,value\nage\n")
    config = _config_with(demo_bundle, tmp_path, margins=str(margins))
    rc, out, err = run(capsys, ["weight", "--config", config, "--out", str(tmp_path / "o")])
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "SchemaError"
    assert f"{margins} row 1: short row" in payload["error"]["message"]


@pytest.mark.parametrize(
    "field, cell, message",
    [
        (2, "nan", "{path} row 2: value 'nan' is not finite"),
        (1, "1" * 140_000, "{path}: data row 2: field larger than field limit ({limit})"),
    ],
    ids=["nan_value", "over_long_level"],
)
def test_bad_margin_row_exits_2(capsys, demo_bundle, tmp_path, field, cell, message):
    lines = (demo_bundle / "margins.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[field] = cell
    lines[2] = ",".join(cells)
    margins = tmp_path / "margins.csv"
    margins.write_text("\n".join(lines) + "\n")
    config = _config_with(demo_bundle, tmp_path, margins=str(margins))
    rc, out, err = run(capsys, ["weight", "--config", config, "--out", str(tmp_path / "o")])
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "SchemaError"
    assert payload["error"]["message"] == message.format(path=margins, limit=csv.field_size_limit())


def _recoded_bundle(demo_bundle, tmp_path, header, recode):
    """The bundle's survey and population with x2 and x3 recoded per row by
    ``recode(x2, x3)`` into the columns ``header`` names after x1."""
    for name in ("survey.csv", "population.csv"):
        lines = (demo_bundle / name).read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        (tmp_path / name).write_text("\n".join(
            [",".join(["x1", *header, *lines[0].split(",")[3:]])]
            + [",".join([r[0], *recode(r[1], r[2]), *r[3:]]) for r in rows]
        ) + "\n")


def test_continuous_variable_named_with_equals_takes_its_mean_row(capsys, demo_bundle, tmp_path):
    # a generated column name once was split on "=", so the mean row of
    # "age=yrs" was looked up as its level "yrs"
    _recoded_bundle(demo_bundle, tmp_path, ["x2", "age=yrs"],
                    lambda x2, x3: [x2, str(30 + 10 * int(x3))])
    margins = tmp_path / "margins.csv"
    margins.write_text("variable,level,value\nx1,1,0.48\nx2,1,0.48\nage=yrs,,34.5\n")
    config = json.loads((demo_bundle / "config.json").read_text())
    del config["detection"]
    config.update(survey=str(tmp_path / "survey.csv"), margins=str(margins),
                  columns={"x1": "binary", "x2": "binary", "age=yrs": "continuous",
                           "y": "continuous"},
                  weighting={"variables": ["x1", "x2", "age=yrs"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc, out, err = run(capsys, ["weight", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0, err
    balance = {row["column"]: row for row in json.loads(out)["balance"]}
    assert balance["age=yrs"]["target"] == 34.5
    assert abs(balance["age=yrs"]["weighted"] - 34.5) < 1e-8


def test_interaction_margins_with_a_binary_part_match_the_population(capsys, demo_bundle, tmp_path):
    # shares of a categorical x binary interaction are joint means, not a
    # partition: their margin rows once failed a sum-to-1 check at load
    _recoded_bundle(demo_bundle, tmp_path, ["region"], lambda x2, x3: [f"r{x2}{x3}"])
    pop = [line.split(",") for line in (tmp_path / "population.csv").read_text().split()[1:]]
    x1 = np.array([float(r[0]) for r in pop])
    region = np.array([r[1] for r in pop])
    rows = [f"x1,1,{float(x1.mean())!r}"]
    for level in sorted(set(region)):
        rows.append(f"region,{level},{float(np.mean(region == level))!r}")
        rows.append(f"region:x1,{level}:x1,{float(np.mean((region == level) * x1))!r}")
    margins = tmp_path / "margins.csv"
    margins.write_text("\n".join(["variable,level,value", *rows]) + "\n")
    config = json.loads((demo_bundle / "config.json").read_text())
    del config["detection"], config["margins"]
    config.update(survey=str(tmp_path / "survey.csv"),
                  columns={"x1": "binary", "region": "categorical", "y": "continuous"},
                  weighting={"variables": ["region", "x1"], "interactions": [["region", "x1"]]})
    balances = {}
    for route, value in (("margins", str(margins)), ("population", str(tmp_path / "population.csv"))):
        path = tmp_path / f"{route}.json"
        path.write_text(json.dumps({**config, route: value}))
        rc, out, err = run(capsys, ["weight", "--config", str(path), "--out", str(tmp_path / route)])
        assert rc == 0, err
        balances[route] = json.loads(out)["balance"]
    assert [r["column"] for r in balances["margins"]] == [r["column"] for r in balances["population"]]
    assert "region=r11:x1" in [r["column"] for r in balances["margins"]]
    np.testing.assert_allclose([r["target"] for r in balances["margins"]],
                               [r["target"] for r in balances["population"]], rtol=0, atol=1e-12)


def test_interaction_share_out_of_range_exits_2(capsys, demo_bundle, tmp_path):
    # a share of a joint event with a binary part lies in [0, 1]; 1.5 once
    # reached the solver and exited 1 as an infeasible target
    _recoded_bundle(demo_bundle, tmp_path, ["region"], lambda x2, x3: [f"r{x2}{x3}"])
    margins = tmp_path / "margins.csv"
    margins.write_text("variable,level,value\nx1,1,0.5\nregion,r00,0.25\nregion,r01,0.25\n"
                       "region,r10,0.25\nregion,r11,0.25\nregion:x1,r01:x1,1.5\n"
                       "region:x1,r10:x1,0.1\nregion:x1,r11:x1,0.1\n")
    config = json.loads((demo_bundle / "config.json").read_text())
    del config["detection"]
    config.update(survey=str(tmp_path / "survey.csv"), margins=str(margins),
                  columns={"x1": "binary", "region": "categorical", "y": "continuous"},
                  weighting={"variables": ["region", "x1"], "interactions": [["region", "x1"]]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc, out, err = run(capsys, ["weight", "--config", str(path), "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    payload = json.loads(err)["error"]
    assert payload == {"type": "SchemaError",
                       "message": "margin shares for 'region:x1' must lie in [0, 1]"}


#: the bundle's columns x1, x2 and x3 renamed to names that need escaping in
#: XML (&, <), in DOT ids (") and in CSV fields (", and the delimiter)
_AWKWARD = {"x1": "R&D<1>", "x2": 'q"x', "x3": "s&p, <500>"}


def test_names_are_escaped_in_svg_dot_and_csv(capsys, demo_bundle, tmp_path):
    import re
    import xml.etree.ElementTree as ET

    for name in ("survey.csv", "population.csv"):
        rows = list(csv.reader((demo_bundle / name).read_text().splitlines()))
        with open(tmp_path / name, "w", newline="") as handle:
            csv.writer(handle).writerows([[_AWKWARD.get(c, c) for c in rows[0]], *rows[1:]])
    rows = list(csv.reader((demo_bundle / "margins.csv").read_text().splitlines()))
    with open(tmp_path / "margins.csv", "w", newline="") as handle:
        csv.writer(handle).writerows([rows[0], *([_AWKWARD[v], *rest] for v, *rest in rows[1:])])
    a, b, c = _AWKWARD.values()
    config = json.loads((demo_bundle / "config.json").read_text())
    config.update(survey=str(tmp_path / "survey.csv"), margins=str(tmp_path / "margins.csv"),
                  columns={a: "binary", b: "binary", c: "binary", "y": "continuous"},
                  weighting={"variables": [a, b]}, sweep={"variable": c},
                  detection={"sampling_set": [a, b, c], "lambda": 0.1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    for command in ("summary", "partial"):
        rc, _, err = run(capsys, [command, "--config", str(path), "--out", str(out)])
        assert rc == 0, err
    svg = "{http://www.w3.org/2000/svg}text"
    labels = {t.text for t in ET.parse(out / "contour.svg").getroot().iter(svg)}
    assert {a, b} <= labels
    sweep_labels = {t.text for t in ET.parse(out / "sweep.svg").getroot().iter(svg)}
    assert f"Estimate under posited margins of {c}" in sweep_labels
    with open(out / "benchmarks.csv", newline="") as handle:
        assert [row[0] for row in csv.reader(handle)] == ["variable", a, b]

    rc, text, err = run(capsys, ["detect", "--config", str(path), "--out", str(out),
                                 "--format", "csv"])
    assert rc == 0, err
    header, *rows = csv.reader(text.splitlines())
    assert header == ["a", "b", "weight"] and rows
    assert all(len(row) == 3 for row in rows)
    nodes = {a, b, c, "y"}
    assert {name for row in rows for name in row[:2]} <= nodes

    quoted = r'"((?:[^"\\]|\\.)*)"'
    dot = (out / "detection.dot").read_text().splitlines()
    node_ids = [re.match(rf"  {quoted}[ ;]", line) for line in dot[3:-1] if " -- " not in line]
    edge_ids = [re.match(rf"  {quoted} -- {quoted} ", line) for line in dot if " -- " in line]
    unescape = lambda name: name.replace('\\"', '"')  # noqa: E731
    assert {unescape(m[1]) for m in node_ids} == nodes
    assert [(unescape(m[1]), unescape(m[2])) for m in edge_ids] == [tuple(r[:2]) for r in rows]


@pytest.mark.parametrize("token", ["true", "NaN", "Infinity", "0", "-1", "[0.1]"])
def test_bad_detection_lambda_exits_2(capsys, demo_bundle, tmp_path, token):
    # a boolean or non-finite penalty is refused at load, not run as 1.0 or
    # found only when the report is written
    detection = json.loads((demo_bundle / "config.json").read_text())["detection"]
    config = tmp_path / "config.json"
    _config_with(demo_bundle, tmp_path, detection={**detection, "lambda": "LAMBDA"})
    config.write_text(config.read_text().replace('"LAMBDA"', token))
    rc, out, err = run(capsys, ["detect", "--config", str(config), "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith("detection.lambda must be")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, token, message",
    [
        ("seed", "-1", "seed must be an integer in [0, 2**64), not -1"),
        ("seed", str(2**70), f"seed must be an integer in [0, 2**64), not {2**70}"),
        ("seed", "1.5", "seed must be an integer in [0, 2**64), not 1.5"),
        ("filters", '["x1 == 1"]', "filters[0] must be an object with exactly column (a declared"),
        ("bootstrap", '{"reestimate": "false"}', "bootstrap.reestimate must be true or false"),
        ("bootstrap", '{"draws": 100.9}', "bootstrap.draws must be an integer, not 100.9"),
        ("bootstrap", '{"draws": true}', "bootstrap.draws must be an integer, not True"),
    ],
)
def test_bad_config_values_exit_2(capsys, demo_bundle, tmp_path, key, token, message):
    # these escaped as tracebacks (exit 1) or were coerced silently
    config = tmp_path / "config.json"
    _config_with(demo_bundle, tmp_path, **{key: "VALUE"})
    config.write_text(config.read_text().replace('"VALUE"', token))
    rc, out, err = run(capsys, ["bootstrap", "--config", str(config), "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith(message)


@pytest.mark.parametrize("command", ["weight", "simulate"])
@pytest.mark.parametrize("seed", ["-1", str(2**70)])
def test_bad_seed_flag_exits_2(capsys, demo_bundle, tmp_path, command, seed):
    argv = [command, "--seed", seed, "--out", str(tmp_path / "o")]
    if command != "simulate":
        argv += ["--config", str(demo_bundle / "config.json")]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"] == f"seed must be an integer in [0, 2**64), not {seed}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, block, message",
    [
        # numbers are JSON numbers: never booleans, strings or null
        ("summary", {"b_star": True}, "b_star must be a number, not True"),
        ("summary", {"b_star": "0.1"}, "b_star must be a number, not '0.1'"),
        ("summary", {"grid": {"rho_step": True}}, "grid.rho_step must be a number, not True"),
        ("summary", {"grid": {"r2_max": None}}, "grid.r2_max must be a number, not None"),
        ("partial", {"sweep": {"grid": [True]}}, "sweep.grid must be a list of numbers"),
        ("bootstrap", {"bootstrap": {"alpha": "0.1"}}, "bootstrap.alpha must be a number, not '0.1'"),
        ("bootstrap", {"bootstrap": {"rho": False}}, "bootstrap.rho must be a number, not False"),
        # ranges and cross-key rules that failed late with exit 1, or ran silently
        ("bootstrap", {"bootstrap": {"rho": 5}}, "bootstrap.rho must lie in [-1, 1], not 5"),
        ("bootstrap", {"bootstrap": {"r2": 1.0}}, "bootstrap.r2 must lie in [0, 1), not 1.0"),
        ("benchmark", {"benchmark": {"covariates": ["y"]}},
         "benchmark.covariates must be weighting variables: ['y']"),
        ("partial", {"sweep": {"variable": "x1"}},
         "sweep.variable must be neither a weighting variable nor the outcome: ['x1']"),
        ("partial", {"sweep": {"variable": "y"}},
         "sweep.variable must be neither a weighting variable nor the outcome: ['y']"),
        ("summary", {"detection": {"sampling_set": ["x1", "y"]}},
         "detection.sampling_set must not hold the outcome: ['y']"),
        ("detect", {"detection": {"sampling_set": ["y"]}},
         "detection.sampling_set must not hold the outcome: ['y']"),
        # a filter on a numeric column compares with a number
        ("weight", {"filters": [{"column": "x1", "op": "==", "value": True}]},
         "filters[0] value must be a number for numeric column 'x1', not True"),
        ("weight", {"filters": [{"column": "x1", "op": "==", "value": "abc"}]},
         "filters[0] value must be a number for numeric column 'x1', not 'abc'"),
        ("weight", {"filters": [{"column": "x1", "op": ">=", "value": 0},
                                {"column": "y", "op": "<", "value": [1]}]},
         "filters[1] value must be a number for numeric column 'y', not [1]"),
        # a categorical sweep variable fails at load for every subcommand
        ("detect", {"columns": {"x1": "binary", "x2": "binary", "x3": "categorical",
                                "y": "continuous"},
                    "weighting": {"variables": ["x1", "x2"]}, "sweep": {"variable": "x3"}},
         "sweep.variable must be binary or continuous: ['x3']"),
    ],
)
def test_config_mistakes_exit_2_at_load(capsys, demo_bundle, tmp_path, command, block, message):
    # each of these ran silently, was coerced, or failed later with exit 1
    config = _config_with(demo_bundle, tmp_path, **block)
    rc, out, err = run(capsys, [command, "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": {"type": "ConfigError", "message": message}}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "block, message",
    [
        ({"survey": 5}, "survey must be a string, not 5"),
        ({"margins": ["margins.csv"]}, "margins must be a string, not ['margins.csv']"),
        ({"population": {"path": 5}}, "population.path must be a string, not 5"),
        ({"population": {"path": "population.csv", "weight": True}},
         "population.weight must be a string, not True"),
        ({"out": 5}, "out must be a string, not 5"),
        ({"outcome": 5}, "outcome must be a string, not 5"),
        ({"sweep": {"variable": 1.5}}, "sweep.variable must be a string, not 1.5"),
        ({"weighting": {"variables": ["x1"], "base_weight": {"w": 1}}},
         "weighting.base_weight must be a string, not {'w': 1}"),
    ],
)
def test_path_and_name_keys_must_be_strings(capsys, demo_bundle, tmp_path, block, message):
    # a number in a path key was a TypeError traceback out of main
    config = _config_with(demo_bundle, tmp_path, **block)
    rc, out, err = run(capsys, ["summary", "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "ConfigError", "message": message}}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "block, message",
    [
        # 2,000,000,001 x 191 points: numpy was asked for 14.9 GiB
        ({"grid": {"rho_step": 1e-9}},
         "grid.rho_step 1e-09 and grid.r2_step 0.005 make a contour grid over the cap of "
         "1,000,000 points"),
        ({"grid": {"r2_step": 1e-7}},
         "grid.rho_step 0.01 and grid.r2_step 1e-07 make a contour grid over the cap of "
         "1,000,000 points"),
        ({"grid": {"rho_step": 5e-324}},  # 2 / rho_step overflows to inf
         "grid.rho_step 5e-324 and grid.r2_step 0.005 make a contour grid over the cap of "
         "1,000,000 points"),
        # the squared gap overflowed, and the report failed to write after all the work
        ({"b_star": 1e308}, "b_star must be finite and within ±1e50, not 1e+308"),
        ({"b_star": -1.0000001e50}, "b_star must be finite and within ±1e50, not -1.0000001e+50"),
    ],
)
def test_grid_and_b_star_fail_at_load(capsys, demo_bundle, tmp_path, monkeypatch, block, message):
    from surveysense import summary

    def never(*args, **kwargs):
        raise AssertionError("the contour grid was built")

    monkeypatch.setattr(summary, "contour_grid", never)
    config = _config_with(demo_bundle, tmp_path, **block)
    rc, out, err = run(capsys, ["summary", "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "ConfigError", "message": message}}


def test_non_positive_base_weight_exits_2(capsys, demo_bundle, tmp_path):
    lines = (demo_bundle / "survey.csv").read_text().splitlines()
    rows = [f"{line},{0 if i == 3 else 1.5}" for i, line in enumerate(lines[1:], start=1)]
    survey = tmp_path / "survey.csv"
    survey.write_text("\n".join([lines[0] + ",bw", *rows]) + "\n")
    config = json.loads((demo_bundle / "config.json").read_text())
    config = _config_with(
        demo_bundle, tmp_path, survey=str(survey),
        columns={**config["columns"], "bw": "continuous"},
        weighting={**config["weighting"], "base_weight": "bw"},
    )
    rc, out, err = run(capsys, ["weight", "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": {"type": "SchemaError",
                  "message": f"{survey}: base weight column 'bw' must be positive"}
    }
    survey.write_text(survey.read_text().replace(",0\n", ",2\n", 1))
    rc, _, _ = run(capsys, ["weight", "--config", config, "--out", str(tmp_path / "o")])
    assert rc == 0


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv_reader"])
def test_over_long_survey_field_exits_2(capsys, demo_bundle, tmp_path, quoted):
    lines = (demo_bundle / "survey.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[-1] = "9" * 200_000
    if quoted:
        fields[0] = f'"{fields[0]}"'
    lines[3] = ",".join(fields)
    survey = tmp_path / "survey.csv"
    survey.write_text("\n".join(lines) + "\n")
    config = _config_with(demo_bundle, tmp_path, survey=str(survey))
    rc, out, err = run(capsys, ["weight", "--config", config, "--out", str(tmp_path / "o")])
    assert rc == 2
    message = json.loads(err)["error"]["message"]
    assert message == f"{survey}: data row 3: field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("first", ["names", "commands"])
def test_public_names_resolve_lazily_in_either_load_order(demo_bundle, tmp_path, run_fresh, first):
    # the package loads no layer on import; surveysense.detect, .bias and
    # .benchmark name functions whether those submodules load through the
    # package names or through the subcommands that run them
    config = _config_with(demo_bundle, tmp_path)
    script = f"""
import contextlib, io, sys, types
import surveysense
from surveysense import cli

def check_functions():
    for name in ("detect", "bias", "benchmark"):
        obj = getattr(surveysense, name)
        assert isinstance(obj, types.FunctionType), (name, obj)
        assert obj is getattr(sys.modules["surveysense." + name], name)

assert sorted(m for m in sys.modules if m.startswith("surveysense.")) == [
    "surveysense.cli", "surveysense.config", "surveysense.data", "surveysense.errors"]
if {first!r} == "names":
    check_functions()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["contour", "--config", {config!r}, "--out", {str(tmp_path / "c")!r}]) == 0
assert "surveysense.partial" not in sys.modules  # contour never sweeps
for command in ("detect", "benchmark", "summary"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", {config!r}, "--out", {str(tmp_path / "o")!r}]) == 0
check_functions()
for name in surveysense.__all__[1:]:
    obj = getattr(surveysense, name)
    assert obj.__module__.startswith("surveysense."), name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
assert surveysense.__all__[0] == "__version__"
assert not set(surveysense.__all__[1:]) & set(vars(surveysense))  # nothing cached
assert set(surveysense.__all__) <= set(dir(surveysense))
star = {{}}
exec("from surveysense import *", star)
assert all(star[name] is getattr(surveysense, name) for name in surveysense.__all__)
try:
    surveysense.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("an unknown name resolved")
from surveysense import bootstrap, calibrate
assert isinstance(bootstrap, types.ModuleType) and bootstrap.__name__ == "surveysense.bootstrap"
assert isinstance(calibrate, types.ModuleType) and calibrate.__name__ == "surveysense.calibrate"
print("ok")
"""
    assert run_fresh(script) == "ok\n"


def test_far_b_star_exits_2_naming_it_before_the_fan_outs(capsys, demo_bundle, tmp_path, monkeypatch):
    # the robustness value rounds to 1.0 here; the report used to fail its schema
    # check at robustness/rv only after the benchmarks, contour and detection ran
    import importlib

    def never(*args, **kwargs):
        raise AssertionError("a fan-out ran")

    monkeypatch.setattr(importlib.import_module("surveysense.benchmark"), "benchmark_table", never)
    monkeypatch.setattr(importlib.import_module("surveysense.summary"), "contour_grid", never)
    config = _config_with(demo_bundle, tmp_path, b_star=1e9)
    rc, out, err = run(capsys, ["summary", "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("b_star 1000000000.0 is too far from the weighted estimate ")
    assert error["message"].endswith(": the robustness value rounds to 1")
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("config", ["/nonexistent.json", "BUNDLE"])
def test_simulate_refuses_config(capsys, demo_bundle, tmp_path, config):
    # --config was accepted and ignored, so a missing file exited 0
    config = str(demo_bundle / "config.json") if config == "BUNDLE" else config
    rc, out, err = run(capsys, ["simulate", "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": {"type": "ConfigError", "message": "--config is not available for simulate"}
    }
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["weight", "detect"])
def test_header_only_survey_exits_2_naming_the_file(capsys, demo_bundle, tmp_path, command):
    survey = tmp_path / "survey.csv"
    survey.write_text((demo_bundle / "survey.csv").read_text().splitlines()[0] + "\n")
    config = _config_with(demo_bundle, tmp_path, survey=str(survey))
    rc, out, err = run(capsys, [command, "--config", config, "--out", str(tmp_path / "o")])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": {"type": "SchemaError",
                  "message": f"{survey}: no complete rows after listwise deletion"}
    }


@pytest.fixture(scope="module")
def sweep_bundle_config(demo_bundle, tmp_path_factory):
    """The bundle weighted on x1 and x2, with x3 swept and a fixed graph penalty."""
    config = json.loads((demo_bundle / "config.json").read_text())
    config.update(
        survey=str(demo_bundle / "survey.csv"), margins=str(demo_bundle / "margins.csv"),
        weighting={"variables": ["x1", "x2"]}, sweep={"variable": "x3"},
        detection={**config["detection"], "lambda": 0.1}, bootstrap={"draws": 100},
    )
    path = tmp_path_factory.mktemp("sweep-bundle") / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


#: the package modules each subcommand loads, besides cli, config, data and errors, at
#: a fixed graph penalty (cross validation also loads simulate for its fold streams)
_LOADS = {
    "weight": "bias calibrate report",
    "summary": "benchmark bias calibrate cover detect mrf partial paths report summary svg",
    "contour": "benchmark bias calibrate report summary svg",
    "benchmark": "benchmark bias calibrate report",
    "partial": "bias calibrate partial report svg",
    "detect": "bias calibrate cover detect mrf paths report",
    "bootstrap": "bias bootstrap calibrate report simulate",
    "simulate": "bias calibrate report simulate",
}


@pytest.mark.parametrize("command", sorted(_LOADS))
def test_each_subcommand_loads_only_its_layers(sweep_bundle_config, tmp_path, run_fresh, command):
    argv = [command, "--out", str(tmp_path / "o")]
    if command != "simulate":
        argv += ["--config", sweep_bundle_config]
    script = f"""
import contextlib, io, sys
from surveysense import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(" ".join(sorted(m[12:] for m in sys.modules if m.startswith("surveysense."))))
"""
    expected = sorted(["cli", "config", "data", "errors", *_LOADS[command].split()])
    assert run_fresh(script).split() == expected


def test_shared_artifacts_agree_and_stdout_echoes_them(capsys, sweep_bundle_config, tmp_path):
    # an artifact two subcommands write has the same bytes, and every csv or svg
    # stdout (and summary's and detect's json) is the artifact it renders
    renders = {("weight", "csv"): "balance.csv", ("contour", "csv"): "contour.csv",
               ("contour", "svg"): "contour.svg", ("benchmark", "csv"): "benchmarks.csv",
               ("partial", "csv"): "sweep.csv", ("partial", "svg"): "sweep.svg",
               ("summary", "json"): "report.json", ("detect", "json"): "detection.json"}
    runs = [*renders, ("weight", "json"), ("contour", "json"), ("benchmark", "json"),
            ("partial", "json"), ("detect", "csv")]
    written: dict[str, dict[str, bytes]] = {}
    for command, fmt in runs:
        out_dir = tmp_path / f"{command}-{fmt}"
        argv = [command, "--config", sweep_bundle_config, "--out", str(out_dir), "--format", fmt]
        rc, out, err = run(capsys, argv)
        assert rc == 0, err
        for path in out_dir.iterdir():
            written.setdefault(path.name, {})[f"{command}-{fmt}"] = path.read_bytes()
        if (command, fmt) in renders:
            assert out == (out_dir / renders[command, fmt]).read_text(), (command, fmt)
    assert set(written) == {"report.json", "weights.csv", "balance.csv", "contour.csv",
                            "contour.svg", "benchmarks.csv", "sweep.csv", "sweep.svg",
                            "detection.json", "detection.dot"}
    for name, versions in written.items():
        assert len(set(versions.values())) == 1, (name, sorted(versions))
        writers = {run.split("-")[0] for run in versions}
        assert len(writers) >= 2 or name == "report.json", (name, writers)


def test_summary_builds_each_stage_once(capsys, sweep_bundle_config, tmp_path, monkeypatch):
    # one pipeline, one survey read (detection reuses the pipeline's rows) and
    # one call into each fan-out, though several artifacts and blocks share them
    import importlib

    calls = {}

    def counted(module, name):
        module = importlib.import_module(f"surveysense.{module}")
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [("report", "build_pipeline"), ("report", "load_survey"),
                         ("benchmark", "benchmark_table"), ("summary", "contour_grid"),
                         ("partial", "partial_sweep"), ("detect", "detect"),
                         ("report", "assemble_report")]:
        counted(module, name)
    rc, _, err = run(capsys, ["summary", "--config", sweep_bundle_config,
                              "--out", str(tmp_path / "o")])
    assert rc == 0, err
    assert calls == {name: 1 for name in ("build_pipeline", "load_survey", "benchmark_table",
                                          "contour_grid", "partial_sweep", "detect",
                                          "assemble_report")}
