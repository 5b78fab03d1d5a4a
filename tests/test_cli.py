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
