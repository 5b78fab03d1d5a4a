"""Tests of the benchmark's own code at smoke sizes."""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from loop import run_job  # noqa: E402
from oracle import Oracle, read_sweep_csv, separation_leaks  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402
import workloads  # noqa: E402
from workloads import JOBS, generate  # noqa: E402

SMOKE = {
    "cells-5k": {"population": 10_000, "draws": 20},
    "rows-10k": {"respondents": 400, "population": 2_000, "draws": 20},
    "graph-16": {"rows": 400},
}
SEED = 3
SCHEMA = HERE.parent / "src" / "surveysense" / "schemas" / "report.schema.json"


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_generators_are_deterministic_in_the_seed(workload, tmp_path):
    a = generate(workload, SEED, tmp_path / "a", SMOKE[workload])
    b = generate(workload, SEED, tmp_path / "b", SMOKE[workload])
    c = generate(workload, SEED + 1, tmp_path / "c", SMOKE[workload])
    files_a = _files(tmp_path / "a")
    assert "survey.csv" in files_a
    assert files_a["survey.csv"] == _files(tmp_path / "b")["survey.csv"]
    assert files_a["survey.csv"] != _files(tmp_path / "c")["survey.csv"]
    assert a.shape == b.shape


@pytest.mark.parametrize("workload", sorted(JOBS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(workload, trace):
    result, lines = run.measure(workload, SEED, 1, trace, sizes=SMOKE[workload], probes=1)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= len(JOBS[workload])
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    text = "\n".join(lines)
    for job in JOBS[workload]:
        assert f"metric {job}_s " in text
    for name in ("failed_frac", "setup_s", "analysis_s"):
        assert f"metric {name} " in text
    if trace:
        assert "overhead " in text and "exact counts: identical" in text
    json.dumps(result, allow_nan=False)


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        result, _ = run.measure("graph-16", SEED, 1, True, sizes=SMOKE["graph-16"], probes=1)
        counts.append({k: result["metrics"][k]["value"] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["mrf.lasso_path_calls"] > 0 and counts[0]["paths.n_paths"] > 0


def _run_jobs(inputs, root: Path) -> dict[str, Path]:
    from surveysense import cli

    outs = {}
    for name in inputs.jobs:
        outs[name] = root / f"out-{name}"
        assert run_job(cli, inputs, name, outs[name])[1] == []
    return outs


@pytest.fixture(scope="module")
def cells_jobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cells")
    inputs = generate("cells-5k", SEED, root / "in", SMOKE["cells-5k"])
    return inputs, _run_jobs(inputs, root)


def test_oracle_passes_untouched_artifacts(cells_jobs):
    inputs, outs = cells_jobs
    oracle = Oracle(inputs, SCHEMA)
    for name in inputs.jobs:
        assert oracle.check(name, outs[name]) == []
    infeasible = [not f for _, f, _ in read_sweep_csv(outs["partial"] / "sweep.csv")]
    assert 0.4 <= sum(infeasible) / len(infeasible) <= 0.6


def test_oracle_flags_a_departure_from_the_reference(cells_jobs):
    inputs, outs = cells_jobs
    oracle = Oracle(inputs, SCHEMA)
    assert oracle.check("bootstrap", outs["summary"]) != []  # wrong artifacts
    oracle.check("summary", outs["summary"])
    reference = {"summary.estimates": dict(oracle.observed["summary.estimates"])}
    assert Oracle(inputs, SCHEMA, reference).check("summary", outs["summary"]) == []
    reference["summary.estimates"]["weighted"] *= 1.0 + 1e-5
    problems = Oracle(inputs, SCHEMA, reference).check("summary", outs["summary"])
    assert any("summary.estimates.weighted" in p for p in problems)


def test_sweep_reference_allows_solver_noise_in_the_baseline_share(cells_jobs):
    inputs, outs = cells_jobs
    oracle = Oracle(inputs, SCHEMA)
    oracle.check("partial", outs["partial"])
    sweep = json.loads(json.dumps(oracle.observed["partial.sweep"]))
    baseline = next(k for k, t in enumerate(sweep["t_v"]) if t not in workloads.CELLS_SWEEP)
    sweep["t_v"][baseline] *= 1.0 + 1e-9  # a solver meeting the margins to 1e-8
    reference = {"partial.sweep": sweep}
    assert Oracle(inputs, SCHEMA, reference).check("partial", outs["partial"]) == []
    sweep["estimate"][baseline] *= 1.0 + 1e-5
    problems = Oracle(inputs, SCHEMA, reference).check("partial", outs["partial"])
    assert any("partial.sweep.estimate" in p for p in problems)


def test_a_job_that_raises_is_a_failed_job_not_a_failed_run(cells_jobs, tmp_path):
    inputs, _ = cells_jobs

    class Broken:
        @staticmethod
        def main(argv):
            raise ZeroDivisionError("in a job")

    wall, problems = run_job(Broken, inputs, "summary", tmp_path / "out")
    assert wall >= 0.0 and problems == ["raised ZeroDivisionError: in a job"]
    # the oracle turns an unexpected error while reading into a problem
    assert Oracle(inputs, SCHEMA).check("bootstrap", tmp_path / "missing") != []
    jobs = [
        {"job": name, "round": r, "traced": False, "wall_s": 1.0, "problems": problems}
        for r in range(3) for name in inputs.jobs
    ]
    worker = {
        "jobs": jobs, "layers": [], "rss_mb": 100.0, "env": {},
        "setups": [{"total_s": 1.0, "import_s": 1.0, "config_s": 0.0, "build_s": 0.0}],
    }
    result, lines = run.summarize("cells-5k", SEED, 1, False, inputs, worker, None)
    assert result["correct"] is False and result["failed"] == result["attempted"] == len(jobs)
    assert any(line.startswith("FAILED summary") for line in lines)
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_oracle_flags_a_perturbed_weight(cells_jobs, tmp_path):
    inputs, outs = cells_jobs
    out = tmp_path / "summary"
    shutil.copytree(outs["summary"], out)
    lines = (out / "weights.csv").read_text().splitlines()
    row_id, weight = lines[1].split(",")
    lines[1] = f"{row_id},{float(weight) * (1 + 1e-6)!r}"
    (out / "weights.csv").write_text("\n".join(lines) + "\n")
    problems = Oracle(inputs, SCHEMA).check("summary", out)
    assert any("average" in p for p in problems)


def test_oracle_flags_a_flipped_sweep_flag(cells_jobs, tmp_path):
    inputs, outs = cells_jobs
    out = tmp_path / "partial"
    shutil.copytree(outs["partial"], out)
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows[-1]["feasible"] = "1" if rows[-1]["feasible"] == "0" else "0"
    with open(out / "sweep.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    problems = Oracle(inputs, SCHEMA).check("partial", out)
    assert any("flagged feasible" in p for p in problems)


def test_oracle_flags_a_separating_set_missing_a_node(tmp_path):
    inputs = generate("graph-16", 1, tmp_path / "in", SMOKE["graph-16"])
    out = _run_jobs(inputs, tmp_path)["detect"]
    detection = json.loads((out / "detection.json").read_text())
    assert detection["status"] == "found" and detection["separating_set"]
    assert Oracle(inputs, SCHEMA).check("detect", out) == []
    for node in detection["separating_set"]:
        cut = dict(detection, separating_set=[n for n in detection["separating_set"] if n != node])
        assert separation_leaks(cut), node
