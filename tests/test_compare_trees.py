"""The tree comparison tool at perfbench's smoke sizes: a tree run twice
agrees with itself, the graph layer's detect runs included, and a change
to the report shows in the runs that write it."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import compare_trees  # noqa: E402

from surveysense import cli  # noqa: E402

#: perfbench's smoke sizes (``perfbench/tests/test_perfbench.py``)
SMOKE = {"cells-5k": {"population": 10_000, "draws": 20}, "graph-16": {"rows": 400}}


def test_a_tree_agrees_with_itself_and_a_report_change_shows(tmp_path):
    configs = compare_trees.generate_inputs(tmp_path / "in", [3], ("cells-5k", "graph-16"), SMOKE)
    out = tmp_path / "run" / "out"
    runs = compare_trees.run_tree(ROOT, configs, out, bundle=False)
    pairs = sum(len(command.stdout) for name, command in cli._COMMANDS.items()
                if name != "simulate")
    assert len(runs) == pairs * len(configs) + 1  # and detect_cv with a categorical node
    assert compare_trees.differences(runs, compare_trees.run_tree(ROOT, configs, out, False)) == []
    # the graph jobs' detect runs, at every format, fit, screen and write
    detects = [f"graph-16-s3-{job} detect --format {fmt}"
               for job in ("detect", "detect_cv") for fmt in cli._COMMANDS["detect"].stdout]
    detects.append("graph-16-s3-detect_cv-n13 detect --format json")
    assert all(runs[label]["exit"] == 0 and runs[label]["files"] for label in detects)

    configs = {label: path for label, path in configs.items() if label.startswith("cells-5k")}
    runs = {label: run for label, run in runs.items() if label.startswith("cells-5k")}

    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    report = copy / "src" / "surveysense" / "report.py"
    text = report.read_text()
    assert text.count('SE_KIND = "approximate design-based"') == 1
    report.write_text(text.replace('SE_KIND = "approximate design-based"', 'SE_KIND = "other"'))
    changed = compare_trees.differences(runs, compare_trees.run_tree(copy, configs, out, False))
    summaries = {label for label, run in runs.items()
                 if " summary " in label and run["exit"] == 0}
    assert len(summaries) == len(configs)
    # the report schema pins se_kind, so each summary run now fails validation
    assert [line.split(":")[0] for line in changed] == sorted(summaries)
