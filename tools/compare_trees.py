"""Compare two checkouts of surveysense run for run.

    python tools/compare_trees.py PARENT CHANGE [--seeds 0-9]

PARENT and CHANGE are repository roots. The benchmark's inputs are
generated once per seed by ``perfbench/workloads.generate`` (from this
checkout). Each tree then runs in one fresh interpreter with its own
``src/`` first on ``sys.path``, calling ``cli.main`` in turn for every
subcommand at every ``--format`` its ``cli._COMMANDS`` entry lists, on
every job config of cells-5k, rows-10k and graph-16, then ``simulate``
and the same subcommands on the simulate bundle's config. Copies of
configs reach paths no job config takes: each graph-16 ``detect_cv``
config with the categorical n13 added runs ``detect --format json`` (a
multinomial node under cross validation); copies of the bundle's config
weight on x1 and x2 alone and sweep x3 on the default grid (``partial``
and ``summary``), bootstrap with fixed weights (``bootstrap``) and drop
the few rows with y >= 6.5 by a filter (``summary``), each at every
format. Both trees
write to the same output paths, cleared between trees, so the paths they
print agree; each tree's root is masked in its stderr.

A run is its exit code, stdout, stderr and the SHA-256 of every file it
wrote. The tool prints each run that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cells-5k", "rows-10k", "graph-16")


def generate_inputs(root: Path, seeds, workloads=WORKLOADS, sizes=None) -> dict[str, str]:
    """Every job config of ``workloads`` at ``seeds``, written under
    ``root``, by label; ``sizes`` maps a workload to generator sizes."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        from workloads import generate
    finally:
        sys.path.pop(0)
    configs = {}
    for workload in workloads:
        for seed in seeds:
            size = None if sizes is None else sizes[workload]
            inputs = generate(workload, seed, Path(root) / f"{workload}-s{seed}", size)
            for job, path in inputs.configs.items():
                configs[f"{workload}-s{seed}-{job}"] = path
    return configs


def run_tree(tree: Path, configs: dict[str, str], out: Path, bundle: bool = True) -> dict:
    """Each run of ``tree`` on ``configs`` (and on the simulate bundle, if
    ``bundle``), by label, run in one fresh interpreter with its outputs
    under ``out``, which is cleared first."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    plan = out.parent / "plan.json"
    plan.write_text(json.dumps({"src": str(Path(tree).resolve() / "src"),
                                "configs": configs, "out": str(out), "bundle": bundle}))
    script = f"import sys; sys.path.insert(0, {str(HERE)!r}); import compare_trees; " \
             "compare_trees._child(sys.argv[1])"
    proc = subprocess.run([sys.executable, "-c", script, str(plan)], cwd=out,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree}: the runner failed:\n{proc.stderr}")
    return json.loads((out.parent / "runs.json").read_text())


def _child(plan_path: str) -> None:
    """The runner inside the fresh interpreter."""
    import contextlib
    import io
    import warnings

    plan = json.loads(Path(plan_path).read_text())
    src, out = Path(plan["src"]), Path(plan["out"])
    sys.path.insert(0, str(src))
    from surveysense import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"surveysense loaded from {cli.__file__}, not {src}")
    runs = {}

    def call(label: str, argv: list[str], where: Path) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        # catch_warnings resets the once-per-location registry, as a new process would
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped exception is a result too
                code = f"raised {type(exc).__name__}: {exc}".replace(str(src.parent), "<tree>")
        files = {}
        if where.is_dir():
            for path in sorted(p for p in where.rglob("*") if p.is_file()):
                files[str(path.relative_to(where))] = hashlib.sha256(path.read_bytes()).hexdigest()
        runs[label] = {"exit": code, "stdout": stdout.getvalue(),
                       "stderr": stderr.getvalue().replace(str(src.parent), "<tree>"),
                       "files": files}

    def every_command(label: str, config: str, names=None) -> None:
        for name, command in cli._COMMANDS.items():
            if name == "simulate" or names is not None and name not in names:
                continue
            for fmt in command.stdout:
                where = out / label / f"{name}-{fmt}"
                call(f"{label} {name} --format {fmt}",
                     [name, "--config", config, "--out", str(where), "--format", fmt], where)

    for label, config in plan["configs"].items():
        every_command(label, config)
        if label.startswith("graph-16-") and label.endswith("-detect_cv"):
            # a categorical node under cross validation
            spec = json.loads(Path(config).read_text())
            spec["columns"]["n13"] = "categorical"
            copy = Path(config).with_name("detect_cv_n13.json")
            copy.write_text(json.dumps(spec))
            where = out / f"{label}-n13"
            call(f"{label}-n13 detect --format json",
                 ["detect", "--config", str(copy), "--out", str(where), "--format", "json"], where)
    if plan["bundle"]:
        bundle = out / "bundle"
        call("simulate", ["simulate", "--out", str(bundle)], bundle)
        every_command("bundle", str(bundle / "config.json"))
        config = json.loads((bundle / "config.json").read_text())
        for name, changes, commands in (
            ("sweep", {"weighting": {"variables": ["x1", "x2"]}, "sweep": {"variable": "x3"}},
             ("partial", "summary")),
            ("fixed", {"bootstrap": {"reestimate": False}}, ("bootstrap",)),
            ("filtered", {"filters": [{"column": "y", "op": "<", "value": 6.5}]}, ("summary",)),
        ):
            (bundle / f"{name}.json").write_text(json.dumps({**config, **changes}))
            every_command(f"bundle-{name}", str(bundle / f"{name}.json"), commands)
    (Path(plan_path).parent / "runs.json").write_text(json.dumps(runs))


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """One line per run whose results differ between the trees, or that
    only one tree made."""
    lines = []
    for label in sorted(parent.keys() | change.keys()):
        a, b = parent.get(label), change.get(label)
        if a is None or b is None:
            lines.append(f"{label}: run only by {'change' if a is None else 'parent'}")
            continue
        what = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
        files = sorted(name for name in a["files"].keys() | b["files"].keys()
                       if a["files"].get(name) != b["files"].get(name))
        if files:
            what.append("files " + ", ".join(files))
        if what:
            lines.append(f"{label}: {'; '.join(what)} differ")
    return lines


def compare(parent: Path, change: Path, seeds):
    """The runs of each tree (same labels) and their differences."""
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        configs = generate_inputs(Path(tmp) / "inputs", seeds)
        runs = [run_tree(tree, configs, Path(tmp) / "run" / "out") for tree in (parent, change)]
    return runs, differences(*runs)


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                        help="seeds as ranges and commas, e.g. 0-9 or 0,3 (default 0-9)")
    args = parser.parse_args(argv)
    (runs, _), lines = compare(args.parent, args.change, args.seeds)
    for line in lines:
        print(line)
    files = sum(len(run["files"]) for run in runs.values())
    print(f"{len(runs)} runs per tree, {files} artifacts, {len(lines)} differing")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
