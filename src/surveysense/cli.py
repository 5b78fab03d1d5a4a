"""Command-line interface.

Subcommands: weight, summary, contour, benchmark, partial, detect,
bootstrap, simulate. Exit codes: 0 success, 1 runtime or solver failure,
2 config or schema failure; failures print a JSON error object to
stderr. SURVEYSENSE_OUT overrides the config's output directory; the
--out flag overrides both.

Importing this module loads only the config, data and error layers. Each
subcommand imports the layers it runs when it starts, so ``weight`` never
loads the graph fit and ``detect`` never loads the contour, benchmark,
sweep or bootstrap layers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import RunConfig, check_seed, load_config
from .errors import ConfigError, SchemaError, SurveySenseError

_FORMATS = {
    "weight": ("json", "csv"),
    "summary": ("json",),
    "contour": ("json", "csv", "svg"),
    "benchmark": ("json", "csv"),
    "partial": ("json", "csv", "svg"),
    "detect": ("json", "csv"),
    "bootstrap": ("json",),
    "simulate": ("json",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveysense",
        description="calibration weighting with confounding sensitivity diagnostics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", metavar="DIR", help="output directory override")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument(
        "--format",
        choices=("json", "csv", "svg"),
        default="json",
        help="stdout rendering (artifacts on disk are unaffected)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "weight": "solve calibration weights and write the balance table",
        "summary": "full sensitivity report (estimates, robustness, benchmarks, contour)",
        "contour": "bias contour artifacts only",
        "benchmark": "leave-one-covariate-out benchmark table",
        "partial": "margin sweep for a partially observed variable",
        "detect": "graph screening for the weighting variable set",
        "bootstrap": "percentile interval for the adjusted estimate",
        "simulate": "generate a synthetic survey bundle with a ready config",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def _fail(err: Exception, code: int) -> int:
    payload = {"error": {"type": type(err).__name__, "message": str(err)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _check_format(command: str, fmt: str) -> None:
    if fmt not in _FORMATS[command]:
        allowed = ", ".join(_FORMATS[command])
        raise ConfigError(f"--format {fmt} is not available for {command} (use {allowed})")


def _load(args) -> tuple[RunConfig, str, Path]:
    if not args.config:
        raise ConfigError("--config is required for this command")
    cfg, sha = load_config(args.config)
    env_out = os.environ.get("SURVEYSENSE_OUT")
    cfg = cfg.with_overrides(
        out=args.out if args.out is not None else env_out,
        seed=args.seed,
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, sha, out


def cmd_weight(args) -> int:
    from .report import (
        balance_block, build_pipeline, calibration_block, canonical_json,
        write_balance_csv, write_weights_csv,
    )

    _check_format("weight", args.format)
    cfg, _, out = _load(args)
    pipe = build_pipeline(cfg)
    write_weights_csv(out / "weights.csv", pipe)
    write_balance_csv(out / "balance.csv", pipe)
    if args.format == "csv":
        sys.stdout.write((out / "balance.csv").read_text())
        return 0
    result = {
        "weights_csv": str(out / "weights.csv"),
        "balance_csv": str(out / "balance.csv"),
        "rows": int(pipe.frame.n),
        "calibration": calibration_block(pipe),
        "balance": balance_block(pipe),
    }
    sys.stdout.write(canonical_json(result))
    return 0


def cmd_summary(args) -> int:
    from .report import (
        assemble_report, benchmark_records, benchmarks_block, build_contour,
        build_detection, build_pipeline, build_sweep, canonical_json, contour_block,
        robustness_block, sweep_block, write_balance_csv, write_benchmarks_csv,
        write_contour_csv, write_detection_artifacts, write_sweep_csv, write_weights_csv,
    )
    from .svg import render_contour, render_sweep

    _check_format("summary", args.format)
    cfg, sha, out = _load(args)
    pipe = build_pipeline(cfg)
    b_star = cfg.require_b_star()
    records = benchmark_records(pipe, b_star)
    grid = build_contour(pipe, b_star, records)
    sweep = build_sweep(pipe) if cfg.sweep_variable else None
    detection = build_detection(pipe) if cfg.detection_sampling_set else None
    report = assemble_report(
        pipe,
        sha,
        robustness=robustness_block(pipe, b_star),
        benchmarks=benchmarks_block(records),
        contour=contour_block(grid),
        sweep=None if sweep is None else sweep_block(sweep),
        detection=None if detection is None else detection.to_dict(),
        bootstrap=None,
    )
    text = canonical_json(report)
    (out / "report.json").write_text(text)
    write_weights_csv(out / "weights.csv", pipe)
    write_balance_csv(out / "balance.csv", pipe)
    write_contour_csv(out / "contour.csv", grid)
    (out / "contour.svg").write_text(render_contour(grid))
    write_benchmarks_csv(out / "benchmarks.csv", report["benchmarks"])
    if sweep is not None:
        write_sweep_csv(out / "sweep.csv", sweep)
        (out / "sweep.svg").write_text(render_sweep(sweep))
    if detection is not None:
        write_detection_artifacts(out, detection)
    sys.stdout.write(text)
    return 0


def cmd_contour(args) -> int:
    from .report import (
        benchmark_records, build_contour, build_pipeline, canonical_json, contour_block,
        write_contour_csv,
    )
    from .svg import render_contour

    _check_format("contour", args.format)
    cfg, _, out = _load(args)
    pipe = build_pipeline(cfg)
    b_star = cfg.require_b_star()
    records = benchmark_records(pipe, b_star)
    grid = build_contour(pipe, b_star, records)
    write_contour_csv(out / "contour.csv", grid)
    svg = render_contour(grid)
    (out / "contour.svg").write_text(svg)
    if args.format == "svg":
        sys.stdout.write(svg)
    elif args.format == "csv":
        sys.stdout.write((out / "contour.csv").read_text())
    else:
        sys.stdout.write(canonical_json(contour_block(grid)))
    return 0


def cmd_benchmark(args) -> int:
    from .report import (
        benchmark_records, benchmarks_block, build_pipeline, canonical_json,
        write_benchmarks_csv,
    )

    _check_format("benchmark", args.format)
    cfg, _, out = _load(args)
    pipe = build_pipeline(cfg)
    records = benchmark_records(pipe, cfg.require_b_star())
    blocks = benchmarks_block(records)
    write_benchmarks_csv(out / "benchmarks.csv", blocks)
    if args.format == "csv":
        sys.stdout.write((out / "benchmarks.csv").read_text())
    else:
        sys.stdout.write(canonical_json({"benchmarks": blocks}))
    return 0


def cmd_partial(args) -> int:
    from .report import build_pipeline, build_sweep, canonical_json, sweep_block, write_sweep_csv
    from .svg import render_sweep

    _check_format("partial", args.format)
    cfg, _, out = _load(args)
    pipe = build_pipeline(cfg)
    sweep = build_sweep(pipe)
    write_sweep_csv(out / "sweep.csv", sweep)
    svg = render_sweep(sweep)
    (out / "sweep.svg").write_text(svg)
    if args.format == "svg":
        sys.stdout.write(svg)
    elif args.format == "csv":
        sys.stdout.write((out / "sweep.csv").read_text())
    else:
        sys.stdout.write(canonical_json(sweep_block(sweep)))
    return 0


def cmd_detect(args) -> int:
    from .data import apply_filters, load_table
    from .detect import detect
    from .report import write_detection_artifacts

    _check_format("detect", args.format)
    cfg, _, out = _load(args)
    if not cfg.detection_sampling_set:
        raise ConfigError("detection.sampling_set is not set in the config")
    frame = load_table(cfg.survey, cfg.schema)
    if cfg.filters:
        frame = apply_filters(frame, list(cfg.filters))
    report = detect(
        {name: frame.column(name) for name in frame.columns},
        {name: frame.kind(name) for name in frame.columns},
        cfg.outcome,
        cfg.detection_sampling_set,
        cfg.detection_partial,
        lam=cfg.detection_lambda,
        seed=cfg.seed,
    )
    text = write_detection_artifacts(out, report)
    if args.format == "csv":
        lines = ["a,b,weight"]
        lines += [f"{a},{b},{repr(w)}" for a, b, w in report.graph.edges()]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bootstrap(args) -> int:
    from .report import bootstrap_block, build_bootstrap, build_pipeline, canonical_json

    _check_format("bootstrap", args.format)
    cfg, _, out = _load(args)
    pipe = build_pipeline(cfg)
    result = build_bootstrap(pipe)
    block = bootstrap_block(result)
    text = canonical_json(block)
    (out / "bootstrap.json").write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    from .report import canonical_json
    from .simulate import draw_sample, generate, three_covariate_dgp

    _check_format("simulate", args.format)
    seed = check_seed(args.seed) if args.seed is not None else 20260822
    out = Path(args.out or os.environ.get("SURVEYSENSE_OUT") or "surveysense-out")
    out.mkdir(parents=True, exist_ok=True)
    dgp = three_covariate_dgp(seed=seed)
    pop = generate(dgp, replication=0)
    idx = draw_sample(pop, replication=0)
    feats = pop.features().astype(int)
    names = dgp.feature_names

    lines = [",".join(names)]
    lines += [",".join(str(v) for v in row) for row in feats]
    (out / "population.csv").write_text("\n".join(lines) + "\n")

    header = ",".join(names) + ",y"
    rows = [header]
    for row, y in zip(feats[idx], pop.y[idx]):
        rows.append(",".join(str(v) for v in row) + f",{repr(float(y))}")
    (out / "survey.csv").write_text("\n".join(rows) + "\n")

    margin_rows = ["variable,level,value"]
    pop_means = feats.mean(axis=0)
    for name, mean in zip(names, pop_means):
        margin_rows.append(f"{name},1,{repr(float(mean))}")
    (out / "margins.csv").write_text("\n".join(margin_rows) + "\n")

    config = {
        "survey": "survey.csv",
        "margins": "margins.csv",
        "columns": {**{n: "binary" for n in names}, "y": "continuous"},
        "outcome": "y",
        "weighting": {"variables": list(names)},
        "b_star": 0.0,
        "detection": {"sampling_set": list(names)},
        "seed": 0,
        "out": str(out / "run"),
    }
    (out / "config.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    truth = {
        "mu_true": float(pop.mu_true),
        "n_population": int(pop.n),
        "n_sample": int(len(idx)),
        "dgp_seed": int(dgp.seed),
    }
    (out / "truth.json").write_text(canonical_json(truth))
    sys.stdout.write(
        canonical_json(
            {
                "survey": str(out / "survey.csv"),
                "population": str(out / "population.csv"),
                "margins": str(out / "margins.csv"),
                "config": str(out / "config.json"),
                "truth": str(out / "truth.json"),
                **truth,
            }
        )
    )
    return 0


_COMMANDS = {
    "weight": cmd_weight,
    "summary": cmd_summary,
    "contour": cmd_contour,
    "benchmark": cmd_benchmark,
    "partial": cmd_partial,
    "detect": cmd_detect,
    "bootstrap": cmd_bootstrap,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SchemaError) as err:
        return _fail(err, 2)
    except (SurveySenseError, ValueError, OSError) as err:
        return _fail(err, 1)


if __name__ == "__main__":
    sys.exit(main())
