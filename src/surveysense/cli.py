"""Command-line interface.

Subcommands: weight, summary, contour, benchmark, partial, detect,
bootstrap, simulate. Exit codes: 0 success, 1 runtime or solver failure,
2 config or schema failure; failures print a JSON error object to
stderr. SURVEYSENSE_OUT overrides the config's output directory; the
--out flag overrides both.

``_COMMANDS`` declares each subcommand once: its help text, the artifacts
it writes and one stdout renderer per ``--format`` it allows. A renderer
is an artifact's file name, echoed as written, or a function of the run.
``_Run`` builds each stage (pipeline, benchmark records, contour grid,
sweep, detection, bootstrap, report) on first use and at most once per
run. ``main`` builds every stage a command's artifacts need before it
writes any, so a failed stage leaves no artifact behind.

Importing this module loads only the config, data and error layers. A
stage or writer imports the layer it calls when it runs: ``weight`` loads
only the report, calibration and bias layers beside those, ``detect`` never
loads the contour, benchmark, sweep, bootstrap or SVG layers, and only
``summary``, ``contour`` and ``partial`` load the SVG layer.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .config import RunConfig, check_seed, load_config
from .errors import ConfigError, SchemaError, SurveySenseError


def _layer(name: str):
    """A package module, imported when a stage or writer first needs it."""
    return importlib.import_module(f"{__package__}.{name}")


class _Run:
    """The stages of one run, each built on first use and at most once."""

    def __init__(self, args: argparse.Namespace):
        self.args = args

    @cached_property
    def cfg(self) -> RunConfig:
        args = self.args
        if not args.config:
            raise ConfigError("--config is required for this command")
        cfg, self.sha = load_config(args.config)
        out = args.out if args.out is not None else os.environ.get("SURVEYSENSE_OUT")
        overrides = {"out": out, "seed": args.seed}
        return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    @cached_property
    def out(self) -> Path:
        out = Path(self.cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        return out

    def configured(self, stage: str) -> bool:
        """Whether the config sets up ``summary``'s optional sweep or detection."""
        cfg = self.cfg
        return bool(cfg.sweep_variable if stage == "sweep" else cfg.detection_sampling_set)

    @cached_property
    def pipeline(self):
        return _layer("report").build_pipeline(self.cfg)

    @cached_property
    def records(self):
        from .benchmark import benchmark_table

        pipe, cfg = self.pipeline, self.cfg
        covariates = cfg.benchmark_covariates
        if covariates is None:
            covariates = cfg.weighting_variables
        return benchmark_table(
            pipe.problem, pipe.baseline, pipe.y, covariates, b_star=cfg.require_b_star()
        )

    @cached_property
    def grid(self):
        from .summary import contour_grid

        cfg, records = self.cfg, self.records
        grid = contour_grid(
            self.pipeline.scale, cfg.require_b_star(),
            rho_step=cfg.rho_step, r2_step=cfg.r2_step, r2_max=cfg.r2_max,
        )
        return replace(grid, benchmark_points=tuple(
            (r.label, r.rho, r.r2) for r in records if r.converged))

    @cached_property
    def sweep(self):
        from .partial import partial_sweep

        pipe, cfg = self.pipeline, self.cfg
        name = cfg.sweep_variable
        if name is None:
            raise ConfigError("sweep.variable is not set in the config")
        v = np.asarray(pipe.frame.column(name), dtype=np.float64)
        return partial_sweep(pipe.problem, v, pipe.y, label=name, grid=cfg.sweep_grid,
                             baseline=pipe.baseline)

    @cached_property
    def detection(self):
        from .detect import detect

        cfg = self.cfg
        if not cfg.detection_sampling_set:
            raise ConfigError("detection.sampling_set is not set in the config")
        if "pipeline" in vars(self):  # summary has its pipeline's rows
            frame = self.pipeline.frame
        else:  # detect reads the survey alone
            frame = _layer("report").load_survey(cfg)
        return detect(
            frame.columns, frame.kinds,
            cfg.outcome, cfg.detection_sampling_set, cfg.detection_partial,
            lam=cfg.detection_lambda, seed=cfg.seed,
        )

    @cached_property
    def bootstrap(self):
        from .bias import SensitivityParams
        from .bootstrap import bootstrap_interval

        pipe, cfg = self.pipeline, self.cfg
        return bootstrap_interval(
            pipe.problem, pipe.y, SensitivityParams(cfg.bootstrap_rho, cfg.bootstrap_r2),
            b=cfg.bootstrap_draws, alpha=cfg.bootstrap_alpha, seed=cfg.seed,
            reestimate=cfg.bootstrap_reestimate, baseline=pipe.baseline,
        )

    @cached_property
    def report(self) -> str:
        """report.json's text, built only when the report validates."""
        report, pipe = _layer("report"), self.pipeline
        # first, so that a threshold too far to bridge fails before the fan-outs
        robustness = report.robustness_block(pipe, self.cfg.require_b_star())
        return report.canonical_json(report.assemble_report(
            pipe, self.sha, robustness=robustness,
            benchmarks=report.benchmarks_block(self.records),
            contour=report.contour_block(self.grid),
            sweep=report.sweep_block(self.sweep) if self.configured("sweep") else None,
            detection=self.detection.to_dict() if self.configured("detection") else None,
        ))

    @cached_property
    def bundle(self) -> dict:
        """simulate's bundle, written from its seed; it reads no config."""
        args = self.args
        if args.config is not None:
            raise ConfigError("--config is not available for simulate")
        seed = check_seed(args.seed) if args.seed is not None else 20260822
        out = Path(args.out or os.environ.get("SURVEYSENSE_OUT") or "surveysense-out")
        out.mkdir(parents=True, exist_ok=True)
        return _layer("simulate").write_bundle(out, seed)


#: artifact -> (the stage it renders, its writer into the output directory)
_ARTIFACTS: dict[str, tuple[str, Callable]] = {
    "report.json": ("report", lambda text, out: (out / "report.json").write_text(text)),
    "weights.csv": ("pipeline", lambda pipe, out: _layer("report").write_weights_csv(
        out / "weights.csv", pipe)),
    "balance.csv": ("pipeline", lambda pipe, out: _layer("report").write_balance_csv(
        out / "balance.csv", pipe)),
    "contour.csv": ("grid", lambda grid, out: _layer("report").write_contour_csv(
        out / "contour.csv", grid)),
    "contour.svg": ("grid", lambda grid, out: (out / "contour.svg").write_text(
        _layer("svg").render_contour(grid))),
    "benchmarks.csv": ("records", lambda records, out: _layer("report").write_benchmarks_csv(
        out / "benchmarks.csv", _layer("report").benchmarks_block(records))),
    "sweep.csv": ("sweep", lambda sweep, out: _layer("report").write_sweep_csv(
        out / "sweep.csv", sweep)),
    "sweep.svg": ("sweep", lambda sweep, out: (out / "sweep.svg").write_text(
        _layer("svg").render_sweep(sweep))),
    "detection.json": ("detection", lambda rep, out: _layer("report").write_detection_artifacts(
        out, rep)),  # and detection.dot
    "bootstrap.json": ("bootstrap", lambda result, out: (out / "bootstrap.json").write_text(
        _layer("report").canonical_json(_layer("report").bootstrap_block(result)))),
}


def _weight_json(run: _Run) -> dict:
    report, pipe, out = _layer("report"), run.pipeline, run.out
    return {
        "weights_csv": str(out / "weights.csv"),
        "balance_csv": str(out / "balance.csv"),
        "rows": int(pipe.frame.n),
        "calibration": report.calibration_block(pipe),
        "balance": _layer("calibrate").balance_table(pipe.problem, pipe.baseline.values),
    }


def _edges_csv(run: _Run) -> str:
    text = io.StringIO()
    _layer("report")._write_rows(text, ["a", "b", "weight"], run.detection.graph.edges())
    return text.getvalue()


@dataclass(frozen=True)
class _Command:
    help: str
    #: --format -> an artifact echoed as written, or run -> text or a dict to print as JSON
    stdout: dict[str, str | Callable]
    artifacts: tuple[str, ...] = ()
    #: artifacts written only when the config sets up their stage
    optional: tuple[str, ...] = ()


_COMMANDS = {
    "weight": _Command(
        "solve calibration weights and write the balance table",
        {"json": _weight_json, "csv": "balance.csv"}, ("weights.csv", "balance.csv")),
    "summary": _Command(
        "full sensitivity report (estimates, robustness, benchmarks, contour)",
        {"json": "report.json"},
        ("report.json", "weights.csv", "balance.csv", "contour.csv", "contour.svg",
         "benchmarks.csv"),
        ("sweep.csv", "sweep.svg", "detection.json")),
    "contour": _Command(
        "bias contour artifacts only",
        {"json": lambda run: _layer("report").contour_block(run.grid),
         "csv": "contour.csv", "svg": "contour.svg"},
        ("contour.csv", "contour.svg")),
    "benchmark": _Command(
        "leave-one-covariate-out benchmark table",
        {"json": lambda run: {"benchmarks": _layer("report").benchmarks_block(run.records)},
         "csv": "benchmarks.csv"},
        ("benchmarks.csv",)),
    "partial": _Command(
        "margin sweep for a partially observed variable",
        {"json": lambda run: _layer("report").sweep_block(run.sweep),
         "csv": "sweep.csv", "svg": "sweep.svg"},
        ("sweep.csv", "sweep.svg")),
    "detect": _Command(
        "graph screening for the weighting variable set",
        {"json": "detection.json", "csv": _edges_csv}, ("detection.json",)),
    "bootstrap": _Command(
        "percentile interval for the adjusted estimate",
        {"json": "bootstrap.json"}, ("bootstrap.json",)),
    "simulate": _Command(
        "generate a synthetic survey bundle with a ready config",
        {"json": lambda run: run.bundle}),
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
    for name, command in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=command.help)
    return parser


def _fail(err: Exception, code: int) -> int:
    payload = {"error": {"type": type(err).__name__, "message": str(err)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _execute(args: argparse.Namespace) -> int:
    command = _COMMANDS[args.command]
    render = command.stdout.get(args.format)
    if render is None:
        allowed = ", ".join(command.stdout)
        raise ConfigError(f"--format {args.format} is not available for {args.command} "
                          f"(use {allowed})")
    run = _Run(args)
    writes = [_ARTIFACTS[name] for name in command.artifacts]
    if writes:  # the config is read and the output directory made before any stage
        out = run.out
        writes += [_ARTIFACTS[name] for name in command.optional
                   if run.configured(_ARTIFACTS[name][0])]
        built = [getattr(run, stage) for stage, _ in writes]
        for (_, write), value in zip(writes, built):
            write(value, out)
    text = render(run) if callable(render) else (run.out / render).read_text()
    if not isinstance(text, str):
        text = _layer("report").canonical_json(text)
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _execute(args)
    except (ConfigError, SchemaError) as err:
        return _fail(err, 2)
    except (SurveySenseError, ValueError, OSError) as err:
        return _fail(err, 1)


if __name__ == "__main__":
    sys.exit(main())
