"""Outside-in tracing: spans around the calls into each surveysense module.

``Tracer.install`` wraps every public function of the layer modules and
replaces each reference to it that the package holds: the defining module,
every module that imported it by name (``solve_raking`` in report,
benchmark, partial and bootstrap; the ``build_*``/``write_*`` helpers in
cli), the package's re-exports and cli's command table. Modules are taken
from ``importlib.import_module`` because ``surveysense.benchmark``,
``surveysense.bias`` and ``surveysense.detect`` resolve, as attributes, to
the functions the package re-exports. Public methods of the classes a
layer defines (``DetectionReport.to_dict``, ``Design.to_problem``, ...) are
wrapped on the class. Wrappers only time and count: they return what the
function returns and re-raise what it raises.

Spans (id, name, start, end, parent, job, error) stay in memory and are
written as JSON lines by ``write_jsonl`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "config", "data", "calibrate", "benchmark", "partial", "bootstrap",
    "bias", "summary", "mrf", "paths", "cover", "detect", "report", "svg",
)

_WRITERS = (
    "report.write_weights_csv", "report.write_balance_csv", "report.write_contour_csv",
    "report.write_benchmarks_csv", "report.write_sweep_csv",
    "report.write_detection_artifacts",
)


def _counts(name: str, result) -> dict:
    """Counts read off a returned object; attribute reads only."""
    if name == "calibrate.solve_raking":
        d = result.diagnostics
        return {
            "iterations": d.iterations, "newton_steps": d.newton_steps,
            "fallback_sweeps": d.fallback_sweeps, "converged": bool(d.converged),
        }
    if name == "data.load_table":
        return {"rows": result.n}
    if name == "data.build_features":
        return {"cols": result.matrix.shape[1]}
    if name == "summary.contour_grid":
        return {"points": int(result.bias.size)}
    if name == "partial.partial_sweep":
        return {
            "points": len(result.points),
            "infeasible": sum(not p.feasible for p in result.points),
        }
    if name == "bootstrap.bootstrap_interval":
        return {"draws": result.n_draws, "dropped": result.dropped}
    if name == "mrf.fit_mrf":
        return {"edges": int(np.count_nonzero(np.triu(result.weights, 1) > 0.0))}
    if name == "paths.enumerate_paths":
        return {"paths": result.n_paths}
    if name == "cover.solve_separating_set":
        return {"explored": result.nodes_explored}
    return {}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.designs: list = []  # Design objects, for distinct-row counts later
        self._stack: list[int] = []
        self._next_id = 0
        self._job = -1
        self._root: Span | None = None
        self._patched: list[tuple[dict | type, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] | None = None
        self._methods: list[tuple[type, str, object, object]] = []

    # --- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(tracer._next_id, name, 0.0, 0.0, stack[-1] if stack else None, tracer._job)
            tracer._next_id += 1
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                stack.pop()
                tracer.spans.append(span)
                raise
            span.end = perf_counter()
            stack.pop()
            span.counts = _counts(name, result)
            if name == "data.build_features":
                tracer.designs.append(result)
            tracer.spans.append(span)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every package reference to a layer's public functions,
        and the public methods of the classes each layer defines."""
        if self._wrappers is None:
            self._wrappers = {}
            self._methods = []
            for layer in LAYERS:
                module = importlib.import_module(f"surveysense.{layer}")
                for attr, obj in vars(module).items():
                    if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if isinstance(obj, types.FunctionType):
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                    elif isinstance(obj, type):
                        self._methods += [
                            (obj, name, fn, self._wrap(f"{layer}.{attr}.{name}", fn))
                            for name, fn in vars(obj).items()
                            if not name.startswith("_") and isinstance(fn, types.FunctionType)
                        ]
        for cls, name, original, wrapper in self._methods:
            setattr(cls, name, wrapper)
            self._patched.append((cls, name, original))
        sites = [
            vars(module)
            for name, module in list(sys.modules.items())
            if name == "surveysense" or name.startswith("surveysense.")
        ]
        # main() dispatches through this table, not through module attributes
        sites.append(importlib.import_module("surveysense.cli")._COMMANDS)
        for namespace in sites:
            for key, obj in list(namespace.items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[key] = hit[1]
                    self._patched.append((namespace, key, obj))

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patched):
            if isinstance(site, type):
                setattr(site, key, original)
            else:
                site[key] = original
        self._patched.clear()

    # --- jobs ------------------------------------------------------------

    def begin_job(self, job: int, name: str) -> None:
        """Open the root span of one job; the calls it makes nest under it."""
        self._job = job
        self._root = Span(self._next_id, f"job.{name}", 0.0, 0.0, None, job)
        self._next_id += 1
        self._stack.append(self._root.id)
        self._root.start = perf_counter()

    def end_job(self) -> Span:
        self._root.end = perf_counter()
        self._stack.pop()
        self.spans.append(self._root)
        return self._root

    def write_jsonl(self, path: Path, origin: float) -> None:
        with open(path, "w") as handle:
            for s in sorted(self.spans, key=lambda s: s.id):
                record = {
                    "id": s.id, "name": s.name, "job": s.job, "parent": s.parent,
                    "start": s.start - origin, "end": s.end - origin,
                }
                if s.error:
                    record["error"] = s.error
                if s.counts:
                    record["counts"] = s.counts
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent in child:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def coverage(spans: list[Span]) -> dict[int, float]:
    """Per job: share of its wall time spent inside traced calls below the
    CLI dispatch, i.e. outside the self time of the job's root span,
    ``cli.main`` and the ``cli.cmd_*`` span."""
    own = self_times(spans)
    glue: dict[int, float] = {}
    for s in spans:
        if s.parent is None or s.name == "cli.main" or s.name.startswith("cli.cmd_"):
            glue[s.job] = glue.get(s.job, 0.0) + own[s.id]
    return {
        s.job: 1.0 - glue[s.job] / s.duration for s in spans if s.parent is None and s.duration > 0
    }


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


#: per-layer metrics, name -> unit. These take the median over the traced
#: rounds (times, and the two shares at the end); COUNT_METRICS repeat
#: exactly from round to round
TIME_METRICS = {
    "config.load_config_s": "s",
    "data.load_table_s": "s",
    "data.load_population_target_s": "s",
    "data.build_features_s": "s",
    "report.build_pipeline_s": "s",
    "report.validate_s": "s",
    "report.write_s": "s",
    "svg.render_s": "s",
    "summary.contour_grid_s": "s",
    "calibrate.solve_s": "s",
    "calibrate.solve_ms_p50": "ms",
    "calibrate.raised_solve_s": "s",
    "benchmark.table_s": "s",
    "partial.sweep_s": "s",
    "bootstrap.interval_s": "s",
    "bootstrap.self_s": "s",
    "mrf.fit_s": "s",
    "mrf.cv_lambda_s": "s",
    "mrf.lasso_path_s": "s",
    "paths.enumerate_s": "s",
    "cover.solve_s": "s",
    "detect.detect_s": "s",
    "trace.coverage": "ratio",
    "partial.feasible_share": "ratio",
}
COUNT_METRICS = {
    "data.rows_parsed": "count",
    "data.design_cols": "count",
    "data.design_cells": "count",
    "report.bytes_written": "bytes",
    "summary.grid_points": "count",
    "calibrate.solves": "count",
    "calibrate.solves_raised": "count",
    "calibrate.solves_unconverged": "count",
    "calibrate.iterations": "count",
    "calibrate.newton_steps": "count",
    "calibrate.fallback_sweeps": "count",
    "benchmark.solves": "count",
    "partial.points": "count",
    "partial.points_infeasible": "count",
    "bootstrap.draws": "count",
    "bootstrap.draws_dropped": "count",
    "mrf.cv_lambda_calls": "count",
    "mrf.lasso_path_calls": "count",
    "mrf.edges": "count",
    "paths.n_paths": "count",
    "cover.nodes_explored": "count",
}


def round_metrics(spans: list[Span], designs: list) -> dict[str, float]:
    """Per-layer metrics of one round (every job of the workload once)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    by_id = {s.id: s for s in spans}
    solves = by_name.get("calibrate.solve_raking", [])
    returned = [s for s in solves if s.error is None]
    raised = [s for s in solves if s.error is not None]
    own = self_times(spans)
    points = count("partial.partial_sweep", "points")
    infeasible = count("partial.partial_sweep", "infeasible")
    design = designs[-1].matrix if designs else None
    cover = coverage(spans)
    return {
        "config.load_config_s": total("config.load_config"),
        "data.load_table_s": total("data.load_table"),
        "data.load_population_target_s": total("data.load_population_target"),
        "data.build_features_s": total("data.build_features"),
        "data.rows_parsed": count("data.load_table", "rows"),
        "data.design_cols": 0 if design is None else design.shape[1],
        "data.design_cells": 0 if design is None else int(np.unique(design, axis=0).shape[0]),
        "report.build_pipeline_s": total("report.build_pipeline"),
        "report.validate_s": total("report.validate_report"),
        "report.write_s": total(*_WRITERS),
        "report.bytes_written": sum(
            s.counts.get("bytes_written", 0) for s in spans if s.parent is None
        ),
        "svg.render_s": total("svg.render_contour", "svg.render_sweep"),
        "summary.contour_grid_s": total("summary.contour_grid"),
        "summary.grid_points": count("summary.contour_grid", "points"),
        "calibrate.solves": len(solves),
        "calibrate.solve_s": total("calibrate.solve_raking"),
        "calibrate.solve_ms_p50": (
            1e3 * statistics.median(s.duration for s in solves) if solves else 0.0
        ),
        "calibrate.solves_raised": len(raised),
        "calibrate.raised_solve_s": sum(s.duration for s in raised),
        "calibrate.solves_unconverged": sum(not s.counts["converged"] for s in returned),
        "calibrate.iterations": sum(s.counts["iterations"] for s in returned),
        "calibrate.newton_steps": sum(s.counts["newton_steps"] for s in returned),
        "calibrate.fallback_sweeps": sum(s.counts["fallback_sweeps"] for s in returned),
        "benchmark.table_s": total("benchmark.benchmark_table"),
        "benchmark.solves": sum(
            any(a.name == "benchmark.benchmark_table" for a in _ancestors(s, by_id))
            for s in solves
        ),
        "partial.sweep_s": total("partial.partial_sweep"),
        "partial.points": points,
        "partial.points_infeasible": infeasible,
        "partial.feasible_share": (points - infeasible) / points if points else 0.0,
        "bootstrap.interval_s": total("bootstrap.bootstrap_interval"),
        "bootstrap.draws": count("bootstrap.bootstrap_interval", "draws"),
        "bootstrap.draws_dropped": count("bootstrap.bootstrap_interval", "dropped"),
        "bootstrap.self_s": sum(own[s.id] for s in by_name.get("bootstrap.bootstrap_interval", ())),
        "mrf.fit_s": total("mrf.fit_mrf"),
        "mrf.cv_lambda_calls": calls("mrf.cv_lambda"),
        "mrf.cv_lambda_s": total("mrf.cv_lambda"),
        "mrf.lasso_path_calls": calls("mrf.lasso_path"),
        "mrf.lasso_path_s": total("mrf.lasso_path"),
        "mrf.edges": count("mrf.fit_mrf", "edges"),
        "paths.enumerate_s": total("paths.enumerate_paths"),
        "paths.n_paths": count("paths.enumerate_paths", "paths"),
        "cover.solve_s": total("cover.solve_separating_set"),
        "cover.nodes_explored": count("cover.solve_separating_set", "explored"),
        "detect.detect_s": total("detect.detect"),
        "trace.coverage": min(cover.values()) if cover else 0.0,
    }


def raised(spans: list[Span]) -> dict[str, int]:
    """Calls that raised, counted by function and exception type."""
    out: dict[str, int] = {}
    for s in spans:
        if s.error is not None:
            key = f"{s.name}:{s.error}"
            out[key] = out.get(key, 0) + 1
    return out


def module_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per module (span names are ``module.function``)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s.parent is None:
            continue
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s.id]
    return out
