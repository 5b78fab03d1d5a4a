"""Checks every artifact a benchmark job writes against the benchmark's own
inputs. A job passes only when ``Oracle.check`` returns no problems.

What is checked, by job:

* summary: weights are positive with mean 1 (1e-12) and hit the margins
  recomputed from the generator's design (1e-8); ``report.json`` validates
  against the schema shipped in ``src/surveysense/schemas``; the scale
  terms match the weights (1e-9 relative) and bias(sqrt(RV), RV) equals
  |mu_hat - b_star| (1e-9 relative); embedded sweep and detection blocks
  get the checks below.
* partial: every sweep flag agrees with the attainable interval of the
  swept share, computed here by linear programming; points within 1e-6 of
  an endpoint are exempt.
* bootstrap: at most 5% of draws dropped, and the interval brackets the
  weighted estimate of the verified summary weights.
* detect: a ``found`` separating set cuts the outcome from every sampling
  node in the reported edges (breadth-first search, no length limit).
* at the default seed: estimates, interval ends, the sweep points in
  order (posited share, flag, estimate), the edge set and the separating
  set match ``reference.json``; numbers within ``REFERENCE_RTOL``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import jsonschema
import numpy as np
from scipy.optimize import linprog

from workloads import Inputs, subcommand

WEIGHT_MEAN_TOL = 1e-12
MARGIN_TOL = 1e-8
CLOSURE_RTOL = 1e-9
ENDPOINT_BAND = 1e-6
MAX_DROP_SHARE = 0.05
#: relative tolerance against the recorded reference; a different solver
#: that meets the 1e-8 margin tolerance moves estimates by far less
REFERENCE_RTOL = 1e-6


def attainable_interval(design: np.ndarray, targets: np.ndarray, v: np.ndarray):
    """[min, max] of the weighted share of ``v`` over all probability
    vectors on the respondents that meet every target exactly."""
    points = np.unique(np.column_stack([design, v]), axis=0)
    f, share = points[:, :-1], points[:, -1]
    a_eq = np.vstack([f.T, np.ones(len(points))])
    b_eq = np.append(targets, 1.0)
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * share, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"attainable-interval LP failed: {res.message}")
        ends.append(sign * res.fun)
    return ends[0], ends[1]


def separation_leaks(detection: dict) -> list[str]:
    """Sampling nodes reachable from the outcome once the separating set is
    removed from the reported edge graph."""
    adjacency = defaultdict(set)
    for edge in detection["edges"]:
        adjacency[edge["a"]].add(edge["b"])
        adjacency[edge["b"]].add(edge["a"])
    cut = set(detection["separating_set"])
    seen = {detection["outcome"]}
    frontier = [detection["outcome"]]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen and other not in cut:
                seen.add(other)
                frontier.append(other)
    return sorted(s for s in detection["sampling_set"] if s in seen and s not in cut)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _matches(got, want) -> bool:
    """Recorded value ``want`` equals ``got``: floats within
    ``REFERENCE_RTOL``, lists element by element, anything else exactly."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_matches, got, want)))
    if isinstance(want, float) and isinstance(got, float):
        return _close(got, want, REFERENCE_RTOL)
    return got == want


def read_sweep_csv(path: Path) -> list[tuple[float, bool, float | None]]:
    """(posited share, feasible flag, estimate or None) of each point in
    a ``sweep.csv``."""
    with open(path, newline="") as handle:
        return [
            (float(r["t_v"]), r["feasible"] == "1",
             float(r["estimate"]) if r["feasible"] == "1" else None)
            for r in csv.DictReader(handle)
        ]


class Oracle:
    def __init__(self, inputs: Inputs, schema_path: Path, reference: dict | None = None):
        self.inputs = inputs
        self.schema = json.loads(Path(schema_path).read_text())
        self.reference = reference
        self.interval = None
        if inputs.v is not None:
            self.interval = attainable_interval(inputs.design, inputs.targets, inputs.v)
        self.estimate = None  # weighted estimate from verified summary weights
        self.observed: dict[str, dict] = {}  # "job.block" -> values compared to the reference
        self._job = ""

    def check(self, job: str, out: Path) -> list[str]:
        """Problems found in the artifacts ``job`` wrote under ``out``;
        empty when correct."""
        self._job = job
        try:
            return getattr(self, f"_check_{subcommand(job)}")(Path(out))
        except Exception as err:  # a failed check counts as a failed job
            return [f"{job}: artifacts could not be checked ({type(err).__name__}: {err})"]

    # --- per job ---------------------------------------------------------

    def _check_summary(self, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text())
        problems = []
        try:
            jsonschema.validate(report, self.schema)
        except jsonschema.ValidationError as err:
            problems.append(f"report.json fails the schema: {err.message}")
        w = self._weights(out / "weights.csv", problems)
        if w is not None:
            problems += self._scale(report, w)
        if report.get("sweep") is not None:
            problems += self.sweep_problems([
                (p["t_v"], p["feasible"], p["estimate"] if p["feasible"] else None)
                for p in report["sweep"]["points"]
            ])
        if report.get("detection") is not None:
            problems += self.detection_problems(report["detection"])
        problems += self._against_reference(
            "estimates",
            {"weighted": report["estimates"]["weighted"]["value"],
             "rv": report["robustness"]["rv"]},
        )
        return problems

    def _check_partial(self, out: Path) -> list[str]:
        return self.sweep_problems(read_sweep_csv(out / "sweep.csv"))

    def _check_bootstrap(self, out: Path) -> list[str]:
        block = json.loads((out / "bootstrap.json").read_text())
        problems = []
        if block["draws_kept"] + block["dropped"] != block["n_draws"]:
            problems.append("bootstrap draw counts do not add up")
        if block["dropped"] > MAX_DROP_SHARE * block["n_draws"]:
            problems.append(f"bootstrap dropped {block['dropped']} of {block['n_draws']} draws")
        if self.estimate is None:
            problems.append("bootstrap checked before any verified summary")
        elif not block["lower"] <= self.estimate <= block["upper"]:
            problems.append(
                f"bootstrap interval [{block['lower']}, {block['upper']}] misses "
                f"the weighted estimate {self.estimate}"
            )
        problems += self._against_reference(
            "interval", {"lower": block["lower"], "upper": block["upper"]}
        )
        return problems

    def _check_detect(self, out: Path) -> list[str]:
        detection = json.loads((out / "detection.json").read_text())
        return self.detection_problems(detection)

    # --- shared checks ---------------------------------------------------

    def _weights(self, path: Path, problems: list[str]) -> np.ndarray | None:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        ins = self.inputs
        n = ins.design.shape[0]
        if table.shape != (n, 2) or not np.array_equal(table[:, 0], np.arange(1, n + 1)):
            problems.append("weights.csv does not list every respondent once, in order")
            return None
        w = table[:, 1]
        if not np.all(w > 0.0):
            problems.append("weights are not all positive")
        if abs(w.mean() - 1.0) > WEIGHT_MEAN_TOL:
            problems.append(f"weights average {w.mean()!r}, not 1")
        gap = float(np.max(np.abs(ins.design.T @ w / n - ins.targets)))
        if not gap <= MARGIN_TOL:
            problems.append(f"weighted margins miss their targets by {gap:.3g}")
        if not problems:
            self.estimate = float(w @ ins.y / w.sum())
        return w

    def _scale(self, report: dict, w: np.ndarray) -> list[str]:
        y = self.inputs.y
        mu_hat = float(w @ y / w.sum())
        var_y, var_w = float(np.var(y)), float(np.var(w))
        scale = report["scale"]
        problems = [
            f"report scale {key} = {scale[key]!r}, weights give {mine!r}"
            for key, mine in (("mu_hat", mu_hat), ("var_y", var_y), ("var_w", var_w))
            if not _close(scale[key], mine, CLOSURE_RTOL)
        ]
        rob = report["robustness"]
        rv, gap = rob["rv"], mu_hat - self.inputs.b_star
        implied = math.sqrt(rv) * math.sqrt(var_y * var_w * rv / (1.0 - rv))
        if not _close(implied, abs(gap), CLOSURE_RTOL):
            problems.append(f"bias(sqrt(RV), RV) = {implied!r} but |mu_hat - b*| = {abs(gap)!r}")
        return problems

    def sweep_problems(self, points: list[tuple[float, bool, float | None]]) -> list[str]:
        """``points`` are (posited share, feasible flag, estimate), in the
        program's order; the reference compares them by position, since the
        baseline point's share is itself a solver output."""
        lo, hi = self.interval
        problems = []
        for t, feasible, _ in points:
            if min(abs(t - lo), abs(t - hi)) <= ENDPOINT_BAND:
                continue
            if feasible != (lo < t < hi):
                problems.append(
                    f"sweep point {t!r} flagged feasible={feasible}, "
                    f"attainable interval is ({lo!r}, {hi!r})"
                )
        problems += self._against_reference("sweep", {
            "t_v": [t for t, _, _ in points],
            "feasible": [feasible for _, feasible, _ in points],
            "estimate": [est for _, _, est in points],
        })
        return problems

    def detection_problems(self, detection: dict) -> list[str]:
        problems = []
        if detection["status"] == "found":
            leaks = separation_leaks(detection)
            if leaks:
                problems.append(f"separating set {detection['separating_set']} leaves {leaks} reachable")
            partial = set(detection["partial"]) & set(detection["separating_set"])
            if partial:
                problems.append(f"separating set uses partial nodes {sorted(partial)}")
        edges = sorted("--".join(sorted((e["a"], e["b"]))) for e in detection["edges"])
        problems += self._against_reference(
            "detection",
            {"edges": edges, "status": detection["status"],
             "separating_set": sorted(detection["separating_set"])},
        )
        return problems

    def _against_reference(self, block: str, values: dict) -> list[str]:
        block = f"{self._job}.{block}"
        self.observed[block] = values
        if self.reference is None or block not in self.reference:
            return []
        expected = self.reference[block]
        problems = []
        if set(expected) != set(values):
            return [f"{block}: keys {sorted(values)} differ from reference {sorted(expected)}"]
        for key, want in expected.items():
            if not _matches(values[key], want):
                problems.append(f"{block}.{key} = {values[key]!r}, reference {want!r}")
        return problems
