"""Seeded input generators for the benchmark workloads (numpy only).

Each generator draws a dataset from ``--seed``, writes the CSV, margin and
config files the CLI reads, and keeps the arrays the oracle needs to check
the outputs: the benchmark's own design matrix and targets, the outcome,
the sweep variable. Nothing here imports surveysense, so no change to the
program can alter the inputs.

Workloads:

* ``cells-5k``: the three-covariate law of ``simulate.three_covariate_dgp``
  drawn correctly (features indexed by each unit's cell). A 100k population
  with about 5% logistic selection gives about 5k respondents whose design
  has 8 distinct rows. A respondent-only binary ``v`` can be 1 only where
  x1 = 1, so sweep points above the x1 margin are jointly infeasible. This
  is the all-categorical survey: calibrate fan-outs with a tiny per-solve
  cost and k << n cells, about half of the sweep spent proving
  infeasibility.
* ``rows-10k``: 10k respondents drawn with a tilt from a 20k-row population
  file that is the calibration target. Weighting on an 8-level region,
  unrounded continuous age, two binaries and region x x1 (17 columns) with
  a continuous base weight, so nearly every design row is distinct and the
  per-solve cost grows with n; every sweep point is attainable.
* ``graph-16``: a 16-node Gaussian Markov field (chain plus cross edges),
  five nodes thresholded to binary and one cut into three levels.
  Calibration is never called. ``detect`` fits all 16 nodes at a fixed
  penalty and enumerates the paths from the outcome n00, which has three
  neighbours, to the sampling set for a blocking-set search of 2-3 nodes; ``detect_cv`` picks each penalty of the first six
  nodes by 10-fold cross validation over 30 penalties, so the nodewise
  lasso fit does nearly all the work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: jobs of each workload, in round order; summary comes first so the
#: oracle holds verified baseline weights before any bootstrap job
JOBS = {
    "cells-5k": ("summary", "bootstrap", "partial"),
    "rows-10k": ("summary", "bootstrap"),
    "graph-16": ("detect", "detect_cv"),
}
#: jobs that run a subcommand under another name (with their own config)
_SUBCOMMAND = {"detect_cv": "detect"}

#: full sizes; tests pass smaller ones
SIZES = {
    "cells-5k": {"population": 100_000, "draws": 200},
    "rows-10k": {"respondents": 10_000, "population": 20_000, "draws": 20},
    "graph-16": {"rows": 1_000},
}

#: posited shares of ``v`` in the cells-5k sweep; the x1 margin is about
#: 0.48, so 0.55, 0.70 and 0.85 are jointly infeasible (3 of 7 points
#: with the baseline share)
CELLS_SWEEP = [0.10, 0.25, 0.40, 0.55, 0.70, 0.85]
#: posited shares of ``v`` in the rows-10k sweep, all inside the
#: attainable range (``v`` averages about 0.41)
ROWS_SWEEP = [0.30, 0.35, 0.40, 0.45, 0.50]
#: fixed penalty for the 16-node fits (cross validation over 16 nodes
#: costs about ten seconds per job, too long to sample within a run)
GRAPH_LAMBDA = 0.08
#: nodes of the cross-validated ``detect_cv`` job
CV_NODES = 6
#: graph-16 precision: a chain plus cross edges drawn once from this seed,
#: so seeds vary the sample while the true graph stays fixed. With this
#: topology the blocking set has 2 or 3 nodes and branch and bound explores
#: up to 10 nodes (seeds 0-11: 185-2009 paths, none below the caps)
GRAPH_TOPOLOGY_SEED = 8
CHAIN_STRENGTH = 0.45
CROSS_EDGES = 16
CROSS_STRENGTH = (0.30, 0.45)
#: fixed cross edges at the outcome n00, so that it is not a chain end
#: with a single neighbour and the smallest separating set is not {n01}
OUTCOME_EDGES = ((0, 6), (0, 10))

_STREAM = {"cells-5k": 1, "rows-10k": 2, "graph-16": 3}


@dataclass
class Inputs:
    """Files written for one workload plus what the oracle checks against."""

    workload: str
    seed: int
    root: Path
    configs: dict[str, str]  # job -> config path
    shape: dict[str, int]
    design: np.ndarray | None = None  # (n, p) benchmark's own expansion
    targets: np.ndarray | None = None  # (p,)
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    b_star: float | None = None

    @property
    def jobs(self) -> tuple[str, ...]:
        return JOBS[self.workload]

    def save(self) -> None:
        arrays = {
            k: getattr(self, k)
            for k in ("design", "targets", "y", "v")
            if getattr(self, k) is not None
        }
        np.savez(self.root / "truth.npz", **arrays)
        meta = {
            "workload": self.workload,
            "seed": self.seed,
            "configs": self.configs,
            "shape": self.shape,
            "b_star": self.b_star,
        }
        (self.root / "inputs.json").write_text(json.dumps(meta, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "Inputs":
        path = Path(path)
        meta = json.loads(path.read_text())
        with np.load(path.parent / "truth.npz") as npz:
            arrays = {k: npz[k] for k in npz.files}
        return cls(
            workload=meta["workload"],
            seed=meta["seed"],
            root=path.parent,
            configs=meta["configs"],
            shape=meta["shape"],
            b_star=meta["b_star"],
            **arrays,
        )


def subcommand(job: str) -> str:
    """The CLI subcommand a job runs."""
    return _SUBCOMMAND.get(job, job)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


def _num(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def _write_config(root: Path, job: str, config: dict) -> str:
    path = root / f"{job}.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return str(path)


def _distinct_rows(matrix: np.ndarray) -> int:
    return int(np.unique(matrix, axis=0).shape[0])


def cells(seed: int, root: Path, *, population: int, draws: int) -> Inputs:
    rng = _rng("cells-5k", seed)
    cell_x = np.array(
        [(a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)]
    )
    probs = np.array([0.16, 0.12, 0.14, 0.10, 0.13, 0.11, 0.12, 0.12])
    probs = probs / probs.sum()
    prevalence = 0.25 + cell_x @ np.array([0.30, 0.15, -0.10])

    cell = rng.choice(8, size=population, p=probs)
    x = cell_x[cell]
    u = (rng.random(population) < prevalence[cell]).astype(np.float64)
    y = 1.0 + x @ np.array([1.0, -0.8, 0.6]) + 1.4 * u + rng.standard_normal(population)
    logit = -3.66 + x @ np.array([0.55, -0.40, 0.30]) + 0.85 * u
    picked = rng.random(population) < 1.0 / (1.0 + np.exp(-logit))

    xs, us, ys = x[picked], u[picked], y[picked]
    n = ys.shape[0]
    v = xs[:, 0] * (rng.random(n) < 0.35 + 0.30 * us)
    targets = x.mean(axis=0)
    names = ["x1", "x2", "x3"]

    _write_csv(
        root / "survey.csv",
        names + ["y", "v"],
        [[str(int(c)) for c in xs[:, k]] for k in range(3)]
        + [[_num(c) for c in ys], [str(int(c)) for c in v]],
    )
    (root / "margins.csv").write_text(
        "variable,level,value\n"
        + "".join(f"{name},1,{_num(t)}\n" for name, t in zip(names, targets))
    )
    b_star = float(y.mean())
    common = {
        "survey": "survey.csv",
        "margins": "margins.csv",
        "columns": {**{k: "binary" for k in names}, "y": "continuous", "v": "binary"},
        "outcome": "y",
        "weighting": {"variables": names},
        "b_star": b_star,
        "seed": 0,
    }
    configs = {
        "summary": _write_config(
            root,
            "summary",
            {**common, "detection": {"sampling_set": names, "lambda": GRAPH_LAMBDA}},
        ),
        "bootstrap": _write_config(root, "bootstrap", {**common, "bootstrap": {"draws": draws}}),
        "partial": _write_config(
            root, "partial", {**common, "sweep": {"variable": "v", "grid": CELLS_SWEEP}}
        ),
    }
    shape = {
        "rows": n,
        "design_cols": 3,
        "design_cells": _distinct_rows(xs),
        "grid_points": len(CELLS_SWEEP),
        "nodes": 5,
    }
    return Inputs(
        "cells-5k", seed, root, configs, shape,
        design=xs, targets=targets, y=ys, v=v, b_star=b_star,
    )


def _rows_design(region: np.ndarray, age, x1, x2) -> np.ndarray:
    """Program's expansion: region=r2..r8, age, x1, x2, region=rK:x1."""
    dummies = np.column_stack([(region == k).astype(np.float64) for k in range(1, 8)])
    return np.column_stack([dummies, age, x1, x2, dummies * x1[:, None]])


def rows(seed: int, root: Path, *, respondents: int, population: int, draws: int) -> Inputs:
    rng = _rng("rows-10k", seed)
    share = np.array([0.20, 0.16, 0.14, 0.12, 0.11, 0.10, 0.09, 0.08])
    region = rng.choice(8, size=population, p=share)
    age = 18.0 + 67.0 * rng.beta(2.0, 2.6, size=population)
    p1 = np.clip(0.30 + 0.04 * region + 0.003 * (age - 45.0), 0.05, 0.95)
    x1 = (rng.random(population) < p1).astype(np.float64)
    x2 = (rng.random(population) < 0.45 - 0.02 * region + 0.20 * x1).astype(np.float64)
    y = (
        2.0 + 0.15 * region + 0.02 * age + 0.8 * x1 - 0.5 * x2
        + rng.standard_normal(population)
    )
    # Gumbel top-k: sampling without replacement proportional to exp(tilt)
    tilt = -0.12 * region + 0.015 * (age - 45.0) + 0.5 * x1 - 0.3 * x2 + 0.25 * (y - y.mean())
    keys = tilt + rng.gumbel(size=population)
    picked = np.sort(np.argpartition(-keys, respondents)[:respondents])
    n = respondents
    base = np.exp(0.12 * region[picked] + 0.25 * rng.standard_normal(n))
    v = (
        rng.random(n) < 0.25 + 0.25 * x1[picked] + 0.10 * (y[picked] > y.mean())
    ).astype(np.float64)

    levels = np.array([f"r{k + 1}" for k in range(8)])
    _write_csv(
        root / "population.csv",
        ["region", "age", "x1", "x2"],
        [levels[region].tolist(), [_num(a) for a in age],
         [str(int(c)) for c in x1], [str(int(c)) for c in x2]],
    )
    _write_csv(
        root / "survey.csv",
        ["region", "age", "x1", "x2", "bw", "y", "v"],
        [levels[region[picked]].tolist(), [_num(a) for a in age[picked]],
         [str(int(c)) for c in x1[picked]], [str(int(c)) for c in x2[picked]],
         [_num(b) for b in base], [_num(c) for c in y[picked]],
         [str(int(c)) for c in v]],
    )
    design = _rows_design(region[picked], age[picked], x1[picked], x2[picked])
    targets = _rows_design(region, age, x1, x2).mean(axis=0)
    b_star = float(y.mean())
    common = {
        "survey": "survey.csv",
        "population": "population.csv",
        "columns": {
            "region": "categorical", "age": "continuous", "x1": "binary",
            "x2": "binary", "bw": "continuous", "y": "continuous", "v": "binary",
        },
        "outcome": "y",
        "weighting": {
            "variables": ["region", "age", "x1", "x2"],
            "interactions": [["region", "x1"]],
            "base_weight": "bw",
        },
        "b_star": b_star,
        "seed": 0,
    }
    configs = {
        "summary": _write_config(
            root, "summary", {**common, "sweep": {"variable": "v", "grid": ROWS_SWEEP}}
        ),
        "bootstrap": _write_config(root, "bootstrap", {**common, "bootstrap": {"draws": draws}}),
    }
    shape = {
        "rows": n,
        "design_cols": design.shape[1],
        "design_cells": _distinct_rows(design),
        "grid_points": len(ROWS_SWEEP),
        "nodes": 0,
    }
    return Inputs(
        "rows-10k", seed, root, configs, shape,
        design=design, targets=targets, y=y[picked], v=v, b_star=b_star,
    )


def graph(seed: int, root: Path, *, rows: int) -> Inputs:
    rng = _rng("graph-16", seed)
    q = 16
    precision = np.zeros((q, q))
    for i in range(q - 1):
        precision[i, i + 1] = precision[i + 1, i] = -CHAIN_STRENGTH
    topology = _rng("graph-16", GRAPH_TOPOLOGY_SEED)
    pairs = [(i, j) for i in range(q) for j in range(i + 2, q)]
    for k in topology.choice(len(pairs), size=CROSS_EDGES, replace=False):
        i, j = pairs[k]
        precision[i, j] = precision[j, i] = (
            topology.choice([-1.0, 1.0]) * topology.uniform(*CROSS_STRENGTH)
        )
    for i, j in OUTCOME_EDGES:
        precision[i, j] = precision[j, i] = -max(CROSS_STRENGTH)
    # diagonal dominance keeps the precision positive definite
    np.fill_diagonal(precision, 1.0 + np.abs(precision).sum(axis=1))
    chol = np.linalg.cholesky(np.linalg.inv(precision))
    z = rng.standard_normal((rows, q)) @ chol.T

    names = [f"n{i:02d}" for i in range(q)]
    kinds = {name: "continuous" for name in names}
    cells = [[_num(c) for c in z[:, i]] for i in range(q)]
    for i in (3, 5, 7, 9, 11):
        kinds[names[i]] = "binary"
        cells[i] = [str(int(c > 0.0)) for c in z[:, i]]
    cuts = np.quantile(z[:, 13], [1.0 / 3.0, 2.0 / 3.0])
    kinds[names[13]] = "categorical"
    cells[13] = [("low", "mid", "high")[k] for k in np.searchsorted(cuts, z[:, 13])]
    _write_csv(root / "survey.csv", names, cells)
    # detect reads no target, but every config names one
    (root / "margins.csv").write_text(f"variable,level,value\nn01,,{_num(z[:, 1].mean())}\n")

    sampling = names[-3:]
    partial = [names[-2]]
    config = {
        "survey": "survey.csv",
        "margins": "margins.csv",
        "columns": kinds,
        "outcome": names[0],
        "weighting": {"variables": [names[1]]},
        "detection": {"sampling_set": sampling, "partial": partial, "lambda": GRAPH_LAMBDA},
        "seed": 0,
    }
    small = names[:CV_NODES]
    cv_config = {
        **config,
        "columns": {name: kinds[name] for name in small},
        "weighting": {"variables": [small[1]]},
        "detection": {"sampling_set": small[-2:], "lambda": "cv"},
    }
    configs = {
        "detect": _write_config(root, "detect", config),
        "detect_cv": _write_config(root, "detect_cv", cv_config),
    }
    shape = {"rows": rows, "design_cols": 0, "design_cells": 0, "grid_points": 0, "nodes": q}
    return Inputs("graph-16", seed, root, configs, shape)


_GENERATORS = {"cells-5k": cells, "rows-10k": rows, "graph-16": graph}


def generate(workload: str, seed: int, root: Path, sizes: dict | None = None) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    size = SIZES[workload] if sizes is None else sizes
    inputs = _GENERATORS[workload](seed, root, **size)
    inputs.save()
    return inputs
