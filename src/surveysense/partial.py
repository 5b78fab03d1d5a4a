"""Sensitivity sweep for a variable observed in the survey but not the target.

A partially observed variable V cannot enter the calibration because its
population margin is unknown. The sweep posits a grid of margins T_V, adds
the matching constraint, re-solves from the baseline tilt, and records the
estimate at every point. Posited margins outside the achievable range are
flagged, not dropped, so the curve keeps its x axis. The grid is solved by
``calibrate.solve_many`` on the distinct rows of the augmented design
[X | v], each carrying its respondents' base mass and count, so a point
costs the number of cells rather than the number of rows, and proving a
point infeasible runs the phase-1 program on the cells.

``partial_ipw_error`` gives the exact weighting error implied by posited
conditional means of a binary V inside discrete feature strata, which feeds
the covariance form of the bias.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bias import ipw_error
from .calibrate import (
    CalibrationProblem,
    WeightVector,
    design_cells,
    solve_many,
    weighted_mean,
    weighted_se,
)
from .errors import InfeasibleTargetsError

logger = logging.getLogger(__name__)

__all__ = [
    "SweepPoint",
    "PartialSweep",
    "partial_sweep",
    "binary_grid",
    "standardized_grid",
    "partial_ipw_error",
]

#: offsets (in sample standard deviations) for continuous sweep grids
SD_OFFSETS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class SweepPoint:
    t_v: float
    estimate: float  # nan when not solvable
    se: float
    feasible: bool
    converged: bool
    is_baseline: bool = False


@dataclass(frozen=True)
class PartialSweep:
    label: str
    points: tuple[SweepPoint, ...]
    baseline_t: float  # weighted mean of V under the baseline weights
    baseline_estimate: float


def binary_grid(step: float = 0.01) -> np.ndarray:
    """Interior grid of binary shares, 0 and 1 excluded."""
    n = int(round(1.0 / step))
    return np.round(np.arange(1, n) * step, 12)


def standardized_grid(v: np.ndarray) -> np.ndarray:
    """Sample mean plus and minus multiples of the sample sd, trimmed to the
    open achievable interval. Logs how many offsets fell outside."""
    v = np.asarray(v, dtype=np.float64)
    center = float(v.mean())
    sd = float(v.std())
    raw = sorted({center + s * m for m in SD_OFFSETS for s in (-1.0, 1.0)})
    lo, hi = float(v.min()), float(v.max())
    grid = [g for g in raw if lo < g < hi]
    if len(grid) < len(raw):
        logger.info(
            "standardized grid: trimmed %d of %d offsets outside (%g, %g)",
            len(raw) - len(grid), len(raw), lo, hi,
        )
    return np.asarray(grid)


def partial_sweep(
    problem: CalibrationProblem,
    v: np.ndarray,
    y: np.ndarray,
    *,
    baseline: WeightVector,
    label: str = "V",
    grid: np.ndarray | None = None,
) -> PartialSweep:
    """Estimate the outcome under each posited margin for ``v``.

    Parameters
    ----------
    problem : CalibrationProblem
        The baseline calibration, without any constraint on ``v``.
    v : array
        Values of the partially observed variable, one per respondent.
    grid : array, optional
        Posited margins. Defaults to the interior 0.01 grid for a 0/1
        variable and to the standardized-offset grid otherwise. The
        baseline margin is always inserted so the curve passes through
        the unaugmented solution.
    baseline : WeightVector
        The solved baseline. Its tilt warm-starts every grid point.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != problem.n:
        raise ValueError("v length differs from design rows")
    if label in {s for j in range(problem.p) for s in problem.sources_for(j)}:
        raise ValueError(
            f"{label!r} is already a weighting variable; a sweep applies only "
            "to variables missing from the target"
        )
    if np.ptp(v) == 0.0:
        raise ValueError(f"{label!r} is constant; nothing to sweep")

    baseline_t = weighted_mean(v, baseline.values)
    baseline_mu = weighted_mean(y, baseline.values)

    if grid is None:
        is_binary = bool(np.all(np.isin(v, (0.0, 1.0))))
        grid = binary_grid() if is_binary else standardized_grid(v)
    grid = np.unique(np.concatenate([np.asarray(grid, dtype=np.float64), [baseline_t]]))

    # the augmented design [X | v] on its distinct rows, each carrying the
    # base mass and count of the respondents it stands for
    q = problem.base_weights if problem.base_weights is not None else np.ones(problem.n)
    cells, cell_of_row = design_cells(np.column_stack([problem.matrix, v]))
    mass = np.bincount(cell_of_row, weights=q)
    counts = np.bincount(cell_of_row).astype(np.float64)
    augmented = CalibrationProblem(
        cells, np.append(problem.targets, baseline_t), column_names=problem.column_names + (label,)
    )
    targets = np.column_stack([np.tile(problem.targets, (grid.size, 1)), grid])
    warm = np.append(baseline.dual_for(problem.column_names), 0.0)
    outcomes = solve_many(augmented, targets, mass, counts, warm_start=warm)
    if cut := {name for outcome in outcomes for name in outcome.dropped_columns}:
        logger.warning("sweep of %r: dropping dependent constraint columns: %s",
                       label, ", ".join(sorted(cut, key=augmented.column_names.index)))

    points = []
    for t_v, outcome in zip(grid, outcomes):
        is_baseline = bool(t_v == baseline_t)
        if isinstance(outcome, InfeasibleTargetsError):
            points.append(
                SweepPoint(
                    t_v=float(t_v), estimate=float("nan"), se=float("nan"),
                    feasible=False, converged=False, is_baseline=is_baseline,
                )
            )
            continue
        # a respondent's weight is its cell's weight shared in proportion to
        # base mass; the estimate and its SE do not depend on the scale
        w = (outcome.values / mass)[cell_of_row] * q
        points.append(
            SweepPoint(
                t_v=float(t_v),
                estimate=weighted_mean(y, w),
                se=weighted_se(y, w),
                feasible=True,
                converged=outcome.diagnostics.converged,
                is_baseline=is_baseline,
            )
        )
    return PartialSweep(
        label=label,
        points=tuple(points),
        baseline_t=float(baseline_t),
        baseline_estimate=float(baseline_mu),
    )


def partial_ipw_error(
    w: np.ndarray,
    v: np.ndarray,
    strata: np.ndarray,
    posited_means: dict,
) -> np.ndarray:
    """Weighting error implied by posited population means of a binary V.

    ``posited_means`` maps stratum label to the posited E(V | stratum);
    sample conditional means come from the respondents themselves. Each
    unit contributes the probability ratio of its realized V value, so for
    v_i = 0 the complement ratio applies. Strata whose posited mass has no
    sampled support raise.
    """
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    strata = np.asarray(strata)
    if not (w.shape == v.shape == strata.shape):
        raise ValueError("inputs differ in length")
    if not np.all(np.isin(v, (0.0, 1.0))):
        raise ValueError("v must be binary 0/1")

    num = np.empty_like(w)
    den = np.empty_like(w)
    for stratum in np.unique(strata):
        inside = strata == stratum
        key = stratum.item() if hasattr(stratum, "item") else stratum
        if key not in posited_means:
            raise ValueError(f"no posited mean for stratum {key!r}")
        posited = float(posited_means[key])
        if not 0.0 <= posited <= 1.0:
            raise ValueError(f"posited mean for stratum {key!r} outside [0, 1]")
        observed = float(v[inside].mean())
        if observed == 0.0 and posited > 0.0:
            raise ValueError(
                f"stratum {key!r}: no sampled unit has V = 1 but the posited "
                "mean puts mass there"
            )
        if observed == 1.0 and posited < 1.0:
            raise ValueError(
                f"stratum {key!r}: every sampled unit has V = 1 but the posited "
                "mean puts mass on V = 0"
            )
        if posited == 0.0 and np.any(v[inside] == 1.0):
            raise ValueError(
                f"stratum {key!r}: posited mean 0 contradicts sampled V = 1 units"
            )
        if posited == 1.0 and np.any(v[inside] == 0.0):
            raise ValueError(
                f"stratum {key!r}: posited mean 1 contradicts sampled V = 0 units"
            )
        ones = inside & (v == 1.0)
        zeros = inside & (v == 0.0)
        num[ones] = posited
        den[ones] = observed
        num[zeros] = 1.0 - posited
        den[zeros] = 1.0 - observed
    return ipw_error(w, num, den)
