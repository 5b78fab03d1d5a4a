"""Percentile-bootstrap intervals for the adjusted weighted estimate.

Rows are resampled with replacement, the calibration is re-solved per
draw against the fixed population targets, and each draw's estimate is
shifted by the posited-confounding bias at the stated sensitivity
parameters before taking empirical quantiles. A fixed-weight variant
skips the re-solve and keeps the baseline scale, making the adjustment
an exact additive shift of the unadjusted interval.

Each re-solve runs on the distinct design rows (cells) its resample
touches, with the resampled base mass of each cell as its base weight.
The dual sees only that mass, so this is exact, and a draw costs the
number of cells rather than the number of rows.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .bias import ObservedScale, SensitivityParams, bias
from .calibrate import (
    CalibrationProblem,
    WeightVector,
    solve_raking,
    weighted_mean,
)
from .errors import InfeasibleTargetsError, RankDeficiencyError, SurveySenseError
from .simulate import STAGE_BOOTSTRAP, stream

__all__ = ["BootstrapResult", "bootstrap_interval"]

MIN_REPORTABLE_DRAWS = 100
MAX_DROP_FRACTION = 0.05


@dataclass(frozen=True)
class BootstrapResult:
    lower: float
    upper: float
    draws: np.ndarray  # kept adjusted estimates, draw order
    dropped: int
    n_draws: int
    alpha: float
    params: SensitivityParams
    reestimate: bool

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def bootstrap_interval(
    problem: CalibrationProblem,
    y: np.ndarray,
    params: SensitivityParams,
    *,
    b: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
    reestimate: bool = True,
    baseline: WeightVector | None = None,
) -> BootstrapResult:
    """Percentile CI of the adjusted estimate at ``params``.

    Resampling unit is the respondent row; population targets stay
    fixed. Draws whose re-solve fails to converge (or becomes
    infeasible under the resample) are dropped, erroring past a 5%
    drop rate. With ``reestimate`` off, baseline weights ride along
    with the resampled rows and the bias term uses the baseline scale.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != problem.n:
        raise ValueError("outcome length differs from design rows")
    if b < 1:
        raise ValueError("need at least one bootstrap draw")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if b < MIN_REPORTABLE_DRAWS:
        warnings.warn(
            f"{b} draws is below the {MIN_REPORTABLE_DRAWS} needed for a "
            "reportable interval",
            stacklevel=2,
        )

    if baseline is None:
        baseline = solve_raking(problem)
        if not baseline.diagnostics.converged:
            raise SurveySenseError("baseline calibration did not converge")
    base_dual = baseline.dual
    n = problem.n
    base_weights = (
        problem.base_weights
        if problem.base_weights is not None
        else np.ones(n, dtype=np.float64)
    )

    if not reestimate:
        baseline_shift = bias(params, ObservedScale.from_sample(y, baseline.values))
    else:
        cells, cell_of_row = np.unique(problem.matrix, axis=0, return_inverse=True)
        cell_of_row = cell_of_row.reshape(-1)
        n_cells = cells.shape[0]

    def one_draw(index: int) -> float | None:
        rows = stream(seed, index, STAGE_BOOTSTRAP).integers(0, n, size=n)
        yb = y[rows]
        if not reestimate:
            return weighted_mean(yb, baseline.values[rows]) - baseline_shift
        row_cells = cell_of_row[rows]
        qb = base_weights[rows]
        counts = np.bincount(row_cells, minlength=n_cells)
        touched = np.flatnonzero(counts)
        mass = np.bincount(row_cells, weights=qb, minlength=n_cells)[touched]
        sub = CalibrationProblem(
            matrix=cells[touched],
            targets=problem.targets,
            column_names=problem.column_names,
            column_sources=problem.column_sources,
            base_weights=mass,
            tol=problem.tol,
            max_iter=problem.max_iter,
            row_counts=counts[touched],
        )
        try:
            wv = solve_raking(sub, warm_start=base_dual)
        except (InfeasibleTargetsError, RankDeficiencyError):
            return None
        if not wv.diagnostics.converged:
            return None
        # a row's weight is its cell's weight shared in proportion to base mass
        share = np.zeros(n_cells)
        share[touched] = wv.values * (n / touched.size) / mass
        scale = ObservedScale.from_sample(yb, share[row_cells] * qb)
        return scale.mu_hat - bias(params, scale)

    # failed draws surface through the dropped count; per-draw solver logs
    # would swamp the output at B = 1000
    solver_logger = logging.getLogger("surveysense.calibrate")
    previous_level = solver_logger.level
    solver_logger.setLevel(logging.ERROR)
    try:
        raw = [one_draw(i) for i in range(b)]
    finally:
        solver_logger.setLevel(previous_level)

    kept = np.array([v for v in raw if v is not None], dtype=np.float64)
    dropped = b - kept.shape[0]
    if dropped > MAX_DROP_FRACTION * b:
        raise SurveySenseError(
            f"{dropped} of {b} bootstrap draws failed to converge; "
            "the calibration is too fragile under resampling"
        )
    lower, upper = np.quantile(kept, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapResult(
        lower=float(lower),
        upper=float(upper),
        draws=kept,
        dropped=dropped,
        n_draws=b,
        alpha=alpha,
        params=params,
        reestimate=reestimate,
    )
