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
number of cells rather than the number of rows. A draw keeps only its
cell sums (counts, base mass, sums of q*y and q^2) and the variance of
its resampled outcome, never a row-length array. Draws are solved
together by ``calibrate.solve_many``, in chunks of ``batch_size`` draws,
so memory stays bounded by ``calibrate.BATCH_BYTES``.
"""

from __future__ import annotations

import contextvars
import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bias import ObservedScale, SensitivityParams, bias
from .calibrate import (
    FAILURE_REASONS,
    CalibrationProblem,
    WeightVector,
    batch_size,
    failure_reason,
    solve_many,
    solve_raking,
    weighted_mean,
)
from .data import design_cells
from .errors import SurveySenseError
from .simulate import STAGE_BOOTSTRAP, stream

__all__ = ["BootstrapResult", "bootstrap_interval"]

MIN_REPORTABLE_DRAWS = 100
MAX_DROP_FRACTION = 0.05

#: set while this context solves re-estimated draws: failed draws surface
#: through the dropped counts, and per-draw solver logs would swamp the
#: output at B = 1000
_IN_DRAWS = contextvars.ContextVar("surveysense_bootstrap_draws", default=False)


class _DrawLogFilter(logging.Filter):
    """Drops the solver's records below ERROR that are logged inside the
    draws; other threads and contexts log as usual."""

    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno >= logging.ERROR or not _IN_DRAWS.get()


logging.getLogger("surveysense.calibrate").addFilter(_DrawLogFilter())


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
    #: dropped draws by ``calibrate.FAILURE_REASONS`` key; sums to ``dropped``
    dropped_by_reason: dict[str, int]

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
    infeasible under the resample) are dropped and counted by reason,
    erroring past a 5% drop rate. With ``reestimate`` off, baseline
    weights ride along with the resampled rows and the bias term uses
    the baseline scale.
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

    if reestimate:
        token = _IN_DRAWS.set(True)
        try:
            kept, dropped_by_reason = _reestimated_draws(
                problem, y, params, b, seed, baseline.dual_for(problem.column_names)
            )
        finally:
            _IN_DRAWS.reset(token)
    else:
        n = problem.n
        shift = bias(params, ObservedScale.from_sample(y, baseline.values))
        kept = []
        dropped_by_reason = dict.fromkeys(FAILURE_REASONS, 0)
        for index in range(b):
            rows = stream(seed, index, STAGE_BOOTSTRAP).integers(0, n, size=n)
            kept.append(weighted_mean(y[rows], baseline.values[rows]) - shift)

    kept = np.asarray(kept, dtype=np.float64)
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
        dropped_by_reason=dropped_by_reason,
    )


def _reestimated_draws(
    problem: CalibrationProblem,
    y: np.ndarray,
    params: SensitivityParams,
    b: int,
    seed: int,
    warm: np.ndarray,
) -> tuple[list[float], dict[str, int]]:
    """Adjusted estimates of the draws whose re-solve converged, in draw
    order, and the other draws counted by reason."""
    n = problem.n
    q = problem.base_weights
    cells, cell_of_row = design_cells(problem.matrix)
    n_cells = cells.shape[0]
    design = replace(problem, matrix=cells, base_weights=None, row_counts=None)
    chunk = batch_size(n_cells, problem.p)
    kept = []
    dropped_by_reason = dict.fromkeys(FAILURE_REASONS, 0)
    for start in range(0, b, chunk):
        draws = range(start, min(b, start + chunk))
        counts = np.empty((len(draws), n_cells))
        var_y = np.empty(len(draws))
        # per-cell sums of the base weight q, of q*y and of q^2
        sums = np.empty((3, len(draws), n_cells))
        for row, index in enumerate(draws):
            rows = stream(seed, index, STAGE_BOOTSTRAP).integers(0, n, size=n)
            at = cell_of_row[rows]
            yb = y[rows]
            counts[row] = np.bincount(at, minlength=n_cells)
            if q is None:
                sums[0, row] = sums[2, row] = counts[row]
                sums[1, row] = np.bincount(at, weights=yb, minlength=n_cells)
            else:
                qb = q[rows]
                for stat, values in zip(sums, (qb, qb * yb, qb * qb)):
                    stat[row] = np.bincount(at, weights=values, minlength=n_cells)
            centered = yb - yb.mean()
            var_y[row] = centered @ centered / n
        mass, qy, q2 = sums
        outcomes = solve_many(design, base_weights=mass, row_counts=counts, warm_start=warm)
        for row, outcome in enumerate(outcomes):
            own = counts[row] > 0
            reason = failure_reason(outcome, cells[own], counts[row, own])
            if reason is not None:
                dropped_by_reason[reason] += 1
                continue
            # a row's weight is its cell's weight shared in proportion to
            # base mass: w_i = share[cell(i)] * q_i, summing to n
            share = outcome.values * (n / own.sum()) / mass[row, own]
            total = share @ mass[row, own]
            var_w = max(share**2 @ q2[row, own] / n - (total / n) ** 2, 0.0)
            scale = ObservedScale(
                var_y=var_y[row], var_w=var_w, mu_hat=share @ qy[row, own] / total
            )
            kept.append(scale.mu_hat - bias(params, scale))
    return kept, dropped_by_reason
