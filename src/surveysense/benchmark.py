"""Leave-one-covariate-out benchmarking of weighting error.

Dropping a covariate from the calibration and re-solving yields an error
vector eps_j = w_without_j - w whose strength is a yardstick: an omitted
confounder "as strong as" covariate j would have R2 and rho near the
benchmarked values

    R2_j  = v_j / (1 + v_j),  v_j = var(eps_j) / var(w)
    rho_j = cor(eps_j, Y)

with implied bias from the closed form (equivalently cov(eps_j, Y)). The
minimum relative confounder strength (MRCS) is the multiple of that
implied bias needed to reach a threshold b_star.

A left-out covariate is a column mask, not a new problem: every
leave-one-out solve goes through ``calibrate.solve_many`` on the
calibration's own rows, one stack for the whole table, warm-started from
the baseline dual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .bias import ObservedScale, SensitivityParams, bias, error_vector, pop_cor, pop_var
from .calibrate import CalibrationProblem, WeightVector, solve_many, weighted_mean
from .errors import InfeasibleTargetsError

logger = logging.getLogger(__name__)

__all__ = [
    "BenchmarkRecord",
    "loo_weights",
    "benchmark",
    "benchmark_table",
    "mrcs",
    "scaled_params",
    "min_k",
]


@dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark row: parameters of the error from dropping ``label``."""

    label: str
    r2_raw: float  # var(eps_j) / var(w), unbounded above
    r2: float  # transformed to [0, 1)
    rho: float
    est_bias: float
    mrcs: float | None = None  # inf when est_bias is 0
    rho_defined: bool = True
    converged: bool = True


def scaled_params(
    k_sigma: float, k_rho: float, r2_raw: float, rho_loo: float
) -> tuple[float, float]:
    """Sensitivity point for a confounder k times the benchmark strength.

    R2 = k_sigma v / (1 + k_sigma v) and rho = k_rho rho_loo; (1, 1)
    reproduces the benchmark's own coordinates exactly.
    """
    if k_sigma < 0:
        raise ValueError("k_sigma must be nonnegative")
    if r2_raw < 0:
        raise ValueError("r2_raw must be nonnegative")
    scaled = k_sigma * r2_raw
    r2 = scaled / (1.0 + scaled)
    rho = k_rho * rho_loo
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"scaled rho {rho:.4g} falls outside [-1, 1]")
    return r2, rho


def min_k(
    r2_raw: float, rho_loo: float, rv: float, *, direction: float = 1.0
) -> tuple[float, float]:
    """Smallest (k_sigma, k_rho) multiples of a benchmark that reach the
    robustness value.

    Solves k_sigma v / (1 + k_sigma v) = RV and (k_rho rho_loo)^2 = RV;
    ``direction`` carries sign(mu_hat - b_star) so the implied rho points
    toward the threshold.
    """
    if not 0.0 < rv < 1.0:
        raise ValueError("rv must lie in (0, 1)")
    if r2_raw <= 0.0:
        raise ValueError("benchmark r2_raw must be positive")
    if rho_loo == 0.0:
        raise ValueError("benchmark rho is zero; no scaling reaches the threshold")
    k_sigma = rv / ((1.0 - rv) * r2_raw)
    k_rho = math.copysign(1.0, direction) * math.sqrt(rv) / rho_loo
    return k_sigma, k_rho


def mrcs(mu_hat: float, b_star: float, est_bias: float) -> float:
    """Minimum relative confounder strength (mu_hat - b_star) / est_bias.

    Returns inf when the benchmark moved the estimate by exactly zero.
    """
    if est_bias == 0.0:
        return math.inf
    return (mu_hat - b_star) / est_bias


def _held_out(
    problem: CalibrationProblem,
    covariates: tuple[str, ...],
    baseline: WeightVector,
) -> list[WeightVector]:
    """Re-solve the calibration once per covariate, without every column
    sourced from it: one stack on the problem's rows, a column mask per
    covariate. Raises the first covariate's ``InfeasibleTargetsError``, in
    order."""
    known = set().union(*(problem.sources_for(j) for j in range(problem.p)))
    unknown = sorted(set(covariates) - known)
    if unknown:
        raise ValueError(f"{unknown} not among the enforced weighting variables {sorted(known)}")
    keep = [[c not in problem.sources_for(j) for j in range(problem.p)] for c in covariates]
    outcomes = solve_many(
        problem,
        warm_start=baseline.dual_for(problem.column_names),
        columns=np.array(keep, dtype=bool).reshape(len(covariates), problem.p),
    )
    for outcome in outcomes:
        if isinstance(outcome, InfeasibleTargetsError):
            raise outcome
    return outcomes


def loo_weights(
    problem: CalibrationProblem, covariate: str, *, baseline: WeightVector
) -> WeightVector:
    """Re-solve the calibration without every column sourced from ``covariate``,
    warm-started from the ``baseline`` solution's tilt.

    Interaction columns count as sourced from each participating variable.
    Dropping the only constraint returns the normalized base weights (the
    entropy optimum of the unconstrained problem).
    """
    return _held_out(problem, (covariate,), baseline)[0]


def benchmark(
    w: np.ndarray, w_loo: np.ndarray, y: np.ndarray, *, label: str = ""
) -> BenchmarkRecord:
    """Benchmark parameters from full and leave-out weight vectors."""
    eps = error_vector(w_loo, w)
    var_w = pop_var(w)
    if var_w == 0.0:
        raise ValueError("full weights are constant; benchmark scale undefined")
    r2_raw = pop_var(eps) / var_w
    rho_defined = pop_var(eps) > 0.0 and pop_var(y) > 0.0
    rho = pop_cor(eps, y) if rho_defined else 0.0
    r2, rho = scaled_params(1.0, 1.0, r2_raw, rho)
    scale = ObservedScale(var_y=pop_var(y), var_w=var_w, mu_hat=weighted_mean(y, w))
    est = bias(SensitivityParams(rho=rho, r2=r2), scale)
    return BenchmarkRecord(
        label=label,
        r2_raw=r2_raw,
        r2=r2,
        rho=rho,
        est_bias=est,
        rho_defined=rho_defined,
    )


def benchmark_table(
    problem: CalibrationProblem,
    w: WeightVector,
    y: np.ndarray,
    covariates: tuple[str, ...],
    *,
    b_star: float | None = None,
) -> list[BenchmarkRecord]:
    """Benchmark each covariate in turn, in the order given."""
    mu_hat = weighted_mean(y, w.values)
    records = []
    for label, held in zip(covariates, _held_out(problem, covariates, w)):
        record = benchmark(w.values, held.values, y, label=label)
        record = replace(record, converged=held.diagnostics.converged)
        if b_star is not None:
            record = replace(record, mrcs=mrcs(mu_hat, b_star, record.est_bias))
        records.append(record)
    if stuck := [r.label for r in records if not r.converged]:
        logger.warning("leave-outs that did not converge: %s", ", ".join(stuck))
    return records
