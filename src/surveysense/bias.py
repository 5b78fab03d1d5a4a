"""Weighting-error decomposition and the closed-form bias of a weighted mean.

The error vector eps = w - w_ideal splits the gap between an estimable
weighting scheme and the ideal one. Its alignment with the outcome
(rho = cor(eps, Y)) and its relative scale (R2 = var(eps) / var(w_ideal))
determine the bias of the weighted estimator exactly:

    bias = rho * sqrt(var(Y) * var(w) * R2 / (1 - R2))        for R2 < 1

where every variance is over the observed sample with the population
(denominator n) convention. At R2 = 1 the bias is rho * sqrt(var(Y) *
var(w_ideal)), which the estimable scale cannot give, so ``bias`` refuses
it. The covariance form cov(eps, Y) equals the formula whenever w is the
projection of w_ideal onto the weighting features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SensitivityParams",
    "ObservedScale",
    "pop_var",
    "pop_cov",
    "pop_cor",
    "error_vector",
    "bias",
    "adjusted_estimate",
    "ipw_error",
]


def pop_var(x: np.ndarray) -> float:
    """Variance with denominator n."""
    return float(np.var(np.asarray(x, dtype=np.float64)))


def pop_cov(x: np.ndarray, y: np.ndarray) -> float:
    """Covariance with denominator n."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean((x - x.mean()) * (y - y.mean())))


def pop_cor(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; raises on zero variance."""
    vx = pop_var(x)
    vy = pop_var(y)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    return pop_cov(x, y) / math.sqrt(vx * vy)


@dataclass(frozen=True)
class SensitivityParams:
    """Sensitivity point (rho, R2): error-outcome correlation and the
    error share of the ideal-weight variance."""

    rho: float
    r2: float

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 <= self.r2 <= 1.0:
            raise ValueError(f"r2 must lie in [0, 1], got {self.r2}")


@dataclass(frozen=True)
class ObservedScale:
    """Estimable scale terms: sample variances of the outcome and of the
    weights, plus the weighted point estimate they belong to."""

    var_y: float
    var_w: float
    mu_hat: float

    def __post_init__(self):
        if self.var_y < 0 or self.var_w < 0:
            raise ValueError("variances must be nonnegative")

    @classmethod
    def from_sample(cls, y: np.ndarray, w: np.ndarray) -> "ObservedScale":
        from .calibrate import weighted_mean

        return cls(var_y=pop_var(y), var_w=pop_var(w), mu_hat=weighted_mean(y, w))


def error_vector(w: np.ndarray, w_ideal: np.ndarray) -> np.ndarray:
    """eps = w - w_ideal for two mean-1 weight vectors of equal length."""
    w = np.asarray(w, dtype=np.float64)
    w_ideal = np.asarray(w_ideal, dtype=np.float64)
    if w.shape != w_ideal.shape:
        raise ValueError("weight vectors differ in length")
    for name, vec in (("w", w), ("w_ideal", w_ideal)):
        if abs(vec.mean() - 1.0) > 1e-8:
            raise ValueError(f"{name} is not normalized to mean 1 (mean {vec.mean():.3g})")
    eps = w - w_ideal
    assert abs(eps.mean()) < 1e-10
    return eps


def bias(params: SensitivityParams, scale: ObservedScale) -> float:
    """Bias of the weighted mean at a sensitivity point with R2 < 1.

    At the boundary R2 = 1 (weights capture none of the ideal variation) the
    bias needs var(w_ideal), and this raises ``ValueError``.
    """
    if params.r2 == 1.0:
        raise ValueError("the bias at R2 = 1 needs var(w_ideal)")
    return params.rho * math.sqrt(
        scale.var_y * scale.var_w * params.r2 / (1.0 - params.r2)
    )


def adjusted_estimate(params: SensitivityParams, scale: ObservedScale) -> float:
    """Point estimate after removing the bias implied by ``params``."""
    return scale.mu_hat - bias(params, scale)


def ipw_error(
    w: np.ndarray,
    p_confounder_given_x: np.ndarray,
    p_confounder_given_x_sampled: np.ndarray,
) -> np.ndarray:
    """Exact error of inverse-probability weights that omit a confounder.

    Arguments are per-unit probabilities of the unit's realized confounder
    value, conditional on the weighting features alone and additionally on
    selection. Both must lie in (0, 1].

    eps_i = w_i * (1 - p(U_i | f(X_i)) / p(U_i | f(X_i), sampled))
    """
    w = np.asarray(w, dtype=np.float64)
    num = np.asarray(p_confounder_given_x, dtype=np.float64)
    den = np.asarray(p_confounder_given_x_sampled, dtype=np.float64)
    if not (w.shape == num.shape == den.shape):
        raise ValueError("inputs differ in length")
    for name, vec in (("p_confounder_given_x", num), ("p_confounder_given_x_sampled", den)):
        if np.any(~np.isfinite(vec)) or np.any(vec <= 0.0) or np.any(vec > 1.0):
            raise ValueError(f"{name} must lie in (0, 1]")
    return w * (1.0 - num / den)
