"""Robustness value and the bias contour over the sensitivity plane.

The robustness value answers: how strong would the weighting error have to
be, with rho^2 = R2, to move the estimate from mu_hat to a substantive
threshold b_star? Writing a = (mu_hat - b_star)^2 / (var_Y var_w), it is

    RV = (sqrt(a^2 + 4a) - a) / 2

computed here in the cancellation-free form 2a / (sqrt(a^2 + 4a) + a). At
rho^2 = R2 = RV the implied bias equals mu_hat - b_star exactly.

The contour grid tabulates bias and the adjusted estimate over (rho, R2)
and marks the killer region, the set of sensitivity points that move the
adjusted estimate to b_star or past it. Its boundary is analytic:
R2(rho) = c / (1 + c) with c = (mu_hat - b_star)^2 / (rho^2 var_Y var_w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bias import ObservedScale

__all__ = [
    "RobustnessInput",
    "robustness_value",
    "ContourGrid",
    "contour_grid",
    "boundary_r2",
    "killer_region_area",
]

#: default grid: rho in [-1, 1] step 0.01, R2 in [0, 0.95] step 0.005
RHO_STEP = 0.01
R2_STEP = 0.005
R2_MAX = 0.95


@dataclass(frozen=True)
class RobustnessInput:
    mu_hat: float
    b_star: float
    var_y: float
    var_w: float

    def __post_init__(self):
        if self.var_y < 0 or self.var_w < 0:
            raise ValueError("variances must be nonnegative")


def robustness_value(inp: RobustnessInput) -> float:
    """Common strength rho^2 = R2 at which the bias reaches mu_hat - b_star.

    Returns a value in [0, 1]: 0 when the estimate already sits on the
    threshold, and exactly 1.0 only once a passes about 1e16, where the value
    rounds up (``report.robustness_block`` refuses that). A zero variance
    product with a nonzero gap is an error (no finite strength can bridge
    the gap).
    """
    gap = inp.mu_hat - inp.b_star
    if gap == 0.0:
        return 0.0
    denom = inp.var_y * inp.var_w
    if denom == 0.0:
        raise ValueError("var_y * var_w is zero; the threshold is unreachable")
    a = gap * gap / denom
    return 2.0 * a / (math.sqrt(a * a + 4.0 * a) + a)


def boundary_r2(rho: np.ndarray, scale: ObservedScale, b_star: float) -> np.ndarray:
    """Killer-region boundary R2(rho); 1.0 marks the unreachable asymptote.

    The curve is symmetric in rho, but crossing the threshold also needs
    sign(rho) = sign(mu_hat - b_star); the mask, not the curve, carries
    that one-sidedness.
    """
    rho = np.asarray(rho, dtype=np.float64)
    gap = scale.mu_hat - b_star
    if gap == 0.0:
        return np.zeros_like(rho)
    denom = scale.var_y * scale.var_w
    if denom == 0.0:
        raise ValueError("var_y * var_w is zero; boundary undefined")
    # c/(1+c) with c = gap^2/(rho^2 denom); this form stays finite at rho = 0
    gap_sq = gap * gap
    return gap_sq / (gap_sq + np.square(rho) * denom)


@dataclass(frozen=True)
class ContourGrid:
    """Bias surface over the sensitivity plane.

    ``bias`` and ``killer_mask`` are indexed [i, j] for
    (rho_axis[i], r2_axis[j]). ``benchmark_points`` holds (label, rho, r2)
    triples for annotation; filling it is the caller's job.
    """

    rho_axis: np.ndarray
    r2_axis: np.ndarray
    bias: np.ndarray
    adjusted: np.ndarray
    killer_mask: np.ndarray
    boundary: np.ndarray  # R2(rho) along rho_axis
    scale: ObservedScale
    b_star: float
    benchmark_points: tuple[tuple[str, float, float], ...] = field(default=())


def contour_grid(
    scale: ObservedScale,
    b_star: float,
    *,
    rho_step: float = RHO_STEP,
    r2_step: float = R2_STEP,
    r2_max: float = R2_MAX,
) -> ContourGrid:
    """Tabulate bias, adjusted estimate, and the killer region.

    A node is in the killer region when the adjusted estimate lands on
    b_star or on the far side of it from mu_hat; nodes that push the
    estimate away from the threshold are not killers, so the region is
    one-sided in rho.
    """
    if not 0.0 < r2_max < 1.0:
        raise ValueError("r2_max must lie in (0, 1)")
    n_rho = int(round(2.0 / rho_step)) + 1
    n_r2 = int(round(r2_max / r2_step)) + 1
    if n_r2 < 2:
        raise ValueError("r2_max / r2_step must round to at least 1: a contour needs two R2 points")
    rho_axis = np.linspace(-1.0, 1.0, n_rho)
    r2_axis = np.linspace(0.0, r2_max, n_r2)

    amplitude = np.sqrt(scale.var_y * scale.var_w * r2_axis / (1.0 - r2_axis))
    bias_grid = rho_axis[:, None] * amplitude[None, :]
    adjusted = scale.mu_hat - bias_grid

    gap_sign = np.sign(scale.mu_hat - b_star)
    adj_sign = np.sign(adjusted - b_star)
    killer = (adj_sign != gap_sign) | (adjusted == b_star)

    return ContourGrid(
        rho_axis=rho_axis,
        r2_axis=r2_axis,
        bias=bias_grid,
        adjusted=adjusted,
        killer_mask=killer,
        boundary=boundary_r2(rho_axis, scale, b_star),
        scale=scale,
        b_star=b_star,
    )


def killer_region_area(grid: ContourGrid) -> float:
    """Fraction of grid nodes inside the killer region."""
    return float(grid.killer_mask.mean())
