"""Robustness value, killer boundary, and the contour grid."""

import math

import numpy as np
import pytest

from surveysense import (
    ObservedScale,
    RobustnessInput,
    SensitivityParams,
    adjusted_estimate,
    bias,
    boundary_r2,
    contour_grid,
    killer_region_area,
    robustness_value,
)


def test_rv_frozen_value_at_unit_gap():
    # a = 1 gives RV = (sqrt(5) - 1) / 2
    rv = robustness_value(RobustnessInput(mu_hat=2.0, b_star=1.0, var_y=1.0, var_w=1.0))
    assert rv == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)


def test_rv_zero_when_estimate_on_threshold():
    inp = RobustnessInput(mu_hat=1.3, b_star=1.3, var_y=2.0, var_w=0.7)
    assert robustness_value(inp) == 0.0


def test_rv_monotone_in_gap():
    values = [
        robustness_value(RobustnessInput(mu_hat=g, b_star=0.0, var_y=1.0, var_w=1.0))
        for g in (0.1, 0.5, 2.0, 10.0)
    ]
    assert all(0.0 < v < 1.0 for v in values)
    assert values == sorted(values)


def test_rv_unreachable_threshold_rejected():
    with pytest.raises(ValueError, match="unreachable"):
        robustness_value(RobustnessInput(mu_hat=1.0, b_star=0.0, var_y=0.0, var_w=1.0))


def test_rv_closure_identity():
    """Adjusting at rho = sign(gap) sqrt(RV), R2 = RV lands on b_star."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        mu_hat, b_star = rng.normal(scale=3.0, size=2)
        scale = ObservedScale(
            var_y=rng.uniform(0.1, 4.0), var_w=rng.uniform(0.1, 4.0), mu_hat=mu_hat
        )
        rv = robustness_value(
            RobustnessInput(mu_hat, b_star, scale.var_y, scale.var_w)
        )
        rho = math.copysign(math.sqrt(rv), mu_hat - b_star)
        adjusted = adjusted_estimate(SensitivityParams(rho=rho, r2=rv), scale)
        assert adjusted == pytest.approx(b_star, rel=1e-10, abs=1e-10)


class TestBoundary:
    scale = ObservedScale(var_y=2.0, var_w=0.5, mu_hat=1.0)

    def test_finite_at_rho_zero(self):
        out = boundary_r2(np.array([0.0]), self.scale, 0.0)
        assert out[0] == 1.0

    def test_on_curve_bias_reaches_gap(self):
        rho = np.array([0.2, 0.5, 0.9])
        r2 = boundary_r2(rho, self.scale, 0.0)
        implied = rho * np.sqrt(self.scale.var_y * self.scale.var_w * r2 / (1 - r2))
        np.testing.assert_allclose(implied, 1.0, rtol=1e-12)

    def test_zero_gap_boundary_collapses(self):
        out = boundary_r2(np.array([-0.5, 0.0, 0.5]), self.scale, 1.0)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_symmetric_in_rho(self):
        left = boundary_r2(np.array([-0.3]), self.scale, 0.0)
        right = boundary_r2(np.array([0.3]), self.scale, 0.0)
        assert left[0] == right[0]


class TestContourGrid:
    @staticmethod
    def build(mu_hat=1.0, b_star=0.0):
        scale = ObservedScale(var_y=1.0, var_w=1.0, mu_hat=mu_hat)
        return contour_grid(scale, b_star, rho_step=0.25, r2_step=0.1, r2_max=0.9)

    def test_axes_and_shapes(self):
        grid = self.build()
        assert grid.rho_axis[0] == -1.0 and grid.rho_axis[-1] == 1.0
        assert grid.r2_axis[0] == 0.0 and grid.r2_axis[-1] == pytest.approx(0.9)
        assert grid.bias.shape == (len(grid.rho_axis), len(grid.r2_axis))
        assert grid.adjusted.shape == grid.bias.shape

    def test_bias_zero_along_both_axes(self):
        grid = self.build()
        i0 = np.where(grid.rho_axis == 0.0)[0][0]
        np.testing.assert_array_equal(grid.bias[i0, :], 0.0)
        np.testing.assert_array_equal(grid.bias[:, 0], 0.0)

    def test_killer_region_is_one_sided(self):
        grid = self.build()
        # mu_hat > b_star: only rho > 0 can pull the estimate down to b_star
        negative_side = grid.killer_mask[grid.rho_axis < 0, :]
        assert not negative_side.any()
        assert grid.killer_mask[grid.rho_axis > 0, :].any()

    def test_killer_mask_matches_boundary(self):
        grid = self.build()
        sign = np.sign(grid.scale.mu_hat - grid.b_star)
        for i, rho in enumerate(grid.rho_axis):
            for j, r2 in enumerate(grid.r2_axis):
                expect = rho * sign > 0 and r2 >= grid.boundary[i] - 1e-12
                assert bool(grid.killer_mask[i, j]) == expect, (rho, r2)

    def test_area_fraction(self):
        grid = self.build()
        assert killer_region_area(grid) == pytest.approx(grid.killer_mask.mean())
        far = self.build(mu_hat=100.0)
        assert killer_region_area(far) == 0.0

    def test_grid_matches_pointwise_formula(self):
        grid = self.build(mu_hat=2.0, b_star=0.5)
        i, j = 3, 4
        point = bias(
            SensitivityParams(rho=float(grid.rho_axis[i]), r2=float(grid.r2_axis[j])),
            grid.scale,
        )
        assert grid.bias[i, j] == pytest.approx(point, rel=1e-14)
