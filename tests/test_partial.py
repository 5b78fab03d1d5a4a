"""Partially observed confounder sweeps and the stratified IPW oracle."""

import logging

import numpy as np
import pytest

from surveysense import (
    CalibrationProblem,
    InfeasibleTargetsError,
    binary_grid,
    partial_ipw_error,
    partial_sweep,
    solve_many,
    solve_raking,
    standardized_grid,
    weighted_mean,
    weighted_se,
)
from surveysense.bias import pop_cov


def test_binary_grid_is_open_interval():
    grid = binary_grid(0.25)
    np.testing.assert_allclose(grid, [0.25, 0.5, 0.75])
    default = binary_grid()
    assert len(default) == 99
    assert default[0] == 0.01 and default[-1] == 0.99


def test_standardized_grid_trims_to_range():
    rng = np.random.default_rng(21)
    v = rng.normal(loc=10.0, scale=2.0, size=500)
    grid = standardized_grid(v)
    assert np.all((grid > v.min()) & (grid < v.max()))
    assert np.all(np.diff(grid) > 0)
    assert v.mean() in grid  # the zero offset keeps the sample mean


class TestPartialSweep:
    @staticmethod
    def build():
        rng = np.random.default_rng(33)
        n = 600
        x = (rng.random(n) < 0.5).astype(float)
        v = (rng.random(n) < 0.3 + 0.3 * x).astype(float)
        y = 1.0 + x + 2.0 * v + rng.normal(scale=0.4, size=n)
        from surveysense import CalibrationProblem

        problem = CalibrationProblem(
            x[:, None], np.array([x.mean() + 0.05]), column_names=("x",)
        )
        return problem, v, y

    def test_a_swept_column_the_design_spans_warns_once(self, caplog):
        # v equals x, so the rank guard cuts it at every grid point: one
        # warning names it, not one per point
        problem, _, y = self.build()
        v = problem.matrix[:, 0].copy()
        with caplog.at_level(logging.WARNING):
            sweep = partial_sweep(problem, v, y, label="v", grid=np.array([0.3, 0.5, 0.7]),
                                  baseline=solve_raking(problem))
        assert [r.getMessage() for r in caplog.records] == [
            "sweep of 'v': dropping dependent constraint columns: v"
        ]
        assert [p.feasible for p in sweep.points] == [p.is_baseline for p in sweep.points]

    def test_curve_passes_through_baseline(self):
        problem, v, y = self.build()
        baseline = solve_raking(problem)
        sweep = partial_sweep(
            problem, v, y, grid=np.array([0.3, 0.5, 0.7]), baseline=baseline
        )
        assert sweep.baseline_t == pytest.approx(weighted_mean(v, baseline.values))
        anchor = [p for p in sweep.points if p.is_baseline]
        assert len(anchor) == 1
        assert anchor[0].estimate == pytest.approx(sweep.baseline_estimate, abs=1e-8)

    def test_monotone_response_to_posited_margin(self):
        # y loads positively on v, so raising the posited margin raises mu
        problem, v, y = self.build()
        sweep = partial_sweep(problem, v, y, grid=np.array([0.2, 0.4, 0.6, 0.8]),
                              baseline=solve_raking(problem))
        feasible = [p.estimate for p in sweep.points if p.feasible]
        assert feasible == sorted(feasible)

    def test_sweep_variable_must_not_be_weighted(self):
        problem, v, y = self.build()
        with pytest.raises(ValueError, match="already a weighting variable"):
            partial_sweep(problem, v, y, label="x", baseline=solve_raking(problem))

    def test_constant_v_rejected(self):
        problem, _, y = self.build()
        with pytest.raises(ValueError, match="constant"):
            partial_sweep(problem, np.ones(problem.n), y, baseline=solve_raking(problem))

    def test_out_of_range_margin_flagged_infeasible(self):
        problem, v, y = self.build()
        sweep = partial_sweep(problem, v, y, grid=np.array([0.5, 1.0]),
                              baseline=solve_raking(problem))
        flags = {p.t_v: p.feasible for p in sweep.points}
        assert flags[1.0] is False
        assert flags[0.5] is True
        bad = [p for p in sweep.points if not p.feasible]
        assert all(np.isnan(p.estimate) for p in bad)


def row_level_sweep(problem, v, y, grid, baseline):
    """Each grid point re-solved on the respondent rows, the oracle for the
    design-cell solve in ``partial_sweep``."""
    augmented = CalibrationProblem(
        np.column_stack([problem.matrix, v]),
        np.append(problem.targets, 0.0),
        column_names=problem.column_names + ("v",),
        base_weights=problem.base_weights,
    )
    warm = np.append(baseline.dual, 0.0)
    points = []
    for t_v in grid:
        (solved,) = solve_many(augmented, np.append(problem.targets, t_v), warm_start=warm)
        if isinstance(solved, InfeasibleTargetsError):
            points.append((False, False, np.nan, np.nan))
            continue
        points.append((
            True, solved.diagnostics.converged,
            weighted_mean(y, solved.values), weighted_se(y, solved.values),
        ))
    return points


@pytest.mark.parametrize("base_weights", [False, True])
def test_cell_sweep_matches_row_level_oracle(base_weights):
    # v can be 1 only where x1 = 1, so shares above the x1 margin are
    # jointly infeasible; x3 is continuous on a few levels
    rng = np.random.default_rng(8)
    n = 900
    x1 = (rng.random(n) < 0.45).astype(float)
    x2 = (rng.random(n) < 0.3 + 0.2 * x1).astype(float)
    x3 = rng.choice([-1.5, 0.2, 2.0], size=n)
    v = x1 * (rng.random(n) < 0.6)
    y = 1.0 + x1 - x2 + 0.5 * x3 + 1.5 * v + rng.normal(size=n)
    matrix = np.column_stack([x1, x2, x3])
    base = np.exp(rng.normal(size=n)) if base_weights else None
    problem = CalibrationProblem(
        matrix, matrix.mean(axis=0) + [0.03, -0.02, 0.1],
        column_names=("x1", "x2", "x3"), base_weights=base,
    )
    baseline = solve_raking(problem)
    sweep = partial_sweep(
        problem, v, y, label="v", grid=np.linspace(0.05, 0.75, 8), baseline=baseline
    )
    oracle = row_level_sweep(problem, v, y, [p.t_v for p in sweep.points], baseline)
    flags = [(p.feasible, p.converged) for p in sweep.points]
    assert flags == [point[:2] for point in oracle]
    assert 0 < sum(not p.feasible for p in sweep.points) < len(sweep.points)
    np.testing.assert_allclose(
        [(p.estimate, p.se) for p in sweep.points],
        [point[2:] for point in oracle],
        rtol=0.0, atol=1e-10,
    )


class TestPartialIPWError:
    @staticmethod
    def two_strata(n_per=200):
        strata = np.repeat(np.array(["a", "b"]), n_per)
        v = np.zeros(2 * n_per)
        v[:80] = 1.0  # stratum a: observed share 0.4
        v[n_per : n_per + 120] = 1.0  # stratum b: observed share 0.6
        y = 2.0 * v + (strata == "b").astype(float)
        return np.ones(2 * n_per), v, strata, y

    def test_matches_two_stratum_formula(self):
        w, v, strata, y = self.two_strata()
        posited = {"a": 0.5, "b": 0.5}
        eps = partial_ipw_error(w, v, strata, posited)
        # share-weighted (observed - posited) times the within-stratum
        # outcome contrast between v = 1 and v = 0
        expected = 0.0
        for s, q in posited.items():
            inside = strata == s
            share = inside.mean()
            p = v[inside].mean()
            contrast = y[inside & (v == 1)].mean() - y[inside & (v == 0)].mean()
            expected += share * (p - q) * contrast
        assert pop_cov(eps, y) == pytest.approx(expected, abs=1e-10)
        # corrected weights stay normalized because shares are complementary
        assert (w - eps).mean() == pytest.approx(1.0, abs=1e-12)

    def test_zero_error_when_posited_matches_observed(self):
        w, v, strata, _ = self.two_strata()
        eps = partial_ipw_error(w, v, strata, {"a": 0.4, "b": 0.6})
        np.testing.assert_allclose(eps, 0.0, atol=1e-15)

    def test_unsupported_mass_rejected(self):
        w, v, strata, _ = self.two_strata()
        with pytest.raises(ValueError, match="no posited mean"):
            partial_ipw_error(w, v, strata, {"a": 0.5})
        with pytest.raises(ValueError, match="outside"):
            partial_ipw_error(w, v, strata, {"a": 1.5, "b": 0.5})
        v_degenerate = np.zeros_like(v)
        with pytest.raises(ValueError):
            partial_ipw_error(w, v_degenerate, strata, {"a": 0.5, "b": 0.5})

    def test_non_binary_v_rejected(self):
        w, v, strata, _ = self.two_strata()
        with pytest.raises(ValueError, match="binary"):
            partial_ipw_error(w, v + 0.5, strata, {"a": 0.5, "b": 0.5})
