"""Leave-one-covariate-out benchmarking and the strength transforms."""

import logging
import math
from unittest import mock

import numpy as np
import pytest

from surveysense import (
    benchmark,
    benchmark_table,
    calibrate,
    loo_weights,
    min_k,
    mrcs,
    scaled_params,
    solve_raking,
    weighted_mean,
)
from surveysense.bias import pop_cov, pop_var


@pytest.fixture(scope="module")
def solved(mild_problem):
    problem, y = mild_problem
    return problem, y, solve_raking(problem)


class TestScaledParams:
    @staticmethod
    def test_hand_values():
        assert scaled_params(1.0, 1.0, 0.0, 0.2) == (0.0, 0.2)
        assert scaled_params(1.0, 1.0, 1.0, 0.2) == (0.5, 0.2)

    @staticmethod
    def test_identity_at_unit_multiples():
        r2, rho = scaled_params(1.0, 1.0, 0.37, -0.25)
        assert r2 == 0.37 / 1.37
        assert rho == -0.25

    @staticmethod
    def test_doubling_sigma():
        r2, _ = scaled_params(2.0, 1.0, 0.5, 0.0)
        assert r2 == pytest.approx(0.5)

    @staticmethod
    def test_rho_cannot_leave_unit_interval():
        with pytest.raises(ValueError):
            scaled_params(1.0, 5.0, 0.1, 0.3)
        with pytest.raises(ValueError):
            scaled_params(-1.0, 1.0, 0.1, 0.3)


class TestMinK:
    @staticmethod
    def test_worked_example():
        # RV 0.25 with r2_raw 1/3: k_sigma = .25 / (.75 / 3) = 1
        k_sigma, k_rho = min_k(1.0 / 3.0, 0.25, 0.25)
        assert k_sigma == pytest.approx(1.0)
        assert k_rho == pytest.approx(2.0)

    @staticmethod
    def test_direction_flips_k_rho():
        _, k_rho = min_k(0.5, 0.2, 0.3, direction=-1.0)
        assert k_rho < 0

    @staticmethod
    def test_round_trip_reaches_rv():
        r2_raw, rho_loo, rv = 0.8, 0.4, 0.3
        k_sigma, k_rho = min_k(r2_raw, rho_loo, rv)
        r2, rho = scaled_params(k_sigma, k_rho, r2_raw, rho_loo)
        assert r2 == pytest.approx(rv, rel=1e-12)
        assert rho * rho == pytest.approx(rv, rel=1e-12)

    @staticmethod
    def test_degenerate_inputs_rejected():
        with pytest.raises(ValueError):
            min_k(0.5, 0.0, 0.25)
        with pytest.raises(ValueError):
            min_k(0.0, 0.5, 0.25)
        with pytest.raises(ValueError):
            min_k(0.5, 0.5, 1.0)


def test_mrcs_hand_values():
    assert mrcs(4.57, 0.0, -1.87) == pytest.approx(-2.4438502673796793)
    assert mrcs(-0.37, 0.0, -1.17) == pytest.approx(0.31623931623931623)
    assert mrcs(1.0, 0.0, 0.0) == math.inf


def test_loo_weights_drop_all_sourced_columns(solved):
    problem, _, full = solved
    loo = loo_weights(problem, "x1", baseline=full)
    assert loo.constraint_ids == ("x2", "x3")
    assert loo.diagnostics.converged
    with pytest.raises(ValueError, match="not among"):
        loo_weights(problem, "income", baseline=full)


class TestBenchmark:
    @staticmethod
    def test_est_bias_equals_estimate_shift(solved):
        problem, y, full = solved
        loo = loo_weights(problem, "x1", baseline=full)
        record = benchmark(full.values, loo.values, y, label="x1")
        shift = weighted_mean(y, loo.values) - weighted_mean(y, full.values)
        assert record.est_bias == pytest.approx(shift, rel=1e-10)

    @staticmethod
    def test_raw_ratio_definition(solved):
        problem, y, full = solved
        loo = loo_weights(problem, "x2", baseline=full)
        record = benchmark(full.values, loo.values, y)
        eps = loo.values - full.values
        assert record.r2_raw == pytest.approx(pop_var(eps) / pop_var(full.values))
        assert record.r2 == record.r2_raw / (1.0 + record.r2_raw)

    @staticmethod
    def test_rho_sign_matches_covariance(solved):
        problem, y, full = solved
        loo = loo_weights(problem, "x1", baseline=full)
        record = benchmark(full.values, loo.values, y)
        eps = loo.values - full.values
        assert math.copysign(1.0, record.rho) == math.copysign(1.0, pop_cov(eps, y))

    @staticmethod
    def test_identical_weights_give_zero_strength(solved):
        _, y, full = solved
        record = benchmark(full.values, full.values.copy(), y)
        assert record.r2_raw == 0.0
        assert record.rho == 0.0
        assert not record.rho_defined
        assert record.est_bias == 0.0


def test_benchmark_table_order_and_mrcs(solved):
    problem, y, full = solved
    records = benchmark_table(problem, full, y, ("x3", "x1"), b_star=0.0)
    assert [r.label for r in records] == ["x3", "x1"]
    mu_hat = weighted_mean(y, full.values)
    for record in records:
        assert record.mrcs == pytest.approx((mu_hat - 0.0) / record.est_bias)


def test_benchmark_table_names_the_leave_outs_that_did_not_converge(solved, caplog):
    # one Newton step from the baseline dual leaves each leave-out short of
    # tol; benchmarks.csv has no converged column, so one warning names them
    problem, y, full = solved
    with caplog.at_level(logging.WARNING), mock.patch.object(calibrate, "MAX_ITER", 1):
        records = benchmark_table(problem, full, y, ("x1", "x2", "x3"))
    stuck = [r.label for r in records if not r.converged]
    assert stuck
    assert [r.getMessage() for r in caplog.records] == [
        "leave-outs that did not converge: " + ", ".join(stuck)
    ]
