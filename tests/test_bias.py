"""Bias formula, decompositions, and the exact IPW error construction."""

from dataclasses import dataclass

import numpy as np
import pytest

from surveysense import (
    ObservedScale,
    SensitivityParams,
    adjusted_estimate,
    bias,
    error_vector,
)
from surveysense.bias import ipw_error, pop_cor, pop_cov, pop_var
from surveysense.simulate import draw_sample, generate, oracle_decomposition, three_covariate_dgp


def test_bias_hand_value():
    # rho 0.5, R2 0.8, unit variances: 0.5 * sqrt(0.8 / 0.2) = 1
    scale = ObservedScale(var_y=1.0, var_w=1.0, mu_hat=0.0)
    assert bias(SensitivityParams(rho=0.5, r2=0.8), scale) == pytest.approx(1.0)


def test_bias_sign_follows_rho():
    scale = ObservedScale(var_y=2.0, var_w=0.5, mu_hat=3.0)
    up = bias(SensitivityParams(rho=0.3, r2=0.4), scale)
    down = bias(SensitivityParams(rho=-0.3, r2=0.4), scale)
    assert up == pytest.approx(-down)
    assert up > 0


def test_bias_at_r2_one_needs_ideal_variance():
    scale = ObservedScale(var_y=1.0, var_w=1.0, mu_hat=0.0)
    params = SensitivityParams(rho=1.0, r2=1.0)
    with pytest.raises(ValueError, match=r"R2 = 1 needs var\(w_ideal\)"):
        bias(params, scale)
    with pytest.raises(ValueError, match=r"R2 = 1"):
        adjusted_estimate(params, scale)


def test_adjusted_estimate_removes_bias():
    scale = ObservedScale(var_y=1.0, var_w=1.0, mu_hat=5.0)
    params = SensitivityParams(rho=0.5, r2=0.8)
    assert adjusted_estimate(params, scale) == pytest.approx(4.0)


def test_sensitivity_params_validated():
    with pytest.raises(ValueError):
        SensitivityParams(rho=1.5, r2=0.5)
    with pytest.raises(ValueError):
        SensitivityParams(rho=0.0, r2=-0.1)
    with pytest.raises(ValueError):
        SensitivityParams(rho=0.0, r2=1.5)


def test_error_vector_requires_mean_one():
    with pytest.raises(ValueError, match="not normalized"):
        error_vector(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    eps = error_vector(np.array([1.5, 0.5]), np.array([0.5, 1.5]))
    np.testing.assert_allclose(eps, [1.0, -1.0])


@dataclass(frozen=True)
class Decomposition:
    """Sensitivity parameters realized by an explicit (w, w_ideal, y) triple."""

    params: SensitivityParams
    cov_bias: float  # cov(eps, Y), the exact bias of mu_hat_w vs mu_hat_ideal
    var_w: float
    var_eps: float
    var_w_ideal: float
    rho_defined: bool  # False when eps or Y is degenerate (rho reported as 0)


def decompose(w: np.ndarray, w_ideal: np.ndarray, y: np.ndarray) -> Decomposition:
    """Measure (rho, R2) and the covariance-form bias of w against w_ideal,
    kept as the identity oracle for the bias formula."""
    eps = error_vector(w, w_ideal)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != eps.shape:
        raise ValueError("outcome length differs from weights")
    var_ideal = pop_var(w_ideal)
    if var_ideal == 0.0:
        raise ValueError("ideal weights are constant; R2 is undefined")
    var_eps = pop_var(eps)
    # projection pairs satisfy var_eps <= var_ideal; the cap absorbs rounding
    r2 = min(var_eps / var_ideal, 1.0)
    rho_defined = var_eps > 0.0 and pop_var(y) > 0.0
    rho = pop_cor(eps, y) if rho_defined else 0.0
    return Decomposition(
        params=SensitivityParams(rho=rho, r2=r2),
        cov_bias=pop_cov(eps, y),
        var_w=pop_var(w),
        var_eps=var_eps,
        var_w_ideal=var_ideal,
        rho_defined=rho_defined,
    )


class TestDecompose:
    @staticmethod
    def projection_pair(seed=0, n=400):
        """w is the cell-mean projection of w_ideal, so eps is orthogonal."""
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, 5, size=n)
        w_ideal = np.exp(rng.normal(size=n) * 0.4)
        w_ideal /= w_ideal.mean()
        w = np.empty_like(w_ideal)
        for c in range(5):
            w[cells == c] = w_ideal[cells == c].mean()
        w /= w.mean()
        y = 1.0 + cells + rng.normal(size=n)
        return w, w_ideal, y

    @staticmethod
    def test_variance_identity():
        w, w_ideal, y = TestDecompose.projection_pair()
        dec = decompose(w, w_ideal, y)
        assert dec.var_w_ideal == pytest.approx(dec.var_w + dec.var_eps, rel=1e-12)

    @staticmethod
    def test_cov_bias_equals_estimate_shift():
        w, w_ideal, y = TestDecompose.projection_pair(seed=3)
        dec = decompose(w, w_ideal, y)
        shift = float(w @ y / w.sum() - w_ideal @ y / w_ideal.sum())
        assert dec.cov_bias == pytest.approx(shift, abs=1e-12)

    @staticmethod
    def test_formula_reproduces_exact_bias():
        # with rho and R2 measured on the same sample, Eq-form bias is exact
        w, w_ideal, y = TestDecompose.projection_pair(seed=7)
        dec = decompose(w, w_ideal, y)
        scale = ObservedScale(var_y=pop_var(y), var_w=dec.var_w, mu_hat=0.0)
        assert bias(dec.params, scale) == pytest.approx(dec.cov_bias, rel=1e-10)

    @staticmethod
    def test_degenerate_outcome_flags_rho_undefined():
        w, w_ideal, _ = TestDecompose.projection_pair(seed=1)
        dec = decompose(w, w_ideal, np.ones_like(w))
        assert not dec.rho_defined
        assert dec.params.rho == 0.0

    @staticmethod
    def test_constant_ideal_weights_rejected():
        with pytest.raises(ValueError, match="constant"):
            decompose(np.ones(4), np.ones(4), np.arange(4.0))

    @staticmethod
    def test_simulation_oracle_matches_decompose():
        # oracle_decomposition recomputes decompose's arithmetic inline
        pop = generate(three_covariate_dgp(seed=5, n_population=30_000))
        sample = draw_sample(pop)
        dec = oracle_decomposition(pop, sample)
        want = decompose(dec.w, dec.w_ideal, pop.y[sample])
        assert want.rho_defined
        got = (dec.r2, dec.rho, dec.cov_bias, dec.var_w, dec.var_eps, dec.var_w_ideal)
        expected = (want.params.r2, want.params.rho, want.cov_bias, want.var_w,
                    want.var_eps, want.var_w_ideal)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_population_moment_helpers():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pop_var(x) == pytest.approx(1.25)
    assert pop_cov(x, 2 * x) == pytest.approx(2.5)
    assert pop_cor(x, -x) == pytest.approx(-1.0)


class TestIPWError:
    @staticmethod
    def test_matches_direct_construction():
        rng = np.random.default_rng(12)
        n = 200
        w = np.exp(0.2 * rng.normal(size=n))
        w /= w.mean()
        num = rng.uniform(0.2, 0.8, size=n)
        den = rng.uniform(0.2, 0.8, size=n)
        eps = ipw_error(w, num, den)
        np.testing.assert_allclose(eps, w * (1 - num / den), rtol=1e-15)

    @staticmethod
    def test_equal_probabilities_mean_no_error():
        w = np.ones(5)
        p = np.full(5, 0.3)
        np.testing.assert_array_equal(ipw_error(w, p, p), np.zeros(5))

    @staticmethod
    def test_probabilities_validated():
        w = np.ones(3)
        good = np.full(3, 0.5)
        with pytest.raises(ValueError):
            ipw_error(w, np.array([0.5, 0.0, 0.5]), good)
        with pytest.raises(ValueError):
            ipw_error(w, good, np.array([0.5, 1.2, 0.5]))
        with pytest.raises(ValueError):
            ipw_error(np.ones(2), good, good)


def test_observed_scale_from_sample():
    y = np.array([0.0, 1.0, 2.0, 3.0])
    w = np.array([1.5, 0.5, 1.5, 0.5])
    scale = ObservedScale.from_sample(y, w)
    assert scale.var_y == pytest.approx(1.25)
    assert scale.var_w == pytest.approx(0.25)
    assert scale.mu_hat == pytest.approx((1.5 * 0 + 0.5 + 3.0 + 1.5) / 4.0)
