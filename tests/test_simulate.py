"""Synthetic populations, counter-based streams, and oracle identities."""

import dataclasses

import numpy as np
import pytest

from surveysense.bias import pop_cov
from surveysense.simulate import (
    STAGE_CONFOUNDER,
    STAGE_COVARIATES,
    SyntheticDGP,
    draw_sample,
    gaussian_mrf_sample,
    generate,
    oracle_decomposition,
    stream,
    three_covariate_dgp,
)


class TestStream:
    @staticmethod
    def test_repeatable():
        a = stream(7, 3, STAGE_COVARIATES).random(5)
        b = stream(7, 3, STAGE_COVARIATES).random(5)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def test_stages_and_replications_are_independent_keys():
        base = stream(7, 3, STAGE_COVARIATES).random(5)
        other_stage = stream(7, 3, STAGE_CONFOUNDER).random(5)
        other_rep = stream(7, 4, STAGE_COVARIATES).random(5)
        assert not np.array_equal(base, other_stage)
        assert not np.array_equal(base, other_rep)

    @staticmethod
    def test_stage_bounds_enforced():
        with pytest.raises(ValueError):
            stream(0, 0, 16)


def test_generate_is_deterministic():
    dgp = dataclasses.replace(three_covariate_dgp(seed=5), n_population=2000)
    a = generate(dgp, replication=1)
    b = generate(dgp, replication=1)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.cell, b.cell)
    c = generate(dgp, replication=2)
    assert not np.array_equal(a.cell, c.cell)


def test_generate_respects_cell_probabilities():
    dgp = dataclasses.replace(three_covariate_dgp(seed=0), n_population=200_000)
    pop = generate(dgp)
    observed = np.bincount(pop.cell, minlength=8) / pop.n
    np.testing.assert_allclose(observed, dgp.cell_probs, atol=0.005)


def test_draw_sample_matches_selection_scale():
    dgp = three_covariate_dgp(seed=1)
    pop = generate(dgp)
    idx = draw_sample(pop)
    # roughly five percent selection by construction
    assert 0.03 < idx.size / pop.n < 0.08
    np.testing.assert_array_equal(idx, draw_sample(pop))


def test_dgp_validation():
    good = three_covariate_dgp()
    with pytest.raises(ValueError, match="sum to 1"):
        dataclasses.replace(good, cell_probs=(0.5,) * 8)
    with pytest.raises(ValueError, match="prevalences"):
        dataclasses.replace(good, u_param=(0.0,) * 8)


class TestOracleDecomposition:
    @staticmethod
    def decomposition(seed=11):
        dgp = dataclasses.replace(three_covariate_dgp(seed=seed), n_population=30_000)
        pop = generate(dgp)
        return pop, oracle_decomposition(pop, draw_sample(pop))

    def test_projection_identities(self):
        _, dec = self.decomposition()
        # within-stratum averaging is an orthogonal projection
        assert dec.eps.mean() == pytest.approx(0.0, abs=1e-12)
        assert pop_cov(dec.w, dec.eps) == pytest.approx(0.0, abs=1e-12)
        assert dec.var_w_ideal == pytest.approx(
            dec.var_w + dec.var_eps, rel=1e-12
        )

    def test_cov_bias_is_exact_estimate_gap(self):
        pop, dec = self.decomposition(seed=2)
        assert dec.mu_hat - dec.mu_hat_ideal == pytest.approx(
            dec.cov_bias, abs=1e-12
        )

    def test_weights_normalized(self):
        _, dec = self.decomposition(seed=3)
        assert dec.w.mean() == pytest.approx(1.0, abs=1e-12)
        assert dec.w_ideal.mean() == pytest.approx(1.0, abs=1e-12)

    def test_r2_between_zero_and_one(self):
        _, dec = self.decomposition(seed=4)
        assert 0.0 < dec.r2 < 1.0
        assert -1.0 < dec.rho < 1.0


@dataclasses.dataclass(frozen=True)
class ExpectedDecomposition:
    """Large-sample limits from exact atom enumeration (binary U only)."""

    sample_fraction: float
    mu_true: float
    mu_hat_limit: float
    bias: float
    r2: float
    rho: float
    var_w: float
    var_eps: float
    var_w_ideal: float


def expected_decomposition(dgp: SyntheticDGP) -> ExpectedDecomposition:
    """Enumerate (cell, U) atoms under the sampled-unit distribution, kept
    as the large-sample oracle for ``oracle_decomposition``.

    Exact: no Monte Carlo anywhere. The outcome enters through its atom
    conditional mean and variance (noise_sd), which is all the covariance
    and variance terms need.
    """
    cells = np.arange(dgp.n_cells)
    cell_idx = np.repeat(cells, 2)
    u_val = np.tile([0.0, 1.0], dgp.n_cells)
    prev = np.asarray(dgp.u_param)[cell_idx]
    mass_pop = np.asarray(dgp.cell_probs)[cell_idx] * np.where(
        u_val == 1.0, prev, 1.0 - prev
    )
    p_sel = dgp.selection_prob(cell_idx, u_val)
    sample_fraction = float(mass_pop @ p_sel)
    mass_s = mass_pop * p_sel / sample_fraction  # P(atom | sampled)

    w_ideal = 1.0 / p_sel
    w_ideal = w_ideal / (mass_s @ w_ideal)
    w = np.empty_like(w_ideal)
    for c in cells:
        inside = cell_idx == c
        w[inside] = (mass_s[inside] @ w_ideal[inside]) / mass_s[inside].sum()
    eps = w - w_ideal

    y_mean = dgp.outcome_mean(cell_idx, u_val)
    mu_true = float(mass_pop @ y_mean)
    mu_hat_limit = float(mass_s @ (w * y_mean))

    def a_var(x):
        m = mass_s @ x
        return float(mass_s @ (x - m) ** 2)

    def a_cov(x, z):
        return float(mass_s @ ((x - mass_s @ x) * (z - mass_s @ z)))

    var_eps = a_var(eps)
    var_ideal = a_var(w_ideal)
    # outcome noise adds dgp.noise_sd^2 to var(Y) but nothing to cov(eps, Y)
    var_y = a_var(y_mean) + dgp.noise_sd**2
    rho = a_cov(eps, y_mean) / np.sqrt(var_eps * var_y) if var_eps > 0 else 0.0
    return ExpectedDecomposition(
        sample_fraction=sample_fraction,
        mu_true=mu_true,
        mu_hat_limit=mu_hat_limit,
        bias=a_cov(eps, y_mean),
        r2=var_eps / var_ideal if var_ideal > 0 else 0.0,
        rho=float(rho),
        var_w=a_var(w),
        var_eps=var_eps,
        var_w_ideal=var_ideal,
    )


class TestExpectedDecomposition:
    def test_matches_large_samples(self):
        dgp = dataclasses.replace(three_covariate_dgp(seed=9), n_population=400_000)
        limit = expected_decomposition(dgp)
        pop = generate(dgp)
        idx = draw_sample(pop)
        dec = oracle_decomposition(pop, idx)
        assert idx.size / pop.n == pytest.approx(limit.sample_fraction, rel=0.05)
        assert dec.rho == pytest.approx(limit.rho, abs=0.05)
        assert dec.r2 == pytest.approx(limit.r2, rel=0.15)
        assert dec.cov_bias == pytest.approx(limit.bias, rel=0.15)

    def test_confounded_selection_biases_upward(self):
        limit = expected_decomposition(three_covariate_dgp())
        # positive confounder effects in both models push mu_hat above mu
        assert limit.bias > 0.0
        assert limit.mu_hat_limit > limit.mu_true


class TestGaussianMRF:
    precision = np.array(
        [[1.0, 0.5, 0.0], [0.5, 1.5, 0.5], [0.0, 0.5, 1.0]]
    )

    def test_sample_covariance_approaches_inverse_precision(self):
        cols = gaussian_mrf_sample(
            self.precision, ("x", "v", "y"), 60_000, seed=3
        )
        data = np.column_stack([cols["x"], cols["v"], cols["y"]])
        target = np.linalg.inv(self.precision)
        np.testing.assert_allclose(np.cov(data.T), target, atol=0.03)

    def test_reproducible(self):
        a = gaussian_mrf_sample(self.precision, ("x", "v", "y"), 50, seed=1)
        b = gaussian_mrf_sample(self.precision, ("x", "v", "y"), 50, seed=1)
        np.testing.assert_array_equal(a["v"], b["v"])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gaussian_mrf_sample(self.precision, ("x", "v"), 10, seed=0)
        lopsided = self.precision.copy()
        lopsided[0, 1] = 0.9
        with pytest.raises(ValueError, match="symmetric"):
            gaussian_mrf_sample(lopsided, ("x", "v", "y"), 10, seed=0)
