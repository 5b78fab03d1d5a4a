"""Synthetic populations with known selection and confounding.

Ground truth comes in two layers:

* ``generate`` draws a finite population from a discrete-cell covariate law
  with a cell-dependent binary confounder, a logistic selection
  model, and a linear outcome model.
* ``oracle_decomposition`` computes, for one drawn sample, the ideal
  inverse-probability weights, their projection onto the covariate cells
  (the within-stratum sample average, which makes the variance and bias
  decompositions exact identities), and the realized sensitivity
  parameters.

Randomness uses the counter-based Philox generator. Streams are keyed as
(seed, replication * 16 + stage) with the stage constants below, so any
replication of any stage can be regenerated in isolation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bias import pop_cor, pop_cov, pop_var
from .calibrate import oracle_ipw, weighted_mean

logger = logging.getLogger(__name__)

__all__ = [
    "SyntheticDGP",
    "Population",
    "OracleDecomposition",
    "stream",
    "generate",
    "draw_sample",
    "oracle_decomposition",
    "three_covariate_dgp",
    "gaussian_mrf_sample",
]

# stage constants for the (seed, replication * 16 + stage) Philox key
STAGE_COVARIATES = 0
STAGE_CONFOUNDER = 1
STAGE_OUTCOME = 2
STAGE_SELECTION = 3
STAGE_BOOTSTRAP = 4
STAGE_GRAPH = 5

_STAGES_PER_REPLICATION = 16


def stream(seed: int, replication: int = 0, stage: int = 0) -> np.random.Generator:
    """Independent generator for one (replication, stage) pair."""
    if not 0 <= stage < _STAGES_PER_REPLICATION:
        raise ValueError(f"stage must lie in [0, {_STAGES_PER_REPLICATION})")
    key = np.array(
        [np.uint64(seed), np.uint64(replication * _STAGES_PER_REPLICATION + stage)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SyntheticDGP:
    """Discrete-cell population with one unobserved confounder.

    Selection follows logit P(S=1 | cell, U) = sel_intercept +
    features(cell) . sel_coef + sel_u_coef * U; the outcome is linear with
    Gaussian noise. U ~ Bernoulli(u_param[cell]).
    """

    n_population: int
    cell_probs: tuple[float, ...]
    cell_features: tuple[tuple[float, ...], ...]
    u_param: tuple[float, ...]
    sel_intercept: float
    sel_coef: tuple[float, ...]
    sel_u_coef: float
    out_intercept: float
    out_coef: tuple[float, ...]
    out_u_coef: float
    noise_sd: float
    seed: int

    def __post_init__(self):
        probs = np.asarray(self.cell_probs, dtype=np.float64)
        if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("cell_probs must be positive and sum to 1")
        if len(self.cell_features) != len(self.cell_probs):
            raise ValueError("one feature row per cell required")
        if len(self.u_param) != len(self.cell_probs):
            raise ValueError("one confounder parameter per cell required")
        if not all(0 < p < 1 for p in self.u_param):
            raise ValueError("binary confounder prevalences must lie in (0, 1)")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(len(self.cell_features[0])))

    @property
    def n_cells(self) -> int:
        return len(self.cell_probs)

    def features(self) -> np.ndarray:
        return np.asarray(self.cell_features, dtype=np.float64)

    def selection_prob(self, cell: np.ndarray, u: np.ndarray) -> np.ndarray:
        from scipy.special import expit

        logit = (
            self.sel_intercept
            + self.features()[cell] @ np.asarray(self.sel_coef)
            + self.sel_u_coef * u
        )
        return expit(logit)

    def outcome_mean(self, cell: np.ndarray, u: np.ndarray) -> np.ndarray:
        return (
            self.out_intercept
            + self.features()[cell] @ np.asarray(self.out_coef)
            + self.out_u_coef * u
        )


@dataclass(frozen=True)
class Population:
    """One realized population with every latent quantity kept."""

    dgp: SyntheticDGP
    cell: np.ndarray  # (N,) int cell index
    u: np.ndarray
    y: np.ndarray
    p_select: np.ndarray  # P(S=1 | cell, U), exact
    mu_true: float  # realized finite-population mean of y

    @property
    def n(self) -> int:
        return len(self.cell)

    def features(self) -> np.ndarray:
        return self.dgp.features()[self.cell]


def generate(dgp: SyntheticDGP, replication: int = 0) -> Population:
    """Draw one population; fully determined by (dgp.seed, replication)."""
    n = dgp.n_population
    rng_cells = stream(dgp.seed, replication, STAGE_COVARIATES)
    cell = rng_cells.choice(dgp.n_cells, size=n, p=np.asarray(dgp.cell_probs))
    rng_u = stream(dgp.seed, replication, STAGE_CONFOUNDER)
    u = (rng_u.random(n) < np.asarray(dgp.u_param)[cell]).astype(np.float64)
    rng_y = stream(dgp.seed, replication, STAGE_OUTCOME)
    y = dgp.outcome_mean(cell, u) + dgp.noise_sd * rng_y.standard_normal(n)
    return Population(
        dgp=dgp,
        cell=cell,
        u=u,
        y=y,
        p_select=dgp.selection_prob(cell, u),
        mu_true=float(y.mean()),
    )


def draw_sample(population: Population, replication: int = 0) -> np.ndarray:
    """Indices of selected units; redraws (with a warning) up to five times
    if none select."""
    rng = stream(population.dgp.seed, replication, STAGE_SELECTION)
    for attempt in range(5):
        selected = np.flatnonzero(rng.random(population.n) < population.p_select)
        if selected.size > 0:
            if attempt:
                logger.warning("empty sample; succeeded on retry %d", attempt)
            return selected
    raise RuntimeError("no units selected after 5 draws")


@dataclass(frozen=True)
class OracleDecomposition:
    """Realized weights and sensitivity parameters for one sample."""

    w_ideal: np.ndarray  # inverse of P(S=1 | cell, U), mean 1
    w: np.ndarray  # within-stratum average of w_ideal, mean 1
    eps: np.ndarray
    r2: float
    rho: float
    cov_bias: float
    var_w: float
    var_eps: float
    var_w_ideal: float
    mu_hat: float  # ratio estimate under w
    mu_hat_ideal: float
    mu_true: float


def oracle_decomposition(population: Population, sample: np.ndarray) -> OracleDecomposition:
    """Exact decomposition on one drawn sample.

    ``w`` is the empirical projection of the ideal weights onto the
    covariate cells, which makes mean(eps) = 0, cov(w, eps) = 0, and
    var(w_ideal) = var(w) + var(eps) identities of the sample.
    """
    strata = population.cell[sample]
    w_ideal = oracle_ipw(population.p_select[sample])
    w = np.empty_like(w_ideal)
    for value in np.unique(strata):
        inside = strata == value
        w[inside] = w_ideal[inside].mean()
    w = w / w.mean()
    eps = w - w_ideal
    y = population.y[sample]
    var_ideal = pop_var(w_ideal)
    var_eps = pop_var(eps)
    rho = pop_cor(eps, y) if var_eps > 0 and pop_var(y) > 0 else 0.0
    return OracleDecomposition(
        w_ideal=w_ideal,
        w=w,
        eps=eps,
        r2=var_eps / var_ideal if var_ideal > 0 else 0.0,
        rho=rho,
        cov_bias=pop_cov(eps, y),
        var_w=pop_var(w),
        var_eps=var_eps,
        var_w_ideal=var_ideal,
        mu_hat=weighted_mean(y, w),
        mu_hat_ideal=weighted_mean(y, w_ideal),
        mu_true=population.mu_true,
    )


def three_covariate_dgp(
    seed: int = 20260822, n_population: int = 100_000
) -> SyntheticDGP:
    """Eight-cell reference population: three correlated binary covariates,
    a cell-dependent binary confounder, and roughly 5 percent selection."""
    cells = [(a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)]
    base = np.array([0.16, 0.12, 0.14, 0.10, 0.13, 0.11, 0.12, 0.12])
    prevalence = tuple(
        0.25 + 0.30 * a + 0.15 * b - 0.10 * c for (a, b, c) in cells
    )
    return SyntheticDGP(
        n_population=n_population,
        cell_probs=tuple(base / base.sum()),
        cell_features=tuple(cells),
        u_param=prevalence,
        sel_intercept=-3.66,
        sel_coef=(0.55, -0.40, 0.30),
        sel_u_coef=0.85,
        out_intercept=1.0,
        out_coef=(1.0, -0.8, 0.6),
        out_u_coef=1.4,
        noise_sd=1.0,
        seed=seed,
    )


def write_bundle(out: Path, seed: int) -> dict:
    """Write a survey bundle drawn from ``three_covariate_dgp(seed)``: the
    population's features, the selected sample with its outcome, the
    population margins, a ready config and the truth. Returns the file paths
    and the truth."""
    from .report import _write_rows, canonical_json

    dgp = three_covariate_dgp(seed=seed)
    pop = generate(dgp, replication=0)
    idx = draw_sample(pop, replication=0)
    feats = pop.features().astype(int)
    names = dgp.feature_names
    paths = {name: out / f"{name}.csv" for name in ("survey", "population", "margins")}
    paths.update(config=out / "config.json", truth=out / "truth.json")

    _write_rows(paths["population"], names, feats.tolist())
    _write_rows(paths["survey"], [*names, "y"],
                ([*row, y] for row, y in zip(feats[idx].tolist(), pop.y[idx].tolist())))
    _write_rows(paths["margins"], ["variable", "level", "value"],
                ([name, 1, mean] for name, mean in zip(names, feats.mean(axis=0).tolist())))
    config = {
        "survey": "survey.csv",
        "margins": "margins.csv",
        "columns": {**{n: "binary" for n in names}, "y": "continuous"},
        "outcome": "y",
        "weighting": {"variables": list(names)},
        "b_star": 0.0,
        "detection": {"sampling_set": list(names)},
        "seed": 0,
        "out": str(out / "run"),
    }
    paths["config"].write_text(canonical_json(config))
    truth = {
        "mu_true": float(pop.mu_true),
        "n_population": int(pop.n),
        "n_sample": int(len(idx)),
        "dgp_seed": int(dgp.seed),
    }
    paths["truth"].write_text(canonical_json(truth))
    return {**{name: str(path) for name, path in paths.items()}, **truth}


def gaussian_mrf_sample(
    precision: np.ndarray,
    names: tuple[str, ...],
    n: int,
    *,
    seed: int,
) -> dict[str, np.ndarray]:
    """Sample a zero-mean Gaussian Markov field with the given precision.

    Zeros of the precision matrix are exactly the missing edges, which
    makes this the natural ground truth for graph-recovery tests.
    """
    precision = np.asarray(precision, dtype=np.float64)
    if precision.shape[0] != precision.shape[1] or len(names) != precision.shape[0]:
        raise ValueError("precision must be square with one name per row")
    if not np.allclose(precision, precision.T):
        raise ValueError("precision must be symmetric")
    cov = np.linalg.inv(precision)
    chol = np.linalg.cholesky(cov)
    rng = stream(seed, 0, STAGE_GRAPH)
    draws = rng.standard_normal((n, len(names))) @ chol.T
    return {name: draws[:, j] for j, name in enumerate(names)}
