"""Bootstrap interval behavior: determinism, shift algebra, guard rails."""

import json
import logging
import threading

import numpy as np
import pytest

from surveysense import bootstrap, calibrate
from surveysense.bias import ObservedScale, SensitivityParams, bias
from surveysense.bootstrap import bootstrap_interval
from surveysense.calibrate import CalibrationProblem, solve_raking
from surveysense.errors import InfeasibleTargetsError, RankDeficiencyError
from surveysense.simulate import STAGE_BOOTSTRAP, stream

ZERO = SensitivityParams(rho=0.0, r2=0.0)


@pytest.fixture(scope="module")
def outcome(mild_problem):
    problem, y = mild_problem
    return problem, y


def test_same_seed_same_interval(outcome):
    problem, y = outcome
    a = bootstrap_interval(problem, y, ZERO, b=150, seed=7)
    b = bootstrap_interval(problem, y, ZERO, b=150, seed=7)
    assert a.interval == b.interval
    assert np.array_equal(a.draws, b.draws)
    c = bootstrap_interval(problem, y, ZERO, b=150, seed=8)
    assert not np.array_equal(a.draws, c.draws)


def test_interval_brackets_point_estimate(outcome):
    problem, y = outcome
    res = bootstrap_interval(problem, y, ZERO, b=300, seed=1)
    baseline = solve_raking(problem)
    mu_hat = float(np.mean(baseline.values * y))
    assert res.lower < mu_hat < res.upper
    assert res.dropped == 0
    assert res.n_draws == 300


def test_fixed_weight_adjustment_is_pure_shift(outcome):
    problem, y = outcome
    params = SensitivityParams(rho=0.4, r2=0.3)
    plain = bootstrap_interval(problem, y, ZERO, b=200, seed=3, reestimate=False)
    adjusted = bootstrap_interval(problem, y, params, b=200, seed=3, reestimate=False)
    shifts = plain.draws - adjusted.draws
    assert np.allclose(shifts, shifts[0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        adjusted.upper - adjusted.lower, plain.upper - plain.lower, rtol=1e-12
    )


def test_reestimate_changes_draws(outcome):
    problem, y = outcome
    fixed = bootstrap_interval(problem, y, ZERO, b=120, seed=5, reestimate=False)
    redo = bootstrap_interval(problem, y, ZERO, b=120, seed=5, reestimate=True)
    assert not np.array_equal(fixed.draws, redo.draws)


def test_few_draws_warns(outcome):
    problem, y = outcome
    with pytest.warns(UserWarning, match="below the 100"):
        bootstrap_interval(problem, y, ZERO, b=20, seed=0)


def test_argument_validation(outcome):
    problem, y = outcome
    with pytest.raises(ValueError, match="at least one"):
        bootstrap_interval(problem, y, ZERO, b=0)
    with pytest.raises(ValueError, match="alpha"):
        bootstrap_interval(problem, y, ZERO, b=200, alpha=1.0)
    with pytest.raises(ValueError, match="length"):
        bootstrap_interval(problem, y[:-1], ZERO, b=200)


def test_supplied_baseline_skips_resolve(outcome):
    problem, y = outcome
    baseline = solve_raking(problem)
    res = bootstrap_interval(
        problem, y, ZERO, b=150, seed=2, reestimate=False, baseline=baseline
    )
    direct = bootstrap_interval(problem, y, ZERO, b=150, seed=2, reestimate=False)
    np.testing.assert_array_equal(res.draws, direct.draws)


def row_level_draws(problem, y, params, b, seed):
    """Each draw re-solved on its resampled rows, the oracle for the
    cell-collapsed solve in ``bootstrap_interval``."""
    n = problem.n
    base = problem.base_weights if problem.base_weights is not None else np.ones(n)
    warm = solve_raking(problem).dual
    kept = []
    for index in range(b):
        rows = stream(seed, index, STAGE_BOOTSTRAP).integers(0, n, size=n)
        sub = CalibrationProblem(
            problem.matrix[rows],
            problem.targets,
            column_names=problem.column_names,
            base_weights=base[rows],
        )
        try:
            wv = solve_raking(sub, warm_start=warm)
        except (InfeasibleTargetsError, RankDeficiencyError):
            continue
        if wv.diagnostics.converged:
            scale = ObservedScale.from_sample(y[rows], wv.values)
            kept.append(scale.mu_hat - bias(params, scale))
    return np.asarray(kept)


def categorical_problem(n, rare_ones, base_weights):
    """Three binary margins over few cells, the third set on ``rare_ones`` rows."""
    rng = np.random.default_rng(12)
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = (rng.random(n) < 0.4).astype(float)
    x3 = np.zeros(n)
    x3[rng.choice(n, size=rare_ones, replace=False)] = 1.0
    matrix = np.column_stack([x1, x2, x3])
    targets = matrix.mean(axis=0) + np.array([0.03, -0.02, 0.0])
    base = np.exp(2.0 * rng.normal(size=n)) if base_weights else None
    y = 1.0 + x1 - 0.5 * x2 + 2.0 * x3 + rng.normal(size=n)
    problem = CalibrationProblem(
        matrix, targets, column_names=("x1", "x2", "x3"), base_weights=base
    )
    return problem, y


@pytest.mark.parametrize("base_weights", [False, True])
def test_cell_draws_match_row_level_resolve(base_weights):
    problem, y = categorical_problem(400, 40, base_weights)
    params = SensitivityParams(rho=0.3, r2=0.2)
    res = bootstrap_interval(problem, y, params, b=100, seed=4)
    oracle = row_level_draws(problem, y, params, 100, 4)
    assert res.dropped == 0
    np.testing.assert_allclose(res.draws, oracle, rtol=0.0, atol=1e-12)


def test_resample_with_a_constant_column_is_dropped_on_both_paths():
    # x3 is 1 on four of 60 rows: about 2% of resamples miss all four, the
    # column turns constant at 0 against a positive target, and the draw fails
    problem, y = categorical_problem(60, 4, base_weights=True)
    res = bootstrap_interval(problem, y, ZERO, b=200, seed=6)
    oracle = row_level_draws(problem, y, ZERO, 200, 6)
    assert res.dropped > 0
    assert res.dropped == 200 - oracle.size
    assert res.dropped_by_reason == {
        "infeasible": res.dropped, "rank_deficient": 0, "not_converged": 0
    }
    np.testing.assert_allclose(res.draws, oracle, rtol=0.0, atol=1e-12)


def test_chunk_size_does_not_change_draws(monkeypatch):
    # at the default budget all 100 draws share one batch; at a budget of
    # one byte every draw is a batch of its own over its own cells
    problem, y = categorical_problem(400, 40, base_weights=True)
    params = SensitivityParams(rho=0.3, r2=0.2)
    assert calibrate.batch_size(8, problem.p) >= 100
    whole = bootstrap_interval(problem, y, params, b=100, seed=4)
    monkeypatch.setattr(calibrate, "BATCH_BYTES", 1)
    assert calibrate.batch_size(8, problem.p) == 1
    single = bootstrap_interval(problem, y, params, b=100, seed=4)
    assert single.dropped == whole.dropped == 0
    np.testing.assert_allclose(single.draws, whole.draws, rtol=0.0, atol=1e-12)


def test_continuous_design_matches_row_level_resolve(outcome):
    problem, y = outcome
    res = bootstrap_interval(problem, y, ZERO, b=100, seed=9)
    np.testing.assert_allclose(
        res.draws, row_level_draws(problem, y, ZERO, 100, 9), rtol=0.0, atol=1e-12
    )


def test_draws_mute_only_their_own_solver_warnings(outcome, monkeypatch, caplog):
    # the draws drop their solver's warnings through a filter keyed on a
    # context variable, not by raising the shared logger's level, so a
    # thread that logs to that logger during the draws is still heard
    problem, y = outcome
    solver_log = logging.getLogger("surveysense.calibrate")
    solve_many = bootstrap.solve_many

    def noisy_solve_many(*args, **kwargs):
        solver_log.warning("a draw's own warning")
        solver_log.error("a draw's own error")
        other = threading.Thread(target=solver_log.warning, args=("another thread",))
        other.start()
        other.join()
        return solve_many(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "solve_many", noisy_solve_many)
    with caplog.at_level(logging.WARNING, logger="surveysense.calibrate"):
        bootstrap_interval(problem, y, ZERO, b=100, seed=3)
        solver_log.warning("after the draws")
    heard = [r.getMessage() for r in caplog.records if r.name == "surveysense.calibrate"]
    assert heard == ["a draw's own error", "another thread", "after the draws"]
    assert solver_log.level == logging.NOTSET


def _survey_config(tmp_path) -> dict:
    """A config over a 2,000-row survey and a 3,000-row population file."""
    rng = np.random.default_rng(3)

    def write(name, n, shift):
        x1 = (rng.random(n) < 0.4 + shift).astype(int)
        x2 = rng.normal(shift, 1.0, size=n)
        g = rng.choice(["a", "b", "c"], size=n)
        y = x1 + 0.5 * x2 + rng.normal(size=n)
        cells = zip(x1.tolist(), x2.tolist(), g.tolist(), y.tolist())
        lines = ["x1,x2,g,y"] + [f"{a},{b!r},{c},{d!r}" for a, b, c, d in cells]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        return str(tmp_path / name)

    return {
        "survey": write("survey.csv", 2000, 0.0),
        "population": write("population.csv", 3000, 0.1),
        "columns": {"x1": "binary", "x2": "continuous", "g": "categorical", "y": "continuous"},
        "outcome": "y",
        "weighting": {"variables": ["x1", "x2", "g"]},
    }


def test_build_and_bootstrap_leave_scipy_linalg_unimported(tmp_path, run_fresh):
    # scipy's LAPACK brings its own BLAS thread pool, which contends with
    # numpy's, and importing scipy.linalg costs set-up time; a design that
    # converges by Newton needs neither the phase-1 program nor any scipy
    # linear algebra, from the CLI import through a re-estimating bootstrap
    config = _survey_config(tmp_path)
    script = f"""
import sys, warnings
import surveysense.cli
from surveysense.bias import SensitivityParams
from surveysense.bootstrap import bootstrap_interval
from surveysense.config import config_from_dict
from surveysense.report import build_pipeline

pipe = build_pipeline(config_from_dict({config!r}))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    res = bootstrap_interval(pipe.problem, pipe.y, SensitivityParams(0.0, 0.0), b=20, seed=0)
assert pipe.baseline.diagnostics.fallback_sweeps == 0
assert res.n_draws == 20 and res.dropped == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
"""
    assert run_fresh(script).strip() == "[]"


def test_set_up_loads_only_the_layers_a_subcommand_runs(tmp_path, run_fresh):
    # every module a CLI call loads is compiled and run again in each fresh
    # interpreter: the CLI import and a detection job's table load need the
    # config, data and error layers, and the pipeline of the survey
    # subcommands adds the calibration and bias layers, never scipy
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_survey_config(tmp_path)))
    script = f"""
import json, sys

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("surveysense", "scipy"))))

import surveysense.cli
loaded()
from surveysense.config import load_config
from surveysense.data import load_table

cfg, _ = load_config({str(config)!r})
load_table(cfg.survey, cfg.schema)
loaded()
from surveysense.report import build_pipeline

build_pipeline(cfg)
loaded()
"""
    start = ["surveysense", "surveysense.cli", "surveysense.config", "surveysense.data",
             "surveysense.errors"]
    pipeline = sorted(start + ["surveysense.report", "surveysense.calibrate", "surveysense.bias"])
    seen = [json.loads(line) for line in run_fresh(script).splitlines()]
    assert seen == [start, start, pipeline]
