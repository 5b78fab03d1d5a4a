"""Property tests of the raking solver on adversarial inputs.

Every case must either converge within ``tol`` or raise
``InfeasibleTargetsError`` naming one of its constraints. The one
documented exception is a feasible problem whose Hessian is too ill
conditioned for Newton (nearly collinear columns): coordinate sweeps may
then stall short of ``tol``, and the solver returns the best iterate
flagged unconverged, never weights that hide infeasible targets. A
jointly infeasible case runs the phase-1 program once and names the same
constraint as that program run on its own, the verdict the solver used to
reach only after ``max_iter`` iterations. ``solve_many`` must give every
problem of a stack built on these designs what ``solve_raking`` gives it
on its own cells.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from surveysense import calibrate
from surveysense.calibrate import CalibrationProblem, solve_many, solve_raking
from surveysense.errors import InfeasibleTargetsError

PHASE1 = calibrate._classify_failure

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def problems(draw):
    """A design, base weights and targets drawn from one seed.

    Columns are binary or continuous, some nearly collinear with an
    earlier column; base weights span 1e-8 to 1e8; targets are realized
    by positive weights (feasible), moved to 1e-12 inside or outside a
    column's range, or drawn independently per column (often jointly
    infeasible).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 5, 12, 40]))
    p = draw(st.integers(1, 4))
    cols = []
    for _ in range(p):
        kind = draw(st.sampled_from(["binary", "continuous", "collinear"]))
        if kind == "collinear" and cols:
            scale = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
            cols.append(cols[int(rng.integers(len(cols)))] + scale * rng.normal(size=n))
        elif kind == "binary":
            cols.append((rng.random(n) < 0.5).astype(float))
        else:
            cols.append(rng.normal(size=n))
    matrix = np.column_stack(cols)
    base = None
    if draw(st.booleans()):
        base = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    mode = draw(st.sampled_from(["feasible", "boundary", "outside", "independent"]))
    if mode == "feasible":
        w = np.exp(rng.normal(size=n))
        targets = matrix.T @ w / w.sum()
    elif mode in ("boundary", "outside"):
        w = np.exp(rng.normal(size=n))
        targets = matrix.T @ w / w.sum()
        j = int(rng.integers(p))
        lo, hi = matrix[:, j].min(), matrix[:, j].max()
        gap = 1e-12 if mode == "boundary" else -1e-12
        targets[j] = hi - gap if rng.random() < 0.5 else lo + gap
    else:
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
        targets = lo + rng.uniform(0.05, 0.95, size=p) * (hi - lo)
    names = tuple(f"c{j}" for j in range(p))
    return CalibrationProblem(matrix, targets, column_names=names, base_weights=base)


@contextmanager
def counted_phase1():
    """Record every call of the solver's phase-1 program."""
    calls = []

    def counting(problem, *args):
        calls.append(problem)
        return PHASE1(problem, *args)

    calibrate._classify_failure = counting
    try:
        yield calls
    finally:
        calibrate._classify_failure = PHASE1


def phase1_names(problem):
    """The constraint the phase-1 program blames on its own, or None."""
    try:
        PHASE1(problem)
    except InfeasibleTargetsError as err:
        return err.constraint
    return None


@SETTINGS
@given(problems())
def test_solve_converges_or_names_a_constraint(problem):
    with counted_phase1() as calls:
        try:
            result = solve_raking(problem)
        except InfeasibleTargetsError as err:
            event("joint infeasible" if err.joint else "marginal infeasible")
            assert err.constraint in problem.column_names
            if err.joint:
                assert len(calls) == 1
                assert err.constraint == phase1_names(problem)
            else:
                assert calls == []  # the marginal screen needs no program
            return
    assert len(calls) <= 1
    diag = result.diagnostics
    event("converged" if diag.converged else "unconverged")
    # a target 1e-12 inside a column's range may need weights that underflow
    assert np.all(np.isfinite(result.values)) and np.all(result.values >= 0)
    assert abs(result.values.mean() - 1.0) < 1e-12
    if diag.converged:
        assert diag.max_violation <= problem.tol
    else:
        assert diag.message == "iteration limit reached"
        assert diag.fallback_sweeps > 0
        assert phase1_names(problem) is None


@st.composite
def stacks(draw):
    """A stack of problems on one drawn design, its rows taken as cells:
    each problem has its own targets, base mass, counts (0 drops a cell)
    and warm start."""
    problem = draw(problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = problem.n, problem.p
    b = draw(st.integers(1, 6))
    counts = rng.choice([0.0, 1.0, 2.0, 7.0, 1e3], size=(b, n))
    counts[np.arange(b), rng.integers(n, size=b)] = 1.0  # at least one cell each
    mass = np.where(counts > 0, counts * 10.0 ** rng.uniform(-4.0, 4.0, size=(b, n)), 0.0)
    targets = np.empty((b, p))
    for i in range(b):
        kind = draw(st.sampled_from(["drawn", "feasible", "independent"]))
        own = problem.matrix[counts[i] > 0]
        if kind == "drawn":
            targets[i] = problem.targets
        elif kind == "feasible":
            w = np.exp(rng.normal(size=len(own)))
            targets[i] = own.T @ w / w.sum()
        else:
            lo, hi = problem.matrix.min(axis=0), problem.matrix.max(axis=0)
            targets[i] = lo + rng.uniform(0.05, 0.95, size=p) * (hi - lo)
    warm = rng.normal(scale=0.3, size=(b, p)) if draw(st.booleans()) else None
    return problem, targets, mass, counts, warm


@SETTINGS
@given(stacks())
def test_solve_many_matches_solve_raking_on_each_problem(stack):
    problem, targets, mass, counts, warm = stack
    results = solve_many(problem, targets, mass, counts, warm_start=warm)
    assert len(results) == len(targets)
    for i, got in enumerate(results):
        own = counts[i] > 0
        alone = CalibrationProblem(
            problem.matrix[own], targets[i], column_names=problem.column_names,
            base_weights=mass[i, own], row_counts=counts[i, own],
        )
        try:
            want = solve_raking(alone, warm_start=None if warm is None else warm[i])
        except InfeasibleTargetsError as err:
            event("infeasible")
            assert isinstance(got, InfeasibleTargetsError)
            assert (got.constraint, got.joint) == (err.constraint, err.joint)
            continue
        event("converged" if want.diagnostics.converged else "unconverged")
        assert isinstance(got, calibrate.WeightVector)
        assert got.diagnostics.converged == want.diagnostics.converged
        assert got.diagnostics.dropped_columns == want.diagnostics.dropped_columns
        np.testing.assert_allclose(got.values, want.values, rtol=0.0, atol=1e-12)
