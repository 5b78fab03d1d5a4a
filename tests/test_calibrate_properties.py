"""Property tests of the raking solver on adversarial inputs.

Every case must either converge within ``calibrate.TOL`` or raise
``InfeasibleTargetsError`` naming one of its constraints; targets realized
by positive weights must converge, nearly collinear columns included. Only
targets infeasible by less than the phase-1 program certifies, or a design
whose weakest Hessian direction is at rounding level, may come back as the
least-violating iterate, flagged unconverged. A jointly infeasible case
runs the phase-1 program once and names the same constraint as that
program run on its own. ``solve_many`` must give every
problem of a stack built on these designs, each with its own cells and
columns, what it gives as a stack of one on those cells and columns, and
``solve_raking`` must agree with the row-level solver it replaced, kept
here as the oracle.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
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


def rank_guard(matrix, counts):
    """The solver's rank guard on a matrix's rows carrying positive counts,
    a (B, n) stack or one (n,) row of them, each column scaled by its
    largest magnitude: one tuple of cut columns per problem."""
    peak = np.abs(matrix).max(axis=0, initial=0.0)
    return calibrate._dependent_columns(matrix, np.atleast_2d(counts), peak)


@st.composite
def realized_problems(draw):
    """A design, base weights and targets drawn from one seed, and whether
    the targets were realized by positive weights (feasible by
    construction).

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
    problem = CalibrationProblem(matrix, targets, column_names=names, base_weights=base)
    return problem, mode == "feasible"


def problems():
    """The problems of ``realized_problems``, without the label."""
    return realized_problems().map(lambda drawn: drawn[0])


def collinear_example(seed=0):
    """A column plus 1e-6 noise at n = 3, with targets realized by positive
    weights: coordinate sweeps stalled here at a violation of 7e-8, and the
    solver used to return it unconverged."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=3)
    matrix = np.column_stack([x, x + 1e-6 * rng.normal(size=3)])
    w = np.exp(rng.normal(size=3))
    return CalibrationProblem(matrix, matrix.T @ w / w.sum(), column_names=("c0", "c1"))


def saturated_example():
    """Targets realized by positive weights on one enforced column 2e-6
    wide, base masses 1e10 apart: the undamped step overshoots until one
    cell holds all the mass, where the Newton step is 1e212 long, and
    damping that grew tenfold per rejection never caught up."""
    return CalibrationProblem(
        np.array([[1.0, 1.0, 1.00000043], [1.0, 1.0, 1.00000247]]),
        [1.0, 1.0, 1.00000048],
        base_weights=np.array([3.80636623e-06, 2.01147435e04]),
    )


@contextmanager
def counted_phase1():
    """Record every call of the solver's phase-1 program."""
    calls = []

    def counting(*args):
        calls.append(args)
        return PHASE1(*args)

    calibrate._classify_failure = counting
    try:
        yield calls
    finally:
        calibrate._classify_failure = PHASE1


def phase1_names(problem):
    """The constraint the phase-1 program blames on its own, or None."""
    try:
        PHASE1(problem.matrix.T, problem.targets, problem.column_names)
    except InfeasibleTargetsError as err:
        return err.constraint
    return None


@SETTINGS
@example((collinear_example(), True))
@example((saturated_example(), True))
@given(realized_problems())
def test_solve_converges_or_names_a_constraint(drawn):
    problem, realized = drawn
    with counted_phase1() as calls:
        try:
            result = solve_raking(problem)
        except InfeasibleTargetsError as err:
            event("joint infeasible" if err.joint else "marginal infeasible")
            assert not realized
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
        assert diag.max_violation <= calibrate.TOL
    else:
        # targets infeasible by less than the phase-1 program certifies, or
        # realized targets on a design whose weakest Hessian direction at the
        # returned weights is rounding, which no double-precision step resolves
        assert not diag.converged
        assert diag.fallback_sweeps > 0  # it took at least one damped step
        assert phase1_names(problem) is None
        if realized:
            event("realized, weakest direction at rounding")
            assert weakest_direction(problem, result) <= 1e-15


def weakest_direction(problem, result):
    """Smallest over largest eigenvalue of the centred Hessian at the
    returned weights, over the columns the solve enforced."""
    kept = [problem.column_names.index(name) for name in result.constraint_ids]
    phi = problem.matrix[:, kept] - problem.matrix[:, kept].mean(axis=0)
    prob = result.values / problem.n
    centred = (phi - prob @ phi) * np.sqrt(prob)[:, None]
    eigenvalues = np.linalg.eigvalsh(centred.T @ centred)
    return eigenvalues[0] / eigenvalues[-1]


@st.composite
def stacks(draw):
    """A stack of problems on one drawn design, its rows taken as cells:
    each problem has its own targets, base mass, counts (0 drops a cell),
    warm start and column mask (or every column)."""
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
    columns = rng.random((b, p)) < 0.7 if draw(st.booleans()) else None
    return problem, targets, mass, counts, warm, columns


@SETTINGS
@given(stacks())
def test_solve_many_matches_solve_raking_on_each_problem(stack):
    problem, targets, mass, counts, warm, columns = stack
    results = solve_many(problem, targets, mass, counts, warm_start=warm, columns=columns)
    assert len(results) == len(targets)
    names = np.asarray(problem.column_names)
    for i, got in enumerate(results):
        own = counts[i] > 0
        keep = np.ones(problem.p, dtype=bool) if columns is None else columns[i]
        event(f"{keep.sum()} of {problem.p} columns")
        alone = CalibrationProblem(
            problem.matrix[np.ix_(own, keep)], targets[i, keep],
            column_names=tuple(names[keep]), base_weights=mass[i, own],
        )
        # the stack of one that solve_raking solves, from the same warm start
        (want,) = solve_many(alone, row_counts=counts[i, own],
                             warm_start=None if warm is None else warm[i, keep])
        if isinstance(want, InfeasibleTargetsError):
            event("infeasible")
            assert isinstance(got, InfeasibleTargetsError)
            assert (got.constraint, got.joint) == (want.constraint, want.joint)
            continue
        event("converged" if want.diagnostics.converged else "unconverged")
        assert isinstance(got, calibrate.WeightVector)
        assert got.diagnostics.converged == want.diagnostics.converged
        assert got.diagnostics.dropped_columns == want.diagnostics.dropped_columns
        np.testing.assert_allclose(got.values, want.values, rtol=0.0, atol=1e-12)


def row_level_solve(problem, warm_start=None):
    """The serial row-level solver that ``solve_raking`` replaced, kept as
    its oracle, with the loop's centred Hessian and columns taken about
    their means, and no fixed Tikhonov term:
    Newton with backtracking, coordinate sweeps once cond(H) reaches
    ``ILL_CONDITIONED`` or a line search fails, and the phase-1 program at
    the first such fallback.

    Returns whether it converged, the weights, the columns the rank guard
    cut, and whether the problem lies in the region where both solvers take
    the same steps: no column cut, and every step a full Newton step on a
    Hessian with cond(H) < ``ILL_CONDITIONED / 10``.
    """
    n = problem.n
    q = problem.base_weights if problem.base_weights is not None else np.ones(n)
    log_q = np.log(q / q.sum())
    for j in range(problem.p):
        col = problem.matrix[:, j]
        lo, hi, t = float(col.min()), float(col.max()), float(problem.targets[j])
        if hi == lo and abs(t - lo) <= 1e-9 * max(1.0, abs(lo)):
            continue
        if 0.0 < hi - lo <= calibrate.TOL and hi - calibrate.TOL <= t <= lo + calibrate.TOL:
            continue
        if not (lo < t < hi):
            raise InfeasibleTargetsError(problem.column_names[j], t, (lo, hi))
    (dropped_idx,) = rank_guard(problem.matrix, np.ones(n))
    plain = not dropped_idx
    kept = np.asarray([j for j in range(problem.p) if j not in dropped_idx], dtype=int)
    raw, raw_t = problem.matrix[:, kept], problem.targets[kept]
    center = raw.mean(axis=0)
    phi, t = raw - center, raw_t - center
    p_cols = phi.shape[1]
    binary_col = [bool(np.all(np.isin(raw[:, j], (0.0, 1.0)))) for j in range(p_cols)]
    lam = np.zeros(p_cols) if warm_start is None else np.asarray(warm_start)[kept].copy()

    def state(lam_vec):
        prob = log_q + phi @ lam_vec
        top = prob.max()
        prob -= top
        np.exp(prob, out=prob)
        total = prob.sum()
        prob /= total
        return prob, float(top + np.log(total) - lam_vec @ t)

    prob, objective = state(lam)
    phase1_run = False
    slack = None
    for _ in range(calibrate.MAX_ITER):
        mean = phi.T @ prob
        grad = mean - t
        if float(np.max(np.abs(grad), initial=0.0)) <= calibrate.TOL:
            break
        used_newton = False
        centred = (phi - mean) * np.sqrt(prob)[:, None]
        hess = centred.T @ centred
        cond = np.linalg.cond(hess)
        plain = plain and cond < calibrate.ILL_CONDITIONED / 10
        if cond < calibrate.ILL_CONDITIONED:
            direction = np.linalg.solve(hess, -grad)
            slope = float(grad @ direction)
            if -slope <= 1e-13 * (1.0 + abs(objective)):
                lam = lam + direction
                prob, objective = state(lam)
                used_newton = True
            else:
                step = 1.0
                for _ in range(40):
                    cand = lam + step * direction
                    cand_prob, cand_obj = state(cand)
                    if cand_obj <= objective + 1e-4 * step * slope:
                        lam, prob, objective = cand, cand_prob, cand_obj
                        used_newton = True
                        break
                    step *= 0.5
                plain = plain and step == 1.0
        if not used_newton:
            plain = False
            if not phase1_run:
                phase1_run = True
                threshold = max(calibrate.INFEASIBLE_SLACK, problem.p * calibrate.TOL)
                slack = PHASE1(problem.matrix.T, problem.targets, problem.column_names, threshold)
            for j in range(p_cols):
                share = float(prob @ raw[:, j])
                if binary_col[j]:
                    if not (0.0 < share < 1.0):
                        continue
                    delta = float(
                        np.log(raw_t[j] / (1 - raw_t[j])) - np.log(share / (1 - share))
                    )
                else:
                    curvature = float(prob @ raw[:, j] ** 2) - share**2
                    if curvature <= 0:
                        continue
                    delta = (raw_t[j] - share) / curvature
                    span = max(1.0, float(np.max(np.abs(raw[:, j]))))
                    delta = float(np.clip(delta, -4.0 / span, 4.0 / span))
                for _ in range(40):
                    cand = lam.copy()
                    cand[j] += delta
                    cand_prob, cand_obj = state(cand)
                    if cand_obj <= objective + 1e-15 * abs(objective):
                        lam, prob, objective = cand, cand_prob, cand_obj
                        break
                    delta *= 0.5
    w = n * prob
    w = w / w.mean()
    violation = float(np.max(np.abs(problem.matrix.T @ (w / n) - problem.targets), initial=0.0))
    converged = violation <= calibrate.TOL
    if not converged:
        if not phase1_run:
            PHASE1(problem.matrix.T, problem.targets, problem.column_names)
        elif slack is not None and slack.sum() > calibrate.INFEASIBLE_SLACK:
            calibrate._raise_joint(
                problem.matrix.T, problem.targets, problem.column_names, slack
            )
    return converged, w, tuple(problem.column_names[j] for j in dropped_idx), plain


@SETTINGS
@given(problems())
def test_solve_raking_matches_the_row_level_oracle(problem):
    try:
        converged, values, dropped, plain = row_level_solve(problem)
    except InfeasibleTargetsError as err:
        event("infeasible")
        with pytest.raises(InfeasibleTargetsError) as got:
            solve_raking(problem)
        assert (got.value.constraint, got.value.joint) == (err.constraint, err.joint)
        return
    got = solve_raking(problem)
    if plain:
        event("full Newton steps")
        assert got.diagnostics.dropped_columns == dropped
        assert got.diagnostics.converged == converged
        np.testing.assert_allclose(got.values, values, rtol=0.0, atol=1e-12)
    elif converged:
        event("outside the shared region; oracle converged")
        assert got.diagnostics.converged
    else:
        # coordinate sweeps stall on nearly collinear columns; the loop must
        # converge there unless its weakest direction is rounding
        event(f"oracle stalled; solver converged: {got.diagnostics.converged}")
        assert got.diagnostics.converged or weakest_direction(problem, got) <= 1e-15
