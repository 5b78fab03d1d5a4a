"""Raking solver: closed forms, feasibility screening, estimator helpers."""

import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st
from test_calibrate_properties import SETTINGS, problems, rank_guard

from surveysense import (
    CalibrationProblem,
    InfeasibleTargetsError,
    balance_table,
    calibrate,
    oracle_ipw,
    solve_many,
    solve_raking,
    weighted_mean,
    weighted_se,
)
from surveysense.calibrate import _gram_certifies, check_rank


def full_row_rank_guard(matrix, row_counts=None):
    """The rank guard with scipy's QR over all n rows, kept as the oracle for
    the solver's guard, which eliminates on the (p+1)-row R factor: the
    columns of [1 | X / peak] are taken in order, and one is cut when the QR
    of the kept columns followed by it leaves it a last diagonal entry of
    at most 1e-10 * max(largest column norm, 1)."""
    import scipy.linalg

    scale = np.maximum(np.abs(matrix).max(axis=0), 1e-300)
    augmented = np.column_stack([np.ones(len(matrix)), matrix / scale])
    if row_counts is not None:
        augmented *= np.sqrt(row_counts)[:, None]
    floor = 1e-10 * max(np.linalg.norm(augmented, axis=0).max(), 1.0)
    kept = []
    for j in range(augmented.shape[1]):
        (r,) = scipy.linalg.qr(augmented[:, kept + [j]], mode="r")
        if len(kept) < len(r) and abs(r[len(kept), len(kept)]) > floor:
            kept.append(j)
    return tuple(j - 1 for j in range(1, augmented.shape[1]) if j not in kept)


def assert_rank_guard_matches_oracle(matrix, counts=None):
    got = check_rank(matrix) if counts is None else rank_guard(matrix, counts)[0]
    assert got == full_row_rank_guard(matrix, counts)


@SETTINGS
@given(problems(), st.data())
def test_rank_guard_matches_full_row_oracle(problem, data):
    # the property tests' adversarial designs, as plain rows and as design
    # cells carrying counts of 1 to 1e6
    assert_rank_guard_matches_oracle(problem.matrix)
    counts = np.asarray(
        data.draw(st.lists(st.sampled_from([1.0, 2.0, 7.0, 1e3, 1e6]),
                           min_size=problem.n, max_size=problem.n))
    )
    assert_rank_guard_matches_oracle(problem.matrix, counts)


def test_rank_guard_drops_the_later_of_tied_columns():
    # The columns are taken in order, so the later of two equal columns is
    # the one dropped whatever the rounding: as rows, as cells with counts,
    # and in the design where a guard that pivoted with scipy dropped the
    # first of the pair
    found = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    assert check_rank(found) == (1,)
    assert rank_guard(found, np.array([1e6, 1e6, 1.0])) == [(1,)]
    rng = np.random.default_rng(11)
    for n in (400, 5000, 30000):
        for _ in range(8):
            p = int(rng.integers(2, 7))
            matrix = np.column_stack([
                (rng.random(n) < rng.uniform(0.05, 0.9)).astype(float)
                if rng.random() < 0.5 else rng.normal(size=n)
                for _ in range(p)
            ])
            first, second = sorted(rng.choice(p, size=2, replace=False))
            matrix[:, second] = matrix[:, first]
            counts = rng.choice([1.0, 2.0, 7.0, 1e3, 1e6], size=n)
            assert [check_rank(matrix)] == rank_guard(matrix, counts) == [(second,)]


def test_stacked_counts_judge_each_problem_on_its_own_rows():
    # in a solve_many stack of counts, each problem's rank guard judges its
    # own cells: the columns it cuts are the guard's on the cells it counts
    rng = np.random.default_rng(12)
    cells = np.column_stack([
        (rng.random(20) < 0.5).astype(float), rng.normal(size=20), np.zeros(20)
    ])
    cells[:3, 2] = 1.0  # a column that only three cells set
    counts = rng.choice([0.0, 1.0, 5.0], size=(40, 20))
    counts[:, 3] = 1.0
    # targets realized by positive weights on each problem's own cells
    mass = counts * rng.uniform(0.5, 2.0, size=counts.shape)
    targets = mass @ cells / mass.sum(axis=1, keepdims=True)
    names = ("a", "b", "c")
    problem = CalibrationProblem(cells, targets[0], column_names=names)
    outcomes = calibrate.solve_many(problem, targets, mass, counts)
    assert any(o.dropped_columns for o in outcomes)
    assert not all(o.dropped_columns for o in outcomes)
    for outcome, row in zip(outcomes, counts):
        own = row > 0
        assert isinstance(outcome, calibrate.WeightVector)
        (verdict,) = rank_guard(cells[own], row[own])
        assert outcome.dropped_columns == tuple(names[j] for j in verdict)


def qr_path(matrix, counts=None):
    """The rank guard on a (B, n) stack of counts (one row of 1s by
    default) with the Gram certificate recorded and then overruled, so that
    every problem takes the QR path: the QR's verdicts, and which problems
    the certificate would have settled as full rank."""
    said = []

    def overruled(*args):
        said.append(_gram_certifies(*args))
        return np.zeros_like(said[-1])

    with mock.patch("surveysense.calibrate._gram_certifies", overruled):
        verdicts = rank_guard(matrix, np.ones(len(matrix)) if counts is None else counts)
    return verdicts, said[0].tolist()


@SETTINGS
@given(problems(), st.data())
def test_gram_certificate_never_skips_a_design_the_qr_cuts(problem, draw):
    # the property tests' adversarial designs as rows, and under a stack of
    # positive counts
    (verdict,), (certified,) = qr_path(problem.matrix)
    assert verdict == () or not certified
    assert check_rank(problem.matrix) == verdict
    stack = np.asarray(draw.draw(st.lists(
        st.lists(st.sampled_from([1.0, 2.0, 7.0, 1e3, 1e6]),
                 min_size=problem.n, max_size=problem.n),
        min_size=1, max_size=4,
    )))
    verdicts, certified = qr_path(problem.matrix, stack)
    event(f"certified {sum(certified)} of {len(stack)}")
    for settled, cut in zip(certified, verdicts):
        assert cut == () or not settled
    assert rank_guard(problem.matrix, stack) == verdicts


def test_gram_certificate_refuses_the_designs_the_qr_cuts_or_nearly_cuts():
    cells = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1e-9]])
    counts = np.array([5000.0, 5000.0, 1.0])
    rows = np.repeat(cells, [5000, 5000, 1], axis=0)
    assert qr_path(cells, counts) == ([(1,)], [False])
    assert qr_path(rows) == ([(1,)], [False])
    rng = np.random.default_rng(14)
    for n in (400, 5000, 30000):
        matrix = np.column_stack([
            rng.normal(size=n), (rng.random(n) < 0.3).astype(float), rng.normal(size=n)
        ])
        matrix[:, 2] = matrix[:, 0]
        counts = rng.choice([1.0, 2.0, 7.0, 1e3, 1e6], size=n)
        assert qr_path(matrix) == ([(2,)], [False])
        assert qr_path(matrix, counts) == ([(2,)], [False])
    constant = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
    assert qr_path(constant) == ([(1,)], [False])
    x = np.array([0.2, 0.5, 0.9])
    noisy = np.column_stack([x, x + 1e-6 * np.array([1.0, -1.0, 0.5])])
    assert qr_path(noisy)[1] == [False]


def test_a_well_conditioned_design_never_reaches_the_qr(monkeypatch):
    # the certificate settles it, so the n-row QR, the cost the certificate
    # exists to skip, is never called: alone, as cells with counts, and as a
    # stack of three problems with their own counts
    rng = np.random.default_rng(15)
    n = 10_000
    matrix = np.column_stack([
        rng.normal(size=n) if j % 2 else (rng.random(n) < 0.3).astype(float)
        for j in range(17)
    ])
    counts = rng.integers(0, 6, size=(3, n)).astype(float) + 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("the rank guard ran its n-row QR")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert check_rank(matrix) == ()
    assert rank_guard(matrix, counts[0]) == [()]
    assert rank_guard(matrix, counts) == [(), (), ()]


def test_first_newton_direction_keeps_the_digits_a_heavy_cell_cancels():
    # one cell carries nearly all the mass, so the mean sits next to its
    # value: E[ff'] - mm' cancelled all but 1e-10 of E[ff'] and moved the
    # first direction by 8.5e-5; the centred form must match exact
    # arithmetic on the same probabilities
    cells = np.array([[-0.7], [1.3]])
    mass = np.array([2.5e-4, 9.8e6])
    target = 0.5
    seen = []
    solve = calibrate._solve

    def recording(hess, rhs):
        seen.append((hess.copy(), rhs.copy()))
        return solve(hess, rhs)

    with mock.patch.object(calibrate, "_solve", recording), \
            mock.patch.object(calibrate, "MAX_ITER", 1):
        calibrate.solve_many(CalibrationProblem(cells, [target]), [target], mass, np.ones(2))
    hess, rhs = seen[0]
    first = rhs[0, 0] / hess[0, 0, 0]
    prob, _ = calibrate._states(cells.T, np.log(mass / mass.sum())[None], np.zeros((1, 1)),
                                np.array([[target]]))
    p = [Fraction(float(v)) for v in prob[0]]
    f = [Fraction(float(v)) for v in cells[:, 0]]
    mean = sum(pi * fi for pi, fi in zip(p, f)) / sum(p)
    curvature = sum(pi * (fi - mean) ** 2 for pi, fi in zip(p, f)) / sum(p)
    exact = -(mean - Fraction(target)) / curvature
    assert abs(first - float(exact)) <= 1e-12 * abs(float(exact))


def test_solve_many_failure_reasons():
    # four problems over one set of cells; x3 equals x1 except on cell 4
    cells = np.array([
        [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0],
        [1.0, 0.0, 0.0],
    ])
    template = CalibrationProblem(cells, np.full(3, 0.5), column_names=("x1", "x2", "x3"))
    counts = np.ones((4, 5))
    counts[2, 4] = 0.0  # without cell 4 the guard must drop x3
    targets = np.array([
        [0.6, 0.5, 0.4],  # feasible
        [1.2, 0.5, 0.4],  # x1 outside its range
        [0.6, 0.5, 0.4],  # x3 = x1 on these cells, with another target
        [0.6, 0.5, 0.4],  # feasible, but three steps from a far start
    ])
    warm = np.zeros((4, 3))
    solved = calibrate.solve_raking(replace(template, targets=targets[0]))
    warm[0] = solved.dual
    warm[3] = [9.0, -9.0, 9.0]
    with mock.patch.object(calibrate, "MAX_ITER", 3):
        results = calibrate.solve_many(template, targets, counts, counts, warm_start=warm)
    reasons = [calibrate.failure_reason(r) for r in results]
    assert reasons == [None, "infeasible", "rank_deficient", "not_converged"]
    np.testing.assert_allclose(results[0].values, solved.values, rtol=0.0, atol=1e-12)
    assert results[2].joint and results[1].constraint == "x1"
    assert results[2].dropped_columns == ("x3",) and results[1].dropped_columns == ()


@pytest.mark.parametrize("seed, reasons", [
    (19, ["not_converged"] * 4 + ["infeasible", "not_converged"]),
    (7, ["not_converged"] * 5 + ["infeasible"]),
])
def test_an_overflowing_stack_solves_without_runtime_warnings(seed, reasons):
    # columns 1-3 are each under 1e-7 wide, so five iterations drive the
    # duals past 1e154: at seed 7 a candidate step overflowed to inf, and at
    # seed 19 the norm of a finite dual overflowed in its squares. The
    # reasons (each outcome's type and converged flag) are those the solver
    # gave with every floating-point warning ignored.
    rng = np.random.default_rng(seed)
    cols = [rng.normal(size=7)]
    for _ in range(3):
        cols.append(rng.uniform(-1, 1) + rng.uniform(1e-9, 9e-8) * rng.random(7))
    cells = np.column_stack(cols)
    counts = rng.integers(0, 4, (6, 7)).astype(float)
    counts[:, 0] += 1.0
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    targets = lo + (hi - lo) * rng.uniform(0.05, 0.95, (6, 4))
    problem = CalibrationProblem(cells, targets[0])
    with mock.patch.object(calibrate, "MAX_ITER", 5):
        outcomes = calibrate.solve_many(problem, targets, counts + (counts == 0), counts)
    assert [calibrate.failure_reason(o) for o in outcomes] == reasons
    for outcome in outcomes:
        if isinstance(outcome, calibrate.WeightVector):
            assert np.isfinite(outcome.diagnostics.dual_norm)


def rank_guard_failure_reason(outcome, matrix, row_counts):
    """The two-argument ``failure_reason`` that ran the rank guard again on
    a failed problem's cells and counts, kept as the oracle of the
    one-argument form, which reads the columns the solver's guard cut."""
    if isinstance(outcome, InfeasibleTargetsError):
        if outcome.joint and rank_guard(matrix, row_counts)[0]:
            return "rank_deficient"
        return "infeasible"
    return None if outcome.diagnostics.converged else "not_converged"


@st.composite
def resampled_cell_stacks(draw):
    """A design of 2 to 8 cells and a stack of bootstrap-like resamples of
    it: multinomial counts that may leave cells out, each with its own base
    mass. Columns are binary or continuous, nearly equal to an earlier
    column, or an exact combination of earlier ones but on the rarest cell,
    so a resample that misses that cell makes the design rank deficient.
    Targets are realized by positive weights on every cell, drawn per
    column (often jointly infeasible), or put outside one column's range;
    a resample may also make a realized target unattainable."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 8))
    share = rng.dirichlet(np.full(k, draw(st.sampled_from([0.3, 1.0, 5.0]))))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["binary", "continuous", "near", "combination"]))
        if kind == "near" and cols:
            scale = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
            cols.append(cols[int(rng.integers(len(cols)))] + scale * rng.normal(size=k))
        elif kind == "combination" and cols:
            col = rng.choice([1.0, -2.0]) * cols[int(rng.integers(len(cols)))]
            col += cols[int(rng.integers(len(cols)))] if rng.random() < 0.5 else 0.0
            col[int(np.argmin(share))] += 1.0
            cols.append(col)
        elif kind == "binary":
            cols.append((rng.random(k) < 0.5).astype(float))
        else:
            cols.append(rng.normal(size=k))
    cells = np.column_stack(cols)
    p = cells.shape[1]
    rows = draw(st.sampled_from([5, 12, 40, 200]))
    counts = rng.multinomial(rows, share, size=draw(st.integers(1, 6))).astype(float)
    mass = counts * 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    mode = draw(st.sampled_from(["realized", "independent", "outside"]))
    if mode == "independent":
        lo, hi = cells.min(axis=0), cells.max(axis=0)
        targets = lo + rng.uniform(0.05, 0.95, size=p) * (hi - lo)
    else:
        w = np.exp(rng.normal(size=k))
        targets = cells.T @ w / w.sum()
        if mode == "outside":
            targets[int(rng.integers(p))] = cells.max() + 0.1
    problem = CalibrationProblem(cells, targets, column_names=tuple(f"c{j}" for j in range(p)))
    return problem, mass, counts, draw(st.sampled_from([5, 200]))


@SETTINGS
@given(resampled_cell_stacks())
def test_failure_reason_matches_the_rank_guard_oracle(drawn):
    # the reason the solver records equals the one found by running the
    # rank guard again on each failed problem's own cells and counts
    problem, mass, counts, max_iter = drawn
    with mock.patch.object(calibrate, "MAX_ITER", max_iter):
        outcomes = calibrate.solve_many(problem, base_weights=mass, row_counts=counts)
    for outcome, row in zip(outcomes, counts):
        own = row > 0
        reason = calibrate.failure_reason(outcome)
        event(f"reason {reason}")
        assert reason == rank_guard_failure_reason(outcome, problem.matrix[own], row[own])


def random_problem(seed, n=2000, max_p=30):
    """Feasible by construction: targets realized by positive weights."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(5, max_p + 1))
    cols = []
    for _ in range(p):
        if rng.random() < 0.5:
            cols.append((rng.random(n) < rng.uniform(0.2, 0.8)).astype(float))
        else:
            cols.append(rng.normal(size=n))
    matrix = np.column_stack(cols)
    w0 = np.exp(0.3 * rng.normal(size=n))
    w0 /= w0.mean()
    return CalibrationProblem(matrix, matrix.T @ w0 / n)


class TestSolveRaking:
    @staticmethod
    def test_two_cell_closed_form(two_cell_problem):
        problem, expected = two_cell_problem
        result = solve_raking(problem)
        assert result.diagnostics.converged
        np.testing.assert_allclose(result.values, expected, rtol=1e-10)
        assert result.values.mean() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def test_margins_hit_at_tolerance():
        problem = random_problem(3)
        result = solve_raking(problem)
        assert result.diagnostics.converged
        assert result.diagnostics.max_violation <= 1e-8
        achieved = problem.matrix.T @ result.values / problem.n
        np.testing.assert_allclose(achieved, problem.targets, atol=2e-8)

    @staticmethod
    def test_warm_start_reuses_dual():
        problem = random_problem(4)
        cold = solve_raking(problem)
        (warm,) = solve_many(problem, warm_start=cold.dual)
        assert warm.diagnostics.converged
        assert warm.diagnostics.iterations <= cold.diagnostics.iterations
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-7)

    @staticmethod
    def test_base_weights_shift_solution(two_cell_problem):
        problem, _ = two_cell_problem
        base = np.array([2.0, 1.0, 1.0, 1.0])
        tilted = solve_raking(
            CalibrationProblem(
                problem.matrix, problem.targets, base_weights=base
            )
        )
        # within the x = 1 cell, weights stay proportional to the base
        assert tilted.values[0] == pytest.approx(2 * tilted.values[1], rel=1e-9)
        achieved = problem.matrix[:, 0] @ tilted.values / 4
        assert achieved == pytest.approx(0.75, abs=1e-9)

    @staticmethod
    def test_marginal_infeasibility_names_constraint():
        matrix = np.array([[1.0, 0.3], [0.0, -1.2], [1.0, 0.8], [0.0, 0.1]])
        problem = CalibrationProblem(
            matrix, np.array([1.2, 0.0]), column_names=("voted", "z")
        )
        with pytest.raises(InfeasibleTargetsError) as info:
            solve_raking(problem)
        assert info.value.constraint == "voted"
        assert "not attainable" in str(info.value)

    @staticmethod
    def test_boundary_target_rejected(two_cell_problem):
        problem, _ = two_cell_problem
        at_edge = CalibrationProblem(
            problem.matrix, np.array([1.0]), column_names=("x",)
        )
        with pytest.raises(InfeasibleTargetsError):
            solve_raking(at_edge)

    @staticmethod
    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-10, 5e-13])
    def test_target_within_tol_of_an_idle_column_converges(offset):
        # the second column is 1e-12 wide, so any weights meet a target
        # within TOL of both its ends, its own ends included
        rng = np.random.default_rng(5)
        x = (rng.random(50) < 0.4).astype(float)
        idle = np.full(50, 0.3)
        idle[::2] += 1e-12
        problem = CalibrationProblem(np.column_stack([x, idle]), [0.4, 0.3 + offset])
        result = solve_raking(problem)
        assert result.diagnostics.converged
        assert abs(idle @ result.values / 50 - (0.3 + offset)) <= abs(offset) + 2e-12

    @staticmethod
    def test_target_past_tol_of_an_idle_column_is_refused():
        idle = np.full(50, 0.3)
        idle[::2] += 1e-12
        x = np.resize([0.0, 1.0, 1.0], 50)
        problem = CalibrationProblem(np.column_stack([x, idle]), [0.4, 0.3 - 2e-8],
                                     column_names=("x", "idle"))
        with pytest.raises(InfeasibleTargetsError) as info:
            solve_raking(problem)
        assert info.value.constraint == "idle" and not info.value.joint

    @staticmethod
    def test_joint_infeasibility_detected(monkeypatch):
        # weighted mean of x1*x2 can never exceed that of x1
        rng = np.random.default_rng(11)
        x1 = (rng.random(400) < 0.5).astype(float)
        x2 = (rng.random(400) < 0.5).astype(float)
        problem = CalibrationProblem(
            np.column_stack([x1, x1 * x2]),
            np.array([0.3, 0.5]),
            column_names=("x1", "x1:x2"),
        )
        phase1 = calibrate._classify_failure
        calls = []
        monkeypatch.setattr(
            calibrate, "_classify_failure", lambda *a: calls.append(a) or phase1(*a)
        )
        with pytest.raises(InfeasibleTargetsError) as info:
            solve_raking(problem)
        assert info.value.joint
        assert "jointly" in str(info.value)
        assert len(calls) == 1  # certified once, where Newton first stalls

    @staticmethod
    def test_joint_gap_below_certification_returns_unconverged():
        # x1:x2 asks 5e-8 above x1: infeasible, but by less than the phase-1
        # program certifies (1e-7), so the best iterate comes back flagged
        rng = np.random.default_rng(11)
        x1 = (rng.random(400) < 0.5).astype(float)
        x2 = (rng.random(400) < 0.5).astype(float)
        problem = CalibrationProblem(
            np.column_stack([x1, x1 * x2]),
            np.array([0.3, 0.3 + 5e-8]),
            column_names=("x1", "x1:x2"),
        )
        result = solve_raking(problem)
        assert not result.diagnostics.converged
        assert result.diagnostics.fallback_sweeps > 0
        assert 1e-8 < result.diagnostics.max_violation < 1e-7

    @staticmethod
    def test_row_counts_rank_guard_matches_expanded_rows():
        # b departs from a by 1e-9 on a single row out of 10,001: dependent
        # at the rank guard's tolerance on the rows, independent on three
        # unweighted cells, dependent again once cells carry their counts
        cells = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1e-9]])
        counts = np.array([5000.0, 5000.0, 1.0])
        targets = np.array([0.5, 0.5])
        names = ("a", "b")
        rows = CalibrationProblem(np.repeat(cells, [5000, 5000, 1], axis=0), targets,
                                  column_names=names)
        unweighted = CalibrationProblem(cells, targets, column_names=names,
                                        base_weights=counts)
        by_rows = solve_raking(rows)
        (by_cells,) = solve_many(unweighted, row_counts=counts)
        assert by_rows.diagnostics.dropped_columns == ("b",)
        assert by_cells.diagnostics.dropped_columns == ("b",)
        assert solve_raking(unweighted).diagnostics.dropped_columns == ()
        per_row = np.repeat(by_cells.values * (rows.n / 3) / counts, [5000, 5000, 1])
        np.testing.assert_allclose(by_rows.values, per_row, rtol=1e-12)

    @staticmethod
    def test_row_counts_rank_guard_matches_full_row_oracle():
        cells = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1e-9]])
        counts = np.array([5000.0, 5000.0, 1.0])
        rows = np.repeat(cells, [5000, 5000, 1], axis=0)
        assert rank_guard(cells, counts) == [full_row_rank_guard(cells, counts)] == [(1,)]
        assert check_rank(rows) == full_row_rank_guard(rows) == (1,)
        assert check_rank(cells) == full_row_rank_guard(cells) == ()

    @staticmethod
    def test_duplicate_column_dropped_but_verified():
        rng = np.random.default_rng(5)
        x = rng.normal(size=100)
        agreeing = CalibrationProblem(
            np.column_stack([x, x]), np.array([0.1, 0.1]), column_names=("a", "b")
        )
        result = solve_raking(agreeing)
        assert result.diagnostics.dropped_columns == ("b",)
        assert result.diagnostics.converged
        # a conflicting copy is jointly infeasible, not silently dropped
        conflicting = CalibrationProblem(
            np.column_stack([x, x]), np.array([0.1, 0.3]), column_names=("a", "b")
        )
        with pytest.raises(InfeasibleTargetsError) as info:
            solve_raking(conflicting)
        assert info.value.joint


def test_weighted_mean_matches_ratio_form():
    y = np.array([1.0, 2.0, 3.0])
    w = np.array([3.0, 1.0, 2.0])
    assert weighted_mean(y, w) == pytest.approx(11.0 / 6.0)


def test_weighted_se_uniform_weights():
    y = np.array([0.0, 1.0, 2.0, 3.0])
    # reduces to population sd over sqrt(n) when weights are flat
    assert weighted_se(y, np.ones(4)) == pytest.approx(math.sqrt(5.0) / 4.0)


def test_weighted_se_scale_invariant_in_weights():
    rng = np.random.default_rng(8)
    y = rng.normal(size=50)
    w = rng.uniform(0.5, 2.0, size=50)
    assert weighted_se(y, w) == pytest.approx(weighted_se(y, 10 * w))


def test_oracle_ipw_normalizes_to_mean_one():
    w = oracle_ipw(np.array([0.2, 0.4]))
    np.testing.assert_allclose(w, [4.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
    with pytest.raises(ValueError):
        oracle_ipw(np.array([0.0, 0.5]))


def test_balance_table_gaps_close_after_weighting(two_cell_problem):
    problem, expected = two_cell_problem
    rows = balance_table(problem, expected)
    assert rows[0]["column"] == "x"
    assert rows[0]["unweighted"] == pytest.approx(0.5)
    assert rows[0]["weighted"] == pytest.approx(0.75)
    assert abs(rows[0]["weighted"] - rows[0]["target"]) < 1e-12
    assert balance_table(problem, 3.0 * expected)[0]["weighted"] == pytest.approx(0.75)
