"""Raking solver: closed forms, feasibility screening, estimator helpers."""

import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st
from test_calibrate_properties import SETTINGS, problems

from surveysense import (
    CalibrationProblem,
    InfeasibleTargetsError,
    balance_table,
    calibrate,
    entropy_divergence,
    oracle_ipw,
    solve_raking,
    weighted_mean,
    weighted_se,
)
from surveysense.data import _gram_certifies, check_rank


def full_row_rank_guard(matrix, row_counts=None):
    """The rank guard with scipy's pivoted QR over all n rows, kept as the
    oracle for ``check_rank``, which pivots only the (p+1)-row R factor."""
    import scipy.linalg

    scale = np.maximum(np.abs(matrix).max(axis=0), 1e-300)
    augmented = np.column_stack([np.ones(len(matrix)), matrix / scale])
    if row_counts is not None:
        augmented *= np.sqrt(row_counts)[:, None]
    r, pivots = scipy.linalg.qr(augmented, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * max(diag[0], 1.0)))
    dropped = sorted(int(j) - 1 for j in pivots[rank:] if j > 0)
    if 0 in pivots[rank:]:
        constants = [j for j in range(matrix.shape[1]) if np.ptp(matrix[:, j]) == 0.0]
        dropped = sorted(set(dropped) | set(constants))
    return tuple(dropped)


def assert_rank_guard_matches_oracle(matrix, counts=None):
    got, want = check_rank(matrix, counts), full_row_rank_guard(matrix, counts)
    if got != want:
        # An exact tie in pivoting (a duplicated column, or equal norms left
        # once the intercept is taken) is broken by rounding, differently in
        # the two factorizations. Which tied column goes is then arbitrary,
        # but the guard must drop as many and keep a basis of the same span.
        event("tie broken differently")
        assert len(got) == len(want)
        kept = [j for j in range(matrix.shape[1]) if j not in got]
        assert full_row_rank_guard(matrix[:, kept], counts) == ()


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
    # Pivoting takes the earliest of tied columns, so the later of two equal
    # columns is the one dropped whatever the rounding: as rows, as cells
    # with counts, and in the design where the guard that pivoted with
    # scipy dropped the first of the pair
    found = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    assert check_rank(found) == (1,)
    assert check_rank(found, np.array([1e6, 1e6, 1.0])) == (1,)
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
            assert check_rank(matrix) == check_rank(matrix, counts) == (second,)


def test_stacked_counts_judge_each_problem_on_its_own_rows():
    # a (B, n) stack of counts gives each problem the verdict of its own
    # rows, rows with count 0 left out
    rng = np.random.default_rng(12)
    cells = np.column_stack([
        (rng.random(20) < 0.5).astype(float), rng.normal(size=20), np.zeros(20)
    ])
    cells[:3, 2] = 1.0  # a column that only three cells set
    counts = rng.choice([0.0, 1.0, 5.0], size=(40, 20))
    counts[:, 3] = 1.0
    stacked = check_rank(cells, counts)
    assert any(stacked) and not all(stacked)
    for row, verdict in zip(counts, stacked):
        own = row > 0
        assert verdict == check_rank(cells[own], row[own])


def qr_path(matrix, counts=None):
    """``check_rank`` with the Gram certificate recorded and then overruled,
    so that every problem takes the QR path: the QR's verdicts, and which
    problems the certificate would have settled as full rank."""
    said = []

    def overruled(*args):
        said.append(_gram_certifies(*args))
        return np.zeros_like(said[-1])

    with mock.patch("surveysense.data._gram_certifies", overruled):
        verdicts = check_rank(matrix, counts)
    return verdicts, said[0]


@SETTINGS
@given(problems(), st.data())
def test_gram_certificate_never_skips_a_design_the_qr_cuts(problem, draw):
    # the property tests' adversarial designs as rows, and under a stack of
    # counts in which a row may be absent (count 0) from a problem
    verdict, certified = qr_path(problem.matrix)
    assert verdict == () or not certified[0]
    assert check_rank(problem.matrix) == verdict
    stack = np.asarray(draw.draw(st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 7.0, 1e3, 1e6]),
                 min_size=problem.n, max_size=problem.n),
        min_size=1, max_size=4,
    )))
    stack[~stack.any(axis=1), 0] = 1.0  # every problem keeps a row, as in solve_many
    verdicts, certified = qr_path(problem.matrix, stack)
    event(f"certified {certified.sum()} of {len(stack)}")
    for settled, cut in zip(certified, verdicts):
        assert cut == () or not settled
    assert check_rank(problem.matrix, stack) == verdicts


def test_gram_certificate_refuses_the_designs_the_qr_cuts_or_nearly_cuts():
    cells = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1e-9]])
    counts = np.array([5000.0, 5000.0, 1.0])
    rows = np.repeat(cells, [5000, 5000, 1], axis=0)
    assert qr_path(cells, counts) == ((1,), [False])
    assert qr_path(rows) == ((1,), [False])
    rng = np.random.default_rng(14)
    for n in (400, 5000, 30000):
        matrix = np.column_stack([
            rng.normal(size=n), (rng.random(n) < 0.3).astype(float), rng.normal(size=n)
        ])
        matrix[:, 2] = matrix[:, 0]
        counts = rng.choice([1.0, 2.0, 7.0, 1e3, 1e6], size=n)
        assert qr_path(matrix) == ((2,), [False])
        assert qr_path(matrix, counts) == ((2,), [False])
    constant = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
    assert qr_path(constant) == ((1,), [False])
    x = np.array([0.2, 0.5, 0.9])
    noisy = np.column_stack([x, x + 1e-6 * np.array([1.0, -1.0, 0.5])])
    assert not qr_path(noisy)[1].any()


def test_a_well_conditioned_design_never_reaches_the_qr(monkeypatch):
    # the certificate settles it, so the n-row QR, the cost the certificate
    # exists to skip, is never called: alone, as cells with counts, and as a
    # stack of three whose problems each leave out some rows
    rng = np.random.default_rng(15)
    n = 10_000
    matrix = np.column_stack([
        rng.normal(size=n) if j % 2 else (rng.random(n) < 0.3).astype(float)
        for j in range(17)
    ])
    counts = rng.integers(0, 6, size=(3, n)).astype(float)

    def refuse(*args, **kwargs):
        raise AssertionError("the rank guard ran its n-row QR")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert check_rank(matrix) == ()
    assert check_rank(matrix, counts[0] + 1.0) == ()
    assert check_rank(matrix, counts) == [(), (), ()]


def test_rank_guard_gives_a_problem_without_rows_every_column():
    # a problem whose counts are all 0 has no rows, so each of its columns
    # is constant there; alone, and in a stack beside problems with rows
    assert check_rank(np.array([[0.0]])) == (0,)
    assert check_rank(np.array([[0.0]]), np.array([[0.0]])) == [(0,)]
    cells = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 0.5]])
    counts = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert check_rank(cells, counts) == [(), (0, 1), (0, 1)]


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

    with mock.patch.object(calibrate, "_solve", recording):
        calibrate.solve_many(
            CalibrationProblem(cells, [target], max_iter=1), [target], mass, np.ones(2)
        )
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
    template = CalibrationProblem(
        cells, np.full(3, 0.5), column_names=("x1", "x2", "x3"), max_iter=3
    )
    counts = np.ones((4, 5))
    counts[2, 4] = 0.0  # without cell 4 the guard must drop x3
    targets = np.array([
        [0.6, 0.5, 0.4],  # feasible
        [1.2, 0.5, 0.4],  # x1 outside its range
        [0.6, 0.5, 0.4],  # x3 = x1 on these cells, with another target
        [0.6, 0.5, 0.4],  # feasible, but three steps from a far start
    ])
    warm = np.zeros((4, 3))
    solved = calibrate.solve_raking(replace(template, targets=targets[0], max_iter=200))
    warm[0] = solved.dual
    warm[3] = [9.0, -9.0, 9.0]
    results = calibrate.solve_many(template, targets, counts, counts, warm_start=warm)
    reasons = [
        calibrate.failure_reason(r, cells[row > 0], row[row > 0])
        for r, row in zip(results, counts)
    ]
    assert reasons == [None, "infeasible", "rank_deficient", "not_converged"]
    np.testing.assert_allclose(results[0].values, solved.values, rtol=0.0, atol=1e-12)
    assert results[2].joint and results[1].constraint == "x1"


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
        warm = solve_raking(problem, warm_start=cold.dual)
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
        weighted = CalibrationProblem(cells, targets, column_names=names,
                                      base_weights=counts, row_counts=counts)
        unweighted = CalibrationProblem(cells, targets, column_names=names,
                                        base_weights=counts)
        by_rows = solve_raking(rows)
        by_cells = solve_raking(weighted)
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
        assert check_rank(cells, counts) == full_row_rank_guard(cells, counts) == (1,)
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


def test_entropy_divergence_zero_at_base():
    assert entropy_divergence(np.ones(10)) == pytest.approx(0.0, abs=1e-15)
    assert entropy_divergence(np.array([2.0, 1.0, 1.0])) > 0.0


def test_balance_table_gaps_close_after_weighting(two_cell_problem):
    problem, expected = two_cell_problem
    rows = balance_table(problem, expected)
    assert rows[0]["constraint"] == "x"
    assert rows[0]["unweighted"] == pytest.approx(0.5)
    assert rows[0]["weighted"] == pytest.approx(0.75)
    assert abs(rows[0]["gap"]) < 1e-12
    assert balance_table(problem, 3.0 * expected)[0]["weighted"] == pytest.approx(0.75)
