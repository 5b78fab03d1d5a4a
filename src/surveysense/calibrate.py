"""Entropy-divergence calibration of survey weights to population margins.

The primal problem minimizes sum(w_i log(w_i / q_i)) over weights with mean 1
subject to (1/n) sum(w_i f(X_i)) = T. Solving happens in the dual: weights are
an exponential tilt of the base weights, w_i(lam) = n softmax(log q_i +
f_i'lam), and the dual objective

    F(lam) = logsumexp(log q_i + f_i' lam) - lam' T

is smooth and convex with gradient equal to the constraint violation. A damped
Newton iteration with backtracking line search drives the violation below
``tol``; when the Hessian is ill conditioned the solver falls back to
coordinate-wise tilting (the classic one-margin-at-a-time update, exact for
0/1 columns). Targets outside the achievable range raise
``InfeasibleTargetsError`` naming the violated constraint; jointly
infeasible targets are certified by a phase-1 linear program as soon as
Newton first gives way to coordinate sweeps, instead of after ``max_iter``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .data import check_rank
from .errors import InfeasibleTargetsError

logger = logging.getLogger(__name__)

#: Hessian condition number beyond which Newton hands over to coordinate sweeps
ILL_CONDITIONED = 1e10

#: minimal phase-1 slack above which targets are reported jointly infeasible
INFEASIBLE_SLACK = 1e-7

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class RakingDiagnostics:
    converged: bool
    iterations: int
    max_violation: float
    dual_norm: float
    objective_trace: tuple[float, ...]
    newton_steps: int
    fallback_sweeps: int
    dropped_columns: tuple[str, ...]
    message: str = ""


@dataclass(frozen=True)
class WeightVector:
    """Solved weights (mean 1, strictly positive) with solve metadata.

    ``dual`` holds the tilt coefficients aligned with ``constraint_ids``
    (the enforced columns after any rank-guard drops); reuse it as a warm
    start for nearby problems.
    """

    values: np.ndarray
    dual: np.ndarray
    constraint_ids: tuple[str, ...]
    diagnostics: RakingDiagnostics


@dataclass(frozen=True)
class CalibrationProblem:
    """Design matrix, targets, and solver settings for one calibration.

    A row may stand for several identical respondent rows (a weighted
    design cell): ``row_counts`` then holds each row's multiplicity and
    ``base_weights`` the cell's total base mass. The dual only sees that
    mass, and the rank guard weighs each row by its count, so the solve
    decides exactly as it would on the expanded rows.
    """

    matrix: np.ndarray  # (n, p)
    targets: np.ndarray  # (p,)
    column_names: tuple[str, ...] | None = None
    column_sources: tuple[frozenset, ...] | None = None
    base_weights: np.ndarray | None = None
    tol: float = 1e-8
    max_iter: int = 200
    row_counts: np.ndarray | None = None

    def __post_init__(self):
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        targets = np.atleast_1d(np.asarray(self.targets, dtype=np.float64))
        if matrix.shape[1] != targets.shape[0]:
            raise ValueError(
                f"{matrix.shape[1]} design columns but {targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(matrix)) or not np.all(np.isfinite(targets)):
            raise ValueError("design and targets must be finite")
        names = self.column_names
        if names is None:
            names = tuple(f"c{j}" for j in range(matrix.shape[1]))
        if len(names) != matrix.shape[1]:
            raise ValueError("column_names length differs from design columns")
        if self.column_sources is not None and len(self.column_sources) != matrix.shape[1]:
            raise ValueError("column_sources length differs from design columns")
        base = self.base_weights
        if base is not None:
            base = np.asarray(base, dtype=np.float64)
            if base.shape[0] != matrix.shape[0]:
                raise ValueError("base_weights length differs from rows")
            if not np.all(np.isfinite(base)) or np.any(base <= 0):
                raise ValueError("base_weights must be positive and finite")
        counts = self.row_counts
        if counts is not None:
            counts = np.asarray(counts, dtype=np.float64)
            if counts.shape[0] != matrix.shape[0]:
                raise ValueError("row_counts length differs from rows")
            if not np.all(np.isfinite(counts)) or np.any(counts <= 0):
                raise ValueError("row_counts must be positive and finite")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "column_names", tuple(names))
        object.__setattr__(self, "base_weights", base)
        object.__setattr__(self, "row_counts", counts)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    def sources_for(self, j: int) -> frozenset:
        if self.column_sources is not None:
            return self.column_sources[j]
        return frozenset({self.column_names[j]})


def _check_marginal_feasibility(problem: CalibrationProblem) -> None:
    """Each target must lie strictly inside the column's sample range.

    Boundary targets are rejected: entropy weights are strictly positive,
    so a weighted mean can approach but never reach the extremes.
    """
    for j in range(problem.p):
        col = problem.matrix[:, j]
        lo = float(col.min())
        hi = float(col.max())
        t = float(problem.targets[j])
        if hi == lo:
            if abs(t - lo) > 1e-9 * max(1.0, abs(lo)):
                raise InfeasibleTargetsError(problem.column_names[j], t, (lo, hi))
            continue
        if not (lo < t < hi):
            raise InfeasibleTargetsError(problem.column_names[j], t, (lo, hi))


def _classify_failure(
    problem: CalibrationProblem, threshold: float = INFEASIBLE_SLACK
) -> np.ndarray | None:
    """Distinguish jointly infeasible targets from plain non-convergence.

    Runs a phase-1 feasibility program over the probability simplex with
    per-constraint slack; a minimal total slack above ``threshold`` proves
    infeasibility and the largest slack names the constraint. Otherwise
    returns the slack (None when the program fails) for later reuse.
    """
    from scipy.optimize import linprog

    n, p = problem.n, problem.p
    c = np.concatenate([np.zeros(n), np.ones(2 * p)])
    a_eq = np.zeros((p + 1, n + 2 * p))
    a_eq[:p, :n] = problem.matrix.T
    a_eq[:p, n : n + p] = -np.eye(p)
    a_eq[:p, n + p :] = np.eye(p)
    a_eq[p, :n] = 1.0
    b_eq = np.concatenate([problem.targets, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return None
    slack = res.x[n : n + p] + res.x[n + p :]
    if slack.sum() > threshold:
        _raise_joint(problem, slack)
    return slack


def _raise_joint(problem: CalibrationProblem, slack: np.ndarray) -> NoReturn:
    j = int(np.argmax(slack))
    col = problem.matrix[:, j]
    raise InfeasibleTargetsError(
        problem.column_names[j],
        float(problem.targets[j]),
        (float(col.min()), float(col.max())),
        joint=True,
    )


def solve_raking(
    problem: CalibrationProblem,
    *,
    warm_start: np.ndarray | None = None,
    debug: bool = False,
) -> WeightVector:
    """Solve the calibration problem.

    Parameters
    ----------
    problem : CalibrationProblem
    warm_start : array, optional
        Dual coefficients aligned with the problem's columns, e.g. from a
        previous solve of a nearby problem.
    debug : bool
        Assert that the dual objective never increases between iterations.

    Returns
    -------
    WeightVector
        Strictly positive weights normalized to mean 1. If the iteration
        limit is hit on a feasible problem the best iterate is returned
        with ``diagnostics.converged`` False and a warning is logged;
        infeasible targets raise ``InfeasibleTargetsError`` instead.

    The phase-1 program runs at most once per solve: at the first
    iteration where Newton gives way to coordinate sweeps, raising there
    when its minimal total slack exceeds both ``INFEASIBLE_SLACK`` and
    ``p * tol`` (no iterate can then meet ``tol``), and otherwise kept
    for the verdict after the last iteration.
    """
    n = problem.n
    q = problem.base_weights if problem.base_weights is not None else np.ones(n)
    log_q = np.log(q / q.sum())

    if problem.p == 0:
        w = q / q.mean()
        diag = RakingDiagnostics(
            converged=True, iterations=0, max_violation=0.0, dual_norm=0.0,
            objective_trace=(), newton_steps=0, fallback_sweeps=0,
            dropped_columns=(), message="no constraints; base weights returned",
        )
        return WeightVector(w, np.zeros(0), (), diag)

    _check_marginal_feasibility(problem)
    dropped_idx = check_rank(problem.matrix, problem.row_counts)
    kept = np.asarray([j for j in range(problem.p) if j not in dropped_idx], dtype=int)
    dropped_names = tuple(problem.column_names[j] for j in dropped_idx)
    if dropped_names:
        logger.warning("dropping dependent constraint columns: %s", ", ".join(dropped_names))

    phi = np.ascontiguousarray(problem.matrix[:, kept])
    t = problem.targets[kept]
    names = tuple(problem.column_names[j] for j in kept)
    p_cols = phi.shape[1]
    binary_col = [bool(np.all(np.isin(phi[:, j], (0.0, 1.0)))) for j in range(p_cols)]

    lam = np.zeros(p_cols)
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=np.float64)
        if ws.shape[0] == problem.p:
            lam = ws[kept].copy()
        elif ws.shape[0] == p_cols:
            lam = ws.copy()
        else:
            raise ValueError("warm_start length matches neither full nor kept columns")

    def state(lam_vec):
        prob = log_q + phi @ lam_vec
        top = prob.max()
        prob -= top
        np.exp(prob, out=prob)
        total = prob.sum()
        prob /= total
        return prob, float(top + np.log(total) - lam_vec @ t)

    prob, objective = state(lam)
    trace = [objective]
    newton_steps = 0
    fallback_sweeps = 0
    iterations = 0
    converged = False
    phase1_run = False
    slack = None

    for iterations in range(1, problem.max_iter + 1):
        mean = phi.T @ prob
        grad = mean - t
        # initial=0: every column may have been dropped as dependent
        if float(np.max(np.abs(grad), initial=0.0)) <= problem.tol:
            converged = True
            iterations -= 1
            break

        used_newton = False
        hess = phi.T @ (phi * prob[:, None]) - np.outer(mean, mean)
        hess[np.diag_indices_from(hess)] += 1e-12 * (1.0 + np.trace(hess) / p_cols)
        if np.linalg.cond(hess) < ILL_CONDITIONED:
            direction = np.linalg.solve(hess, -grad)
            slope = float(grad @ direction)
            if -slope <= 1e-13 * (1.0 + abs(objective)):
                # predicted decrease is below objective resolution, so the
                # sufficient-decrease test cannot certify progress; this close
                # to the optimum the raw step is a contraction
                lam = lam + direction
                prob, objective = state(lam)
                used_newton = True
                newton_steps += 1
            else:
                step = 1.0
                for _ in range(_MAX_BACKTRACKS):
                    cand = lam + step * direction
                    cand_prob, cand_obj = state(cand)
                    if cand_obj <= objective + _ARMIJO * step * slope:
                        lam, prob, objective = cand, cand_prob, cand_obj
                        used_newton = True
                        newton_steps += 1
                        break
                    step *= 0.5

        if not used_newton:
            if not phase1_run:
                phase1_run = True
                slack = _classify_failure(
                    problem, max(INFEASIBLE_SLACK, problem.p * problem.tol)
                )
            # coordinate-wise tilt: exact log-odds update for 0/1 columns,
            # damped one-dimensional Newton otherwise
            fallback_sweeps += 1
            for j in range(p_cols):
                share = float(prob @ phi[:, j])
                if binary_col[j]:
                    if not (0.0 < share < 1.0):
                        continue
                    delta = float(np.log(t[j] / (1 - t[j])) - np.log(share / (1 - share)))
                else:
                    curvature = float(prob @ phi[:, j] ** 2) - share**2
                    if curvature <= 0:
                        continue
                    delta = (t[j] - share) / curvature
                    span = max(1.0, float(np.max(np.abs(phi[:, j]))))
                    delta = float(np.clip(delta, -4.0 / span, 4.0 / span))
                for _ in range(_MAX_BACKTRACKS):
                    cand = lam.copy()
                    cand[j] += delta
                    cand_prob, cand_obj = state(cand)
                    if cand_obj <= objective + 1e-15 * abs(objective):
                        lam, prob, objective = cand, cand_prob, cand_obj
                        break
                    delta *= 0.5

        trace.append(objective)
        if debug:
            assert trace[-1] <= trace[-2] + 1e-9 * (1.0 + abs(trace[-2])), (
                "dual objective increased between iterations"
            )

    # final verdict from the violation over every original column, including
    # any dropped as dependent (their targets must be consistent to pass)
    w = n * prob
    w = w / w.mean()
    full_violation = float(np.max(np.abs(problem.matrix.T @ (w / n) - problem.targets)))
    converged = full_violation <= problem.tol

    if not converged:
        # raises when the targets are the problem
        if not phase1_run:
            _classify_failure(problem)
        elif slack is not None and slack.sum() > INFEASIBLE_SLACK:
            _raise_joint(problem, slack)
        logger.warning(
            "calibration did not converge in %d iterations (violation %.3g); "
            "returning best iterate", problem.max_iter, full_violation,
        )

    diag = RakingDiagnostics(
        converged=converged,
        iterations=iterations,
        max_violation=full_violation,
        dual_norm=float(np.linalg.norm(lam)),
        objective_trace=tuple(trace),
        newton_steps=newton_steps,
        fallback_sweeps=fallback_sweeps,
        dropped_columns=dropped_names,
        message="" if converged else "iteration limit reached",
    )
    return WeightVector(w, lam, names, diag)


def weighted_mean(y: np.ndarray, w: np.ndarray) -> float:
    """Ratio estimator sum(w y) / sum(w)."""
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return float(w @ y / w.sum())


def weighted_se(y: np.ndarray, w: np.ndarray) -> float:
    """Approximate design-based standard error of the ratio estimator.

    sqrt(sum(w_i^2 (y_i - mu)^2)) / sum(w_i), with mu the weighted mean.
    Agrees with the classical SE of an unweighted mean up to a factor
    sqrt((n-1)/n) when all weights are equal.
    """
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    mu = weighted_mean(y, w)
    return float(np.sqrt(np.sum((w * (y - mu)) ** 2)) / w.sum())


def oracle_ipw(selection_probs: np.ndarray) -> np.ndarray:
    """Inverse-probability weights from known selection probabilities.

    Probabilities must lie in (0, 1]; the result is normalized to mean 1.
    """
    p = np.asarray(selection_probs, dtype=np.float64)
    if np.any(~np.isfinite(p)) or np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("selection probabilities must lie in (0, 1]")
    w = 1.0 / p
    return w / w.mean()


def entropy_divergence(w: np.ndarray, base: np.ndarray | None = None) -> float:
    """KL divergence of the weight measure from the base measure."""
    w = np.asarray(w, dtype=np.float64)
    p = w / w.sum()
    q = np.ones_like(p) / len(p) if base is None else np.asarray(base, float) / np.sum(base)
    return float(np.sum(p * np.log(p / q)))


def balance_table(problem: CalibrationProblem, w: np.ndarray) -> list[dict]:
    """Per-constraint margins before and after weighting."""
    rows = []
    for j, name in enumerate(problem.column_names):
        col = problem.matrix[:, j]
        rows.append(
            {
                "constraint": name,
                "target": float(problem.targets[j]),
                "unweighted": float(col.mean()),
                "weighted": weighted_mean(col, w),
                "gap": weighted_mean(col, w) - float(problem.targets[j]),
            }
        )
    return rows
