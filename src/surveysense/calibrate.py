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

``solve_many`` solves a stack of such problems that share one matrix of
design cells (distinct design rows carrying base mass and row counts), as
the bootstrap draws and the sweep points do: one vectorized Newton over the
stack, in batches bounded by ``BATCH_BYTES``, with every problem it cannot
finish on solve_raking's own terms handed to ``solve_raking``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .data import check_rank
from .errors import InfeasibleTargetsError

logger = logging.getLogger(__name__)

#: Hessian condition number beyond which Newton hands over to coordinate sweeps
ILL_CONDITIONED = 1e10

#: ``solve_many`` hands a problem to ``solve_raking`` once trace(E[f f']) over
#: the Hessian's smallest eigenvalue, an upper bound on its condition number,
#: comes within this factor of ``ILL_CONDITIONED``
_COND_MARGIN = 10.0

#: minimal phase-1 slack above which targets are reported jointly infeasible
INFEASIBLE_SLACK = 1e-7

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 40

#: working-set budget of one ``solve_many`` batch, in bytes
BATCH_BYTES = 4 << 20


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

    def dual_for(self, names: tuple[str, ...]) -> np.ndarray:
        """The dual aligned with ``names``, 0 for a column this solve did
        not enforce: a warm start for a problem on other columns."""
        lookup = dict(zip(self.constraint_ids, self.dual))
        return np.asarray([lookup.get(name, 0.0) for name in names])


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
) -> WeightVector:
    """Solve the calibration problem.

    Parameters
    ----------
    problem : CalibrationProblem
    warm_start : array, optional
        Dual coefficients aligned with the problem's columns, e.g. from a
        previous solve of a nearby problem.

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


#: why a calibration gave no usable weights
FAILURE_REASONS = ("infeasible", "rank_deficient", "not_converged")


def failure_reason(
    outcome: WeightVector | InfeasibleTargetsError,
    matrix: np.ndarray,
    row_counts: np.ndarray | None = None,
) -> str | None:
    """The ``FAILURE_REASONS`` key of a solve's outcome on ``matrix`` (with
    ``row_counts``), or None for converged weights.

    Jointly infeasible targets on a design the rank guard cuts are
    ``rank_deficient``: the dropped columns' targets disagree with the
    columns they depend on. Other infeasible targets are ``infeasible``,
    and a returned unconverged iterate is ``not_converged``.
    """
    if isinstance(outcome, InfeasibleTargetsError):
        if outcome.joint and check_rank(matrix, row_counts):
            return "rank_deficient"
        return "infeasible"
    return None if outcome.diagnostics.converged else "not_converged"


def batch_size(cells: int, columns: int) -> int:
    """Problems per ``solve_many`` batch over ``cells`` design cells and
    ``columns`` constraint columns: as many as keep two float64 arrays of
    shape (B, k, p+1) within ``BATCH_BYTES``, and at least one. That is the
    most the rank guard holds for a batch: its Gram certificate holds one
    (B, k, p) array, and only a batch with problems the certificate
    cannot settle builds the (B, k, p+1) augmented design and its QR."""
    return max(1, BATCH_BYTES // (16 * cells * (columns + 1)))


def solve_many(
    problem: CalibrationProblem,
    targets: np.ndarray,
    base_weights: np.ndarray,
    row_counts: np.ndarray,
    *,
    warm_start: np.ndarray | None = None,
) -> list[WeightVector | InfeasibleTargetsError]:
    """Solve a stack of calibrations that share one matrix of design cells.

    ``problem`` gives the cells (its ``matrix``), the column names and
    sources, ``tol`` and ``max_iter``. Problem b has targets ``targets[b]``
    and keeps the cells where ``row_counts[b]`` is positive, with base mass
    ``base_weights[b]`` there; a (k,) mass or count is shared by every
    problem. ``warm_start`` is one dual for all problems or one per problem.

    Returns, per problem, what ``solve_raking`` gives on that problem's own
    cells from the same warm start: a ``WeightVector`` whose values follow
    those cells in order, or the ``InfeasibleTargetsError`` it raises. One
    vectorized damped Newton runs over the problems, with solve_raking's
    raw-step, Armijo and backtracking rules and a convergence mask per
    problem, in batches of ``batch_size`` problems. A problem the batch
    cannot finish goes to ``solve_raking`` from its warm start, so its
    result is the serial path's: a target outside its column's range, a
    design the rank guard would cut, an ill-conditioned Hessian, a failed
    line search, or ``max_iter`` iterations. The batch's conditioning test
    is stricter than solve_raking's by ``_COND_MARGIN`` and also counts the
    digits lost to centring, so rounding, which differs between the two
    paths, cannot make their Newton steps part ways.
    """
    k, p = problem.matrix.shape
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    b = targets.shape[0]
    if targets.shape[1] != p:
        raise ValueError(f"{p} design columns but {targets.shape[1]} targets per problem")
    for name, arr in (("base_weights", base_weights), ("row_counts", row_counts)):
        if np.shape(arr) not in ((k,), (b, k)):
            raise ValueError(f"{name} must have shape ({k},) or ({b}, {k})")
    base = np.broadcast_to(np.asarray(base_weights, dtype=np.float64), (b, k))
    counts = np.broadcast_to(np.asarray(row_counts, dtype=np.float64), (b, k))
    present = counts > 0
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(counts))):
        raise ValueError("base_weights and row_counts must be finite")
    if np.any(counts < 0) or np.any(base < 0) or np.any(base[present] == 0):
        raise ValueError(
            "base_weights and row_counts must be nonnegative, with positive "
            "base mass on every cell a problem counts"
        )
    if not np.all(present.any(axis=1)):
        raise ValueError("every problem needs at least one cell")
    warm = np.broadcast_to(
        np.zeros(p) if warm_start is None else np.asarray(warm_start, dtype=np.float64),
        (b, p),
    )

    results: list = [None] * b
    batched = np.zeros(b, dtype=bool)
    if p > 0:
        batched = _marginally_feasible(problem.matrix, present, targets)
        if np.ndim(row_counts) == 1:
            batched &= not check_rank(problem.matrix, counts[0])
        elif batched.any():
            ranked = np.flatnonzero(batched)
            cut = check_rank(problem.matrix, counts[ranked])
            batched[ranked] = [not dropped for dropped in cut]
    ids = np.flatnonzero(batched)
    size = batch_size(k, p)
    for start in range(0, ids.size, size):
        chunk = ids[start : start + size]
        with np.errstate(divide="ignore"):
            log_q = np.log(base[chunk] / base[chunk].sum(axis=1, keepdims=True))
        prob, lam, iterations, traces = _newton_batch(
            problem, log_q, targets[chunk], warm[chunk]
        )
        # the final verdict of solve_raking, over each problem's own cells
        done = np.flatnonzero(iterations >= 0)
        own = present[chunk[done]]
        n_own = own.sum(axis=1)[:, None]
        w = n_own * prob[done]
        w /= w.sum(axis=1, keepdims=True) / n_own
        gaps = np.abs(w @ problem.matrix / n_own - targets[chunk[done]]).max(axis=1)
        for j, w_j, own_j, gap in zip(done, w, own, gaps):
            if gap > problem.tol:
                continue
            diag = RakingDiagnostics(
                converged=True,
                iterations=int(iterations[j]),
                max_violation=float(gap),
                dual_norm=float(np.linalg.norm(lam[j])),
                objective_trace=tuple(traces[j]),
                newton_steps=int(iterations[j]),
                fallback_sweeps=0,
                dropped_columns=(),
            )
            results[chunk[j]] = WeightVector(w_j[own_j], lam[j], problem.column_names, diag)
    for i in range(b):
        if results[i] is not None:
            continue
        keep = present[i]
        try:
            results[i] = solve_raking(
                replace(
                    problem,
                    matrix=problem.matrix[keep],
                    targets=targets[i],
                    base_weights=base[i, keep],
                    row_counts=counts[i, keep],
                ),
                warm_start=warm[i],
            )
        except InfeasibleTargetsError as err:
            results[i] = err
    return results


def _marginally_feasible(
    matrix: np.ndarray, present: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per problem, whether every target passes ``_check_marginal_feasibility``
    on the cells the problem counts."""
    if present.all():
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    else:
        stack = np.broadcast_to(matrix, present.shape + matrix.shape[1:])
        lo = np.min(stack, axis=1, where=present[:, :, None], initial=np.inf)
        hi = np.max(stack, axis=1, where=present[:, :, None], initial=-np.inf)
    constant = np.abs(targets - lo) <= 1e-9 * np.maximum(1.0, np.abs(lo))
    inside = (lo < targets) & (targets < hi)
    return np.where(hi == lo, constant, inside).all(axis=1)


def _newton_batch(problem, log_q, targets, lam):
    """Damped Newton over a stack of full-rank problems on shared cells.

    Returns the cell probabilities, duals, iteration counts and objective
    traces of every problem; the iteration count is -1 for a problem that
    must go to ``solve_raking``.
    """
    phi = problem.matrix
    squares = (phi**2).sum(axis=1)
    p = phi.shape[1]
    diagonal = np.arange(p)

    def states(lam_stack, lq, t):
        logits = lq + lam_stack @ phi.T
        top = logits.max(axis=1, keepdims=True)
        logits -= top
        np.exp(logits, out=logits)
        total = logits.sum(axis=1, keepdims=True)
        logits /= total
        return logits, top[:, 0] + np.log(total[:, 0]) - np.einsum("bp,bp->b", lam_stack, t)

    m = targets.shape[0]
    iterations = np.full(m, -1)
    prob_out = np.zeros_like(log_q)
    lam_out = np.zeros((m, p))
    live = np.arange(m)  # positions of the problems still iterating
    lam = lam.copy()
    prob, objective = states(lam, log_q, targets)
    traces = [[float(o)] for o in objective]
    for iteration in range(1, problem.max_iter + 1):
        t = targets[live]
        mean = prob @ phi
        grad = mean - t
        done = np.abs(grad).max(axis=1) <= problem.tol
        finished = live[done]
        prob_out[finished], lam_out[finished] = prob[done], lam[done]
        iterations[finished] = iteration - 1
        go = ~done
        live, prob, lam, objective, mean, grad, t = (
            a[go] for a in (live, prob, lam, objective, mean, grad, t)
        )
        if live.size == 0:
            break
        hess = np.matmul(phi.T, phi * prob[:, :, None]) - mean[:, :, None] * mean[:, None, :]
        hess[:, diagonal, diagonal] += (
            1e-12 * (1.0 + np.trace(hess, axis1=1, axis2=2) / p)
        )[:, None]
        # trace(E[f f']) over the smallest eigenvalue bounds cond(hess) from
        # above, and also grows with the digits that centring cancels
        smallest = np.linalg.svd(hess, compute_uv=False)[:, -1]
        go = prob @ squares < smallest * (ILL_CONDITIONED / _COND_MARGIN)
        live, prob, lam, objective, grad, t, hess = (
            a[go] for a in (live, prob, lam, objective, grad, t, hess)
        )
        if live.size == 0:
            break
        direction = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        slope = np.einsum("bp,bp->b", grad, direction)
        cand = lam + direction
        cand_prob, cand_obj = states(cand, log_q[live], t)
        # below objective resolution the raw step is taken, as in solve_raking;
        # a step that must backtrack goes to solve_raking, since a damped path
        # can magnify rounding that differs between the two
        go = (-slope <= 1e-13 * (1.0 + np.abs(objective))) | (
            cand_obj <= objective + _ARMIJO * slope
        )
        live, lam, prob, objective = live[go], cand[go], cand_prob[go], cand_obj[go]
        for pos, obj in zip(live, objective):
            traces[pos].append(float(obj))
    # problems still live after max_iter steps are left to solve_raking,
    # which takes its verdict from its own last iterate
    return prob_out, lam_out, iterations, traces


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
