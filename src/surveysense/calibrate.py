"""Entropy-divergence calibration of survey weights to population margins.

The primal problem minimizes sum(w_i log(w_i / q_i)) over weights with mean 1
subject to (1/n) sum(w_i f(X_i)) = T. Solving happens in the dual: weights are
an exponential tilt of the base weights, w_i(lam) = n softmax(log q_i +
f_i'lam), and the dual objective

    F(lam) = logsumexp(log q_i + f_i' lam) - lam' T

is smooth and convex with gradient equal to the constraint violation (the
entropy-balancing dual of Hainmueller 2012). One loop, ``_newton_batch``,
solves every calibration: a vectorized Newton iteration over a stack of
problems that share one matrix of rows or design cells, each with its own
targets, base mass and warm start. Its step is Levenberg-Marquardt damped,
(H + mu diag(H)) d = -g, with the centred Hessian H = (f - m)' diag(p)
(f - m), and is accepted by an Armijo test. mu is 0 until a step is
rejected, grows tenfold per rejection, and faster while rejections keep
coming, and falls tenfold per accepted step, back to 0; past cond(H) = ``ILL_CONDITIONED`` it is at least the level where
H stops resolving its eigenvalues. So the step is plain Newton wherever
Newton works and a descent step on the convex dual at any conditioning
(Marquardt 1963; Moré 1978; Nocedal & Wright 2006, ch. 4). There are no
coordinate sweeps and no second solver.

Targets outside a column's range raise ``InfeasibleTargetsError`` naming the
first such column. Jointly infeasible targets are certified by a phase-1
linear program, run at most once per problem, at its first rejected step or
its first Hessian past ``ILL_CONDITIONED``. Columns the rank guard cuts, and
columns whose range is within ``tol`` (any weights meet their targets), are
masked in the loop (dual pinned at 0, gradient entry zeroed, Hessian row and
column set to the identity) and still verified at the end. Each column is
taken about its mean in the logits, which softmax ignores.

``solve_raking`` solves one problem, as a stack of one on its own rows.
``solve_many`` serves the fan-outs: the leave-one-out benchmarks (a column
mask per problem, on rows), the bootstrap draws and the sweep points
(counts per problem, on design cells).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .data import check_rank
from .errors import InfeasibleTargetsError

logger = logging.getLogger(__name__)

#: Hessian condition number at which Newton first gives way to the phase-1
#: program, when no step has been rejected before
ILL_CONDITIONED = 1e10

#: minimal phase-1 slack above which targets are reported jointly infeasible
INFEASIBLE_SLACK = 1e-7

_ARMIJO = 1e-4
#: damping after a problem's first rejected step, relative to each column's
#: curvature. A rejected step multiplies it by a factor that starts at
#: ``_MU_FACTOR`` and doubles with each rejection in a row that leaves it
#: above ``_MU_START``, so a step too long by two hundred orders of
#: magnitude (the Newton step on a saturated softmax) is cut to size within
#: about forty iterations; an accepted step divides it by ``_MU_FACTOR``
#: and resets the factor (the doubling is Nielsen's; Madsen, Nielsen &
#: Tingleff 2004, section 3.2)
_MU_START = 1e-3
_MU_FACTOR = 10.0
#: most damping, far past what any step needs
_MU_MAX = 1e250
#: least damping of a step past ``ILL_CONDITIONED``, and the mu below which
#: damping returns to 0: about where a Hessian summed over the cells stops
#: resolving its smallest eigenvalues, so a direction it cannot resolve
#: takes no wild step
_EIGEN_FLOOR = 2e-14

#: working-set budget of one ``solve_many`` batch, in bytes
BATCH_BYTES = 4 << 20


@dataclass(frozen=True)
class RakingDiagnostics:
    """What one solve did. ``newton_steps`` counts accepted undamped steps and
    ``fallback_sweeps`` the damped (mu > 0) steps, accepted or not; the name
    is kept because the report schema carries it."""

    converged: bool
    iterations: int
    max_violation: float
    dual_norm: float
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
    """Solve the calibration problem: ``solve_many`` over a stack of one, on
    the problem's own rows.

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
        limit is hit on targets the phase-1 program cannot prove
        infeasible, the least-violating iterate is returned with
        ``diagnostics.converged`` False and a warning is logged; infeasible
        targets raise ``InfeasibleTargetsError`` instead.
    """
    (outcome,) = solve_many(problem, warm_start=warm_start)
    if isinstance(outcome, InfeasibleTargetsError):
        raise outcome
    return outcome


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
    targets: np.ndarray | None = None,
    base_weights: np.ndarray | None = None,
    row_counts: np.ndarray | None = None,
    *,
    warm_start: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> list[WeightVector | InfeasibleTargetsError]:
    """Solve a stack of calibrations that share one matrix of rows or cells.

    ``problem`` gives the matrix, the column names, ``tol`` and
    ``max_iter``. Problem b has targets ``targets[b]``, keeps the cells
    where ``row_counts[b]`` is positive, with base mass ``base_weights[b]``
    there, and enforces the columns where the boolean ``columns[b]`` is
    True (every column by default); ``warm_start[b]`` is its starting dual,
    aligned with all columns. Any of these may be given once, unstacked,
    for every problem; targets, base weights and counts not given are the
    problem's own (1 per row where it has none).

    Returns, per problem, what ``solve_raking`` gives on that problem's own
    cells and columns from the same warm start, to the bit: a
    ``WeightVector`` whose values follow those cells in order and whose
    dual covers the columns it enforced, or the ``InfeasibleTargetsError``
    naming the constraint its targets break. Problems with the same cells
    and columns are solved together on that submatrix, in batches of
    ``batch_size`` problems, and every product in the loop is formed per
    problem, so neither a problem's neighbours in the stack nor the cells
    and columns it leaves out touch its rounding.
    """
    k, p = problem.matrix.shape
    ones = np.ones(k)
    if base_weights is None:
        base_weights = ones if problem.base_weights is None else problem.base_weights
    if row_counts is None:
        row_counts = ones if problem.row_counts is None else problem.row_counts
    given = [
        ("targets", problem.targets if targets is None else targets, p, np.float64),
        ("base_weights", base_weights, k, np.float64),
        ("row_counts", row_counts, k, np.float64),
        ("warm_start", np.zeros(p) if warm_start is None else warm_start, p, np.float64),
        ("columns", np.ones(p, dtype=bool) if columns is None else columns, p, bool),
    ]
    given = [(name, np.asarray(a, dtype=dtype), width) for name, a, width, dtype in given]
    b = next((a.shape[0] for _, a, _ in given if a.ndim == 2), 1)
    for name, a, width in given:
        if a.shape not in ((width,), (b, width)):
            raise ValueError(f"{name} must have shape ({width},) or ({b}, {width})")
    targets, base, counts, warm, columns = (
        np.broadcast_to(a, (b, width)) for _, a, width in given
    )
    present = counts > 0
    if not all(np.all(np.isfinite(a)) for a in (targets, base, counts, warm)):
        raise ValueError("targets, base_weights, row_counts and warm_start must be finite")
    if np.any(counts < 0) or np.any(base < 0) or np.any(base[present] == 0):
        raise ValueError(
            "base_weights and row_counts must be nonnegative, with positive "
            "base mass on every cell a problem counts"
        )
    if not np.all(present.any(axis=1)):
        raise ValueError("every problem needs at least one cell")

    results: list = [None] * b
    # problems that keep the same cells and columns are solved together, on
    # that submatrix
    parts: dict = {}
    for i, key in enumerate(np.packbits(np.hstack([present, columns]), axis=1)):
        parts.setdefault(key.tobytes(), []).append(i)
    for members in map(np.asarray, parts.values()):
        own, keep = np.flatnonzero(present[members[0]]), np.flatnonzero(columns[members[0]])
        if own.size == k:
            own = slice(None)
        if keep.size == p:
            keep = slice(None)
        part = CalibrationProblem(
            np.ascontiguousarray(problem.matrix[own][:, keep]),
            targets[members[0], keep],
            column_names=tuple(np.asarray(problem.column_names, dtype=object)[keep]),
            tol=problem.tol,
            max_iter=problem.max_iter,
        )
        t, mass, count, lam = (
            a[members][:, sel]
            for a, sel in ((targets, keep), (base, own), (counts, own), (warm, keep))
        )
        # a target outside its column's range is infeasible, and so is one on
        # the boundary, since entropy weights are strictly positive; a
        # constant column admits its own value, to 1e-9
        cols = np.ascontiguousarray(part.matrix.T)  # column reductions run along rows
        lo, hi = cols.min(axis=1), cols.max(axis=1)
        constant = np.abs(t - lo) <= 1e-9 * np.maximum(1.0, np.abs(lo))
        outside = ~np.where(hi == lo, constant, (lo < t) & (t < hi))
        for pos in np.flatnonzero(outside.any(axis=1)):
            j = int(np.argmax(outside[pos]))
            results[members[pos]] = InfeasibleTargetsError(
                part.column_names[j], float(t[pos, j]), (float(lo[j]), float(hi[j]))
            )
        todo = np.flatnonzero(~outside.any(axis=1))
        # any weights meet a target inside a range no wider than tol, so such
        # a column takes no part in the rank guard or the step
        idle = (hi > lo) & (hi - lo <= part.tol)
        guarded = np.flatnonzero(~idle)
        cut = np.zeros(t.shape, dtype=bool)
        if todo.size and guarded.size:
            design = part.matrix if guarded.size == part.p else part.matrix[:, guarded]
            if np.all(count[todo] == count[todo[0]]):
                verdicts = [check_rank(design, count[todo[0]])] * todo.size
            else:
                verdicts = check_rank(design, count[todo])
            for pos, dropped in zip(todo, verdicts):
                cut[pos, guarded[list(dropped)]] = True
                if dropped:
                    logger.warning(
                        "dropping dependent constraint columns: %s",
                        ", ".join(part.column_names[j] for j in guarded[list(dropped)]),
                    )
        size = batch_size(*part.matrix.shape)
        for start in range(0, todo.size, size):
            chunk = todo[start : start + size]
            outcomes = _newton_batch(
                part, cols, t[chunk], mass[chunk], lam[chunk], cut[chunk], idle
            )
            for pos, outcome in zip(chunk, outcomes):
                results[members[pos]] = outcome
    return results


def _states(phi_t, log_q, lam, targets):
    """Cell probabilities softmax(log q + phi lam) and the dual objectives of
    a stack of duals, with a max shift; ``phi_t`` is the (p, k) design."""
    logits = log_q + (lam[:, None, :] @ phi_t)[:, 0]
    top = logits.max(axis=1, keepdims=True)
    logits -= top
    np.exp(logits, out=logits)
    total = logits.sum(axis=1, keepdims=True)
    logits /= total
    return logits, top[:, 0] + np.log(total[:, 0]) - np.einsum("bp,bp->b", lam, targets)


def _newton_batch(part, cols, targets, base, lam, cut, idle):
    """Damped Newton over a stack of problems on every cell and column of
    ``part`` (``cols`` is its matrix transposed, C-contiguous), each with its
    own targets, base mass and warm start. A column ``cut`` by the rank
    guard, or ``idle`` because its range is within ``tol``, keeps a dual of
    0, a zero gradient entry and an identity row and column in the Hessian,
    and is verified with the others at the end.

    Every product is formed per problem, so a problem's rounding does not
    depend on the rest of the stack, and the Hessian is centred before its
    product, so no digits cancel when one cell carries nearly all the mass.
    A problem's phase-1 program runs at most once: at its first rejected
    step or first Hessian past ``ILL_CONDITIONED``, raising when its slack
    exceeds what ``tol`` allows, or else after the last step if the problem
    has not converged. Returns per problem a ``WeightVector`` or the
    ``InfeasibleTargetsError`` naming the constraint its targets break.
    """
    # softmax ignores a column's offset, which would only cost the logits
    # digits, so each column is taken about its mean over the cells
    center = cols.mean(axis=1)
    phi_t, goal = cols - center[:, None], targets - center
    tol, max_iter = part.tol, part.max_iter
    (m, p), n = lam.shape, phi_t.shape[1]
    active = ~(cut | idle)
    free = active.sum(axis=1)
    pairs = active[:, :, None] & active[:, None, :]
    diagonal = np.arange(p)
    log_q = np.log(base / base.sum(axis=1, keepdims=True))
    lam = np.where(active, lam, 0.0)
    prob, objective = _states(phi_t, log_q, lam, goal)
    prob_out, lam_out = np.empty_like(prob), np.empty_like(lam)
    least = np.full(m, np.inf)  # smallest violation of each problem's iterates
    previous = np.full(m, np.inf)  # enforced columns' violation one step back
    steps = np.zeros((3, m), dtype=int)  # taken, accepted undamped, damped
    mu = np.zeros(m)
    growth = np.full(m, _MU_FACTOR)  # mu's factor at the next rejection
    slack: dict = {}  # by position, for each problem whose program ran
    results: list = [None] * m

    def phase1(positions):
        for pos in positions:
            if pos in slack:
                continue
            threshold = max(INFEASIBLE_SLACK, p * tol)
            try:
                slack[pos] = _classify_failure(replace(part, targets=targets[pos]), threshold)
            except InfeasibleTargetsError as err:
                slack[pos], results[pos] = None, err

    live = np.arange(m)  # positions of the problems still iterating
    for iteration in range(max_iter + 1):
        mean = (phi_t @ prob[:, :, None])[:, :, 0]
        miss = np.abs(mean - goal[live]).max(axis=1, initial=0.0)  # cut columns too
        grad = np.where(active[live], mean - goal[live], 0.0)
        gap = np.abs(grad).max(axis=1, initial=0.0)
        better = miss < least[live]
        least[live[better]] = miss[better]
        prob_out[live[better]], lam_out[live[better]] = prob[better], lam[better]
        # done when every column is met, or when the enforced ones are and
        # stop improving: a cut column's target then disagrees with the
        # columns it depends on
        done = (miss <= tol) | ((gap <= tol) & (gap >= 0.5 * previous[live]))
        previous[live] = gap
        steps[0, live[done]] = iteration
        if done.any():
            live, prob, lam, objective, mean, grad = (
                a[~done] for a in (live, prob, lam, objective, mean, grad)
            )
        if live.size == 0 or iteration == max_iter:
            break
        centred = phi_t - mean[:, :, None]
        centred *= np.sqrt(prob)[:, None, :]
        hess = np.matmul(centred, centred.transpose(0, 2, 1))
        hess *= pairs[live]
        # cond(H) over the enforced block; past ILL_CONDITIONED the step is
        # damped at least to the level where H stops resolving eigenvalues
        singular = -np.sort(-np.abs(np.linalg.eigvalsh(hess)), axis=1)
        largest = singular[:, 0]
        ill = largest >= ILL_CONDITIONED * singular[np.arange(live.size), free[live] - 1]
        phase1(live[ill])
        # Marquardt's scaling: each column is damped in proportion to its own
        # curvature, so a column's units do not decide how far it may move
        damping = np.maximum(mu[live], np.where(ill, _EIGEN_FLOOR, 0.0))
        curvature = np.maximum(hess[:, diagonal, diagonal], _EIGEN_FLOOR * largest[:, None])
        hess[:, diagonal, diagonal] += np.where(
            active[live], damping[:, None] * curvature, 1.0
        )
        direction = _solve(hess, -grad)
        slope = np.einsum("bp,bp->b", grad, direction)
        cand = lam + direction
        cand_prob, cand_obj = _states(phi_t, log_q[live], cand, goal[live])
        # below objective resolution the sufficient-decrease test cannot
        # certify progress; this close to the optimum the raw step is a
        # contraction
        accept = (slope < 0) & (
            (-slope <= 1e-13 * (1.0 + np.abs(objective)))
            | (cand_obj <= objective + _ARMIJO * slope)
        )
        damped = damping > 0
        steps[1, live[accept & ~damped]] += 1
        steps[2, live[damped]] += 1
        raised = np.minimum(mu[live], _MU_MAX / growth[live]) * growth[live]
        mu[live] = np.where(
            accept, mu[live] / _MU_FACTOR, np.where(mu[live] > 0, raised, _MU_START)
        )
        growth[live] = np.where(
            accept, _MU_FACTOR, np.where(mu[live] > _MU_START, 2.0 * growth[live], growth[live])
        )
        mu[mu < _EIGEN_FLOOR] = 0.0
        lam[accept], prob[accept], objective[accept] = (
            cand[accept], cand_prob[accept], cand_obj[accept]
        )
        phase1(live[~accept])
        go = np.asarray([results[pos] is None for pos in live.tolist()], dtype=bool)
        if not go.all():
            live, prob, lam, objective = live[go], prob[go], lam[go], objective[go]
    steps[0, live] = max_iter

    # the verdict over every column, cut ones included (their targets must be
    # consistent to pass); a problem that did not converge keeps its
    # least-violating iterate, since on infeasible targets the objective falls
    # without bound while rounding erodes the last iterates
    w = n * prob_out
    w /= w.sum(axis=1, keepdims=True) / n
    violations = np.abs((phi_t @ (w / n)[:, :, None])[:, :, 0] - goal).max(axis=1, initial=0.0)
    names = np.asarray(part.column_names, dtype=object)
    for pos in np.flatnonzero([r is None for r in results]):
        converged = bool(violations[pos] <= tol)
        if not converged:
            # raises when the targets are the problem
            try:
                if pos not in slack:
                    _classify_failure(replace(part, targets=targets[pos]))
                elif slack[pos] is not None and slack[pos].sum() > INFEASIBLE_SLACK:
                    _raise_joint(replace(part, targets=targets[pos]), slack[pos])
            except InfeasibleTargetsError as err:
                results[pos] = err
                continue
            logger.warning(
                "calibration did not converge in %d iterations (violation %.3g); "
                "returning the least-violating iterate", max_iter, violations[pos],
            )
        diag = RakingDiagnostics(
            converged=converged,
            iterations=int(steps[0, pos]),
            max_violation=float(violations[pos]),
            dual_norm=float(np.linalg.norm(lam_out[pos])),
            newton_steps=int(steps[1, pos]),
            fallback_sweeps=int(steps[2, pos]),
            dropped_columns=tuple(names[cut[pos]]),
            message="" if converged else "iteration limit reached",
        )
        results[pos] = WeightVector(w[pos], lam_out[pos, active[pos]], tuple(names[active[pos]]), diag)
    return results


def _solve(hess, rhs):
    """Newton directions of a stack; an exactly singular system gets NaN,
    which fails the step's test and so raises its damping."""
    try:
        return np.linalg.solve(hess, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (h, r) in enumerate(zip(hess, rhs)):
            try:
                out[i] = np.linalg.solve(h, r)
            except np.linalg.LinAlgError:
                pass
        return out


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
    """Per-constraint margins before and after weighting by ``w``, weights of
    any scale; weights with mean 1, such as a ``WeightVector``'s values, are
    taken as given, so the margins are the report's to the bit."""
    w = np.asarray(w, dtype=np.float64)
    if abs(w.mean() - 1.0) > 1e-9:
        w = w / w.mean()
    share = w / problem.n
    rows = []
    for name, target, col in zip(problem.column_names, problem.targets, problem.matrix.T):
        weighted = float(col @ share)
        rows.append(
            {
                "constraint": name,
                "target": float(target),
                "unweighted": float(col.mean()),
                "weighted": weighted,
                "gap": weighted - float(target),
            }
        )
    return rows
