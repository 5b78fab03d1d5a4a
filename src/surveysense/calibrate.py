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
columns whose range is within ``TOL`` (any weights meet a target within
``TOL`` of all their values), are masked in the loop (dual pinned at 0,
gradient entry zeroed, Hessian row and column set to the identity) and still
verified at the end. Each column is taken about its mean in the logits,
which softmax ignores. A solve converges when every column's violation is
within ``TOL``, and gives up after ``MAX_ITER`` iterations.

``solve_raking`` solves one problem, as a stack of one on its own rows, and
logs its cut columns and non-convergence. ``solve_many`` serves the
fan-outs (leave-one-out column masks on rows; bootstrap draws and sweep
points as arrays of mass and counts on ``design_cells``) and logs nothing:
each problem's outcome, weights or the error, names the columns the rank
guard cut. The guard, ``_dependent_columns``, takes a stack of positive
counts and one peak magnitude per column; ``check_rank`` runs it on one
matrix's rows as they are, for ``data.build_features`` at load.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import InfeasibleTargetsError

logger = logging.getLogger(__name__)

#: largest constraint violation of a converged solve
TOL = 1e-8

#: iterations after which a solve returns its least-violating iterate
MAX_ITER = 200

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

#: remaining column norms this close to the largest, relative to the
#: columns' own norms and per square root of the rows, count as tied in
#: pivoting; the earliest is taken. The n-row QR leaves equal columns'
#: R factors up to about sqrt(n) ulps apart.
PIVOT_TIE = 8 * np.finfo(np.float64).eps

#: a problem whose Gram matrix has its smallest eigenvalue above this share
#: of its trace is full rank without a QR; see ``_gram_certifies``
GRAM_TAU = 1e-10


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

    @property
    def dropped_columns(self) -> tuple[str, ...]:
        return self.diagnostics.dropped_columns


@dataclass(frozen=True)
class CalibrationProblem:
    """Design matrix and targets of one calibration, one row per respondent.

    Design cells that stand for several identical rows are solved through
    ``solve_many``, which takes each cell's base mass and count.
    """

    matrix: np.ndarray  # (n, p)
    targets: np.ndarray  # (p,)
    column_names: tuple[str, ...] | None = None
    column_sources: tuple[frozenset, ...] | None = None
    base_weights: np.ndarray | None = None

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
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "column_names", tuple(names))
        object.__setattr__(self, "base_weights", base)

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
    cols: np.ndarray, targets: np.ndarray, names, threshold: float = INFEASIBLE_SLACK
) -> np.ndarray | None:
    """Distinguish jointly infeasible targets from plain non-convergence, on
    the (p, n) columns ``cols`` named ``names``.

    Runs a phase-1 feasibility program over the probability simplex with
    per-constraint slack; a minimal total slack above ``threshold`` proves
    infeasibility and the largest slack names the constraint. Otherwise
    returns the slack (None when the program fails) for later reuse.
    """
    from scipy.optimize import linprog

    p, n = cols.shape
    c = np.concatenate([np.zeros(n), np.ones(2 * p)])
    a_eq = np.zeros((p + 1, n + 2 * p))
    a_eq[:p, :n] = cols
    a_eq[:p, n : n + p] = -np.eye(p)
    a_eq[:p, n + p :] = np.eye(p)
    a_eq[p, :n] = 1.0
    b_eq = np.concatenate([targets, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return None
    slack = res.x[n : n + p] + res.x[n + p :]
    if slack.sum() > threshold:
        _raise_joint(cols, targets, names, slack)
    return slack


def _raise_joint(cols: np.ndarray, targets: np.ndarray, names, slack: np.ndarray) -> NoReturn:
    j = int(np.argmax(slack))
    raise InfeasibleTargetsError(
        names[j], float(targets[j]), (float(cols[j].min()), float(cols[j].max())), joint=True
    )


def solve_raking(problem: CalibrationProblem) -> WeightVector:
    """Solve the calibration problem: ``solve_many`` over a stack of one, on
    the problem's own rows, from a zero dual.

    Parameters
    ----------
    problem : CalibrationProblem

    Returns
    -------
    WeightVector
        Strictly positive weights normalized to mean 1. If the iteration
        limit is hit on targets the phase-1 program cannot prove
        infeasible, the least-violating iterate is returned with
        ``diagnostics.converged`` False and a warning is logged; infeasible
        targets raise ``InfeasibleTargetsError`` instead.
    """
    (outcome,) = solve_many(problem)
    if dropped := ", ".join(outcome.dropped_columns):
        logger.warning("dropping dependent constraint columns: %s", dropped)
    if isinstance(outcome, InfeasibleTargetsError):
        raise outcome
    if not (diag := outcome.diagnostics).converged:
        logger.warning(
            "calibration did not converge in %d iterations (violation %.3g); "
            "returning the least-violating iterate", diag.iterations, diag.max_violation,
        )
    return outcome


#: why a calibration gave no usable weights
FAILURE_REASONS = ("infeasible", "rank_deficient", "not_converged")


def failure_reason(outcome: WeightVector | InfeasibleTargetsError) -> str | None:
    """The ``FAILURE_REASONS`` key of an outcome, None for converged weights.

    Jointly infeasible targets on a problem the rank guard cut are
    ``rank_deficient``: the dropped columns' targets disagree with the
    columns they depend on. Other infeasible targets are ``infeasible``,
    and a returned unconverged iterate is ``not_converged``.
    """
    if isinstance(outcome, InfeasibleTargetsError):
        return "rank_deficient" if outcome.joint and outcome.dropped_columns else "infeasible"
    return None if outcome.diagnostics.converged else "not_converged"


def batch_size(cells: int, columns: int) -> int:
    """Problems per ``solve_many`` batch over ``cells`` design cells and
    ``columns`` constraint columns: as many as keep two float64 arrays of
    shape (B, k, p+1) within ``BATCH_BYTES``, and at least one. That is the
    most the rank guard holds for a batch: its Gram certificate holds one
    (B, k, p) array, and only a batch with problems the certificate
    cannot settle builds the (B, k, p+1) augmented design and its QR."""
    return max(1, BATCH_BYTES // (16 * cells * (columns + 1)))


def check_rank(matrix: np.ndarray) -> tuple[int, ...]:
    """Indices of the columns of ``matrix`` that the rank guard cuts on its
    rows as they are, each column scaled by its largest magnitude: the
    linearly dependent ones, judged with the implicit normalization
    constraint included (a constant column is dependent)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    peak = np.abs(matrix).max(axis=0, initial=0.0)
    return _dependent_columns(matrix, np.ones((1, len(matrix))), peak)[0]


def _dependent_columns(matrix: np.ndarray, counts: np.ndarray, peak: np.ndarray) -> list:
    """The rank guard: per problem of a (B, n) stack of positive ``counts``
    on the rows of ``matrix`` (sqrt(count) row scaling), the sorted indices
    of its dependent columns, each column scaled by its ``peak`` magnitude.

    Full rank is settled first from each problem's count-weighted
    (p+1)-square Gram matrix (``_gram_certifies``), one product over the
    rows. Only the problems it cannot settle build the augmented design
    and run the QR: the n-row QR runs in numpy, and so does the
    column-pivoted QR of its (p+1)-row R factor, whose column inner
    products, hence pivots, are the full matrix's. Pivoting takes the
    earliest of the columns whose remaining norms tie to within
    ``PIVOT_TIE * sqrt(n)`` of their own norms, so of two equal columns the
    later one is dropped, whatever the rounding. The rank is the number of
    pivoted |r_kk| above 1e-10 * max(|r_11|, 1); the columns pivoted past
    it are dependent.
    """
    n, p = matrix.shape
    found = [()] * len(counts)
    todo = np.flatnonzero(~_gram_certifies(matrix, counts, peak))
    if todo.size == 0:
        return found
    augmented = np.ones((todo.size, n, p + 1))
    augmented[:, :, 1:] = matrix / np.maximum(peak, 1e-300)
    augmented *= np.sqrt(counts[todo])[:, :, None]
    r = np.linalg.qr(augmented, mode="r")
    diag, pivots = _pivoted_diagonal(r, PIVOT_TIE * np.sqrt(n))
    ranks = np.sum(diag > 1e-10 * np.maximum(diag[:, :1], 1.0), axis=1)
    constant = np.flatnonzero(np.ptp(matrix, axis=0) == 0.0).tolist()
    for i, rank, order in zip(todo, ranks, pivots):
        dependent = {int(j) - 1 for j in order[rank:] if j > 0}
        if 0 in order[rank:]:
            # pivoting discarded the intercept; blame a constant design column
            dependent.update(constant)
        found[i] = tuple(sorted(dependent))
    return found


def _gram_certifies(matrix: np.ndarray, counts: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Per problem of a (B, n) stack of ``counts``, whether the scaled,
    augmented design A = diag(sqrt(c)) [1 | X / peak] is certainly full
    rank, so that the rank guard's QR would cut none of its columns.

    G = AᵀA = D [[Σc, cᵀX], [Xᵀc, Xᵀdiag(c)X]] D with D = diag(1, 1/peak)
    is formed by one stacked product over the rows, and problem b is
    certified when λ_min(G_b) > τ · max(trace(G_b), 1).

    Why a certified problem is one the QR keeps whole: the computed Gram
    is within about n·eps·trace(G) of the exact one in norm, and the
    symmetric eigensolver adds (p+1)·eps·‖G‖ (Golub & Van Loan, Matrix
    Computations, 4th ed., §5.3 and §8.1; Higham, Accuracy and Stability
    of Numerical Algorithms, §3.5). τ is ``GRAM_TAU``, raised to
    10·(n+p+1)·eps once that is larger (n > 4·10⁴ or so), so the exact
    λ_min(AᵀA) is at least 0.9·τ·max(trace, 1), and σ_min(A) at least
    about 1e-5·max(‖A‖_F, 1). The QR path cuts nothing while σ_min(R)
    exceeds 1e-10·max(largest column norm, 1), five orders lower, since
    every pivoted |r_kk| is at least σ_min(R) and |r_11| is the largest
    column norm; its own backward error, about n·(p+1)·eps·‖A‖_F, cannot
    close that gap.
    """
    n, p = matrix.shape
    root = np.sqrt(counts)
    # A's columns after the first (sqrt(c)), in one buffer: a second fresh
    # n-row array would cost about as much as the product itself
    scaled = np.empty((len(counts), n, p))
    np.divide(matrix, np.maximum(peak, 1e-300), out=scaled)
    scaled *= root[:, :, None]
    gram = np.empty((len(counts), p + 1, p + 1))
    gram[:, 0, 0] = counts.sum(axis=1)
    gram[:, 0, 1:] = gram[:, 1:, 0] = np.matmul(root[:, None, :], scaled)[:, 0]
    gram[:, 1:, 1:] = np.matmul(np.swapaxes(scaled, 1, 2), scaled)
    smallest = np.linalg.eigvalsh(gram)[:, 0]
    trace = np.einsum("bii->b", gram)
    tau = max(GRAM_TAU, 10.0 * (n + p + 1) * np.finfo(np.float64).eps)
    return smallest > tau * np.maximum(trace, 1.0)


def _pivoted_diagonal(r: np.ndarray, tie: float) -> tuple[np.ndarray, np.ndarray]:
    """|diag R| and the column order of a column-pivoted Householder QR of
    each matrix in a (B, m, c) stack, taking the earliest of the columns
    whose remaining norms are within ``tie`` times their own norms of the
    largest."""
    r = r.copy()
    batch, m, c = r.shape
    order = np.tile(np.arange(c), (batch, 1))
    diag = np.zeros((batch, min(m, c)))
    every = np.arange(batch)
    slack = tie * np.sqrt(np.einsum("bij,bij->bj", r, r))
    for k in range(min(m, c)):
        tail = r[:, k:, k:]
        norms = np.sqrt(np.einsum("bij,bij->bj", tail, tail))
        top = np.argmax(norms, axis=1)
        bar = norms[every, top][:, None] - np.maximum(slack[:, k:], slack[every, k + top][:, None])
        # swaps reorder the columns, so earliest means the smallest index
        pick = np.argmin(np.where(norms >= bar, order[:, k:], c), axis=1)
        alpha = norms[every, pick]
        swap = k + pick
        for arr in (r, order, slack):
            arr[every, ..., k], arr[every, ..., swap] = arr[every, ..., swap], arr[every, ..., k].copy()
        diag[:, k] = alpha
        # reflect column k onto the axis: v = x + sign(x0)|x| e0
        v = r[:, k:, k].copy()
        v[:, 0] += np.copysign(alpha, v[:, 0])
        scale = np.einsum("bi,bi->b", v, v)
        v /= np.sqrt(np.where(scale > 0.0, scale, 1.0))[:, None]
        tail -= 2.0 * v[:, :, None] * np.einsum("bi,bij->bj", v, tail)[:, None, :]
    return diag, order


def design_cells(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix`` in lexicographic order, and the index
    of each row's cell: ``np.unique(matrix, axis=0, return_inverse=True)``
    by one lexsort, which is several times faster."""
    n, p = matrix.shape
    if p == 0:
        return matrix[:1], np.zeros(n, dtype=np.intp)
    order = np.lexsort(matrix.T[::-1])
    ordered = matrix[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    cell_of_row = np.empty(n, dtype=np.intp)
    cell_of_row[order] = np.cumsum(starts) - 1
    return ordered[starts], cell_of_row


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

    ``problem`` gives the matrix and the column names. Problem b has
    targets ``targets[b]``, keeps the cells where ``row_counts[b]`` is
    positive, with base mass ``base_weights[b]`` there, and enforces the
    columns where the boolean ``columns[b]`` is True (every column by
    default); ``warm_start[b]`` is its starting dual, aligned with all
    columns. Any of these may be given once, unstacked, for every problem;
    targets and base weights not given are the problem's own (1 per row
    where it has none), and counts not given are 1 per row.

    Returns, per problem, what a stack of that problem alone gives on its
    own cells and columns from the same warm start, to the bit: a
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
    given = [
        ("targets", problem.targets if targets is None else targets, p, np.float64),
        ("base_weights", base_weights, k, np.float64),
        ("row_counts", ones if row_counts is None else row_counts, k, np.float64),
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
        matrix = np.ascontiguousarray(problem.matrix[own][:, keep])
        cols = np.ascontiguousarray(matrix.T)  # column reductions run along rows
        names = np.asarray(problem.column_names, dtype=object)[keep]
        t, mass, count, lam = (
            a[members][:, sel]
            for a, sel in ((targets, keep), (base, own), (counts, own), (warm, keep))
        )
        # a target outside its column's range is infeasible, and so is one on
        # the boundary, since entropy weights are strictly positive; a
        # constant column admits its own value, to 1e-9. Any weights meet a
        # target within TOL of every value of a column no wider than TOL, so
        # such a column admits it and takes no part in the rank guard or the
        # step
        lo, hi = cols.min(axis=1), cols.max(axis=1)
        idle = (hi > lo) & (hi - lo <= TOL)
        constant = np.abs(t - lo) <= 1e-9 * np.maximum(1.0, np.abs(lo))
        inside = np.where(idle, (hi - TOL <= t) & (t <= lo + TOL), (lo < t) & (t < hi))
        outside = ~np.where(hi == lo, constant, inside)
        for pos in np.flatnonzero(outside.any(axis=1)):
            j = int(np.argmax(outside[pos]))
            results[members[pos]] = InfeasibleTargetsError(
                names[j], float(t[pos, j]), (float(lo[j]), float(hi[j]))
            )
        todo = np.flatnonzero(~outside.any(axis=1))
        guarded = np.flatnonzero(~idle)
        cut = np.zeros(t.shape, dtype=bool)
        if todo.size and guarded.size:
            design = matrix if guarded.size == len(cols) else matrix[:, guarded]
            # each member has every cell, so the range screen gives the peaks
            peak = np.maximum(hi, -lo)[guarded]
            if np.all(count[todo] == count[todo[0]]):
                verdicts = _dependent_columns(design, count[todo[:1]], peak) * todo.size
            else:
                verdicts = _dependent_columns(design, count[todo], peak)
            for pos, dropped in zip(todo, verdicts):
                cut[pos, guarded[list(dropped)]] = True
        size = batch_size(*matrix.shape)
        for start in range(0, todo.size, size):
            chunk = todo[start : start + size]
            outcomes = _newton_batch(
                cols, names, t[chunk], mass[chunk], lam[chunk], cut[chunk], idle
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


def _newton_batch(cols, names, targets, base, lam, cut, idle):
    """Damped Newton over a stack of problems on every cell and column of
    the (p, k) C-contiguous ``cols``, whose names are the object array
    ``names``, each with its own targets, base mass and warm start. A column
    ``cut`` by the rank guard, or ``idle`` because its range is within
    ``TOL``, keeps a dual of 0, a zero gradient entry and an identity row
    and column in the Hessian, and is verified with the others at the end.

    Every product is formed per problem, so a problem's rounding does not
    depend on the rest of the stack, and the Hessian is centred before its
    product, so no digits cancel when one cell carries nearly all the mass.
    A problem's phase-1 program runs at most once: at its first rejected
    step or first Hessian past ``ILL_CONDITIONED``, raising when its slack
    exceeds max(``INFEASIBLE_SLACK``, p * ``TOL``), or else after the last
    step if the problem has not converged. A problem that ends unconverged
    raises when its slack exceeds ``INFEASIBLE_SLACK`` alone. Returns per
    problem a ``WeightVector`` or the ``InfeasibleTargetsError`` naming its
    broken constraint and cut columns.
    """
    # softmax ignores a column's offset, which would only cost the logits
    # digits, so each column is taken about its mean over the cells
    center = cols.mean(axis=1)
    phi_t, goal = cols - center[:, None], targets - center
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
    loose = max(INFEASIBLE_SLACK, p * TOL)  # while iterating, what TOL allows

    def phase1(positions, threshold):
        # the program runs once per problem; a slack above threshold is its result
        for pos in positions:
            try:
                if pos not in slack:
                    slack[pos] = _classify_failure(cols, targets[pos], names, threshold)
                elif slack[pos] is not None and slack[pos].sum() > threshold:
                    _raise_joint(cols, targets[pos], names, slack[pos])
            except InfeasibleTargetsError as err:
                err.dropped_columns = tuple(names[cut[pos]])
                slack[pos], results[pos] = None, err

    live = np.arange(m)  # positions of the problems still iterating
    for iteration in range(MAX_ITER + 1):
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
        done = (miss <= TOL) | ((gap <= TOL) & (gap >= 0.5 * previous[live]))
        previous[live] = gap
        steps[0, live[done]] = iteration
        if done.any():
            live, prob, lam, objective, mean, grad = (
                a[~done] for a in (live, prob, lam, objective, mean, grad)
            )
        if live.size == 0 or iteration == MAX_ITER:
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
        phase1(live[ill], loose)
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
        finite = np.isfinite(cand).all(axis=1)
        cand[~finite] = lam[~finite]  # a step that overflowed is rejected unevaluated
        cand_prob, cand_obj = _states(phi_t, log_q[live], cand, goal[live])
        # below objective resolution the sufficient-decrease test cannot
        # certify progress; this close to the optimum the raw step is a
        # contraction
        accept = finite & (slope < 0) & (
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
        phase1(live[~accept], loose)
        go = np.asarray([results[pos] is None for pos in live.tolist()], dtype=bool)
        if not go.all():
            live, prob, lam, objective = live[go], prob[go], lam[go], objective[go]
    steps[0, live] = MAX_ITER

    # the verdict over every column, cut ones included (their targets must be
    # consistent to pass); a problem that did not converge keeps its
    # least-violating iterate, since on infeasible targets the objective falls
    # without bound while rounding erodes the last iterates
    w = n * prob_out
    w /= w.sum(axis=1, keepdims=True) / n
    violations = np.abs((phi_t @ (w / n)[:, :, None])[:, :, 0] - goal).max(axis=1, initial=0.0)
    for pos in np.flatnonzero([r is None for r in results]):
        converged = bool(violations[pos] <= TOL)
        if not converged:  # a NaN violation goes to the program too
            phase1([pos], INFEASIBLE_SLACK)
            if results[pos] is not None:
                continue
        diag = RakingDiagnostics(
            converged=converged,
            iterations=int(steps[0, pos]),
            max_violation=float(violations[pos]),
            dual_norm=_norm(lam_out[pos]),
            newton_steps=int(steps[1, pos]),
            fallback_sweeps=int(steps[2, pos]),
            dropped_columns=tuple(names[cut[pos]]),
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


def _norm(v: np.ndarray) -> float:
    """Euclidean norm, scaled by the largest entry only when the squares
    overflow, so a norm that fits keeps ``np.linalg.norm``'s bits."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
        if np.isinf(norm):
            peak = np.abs(v).max()
            norm = peak * np.linalg.norm(v / peak)
    return float(norm)


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


def balance_table(problem: CalibrationProblem, w: np.ndarray) -> list[dict]:
    """The balance table: each constraint column's target and its margins
    before and after weighting by ``w``, weights of any scale; weights with
    mean 1, such as a ``WeightVector``'s values, are taken as given."""
    w = np.asarray(w, dtype=np.float64)
    if abs(w.mean() - 1.0) > 1e-9:
        w = w / w.mean()
    share = w / problem.n
    return [
        {"column": name, "target": float(target), "unweighted": float(col.mean()),
         "weighted": float(col @ share)}
        for name, target, col in zip(problem.column_names, problem.targets, problem.matrix.T)
    ]
