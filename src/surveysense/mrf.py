"""Mixed Markov random field estimation via nodewise penalized regressions.

Each node is regressed on all remaining nodes: linear lasso for continuous
responses, logistic for binary, multinomial logistic for categorical. All
three run one cyclic coordinate descent kernel in Gram (covariance-update)
form (Friedman, Hastie & Tibshirani 2010, J. Stat. Softw. 33(1)): it works
on G = XᵀWX/n and the gradient c − Gβ, which it keeps current with one
O(p) update per changed coordinate, so a sweep never touches an n-length
array. The linear lasso forms G and the score Xᵀy/n once per problem
(W = I) and solves each penalty of its path from zero, as one more problem
of the stack, with active-set passes. The logistic and multinomial fits
form G once per iteratively reweighted least squares step, with the
intercept as an unpenalized coordinate 0 whose Gram row is Xᵀw/n, stop at
the first sweep that moves no coefficient by the tolerance, and walk their
path warm started: from zero a penalty takes about five IRLS steps, each
re-forming an n-row Gram, where a warm start takes three. The edge weight
between two nodes averages the coefficient-group norms of both directions,
so an edge survives when either regression keeps the other node (the OR
rule). The penalty comes from 10-fold cross validation with the
one-standard-error rule unless a fixed value is supplied.

The kernel runs a stack of problems of one shape: it updates a coordinate
of every problem with a few numpy operations on one contiguous row, and
each problem takes the sweeps, and the bits, it would take alone.
``lasso_path`` takes only such stacks, on a leading axis. Cross
validation stacks every (node, fold) problem of one kind, width, class
count, row count and path length, and the final fits stack the nodes of
one kind, width and class count, since numpy's cost per call makes a
stack of one several times slower than a stack of many. A fit that
stops at an iteration limit instead of at the tolerance is flagged on
the graph.

Predictors are standardized (categorical nodes enter as full indicator
blocks), so coefficient norms are comparable across nodes and the group
norms live on one scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .calibrate import BATCH_BYTES
from .config import is_penalty
from .errors import DetectionError

logger = logging.getLogger(__name__)

__all__ = ["MixedGraph", "fit_mrf", "lasso_path"]

#: |coefficient| on the standardized scale treated as quasi-separation
SEPARATION_BOUND = 30.0

_WEIGHT_FLOOR = 1e-5
_PROB_CLIP = 1e-9
#: IRLS steps per penalty of a logistic or multinomial fit
_MAX_OUTER = 60
#: largest coefficient change of a sweep or an IRLS step that counts as settled
_TOL = 1e-7
#: ``lam="cv"``: folds, and a geometric path from lambda_max down to a ratio of it
_FOLDS = 10
_N_LAMBDAS = 30
_LAMBDA_MIN_RATIO = 0.01


def _cd_stack(gram, grad, lam, beta, *, intercept, active_set, max_sweeps, active_only=None):
    """Cyclic coordinate descent on ½βᵀGβ − cᵀβ + lam·Σ|β_j| in Gram form,
    for a stack of B problems at once.

    ``gram`` is (B, p, p) G = XᵀWX/n, ``grad`` the (B, p) gradient c − Gβ
    at ``beta`` and ``lam`` (B,); ``beta`` and ``grad`` are updated in
    place. With ``intercept`` coordinate 0 is unpenalized, moved first in
    every sweep and left out of the stopping rule. Without ``active_set`` a
    problem stops at the first sweep that moves no coordinate by ``_TOL``;
    with it, such a sweep is followed by passes over the nonzero
    coordinates until they settle, and it stops at a settled full sweep
    that changed no coordinate's support. Returns the (B,) mask of the
    problems that stopped at ``max_sweeps``.

    β, the gradient, the diagonal and each Gram row are held column-major,
    (p, B), so coordinate j of every problem is one contiguous row. Each
    sweep masks the coordinates a problem sits out (past its own stop, at a
    zero diagonal, or zero in an active-set pass), so it takes the sweeps it
    would take alone, and takes δ from a (p, B) buffer of its steps. Once
    half the problems have stopped, the rest go on as a stack of their own.
    """
    n_probs, p = beta.shape
    rows = np.ascontiguousarray(gram.transpose(1, 2, 0))
    diag = np.ascontiguousarray(gram.diagonal(axis1=1, axis2=2).T)
    live = diag != 0.0
    sq = np.where(live, diag, 1.0)
    g, b = np.ascontiguousarray(grad.T), np.ascontiguousarray(beta.T)
    neg_lam = -lam
    running = np.ones(n_probs, dtype=bool)
    active_only = np.zeros(n_probs, dtype=bool) if active_only is None else active_only
    visit, step = np.empty((p, n_probs), dtype=bool), np.empty((p, n_probs))
    new, clipped, update = np.empty(n_probs), np.empty(n_probs), np.empty((p, n_probs))
    for sweep in range(max_sweeps):
        # A problem that does not move a coordinate takes a step of 0.0 there,
        # which leaves its coefficients as they were and its gradient too, up
        # to the sign of a zero entry, which no later update can tell apart.
        if intercept:
            shift = np.where(running, g[0] / diag[0], 0.0)
            b[0] += shift
            g -= rows[0] * shift
        np.logical_and(live, running, out=visit)
        if active_set:
            visit &= (b != 0.0) | ~active_only
            was_zero = b == 0.0
        step.fill(0.0)
        for j in range(1 if intercept else 0, p):
            bj = b[j]
            np.multiply(diag[j], bj, out=new)
            new += g[j]
            # z − clip(z, −lam, lam) is z − lam, z + lam or +0.0, never −0.0
            np.maximum(new, neg_lam, out=clipped)
            np.minimum(clipped, lam, out=clipped)
            new -= clipped
            new /= sq[j]
            np.subtract(bj, new, out=step[j], where=visit[j])
            if np.count_nonzero(step[j]):
                np.copyto(bj, new, where=visit[j])
                np.multiply(rows[j], step[j], out=update)
                g += update
        settled = np.abs(step).max(axis=0) < _TOL
        changed_support = active_set and (was_zero != (b == 0.0)).any(axis=0)
        running &= ~settled | active_only | changed_support
        active_only = ~settled & active_set
        if 2 * np.count_nonzero(running) <= n_probs:
            break
    grad[:], beta[:] = g.T, b.T
    left = np.flatnonzero(running)
    if len(left) and sweep + 1 < max_sweeps:
        rest_grad, rest_beta = grad[left], beta[left]
        running[left] = _cd_stack(
            gram[left], rest_grad, lam[left], rest_beta, intercept=intercept,
            active_set=active_set, max_sweeps=max_sweeps - sweep - 1,
            active_only=active_only[left],
        )
        grad[left], beta[left] = rest_grad, rest_beta
    return running


# The logistic and multinomial fits run on (B, ...) arrays: a 3-D matmul runs
# the same BLAS call on each problem's slice, and every transposed operand is
# a view, so each problem's iterates do not depend on the rest of its stack.


def _irls_stack(xt, y, prob, lam, theta):
    """One weighted lasso per problem for the quadratic approximation at
    ``prob``. ``xt`` (B, n, p+1) carries a leading column of ones for the
    intercept. The gradient c − Gθ of the working problem is the score
    Xᵀ(y − p)/n."""
    n = xt.shape[1]
    xtt = xt.transpose(0, 2, 1)
    obs_w = np.maximum(prob * (1 - prob), _WEIGHT_FLOOR)
    gram = (xtt * obs_w[:, None, :]) @ xt / n
    grad = (xtt @ (y - prob)[:, :, None])[:, :, 0] / n
    return _cd_stack(gram, grad, lam, theta, intercept=True, active_set=False, max_sweeps=200)


def _irls_fits(step, xt, y, lam, theta):
    """IRLS ``step``s on a stack until each problem's coefficients move by
    less than ``_TOL``, compacting it only when one finishes. Updates
    ``theta``; returns the (B,) mask of the fits stopped at a limit."""
    stopped = np.zeros(len(theta), dtype=bool)
    idx, xs, ys, ls, th = np.arange(len(theta)), xt, y, lam, theta
    for _ in range(_MAX_OUTER):
        hit, moved = step(xs, ys, ls, th)
        stopped[idx] |= hit
        if (moved < _TOL).any():
            theta[idx] = th
            idx, xs, ys, ls, th = (a[~(moved < _TOL)] for a in (idx, xs, ys, ls, th))
        if not len(idx):
            break
    theta[idx] = th
    stopped[idx] = True
    return stopped


def _logistic_step(xt, y, lam, theta):
    """One IRLS step of penalized logistic fits, ``theta`` (B, p+1): the
    fits that stopped at the sweep limit, and each one's largest change."""
    from scipy.special import expit

    prob = np.clip(expit((xt @ theta[:, :, None])[:, :, 0]), _PROB_CLIP, 1 - _PROB_CLIP)
    old = theta.copy()
    hit = _irls_stack(xt, y, prob, lam, theta)
    return hit, np.max(np.abs(theta - old), axis=1)


def _multinomial_step(xt, y_onehot, lam, theta):
    """One IRLS step of penalized multinomial fits, one class at a time, in
    the symmetric parameterization: ``theta`` (B, k, p+1)."""
    old = theta[:, :, 1:].copy()
    hit = np.zeros(len(theta), dtype=bool)
    for cls in range(y_onehot.shape[2]):
        prob = _softmax(xt @ theta.transpose(0, 2, 1))
        pk = np.clip(prob[:, :, cls], _PROB_CLIP, 1 - _PROB_CLIP)
        hit |= _irls_stack(xt, y_onehot[:, :, cls], pk, lam, theta[:, cls])
    theta[:, :, 0] -= theta[:, :, 0].mean(axis=1, keepdims=True)
    return hit, np.max(np.abs(theta[:, :, 1:] - old), axis=(1, 2))


def _softmax(eta: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``eta``, in place."""
    eta -= eta.max(axis=-1, keepdims=True)
    np.exp(eta, out=eta)
    eta /= eta.sum(axis=-1, keepdims=True)
    return eta


def lasso_path(
    x: np.ndarray, response: np.ndarray, kind: str, lambdas: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Coefficient arrays along descending penalty paths, one per problem of
    a stack: ``x`` (B, n, p), ``response`` (B, n[, k]) and ``lambdas`` (B, L).

    Returns the (B, k, p) coefficients of each penalty (k = 1 for gaussian
    and binary) and the (B,) counts of the penalties whose fit stopped at an
    iteration limit. A continuous path solves each penalty from zero, all in
    one stack, so each fit has the bits of a one-penalty call; a logistic or
    multinomial path is warm started from the fit before.
    """
    n_probs, n, p = x.shape
    stopped = np.zeros(n_probs, dtype=int)
    if kind == "continuous":
        xtt, n_lams = x.transpose(0, 2, 1), lambdas.shape[1]
        gram, score = xtt @ x / n, (xtt @ response[:, :, None])[:, :, 0] / n
        beta = np.zeros((n_probs * n_lams, p))
        hits = _cd_stack(np.repeat(gram, n_lams, axis=0), np.repeat(score, n_lams, axis=0),
                         lambdas.ravel(), beta, intercept=False, active_set=True,
                         max_sweeps=1000)
        stopped += hits.reshape(n_probs, n_lams).sum(axis=1)
        coefs = list(beta.reshape(n_probs, n_lams, 1, p).transpose(1, 0, 2, 3).copy())
    elif kind in ("binary", "categorical"):
        xt = np.concatenate([np.ones((n_probs, n, 1)), x], axis=2)
        if kind == "binary":
            theta = np.zeros((n_probs, 1, p + 1))
            step, params = _logistic_step, theta[:, 0]
        else:
            theta = np.zeros((n_probs, response.shape[2], p + 1))
            step, params = _multinomial_step, theta
        coefs = []
        for lam in lambdas.T:
            stopped += _irls_fits(step, xt, response, lam, params)
            coefs.append(theta[:, :, 1:].copy())
    else:
        raise DetectionError(f"unknown node kind {kind!r}")
    return coefs, stopped


def _lambda_max(x: np.ndarray, response: np.ndarray, kind: str) -> float:
    n = x.shape[0]
    if kind != "continuous":
        response = response - response.mean(axis=0, keepdims=True)
    return float(np.max(np.abs(x.T @ response)) / n)


def _holdout_losses(x, response, kind, coefs) -> np.ndarray:
    """Deviance per problem of (B, k, p) ``coefs`` on held-out rows ``x``
    (B, m, p), mean squared error for continuous nodes."""
    from scipy.special import expit

    if kind == "continuous":
        resid = response - (x @ coefs[:, 0, :, None])[:, :, 0]
        return (resid[:, None, :] @ resid[:, :, None])[:, 0, 0] / response.shape[1]
    if kind == "binary":
        eta = (x @ coefs[:, 0, :, None])[:, :, 0]
        prob = np.clip(expit(eta), _PROB_CLIP, 1 - _PROB_CLIP)
        return -2.0 * np.mean(
            response * np.log(prob) + (1 - response) * np.log1p(-prob), axis=1
        )
    prob = _softmax(x @ coefs.transpose(0, 2, 1))
    picked = np.clip((prob * response).sum(axis=2), _PROB_CLIP, None)
    return -2.0 * np.mean(np.log(picked), axis=1)


@dataclass(frozen=True)
class _CVNode:
    """One node's cross-validation problem: its design, response, descending
    penalty path and the fold of each row."""

    x: np.ndarray
    response: np.ndarray
    kind: str
    lambdas: np.ndarray
    fold_id: np.ndarray
    folds: int


def _fold_ids(n: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    if folds < 2 or folds > n:
        raise DetectionError(f"cannot run {folds}-fold cross validation on {n} rows")
    fold_id = np.empty(n, dtype=int)
    fold_id[rng.permutation(n)] = np.arange(n) % folds
    return fold_id


def _stacks(problems):
    """Groups ``(key, item)`` pairs by key, whose first entries are the kind,
    predictor width, response shape, training rows and path length that one
    stack must share, and yields each group's kind and items in chunks of at
    most ``BATCH_BYTES`` of training design plus, on a continuous path, a Gram per penalty."""
    groups: dict[tuple, list] = {}
    for key, item in problems:
        groups.setdefault(key, []).append(item)
    for (kind, p, _, n, n_lams, *_), items in groups.items():
        grams = n_lams * p * p if kind == "continuous" else 0
        size = max(1, BATCH_BYTES // (8 * (n * (p + 1) + grams)))
        for start in range(0, len(items), size):
            yield kind, items[start:start + size]


def _cv_losses(nodes: list[_CVNode]) -> tuple[list[np.ndarray], list[int]]:
    """Every node's (folds, penalties) held-out loss matrix, and how many of
    its fold fits stopped at an iteration limit.

    The (node, fold) problems are stacked by kind, predictor width, response
    classes, row counts and path length.
    """
    problems = []
    for i, node in enumerate(nodes):
        n, p = node.x.shape
        for fold in range(node.folds):
            n_held = int(np.count_nonzero(node.fold_id == fold))
            key = (node.kind, p, node.response.shape[1:], n - n_held, len(node.lambdas), n_held)
            problems.append((key, (i, fold)))
    losses = [np.empty((node.folds, len(node.lambdas))) for node in nodes]
    stopped = [0] * len(nodes)
    for kind, chunk in _stacks(problems):
        held = [nodes[i].fold_id == fold for i, fold in chunk]
        xs = [nodes[i].x for i, _ in chunk]
        ys = [nodes[i].response for i, _ in chunk]
        path, path_stopped = lasso_path(
            np.stack([x[~h] for x, h in zip(xs, held)]),
            np.stack([y[~h] for y, h in zip(ys, held)]),
            kind,
            np.stack([nodes[i].lambdas for i, _ in chunk]),
        )
        x_held = np.stack([x[h] for x, h in zip(xs, held)])
        y_held = np.stack([y[h] for y, h in zip(ys, held)])
        out = np.column_stack([_holdout_losses(x_held, y_held, kind, coefs) for coefs in path])
        for (i, fold), row, hits in zip(chunk, out, path_stopped):
            losses[i][fold] = row
            stopped[i] += int(hits > 0)
    return losses, stopped


def _one_se(losses: np.ndarray, lambdas: np.ndarray) -> float:
    """The sparsest penalty whose mean loss is within one standard error
    of the smallest mean loss."""
    folds = len(losses)
    mean = losses.mean(axis=0)
    se = losses.std(axis=0, ddof=1) / np.sqrt(folds)
    best = int(np.argmin(mean))
    threshold = mean[best] + se[best]
    for idx in range(len(lambdas)):  # lambdas descend, so first hit is sparsest
        if mean[idx] <= threshold:
            return float(lambdas[idx])
    return float(lambdas[best])


@dataclass(frozen=True)
class MixedGraph:
    """Undirected weighted graph over typed nodes."""

    names: tuple[str, ...]
    kinds: dict[str, str]
    weights: np.ndarray  # symmetric, zero diagonal
    node_lambdas: dict[str, float]
    flags: tuple[str, ...] = field(default=())

    def adjacency(self) -> np.ndarray:
        return self.weights > 0.0

    def edges(self) -> list[tuple[str, str, float]]:
        out = []
        for i in range(len(self.names)):
            for j in range(i + 1, len(self.names)):
                if self.weights[i, j] > 0.0:
                    out.append((self.names[i], self.names[j], float(self.weights[i, j])))
        return out


def _predictor_block(values: np.ndarray, kind: str, name: str) -> np.ndarray:
    """Standardized predictor columns for one node."""
    if kind == "categorical":
        block = _indicators(values, name)
    else:
        block = np.asarray(values, dtype=np.float64)[:, None]
    sd = block.std(axis=0)
    if np.any(sd == 0.0) and kind != "categorical":
        raise DetectionError(f"node {name!r} is constant")
    sd = np.where(sd == 0.0, 1.0, sd)
    return (block - block.mean(axis=0)) / sd


def _response_for(values: np.ndarray, kind: str, name: str):
    if kind == "continuous":
        sd = values.std()
        if sd == 0.0:
            raise DetectionError(f"node {name!r} is constant")
        return (values - values.mean()) / sd
    if kind == "binary":
        return np.asarray(values, dtype=np.float64)
    return _indicators(values, name)


def _indicators(values: np.ndarray, name: str) -> np.ndarray:
    """One 0/1 column per level of a categorical node, levels sorted."""
    levels = sorted(set(values.tolist()))
    if len(levels) < 2:
        raise DetectionError(f"categorical node {name!r} has one level")
    return np.column_stack([(values == level).astype(np.float64) for level in levels])


def fit_mrf(
    columns: dict[str, np.ndarray],
    kinds: dict[str, str],
    *,
    lam: float | str = "cv",
    seed: int = 0,
) -> MixedGraph:
    """Estimate the conditional-independence graph of the given columns.

    Parameters
    ----------
    columns, kinds : node values and their kinds
    lam : "cv" for per-node cross validation, or a finite positive penalty
        applied to every nodewise regression (anything else raises)
    seed : drives the cross-validation folds only

    Deterministic given data, penalty policy, and seed.
    """
    if not is_penalty(lam):
        raise DetectionError(f'lam must be "cv" or a positive number, not {lam!r}')
    names = tuple(columns)
    q = len(names)
    if q < 2:
        raise DetectionError("graph estimation needs at least two nodes")
    n = len(next(iter(columns.values())))

    blocks = {}
    for name in names:
        kind = kinds.get(name)
        if kind not in ("continuous", "binary", "categorical"):
            raise DetectionError(f"node {name!r}: unknown kind {kind!r}")
        blocks[name] = _predictor_block(np.asarray(columns[name]), kind, name)

    # first pass: each node's design and response, and under cross
    # validation its penalty path and folds
    designs = []
    cv: dict[int, _CVNode] = {}
    for i, name in enumerate(names):
        x = np.hstack([blocks[m] for m in names if m != name])
        response = _response_for(np.asarray(columns[name]), kinds[name], name)
        lam_max = _lambda_max(x, response, kinds[name])
        designs.append((x, response, lam_max))
        if lam == "cv" and lam_max != 0.0:
            path = np.geomspace(lam_max, lam_max * _LAMBDA_MIN_RATIO, _N_LAMBDAS)
            fold_id = _fold_ids(n, _FOLDS, stream_for_node(seed, i))
            cv[i] = _CVNode(x, response, kinds[name], path, fold_id, _FOLDS)
    # then every node's folds at once
    all_losses, all_stopped = _cv_losses(list(cv.values()))
    cv_fits = dict(zip(cv, zip(all_losses, all_stopped)))

    # then each node's penalty, and its final fit below lambda_max, the
    # nodes of one kind, width and class count in one stack
    node_lambdas: dict[str, float] = {}
    todo = []
    for i, (name, (x, response, lam_max)) in enumerate(zip(names, designs)):
        if lam_max == 0.0:
            lam_i = 0.0
        elif lam == "cv":
            lam_i = _one_se(cv_fits[i][0], cv[i].lambdas)
        else:
            lam_i = float(lam)
        node_lambdas[name] = lam_i
        if lam_i < lam_max:  # zero is exact; a fit may leave 1e-16 phantom edges
            todo.append(((kinds[name], x.shape[1], response.shape[1:], n, 1), i))
    fits = {}
    for kind, chunk in _stacks(todo):
        (coefs,), stopped = lasso_path(
            np.stack([designs[i][0] for i in chunk]),
            np.stack([designs[i][1] for i in chunk]),
            kind,
            np.array([[node_lambdas[names[i]]] for i in chunk]),
        )
        fits.update(zip(chunk, zip(coefs, stopped)))

    flags: list[str] = []
    norms = np.zeros((q, q))
    for i, (name, (x, _, _)) in enumerate(zip(names, designs)):
        if x.shape[1] >= n:
            flags.append(f"{name}: {x.shape[1]} parameters for {n} rows")
        if i in cv and cv_fits[i][1]:
            flags.append(
                f"{name}: {cv_fits[i][1]} of {_FOLDS} CV fold fits stopped at the iteration limit"
            )
        if i not in fits:
            continue
        coefs, stopped = fits[i]
        if stopped:
            flags.append(f"{name}: the fit stopped at the iteration limit")
        if np.max(np.abs(coefs)) > SEPARATION_BOUND:
            flags.append(f"{name}: quasi-separated fit (|coef| > {SEPARATION_BOUND:g})")
        start = 0
        for m in names:
            if m != name:
                width = blocks[m].shape[1]
                norms[i, names.index(m)] = float(np.linalg.norm(coefs[:, start:start + width]))
                start += width

    weights = (norms + norms.T) / 2.0
    np.fill_diagonal(weights, 0.0)
    for message in flags:
        logger.warning("graph fit: %s", message)
    return MixedGraph(
        names=names,
        kinds={k: kinds[k] for k in names},
        weights=weights,
        node_lambdas=node_lambdas,
        flags=tuple(flags),
    )


def stream_for_node(seed: int, node_index: int) -> np.random.Generator:
    from .simulate import STAGE_GRAPH, stream

    return stream(seed, node_index, STAGE_GRAPH)
