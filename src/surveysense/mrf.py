"""Mixed Markov random field estimation via nodewise penalized regressions.

Each node is regressed on all remaining nodes: linear lasso for continuous
responses, logistic for binary, multinomial logistic for categorical. All
three run one cyclic coordinate descent kernel in Gram (covariance-update)
form (Friedman, Hastie & Tibshirani 2010, J. Stat. Softw. 33(1)): it works
on G = XᵀWX/n and the gradient c − Gβ, which it keeps current with one
O(p) update per changed coordinate, so a sweep never touches an n-length
array. The linear lasso forms G once per path (W = I) and uses
active-set passes; the logistic and multinomial fits form G once per
iteratively reweighted least squares step, with the intercept as an
unpenalized coordinate 0 whose Gram row is Xᵀw/n, and stop at the first
sweep that moves no coefficient by the tolerance. The edge weight
between two nodes averages the coefficient-group norms from the two
directions, so an edge survives when either regression keeps the other node
(the OR rule). The penalty level comes from 10-fold cross validation with
the one-standard-error rule unless a fixed value is supplied.

Predictors are standardized (categorical nodes enter as full indicator
blocks), so coefficient norms are comparable across nodes and the group
norms live on one scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DetectionError

logger = logging.getLogger(__name__)

__all__ = ["MixedGraph", "fit_mrf", "lasso_path", "cv_lambda"]

#: |coefficient| on the standardized scale treated as quasi-separation
SEPARATION_BOUND = 30.0

_WEIGHT_FLOOR = 1e-5
_PROB_CLIP = 1e-9


def _soft(z: float, g: float) -> float:
    if z > g:
        return z - g
    if z < -g:
        return z + g
    return 0.0


def _cd(gram, grad, lam, beta, tol, *, intercept, active_set, max_sweeps):
    """Cyclic coordinate descent on ½βᵀGβ − cᵀβ + lam·Σ|β_j| in Gram form.

    ``gram`` is G = XᵀWX/n and ``grad`` the gradient c − Gβ at ``beta``.
    ``beta`` and ``grad`` are updated in place, ``grad`` with one O(p) row
    update per changed coordinate, so a sweep never touches an n-length
    array. With
    ``intercept`` coordinate 0 is unpenalized, moved first in every sweep
    and left out of the stopping rule. Without ``active_set`` the descent
    stops at the first sweep that moves no coordinate by ``tol``; with it,
    such a sweep is followed by passes over the nonzero coordinates until
    they settle, and it stops at a settled full sweep that changed no
    coordinate's support.
    """
    rows = list(gram)
    diag = gram.diagonal().tolist()
    b = beta.tolist()
    first = 1 if intercept else 0
    active_only = False
    for _ in range(max_sweeps):
        if intercept:
            shift = grad.item(0) / diag[0]
            if shift != 0.0:
                b[0] += shift
                grad -= rows[0] * shift
        delta = 0.0
        changed_support = False
        for j in range(first, len(b)):
            bj = b[j]
            if active_only and bj == 0.0:
                continue
            sq = diag[j]
            if sq == 0.0:
                continue
            new = _soft(grad.item(j) + sq * bj, lam) / sq
            if new != bj:
                grad += rows[j] * (bj - new)
                b[j] = new
                delta = max(delta, abs(new - bj))
                if (bj == 0.0) != (new == 0.0):
                    changed_support = True
        if delta < tol:
            if not active_only and not (active_set and changed_support):
                break
            active_only = False  # full pass to look for violations
        elif active_set:
            active_only = True
    else:
        logger.debug("coordinate descent hit the sweep limit")
    beta[:] = b


def _irls_step(xt, y, prob, lam, theta, tol):
    """One weighted lasso for the quadratic approximation at ``prob``.

    ``xt`` carries a leading column of ones for the intercept. The
    gradient c − Gθ of the working problem is the score Xᵀ(y − p)/n.
    """
    n = xt.shape[0]
    obs_w = np.maximum(prob * (1 - prob), _WEIGHT_FLOOR)
    gram = (xt.T * obs_w) @ xt / n
    grad = xt.T @ (y - prob) / n
    _cd(gram, grad, lam, theta, tol, intercept=True, active_set=False, max_sweeps=200)


def _fit_logistic(xt, y, lam, theta, tol, max_outer=60):
    from scipy.special import expit

    for _ in range(max_outer):
        prob = np.clip(expit(xt @ theta), _PROB_CLIP, 1 - _PROB_CLIP)
        old = theta.copy()
        _irls_step(xt, y, prob, lam, theta, tol)
        if np.max(np.abs(theta - old)) < tol:
            break


def _fit_multinomial(xt, y_onehot, lam, theta, tol, max_outer=60):
    k = y_onehot.shape[1]
    for _ in range(max_outer):
        old = theta[:, 1:].copy()
        for cls in range(k):
            eta = xt @ theta.T
            eta -= eta.max(axis=1, keepdims=True)
            prob = np.exp(eta)
            prob /= prob.sum(axis=1, keepdims=True)
            pk = np.clip(prob[:, cls], _PROB_CLIP, 1 - _PROB_CLIP)
            _irls_step(xt, y_onehot[:, cls], pk, lam, theta[cls], tol)
        theta[:, 0] -= theta[:, 0].mean()  # symmetric parameterization
        if np.max(np.abs(theta[:, 1:] - old)) < tol:
            break


def lasso_path(
    x: np.ndarray,
    response: np.ndarray,
    kind: str,
    lambdas: np.ndarray,
    *,
    tol: float = 1e-7,
) -> list[np.ndarray]:
    """Coefficient matrices along a descending penalty path, warm started.

    Returns one (k, p) array per penalty (k = 1 for gaussian and binary).
    """
    n, p = x.shape
    if kind == "continuous":
        gram = x.T @ x / n
        beta = np.zeros(p)
        out = []
        for lam in lambdas:
            grad = x.T @ (response - x @ beta) / n
            _cd(gram, grad, lam, beta, tol, intercept=False, active_set=True,
                max_sweeps=1000)
            out.append(beta.copy()[None, :])
        return out
    if kind not in ("binary", "categorical"):
        raise DetectionError(f"unknown node kind {kind!r}")
    xt = np.hstack([np.ones((n, 1)), x])
    if kind == "binary":
        theta = np.zeros(p + 1)
        out = []
        for lam in lambdas:
            _fit_logistic(xt, response, lam, theta, tol)
            out.append(theta[1:].copy()[None, :])
        return out
    theta = np.zeros((response.shape[1], p + 1))
    out = []
    for lam in lambdas:
        _fit_multinomial(xt, response, lam, theta, tol)
        out.append(theta[:, 1:].copy())
    return out


def _lambda_max(x: np.ndarray, response: np.ndarray, kind: str) -> float:
    n = x.shape[0]
    if kind == "continuous":
        return float(np.max(np.abs(x.T @ response)) / n)
    if kind == "binary":
        return float(np.max(np.abs(x.T @ (response - response.mean()))) / n)
    centered = response - response.mean(axis=0, keepdims=True)
    return float(np.max(np.abs(x.T @ centered)) / n)


def _holdout_loss(x, response, kind, coefs) -> float:
    from scipy.special import expit

    if kind == "continuous":
        resid = response - x @ coefs[0]
        return float(resid @ resid / len(response))
    if kind == "binary":
        eta = x @ coefs[0]
        prob = np.clip(expit(eta), _PROB_CLIP, 1 - _PROB_CLIP)
        return float(
            -2.0 * np.mean(response * np.log(prob) + (1 - response) * np.log1p(-prob))
        )
    eta = x @ coefs.T
    eta -= eta.max(axis=1, keepdims=True)
    prob = np.exp(eta)
    prob /= prob.sum(axis=1, keepdims=True)
    picked = np.clip((prob * response).sum(axis=1), _PROB_CLIP, None)
    return float(-2.0 * np.mean(np.log(picked)))


def cv_lambda(
    x: np.ndarray,
    response: np.ndarray,
    kind: str,
    lambdas: np.ndarray,
    *,
    folds: int = 10,
    rng: np.random.Generator,
) -> float:
    """Penalty by k-fold cross validation with the one-standard-error rule."""
    n = x.shape[0]
    if folds < 2 or folds > n:
        raise DetectionError(f"cannot run {folds}-fold cross validation on {n} rows")
    fold_id = np.empty(n, dtype=int)
    fold_id[rng.permutation(n)] = np.arange(n) % folds
    losses = np.empty((folds, len(lambdas)))
    for fold in range(folds):
        held = fold_id == fold
        path = lasso_path(x[~held], response[~held], kind, lambdas)
        for idx, coefs in enumerate(path):
            losses[fold, idx] = _holdout_loss(x[held], response[held], kind, coefs)
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

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DetectionError(f"node {name!r} is not in the graph") from None

    def adjacency(self) -> np.ndarray:
        return self.weights > 0.0

    def edges(self) -> list[tuple[str, str, float]]:
        out = []
        for i in range(len(self.names)):
            for j in range(i + 1, len(self.names)):
                if self.weights[i, j] > 0.0:
                    out.append((self.names[i], self.names[j], float(self.weights[i, j])))
        return out

    def neighbors(self, name: str) -> tuple[str, ...]:
        i = self.index(name)
        return tuple(
            self.names[j] for j in np.flatnonzero(self.weights[i] > 0.0)
        )


def _predictor_block(values: np.ndarray, kind: str, name: str) -> np.ndarray:
    """Standardized predictor columns for one node."""
    if kind == "categorical":
        levels = sorted(set(values.tolist()))
        if len(levels) < 2:
            raise DetectionError(f"categorical node {name!r} has one level")
        block = np.column_stack(
            [(values == level).astype(np.float64) for level in levels]
        )
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
    folds: int = 10,
    n_lambdas: int = 30,
    lambda_min_ratio: float = 0.01,
) -> MixedGraph:
    """Estimate the conditional-independence graph of the given columns.

    Parameters
    ----------
    columns, kinds : node values and their kinds
    lam : "cv" for per-node cross validation, or a fixed penalty applied
        to every nodewise regression
    seed : drives the cross-validation folds only

    Deterministic given data, penalty policy, and seed.
    """
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

    flags: list[str] = []
    norms = np.zeros((q, q))
    node_lambdas: dict[str, float] = {}
    for i, name in enumerate(names):
        others = [m for m in names if m != name]
        x = np.hstack([blocks[m] for m in others])
        slices = {}
        start = 0
        for m in others:
            width = blocks[m].shape[1]
            slices[m] = slice(start, start + width)
            start += width
        if x.shape[1] >= n:
            flags.append(f"{name}: {x.shape[1]} parameters for {n} rows")
        response = _response_for(np.asarray(columns[name]), kinds[name], name)
        lam_max = _lambda_max(x, response, kinds[name])
        if lam_max == 0.0:
            node_lambdas[name] = 0.0
            continue
        if lam == "cv":
            path = np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambdas)
            rng = stream_for_node(seed, i)
            lam_i = cv_lambda(x, response, kinds[name], path, folds=folds, rng=rng)
        else:
            lam_i = float(lam)
        node_lambdas[name] = lam_i
        if lam_i >= lam_max:  # zero is exact; a fit may leave 1e-16 phantom edges
            continue
        coefs = lasso_path(x, response, kinds[name], np.asarray([lam_i]))[0]
        if np.max(np.abs(coefs)) > SEPARATION_BOUND:
            flags.append(f"{name}: quasi-separated fit (|coef| > {SEPARATION_BOUND:g})")
        for m in others:
            j = names.index(m)
            norms[i, j] = float(np.linalg.norm(coefs[:, slices[m]]))

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
