"""Nodewise lasso graph estimation over mixed variable types."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import surveysense.mrf as mrf
from surveysense.errors import DetectionError
from surveysense.mrf import MixedGraph, fit_mrf, lasso_path
from surveysense.simulate import STAGE_GRAPH, gaussian_mrf_sample, stream

# --- row-form oracle ----------------------------------------------------------
# Coordinate descent in row form: every coordinate update reads and writes the
# n-length residual. The package's Gram-form kernel runs the same sweeps and
# stopping rules, so it must reproduce these iterates up to rounding.


def _soft(z, g):
    if z > g:
        return z - g
    if z < -g:
        return z + g
    return 0.0


def _cd_gaussian(x, y, lam, beta, tol, max_sweeps=1000):
    n, p = x.shape
    r = y - x @ beta
    sq = np.einsum("ij,ij->j", x, x) / n
    active_only = False
    for _ in range(max_sweeps):
        delta = 0.0
        changed_support = False
        for j in range(p):
            bj = beta[j]
            if active_only and bj == 0.0:
                continue
            if sq[j] == 0.0:
                continue
            rho = (x[:, j] @ r) / n + sq[j] * bj
            new = _soft(rho, lam) / sq[j]
            if new != bj:
                r += x[:, j] * (bj - new)
                beta[j] = new
                delta = max(delta, abs(new - bj))
                if (bj == 0.0) != (new == 0.0):
                    changed_support = True
        if delta < tol:
            if active_only:
                active_only = False
            elif not changed_support:
                return beta
        else:
            active_only = True
    return beta


def _cd_weighted(x, z, obs_w, lam, beta, intercept, tol, max_sweeps=200):
    n, p = x.shape
    r = z - intercept - x @ beta
    w_sum = obs_w.sum()
    sq = (obs_w @ (x * x)) / n
    for _ in range(max_sweeps):
        delta = 0.0
        shift = (obs_w @ r) / w_sum
        intercept += shift
        r -= shift
        for j in range(p):
            if sq[j] == 0.0:
                continue
            bj = beta[j]
            rho = (obs_w @ (x[:, j] * r)) / n + sq[j] * bj
            new = _soft(rho, lam) / sq[j]
            if new != bj:
                r += x[:, j] * (bj - new)
                beta[j] = new
                delta = max(delta, abs(new - bj))
        if delta < tol:
            break
    return beta, intercept


def _oracle_path(x, response, kind, lambdas, tol=1e-7):
    from scipy.special import expit

    p = x.shape[1]
    out = []
    if kind == "continuous":
        for lam in lambdas:  # every penalty from zero, as the package solves them
            out.append(_cd_gaussian(x, response, lam, np.zeros(p), tol)[None, :])
    elif kind == "binary":
        beta, intercept = np.zeros(p), 0.0
        for lam in lambdas:
            for _ in range(60):
                eta = intercept + x @ beta
                prob = np.clip(expit(eta), 1e-9, 1 - 1e-9)
                obs_w = np.maximum(prob * (1 - prob), 1e-5)
                z = eta + (response - prob) / obs_w
                old, old_int = beta.copy(), intercept
                beta, intercept = _cd_weighted(x, z, obs_w, lam, beta, intercept, tol)
                if max(np.max(np.abs(beta - old)), abs(intercept - old_int)) < tol:
                    break
            out.append(beta.copy()[None, :])
    else:
        k = response.shape[1]
        coefs, intercepts = np.zeros((k, p)), np.zeros(k)
        for lam in lambdas:
            for _ in range(60):
                old = coefs.copy()
                for cls in range(k):
                    eta = intercepts[None, :] + x @ coefs.T
                    eta -= eta.max(axis=1, keepdims=True)
                    prob = np.exp(eta)
                    prob /= prob.sum(axis=1, keepdims=True)
                    pk = np.clip(prob[:, cls], 1e-9, 1 - 1e-9)
                    obs_w = np.maximum(pk * (1 - pk), 1e-5)
                    eta_k = intercepts[cls] + x @ coefs[cls]
                    z = eta_k + (response[:, cls] - pk) / obs_w
                    coefs[cls], intercepts[cls] = _cd_weighted(
                        x, z, obs_w, lam, coefs[cls], intercepts[cls], tol
                    )
                intercepts -= intercepts.mean()
                if np.max(np.abs(coefs - old)) < tol:
                    break
            out.append(coefs.copy())
    return out


# --- scalar Gram-form oracle ---------------------------------------------------
# The package's kernel, one problem at a time: the same sweeps, stopping rules
# and IEEE operations on 2-D arrays and Python floats. The stacked kernel must
# give each problem these bits, whatever it is stacked with.


def _cd(gram, grad, lam, beta, tol, *, intercept, active_set, max_sweeps):
    rows = list(gram)
    diag = gram.diagonal().tolist()
    b = beta.tolist()
    first = 1 if intercept else 0
    active_only = False
    stopped = True
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
                stopped = False
                break
            active_only = False  # full pass to look for violations
        elif active_set:
            active_only = True
    beta[:] = b
    return stopped


def _irls_step(xt, y, prob, lam, theta, tol):
    n = xt.shape[0]
    obs_w = np.maximum(prob * (1 - prob), 1e-5)
    gram = (xt.T * obs_w) @ xt / n
    grad = xt.T @ (y - prob) / n
    return _cd(gram, grad, lam, theta, tol, intercept=True, active_set=False, max_sweeps=200)


def _fit_logistic(xt, y, lam, theta, tol):
    from scipy.special import expit

    stopped = False
    for _ in range(60):
        prob = np.clip(expit(xt @ theta), 1e-9, 1 - 1e-9)
        old = theta.copy()
        stopped |= _irls_step(xt, y, prob, lam, theta, tol)
        if np.max(np.abs(theta - old)) < tol:
            return stopped
    return True


def _fit_multinomial(xt, y_onehot, lam, theta, tol):
    stopped = False
    for _ in range(60):
        old = theta[:, 1:].copy()
        for cls in range(y_onehot.shape[1]):
            eta = xt @ theta.T
            eta -= eta.max(axis=1, keepdims=True)
            prob = np.exp(eta)
            prob /= prob.sum(axis=1, keepdims=True)
            pk = np.clip(prob[:, cls], 1e-9, 1 - 1e-9)
            stopped |= _irls_step(xt, y_onehot[:, cls], pk, lam, theta[cls], tol)
        theta[:, 0] -= theta[:, 0].mean()  # symmetric parameterization
        if np.max(np.abs(theta[:, 1:] - old)) < tol:
            return stopped
    return True


def _scalar_path(x, response, kind, lambdas, tol=1e-7):
    """``lasso_path`` on one (n, p) problem, fit by the scalar kernel: each
    penalty's (k, p) coefficients and the count of fits stopped at a limit."""
    n, p = x.shape
    out = []
    stopped = 0
    if kind == "continuous":
        gram, score = x.T @ x / n, x.T @ response / n
        for lam in lambdas:  # every penalty from zero
            beta = np.zeros(p)
            stopped += _cd(gram, score.copy(), lam, beta, tol, intercept=False, active_set=True,
                           max_sweeps=1000)
            out.append(beta[None, :])
        return out, stopped
    xt = np.hstack([np.ones((n, 1)), x])
    if kind == "binary":
        theta = np.zeros(p + 1)
        for lam in lambdas:
            stopped += _fit_logistic(xt, response, lam, theta, tol)
            out.append(theta[1:].copy()[None, :])
        return out, stopped
    theta = np.zeros((response.shape[1], p + 1))
    for lam in lambdas:
        stopped += _fit_multinomial(xt, response, lam, theta, tol)
        out.append(theta[:, 1:].copy())
    return out, stopped


CHAIN_PRECISION = np.array(
    [[1.0, 0.6, 0.0], [0.6, 2.0, 0.6], [0.0, 0.6, 1.0]]
)


def chain_columns(n=2000, seed=0):
    return gaussian_mrf_sample(CHAIN_PRECISION, ("x", "v", "y"), n, seed=seed)


def test_lasso_path_shrinks_to_zero():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((300, 4))
    y = x @ np.array([1.0, -0.5, 0.0, 0.0]) + 0.3 * rng.standard_normal(300)
    lambdas = np.geomspace(2.0, 0.001, 12)
    path, _ = lasso_path(x[None], y[None], "continuous", lambdas[None])
    assert np.all(path[0] == 0.0)  # heaviest penalty kills everything
    dense = path[-1][0, 0]
    assert abs(dense[0] - 1.0) < 0.1
    assert abs(dense[2]) < 0.05
    # penalties descend, so support can only grow
    supports = [int(np.count_nonzero(c)) for c in path]
    assert supports == sorted(supports)


def test_lasso_path_logistic_recovers_sign():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((800, 3))
    prob = 1.0 / (1.0 + np.exp(-(1.5 * x[:, 0] - x[:, 1])))
    y = (rng.random(800) < prob).astype(float)
    coefs = lasso_path(x[None], y[None], "binary", np.array([[0.01]]))[0][0][0, 0]
    assert coefs[0] > 0.5
    assert coefs[1] < -0.3
    assert abs(coefs[2]) < 0.2


def test_lasso_path_unknown_kind():
    with pytest.raises(DetectionError):
        lasso_path(np.zeros((1, 5, 2)), np.zeros((1, 5)), "ordinal", np.array([[0.1]]))


def test_cv_lambda_deterministic_given_rng_key():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((200, 3))
    y = x[:, 0] + 0.5 * rng.standard_normal(200)
    lambdas = np.geomspace(1.0, 0.01, 10)

    def pick(key):
        fold_id = mrf._fold_ids(200, 10, np.random.default_rng(key))
        (losses,), _ = mrf._cv_losses([mrf._CVNode(x, y, "continuous", lambdas, fold_id)])
        return mrf._one_se(losses, lambdas)

    assert pick(1) == pick(1)
    assert pick(1) in lambdas
    with pytest.raises(DetectionError, match="300-fold cross validation on 200 rows"):
        mrf._fold_ids(200, 300, rng)


class TestFitMRF:
    @staticmethod
    def test_recovers_chain():
        cols = chain_columns()
        kinds = {k: "continuous" for k in cols}
        graph = fit_mrf(cols, kinds, lam="cv", seed=0)
        names = {frozenset((a, b)) for a, b, _ in graph.edges()}
        assert frozenset(("x", "v")) in names
        assert frozenset(("v", "y")) in names
        assert frozenset(("x", "y")) not in names

    @staticmethod
    def test_weights_symmetric_zero_diagonal():
        cols = chain_columns(n=500, seed=3)
        graph = fit_mrf(cols, {k: "continuous" for k in cols}, lam=0.1)
        np.testing.assert_array_equal(graph.weights, graph.weights.T)
        np.testing.assert_array_equal(np.diag(graph.weights), 0.0)

    @staticmethod
    def test_deterministic():
        cols = chain_columns(n=400, seed=5)
        kinds = {k: "continuous" for k in cols}
        a = fit_mrf(cols, kinds, lam="cv", seed=9)
        b = fit_mrf(cols, kinds, lam="cv", seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.node_lambdas == b.node_lambdas

    @staticmethod
    def test_mixed_kinds_with_binary_node():
        rng = np.random.default_rng(8)
        n = 1500
        x = rng.standard_normal(n)
        b = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.8 * x))).astype(float)
        y = 1.2 * b + 0.5 * rng.standard_normal(n)
        graph = fit_mrf(
            {"x": x, "b": b, "y": y},
            {"x": "continuous", "b": "binary", "y": "continuous"},
            lam="cv",
            seed=2,
        )
        names = {frozenset(e[:2]) for e in graph.edges()}
        assert frozenset(("x", "b")) in names
        assert frozenset(("b", "y")) in names

    @staticmethod
    def test_too_few_nodes():
        with pytest.raises(DetectionError, match="two nodes"):
            fit_mrf({"x": np.zeros(5)}, {"x": "continuous"})

    @staticmethod
    def test_constant_node_rejected():
        with pytest.raises(DetectionError, match="constant"):
            fit_mrf(
                {"x": np.ones(50), "y": np.arange(50.0)},
                {"x": "continuous", "y": "continuous"},
            )


def test_mixed_graph_helpers():
    weights = np.array([[0.0, 0.4, 0.0], [0.4, 0.0, 0.2], [0.0, 0.2, 0.0]])
    graph = MixedGraph(
        names=("a", "b", "c"),
        kinds={n: "continuous" for n in "abc"},
        weights=weights,
        node_lambdas={n: 0.1 for n in "abc"},
    )
    assert graph.adjacency().sum() == 4
    assert graph.edges() == [("a", "b", 0.4), ("b", "c", 0.2)]


# --- Gram-form kernel against the row-form oracle -----------------------------


def _response(kind, signal, rng):
    if kind == "continuous":
        y = signal + 0.5 * rng.standard_normal(len(signal))
        return (y - y.mean()) / y.std()
    if kind == "binary":
        return (rng.random(len(signal)) < 1.0 / (1.0 + np.exp(-signal))).astype(float)
    codes = np.searchsorted(np.quantile(signal, [1 / 3, 2 / 3]), signal)
    return np.eye(3)[codes]


def _penalties(x, response, kind, ratio):
    centered = response if kind == "continuous" else response - response.mean(axis=0)
    top = float(np.max(np.abs(x.T @ centered)) / len(x))
    return np.geomspace(top, top * ratio, 10)


@pytest.mark.parametrize("kind", ["continuous", "binary", "categorical"])
@pytest.mark.parametrize("design", ["plain", "constant_column", "n_below_p"])
def test_lasso_path_matches_row_form_oracle(kind, design):
    rng = np.random.default_rng(31)
    n, p = (12, 20) if design == "n_below_p" else (240, 7)
    x = rng.standard_normal((n, p))
    if design == "constant_column":
        x[:, 2] = 0.0  # a standardized one-level indicator: the sq == 0 skip
    x = (x - x.mean(axis=0)) / np.where(x.std(axis=0) == 0.0, 1.0, x.std(axis=0))
    signal = 1.2 * x[:, 0] - 0.8 * x[:, 1] + 0.5 * x[:, 3]
    response = _response(kind, signal, rng)
    lambdas = _penalties(x, response, kind, 0.2 if design == "n_below_p" else 0.01)
    got = [coefs[0] for coefs in lasso_path(x[None], response[None], kind, lambdas[None])[0]]
    want = _oracle_path(x, response, kind, lambdas)
    assert len(got) == len(want) == 10
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-10)
    assert np.count_nonzero(got[-1]) > 0  # the path reaches a nontrivial fit
    # the soft-threshold gives +0.0 inside the threshold, as the oracles do,
    # so no −0.0 reaches a weight or an artifact
    assert not any(np.any(np.signbit(g) & (g == 0.0)) for g in got)
    if design == "constant_column":
        assert all(np.all(c[:, 2] == 0.0) for c in got)


def _mixed_16_node_sample(n, seed):
    """16 nodes laid out like the graph-16 benchmark: a chain plus cross
    edges, five nodes thresholded to binary and one cut into three levels."""
    q = 16
    precision = np.zeros((q, q))
    for i in range(q - 1):
        precision[i, i + 1] = precision[i + 1, i] = -0.45
    for i, j in ((0, 6), (0, 10), (2, 9), (4, 12), (7, 14), (3, 11)):
        precision[i, j] = precision[j, i] = -0.4
    np.fill_diagonal(precision, 1.0 + np.abs(precision).sum(axis=1))
    names = tuple(f"n{i:02d}" for i in range(q))
    cols = gaussian_mrf_sample(precision, names, n, seed=seed)
    kinds = {name: "continuous" for name in names}
    for i in (3, 5, 7, 9, 11):
        cols[names[i]] = (cols[names[i]] > 0.0).astype(float)
        kinds[names[i]] = "binary"
    z = cols[names[13]]
    cols[names[13]] = np.searchsorted(np.quantile(z, [1 / 3, 2 / 3]), z).astype(float)
    kinds[names[13]] = "categorical"
    return cols, kinds


# --- per-fold cross validation, the oracle of the stacked one -----------------
# One node and one fold at a time: the scalar path on the fold's training rows,
# then the held-out loss of each penalty's fit. The package stacks every
# (node, fold) problem of one shape and must give the same bits.


def _holdout_loss(x, response, kind, coefs):
    from scipy.special import expit

    if kind == "continuous":
        resid = response - x @ coefs[0]
        return float(resid @ resid / len(response))
    if kind == "binary":
        eta = x @ coefs[0]
        prob = np.clip(expit(eta), 1e-9, 1 - 1e-9)
        return float(
            -2.0 * np.mean(response * np.log(prob) + (1 - response) * np.log1p(-prob))
        )
    eta = x @ coefs.T
    eta -= eta.max(axis=1, keepdims=True)
    prob = np.exp(eta)
    prob /= prob.sum(axis=1, keepdims=True)
    picked = np.clip((prob * response).sum(axis=1), 1e-9, None)
    return float(-2.0 * np.mean(np.log(picked)))


def _oracle_cv_losses(x, response, kind, lambdas, fold_id, folds, path_fn=_scalar_path):
    """The (folds, penalties) loss matrix and the number of fold fits that
    stopped at an iteration limit."""
    losses = np.empty((folds, len(lambdas)))
    stopped = 0
    for fold in range(folds):
        held = fold_id == fold
        path, path_stopped = path_fn(x[~held], response[~held], kind, lambdas)
        stopped += path_stopped > 0
        for idx, coefs in enumerate(path):
            losses[fold, idx] = _holdout_loss(x[held], response[held], kind, coefs)
    return losses, stopped


def _oracle_one_se(losses, lambdas):
    mean = losses.mean(axis=0)
    se = losses.std(axis=0, ddof=1) / np.sqrt(len(losses))
    best = int(np.argmin(mean))
    for idx in range(len(lambdas)):
        if mean[idx] <= mean[best] + se[best]:
            return float(lambdas[idx])
    return float(lambdas[best])


def _oracle_fold_ids(n, folds, rng):
    fold_id = np.empty(n, dtype=int)
    fold_id[rng.permutation(n)] = np.arange(n) % folds
    return fold_id


def _oracle_fit_mrf(columns, kinds, *, lam, seed, folds=10, n_lambdas=30, ratio=0.01,
                    path_fn=_scalar_path):
    """``fit_mrf`` as one loop over the nodes, each fit alone by ``path_fn``,
    cross-validated fold by fold and flagged as it is fit. Returns node
    penalties, weights, flags."""
    names = tuple(columns)
    n = len(columns[names[0]])
    blocks = {m: mrf._predictor_block(np.asarray(columns[m]), kinds[m], m) for m in names}
    flags, node_lambdas = [], {}
    norms = np.zeros((len(names), len(names)))
    for i, name in enumerate(names):
        others = [m for m in names if m != name]
        x = np.hstack([blocks[m] for m in others])
        if x.shape[1] >= n:
            flags.append(f"{name}: {x.shape[1]} parameters for {n} rows")
        response = mrf._response_for(np.asarray(columns[name]), kinds[name], name)
        lam_max = mrf._lambda_max(x, response, kinds[name])
        if lam_max == 0.0:
            node_lambdas[name] = 0.0
            continue
        if lam == "cv":
            path = np.geomspace(lam_max, lam_max * ratio, n_lambdas)
            fold_id = _oracle_fold_ids(n, folds, stream(seed, i, STAGE_GRAPH))
            losses, stopped = _oracle_cv_losses(x, response, kinds[name], path, fold_id, folds,
                                                path_fn)
            lam_i = _oracle_one_se(losses, path)
            if stopped:
                flags.append(f"{name}: {stopped} of {folds} CV fold fits stopped at the "
                             "iteration limit")
        else:
            lam_i = float(lam)
        node_lambdas[name] = lam_i
        if lam_i >= lam_max:
            continue
        (fit,), fit_stopped = path_fn(x, response, kinds[name], np.asarray([lam_i]))
        if fit_stopped:
            flags.append(f"{name}: the fit stopped at the iteration limit")
        if np.max(np.abs(fit)) > mrf.SEPARATION_BOUND:
            flags.append(f"{name}: quasi-separated fit (|coef| > 30)")
        start = 0
        for m in others:
            width = blocks[m].shape[1]
            norms[i, names.index(m)] = float(np.linalg.norm(fit[:, start:start + width]))
            start += width
    weights = (norms + norms.T) / 2.0
    np.fill_diagonal(weights, 0.0)
    return node_lambdas, weights, tuple(flags)


def _row_form_path(*args, **kwargs):
    return _oracle_path(*args, **kwargs), 0


@pytest.mark.parametrize("lam", [0.08, "cv"])
def test_fit_mrf_matches_row_form_oracle(lam):
    cols, kinds = _mixed_16_node_sample(300, seed=4)
    with mock.patch.object(mrf, "_N_LAMBDAS", 12):
        got = fit_mrf(cols, kinds, lam=lam, seed=1)
    # every node's folds, and then every node's final fit, in stacks give the
    # bits of the scalar kernel run node by node and fold by fold
    lambdas, weights, flags = _oracle_fit_mrf(cols, kinds, lam=lam, seed=1, n_lambdas=12)
    assert got.node_lambdas == lambdas
    np.testing.assert_array_equal(got.weights, weights)
    assert got.flags == flags
    # and the Gram-form kernel matches the row form, cross validation included
    lambdas, weights, flags = _oracle_fit_mrf(cols, kinds, lam=lam, seed=1, n_lambdas=12,
                                              path_fn=_row_form_path)
    # under cross validation n14 and n15 both pick their lambda_max, which
    # fit_mrf answers with zero coefficients before either kernel runs
    np.testing.assert_array_equal(got.adjacency(), weights > 0.0)
    np.testing.assert_allclose(got.weights, weights, rtol=0.0, atol=1e-8)
    assert got.node_lambdas == lambdas
    assert got.flags == flags
    assert len(got.edges()) >= 10


def test_flags_interleave_per_node_as_the_oracle_fits_them():
    # 10 rows: c has 9 levels, so b, x0 and y each have 11 parameters; x0
    # separates b, and c's multinomial fit on b, x0 and y is quasi-separated.
    # Flags come node by node, so c's come before b's parameter count.
    rng = np.random.default_rng(0)
    z = rng.standard_normal(10)
    x0 = np.sign(z) * (0.5 + np.abs(z))
    cols = {"c": np.arange(10) % 9 * 1.0, "b": (x0 > 0.0) * 1.0, "x0": x0,
            "y": rng.standard_normal(10)}
    kinds = {"c": "categorical", "b": "binary", "x0": "continuous", "y": "continuous"}
    got = fit_mrf(cols, kinds, lam=1e-3)
    lambdas, weights, flags = _oracle_fit_mrf(cols, kinds, lam=1e-3, seed=0)
    assert got.node_lambdas == lambdas
    np.testing.assert_array_equal(got.weights, weights)
    assert got.flags == flags
    assert flags.index("c: quasi-separated fit (|coef| > 30)") < flags.index(
        "b: 11 parameters for 10 rows"
    )
    assert sum("parameters for 10 rows" in f for f in flags) == 3


def test_fits_that_stop_at_a_limit_are_flagged():
    # x separates b perfectly, so b's logistic coefficients grow without a
    # bound as the penalty falls, and IRLS stops at its step limit
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200)
    cols = {"x": x, "b": (x > 0.0) * 1.0, "y": x + rng.standard_normal(200)}
    kinds = {"x": "continuous", "b": "binary", "y": "continuous"}
    assert fit_mrf(cols, kinds, lam=1e-2).flags == ()
    fixed = fit_mrf(cols, kinds, lam=1e-4)
    assert fixed.flags[0] == "b: the fit stopped at the iteration limit"
    with (mock.patch.object(mrf, "_FOLDS", 5), mock.patch.object(mrf, "_N_LAMBDAS", 10),
          mock.patch.object(mrf, "_LAMBDA_MIN_RATIO", 1e-4)):
        cv = fit_mrf(cols, kinds, lam="cv")
    assert cv.flags[0] == "b: 5 of 5 CV fold fits stopped at the iteration limit"
    assert "b: the fit stopped at the iteration limit" in cv.flags
    assert not any(f.startswith(("x:", "y:")) for f in cv.flags)
    design = np.column_stack([x, cols["y"]])
    design = (design - design.mean(axis=0)) / design.std(axis=0)
    _, stopped = lasso_path(design[None], cols["b"][None], "binary", np.array([[1e-2, 1e-4]]))
    assert stopped.tolist() == [1]


# --- the stacked cross validation against the per-fold oracle ------------------


@st.composite
def cv_stacks(draw, limits=False):
    """Nodes of every kind on shared rows, cut into folds that do not divide
    the rows (so a node's folds have two training sizes), some with a
    zero-variance column, some with fewer rows than predictors, some with a
    response independent of the design (which picks its own lambda_max),
    and rows per stack chunk from one problem to the whole group. With
    ``limits``, also nodes with two nearly equal columns or a response that
    the design separates, on paths down to 1e-5 of lambda_max, so that fits
    stop at the sweep or IRLS limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    folds = draw(st.integers(2, 6))
    n = folds * draw(st.integers(1, 8)) + draw(st.integers(1, folds - 1))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["continuous", "binary", "categorical"]))
        p = draw(st.sampled_from([1, 3, 6]))
        x = rng.standard_normal((n, p))
        if p > 1 and draw(st.booleans()):
            x[:, 0] = 0.0  # a standardized one-level indicator: the sq == 0 skip
        if limits and p > 2 and draw(st.booleans()):
            x[:, 2] = x[:, 1] + 1e-3 * rng.standard_normal(n)  # a slow descent
        x[:, 1:] = (x[:, 1:] - x[:, 1:].mean(axis=0)) / x[:, 1:].std(axis=0)
        signal = x @ rng.standard_normal(p) * draw(st.sampled_from([0.0, 1.0, 3.0]))
        separated = limits and draw(st.booleans())
        if kind == "continuous":
            y = signal + rng.standard_normal(n)
            response = (y - y.mean()) / y.std()
        elif kind == "binary":
            cut = 0.5 if separated else rng.random(n)
            response = (cut < 1.0 / (1.0 + np.exp(-signal))) * 1.0
        else:
            noisy = signal if separated else signal + rng.standard_normal(n)
            codes = np.searchsorted(np.quantile(noisy, [0.3, 0.6]),
                                    signal if separated else signal + rng.standard_normal(n))
            response = np.eye(3)[codes]
        lam_max = mrf._lambda_max(x, response, kind)
        if lam_max == 0.0:
            continue
        ratios = [0.5, 0.1, 0.02] + ([1e-5] if limits else [])
        lambdas = np.geomspace(lam_max, lam_max * draw(st.sampled_from(ratios)),
                               draw(st.integers(2, 6)))
        fold_id = _oracle_fold_ids(n, folds, rng)
        nodes.append(mrf._CVNode(x, response, kind, lambdas, fold_id))
    # chunk budget: one problem per chunk, two or three problems per chunk
    # of the largest stack, or the package's
    return nodes, draw(st.sampled_from([1, 2, 3, None]))


def _n_folds(node):
    return len(np.unique(node.fold_id))


def _largest_stack(nodes):
    """Problems in the largest (node, fold) stack of ``_cv_losses`` and
    the bytes ``_stacks`` counts for one problem there: its training design
    and, on a continuous path, its Gram once per penalty."""
    sizes = {}
    for node in nodes:
        n, p = node.x.shape
        for fold in range(_n_folds(node)):
            n_train = n - int(np.count_nonzero(node.fold_id == fold))
            key = (node.kind, p, node.response.shape[1:], n_train, len(node.lambdas))
            sizes[key] = sizes.get(key, 0) + 1
    (kind, p, _, n_train, n_lams), count = max(sizes.items(), key=lambda item: item[1])
    grams = n_lams * p * p if kind == "continuous" else 0
    return count, 8 * (n_train * (p + 1) + grams)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cv_stacks())
def test_stacked_cv_equals_per_fold_oracle(case):
    nodes, per_chunk = case
    budget = per_chunk
    if per_chunk in (2, 3) and nodes:
        largest, problem_bytes = _largest_stack(nodes)
        budget = per_chunk * problem_bytes
    calls = mock.Mock(wraps=mrf.lasso_path)
    with mock.patch.object(mrf, "lasso_path", calls), \
            mock.patch.object(mrf, "BATCH_BYTES", budget or mrf.BATCH_BYTES):
        losses, stopped = mrf._cv_losses(nodes)
    if budget == 1:
        assert calls.call_count == sum(_n_folds(node) for node in nodes)
    elif per_chunk in (2, 3) and nodes and largest > 1:
        assert any(2 <= len(call.args[0]) <= 3 for call in calls.call_args_list)
    for node, got, got_stopped in zip(nodes, losses, stopped):
        want, want_stopped = _oracle_cv_losses(
            node.x, node.response, node.kind, node.lambdas, node.fold_id, _n_folds(node)
        )
        assert np.array_equal(got, want)
        assert got_stopped == want_stopped
        assert mrf._one_se(got, node.lambdas) == _oracle_one_se(want, node.lambdas)
    if nodes:
        # fit_mrf's pick: folds drawn by _fold_ids, losses, then the 1-SE rule
        node = nodes[0]
        fold_id = mrf._fold_ids(len(node.x), _n_folds(node), np.random.default_rng(7))
        assert np.array_equal(
            fold_id, _oracle_fold_ids(len(node.x), _n_folds(node), np.random.default_rng(7))
        )
        (got,), _ = mrf._cv_losses([dataclasses.replace(node, fold_id=fold_id)])
        want, _ = _oracle_cv_losses(node.x, node.response, node.kind, node.lambdas, fold_id,
                                    _n_folds(node))
        assert mrf._one_se(got, node.lambdas) == _oracle_one_se(want, node.lambdas)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cv_stacks(limits=True))
def test_stacked_lasso_path_equals_scalar_oracle(case):
    # each node twice, the second time on shuffled rows and half its
    # penalties, in one stack per kind and shape
    nodes, _ = case
    groups = {}
    for node in nodes:
        order = np.random.default_rng(0).permutation(len(node.x))
        key = (node.kind, node.x.shape[1], node.response.shape[1:], len(node.lambdas))
        groups.setdefault(key, []).extend([
            (node.x, node.response, node.lambdas),
            (node.x[order], node.response[order], node.lambdas / 2.0),
        ])
    for (kind, *_), problems in groups.items():
        xs, ys, lambdas = (np.stack(a) for a in zip(*problems))
        path, stopped = lasso_path(xs, ys, kind, lambdas)
        assert len(path) == lambdas.shape[1] and stopped.shape == (len(problems),)
        for b, (x, y, lams) in enumerate(problems):
            want, want_stopped = _scalar_path(x, y, kind, lams)
            assert all(np.array_equal(got[b], w) for got, w in zip(path, want))
            assert stopped[b] == want_stopped


@pytest.mark.parametrize("n, p", [(60, 6), (12, 15)], ids=["n_above_p", "p_at_least_n"])
def test_continuous_path_is_each_penalty_from_zero(n, p):
    # every penalty of a stacked continuous path is fit from zero: it has the
    # bits of the one-penalty fit of its problem alone, and the path's stopped
    # count is the sum of theirs
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n, p))
    x[1, :, 2] = 0.0  # the sq == 0 skip
    x = (x - x.mean(axis=1, keepdims=True)) / np.where(x.std(axis=1) == 0.0, 1.0,
                                                       x.std(axis=1))[:, None]
    y = x[:, :, 0] - 0.8 * x[:, :, 1] + rng.standard_normal((3, n))
    y = (y - y.mean(axis=1, keepdims=True)) / y.std(axis=1, keepdims=True)
    top = np.abs(np.einsum("bnp,bn->bp", x, y)).max(axis=1) / n
    lambdas = np.geomspace(top, top * 1e-3, 5).T
    path, path_stopped = lasso_path(x, y, "continuous", lambdas)
    stopped = np.zeros(3, dtype=int)
    for b in range(3):
        for lam, got in zip(lambdas[b], path):
            (alone,), alone_stopped = lasso_path(x[b:b + 1], y[b:b + 1], "continuous",
                                                 np.array([[lam]]))
            assert np.array_equal(got[b], alone[0])
            stopped[b] += alone_stopped[0]
    assert np.array_equal(path_stopped, stopped)
    assert np.all(path[-1][1][:, 2] == 0.0)
    assert (stopped.sum() > 0) == (p >= n)  # p >= n runs to the sweep limit


def test_logistic_and_multinomial_paths_keep_their_warm_started_bits():
    # Only continuous paths solve each penalty from zero. These stacked
    # logistic and multinomial paths match the warm-started scalar oracle and
    # hash to the bits recorded before that change (numpy 2.4 with its bundled
    # OpenBLAS on x86-64; another BLAS build may round differently).
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 90, 4))
    signal = x[:, :, 0] - 0.7 * x[:, :, 1]
    binary = (rng.random((3, 90)) < 1.0 / (1.0 + np.exp(-signal))) * 1.0
    codes = np.digitize(signal + rng.standard_normal((3, 90)), [-0.5, 0.5])
    lambdas = np.geomspace([0.3, 0.25, 0.2], [0.003, 0.002, 0.001], 6).T
    digest = hashlib.sha256()
    for kind, response in (("binary", binary), ("categorical", np.eye(3)[codes])):
        path, stopped = lasso_path(x, response, kind, lambdas)
        for b in range(3):
            want, _ = _scalar_path(x[b], response[b], kind, lambdas[b])
            assert all(np.array_equal(got[b], w) for got, w in zip(path, want))
        digest.update(np.stack(path).tobytes())
        digest.update(stopped.astype(np.int64).tobytes())
    assert digest.hexdigest() == (
        "3a9d36203dccc53070fbeb4638aee3d5e9f52d0dbd41609bf1de73395736b7d9"
    )


def test_continuous_fit_at_lambda_max_is_exactly_zero():
    # The score at beta = 0 is the same product that defines lambda_max, so
    # the largest one meets the penalty exactly and soft-thresholds to zero.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 4))
    y = x[:, 0] + rng.standard_normal(50)
    top = float(np.max(np.abs(x.T @ y)) / 50)
    assert np.all(lasso_path(x[None], y[None], "continuous", np.array([[top]]))[0][0] == 0.0)


@pytest.mark.parametrize("kind", ["binary", "categorical"])
def test_node_at_its_lambda_max_gets_no_phantom_edges(kind):
    # On independent data cross validation often picks a node's own
    # lambda_max. A logistic or multinomial fit there can keep coefficients of
    # about 1e-16 that would count as edges; zero is the exact solution.
    phantom = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cols = {f"x{j}": rng.standard_normal(300) for j in range(5)}
        z = rng.standard_normal(300)
        cols["t"] = ((z > 0.0) if kind == "binary" else np.searchsorted([-0.4, 0.4], z)) * 1.0
        kinds = {**dict.fromkeys(cols, "continuous"), "t": kind}
        with mock.patch.object(mrf, "_FOLDS", 5), mock.patch.object(mrf, "_N_LAMBDAS", 10):
            graph = fit_mrf(cols, kinds, lam="cv", seed=seed)
        assert not np.any((graph.weights > 0.0) & (graph.weights < 1e-12))
        x = np.hstack([mrf._predictor_block(cols[m], "continuous", m) for m in cols if m != "t"])
        response = mrf._response_for(cols["t"], kind, "t")
        lam = graph.node_lambdas["t"]
        if lam == mrf._lambda_max(x, response, kind):
            (fit,), _ = lasso_path(x[None], response[None], kind, np.array([[lam]]))
            phantom += np.any(fit != 0.0)
    assert phantom > 0  # the fit alone would have left such edges on some seeds


def test_support_change_in_a_settled_full_sweep_continues():
    # The penalty is set so that coordinate 0, first in the sweep, stays out
    # until coordinates 1 and 2 are fit and then enters by about 6e-8, below
    # the tolerance, in the settling full sweep. That sweep changed the
    # support, so the descent must go on and re-settle 1 and 2, as the row
    # form does; stopping there leaves them about 3e-8 off.
    rng = np.random.default_rng(33)
    n = 200
    x = rng.standard_normal((n, 3)) @ rng.standard_normal((3, 3))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    y = x @ rng.standard_normal(3) + 0.5 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    gram, score = x.T @ x / n, x.T @ y / n
    rhs = np.column_stack([score[1:], np.sign(score[1:])])
    fit = np.linalg.solve(gram[1:, 1:], rhs)
    # coordinate 0's score at the (1, 2) lasso fit is a + b * lam
    a, b = score[0] - gram[0, 1:] @ fit[:, 0], gram[0, 1:] @ fit[:, 1]
    lam = (a - 3e-8) / (1.0 - b)
    assert abs(score[0]) < lam
    got = lasso_path(x[None], y[None], "continuous", np.array([[lam]]))[0][0][0, 0]
    want = _oracle_path(x, y, "continuous", np.array([lam]))[0][0]
    assert 0.0 < got[0] < 1e-7
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

