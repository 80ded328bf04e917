"""Linear models over footprints: L2 logistic regression, ridge, metrics.

The classifier objective is

    J(w, b) = 0.5 * ||w||^2 + C * sum_i log(1 + exp(-y_i * (w.x_i + b)))

with y in {-1, +1} and an unpenalized intercept, so C multiplies the data
loss (larger C = weaker regularization). Value and gradient are computed
with scipy CSR products; the convex minimization itself is delegated to
L-BFGS-B from scipy, which stops at a relative objective change below 1e-8
(ftol) or a projected gradient below 1e-6 (gtol). The ftol stop usually
comes first, so a fit's final gradient is not bounded by 1e-6. The fit
runs on one BLAS thread (_util.serial_blas); the ridge factorizations run
with the caller's BLAS threads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from hashlib import sha256

import numpy as np
from scipy import linalg
from scipy.special import expit

from ._util import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_C_GRID,
    STREAM_CV,
    STREAM_SPLIT,
    ExperimentConfig,
    derive_seed,
    serial_blas,
)
from .data import FootprintMatrix, LabelTable, Partition, task_split

logger = logging.getLogger(__name__)

KIND_CLASSIFIER = "binary-classifier"
KIND_REGRESSOR = "continuous-regressor"


class ConvergenceError(RuntimeError):
    """Raised when L-BFGS-B reports failure and the final gradient
    infinity-norm is at least 1e-6.

    Carries the final gradient infinity-norm as .grad_norm.
    """

    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = float(grad_norm)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Trained linear model: item weights, intercept, regularization setting.

    C holds the inverse regularization strength for classifiers and the
    ridge penalty for regressors. kind distinguishes the two.
    """

    weights: np.ndarray
    intercept: float
    C: float
    kind: str = KIND_CLASSIFIER

    @property
    def n_items(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ThresholdSpec:
    """A decision threshold: the k-th largest score at quantile q.

    k = max(1, floor(n * (1 - q))). Scores >= value count as positive;
    cloaking succeeds only strictly below value.
    """

    quantile: float
    value: float


# ---------------------------------------------------------------------------
# logistic regression


def logreg_value_and_grad(
    m: FootprintMatrix, y01: np.ndarray, w: np.ndarray, b: float, C: float
) -> tuple[float, np.ndarray, float]:
    """Objective value and analytic gradient at (w, b).

    y01 holds labels in {0, 1}; internally they map to {-1, +1}.
    """
    y_signed = 2.0 * y01 - 1.0
    margins = m.csr @ w + b
    z = y_signed * margins
    loss = np.logaddexp(0.0, -z).sum()
    value = 0.5 * float(w @ w) + C * float(loss)
    coef = C * (-y_signed * expit(-z))
    grad_w = w + m.csr_t @ coef
    grad_b = float(coef.sum())
    return value, grad_w, grad_b


def train_logreg_l2(
    m: FootprintMatrix,
    y01: np.ndarray,
    C: float = 1.0,
    max_iter: int = 1000,
) -> LinearModel:
    """Fit L2-regularized logistic regression on binary footprint rows.

    L-BFGS-B stops at the first of: relative objective change below 1e-8
    (ftol), projected-gradient infinity-norm below 1e-6 (gtol), max_iter
    iterations or 4 * max_iter evaluations. The ftol stop needs no small
    gradient, so the result's gradient may be well above 1e-6. Raises
    ConvergenceError (with the final gradient infinity-norm) only when
    L-BFGS-B reports failure and that norm is at least 1e-6. Runs on one
    BLAS thread, so the result does not depend on the thread count.
    """
    y01 = np.asarray(y01, dtype=np.float64)
    if y01.shape != (m.n_users,):
        raise ValueError("labels not aligned with matrix users")
    if np.isnan(y01).any():
        raise ValueError("labels contain missing values; select labeled users first")
    classes = np.unique(y01)
    if classes.size < 2:
        raise ValueError("training labels contain a single class")
    if not set(classes) <= {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    if C <= 0:
        raise ValueError("C must be positive")

    # imported here, so that commands which fit nothing never load it
    from scipy import optimize

    n_items = m.n_items

    def fun(x):
        w = x[:n_items]
        b = x[n_items]
        value, grad_w, grad_b = logreg_value_and_grad(m, y01, w, b, C)
        return value, np.concatenate((grad_w, [grad_b]))

    x0 = np.zeros(n_items + 1)
    with serial_blas():
        res = optimize.minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": max_iter,
                "maxfun": max_iter * 4,
                "ftol": 1e-8,
                "gtol": 1e-6,
            },
        )
    grad_norm = float(np.max(np.abs(res.jac))) if res.jac is not None else math.inf
    if not res.success and grad_norm >= 1e-6:
        raise ConvergenceError(
            f"logistic regression did not converge: {res.message} "
            f"(final gradient norm {grad_norm:.3e})",
            grad_norm,
        )
    w = res.x[:n_items].copy()
    b = float(res.x[n_items])
    return LinearModel(w, b, float(C), KIND_CLASSIFIER)


def item_weights(model: LinearModel, items: np.ndarray) -> np.ndarray:
    """The model's weight of each item index; an item at or beyond
    model.n_items is outside the model vocabulary and weighs 0."""
    items = np.asarray(items, dtype=np.int64)
    valid = items < model.n_items
    w = np.zeros(items.shape)
    w[valid] = model.weights[items[valid]]
    return w


def decision_margins(model: LinearModel, m: FootprintMatrix) -> np.ndarray:
    """w.x + b per user, with w from item_weights."""
    return m.csr @ item_weights(model, np.arange(m.n_items)) + model.intercept


def predict_scores(model: LinearModel, m: FootprintMatrix) -> np.ndarray:
    """Positive-class probability per user."""
    if model.kind != KIND_CLASSIFIER:
        raise ValueError("predict_scores requires a binary classifier")
    return expit(decision_margins(model, m))


def _kfold(n: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold split of n rows: (validation, train) row indices
    per fold, both ascending."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    fold_idx = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    return [
        (
            np.sort(fold_idx[f]),
            np.sort(np.concatenate([fold_idx[g] for g in range(folds) if g != f])),
        )
        for f in range(folds)
    ]


def grid_search_cv(
    m: FootprintMatrix,
    y01: np.ndarray,
    grid=DEFAULT_C_GRID,
    folds: int = 3,
    seed: int = 0,
) -> float:
    """Pick C by k-fold cross-validated AUC; ties go to the smallest C.

    Folds are deterministic given the seed. A fold whose validation part
    has a single class, or whose training part cannot be fit, is skipped
    for that candidate; a candidate with no usable folds is skipped.
    """
    y01 = np.asarray(y01, dtype=np.float64)
    n = m.n_users
    if n < folds:
        raise ValueError("need at least one user per fold")
    splits = []
    for f, (val, trn) in enumerate(_kfold(n, folds, seed)):
        y_trn, y_val = y01[trn], y01[val]
        if np.unique(y_trn).size < 2 or np.unique(y_val).size < 2:
            logger.debug("grid_search_cv: fold %d skipped (single class)", f)
            continue
        splits.append((f, m.select_users(trn), y_trn, m.select_users(val), y_val))
    best_c = None
    best_mean = -np.inf
    for C in sorted(float(c) for c in grid):
        scores = []
        for f, m_trn, y_trn, m_val, y_val in splits:
            try:
                model = train_logreg_l2(m_trn, y_trn, C)
            except ConvergenceError:
                logger.debug("grid_search_cv: fold %d skipped (no convergence)", f)
                continue
            scores.append(auc(predict_scores(model, m_val), y_val))
        if not scores:
            continue
        mean = float(np.mean(scores))
        if mean > best_mean:
            best_mean = mean
            best_c = C
    if best_c is None:
        raise ValueError("no grid candidate produced a usable fold")
    return best_c


def fit_classifier(
    m: FootprintMatrix, y01: np.ndarray, folds: int, seed: int
) -> tuple[float, LinearModel, np.ndarray]:
    """Pick C by cross-validation, fit on all rows, score the training rows.

    Returns (best_c, model, train_scores); the caller sets its threshold
    from train_scores.
    """
    best_c = grid_search_cv(m, y01, folds=folds, seed=seed)
    model = train_logreg_l2(m, y01, best_c)
    return best_c, model, predict_scores(model, m)


@dataclass(frozen=True, eq=False)
class TaskClassifier:
    """The classifier of one binary task on full footprints, as train,
    explain, cloak and spillover use it.

    filtered is the activity-filtered, task-labeled matrix; train and test
    partition it. threshold is the quantile threshold of train_scores.
    """

    filtered: FootprintMatrix
    train: Partition
    test: Partition
    best_c: float
    model: LinearModel
    train_scores: np.ndarray
    threshold: ThresholdSpec


def fit_task_classifier(
    task: str, matrix: FootprintMatrix, labels: LabelTable, config: ExperimentConfig
) -> TaskClassifier:
    """Filter and split for the task, pick C by cross-validation on the
    training rows, fit, and set the threshold from the training scores."""
    fm, train, test = task_split(
        matrix,
        labels,
        task,
        config.min_user,
        config.min_item,
        config.train_frac,
        derive_seed(config.seed, STREAM_SPLIT),
    )
    best_c, model, train_scores = fit_classifier(
        train.matrix,
        train.labels.values[task],
        config.folds,
        derive_seed(config.seed, STREAM_CV),
    )
    threshold = quantile_threshold(train_scores, config.quantile)
    return TaskClassifier(fm, train, test, best_c, model, train_scores, threshold)


# ---------------------------------------------------------------------------
# thresholds and metrics


def quantile_threshold(scores: np.ndarray, q: float = 0.95) -> ThresholdSpec:
    """Threshold at the k-th largest score, k = max(1, floor(n * (1 - q)))."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0:
        raise ValueError("empty score population")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    k = max(1, int(math.floor(n * (1.0 - q))))
    value = float(np.partition(scores, n - k)[n - k])
    return ThresholdSpec(float(q), value)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks.

    Same values as scipy.stats.rankdata(x, method="average"), which costs
    every CLI process its import. A tie group at sorted positions
    [s, e) gets rank (s + e + 1) / 2, exact in float64.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new = np.concatenate(([True], xs[1:] != xs[:-1]))
    bounds = np.append(np.flatnonzero(new), x.size)
    dense = np.cumsum(new)
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (bounds[dense] + bounds[dense - 1] + 1)
    return ranks


def pearson(pred: np.ndarray, actual: np.ndarray) -> float:
    """Sample Pearson correlation; raises on constant input or length < 2."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if pred.size < 2:
        raise ValueError("pearson needs at least 2 points")
    a = pred - pred.mean()
    b = actual - actual.mean()
    na = float(np.sqrt(a @ a))
    nb = float(np.sqrt(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("pearson undefined for constant input")
    return float((a @ b) / (na * nb))


# ---------------------------------------------------------------------------
# ridge regression (continuous traits)


# rows of X per sparse product when building K = X X^T, so no sparse
# intermediate holds more than _GRAM_ROWS * n entries
_GRAM_ROWS = 256


def _gram(Xs) -> np.ndarray:
    """The dense uncentered Gram matrix K = X X^T, a block of rows at a time."""
    n = Xs.shape[0]
    K = np.empty((n, n))
    Xs_t = Xs.T.tocsr()
    for r in range(0, n, _GRAM_ROWS):
        (Xs[r : r + _GRAM_ROWS] @ Xs_t).toarray(out=K[r : r + _GRAM_ROWS])
    return K


def _centered(G: np.ndarray, p_rows: np.ndarray, p_cols: np.ndarray, pp: float):
    """G - p_rows 1^T - 1 p_cols^T + pp, in place.

    With G = K[rows][:, trn], p_* the means of K[i, trn] and pp the mean of
    K[trn][:, trn], this is the Gram matrix of the rows centered by the
    mean of the trn rows: (x_i - mu).(x_j - mu).
    """
    G -= p_rows[:, None]
    G -= p_cols[None, :]
    G += pp
    return G


def _cho_factor(A: np.ndarray, alpha: float):
    """Cholesky factor of A + alpha*I, in A's memory (A symmetric, C order)."""
    A.reshape(-1)[:: A.shape[0] + 1] += alpha
    try:
        # A.T is the same symmetric matrix in Fortran order, which LAPACK
        # factors in place
        return linalg.cho_factor(A.T, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError:
        raise ValueError(
            f"ridge system not positive definite at alpha={alpha!r}"
        ) from None


@dataclass(frozen=True, eq=False)
class RidgeBasis:
    """The target-independent part of a ridge fit.

    Holds the rows, their CV folds as (validation, train) row indices and
    the uncentered Gram matrix K = X X^T of all rows, of which every fold's
    centered train Gram matrix and validation cross-products are slices.
    It depends only on the rows, the fold count and the seed, so targets
    labeled on the same rows share one.
    """

    Xs: object
    K: np.ndarray
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]


def ridge_basis(m: FootprintMatrix, folds: int = 3, seed: int = 0) -> RidgeBasis:
    """Split m into deterministic CV folds and build the Gram matrix once."""
    if m.n_users < folds + 1:
        raise ValueError("need more users than folds")
    return RidgeBasis(m.csr, _gram(m.csr), tuple(_kfold(m.n_users, folds, seed)))


def _target_error(y: np.ndarray) -> str | None:
    if np.isnan(y).any():
        return "targets contain missing values; select labeled users first"
    if np.ptp(y) == 0.0:
        return "constant target; correlation objective undefined"
    return None


# A fold whose validation predictions spread by no more than roundoff is
# skipped: they are constant in exact arithmetic, so their Pearson is noise
# (+-1 on a 2-row fold) and could pick the alpha. The spread is taken
# relative to the most the predictions can spread,
# 2 max ||x - mu|| ||X_c||_F ||beta||, and compared with the roundoff of
# solving (Kc + alpha*I) beta = y_c: eps times kappa = (||K|| + alpha) /
# alpha, which bounds the condition number (||K||_inf >= ||K||_2 stands in
# for ||K||), times ROUNDOFF_C * sqrt(n), the growth of rounding errors that
# act as independent random variables over n rows (Higham & Mary 2019).
# The worst-case n * eps * kappa would drop real folds at small alpha on
# 8000-user data.
ROUNDOFF_C = 4


def _inf_norm(K: np.ndarray) -> float:
    """max_i sum_j |K_ij|, a block of rows at a time."""
    rows = range(0, len(K), _GRAM_ROWS)
    return max(
        (float(np.abs(K[r : r + _GRAM_ROWS]).sum(axis=1).max()) for r in rows),
        default=0.0,
    )


def _fold_correlations(K, k_norm, val, trn, Y, alphas, out) -> None:
    """One fold's validation Pearson per (alpha, target column), into out;
    a column whose training targets are constant, whose validation
    predictions spread only by roundoff, or whose Pearson is undefined is
    left as it is. k_norm is ||K||_inf.

    The train rows' centered Gram matrix Kc and the validation rows'
    centered cross-products are slices of K. Per alpha, Kc + alpha*I is
    factored once and every target is solved at once. A validation row x
    predicts (x - mu).X_c^T beta + ybar, its row of cross-products times
    beta, so no item-space weights are formed.
    """
    Y_trn = Y[trn]
    cols = np.flatnonzero(np.ptp(Y_trn, axis=0) > 0.0)
    if not len(cols):
        return
    Kc = K[np.ix_(trn, trn)]
    p_trn = Kc.mean(axis=1)
    pp = float(p_trn.mean())
    _centered(Kc, p_trn, p_trn, pp)
    K_val = K[np.ix_(val, trn)]
    p_val = K_val.mean(axis=1)
    _centered(K_val, p_val, p_trn, pp)
    # 2 max ||x - mu|| over the validation rows times ||X_c||_F; the
    # squares are the diagonals of the centered Gram matrices
    val_sq = float(np.max(np.diagonal(K)[val] - 2.0 * p_val + pp))
    reach = 2.0 * math.sqrt(max(val_sq, 0.0) * max(float(np.trace(Kc)), 0.0))
    ybar = Y_trn[:, cols].mean(axis=0)
    Yc = Y_trn[:, cols] - ybar
    roundoff = ROUNDOFF_C * math.sqrt(len(K)) * np.finfo(float).eps
    A = np.empty_like(Kc)
    for a, alpha in enumerate(alphas):
        np.copyto(A, Kc)
        B = linalg.cho_solve(_cho_factor(A, alpha), Yc, check_finite=False)
        preds = K_val @ B + ybar
        floor = roundoff * (k_norm + alpha) / alpha
        noise = np.ptp(preds, axis=0) <= floor * reach * np.linalg.norm(B, axis=0)
        for j, c in enumerate(cols):
            if noise[j]:
                logger.debug("fit_ridge: fold skipped (predictions spread by roundoff)")
                continue
            try:
                out[a, c] = pearson(preds[:, j], Y[val, c])
            except ValueError:
                logger.debug("fit_ridge: fold skipped (undefined correlation)")


def fit_ridge(
    basis: RidgeBasis, Y: np.ndarray, alpha_grid=DEFAULT_ALPHA_GRID
) -> list[LinearModel]:
    """Fit L2-penalized least squares on the basis rows, one model per
    column of Y, each column's alpha by CV Pearson.

    The intercept is unpenalized (data and targets are centered). Ties in
    mean validation correlation go to the smallest alpha. A fold whose
    validation predictions spread only by roundoff is not used. A column
    that is constant, holds NaN or has no usable fold raises ValueError;
    the first such column raises first.

    The fit is in dual form on the centered Gram matrix: one Cholesky
    factorization of Kc + alpha*I per (fold, alpha) serves every column,
    and the final fit factors the all-rows Kc + alpha*I once per distinct
    chosen alpha. Item-space weights w = X^T beta - mu sum(beta) are formed
    only there.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != basis.K.shape[0]:
        raise ValueError("targets not aligned with matrix users")
    errors = [_target_error(y) for y in Y.T]
    # the first column's own errors come before the grid's, as they do
    # when that column is fitted alone
    if errors and errors[0] is not None:
        raise ValueError(errors[0])
    alphas = sorted(float(a) for a in alpha_grid)
    if alphas and alphas[0] <= 0:
        raise ValueError("alpha must be positive")

    # validation Pearson per (alpha, fold, column), NaN where the column
    # skips the fold. Columns with an error are left out; the walk below
    # raises at the first of them, so the columns before it keep their index
    Y_fit = Y[:, [e is None for e in errors]]
    corrs = np.full((len(alphas), len(basis.folds), Y_fit.shape[1]), np.nan)
    k_norm = _inf_norm(basis.K)
    for f, (val, trn) in enumerate(basis.folds):
        _fold_correlations(basis.K, k_norm, val, trn, Y_fit, alphas, corrs[:, f])
    used = ~np.isnan(corrs)
    n_used = used.sum(axis=1)
    means = np.where(used, corrs, 0.0).sum(axis=1) / np.maximum(n_used, 1)
    means[n_used == 0] = -np.inf
    chosen = []
    for c, err in enumerate(errors):
        if err is not None:
            raise ValueError(err)
        if not n_used[:, c].any():
            raise ValueError("no alpha candidate produced a usable fold")
        chosen.append(alphas[int(np.argmax(means[:, c]))])

    mu = np.asarray(basis.Xs.mean(axis=0)).ravel()
    p = basis.K.mean(axis=1)
    pp = float(p.mean())
    models: list = [None] * len(chosen)
    for alpha in sorted(set(chosen)):
        factor = _cho_factor(_centered(basis.K.copy(), p, p, pp), alpha)
        # one column at a time, so at a given alpha a target's model does
        # not depend on which other targets share the call
        for c in (c for c, a in enumerate(chosen) if a == alpha):
            ybar = float(Y[:, c].mean())
            beta = linalg.cho_solve(factor, Y[:, c] - ybar, check_finite=False)
            w = np.asarray(basis.Xs.T @ beta).ravel() - mu * float(beta.sum())
            models[c] = LinearModel(w, ybar - float(mu @ w), alpha, KIND_REGRESSOR)
        del factor  # before the next alpha copies K
    return models


# ---------------------------------------------------------------------------
# serialization


def vocabulary_hash(item_ids) -> str:
    h = sha256()
    for it in item_ids:
        h.update(it.encode())
        h.update(b"\0")
    return h.hexdigest()


def model_to_dict(model: LinearModel, item_ids) -> dict:
    """A model as a JSON object with a sparse id -> weight map.

    Zero weights are omitted; the vocabulary hash guards against applying
    the model to a mismatched item space.
    """
    if len(item_ids) != model.n_items:
        raise ValueError("item id list does not match model size")
    nz = np.nonzero(model.weights)[0]
    return {
        "kind": model.kind,
        "C": model.C,
        "intercept": model.intercept,
        "n_items": model.n_items,
        "weights": {item_ids[j]: float(model.weights[j]) for j in nz},
        "vocabulary_sha256": vocabulary_hash(item_ids),
    }
