"""Linear models over footprints: L2 logistic regression, ridge, metrics.

The classifier objective is

    J(w, b) = 0.5 * ||w||^2 + C * sum_i log(1 + exp(-y_i * (w.x_i + b)))

with y in {-1, +1} and an unpenalized intercept, so C multiplies the data
loss (larger C = weaker regularization). Value and gradient are computed
with the matrix's sparse products, FootprintMatrix.times and t_times. The
convex minimization is L-BFGS-B: a short loop drives scipy's compiled
setulb routine (_util.lbfgsb_setulb) as
scipy.optimize.minimize(method="L-BFGS-B") does, with the same arguments,
evaluations and stops, so the fits are bit-for-bit the same, and loads no
scipy.optimize package. It stops at a relative objective change below 1e-8
(ftol) or a projected gradient below 1e-6 (gtol). The ftol stop usually
comes first, so a fit's final gradient is not bounded by 1e-6. The fit
runs on one BLAS thread (_util.serial_blas), as does the ridge fit, which
solves its systems by shifted conjugate gradients on the sparse rows, so
OPENBLAS_NUM_THREADS changes no result. A command starts OpenBLAS on one
thread unless that variable is set (cli.main): in a fresh process on 2
vCPUs the 2-thread pool cost train's CV grid 0.46 s against 0.39 s, and
serial_blas keeps a library caller's fits serial whatever its count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from . import _store
from ._util import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_C_GRID,
    STREAM_CV,
    STREAM_SPLIT,
    ExperimentConfig,
    derive_seed,
    expit,
    lbfgsb_setulb,
    serial_blas,
    unique_sorted,
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


# ---------------------------------------------------------------------------
# logistic regression


def logreg_value_and_grad(
    m: FootprintMatrix, y01: np.ndarray, w: np.ndarray, b: float, C: float
) -> tuple[float, np.ndarray, float]:
    """Objective value and analytic gradient at (w, b).

    y01 holds labels in {0, 1}; internally they map to {-1, +1}.
    """
    y_signed = 2.0 * y01 - 1.0
    margins = m.times(w) + b
    z = y_signed * margins
    loss = np.logaddexp(0.0, -z).sum()
    value = 0.5 * float(w @ w) + C * float(loss)
    coef = C * (-y_signed * expit(-z))
    grad_w = w + m.t_times(coef)
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
    classes = unique_sorted(y01)
    if classes.size < 2:
        raise ValueError("training labels contain a single class")
    if not set(classes) <= {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    if C <= 0:
        raise ValueError("C must be positive")

    n_items = m.n_items

    def fun(x):
        w, b = x[:n_items], x[n_items]
        value, grad_w, grad_b = logreg_value_and_grad(m, y01, w, b, C)
        return value, np.concatenate((grad_w, [grad_b]))

    with serial_blas():
        x, grad, task = _lbfgsb(fun, n_items + 1, max_iter)
    grad_norm = float(np.max(np.abs(grad)))
    if task[0] != 4 and grad_norm >= 1e-6:
        reason = _LBFGSB_STOPS.get(int(task[1]), f"L-BFGS-B task {task[0]}/{task[1]}")
        raise ConvergenceError(
            f"logistic regression did not converge: {reason} "
            f"(final gradient norm {grad_norm:.3e})",
            grad_norm,
        )
    return LinearModel(x[:n_items].copy(), float(x[n_items]), float(C), KIND_CLASSIFIER)


# why setulb stopped short of convergence, by its task code
_LBFGSB_STOPS = {
    502: "evaluation limit reached",
    504: "iteration limit reached",
    601: "rounding errors prevent progress",
    602: "line search step at its maximum",
    603: "line search step at its minimum",
    604: "line search step tolerance reached",
}


def _lbfgsb(fun, n: int, max_iter: int):
    """Minimize fun from zeros by L-BFGS-B: (x, final gradient, task).

    fun(x) returns the value and gradient. The loop is that of scipy's
    _minimize_lbfgsb (scipy 1.17) for minimize(fun, x0, jac=True,
    method="L-BFGS-B") with ftol 1e-8, gtol 1e-6, maxiter max_iter and
    maxfun 4 * max_iter: 10 corrections, at most 20 line-search steps, no
    bounds. fun runs only at a point other than the last one it ran at, as
    scipy's ScalarFunction caches. task[0] == 4 is convergence; the limits
    end a run with task (5, 504) for iterations and (5, 502) for
    evaluations, checked when an iteration ends.
    """
    setulb = lbfgsb_setulb()
    m = 10  # stored corrections
    factr = 1e-8 / np.finfo(float).eps
    x = np.zeros(n)
    f = np.array(0.0)
    g = np.zeros(n)
    lower, upper, nbd = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    x_eval, n_iter, n_eval = None, 0, 0
    while True:
        setulb(m, x, lower, upper, nbd, f, g, factr, 1e-6,
               wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # wants f and g at x
            if x_eval is None or not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f_eval, g_eval = fun(x_eval)
                n_eval += 1
            # setulb may write into g, never into the cached gradient
            f, g = f_eval, g_eval.copy()
        elif task[0] == 1:  # an iteration ended
            n_iter += 1
            if n_iter >= max_iter:
                task[:] = 5, 504
            elif n_eval > 4 * max_iter:
                task[:] = 5, 502
        else:
            return x, g, task


def decision_margins(model: LinearModel, m: FootprintMatrix) -> np.ndarray:
    """w.x + b per user; the model must weigh exactly the matrix's items."""
    check_width("model", model.n_items, m)
    return m.times(model.weights) + model.intercept


def check_width(what: str, n_items: int, m: FootprintMatrix) -> None:
    """Raise ValueError unless what covers exactly the items of m."""
    if n_items != m.n_items:
        raise ValueError(f"{what} covers {n_items} items; the matrix has {m.n_items}")


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
    grid = sorted(float(c) for c in grid)
    aucs = np.full((len(grid), folds), np.nan)  # per (C, fold)
    for f, (val, trn) in enumerate(_kfold(n, folds, seed)):
        y_trn, y_val = y01[trn], y01[val]
        if unique_sorted(y_trn).size < 2 or unique_sorted(y_val).size < 2:
            logger.debug("grid_search_cv: fold %d skipped (single class)", f)
            continue
        m_trn, m_val = m.select_users(trn), m.select_users(val)
        for c, C in enumerate(grid):
            try:
                model = train_logreg_l2(m_trn, y_trn, C)
            except ConvergenceError:
                logger.debug(
                    "grid_search_cv: C=%g skipped on fold %d (no convergence)", C, f
                )
                continue
            aucs[c, f] = auc(predict_scores(model, m_val), y_val)
        # freed before the next fold's are built: one fold's rows at a time
        del m_trn, m_val
    return grid[_cv_choice(aucs, "grid")]


def _cv_choice(scores: np.ndarray, name: str) -> int:
    """The row of scores (candidate, fold), NaN where the candidate skips
    the fold, with the highest mean over its usable folds; ties go to the
    first. Raises ValueError when no candidate has a usable fold."""
    used = ~np.isnan(scores)
    if not used.any():
        raise ValueError(f"no {name} candidate produced a usable fold")
    # each mean over the usable folds alone, in fold order
    means = [np.mean(s[u]) if u.any() else -np.inf for s, u in zip(scores, used)]
    return int(np.argmax(means))


# the modules that compute a fit: their bytes key its store entry
_FIT_SOURCES = ("models.py", "data.py", "_util.py")


def fit_classifier(
    m: FootprintMatrix, y01: np.ndarray, folds: int, seed: int
) -> tuple[float, LinearModel, np.ndarray]:
    """Pick C from DEFAULT_C_GRID by cross-validation, fit on all rows,
    score the training rows.

    Returns (best_c, model, train_scores); the caller sets its threshold
    from train_scores. While a command runs, the model (best_c is its C)
    is read back from the store (_store) when it holds one for the same
    rows, labels, folds, seed, grid and code, and stored there otherwise;
    the scores are computed either way.
    """
    y01 = np.asarray(y01, dtype=np.float64)
    entry = _store.entry(
        "fit",
        _FIT_SOURCES,
        (m.indptr, m.indices, m.n_items, y01, folds, seed, DEFAULT_C_GRID),
    )
    model = _store.load(
        entry, lambda a: LinearModel(a["weights"], float(a["intercept"]), float(a["C"]))
    )
    if model is None:
        best_c = grid_search_cv(m, y01, DEFAULT_C_GRID, folds, seed)
        model = train_logreg_l2(m, y01, best_c)
        _store.save(
            entry, {"weights": model.weights, "intercept": model.intercept, "C": model.C}
        )
    return model.C, model, predict_scores(model, m)


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
    threshold: float


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


def quantile_threshold(scores: np.ndarray, q: float = 0.95) -> float:
    """Threshold at the k-th largest score, k = max(1, floor(n * (1 - q))),
    with q taken as the decimal it prints as (0.9 is 9/10).

    A score at or above the threshold counts as positive; cloaking succeeds
    only strictly below it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0:
        raise ValueError("empty score population")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    # in integers: in floating point k comes out one short where n(1 - q)
    # is whole and 1 - q rounds down, as 20 * (1 - 0.9) = 1.9999999999999996
    num, den = _decimal_ratio(q)
    k = max(1, n * (den - num) // den)
    return float(np.partition(scores, n - k)[n - k])


def _decimal_ratio(q: float) -> tuple[int, int]:
    """q as the integers num / den of the decimal it prints as: 0.9 is
    9 / 10 and 1.5e-05 is 15 / 1000000. fractions.Fraction(repr(q)) gives
    the same ratio, but importing fractions costs a command about 1 MB."""
    mantissa, _, exponent = repr(float(q)).partition("e")
    whole, _, digits = mantissa.partition(".")
    return int(whole + digits), 10 ** (len(digits) - int(exponent or 0))


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
#
# Every product with the rows is a FootprintMatrix product on a block of
# vectors held as the rows of a C-ordered array. A per-vector sum over the
# last axis then adds in the same order whether the vector is alone or one
# of many, and the multi-vector sparse kernel sums each vector as the
# single-vector one does, so a target's numbers do not depend on the
# targets fitted with it.


def _times(product, V: np.ndarray) -> np.ndarray:
    """product (a FootprintMatrix's times or t_times) of each row of V,
    returned as the rows of a C-ordered array."""
    return np.ascontiguousarray(product(V.T).T)


def _centered_t_times(X, mu: np.ndarray, V: np.ndarray) -> np.ndarray:
    """X_c^T v for each row v of V, with X_c = X - 1 mu^T never formed."""
    return _times(X.t_times, V) - np.sum(V, axis=1)[:, None] * mu


def _centered_times(X, mu: np.ndarray, U: np.ndarray) -> np.ndarray:
    """X_c u for each row u of U, with X_c = X - 1 mu^T never formed."""
    return _times(X.times, U) - np.sum(U * mu, axis=1)[:, None]


def _column_means(X: FootprintMatrix) -> np.ndarray:
    """The mean of each column of X: the terms 1/n that scipy's
    csr_matrix.mean(axis=0) adds, in its order."""
    return X.t_times(np.full(X.n_users, 1.0 / X.n_users))


# Iteration cap of _shifted_cg per row of the system. In exact arithmetic CG
# ends within n steps; in float64 the lost orthogonality of its directions
# delays that, and the residual must fall to a few eps. A shift still short
# of its stop at the cap is an error, never a fallback.
CG_ITERS_PER_ROW = 8


def _shifted_cg(X, mu, B, alphas, rtol):
    """beta with (X_c X_c^T + a I) beta = b, X_c = X - 1 mu^T, for each row
    b of B and each a in the same row of alphas (ascending, positive).

    One CG per row of B runs on its smallest a. The residuals of the larger
    shifts stay multiples zeta of that CG's residual, so their iterates
    follow from its search directions with no further products: one Krylov
    space serves every a (Jegerlehner 1996, hep-lat/9612014; Frommer 2003).
    Each (row, shift) stops once its residual ||zeta r|| is at most
    rtol ||b|| and is not updated again; a row stops once all its shifts
    have. Returns beta as an array (rows, shifts, n). Raises ValueError
    naming a at the first shift still short of its stop after
    CG_ITERS_PER_ROW * n iterations.
    """
    k, n = B.shape
    # each b scaled by the power of two that brings max |b| into [0.5, 1):
    # exact, so no bit of beta changes, and the squared norms of tiny or
    # huge targets neither underflow nor overflow
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(B), axis=1))[1])
    B = B / scale[:, None]
    sigma = alphas - alphas[:, :1]
    stop = rtol * np.sqrt(np.sum(B * B, axis=1))
    R = B.copy()
    P = B.copy()
    rr = np.sum(R * R, axis=1)
    beta = np.zeros((k, alphas.shape[1], n))
    P_shift = np.repeat(B[:, None, :], alphas.shape[1], axis=1)
    zeta = np.ones(alphas.shape)
    zeta_old = np.ones(alphas.shape)
    a_old = np.ones(k)
    b_old = np.zeros(k)
    live = np.ones(alphas.shape, dtype=bool)
    for _ in range(CG_ITERS_PER_ROW * n):
        rows = np.flatnonzero(live.any(axis=1))
        if not len(rows):
            break
        p = P[rows]
        Q = _centered_times(X, mu, _centered_t_times(X, mu, p))
        Q += alphas[rows, :1] * p
        a = rr[rows] / np.sum(p * Q, axis=1)
        R[rows] -= a[:, None] * Q
        r = R[rows]
        rr_new = np.sum(r * r, axis=1)
        b = rr_new / rr[rows]
        # zeta_{k+1} of each live shift from zeta_k, zeta_{k-1} and the
        # base CG's step sizes a and direction weights b
        i, j = np.nonzero(live[rows])
        g = rows[i]
        z, zo, ai, ao = zeta[g, j], zeta_old[g, j], a[i], a_old[g]
        z_new = z * zo * ao / (
            ai * b_old[g] * (zo - z) + zo * ao * (1.0 + sigma[g, j] * ai)
        )
        ratio = z_new / z
        beta[g, j] += (ai * ratio)[:, None] * P_shift[g, j]
        P_shift[g, j] = (
            z_new[:, None] * r[i] + (b[i] * ratio**2)[:, None] * P_shift[g, j]
        )
        zeta_old[g, j] = z
        zeta[g, j] = z_new
        # written so that a NaN residual never counts as converged
        live[g, j] = ~(np.abs(z_new) * np.sqrt(rr_new[i]) <= stop[g])
        P[rows] = r + b[:, None] * p
        rr[rows] = rr_new
        a_old[rows] = a
        b_old[rows] = b
    if live.any():
        c, s = np.argwhere(live)[0]
        raise ValueError(
            f"ridge solve did not converge in {CG_ITERS_PER_ROW * n} iterations "
            f"at alpha={float(alphas[c, s])!r}"
        )
    return beta * scale[:, None, None]


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
# solving (Kc + alpha*I) beta = y_c, Kc = X_c X_c^T: eps times
# kappa = (||K|| + alpha) / alpha, which bounds the condition number
# (||K||_inf >= ||K||_2 stands in for ||K||, K = X X^T of all n rows), times
# ROUNDOFF_C * sqrt(n), the growth of rounding errors that act as
# independent random variables over n rows (Higham & Mary 2019). The worst-
# case n * eps * kappa would drop real folds at small alpha on 8000-user
# data. The CG solve stops at relative residual rtol = ROUNDOFF_C * sqrt(n)
# * eps, so its own error, at most rtol * kappa, stays under that floor.
ROUNDOFF_C = 4


def _fold_correlations(m, stats, val, trn, Y, alphas, out) -> None:
    """One fold's validation Pearson per (alpha, target column), into out;
    a column whose training targets are constant, whose validation
    predictions spread only by roundoff, or whose Pearson is undefined is
    left as it is.

    stats holds the row degrees (the diagonal of K, as rows are binary),
    ||K||_inf and the roundoff factor. One shifted CG on the centered train
    rows serves every alpha and column. A validation row x predicts
    (x - mu).X_c^T beta + ybar.
    """
    degrees, k_norm, roundoff = stats
    Yt = np.ascontiguousarray(Y[trn].T)
    cols = np.flatnonzero(np.ptp(Yt, axis=1) > 0.0)
    if not len(cols) or not len(alphas):
        return
    Xt, Xv = m.select_users(trn), m.select_users(val)
    mu = _column_means(Xt)
    pp = float(mu @ mu)
    # 2 max ||x - mu|| over the validation rows times ||X_c||_F
    val_sq = float(np.max(degrees[val] - 2.0 * Xv.times(mu) + pp))
    trace = float(degrees[trn].sum()) - len(trn) * pp
    reach = 2.0 * math.sqrt(max(val_sq, 0.0) * max(trace, 0.0))
    ybar = Yt[cols].mean(axis=1)
    Yc = Yt[cols] - ybar[:, None]
    grid = np.tile(alphas, (len(cols), 1))
    beta = _shifted_cg(Xt, mu, Yc, grid, roundoff).reshape(-1, len(trn))
    W = _centered_t_times(Xt, mu, beta)
    preds = _centered_times(Xv, mu, W).reshape(len(cols), len(alphas), -1)
    preds += ybar[:, None, None]
    floor = roundoff * (k_norm + alphas) / alphas
    norms = np.sqrt(np.sum(beta * beta, axis=1)).reshape(len(cols), len(alphas))
    noise = np.ptp(preds, axis=2) <= floor * reach * norms
    for j, c in enumerate(cols):
        for a in range(len(alphas)):
            if noise[j, a]:
                logger.debug("fit_ridge: fold skipped (predictions spread by roundoff)")
                continue
            try:
                out[a, c] = pearson(preds[j, a], Y[val, c])
            except ValueError:
                logger.debug("fit_ridge: fold skipped (undefined correlation)")


def fit_ridge(
    m: FootprintMatrix,
    Y: np.ndarray,
    alpha_grid=DEFAULT_ALPHA_GRID,
    folds: int = 3,
    seed: int = 0,
) -> list[LinearModel]:
    """Fit L2-penalized least squares on the rows of m, one model per column
    of Y, each column's alpha by CV Pearson over deterministic folds.

    The intercept is unpenalized (data and targets are centered). Ties in
    mean validation correlation go to the smallest alpha. A fold whose
    validation predictions spread only by roundoff is not used. A column
    that is constant, holds NaN or has no usable fold raises ValueError;
    the first such column raises first.

    The fit is in dual form, (Kc + alpha*I) beta = y_c with Kc the Gram
    matrix of the centered rows, solved by shifted conjugate gradients on
    the sparse rows, so Kc is never formed: per fold one CG run serves every
    alpha and column, and the final fit on all rows runs one CG per column
    at its chosen alpha. Item-space weights are w = X_c^T beta. Runs on one
    BLAS thread, and a column's model does not depend on the columns
    fitted with it.

    While a command runs, the models are read back from the store (_store)
    when it holds them for the same rows, targets, alpha grid, folds, seed
    and code, and stored there otherwise.
    """
    if m.n_users < folds + 1:
        raise ValueError("need more users than folds")
    splits = _kfold(m.n_users, folds, seed)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != m.n_users:
        raise ValueError("targets not aligned with matrix users")
    errors = [_target_error(y) for y in Y.T]
    # the first column's own errors come before the grid's, as they do
    # when that column is fitted alone
    if errors and errors[0] is not None:
        raise ValueError(errors[0])
    alphas = np.array(sorted(float(a) for a in alpha_grid))
    if len(alphas) and alphas[0] <= 0:
        raise ValueError("alpha must be positive")
    entry = _store.entry(
        "ridge", _FIT_SOURCES, (m.indptr, m.indices, m.n_items, Y, alphas, folds, seed)
    )
    stored = _store.load(
        entry,
        lambda a: [
            LinearModel(w, float(b), float(alpha), KIND_REGRESSOR)
            for w, b, alpha in zip(a["weights"], a["intercepts"], a["alphas"])
        ],
    )
    if stored is not None:
        return stored

    # ||K||_inf = max(X X^T 1), as binary rows make K nonnegative
    k_norm = float(np.max(m.times(m.t_times(np.ones(m.n_users)))))
    roundoff = ROUNDOFF_C * math.sqrt(m.n_users) * np.finfo(float).eps
    stats = (m.degrees().astype(np.float64), k_norm, roundoff)
    with serial_blas():
        # validation Pearson per (alpha, fold, column), NaN where the column
        # skips the fold. Columns with an error are left out; the walk below
        # raises at the first of them, so the columns before it keep their
        # index
        Y_fit = Y[:, [e is None for e in errors]]
        corrs = np.full((len(alphas), folds, Y_fit.shape[1]), np.nan)
        for f, (val, trn) in enumerate(splits):
            _fold_correlations(m, stats, val, trn, Y_fit, alphas, corrs[:, f])
        chosen = []
        for c, err in enumerate(errors):
            if err is not None:
                raise ValueError(err)
            chosen.append(float(alphas[_cv_choice(corrs[:, :, c], "alpha")]))

        mu = _column_means(m)
        Yt = np.ascontiguousarray(Y.T)
        ybar = Yt.mean(axis=1)
        grid = np.array(chosen)[:, None]
        beta = _shifted_cg(m, mu, Yt - ybar[:, None], grid, roundoff)[:, 0]
        W = _centered_t_times(m, mu, beta)
        intercepts = ybar - np.sum(W * mu, axis=1)
    _store.save(
        entry, {"weights": W, "intercepts": intercepts, "alphas": np.array(chosen)}
    )
    return [
        LinearModel(w, float(b), alpha, KIND_REGRESSOR)
        for w, b, alpha in zip(W, intercepts, chosen)
    ]


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
