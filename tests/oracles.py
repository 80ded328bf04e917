"""Slow, obvious versions of the data layer, the ridge fit, explanation and
scoring, kept as test oracles.

Each function is the per-line or per-row implementation the array code in
`footcloak.data` and `footcloak.metafeatures` replaced: one `csv.reader`
per line, dict/set loaders, `np.setdiff1d` per row, list-concatenated row
gathers, the drop plan as one item array per user (`dropped_items` reads
those lists back from a matrix's per-entry re-add ranks) and the
matrix-rebuilding re-add. The ridge oracle is the dual
solve `footcloak.models` replaced: per fold and alpha, a Cholesky
factorization of the dense centered Gram matrix of the train rows. The
explanation oracle is the best-first SEDC search of Martens & Provost
(2014), which `footcloak.explain.linear_explain` makes exact for linear
models; the threshold oracle takes the k-th largest score in integer
arithmetic; the scoring oracle scores one active-item set, the cloaking
oracle cloaks one row by one explanation's features, as `footcloak.cloak.cloak_entries`
does to a whole matrix, and the cost oracle counts one cloaked row's removed
items.
The NMF oracle writes each multiplicative update as one expression, where
`footcloak.metafeatures.nmf_fit` updates its factors in place.
The logistic-fit oracle is `scipy.optimize.minimize(method="L-BFGS-B")`,
whose loop over scipy's compiled setulb `footcloak.models._lbfgsb` repeats.
The sparse-product oracles are the dense matrix and `scipy.sparse`'s
`csr_matrix`, whose kernels `FootprintMatrix.times` and `t_times` call.
Differential tests check the fast paths against them. The synthetic-data
oracles are the generator's loop of one `rng.choice` per (user, topic)
and its line-by-line dataset writer.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import linalg, optimize, sparse
from scipy.special import expit

from footcloak._util import DEFAULT_ALPHA_GRID, round_half_up, serial_blas
from footcloak.data import FootprintMatrix, from_rows
from footcloak.explain import Explanation
from footcloak.metafeatures import MetafeatureModel
from footcloak.models import (
    KIND_CLASSIFIER,
    KIND_REGRESSOR,
    ROUNDOFF_C,
    LinearModel,
    logreg_value_and_grad,
    pearson,
)
from footcloak.synth import _topic_counts

FOOTPRINT_HEADERS = {("user_id", "item_id"), ("user", "item")}
LABEL_HEADERS = {("user_id", "task_name", "value"), ("user_id", "task", "value")}
CATEGORY_HEADERS = {("item_id", "category"), ("item", "category")}


def dense(m: FootprintMatrix) -> np.ndarray:
    """The footprint as a dense float64 0/1 array."""
    X = np.zeros((m.n_users, m.n_items))
    X[np.repeat(np.arange(m.n_users), m.degrees()), m.indices] = 1.0
    return X


def scipy_csr(m: FootprintMatrix) -> sparse.csr_matrix:
    """The footprint as scipy's CSR matrix of float64 ones."""
    data = np.ones(m.nnz)
    return sparse.csr_matrix((data, m.indices, m.indptr), shape=(m.n_users, m.n_items))


def read_records(path):
    """Non-blank lines as (1-based line number, stripped fields).

    A line that is not UTF-8 raises ValueError naming it, before any
    record is read. One leading U+FEFF is dropped. Lines come from
    `str.splitlines` and the delimiter from the first line, blank or not;
    the array reader differs from this on exactly those two points.
    """
    data = Path(path).read_bytes()
    for ln, line in enumerate(data.splitlines(), start=1):  # at "\n", "\r\n", "\r"
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"line {ln}: not valid UTF-8") from None
    lines = data.decode("utf-8").removeprefix("\ufeff").splitlines()
    delim = ("\t" if "\t" in lines[0] else ",") if lines else ","
    records = []
    for ln, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        fields = [f.strip() for f in next(csv.reader([raw], delimiter=delim))]
        records.append((ln, fields))
    return records


def _body(records, headers):
    if records and tuple(f.lower() for f in records[0][1]) in headers:
        return records[1:]
    return records


def load_triplets(path):
    """(user_ids, item_ids, indptr, indices) from per-user sets."""
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    per_user: list[set[int]] = []
    for ln, fields in _body(read_records(path), FOOTPRINT_HEADERS):
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ValueError(f"line {ln}: expected 2 fields 'user_id,item_id'")
        uid, iid = fields
        if uid not in user_index:
            user_index[uid] = len(user_index)
            per_user.append(set())
        if iid not in item_index:
            item_index[iid] = len(item_index)
        per_user[user_index[uid]].add(item_index[iid])
    m = from_rows(
        [np.array(sorted(s), dtype=np.int64) for s in per_user],
        len(item_index),
        tuple(user_index),
        tuple(item_index),
    )
    return m.user_ids, m.item_ids, m.indptr, m.indices


def load_labels(path, user_ids):
    """{task: float vector aligned with user_ids}, in first-seen task order."""
    user_index = {u: i for i, u in enumerate(user_ids)}
    values: dict[str, np.ndarray] = {}
    for ln, fields in _body(read_records(path), LABEL_HEADERS):
        if len(fields) != 3 or not all(fields):
            raise ValueError(f"line {ln}: expected 3 fields 'user_id,task_name,value'")
        uid, task, raw = fields
        try:
            val = float(raw)
        except ValueError:
            raise ValueError(f"line {ln}: value {raw!r} is not a number") from None
        if val in (np.inf, -np.inf):
            raise ValueError(f"line {ln}: value {raw!r} is not a finite number")
        if task not in values:  # a task is kept when no user of it is known
            values[task] = np.full(len(user_ids), np.nan)
        i = user_index.get(uid)
        if i is not None:
            values[task][i] = val
    return values


def load_domain_categories(path, item_ids):
    """(category names, per-item category index or -1 when unmapped)."""
    item_index = {it: j for j, it in enumerate(item_ids)}
    cat_index: dict[str, int] = {}
    item_cat = np.full(len(item_ids), -1, dtype=np.int64)
    for ln, fields in _body(read_records(path), CATEGORY_HEADERS):
        if len(fields) != 2 or not all(fields):
            raise ValueError(f"line {ln}: expected 2 fields 'item_id,category'")
        iid, cat = fields
        j = item_index.get(iid)
        if j is None:
            continue
        if cat not in cat_index:
            cat_index[cat] = len(cat_index)
        item_cat[j] = cat_index[cat]
    return tuple(cat_index), item_cat


def select_users(m, order):
    """Rows of m in the given order, concatenated row by row."""
    order = np.asarray(order, dtype=np.int64)
    rows = [m.row(i) for i in order]
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    indices = (
        np.concatenate(rows).astype(np.int64) if rows else np.empty(0, dtype=np.int64)
    )
    users = tuple(m.user_ids[i] for i in order)
    return FootprintMatrix(indptr, indices, m.n_items, users, m.item_ids)


def make_drop_plan(m, drop_fraction=0.5, seed=0):
    """Each user's dropped items in re-add order, one array per user: the
    first round(drop_fraction * degree) items of one permutation of the
    row, drawn user by user from one generator."""
    rng = np.random.default_rng(seed)
    dropped = []
    for i in range(m.n_users):
        row = m.row(i)
        d = round_half_up(drop_fraction * len(row))
        perm = rng.permutation(len(row))
        dropped.append(row[perm[:d]])
    return dropped


def dropped_items(m, ranks):
    """Each user's dropped items in re-add order, read from the re-add
    ranks of m's stored entries one row and one rank at a time."""
    if len(ranks) != m.nnz:
        raise ValueError("ranks need one value per stored entry")
    dropped = []
    for i in range(m.n_users):
        row_ranks, items = ranks[m.indptr[i] : m.indptr[i + 1]], m.row(i)
        n = int((row_ranks >= 0).sum())
        dropped.append(
            np.array([items[row_ranks == k][0] for k in range(n)], dtype=np.int64)
        )
    return dropped


def apply_drop(m, ranks):
    """Each user's planned items removed with one `np.setdiff1d` per row."""
    dropped = dropped_items(m, ranks)
    rows = [np.setdiff1d(m.row(i), dropped[i]) for i in range(m.n_users)]
    return from_rows(rows, m.n_items, m.user_ids, m.item_ids)


def readd(m, ranks, fraction):
    """m less its planned drops, with the first round(fraction * len(dropped))
    of each user's dropped items restored.

    fraction=0 returns the reduced matrix; fraction=1 restores m exactly.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    dropped = dropped_items(m, ranks)
    m_reduced = apply_drop(m, ranks)
    rows = []
    for i in range(m_reduced.n_users):
        drp = dropped[i]
        t = round_half_up(fraction * len(drp))
        if t == 0:
            rows.append(m_reduced.row(i))
        else:
            rows.append(np.sort(np.concatenate((m_reduced.row(i), drp[:t]))))
    return from_rows(rows, m_reduced.n_items, m_reduced.user_ids, m_reduced.item_ids)


def from_rows_error(rows, n_items):
    """The message from_rows raises for these rows, checked row by row."""
    for i, r in enumerate(rows):
        arr = np.asarray(r, dtype=np.int64)
        if arr.size == 0:
            continue
        if arr.min() < 0 or arr.max() >= n_items:
            return f"row {i}: item index out of range"
        if np.any(np.diff(arr) <= 0):
            return f"row {i}: item indices must be strictly ascending"
    return None


def nmf_fit(X, k, max_iters, tol, seed):
    """(W, H, objectives) of `footcloak.metafeatures.nmf_fit`, each
    multiplicative update written as one expression of fresh temporaries."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.0, 1.0, size=(X.n_users, k))
    H = rng.uniform(0.0, 1.0, size=(k, X.n_items))
    with serial_blas():
        XHt, HHt = X.times(H.T), H @ H.T
        objectives, prev = [], None
        for _ in range(max_iters):
            W = W * (XHt / np.maximum(W @ HHt, 1e-12))
            WtW = W.T @ W
            H = H * (X.t_times(W).T / np.maximum(WtW @ H, 1e-12))
            XHt, HHt = X.times(H.T), H @ H.T
            obj = X.nnz - 2.0 * float(np.sum(W * XHt)) + float(np.sum(WtW * HHt))
            objectives.append(obj)
            if prev is not None and prev > 0 and (prev - obj) / prev < tol:
                break
            prev = obj
    return W, H, np.array(objectives)


def logreg_objective(m, y01, C):
    """fun(x) -> (value, gradient) of the L2 logistic objective at x, the
    weights then the intercept, as train_logreg_l2 minimizes it."""
    n_items = m.n_items

    def fun(x):
        w, b = x[:n_items], x[n_items]
        value, grad_w, grad_b = logreg_value_and_grad(m, y01, w, b, C)
        return value, np.concatenate((grad_w, [grad_b]))

    return fun


def lbfgsb(fun, n, max_iter=1000):
    """fun minimized from zeros by scipy.optimize.minimize(method="L-BFGS-B")
    with train_logreg_l2's options (ftol 1e-8, gtol 1e-6, max_iter
    iterations, 4 * max_iter evaluations), on one BLAS thread. Returns
    scipy's OptimizeResult."""
    options = {"maxiter": max_iter, "maxfun": max_iter * 4, "ftol": 1e-8, "gtol": 1e-6}
    with serial_blas():
        return optimize.minimize(
            fun, np.zeros(n), jac=True, method="L-BFGS-B", options=options
        )


def ridge_solve(X, y, alpha):
    """Dual-form ridge on dense rows X with centering, intercept
    unpenalized, by a Cholesky factorization of X_c X_c^T + alpha*I.

    Returns (w, b, beta) with w = X_c^T beta.
    """
    mu = X.mean(axis=0)
    Xc = X - mu
    ybar = float(y.mean())
    A = Xc @ Xc.T + alpha * np.eye(len(X))
    beta = linalg.cho_solve(linalg.cho_factor(A), y - ybar)
    w = Xc.T @ beta
    return w, ybar - float(mu @ w), beta


def ridge_cv(m, y, alpha_grid=DEFAULT_ALPHA_GRID, folds=3, seed=0):
    """CV of ridge with one Cholesky solve per fold and alpha: per alpha
    with a usable fold, the mean validation Pearson.

    A fold is not used where the validation predictions spread only by
    roundoff: ptp(preds) over the most they can spread,
    2 max ||x - mu|| ||X_c||_F ||beta||, at most
    ROUNDOFF_C * sqrt(n) * eps * (||K||_inf + alpha) / alpha, with
    K = X X^T of all n rows.
    """
    X = dense(m)
    k_norm = np.abs(X @ X.T).sum(axis=1).max()
    fold_idx = np.array_split(np.random.default_rng(seed).permutation(m.n_users), folds)
    roundoff = ROUNDOFF_C * np.sqrt(m.n_users) * np.finfo(float).eps
    means = {}
    for alpha in sorted(float(a) for a in alpha_grid):
        floor = roundoff * (k_norm + alpha) / alpha
        corrs = []
        for f in range(folds):
            val = np.sort(fold_idx[f])
            trn = np.sort(np.concatenate([fold_idx[g] for g in range(folds) if g != f]))
            if np.ptp(y[trn]) == 0.0:
                continue
            w, b, beta = ridge_solve(X[trn], y[trn], alpha)
            preds = X[val] @ w + b
            mu = X[trn].mean(axis=0)
            reach = (
                2.0
                * np.linalg.norm(X[val] - mu, axis=1).max()
                * np.linalg.norm(X[trn] - mu)
                * np.linalg.norm(beta)
            )
            if np.ptp(preds) <= floor * reach:
                continue
            try:
                corrs.append(pearson(preds, y[val]))
            except ValueError:
                continue
        if corrs:
            means[alpha] = float(np.mean(corrs))
    return means


@dataclass(frozen=True, eq=False)
class RidgeFit:
    """The oracle's model and its mean validation Pearson per alpha (alphas
    with no usable fold left out)."""

    model: LinearModel
    means: dict


def train_ridge(m, y, alpha_grid=DEFAULT_ALPHA_GRID, folds=3, seed=0) -> RidgeFit:
    """Ridge with alpha by CV Pearson, one Cholesky solve per fold and alpha."""
    y = np.asarray(y, dtype=np.float64)
    if m.n_users < folds + 1:
        raise ValueError("need more users than folds")
    if y.shape != (m.n_users,):
        raise ValueError("targets not aligned with matrix users")
    if np.isnan(y).any():
        raise ValueError("targets contain missing values; select labeled users first")
    if np.ptp(y) == 0.0:
        raise ValueError("constant target; correlation objective undefined")
    if any(float(a) <= 0 for a in alpha_grid):
        raise ValueError("alpha must be positive")
    means = ridge_cv(m, y, alpha_grid, folds, seed)
    best_alpha, best_mean = None, -np.inf
    for alpha, mean in means.items():  # ascending, so ties go to the smallest
        if mean > best_mean:
            best_alpha, best_mean = alpha, mean
    if best_alpha is None:
        raise ValueError("no alpha candidate produced a usable fold")
    w, b, _ = ridge_solve(dense(m), y, best_alpha)
    return RidgeFit(LinearModel(w, b, best_alpha, KIND_REGRESSOR), means)


def predict_score(model: LinearModel, row: np.ndarray) -> float:
    """Positive-class probability for one active-item set."""
    if model.kind != KIND_CLASSIFIER:
        raise ValueError("predict_score requires a binary classifier")
    row = np.asarray(row, dtype=np.int64)
    margin = float(model.weights[row].sum()) + model.intercept
    return float(expit(margin))


def quantile_threshold(scores, q_num: int, q_den: int) -> float:
    """The k-th largest score, k = max(1, floor(n(1 - q))) for the decimal
    q = q_num / q_den, in integer arithmetic, by a full sort."""
    n = len(scores)
    k = max(1, n * (q_den - q_num) // q_den)
    return sorted(scores)[n - k]


def apply_cloak(
    row: np.ndarray,
    features,
    mfm: Optional[MetafeatureModel] = None,
) -> np.ndarray:
    """Footprint row after cloaking an explanation's features, item by item:
    an item goes if it is a feature or, with mfm, if its group is one the
    features fall in, other than mfm.reserved. Idempotent."""
    features = {int(f) for f in features}
    groups = set()
    if mfm is not None:
        groups = {int(mfm.assignment[f]) for f in features} - {mfm.reserved}
    kept = [
        j
        for j in map(int, row)
        if j not in features
        and (mfm is None or int(mfm.assignment[j]) not in groups)
    ]
    return np.array(kept, dtype=np.int64)


def cloak_cost(
    row: np.ndarray,
    features,
    mfm: Optional[MetafeatureModel] = None,
) -> float:
    """Share of the row's items the cloak of features removes; 0 for an
    empty row."""
    row = np.asarray(row, dtype=np.int64)
    if row.size == 0:
        return 0.0
    remaining = apply_cloak(row, features, mfm)
    return (row.size - remaining.size) / row.size


def _linear_removal_scorer(model: LinearModel, row: np.ndarray):
    w_row = model.weights[row]
    margin0 = float(w_row.sum()) + model.intercept
    lookup = {int(j): float(w) for j, w in zip(row, w_row)}

    def score_after_removing(feats: tuple[int, ...]) -> float:
        return float(expit(margin0 - sum(lookup[f] for f in feats)))

    return score_after_removing, float(expit(margin0))


def _finalize(
    score_of: Callable[[tuple[int, ...]], float],
    found: tuple[int, ...],
    threshold: float,
    score_before: float,
) -> Explanation:
    # order by single-feature removal score (strongest drop first, ties to
    # the lower index), then keep the shortest prefix that crosses
    singles = sorted(found, key=lambda f: (score_of((f,)), f))
    ordered: list[int] = []
    score_after = score_before
    for f in singles:
        ordered.append(f)
        score_after = score_of(tuple(ordered))
        if score_after < threshold:
            break
    return Explanation(
        features=tuple(ordered),
        score_before=score_before,
        score_after=score_after,
        target_threshold=float(threshold),
    )


def sedc_explain(
    model: LinearModel,
    row: np.ndarray,
    threshold: float,
    max_size: int = 30,
    max_expansions: int = 50000,
) -> Optional[Explanation]:
    """Best-first search for a minimal score-flipping removal set.

    Candidate subsets are expanded lowest resulting score first, ties to
    the lexicographically smallest feature tuple. Returns None when no
    subset within max_size crosses the threshold or the expansion budget
    runs out.
    """
    row = np.asarray(row, dtype=np.int64)
    if model.kind != KIND_CLASSIFIER:
        raise ValueError("explanations require a binary classifier")
    score_of, score_before = _linear_removal_scorer(model, row)
    if score_before < threshold:
        raise ValueError("prediction already below threshold; nothing to explain")

    candidates = [int(j) for j in row]
    heap: list[tuple[float, tuple[int, ...]]] = []
    visited: set[tuple[int, ...]] = set()
    for f in candidates:
        feats = (f,)
        visited.add(feats)
        heapq.heappush(heap, (score_of(feats), feats))
    expansions = 1  # the root expansion above

    while heap:
        score, feats = heapq.heappop(heap)
        if score < threshold:
            return _finalize(score_of, feats, threshold, score_before)
        if expansions >= max_expansions:
            return None
        if len(feats) >= max_size:
            continue
        expansions += 1
        present = set(feats)
        for f in candidates:
            if f in present:
                continue
            child = tuple(sorted(present | {f}))
            if child in visited:
                continue
            visited.add(child)
            heapq.heappush(heap, (score_of(child), child))
    return None


# ---------------------------------------------------------------------------
# synthetic data


def sample_rows(rng, blocks, zipf, aff, like_counts):
    """footcloak.synth._sample_rows with one numpy `rng.choice` per
    (user, topic)."""
    sizes = np.array([len(b) for b in blocks])
    rows, resamples, overflow_shifts = [], 0, 0
    for i in range(len(like_counts)):
        counts, tries, shifted = _topic_counts(rng, int(like_counts[i]), aff[i], sizes)
        resamples += tries
        overflow_shifts += shifted
        parts = [
            rng.choice(blocks[t], size=c, replace=False, p=zipf[t])
            for t, c in enumerate(counts.tolist())
            if c
        ]
        row = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        rows.append(row)
    return rows, resamples, overflow_shifts


def write_footprints_and_labels(outdir, result):
    """footprints.csv and labels.csv as footcloak.synth.dataset_files
    gives them, one write per line."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    m = result.matrix
    with (outdir / "footprints.csv").open("w") as fh:
        fh.write("user_id,item_id\n")
        for i in range(m.n_users):
            uid = m.user_ids[i]
            for j in m.row(i):
                fh.write(f"{uid},{m.item_ids[j]}\n")
    with (outdir / "labels.csv").open("w") as fh:
        fh.write("user_id,task_name,value\n")
        for task in result.labels.task_names:
            vals = result.labels.values[task]
            binary = result.labels.is_binary(task)
            for i in range(m.n_users):
                v = vals[i]
                if np.isnan(v):
                    continue
                text = f"{int(v)}" if binary else f"{v:.6f}"
                fh.write(f"{m.user_ids[i]},{task},{text}\n")
