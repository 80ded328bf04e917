"""Metafeatures: NMF item groupings and domain category mappings.

Items are grouped into k metafeatures either by non-negative matrix
factorization of the training footprint (X ~ W H, Frobenius objective,
multiplicative updates) or by an externally supplied item -> category
mapping. Each item gets exactly one metafeature: the argmax of its H
column, ties to the lowest metafeature index. A model spans exactly the
item space it was built on: the activity-filtered items of a task.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _store
from ._util import ExperimentConfig, derive_seed, serial_blas
from .data import (
    FootprintMatrix,
    _first_seen,
    _last_occurrence,
    _lookup,
    _read_columns,
)

logger = logging.getLogger(__name__)

SOURCE_NMF = "nmf"
SOURCE_DOMAIN = "domain"

_EPS = 1e-12

_CATEGORY_HEADERS = {("item_id", "category"), ("item", "category")}


@dataclass(frozen=True, eq=False)
class MetafeatureModel:
    """Exclusive item -> metafeature assignment, one entry per item.

    k counts all metafeature ids. loading[j] is item j's weight in its own
    metafeature assignment[j]: its NMF loading there (0 where the item's
    whole H column is 0), or 1.0 for a domain category. For domain
    mappings the last id is the reserved uncategorized group (stored in
    .reserved); reserved is None for NMF groupings.
    """

    k: int
    assignment: np.ndarray
    loading: np.ndarray
    source: str
    labels: tuple[str, ...] | None = None
    reserved: int | None = None

    @property
    def n_items(self) -> int:
        return len(self.assignment)

    def members(self, mf: int) -> np.ndarray:
        """Item indices assigned to metafeature mf."""
        return np.nonzero(self.assignment == mf)[0]


# ---------------------------------------------------------------------------
# NMF


def _nmf_objective(nnz: float, W, XHt, WtW, HHt) -> float:
    # ||X - WH||_F^2 for binary X, via ||X||^2 - 2<X, WH> + ||WH||^2;
    # <X, WH> = sum(W * XH^T) and ||WH||^2 = <W^T W, H H^T>
    cross = float(np.sum(W * XHt))
    return nnz - 2.0 * cross + float(np.sum(WtW * HHt))


def nmf_fit(
    X: FootprintMatrix,
    k: int,
    max_iters: int = 200,
    tol: float = 1e-4,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a binary footprint as X ~ W H with multiplicative updates.

    W is (n_users, k), H is (k, n_items), both non-negative, initialized
    from seeded uniform(0, 1). Iteration stops at max_iters or when the
    relative objective decrease falls below tol. Returns (W, H, objectives)
    where objectives[t] is the Frobenius objective after iteration t; the
    sequence is non-increasing. The updates run on one BLAS thread, so the
    result does not depend on the thread count, and each is computed in
    place in W, H and the one product it divides by.
    """
    n, m = X.n_users, X.n_items
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > min(n, m):
        raise ValueError(f"k={k} exceeds min(n_users, n_items)={min(n, m)}")
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.0, 1.0, size=(n, k))
    H = rng.uniform(0.0, 1.0, size=(k, m))
    nnz = float(X.nnz)

    with serial_blas():
        # X H^T and H H^T of the current H serve both the objective and the
        # next W update, so each iteration makes two sparse products
        XHt = X.times(H.T)
        HHt = H @ H.T
        objectives = []
        prev = None
        for _ in range(max_iters):
            # W <- W * (X H^T) / (W (H H^T)), in place
            ratio = W @ HHt
            np.maximum(ratio, _EPS, out=ratio)
            W *= np.divide(XHt, ratio, out=ratio)
            # H <- H * (W^T X) / ((W^T W) H), in place
            WtW = W.T @ W
            ratio = WtW @ H
            np.maximum(ratio, _EPS, out=ratio)
            H *= np.divide(X.t_times(W).T, ratio, out=ratio)

            XHt = X.times(H.T)
            HHt = H @ H.T
            obj = _nmf_objective(nnz, W, XHt, WtW, HHt)
            objectives.append(obj)
            if prev is not None and prev > 0 and (prev - obj) / prev < tol:
                break
            prev = obj
    return W, H, np.array(objectives)


def assign_exclusive(H: np.ndarray) -> np.ndarray:
    """Assign each item to the metafeature with the largest loading.

    Ties break to the lowest metafeature index. Items with an all-zero
    column land on metafeature 0 with loading 0.
    """
    return np.argmax(H, axis=0).astype(np.int64)


def build_nmf_metafeatures(
    X: FootprintMatrix,
    k: int,
    max_iters: int = 200,
    tol: float = 1e-4,
    seed: int = 0,
) -> MetafeatureModel:
    """Fit NMF on the training footprint and wrap the exclusive assignment."""
    _, H, _ = nmf_fit(X, k, max_iters=max_iters, tol=tol, seed=seed)
    assignment = assign_exclusive(H)
    loading = H[assignment, np.arange(X.n_items)]
    zero = int(np.count_nonzero(loading == 0.0))
    if zero:
        logger.debug("build_nmf_metafeatures: %d zero-loading items", zero)
    return MetafeatureModel(k, assignment, loading, SOURCE_NMF)


# the modules that compute an NMF: their bytes key its store entry
_NMF_SOURCES = ("metafeatures.py", "data.py", "_util.py")


def task_nmf_metafeatures(
    train: FootprintMatrix, config: ExperimentConfig, stream: int
) -> MetafeatureModel:
    """NMF metafeatures of a task classifier's training rows, with the
    config's k, iteration cap and tolerance, seeded from the config's seed
    and the given seed stream.

    While a command runs, they are read back from the store (_store) when
    it holds them for the same rows, settings, seed and code, and stored
    there otherwise.
    """
    k, max_iters, tol = config.k_metafeatures, config.nmf_max_iters, config.nmf_tol
    seed = derive_seed(config.seed, stream)
    entry = _store.entry(
        "nmf",
        _NMF_SOURCES,
        (train.indptr, train.indices, train.n_items, k, max_iters, tol, seed),
    )
    mfm = _store.load(
        entry, lambda a: MetafeatureModel(k, a["assignment"], a["loading"], SOURCE_NMF)
    )
    if mfm is None:
        mfm = build_nmf_metafeatures(train, k, max_iters=max_iters, tol=tol, seed=seed)
        _store.save(entry, {"assignment": mfm.assignment, "loading": mfm.loading})
    return mfm


# ---------------------------------------------------------------------------
# domain categories


def load_domain_categories(path, item_ids) -> MetafeatureModel:
    """Build a metafeature model from an item_id,category CSV mapping.

    Categories take ids in first-seen order; items absent from the file
    go to a reserved trailing 'uncategorized' metafeature that cloaking
    never sweeps. item_ids is the item space the model spans; items in
    the file but not in it are ignored. Malformed rows raise ValueError
    with the line number.
    """
    n_items = len(item_ids)
    _, (items, cats), bad = _read_columns(path, _CATEGORY_HEADERS)
    if bad is not None:
        raise ValueError(f"line {bad}: expected 2 fields 'item_id,category'")
    items = _lookup({it: j for j, it in enumerate(item_ids)}, items)
    known = items >= 0
    unknown = len(items) - int(known.sum())
    cat_names, cat_codes = _first_seen(cats[0], cats[1][known])
    last = _last_occurrence(items[known])
    item_cat = np.full(n_items, -1, dtype=np.int64)
    item_cat[items[known][last]] = cat_codes[last]
    if unknown:
        logger.debug("load_domain_categories: %d rows for unknown items", unknown)
    n_cat = len(cat_names)
    reserved = n_cat
    item_cat[item_cat < 0] = reserved
    labels = cat_names + ("uncategorized",)
    return MetafeatureModel(
        n_cat + 1, item_cat, np.ones(n_items), SOURCE_DOMAIN, labels, reserved
    )


# ---------------------------------------------------------------------------
# reporting


def top_items(mfm: MetafeatureModel, item_ids, top_n: int = 10) -> dict:
    """Per metafeature: the top-loading assigned items with their weights.

    Within a metafeature, its assigned items are ranked by loading
    (descending, ties to the lower item index).
    """
    report = {}
    for mf in range(mfm.k):
        members = mfm.members(mf)
        loads = mfm.loading[members]
        order = np.lexsort((members, -loads))[:top_n]
        label = mfm.labels[mf] if mfm.labels else str(mf)
        report[str(mf)] = {
            "label": label,
            "size": int(len(members)),
            "top_items": [
                {"item_id": item_ids[members[o]], "weight": float(loads[o])}
                for o in order
            ],
        }
    return report


def metafeature_report(mfm: MetafeatureModel, item_ids, top_n: int = 10) -> dict:
    return {
        "source": mfm.source,
        "k": mfm.k,
        "reserved": mfm.reserved,
        "metafeatures": top_items(mfm, item_ids, top_n),
    }
