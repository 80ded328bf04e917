"""Cloaking: which likes to remove, and which groups to keep suppressed.

A cloak is a minimal explanation (explain.explain_population) plus an
optional grouping. FG removes just the explanation features. MF and
DOMAIN_MF pass a grouping, NMF metafeatures or domain categories: they
also remove every item whose group holds an explanation feature (never
the reserved uncategorized group), and keep removing such items as new
likes arrive. FG_TOL explains against a lower tolerance threshold,
strategy_threshold, for a safety margin, with no grouping.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._choices import STRATEGY_DOMAIN_MF, STRATEGY_FG, STRATEGY_FG_TOL, STRATEGY_MF
from ._util import ExperimentConfig, unique_sorted
from .data import FootprintMatrix
from .explain import Explanation
from .metafeatures import MetafeatureModel
from .models import check_width, quantile_threshold

_STRATEGIES = (STRATEGY_FG, STRATEGY_MF, STRATEGY_DOMAIN_MF, STRATEGY_FG_TOL)


def check_strategy(config: ExperimentConfig, strategy: str) -> None:
    """Reject an unknown strategy, or settings it cannot run with, before
    any work."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == STRATEGY_FG_TOL and config.tolerance_quantile > config.quantile:
        raise ValueError("tolerance_quantile must not exceed quantile")


def strategy_threshold(
    config: ExperimentConfig,
    strategy: str,
    threshold: float,
    train_scores: np.ndarray,
) -> float:
    """The threshold a strategy explains against: threshold, or for FG_TOL
    the tolerance_quantile threshold of train_scores (the scores that set
    threshold), which must not exceed threshold."""
    if strategy != STRATEGY_FG_TOL:
        return threshold
    tol = quantile_threshold(train_scores, config.tolerance_quantile)
    if tol > threshold:
        raise ValueError("tolerance threshold exceeds the prediction threshold")
    return tol


def _groups(features: tuple[int, ...], mfm: MetafeatureModel) -> np.ndarray:
    """The groups of mfm that features fall in, less mfm.reserved, sorted."""
    groups = unique_sorted(mfm.assignment[np.asarray(features, dtype=np.int64)])
    return groups[groups != mfm.reserved] if mfm.reserved is not None else groups


def cloaked_mask(
    row: np.ndarray,
    features: tuple[int, ...],
    mfm: Optional[MetafeatureModel] = None,
) -> np.ndarray:
    """True for each item of row that the cloak of an explanation's
    features removes: a feature, or with mfm an item whose group one of
    the features falls in."""
    mask = np.isin(row, features)
    if mfm is not None:
        mask |= np.isin(mfm.assignment[row], _groups(features, mfm))
    return mask


def cloak_entries(
    matrix: FootprintMatrix,
    explained: dict[int, Explanation],
    mfm: Optional[MetafeatureModel] = None,
) -> np.ndarray:
    """keep[e]: whether the cloak keeps matrix's stored entry e. Each
    explained row (keyed by row) is cloaked as the per-row oracle
    `tests/oracles.py::apply_cloak` does; other rows are kept whole."""
    if mfm is not None:
        check_width("metafeature model", mfm.n_items, matrix)
    keep = np.ones(matrix.nnz, dtype=bool)
    for i, expl in explained.items():
        entries = slice(matrix.indptr[i], matrix.indptr[i + 1])
        keep[entries] = ~cloaked_mask(matrix.indices[entries], expl.features, mfm)
    return keep


# ---------------------------------------------------------------------------
# serialization


def directives_to_dict(
    strategy: str,
    matrix: FootprintMatrix,
    explained: dict[int, Explanation],
    mfm: Optional[MetafeatureModel] = None,
) -> dict:
    """The cloak of each explained row of matrix as a JSON object of
    directives with external ids.

    cloaked_features lists the row's items the cloak removes, in item-index
    order. cloaked_metafeatures lists the groups of mfm it keeps
    suppressed: integers into mfm, only meaningful next to that model's
    report. Every directive takes effect at re-add fraction 0, its
    created_at_fraction.
    """
    if mfm is not None:
        check_width("metafeature model", mfm.n_items, matrix)
    directives = []
    for i, expl in explained.items():
        row = matrix.row(i)
        removed = row[cloaked_mask(row, expl.features, mfm)]
        directives.append(
            {
                "user": matrix.user_ids[i],
                "strategy": strategy,
                "created_at_fraction": 0.0,
                "cloaked_features": [matrix.item_ids[j] for j in removed],
                "cloaked_metafeatures": (
                    [] if mfm is None else _groups(expl.features, mfm).tolist()
                ),
            }
        )
    return {"directives": directives}
