"""Cloaking directives: which likes to remove, and what to keep suppressed.

A directive freezes the outcome of explaining one positive prediction.
FG removes just the explanation features. MF additionally sweeps every
active item sharing a metafeature with an explanation feature, and keeps
those metafeatures suppressed as new likes arrive. FG_TOL explains
against a lower tolerance threshold for a safety margin, with no future
persistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._choices import STRATEGY_DOMAIN_MF, STRATEGY_FG, STRATEGY_FG_TOL, STRATEGY_MF
from ._util import ExperimentConfig
from .data import FootprintMatrix
from .explain import linear_explain
from .metafeatures import MetafeatureModel
from .models import LinearModel, check_width, quantile_threshold


@dataclass(frozen=True, eq=False)
class CloakDirective:
    """Frozen record of one user's cloaking decision.

    cloaked_features are item indices removed from the current footprint
    (always a superset of the explanation). cloaked_metafeatures stay
    suppressed over time: any item assigned to them is removed whenever
    the directive is applied, including items liked after creation.
    """

    user: str
    strategy: str
    cloaked_features: frozenset[int]
    cloaked_metafeatures: frozenset[int]


def check_strategy(config: ExperimentConfig, strategy: str) -> None:
    """Reject settings a strategy cannot run with, before any work."""
    if strategy == STRATEGY_FG_TOL and config.tolerance_quantile > config.quantile:
        raise ValueError("tolerance_quantile must not exceed quantile")


def _in_metafeatures(
    row: np.ndarray, metas: frozenset[int], mfm: Optional[MetafeatureModel]
) -> np.ndarray:
    """True for each item of row assigned to one of metas."""
    if not metas:
        return np.zeros(row.shape, dtype=bool)
    return np.isin(mfm.assignment[row], np.fromiter(metas, dtype=np.int64))


def _directive(
    strategy: str,
    model: LinearModel,
    row: np.ndarray,
    threshold: float,
    mfm: Optional[MetafeatureModel],
    user: str,
) -> Optional[CloakDirective]:
    """Explain row against threshold and freeze the outcome as a directive.

    The explanation features are always cloaked. With mfm, their
    metafeatures (less mfm.reserved) are swept: every item of row assigned
    to one is cloaked too, and they stay suppressed. Returns None when no
    explanation exists.
    """
    expl = linear_explain(model, row, threshold)
    if expl is None:
        return None
    metas = frozenset()
    if mfm is not None:
        metas = frozenset(int(mfm.assignment[f]) for f in expl.features)
        metas -= {mfm.reserved}
    swept = row[_in_metafeatures(row, metas, mfm)].tolist()
    cloaked = frozenset(expl.features) | frozenset(swept)
    return CloakDirective(user, strategy, cloaked, metas)


def cloak_population(
    strategy: str,
    model: LinearModel,
    matrix: FootprintMatrix,
    rows,
    threshold: float,
    mfm: Optional[MetafeatureModel] = None,
    population_scores: Optional[np.ndarray] = None,
    quantile_tol: float = 0.90,
) -> tuple[dict[int, CloakDirective], int]:
    """Directive for each of the given rows of matrix under the named strategy.

    FG cloaks each row's explanation against threshold. MF and DOMAIN_MF
    also cloak the row's items that share a group of mfm (NMF metafeatures
    or domain categories, never the reserved uncategorized group) with an
    explanation feature, and keep those groups suppressed. FG_TOL explains
    against the quantile_tol threshold of population_scores (the scores
    that set threshold) for a safety margin; that must not exceed
    threshold. FG and FG_TOL ignore mfm. The strategy and the inputs it
    needs, and that the model and mfm cover exactly the items of matrix,
    are checked, and FG_TOL's threshold computed, once before the first
    row.

    Returns the directives keyed by row, in the order of rows, and the
    count of rows that got none because no explanation exists.
    """
    if strategy in (STRATEGY_MF, STRATEGY_DOMAIN_MF):
        if mfm is None:
            raise ValueError(
                f"{strategy} requires metafeatures (NMF or a domain category mapping)"
            )
    elif strategy in (STRATEGY_FG, STRATEGY_FG_TOL):
        if strategy == STRATEGY_FG_TOL and population_scores is None:
            raise ValueError(
                f"{strategy} requires population_scores (the scores that set threshold)"
            )
        mfm = None
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    check_width("model", model.n_items, matrix)
    if mfm is not None:
        check_width("metafeature model", mfm.n_items, matrix)
    if strategy == STRATEGY_FG_TOL:
        tol = quantile_threshold(population_scores, quantile_tol)
        if tol > threshold:
            raise ValueError("tolerance threshold exceeds the prediction threshold")
        threshold = tol

    directives: dict[int, CloakDirective] = {}
    not_found = 0
    for i in map(int, rows):
        row, user = matrix.row(i), matrix.user_ids[i]
        d = _directive(strategy, model, row, threshold, mfm, user)
        if d is None:
            not_found += 1
        else:
            directives[i] = d
    return directives, not_found


def cloaked_mask(
    row: np.ndarray,
    directive: CloakDirective,
    mfm: Optional[MetafeatureModel] = None,
) -> np.ndarray:
    """True for each item of row the directive removes: a cloaked feature,
    or an item assigned to a cloaked metafeature."""
    if directive.cloaked_metafeatures and mfm is None:
        raise ValueError("directive sweeps metafeatures; a metafeature model is required")
    feats = np.fromiter(directive.cloaked_features, dtype=np.int64)
    swept = _in_metafeatures(row, directive.cloaked_metafeatures, mfm)
    return np.isin(row, feats) | swept


def cloak_matrix(
    matrix: FootprintMatrix,
    directives: dict[int, CloakDirective],
    mfm: Optional[MetafeatureModel] = None,
) -> FootprintMatrix:
    """matrix with each directive (keyed by row) applied to its row, as the
    per-row oracle `tests/oracles.py::apply_cloak` does; rows without one,
    the ids and the item space kept."""
    keep = np.ones(matrix.nnz, dtype=bool)
    for i, d in directives.items():
        entries = slice(matrix.indptr[i], matrix.indptr[i + 1])
        keep[entries] = ~cloaked_mask(matrix.indices[entries], d, mfm)
    return matrix.keep_entries(keep)


# ---------------------------------------------------------------------------
# serialization


def directives_to_dict(directives, item_ids) -> dict:
    """Directives as a JSON object with external item ids.

    Metafeature ids are integers into the paired metafeature model; they
    are only meaningful next to that model's report. Every directive takes
    effect at re-add fraction 0, its created_at_fraction.
    """
    return {
        "directives": [
            {
                "user": d.user,
                "strategy": d.strategy,
                "created_at_fraction": 0.0,
                "cloaked_features": [item_ids[j] for j in sorted(d.cloaked_features)],
                "cloaked_metafeatures": sorted(d.cloaked_metafeatures),
            }
            for d in directives
        ]
    }
