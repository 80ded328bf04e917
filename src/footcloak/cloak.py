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

from .data import FootprintMatrix
from .explain import linear_explain
from .metafeatures import MetafeatureModel
from .models import LinearModel, quantile_threshold

STRATEGY_FG = "FG"
STRATEGY_MF = "MF"
STRATEGY_DOMAIN_MF = "DOMAIN_MF"
STRATEGY_FG_TOL = "FG_TOL"


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
    created_at_fraction: float = 0.0


def _directive(
    strategy: str,
    model: LinearModel,
    row: np.ndarray,
    threshold: float,
    mfm: Optional[MetafeatureModel] = None,
    user: str = "",
) -> Optional[CloakDirective]:
    """Explain row against threshold and freeze the outcome as a directive.

    The explanation features are always cloaked. With mfm, their
    metafeatures (less mfm.reserved) are swept: every in-vocabulary item of
    row assigned to one is cloaked too, and they stay suppressed. Returns
    None when no explanation exists.
    """
    expl = linear_explain(model, row, threshold)
    if expl is None:
        return None
    cloaked = frozenset(expl.features)
    metas = frozenset()
    if mfm is not None:
        metas = frozenset(
            int(mfm.assignment[f]) for f in expl.features if f < mfm.n_items
        ) - {mfm.reserved}
        row = np.asarray(row, dtype=np.int64)
        in_vocab = row[row < mfm.n_items]
        swept = in_vocab[np.isin(mfm.assignment[in_vocab], sorted(metas))]
        cloaked |= frozenset(int(j) for j in swept)
    return CloakDirective(user, strategy, cloaked, metas)


def cloak_fg(
    model: LinearModel, row: np.ndarray, threshold: float, user: str = ""
) -> Optional[CloakDirective]:
    """Remove exactly the minimal explanation features.

    Returns None when no explanation exists (removal cannot cross the
    threshold).
    """
    return _directive(STRATEGY_FG, model, row, threshold, user=user)


def cloak_mf(
    model: LinearModel,
    row: np.ndarray,
    threshold: float,
    mfm: MetafeatureModel,
    user: str = "",
) -> Optional[CloakDirective]:
    """Remove the explanation plus everything sharing its metafeatures.

    The swept metafeatures stay suppressed when the directive is applied
    later, so newly arriving likes in those groups are removed too. For
    domain mappings the reserved uncategorized group is never swept, but
    explanation features always stay cloaked individually.
    """
    strategy = STRATEGY_MF if mfm.reserved is None else STRATEGY_DOMAIN_MF
    return _directive(strategy, model, row, threshold, mfm, user)


def cloak_tolerance(
    model: LinearModel,
    row: np.ndarray,
    threshold: float,
    population_scores: np.ndarray,
    quantile_tol: float = 0.90,
    user: str = "",
) -> Optional[CloakDirective]:
    """Explain against a lower tolerance threshold for a safety margin.

    The tolerance threshold is the quantile_tol threshold of the same
    score population that set the prediction threshold; it must not
    exceed the prediction threshold. No future persistence: only the
    explanation features are cloaked.
    """
    tol = quantile_threshold(population_scores, quantile_tol).value
    if tol > threshold:
        raise ValueError("tolerance threshold exceeds the prediction threshold")
    return _directive(STRATEGY_FG_TOL, model, row, tol, user=user)


def make_directive(
    strategy: str,
    model: LinearModel,
    row: np.ndarray,
    threshold: float,
    mfm: Optional[MetafeatureModel] = None,
    population_scores: Optional[np.ndarray] = None,
    quantile_tol: float = 0.90,
    user: str = "",
) -> Optional[CloakDirective]:
    """Directive for one row under the named strategy.

    MF and DOMAIN_MF sweep the groups of mfm (NMF or domain categories);
    FG_TOL explains against the quantile_tol threshold of
    population_scores. Returns None when no explanation exists.
    """
    if strategy == STRATEGY_FG:
        return cloak_fg(model, row, threshold, user=user)
    if strategy in (STRATEGY_MF, STRATEGY_DOMAIN_MF):
        if mfm is None:
            raise ValueError(
                f"{strategy} requires metafeatures (NMF or a domain category mapping)"
            )
        return cloak_mf(model, row, threshold, mfm, user=user)
    if strategy == STRATEGY_FG_TOL:
        return cloak_tolerance(
            model, row, threshold, population_scores, quantile_tol, user=user
        )
    raise ValueError(f"unknown strategy {strategy!r}")


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
    """make_directive for each of the given rows of matrix.

    Returns the directives keyed by row, in the order of rows, and the
    count of rows that got none because no explanation exists.
    """
    directives: dict[int, CloakDirective] = {}
    not_found = 0
    for i in rows:
        i = int(i)
        d = make_directive(
            strategy,
            model,
            matrix.row(i),
            threshold,
            mfm,
            population_scores,
            quantile_tol,
            user=matrix.user_ids[i],
        )
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
    or an in-vocabulary item assigned to a cloaked metafeature."""
    row = np.asarray(row, dtype=np.int64)
    if directive.cloaked_metafeatures and mfm is None:
        raise ValueError("directive sweeps metafeatures; a metafeature model is required")
    mask = np.zeros(row.shape, dtype=bool)
    if row.size == 0:
        return mask
    if directive.cloaked_features:
        feats = np.fromiter(directive.cloaked_features, dtype=np.int64)
        mask |= np.isin(row, feats)
    if directive.cloaked_metafeatures:
        metas = np.fromiter(directive.cloaked_metafeatures, dtype=np.int64)
        in_vocab = row < mfm.n_items
        safe = np.where(in_vocab, row, 0)
        mask |= in_vocab & np.isin(mfm.assignment[safe], metas)
    return mask


def apply_cloak(
    row: np.ndarray,
    directive: CloakDirective,
    mfm: Optional[MetafeatureModel] = None,
) -> np.ndarray:
    """Footprint row after the directive: cloaked items and all items in
    cloaked metafeatures removed. Idempotent."""
    row = np.asarray(row, dtype=np.int64)
    return row[~cloaked_mask(row, directive, mfm)]


def cloak_cost(
    row: np.ndarray,
    directive: CloakDirective,
    mfm: Optional[MetafeatureModel] = None,
) -> float:
    """Share of the row's items the directive removes; 0 for an empty row."""
    row = np.asarray(row, dtype=np.int64)
    if row.size == 0:
        return 0.0
    remaining = apply_cloak(row, directive, mfm)
    return (row.size - remaining.size) / row.size


# ---------------------------------------------------------------------------
# serialization


def directives_to_dict(directives, item_ids) -> dict:
    """Directives as a JSON object with external item ids.

    Metafeature ids are integers into the paired metafeature model; they
    are only meaningful next to that model's report.
    """
    return {
        "directives": [
            {
                "user": d.user,
                "strategy": d.strategy,
                "created_at_fraction": d.created_at_fraction,
                "cloaked_features": [item_ids[j] for j in sorted(d.cloaked_features)],
                "cloaked_metafeatures": sorted(d.cloaked_metafeatures),
            }
            for d in directives
        ]
    }
