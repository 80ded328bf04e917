"""Minimal counterfactual explanations for positive footprint predictions.

An explanation is a smallest set of a user's active items whose removal
(replacement by the all-zeros training median) pushes the model score
strictly below the decision threshold. sedc_explain runs a best-first
search that works for any scoring function; linear_explain is the exact
fast path for linear models, where descending-weight removal is optimal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import expit

from .models import KIND_CLASSIFIER, LinearModel


@dataclass(frozen=True, eq=False)
class Explanation:
    """Ordered feature subset that flips a positive prediction.

    features lists item indices in removal order; removing any proper
    prefix leaves the score at or above the threshold, removing all of
    them lands strictly below. expansions counts best-first node
    expansions (0 for the linear path).
    """

    features: tuple[int, ...]
    score_before: float
    score_after: float
    target_threshold: float
    expansions: int

    @property
    def size(self) -> int:
        return len(self.features)


ScoreFn = Callable[[np.ndarray], float]


def _linear_removal_scorer(model: LinearModel, row: np.ndarray):
    valid = row < model.n_items
    w_row = np.where(valid, model.weights[np.where(valid, row, 0)], 0.0)
    margin0 = float(w_row.sum()) + model.intercept
    lookup = {int(j): float(w) for j, w in zip(row, w_row)}

    def score_after_removing(feats: tuple[int, ...]) -> float:
        return float(expit(margin0 - sum(lookup[f] for f in feats)))

    return score_after_removing, float(expit(margin0))


def _generic_removal_scorer(score_fn: ScoreFn, row: np.ndarray):
    row_set = set(int(j) for j in row)

    def score_after_removing(feats: tuple[int, ...]) -> float:
        remaining = np.array(sorted(row_set - set(feats)), dtype=np.int64)
        return float(score_fn(remaining))

    return score_after_removing, float(score_fn(np.asarray(row, dtype=np.int64)))


def _finalize(
    score_of: Callable[[tuple[int, ...]], float],
    found: tuple[int, ...],
    threshold: float,
    score_before: float,
    expansions: int,
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
        expansions=expansions,
    )


def sedc_explain(
    model: Union[LinearModel, ScoreFn],
    row: np.ndarray,
    threshold: float,
    max_size: int = 30,
    max_expansions: int = 50000,
) -> Optional[Explanation]:
    """Best-first search for a minimal score-flipping removal set.

    model is either a LinearModel or any callable mapping an active-item
    index array to a score. Candidate subsets are expanded lowest
    resulting score first, ties to the lexicographically smallest feature
    tuple. Returns None when no subset within max_size crosses the
    threshold or the expansion budget runs out.
    """
    row = np.asarray(row, dtype=np.int64)
    if isinstance(model, LinearModel):
        if model.kind != KIND_CLASSIFIER:
            raise ValueError("explanations require a binary classifier")
        score_of, score_before = _linear_removal_scorer(model, row)
    else:
        score_of, score_before = _generic_removal_scorer(model, row)
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
            return _finalize(score_of, feats, threshold, score_before, expansions)
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


def linear_explain(
    model: LinearModel, row: np.ndarray, threshold: float
) -> Optional[Explanation]:
    """Exact minimal explanation for a linear model.

    Removes active items in descending weight order (ties to the lower
    index) until the score falls strictly below the threshold. For linear
    scoring this prefix is a minimum-cardinality flipping set. Returns
    None when even removing everything cannot cross.
    """
    if model.kind != KIND_CLASSIFIER:
        raise ValueError("explanations require a binary classifier")
    row = np.asarray(row, dtype=np.int64)
    valid = row < model.n_items
    w_row = np.where(valid, model.weights[np.where(valid, row, 0)], 0.0)
    margin0 = float(w_row.sum()) + model.intercept
    score_before = float(expit(margin0))
    if score_before < threshold:
        raise ValueError("prediction already below threshold; nothing to explain")
    if len(row) == 0:
        return None
    order = np.lexsort((np.arange(len(row)), -w_row))
    prefix_margins = margin0 - np.cumsum(w_row[order])
    prefix_scores = expit(prefix_margins)
    crossing = np.nonzero(prefix_scores < threshold)[0]
    if crossing.size == 0:
        return None
    t = int(crossing[0])
    feats = tuple(int(row[o]) for o in order[: t + 1])
    return Explanation(
        features=feats,
        score_before=score_before,
        score_after=float(prefix_scores[t]),
        target_threshold=float(threshold),
        expansions=0,
    )
