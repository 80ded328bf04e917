"""Exact minimal counterfactual explanations for linear models.

An explanation is a smallest set of a user's active items whose removal
(replacement by the all-zeros training median) pushes the model score
strictly below the decision threshold. For a linear model, removing items
in descending weight order is optimal, so linear_explain finds one
exactly without search; explain_population explains many rows of a
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import expit
from .data import FootprintMatrix
from .models import KIND_CLASSIFIER, LinearModel, check_width


@dataclass(frozen=True, eq=False)
class Explanation:
    """Ordered feature subset that flips a positive prediction.

    features lists item indices in removal order; removing any proper
    prefix leaves the score at or above the threshold, removing all of
    them lands strictly below.
    """

    features: tuple[int, ...]
    score_before: float
    score_after: float
    target_threshold: float

    @property
    def size(self) -> int:
        return len(self.features)


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
    w_row = model.weights[row]
    # summed left to right from 0, as the CSR product of predict_scores
    # does, so score_before is predict_scores' score bit for bit
    margin0 = float(np.cumsum(w_row)[-1] if len(row) else 0.0) + model.intercept
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
    )


def explain_population(
    model: LinearModel, matrix: FootprintMatrix, rows, threshold: float
) -> tuple[dict[int, Explanation], int]:
    """linear_explain of each of the given rows of matrix against threshold.

    That the model covers exactly the items of matrix is checked once,
    before the first row. Returns the explanations keyed by row, in the
    order of rows, and the count of rows that have none.
    """
    check_width("model", model.n_items, matrix)
    explained: dict[int, Explanation] = {}
    not_found = 0
    for i in map(int, rows):
        expl = linear_explain(model, matrix.row(i), threshold)
        if expl is None:
            not_found += 1
        else:
            explained[i] = expl
    return explained, not_found
