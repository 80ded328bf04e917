import itertools

import numpy as np
import pytest
from scipy.special import expit

from footcloak.data import from_rows
from footcloak.explain import linear_explain
from footcloak.models import KIND_REGRESSOR, LinearModel, predict_scores

from oracles import sedc_explain


def _score(model, active):
    active = np.asarray(active, dtype=np.int64)
    return float(expit(model.weights[active].sum() + model.intercept))


def _exhaustive_min_size(model, row, threshold):
    """Smallest removal-set size that crosses, by subset enumeration."""
    row = [int(j) for j in row]
    for size in range(1, len(row) + 1):
        for feats in itertools.combinations(row, size):
            rest = [j for j in row if j not in feats]
            if _score(model, np.array(rest, dtype=np.int64)) < threshold:
                return size
    return None


def _check_prefix_property(model, row, exp):
    """Proper prefixes stay at or above threshold; the full set crosses."""
    row = [int(j) for j in row]
    for t in range(len(exp.features)):
        remaining = [j for j in row if j not in exp.features[: t + 1]]
        s = _score(model, np.array(remaining, dtype=np.int64))
        if t + 1 < len(exp.features):
            assert s >= exp.target_threshold
        else:
            assert s < exp.target_threshold
            assert s == pytest.approx(exp.score_after, abs=1e-12)


# ---------------------------------------------------------------------------
# frozen examples


def test_three_feature_example_minimal_pair():
    # margin 3.5 -> 0.970; dropping items 0 and 1 leaves 0.5 -> 0.622 < 0.7
    # while every single drop and the pair {0, 2} stay at or above 0.7
    model = LinearModel(np.array([2.0, 1.0, 0.5]), 0.0, 1.0)
    row = np.array([0, 1, 2])
    for fn in (sedc_explain, linear_explain):
        exp = fn(model, row, 0.7)
        assert exp.features == (0, 1)
        assert exp.score_before == pytest.approx(float(expit(3.5)), abs=1e-12)
        assert exp.score_after == pytest.approx(float(expit(0.5)), abs=1e-12)
        assert exp.size == 2
        assert exp.target_threshold == 0.7


def test_singleton_explanation():
    model = LinearModel(np.array([3.0, 0.1]), -1.0, 1.0)
    row = np.array([0, 1])
    for fn in (sedc_explain, linear_explain):
        exp = fn(model, row, 0.5)
        assert exp.features == (0,)


def test_tie_breaks_to_lowest_index():
    # equal weights: any pair crosses at 0.8, the lowest-index pair wins
    model = LinearModel(np.array([1.0, 1.0, 1.0]), 0.0, 1.0)
    row = np.array([0, 1, 2])
    for fn in (sedc_explain, linear_explain):
        exp = fn(model, row, 0.8)
        assert exp.features == (0, 1)


def test_no_crossing_returns_none():
    # every weight is nonpositive, so removals only raise the score
    model = LinearModel(np.array([-0.5, -0.2, 0.0]), 4.0, 1.0)
    row = np.array([0, 1, 2])
    assert sedc_explain(model, row, 0.5) is None
    assert linear_explain(model, row, 0.5) is None


def test_already_below_threshold_raises():
    model = LinearModel(np.array([0.1]), 0.0, 1.0)
    row = np.array([0])
    with pytest.raises(ValueError, match="below threshold"):
        sedc_explain(model, row, 0.99)
    with pytest.raises(ValueError, match="below threshold"):
        linear_explain(model, row, 0.99)


def test_empty_row_returns_none():
    model = LinearModel(np.array([1.0]), 2.0, 1.0)
    row = np.array([], dtype=np.int64)
    assert linear_explain(model, row, 0.5) is None
    assert sedc_explain(model, row, 0.5) is None


def test_regressor_rejected():
    model = LinearModel(np.array([1.0]), 0.0, 1.0, KIND_REGRESSOR)
    with pytest.raises(ValueError):
        sedc_explain(model, np.array([0]), 0.5)
    with pytest.raises(ValueError):
        linear_explain(model, np.array([0]), 0.5)


# ---------------------------------------------------------------------------
# budgets


def test_max_size_exhausts_to_none():
    # crossing needs 5 of the 6 equal items; a size cap of 3 blocks it
    model = LinearModel(np.full(6, 0.3), 0.0, 1.0)
    row = np.arange(6)
    full = sedc_explain(model, row, 0.6)
    assert full is not None and full.size == 5
    assert sedc_explain(model, row, 0.6, max_size=3) is None


def test_max_expansions_exhausts_to_none():
    # crossing needs 7 of the 12 equal items, far beyond two expansions
    model = LinearModel(np.full(12, 0.2), 0.0, 1.0)
    row = np.arange(12)
    assert sedc_explain(model, row, 0.75, max_expansions=2) is None
    found = sedc_explain(model, row, 0.75)
    assert found is not None and found.size == 7


# ---------------------------------------------------------------------------
# optimality property loops


def test_sedc_matches_exhaustive_minimum():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        n_items = int(rng.integers(3, 8))
        w = rng.normal(0.4, 1.2, n_items)
        b = float(rng.normal(0, 0.5))
        model = LinearModel(w, b, 1.0)
        row = np.arange(n_items)
        threshold = float(rng.uniform(0.3, 0.8))
        if _score(model, row) < threshold:
            continue
        checked += 1
        best = _exhaustive_min_size(model, row, threshold)
        exp = sedc_explain(model, row, threshold)
        lin = linear_explain(model, row, threshold)
        if best is None:
            assert exp is None and lin is None
            continue
        assert exp is not None and lin is not None
        assert exp.size == best
        assert lin.size == best
        _check_prefix_property(model, row, exp)
        _check_prefix_property(model, row, lin)
    assert checked >= 20


def test_sedc_and_linear_agree_on_larger_rows():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(40):
        n_items = int(rng.integers(8, 20))
        w = rng.normal(0.3, 0.8, n_items)
        model = LinearModel(w, float(rng.normal(0, 0.3)), 1.0)
        k = int(rng.integers(4, n_items + 1))
        row = np.sort(rng.choice(n_items, size=k, replace=False))
        threshold = float(rng.uniform(0.35, 0.75))
        if _score(model, row) < threshold:
            continue
        checked += 1
        exp = sedc_explain(model, row, threshold)
        lin = linear_explain(model, row, threshold)
        if lin is None:
            assert exp is None
            continue
        assert exp is not None
        assert exp.size == lin.size
        assert sorted(exp.features) == sorted(lin.features) or exp.size == lin.size
    assert checked >= 15


def test_score_before_is_predict_scores_bit_for_bit():
    # a user scored exactly at the threshold, as when a test footprint
    # equals the footprint of the training user that set it, is explained,
    # never "already below threshold": linear_explain sums the row's
    # weights as the CSR product of predict_scores does
    rng = np.random.default_rng(7)
    n_items = 20
    items = tuple(f"i{j}" for j in range(n_items))
    for _ in range(300):
        model = LinearModel(rng.normal(0.0, 1.0, n_items), float(rng.normal()), 1.0)
        row = np.flatnonzero(rng.random(n_items) < 0.6)
        score = predict_scores(model, from_rows([row], n_items, ("u0",), items))[0]
        exp = linear_explain(model, row, score)
        if exp is not None:
            assert exp.score_before == score
