import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footcloak._util import write_results
from footcloak.cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    CloakDirective,
    cloak_matrix,
    cloak_population,
    directives_to_dict,
)
from footcloak import cloak
from footcloak.data import from_rows
from footcloak.metafeatures import MetafeatureModel, assign_exclusive
from footcloak.models import LinearModel, quantile_threshold

from conftest import random_footprints
from oracles import apply_cloak, cloak_cost, predict_score


def _mfm(assignment, reserved=None, source="nmf"):
    assignment = np.asarray(assignment, dtype=np.int64)
    k = int(assignment.max()) + 1
    return MetafeatureModel(
        k, assignment, np.ones(len(assignment)), source, reserved=reserved
    )


# six items; against threshold 0.7 the model below needs {0, 1, 2} removed
_MODEL = LinearModel(np.array([2.0, 1.0, 0.5, 0.3, 0.2, 0.1]), 0.0, 1.0)
_ROW = np.arange(6)
_TH = 0.7


def _one_row(row, n_items=len(_ROW), user="u0"):
    """A one-user matrix over items 0..n_items-1 holding row."""
    items = tuple(f"it{j}" for j in range(n_items))
    return from_rows([np.asarray(row, dtype=np.int64)], n_items, (user,), items)


def _cloak(
    strategy, row, threshold, model=_MODEL, mfm=None, scores=None,
    quantile_tol=0.90, user="u0",
):
    """cloak_population over a one-row matrix: the row's directive or None."""
    m = _one_row(row, model.n_items, user)
    directives, not_found = cloak_population(
        strategy, model, m, [0], threshold, mfm, scores, quantile_tol
    )
    assert len(directives) + not_found == 1
    return directives.get(0)


def test_fg_removes_explanation_and_crosses():
    d = _cloak(STRATEGY_FG, _ROW, _TH)
    assert d.user == "u0"
    assert d.strategy == STRATEGY_FG
    assert d.cloaked_features == frozenset({0, 1, 2})
    assert d.cloaked_metafeatures == frozenset()
    after = apply_cloak(_ROW, d)
    np.testing.assert_array_equal(after, [3, 4, 5])
    assert predict_score(_MODEL, after) < _TH


def test_mf_sweeps_shared_metafeatures():
    # items 0 and 2 and 5 share group 0; 1 alone in group 1; 3, 4 in group 2
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    d = _cloak(STRATEGY_MF, _ROW, _TH, mfm=mfm)
    assert d.strategy == STRATEGY_MF
    assert d.cloaked_metafeatures == frozenset({0, 1})
    assert d.cloaked_features == frozenset({0, 1, 2, 5})
    after = apply_cloak(_ROW, d, mfm)
    np.testing.assert_array_equal(after, [3, 4])


def test_mf_superset_of_fg():
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        w = rng.normal(0.5, 1.0, n)
        model = LinearModel(w, float(rng.normal(0, 0.3)), 1.0)
        row = np.arange(n)
        if predict_score(model, row) < 0.5:
            continue
        mfm = _mfm(rng.integers(0, 3, n))
        fg = _cloak(STRATEGY_FG, row, 0.5, model)
        mf = _cloak(STRATEGY_MF, row, 0.5, model, mfm)
        if fg is None:
            assert mf is None
            continue
        assert fg.cloaked_features <= mf.cloaked_features
        assert cloak_cost(row, mf, mfm) >= cloak_cost(row, fg)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 12),
    threshold=st.floats(0.01, 0.99),
    reserved=st.booleans(),
)
def test_mf_finds_none_exactly_when_fg_does(seed, n_items, threshold, reserved):
    # the spillover experiment directs the same users under FG and MF
    rng = np.random.default_rng(seed)
    model = LinearModel(rng.normal(0.3, 1.0, n_items), float(rng.normal()), 1.0)
    row = np.flatnonzero(rng.random(n_items) < 0.6)
    assignment = rng.integers(0, 3, n_items)
    mfm = _mfm(assignment, reserved=int(assignment.max()) if reserved else None)
    mf_strategy = STRATEGY_DOMAIN_MF if reserved else STRATEGY_MF
    if predict_score(model, row) < threshold:
        for strategy in (STRATEGY_FG, mf_strategy):
            with pytest.raises(ValueError, match="already below"):
                _cloak(strategy, row, threshold, model, mfm)
        return
    fg = _cloak(STRATEGY_FG, row, threshold, model)
    mf = _cloak(mf_strategy, row, threshold, model, mfm)
    assert (fg is None) == (mf is None)
    if fg is not None:
        assert fg.cloaked_features <= mf.cloaked_features


def test_domain_mf_never_sweeps_reserved():
    # explanation features {0, 1, 2}; item 1 is uncategorized (reserved 2)
    mfm = _mfm([0, 2, 0, 1, 1, 2], reserved=2, source="domain")
    d = _cloak(STRATEGY_DOMAIN_MF, _ROW, _TH, mfm=mfm)
    assert d.strategy == STRATEGY_DOMAIN_MF
    assert d.cloaked_metafeatures == frozenset({0})
    # the reserved group is not swept (5 stays) but the explanation
    # feature 1 is still cloaked individually
    assert d.cloaked_features == frozenset({0, 1, 2})
    after = apply_cloak(_ROW, d, mfm)
    np.testing.assert_array_equal(after, [3, 4, 5])


def test_fg_tol_crosses_lower_threshold():
    scores = np.arange(1, 101) / 100.0  # th(0.95) = 0.96, th(0.90) = 0.91
    d = _cloak(STRATEGY_FG_TOL, _ROW, 0.96, scores=scores, quantile_tol=0.90)
    assert d.strategy == STRATEGY_FG_TOL
    after = apply_cloak(_ROW, d)
    assert predict_score(_MODEL, after) < 0.91
    fg = _cloak(STRATEGY_FG, _ROW, 0.96)
    assert len(fg.cloaked_features) <= len(d.cloaked_features)


def test_fg_tol_equal_quantiles_degenerates_to_fg():
    scores = np.arange(1, 101) / 100.0
    d = _cloak(STRATEGY_FG_TOL, _ROW, 0.96, scores=scores, quantile_tol=0.95)
    fg = _cloak(STRATEGY_FG, _ROW, 0.96)
    assert d.cloaked_features == fg.cloaked_features


def test_fg_tol_above_threshold_raises():
    scores = np.arange(1, 101) / 100.0
    with pytest.raises(ValueError, match="tolerance"):
        _cloak(STRATEGY_FG_TOL, _ROW, 0.5, scores=scores, quantile_tol=0.90)
    # checked once before the loop, so an empty population raises too
    with pytest.raises(ValueError, match="tolerance"):
        cloak_population(
            STRATEGY_FG_TOL, _MODEL, _one_row(_ROW), [], 0.5, None, scores, 0.90
        )


def test_fg_tol_threshold_computed_once(monkeypatch):
    calls = []

    def counting(scores, q):
        calls.append(q)
        return quantile_threshold(scores, q)

    monkeypatch.setattr(cloak, "quantile_threshold", counting)
    m = from_rows([_ROW, np.array([0, 1, 3])], 6, ("u0", "u1"),
                  tuple(f"it{j}" for j in range(6)))
    scores = np.arange(1, 101) / 100.0
    directives, _ = cloak_population(
        STRATEGY_FG_TOL, _MODEL, m, [0, 1], 0.8, None, scores, 0.5
    )
    assert calls == [0.5]
    assert list(directives) == [0, 1]


def test_population_checks_strategy_before_any_row():
    m = _one_row(_ROW)
    with pytest.raises(ValueError, match="unknown strategy"):
        cloak_population("NOPE", _MODEL, m, [], _TH)
    for strategy in (STRATEGY_MF, STRATEGY_DOMAIN_MF):
        with pytest.raises(ValueError, match="requires metafeatures"):
            cloak_population(strategy, _MODEL, m, [], _TH)
    with pytest.raises(ValueError, match="requires population_scores"):
        cloak_population(STRATEGY_FG_TOL, _MODEL, m, [], _TH)


def test_population_checks_item_spaces_before_any_row():
    # the model and the metafeature model must each cover exactly the
    # matrix's items; one item narrower or wider is an error naming both
    m = _one_row(_ROW)
    for width in (5, 7):
        model = LinearModel(np.ones(width), 0.0, 1.0)
        message = f"^model covers {width} items; the matrix has 6$"
        with pytest.raises(ValueError, match=message):
            cloak_population(STRATEGY_FG, model, m, [], _TH)
        mfm = _mfm(np.arange(width) % 3)
        for strategy in (STRATEGY_MF, STRATEGY_DOMAIN_MF):
            with pytest.raises(ValueError, match="^metafeature " + message[1:]):
                cloak_population(strategy, _MODEL, m, [], _TH, mfm)


def test_fg_and_fg_tol_ignore_mfm():
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    scores = np.arange(1, 101) / 100.0
    for strategy in (STRATEGY_FG, STRATEGY_FG_TOL):
        d = _cloak(strategy, _ROW, 0.96, mfm=mfm, scores=scores)
        plain = _cloak(strategy, _ROW, 0.96, scores=scores)
        assert d.cloaked_metafeatures == frozenset()
        assert d.cloaked_features == plain.cloaked_features


def test_not_found_returns_none():
    model = LinearModel(np.array([-1.0, -0.5]), 5.0, 1.0)
    row = np.array([0, 1])
    assert _cloak(STRATEGY_FG, row, 0.5, model) is None
    assert _cloak(STRATEGY_MF, row, 0.5, model, _mfm([0, 0])) is None
    scores = np.linspace(0.01, 0.4, 50)
    assert _cloak(STRATEGY_FG_TOL, row, 0.5, model, scores=scores) is None


# ---------------------------------------------------------------------------
# applying directives to future rows


def test_fg_does_not_touch_new_items():
    d = _cloak(STRATEGY_FG, _ROW, _TH)
    future = np.array([0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(apply_cloak(future, d), [3, 4, 5])
    # an unrelated new item is kept
    np.testing.assert_array_equal(
        apply_cloak(np.array([0, 6]), d), [6]
    )


def test_mf_suppresses_future_items_in_swept_groups():
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    d = _cloak(STRATEGY_MF, np.array([0, 1, 3]), _TH, mfm=mfm)
    assert d.cloaked_metafeatures == frozenset({0, 1})
    # item 2 and 5 were never in the original row but share group 0
    future = np.arange(6)
    np.testing.assert_array_equal(apply_cloak(future, d, mfm), [3, 4])


def test_apply_cloak_idempotent():
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    d = _cloak(STRATEGY_MF, _ROW, _TH, mfm=mfm)
    once = apply_cloak(_ROW, d, mfm)
    twice = apply_cloak(once, d, mfm)
    np.testing.assert_array_equal(once, twice)


def test_apply_cloak_requires_mfm_for_sweeps():
    d = CloakDirective("u", STRATEGY_MF, frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError, match="metafeature model"):
        apply_cloak(np.array([0, 1]), d)


def test_apply_cloak_empty_row():
    d = _cloak(STRATEGY_FG, _ROW, _TH)
    out = apply_cloak(np.array([], dtype=np.int64), d)
    assert out.size == 0


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 12),
    density=st.floats(0.0, 0.8),
)
def test_cloak_matrix_matches_apply_cloak(seed, n_items, density):
    # every row of cloak_matrix is apply_cloak's row, or the row itself
    # when it has no directive; rows may be empty
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, 10, n_items, density)
    assignment = rng.integers(0, 4, n_items)
    mfm = _mfm(assignment, reserved=int(assignment.max()))
    directives = {}
    for i in np.flatnonzero(rng.random(m.n_users) < 0.6):
        strategy = rng.choice([STRATEGY_FG, STRATEGY_MF, STRATEGY_DOMAIN_MF])
        feats = np.flatnonzero(rng.random(n_items) < 0.3)
        metas = set()
        if strategy != STRATEGY_FG:
            metas = set(np.flatnonzero(rng.random(mfm.k) < 0.4).tolist())
        if strategy == STRATEGY_DOMAIN_MF:
            metas.discard(mfm.reserved)
        directives[int(i)] = CloakDirective(
            m.user_ids[i], str(strategy), frozenset(feats.tolist()), frozenset(metas)
        )
    out = cloak_matrix(m, directives, mfm)
    assert (out.n_items, out.user_ids, out.item_ids) == (
        m.n_items, m.user_ids, m.item_ids
    )
    assert out.indptr.dtype == out.indices.dtype == np.int32
    for i in range(m.n_users):
        want = m.row(i)
        if i in directives:
            want = apply_cloak(want, directives[i], mfm)
        np.testing.assert_array_equal(out.row(i), want)
    # simulate.run_strategy's cost: the share of a nonempty row removed
    degrees, cloaked_degrees = m.degrees(), out.degrees()
    for i, d in directives.items():
        if degrees[i]:
            cost = (degrees[i] - cloaked_degrees[i]) / degrees[i]
            assert cost == cloak_cost(m.row(i), d, mfm)


# ---------------------------------------------------------------------------
# cost


def test_cost_edges():
    d = _cloak(STRATEGY_FG, _ROW, _TH)  # cloaks {0, 1, 2}
    assert cloak_cost(np.array([], dtype=np.int64), d) == 0.0
    assert cloak_cost(np.array([0, 1]), d) == 1.0
    assert cloak_cost(np.array([3, 4]), d) == 0.0
    assert cloak_cost(_ROW, d) == pytest.approx(3.0 / 6.0)


# ---------------------------------------------------------------------------
# serialization


def test_directive_roundtrip(tmp_path):
    rows = [np.arange(6), np.array([1, 3])]
    m = from_rows(
        rows, 6, ("u0", "u1"), tuple(f"it{j}" for j in range(6))
    )
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    d0 = cloak_population(STRATEGY_MF, _MODEL, m, [0], _TH, mfm)[0][0]
    d1 = cloak_population(STRATEGY_FG, _MODEL, m, [1], _TH)[0][1]
    path = tmp_path / "directives.json"
    obj = {**directives_to_dict([d0, d1], m.item_ids), "config_hash": "h", "seed": 3}
    write_results(tmp_path, {"directives.json": obj})
    written = json.loads(path.read_text())["directives"]
    assert len(written) == 2
    assert d0.cloaked_metafeatures
    for orig, back in zip([d0, d1], written):
        assert back["user"] == orig.user
        assert back["strategy"] == orig.strategy
        # external item ids, in item-index order
        assert back["cloaked_features"] == [
            f"it{j}" for j in sorted(orig.cloaked_features)
        ]
        assert back["cloaked_metafeatures"] == sorted(orig.cloaked_metafeatures)
        assert back["created_at_fraction"] == 0.0
    text = path.read_text()
    assert '"config_hash": "h"' in text and '"seed": 3' in text
