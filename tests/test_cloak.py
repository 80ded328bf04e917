import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footcloak._util import ExperimentConfig, write_results
from footcloak.cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    cloak_entries,
    cloaked_mask,
    directives_to_dict,
    strategy_threshold,
)
from footcloak import cloak
from footcloak.data import from_rows
from footcloak.explain import Explanation, explain_population, linear_explain
from footcloak.metafeatures import MetafeatureModel
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
# scores whose 0.95 quantile threshold is 0.96 and 0.90 threshold 0.92
_SCORES = np.arange(1, 101) / 100.0


def _one_row(row, n_items=len(_ROW), user="u0"):
    """A one-user matrix over items 0..n_items-1 holding row."""
    items = tuple(f"it{j}" for j in range(n_items))
    return from_rows([np.asarray(row, dtype=np.int64)], n_items, (user,), items)


def _explain(row, threshold, model=_MODEL):
    """explain_population over a one-row matrix: the row's explanation or
    None."""
    explained, not_found = explain_population(
        model, _one_row(row, model.n_items), [0], threshold
    )
    assert len(explained) + not_found == 1
    return explained.get(0)


def _cloak(row, expl, mfm=None):
    """The row cloaked by one explanation, through cloak_entries."""
    m = _one_row(row)
    return m.indices[cloak_entries(m, {0: expl}, mfm)]


def _tol_config(tolerance_quantile):
    return ExperimentConfig(quantile=0.95, tolerance_quantile=tolerance_quantile)


def test_fg_removes_explanation_and_crosses():
    expl = _explain(_ROW, _TH)
    assert expl.features == (0, 1, 2)
    after = _cloak(_ROW, expl)
    np.testing.assert_array_equal(after, [3, 4, 5])
    np.testing.assert_array_equal(after, apply_cloak(_ROW, expl.features))
    assert predict_score(_MODEL, after) < _TH


def test_mf_sweeps_shared_metafeatures():
    # items 0 and 2 and 5 share group 0; 1 alone in group 1; 3, 4 in group 2
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    expl = _explain(_ROW, _TH)
    after = _cloak(_ROW, expl, mfm)
    np.testing.assert_array_equal(after, [3, 4])
    np.testing.assert_array_equal(after, apply_cloak(_ROW, expl.features, mfm))
    (d,) = directives_to_dict(STRATEGY_MF, _one_row(_ROW), {0: expl}, mfm)["directives"]
    assert d["cloaked_metafeatures"] == [0, 1]
    assert d["cloaked_features"] == ["it0", "it1", "it2", "it5"]


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
        expl = _explain(row, 0.5, model)
        if expl is None:
            continue
        fg = cloaked_mask(row, expl.features)
        mf = cloaked_mask(row, expl.features, mfm)
        assert not (fg & ~mf).any()
        assert cloak_cost(row, expl.features, mfm) >= cloak_cost(row, expl.features)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 12),
    threshold=st.floats(0.01, 0.99),
    reserved=st.booleans(),
)
def test_mf_finds_none_exactly_when_fg_does(seed, n_items, threshold, reserved):
    # FG and MF cloak the same explanations, as the spillover experiment
    # does: a row without one keeps all its items under both, and MF
    # removes every item FG removes
    rng = np.random.default_rng(seed)
    model = LinearModel(rng.normal(0.3, 1.0, n_items), float(rng.normal()), 1.0)
    row = np.flatnonzero(rng.random(n_items) < 0.6)
    assignment = rng.integers(0, 3, n_items)
    mfm = _mfm(assignment, reserved=int(assignment.max()) if reserved else None)
    if predict_score(model, row) < threshold:
        with pytest.raises(ValueError, match="already below"):
            _explain(row, threshold, model)
        return
    m = _one_row(row, n_items)
    explained, not_found = explain_population(model, m, [0], threshold)
    fg, mf = (m.keep_entries(cloak_entries(m, explained, g)) for g in (None, mfm))
    assert not_found == (fg.nnz == m.nnz) == (mf.nnz == m.nnz)
    assert set(mf.row(0)) <= set(fg.row(0))


def test_domain_mf_never_sweeps_reserved():
    # explanation features {0, 1, 2}; item 1 is uncategorized (reserved 2)
    mfm = _mfm([0, 2, 0, 1, 1, 2], reserved=2, source="domain")
    expl = _explain(_ROW, _TH)
    # the reserved group is not swept (5 stays) but the explanation
    # feature 1 is still cloaked individually
    after = _cloak(_ROW, expl, mfm)
    np.testing.assert_array_equal(after, [3, 4, 5])
    np.testing.assert_array_equal(after, apply_cloak(_ROW, expl.features, mfm))
    m = _one_row(_ROW)
    (d,) = directives_to_dict(STRATEGY_DOMAIN_MF, m, {0: expl}, mfm)["directives"]
    assert d["strategy"] == STRATEGY_DOMAIN_MF
    assert d["cloaked_metafeatures"] == [0]
    assert d["cloaked_features"] == ["it0", "it1", "it2"]


def test_fg_tol_crosses_lower_threshold():
    tol = strategy_threshold(_tol_config(0.90), STRATEGY_FG_TOL, 0.96, _SCORES)
    assert tol == 0.91  # the 10th largest of 100: floor(100 * (1 - 0.90))
    expl = _explain(_ROW, tol)
    assert predict_score(_MODEL, apply_cloak(_ROW, expl.features)) < 0.91
    fg = _explain(_ROW, 0.96)
    assert fg.size <= expl.size


def test_fg_tol_equal_quantiles_degenerates_to_fg():
    tol = strategy_threshold(_tol_config(0.95), STRATEGY_FG_TOL, 0.96, _SCORES)
    assert tol == 0.96
    assert _explain(_ROW, tol).features == _explain(_ROW, 0.96).features


def test_fg_tol_above_threshold_raises():
    config = _tol_config(0.90)
    with pytest.raises(ValueError, match="tolerance threshold exceeds"):
        strategy_threshold(config, STRATEGY_FG_TOL, 0.5, _SCORES)
    # every other strategy explains against the prediction threshold
    for strategy in (STRATEGY_FG, STRATEGY_MF, STRATEGY_DOMAIN_MF):
        assert strategy_threshold(config, strategy, 0.5, _SCORES) == 0.5


def test_fg_tol_threshold_computed_once(monkeypatch):
    calls = []

    def counting(scores, q):
        calls.append(q)
        return quantile_threshold(scores, q)

    monkeypatch.setattr(cloak, "quantile_threshold", counting)
    config = ExperimentConfig(quantile=0.8, tolerance_quantile=0.5)
    for strategy in (STRATEGY_FG, STRATEGY_MF, STRATEGY_DOMAIN_MF):
        strategy_threshold(config, strategy, 0.8, _SCORES)
    assert calls == []
    assert strategy_threshold(config, STRATEGY_FG_TOL, 0.8, _SCORES) == 0.51
    assert calls == [0.5]


def test_population_checks_item_spaces_before_any_row():
    # the model and the metafeature model must each cover exactly the
    # matrix's items; one item narrower or wider is an error naming both
    m = _one_row(_ROW)
    for width in (5, 7):
        model = LinearModel(np.ones(width), 0.0, 1.0)
        message = f"^model covers {width} items; the matrix has 6$"
        with pytest.raises(ValueError, match=message):
            explain_population(model, m, [], _TH)
        mfm = _mfm(np.arange(width) % 3)
        with pytest.raises(ValueError, match="^metafeature " + message[1:]):
            cloak_entries(m, {}, mfm)
        with pytest.raises(ValueError, match="^metafeature " + message[1:]):
            directives_to_dict(STRATEGY_MF, m, {}, mfm)


def test_not_found_returns_none():
    model = LinearModel(np.array([-1.0, -0.5]), 5.0, 1.0)
    row = np.array([0, 1])
    assert _explain(row, 0.5, model) is None
    # nor at FG_TOL's lower threshold
    assert _explain(row, 0.3, model) is None


# ---------------------------------------------------------------------------
# cloaking future rows


def _future(row, features, mfm=None):
    """The items of a later row that the cloak of features keeps."""
    row = np.asarray(row)
    return row[~cloaked_mask(row, features, mfm)]


def test_fg_does_not_touch_new_items():
    features = _explain(_ROW, _TH).features
    np.testing.assert_array_equal(_future(np.arange(6), features), [3, 4, 5])
    # an unrelated new item is kept
    np.testing.assert_array_equal(_future(np.array([0, 6]), features), [6])


def test_mf_suppresses_future_items_in_swept_groups():
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    expl = _explain(np.array([0, 1, 3]), _TH)
    assert expl.features == (0, 1)
    # item 2 and 5 were never in the original row but share group 0
    np.testing.assert_array_equal(_future(np.arange(6), expl.features, mfm), [3, 4])


def test_apply_cloak_idempotent():
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    features = _explain(_ROW, _TH).features
    once = apply_cloak(_ROW, features, mfm)
    np.testing.assert_array_equal(apply_cloak(once, features, mfm), once)
    np.testing.assert_array_equal(_future(once, features, mfm), once)


def test_apply_cloak_empty_row():
    empty = np.array([], dtype=np.int32)
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    for m in (None, mfm):
        assert apply_cloak(empty, (0, 1, 2), m).size == 0
        assert _future(empty, (0, 1, 2), m).size == 0


def _draw_explained(rng, m):
    """Random explanation tuples, in random order and not always in the
    row, for about 60% of the rows of m."""
    explained = {}
    for i in np.flatnonzero(rng.random(m.n_users) < 0.6):
        size = int(rng.integers(1, m.n_items + 1))
        features = tuple(int(f) for f in rng.permutation(m.n_items)[:size])
        explained[int(i)] = Explanation(features, 0.9, 0.1, 0.5)
    return explained


def _mfm_variants(rng, n_items):
    """No grouping, a grouping with no reserved group, and one with."""
    assignment = rng.integers(0, 4, n_items)
    return (
        None,
        _mfm(assignment),
        _mfm(assignment, reserved=int(assignment.max()), source="domain"),
    )


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 12),
    density=st.floats(0.0, 0.8),
)
def test_cloak_entries_match_apply_cloak(seed, n_items, density):
    # every row that cloak_entries keeps is apply_cloak's row, or the row
    # itself when it has no explanation; rows may be empty
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, 10, n_items, density)
    explained = _draw_explained(rng, m)
    for mfm in _mfm_variants(rng, n_items):
        keep = cloak_entries(m, explained, mfm)
        assert keep.dtype == bool and keep.shape == (m.nnz,)
        out = m.keep_entries(keep)
        assert (out.n_items, out.user_ids, out.item_ids) == (
            m.n_items, m.user_ids, m.item_ids
        )
        assert out.indptr.dtype == out.indices.dtype == np.int32
        for i in range(m.n_users):
            want = m.row(i)
            if i in explained:
                want = apply_cloak(want, explained[i].features, mfm)
            np.testing.assert_array_equal(out.row(i), want)
        # simulate.run_strategy's cost: the share of a nonempty row removed
        degrees, cloaked_degrees = m.degrees(), out.degrees()
        for i, expl in explained.items():
            if degrees[i]:
                cost = (degrees[i] - cloaked_degrees[i]) / degrees[i]
                assert cost == cloak_cost(m.row(i), expl.features, mfm)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_items=st.integers(1, 12),
    density=st.floats(0.0, 0.8),
)
def test_directives_to_dict_matches_apply_cloak(seed, n_items, density):
    # each directive lists the items the oracle removes from its row, in
    # item-index order, and the oracle's swept groups, sorted
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, 10, n_items, density)
    explained = _draw_explained(rng, m)
    for strategy, mfm in zip(
        (STRATEGY_FG, STRATEGY_MF, STRATEGY_DOMAIN_MF), _mfm_variants(rng, n_items)
    ):
        directives = directives_to_dict(strategy, m, explained, mfm)["directives"]
        assert len(directives) == len(explained)
        for (i, expl), d in zip(explained.items(), directives):
            row = m.row(i)
            removed = set(row.tolist()) - set(apply_cloak(row, expl.features, mfm).tolist())
            groups = set()
            if mfm is not None:
                groups = {int(mfm.assignment[f]) for f in expl.features}
                groups -= {mfm.reserved}
            assert d == {
                "user": m.user_ids[i],
                "strategy": strategy,
                "created_at_fraction": 0.0,
                "cloaked_features": [m.item_ids[j] for j in sorted(removed)],
                "cloaked_metafeatures": sorted(groups),
            }
            # a feature in the row is listed, even in the reserved group
            held = set(expl.features) & set(row.tolist())
            assert {m.item_ids[f] for f in held} <= set(d["cloaked_features"])


# ---------------------------------------------------------------------------
# cost


def test_cost_edges():
    features = _explain(_ROW, _TH).features  # cloaks {0, 1, 2}
    assert cloak_cost(np.array([], dtype=np.int64), features) == 0.0
    assert cloak_cost(np.array([0, 1]), features) == 1.0
    assert cloak_cost(np.array([3, 4]), features) == 0.0
    assert cloak_cost(_ROW, features) == pytest.approx(3.0 / 6.0)


# ---------------------------------------------------------------------------
# serialization


def test_directive_roundtrip(tmp_path):
    rows = [np.arange(6), np.array([1, 3])]
    m = from_rows(
        rows, 6, ("u0", "u1"), tuple(f"it{j}" for j in range(6))
    )
    mfm = _mfm([0, 1, 0, 2, 2, 0])
    explained, not_found = explain_population(_MODEL, m, [0, 1], _TH)
    assert not_found == 0
    path = tmp_path / "directives.json"
    obj = {
        **directives_to_dict(STRATEGY_MF, m, explained, mfm),
        "config_hash": "h",
        "seed": 3,
    }
    write_results(tmp_path, {"directives.json": obj})
    written = json.loads(path.read_text())["directives"]
    assert [d["user"] for d in written] == ["u0", "u1"]
    for d in written:
        assert d["strategy"] == STRATEGY_MF
        assert d["created_at_fraction"] == 0.0
    # external item ids, in item-index order
    assert written[0]["cloaked_features"] == ["it0", "it1", "it2", "it5"]
    assert written[0]["cloaked_metafeatures"] == [0, 1]
    assert written[1]["cloaked_features"] == ["it1"]
    assert written[1]["cloaked_metafeatures"] == [1]
    text = path.read_text()
    assert '"config_hash": "h"' in text and '"seed": 3' in text
