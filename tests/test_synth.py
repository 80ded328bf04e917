import dataclasses
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from footcloak import cli, synth
from footcloak.data import LabelTable, load_labels, load_triplets, split_train_test
from footcloak.models import auc, predict_scores, train_logreg_l2
from footcloak.synth import (
    SynthConfig,
    default_binary_links,
    default_continuous_links,
    generate,
    write_dataset,
)


def test_generate_deterministic_and_seed_sensitive():
    cfg = SynthConfig(n_users=80, n_items=120, k_topics=4, mean_likes=20, seed=9)
    a = generate(cfg)
    b = generate(cfg)
    np.testing.assert_array_equal(a.matrix.indices, b.matrix.indices)
    np.testing.assert_array_equal(a.matrix.indptr, b.matrix.indptr)
    for task in a.labels.task_names:
        np.testing.assert_array_equal(a.labels.values[task], b.labels.values[task])
    c = generate(SynthConfig(n_users=80, n_items=120, k_topics=4, mean_likes=20, seed=10))
    assert not np.array_equal(a.matrix.indices, c.matrix.indices)


def test_generate_shapes_and_sparsity():
    cfg = SynthConfig(n_users=100, n_items=200, k_topics=5, mean_likes=30, seed=1)
    res = generate(cfg)
    m = res.matrix
    assert m.n_users == 100 and m.n_items == 200
    assert res.affinities.shape == (100, 5)
    np.testing.assert_allclose(res.affinities.sum(axis=1), 1.0, atol=1e-9)
    assert res.item_topics.shape == (200,)
    # like counts concentrate around the configured mean
    mean_deg = m.nnz / m.n_users
    assert 24 <= mean_deg <= 36
    # rows are sorted unique item indices
    for i in range(m.n_users):
        row = m.row(i)
        assert np.all(np.diff(row) > 0)


def test_generate_positive_rates_in_band():
    res = generate(SynthConfig(n_users=600, n_items=800, k_topics=6, mean_likes=40, seed=2))
    for task in ("task_a", "task_b", "task_c"):
        vals = res.labels.values[task]
        rate = float(vals.mean())
        assert 0.03 <= rate <= 0.55, (task, rate)
        assert set(np.unique(vals)) <= {0.0, 1.0}


def test_generate_traits_rescaled():
    res = generate(SynthConfig(n_users=150, n_items=200, k_topics=6, mean_likes=25, seed=3))
    traits = [t for t in res.labels.task_names if t.startswith("trait_")]
    assert len(traits) == 5
    for t in traits:
        vals = res.labels.values[t]
        assert vals.min() == pytest.approx(1.0)
        assert vals.max() == pytest.approx(5.0)
        assert not res.labels.is_binary(t)


def test_generated_tasks_are_learnable(small_synth):
    # a linear model on the raw footprint should pick up the planted signal
    res = small_synth
    train, test = split_train_test(res.matrix, res.labels, 0.66, seed=0)
    model = train_logreg_l2(train.matrix, train.labels.values["task_a"], C=1.0)
    preds = predict_scores(model, test.matrix)
    assert auc(preds, test.labels.values["task_a"]) >= 0.85


def test_default_links_cover_requested_tasks():
    bl = default_binary_links(6)
    assert [l.name for l in bl] == ["task_a", "task_b", "task_c"]
    for l in bl:
        w = np.asarray(l.topic_weights)
        assert (w > 0).sum() == 2
    cl = default_continuous_links(6)
    assert len(cl) == 5
    # dense weights: every trait loads on most topics
    for l in cl:
        assert np.count_nonzero(l.topic_weights) >= 3


def test_generate_validation_errors():
    with pytest.raises(ValueError):
        generate(SynthConfig(n_users=10, n_items=20, k_topics=0))
    with pytest.raises(ValueError):
        generate(SynthConfig(n_users=10, n_items=20, k_topics=30))
    with pytest.raises(ValueError):
        generate(SynthConfig(n_users=10, n_items=20, k_topics=4, mean_likes=50))


def test_generate_single_topic():
    res = generate(SynthConfig(n_users=30, n_items=50, k_topics=1, mean_likes=10, seed=4))
    assert np.all(res.item_topics == 0)
    assert res.matrix.nnz > 0


def test_overflow_diagnostics_counted():
    # tiny topic inventories force infeasible multinomial splits
    cfg = SynthConfig(n_users=40, n_items=12, k_topics=6, mean_likes=10, seed=5)
    res = generate(cfg)
    assert res.diagnostics["resamples"] > 0
    # every row still fits inside per-topic inventory
    for i in range(res.matrix.n_users):
        row = res.matrix.row(i)
        assert len(set(row.tolist())) == len(row)


def test_write_dataset_roundtrip(tmp_path, small_synth):
    res = small_synth
    paths = write_dataset(tmp_path, res)
    m2 = load_triplets(tmp_path / "footprints.csv")
    assert m2.user_ids == tuple(
        uid for uid in res.matrix.user_ids if len(res.matrix.row(res.matrix.user_index[uid]))
    )
    for uid in m2.user_ids:
        orig = res.matrix.row(res.matrix.user_index[uid])
        back = m2.row(m2.user_index[uid])
        # dense indices are assigned in first-seen order on load, so
        # compare the external id sets
        assert sorted(res.matrix.item_ids[j] for j in orig) == sorted(
            m2.item_ids[j] for j in back
        )
    labels = load_labels(tmp_path / "labels.csv", m2)
    for task in res.labels.task_names:
        orig_vals = res.labels.values[task]
        back_vals = labels.values[task]
        for uid in m2.user_ids:
            o = orig_vals[res.matrix.user_index[uid]]
            b = back_vals[m2.user_index[uid]]
            assert b == pytest.approx(o, abs=5e-7)
    gt = json.loads((tmp_path / "ground_truth.json").read_text())
    assert gt["config"]["n_users"] == res.config.n_users
    cats = (tmp_path / "domain_categories.csv").read_text().splitlines()
    assert cats[0] == "item_id,category"
    # roughly 98% of items are mapped
    assert 0.9 <= (len(cats) - 1) / res.matrix.n_items <= 1.0
    assert set(paths) >= {"footprints", "labels", "domain_categories", "ground_truth"}


# ---------------------------------------------------------------------------
# the rng.choice replay and the joined writer against their oracles


def _outcome(cfg):
    """Everything generate returns; it warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = generate(cfg)
    m = res.matrix
    return (
        m.indptr.tolist(),
        m.indices.tolist(),
        {t: v.tobytes() for t, v in res.labels.values.items()},
        res.affinities.tobytes(),
        res.diagnostics,
    )


def _oracle_outcome(cfg):
    with mock.patch.object(synth, "_sample_rows", oracles.sample_rows):
        return _outcome(cfg)


@st.composite
def synth_configs(draw):
    k = draw(st.integers(1, 5))
    n_items = draw(st.integers(k, 40))
    # every exponent SynthConfig admits, its edges included
    size = -(-n_items // k)
    lo, hi = (synth._drawable_edge(size, e) for e in (-1100.0, 1100.0))
    return SynthConfig(
        n_users=draw(st.integers(2, 30)),
        n_items=n_items,
        k_topics=k,
        dirichlet_alpha=draw(st.sampled_from([0.05, 0.3, 1.0, 5.0])),
        popularity_exponent=draw(
            st.floats(lo, hi) | st.sampled_from([0.0, 1.1, lo, hi])
        ),
        mean_likes=draw(st.integers(0, n_items)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# the largest topic block has 50 items: its exponents run from -181.4 to
# 190.4 (to 1 decimal)
_BLOCKS_OF_50 = SynthConfig(n_users=50, n_items=200, k_topics=4, mean_likes=30)


# a wrong replay can loop forever on extreme weights: stop at the first
# mismatch rather than search on for others
@settings(max_examples=300, deadline=None, report_multiple_bugs=False)
@given(cfg=synth_configs())
# tiny inventories: the resample and overflow-shift paths
@example(SynthConfig(n_users=40, n_items=12, k_topics=6, mean_likes=10, seed=5))
# the last Zipf weights are subnormal
@example(dataclasses.replace(_BLOCKS_OF_50, popularity_exponent=190.4))
# their sum is within a factor 2 of overflow
@example(dataclasses.replace(_BLOCKS_OF_50, popularity_exponent=-181.4))
@example(SynthConfig(n_users=5, n_items=5000, k_topics=1, popularity_exponent=-82.8))
def test_generate_matches_choice_oracle(cfg):
    assert _outcome(cfg) == _oracle_outcome(cfg)


def test_generate_matches_choice_oracle_default_size():
    cfg = SynthConfig(seed=0)
    assert _outcome(cfg) == _oracle_outcome(cfg)


def _unchecked_zipf(size, exponent):
    """A block's Zipf weights as generate computed them before the bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        wts = (np.arange(size, dtype=np.float64) + 1.0) ** (-exponent)
        return wts / wts.sum()


_BLOCKS_OF_50_MESSAGE = (
    "popularity_exponent must be in [-181.4, 190.4] with a largest topic "
    "block of 50 items, where its Zipf weights neither overflow nor "
    "underflow to 0"
)


@pytest.mark.parametrize(
    "exponent, choice_message",
    [
        (400, "Fewer non-zero entries in p than size"),
        (-400, "Probabilities contain NaN"),
        (191, "Fewer non-zero entries in p than size"),
        (-182, "Probabilities contain NaN"),
    ],
)
def test_degenerate_weights_raise_like_choice(
    exponent, choice_message, tmp_path, capsys
):
    # weights from which choice cannot draw a whole block (it raises
    # choice_message) fail in SynthConfig instead, before any draw, naming
    # the field and its range
    p = _unchecked_zipf(50, exponent)
    with pytest.raises(ValueError, match=choice_message):
        np.random.default_rng(0).choice(50, size=50, replace=False, p=p)
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(_BLOCKS_OF_50, popularity_exponent=exponent)
    assert str(exc.value) == _BLOCKS_OF_50_MESSAGE
    rc = cli.main([
        "synth", "--users", "50", "--items", "200", "--topics", "4",
        "--mean-likes", "30", f"--popularity-exponent={exponent}",
        "--out", str(tmp_path / "data"),
    ])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": _BLOCKS_OF_50_MESSAGE}
    # with nothing to draw the weights are never used
    cfg = dataclasses.replace(_BLOCKS_OF_50, popularity_exponent=exponent, mean_likes=0)
    assert _outcome(cfg)[4] == {"resamples": 0, "overflow_shifts": 0}


def _near_edges(n_items, k):
    """Any exponent, or one within 0.2 of where SynthConfig's range ends."""
    size = -(-n_items // k)
    edges = [synth._drawable_edge(size, e) for e in (-1100.0, 1100.0)]
    near = st.sampled_from(edges).flatmap(lambda e: st.floats(e - 0.2, e + 0.2))
    return st.floats(-1100.0, 1100.0) | near


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 8), n_items=st.integers(1, 3000), data=st.data())
def test_exponent_bound_admits_what_choice_can_draw(k, n_items, data):
    # SynthConfig admits an exponent exactly when numpy's own choice can
    # draw every item of every topic block from its unchecked weights (a
    # user can draw a whole block)
    k = min(k, n_items)
    exponent = data.draw(_near_edges(n_items, k))
    _check_exponent_bound(k, n_items, exponent)


def test_exponent_bound_where_only_the_sum_overflows():
    # 5000 ** 83 is finite and the sum of the weights is not: every
    # normalized weight is 0
    _check_exponent_bound(1, 5000, -83.0)
    _check_exponent_bound(1, 5000, -82.8)


def _check_exponent_bound(k, n_items, exponent):
    rng = np.random.default_rng(0)
    drawable = True
    for block in synth._topic_blocks(n_items, k):
        p = _unchecked_zipf(len(block), exponent)
        try:
            rng.choice(block, size=len(block), replace=False, p=p)
        except ValueError:
            drawable = False
    cfg = dict(n_users=2, n_items=n_items, k_topics=k, popularity_exponent=exponent)
    try:
        SynthConfig(**cfg, mean_likes=1)
    except ValueError as exc:
        assert not drawable
        assert str(exc).startswith("popularity_exponent must be in [")
    else:
        assert drawable
    # nothing is drawn, and the weights are never read
    _outcome(SynthConfig(**cfg, mean_likes=0))


def _written(outdir, writer, result):
    writer(outdir, result)
    return [(outdir / name).read_bytes() for name in ("footprints.csv", "labels.csv")]


def test_write_dataset_matches_line_writer(tmp_path, small_synth):
    res = small_synth
    # missing labels are skipped; a task with every label missing is kept
    rng = np.random.default_rng(0)
    values = {}
    for task, vals in res.labels.values.items():
        vals = vals.copy()
        vals[rng.random(vals.size) < 0.3] = np.nan
        values[task] = vals
    values["none_observed"] = np.full(res.matrix.n_users, np.nan)
    holed = dataclasses.replace(res, labels=LabelTable(values, res.matrix.n_users))
    for i, result in enumerate((res, holed)):
        got = _written(tmp_path / f"new{i}", write_dataset, result)
        oracle = oracles.write_footprints_and_labels
        assert got == _written(tmp_path / f"old{i}", oracle, result)
