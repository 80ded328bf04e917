import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from footcloak import simulate
from footcloak._util import (
    DEFAULT_SCHEDULE,
    STREAM_PROTECTION_DROP,
    STREAM_PROTECTION_SPLIT,
    derive_seed,
    write_results,
)
from footcloak.cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    cloak_entries,
    strategy_threshold,
)
from footcloak.data import (
    LabelTable,
    _select_entries,
    filter_min_activity,
    make_drop_plan,
    task_split,
)
from footcloak.explain import explain_population
from footcloak.metafeatures import SOURCE_DOMAIN, MetafeatureModel
from footcloak.models import (
    LinearModel,
    predict_scores,
    quantile_threshold,
)
from footcloak.simulate import (
    ExperimentConfig,
    build_protection_context,
    curve_csv,
    protection_flags,
    readd_margins,
    run_protection_experiment,
    run_strategy,
    tradeoff_report,
)

from conftest import random_footprints
from oracles import apply_cloak, cloak_cost, predict_score, readd

_CONFIG = ExperimentConfig(
    seed=4,
    quantile=0.80,
    tolerance_quantile=0.75,
    schedule=(0.0, 0.5, 1.0),
    k_metafeatures=12,
    nmf_max_iters=150,
)


@pytest.fixture(scope="module")
def ctx(small_synth):
    res = small_synth
    return build_protection_context(
        "task_a", res.matrix, res.labels, _CONFIG
    )


def test_population_positive_under_both_thresholds(ctx):
    assert len(ctx.population) >= 5
    scores_reduced = predict_scores(ctx.model, ctx.test_reduced)
    full = ctx.test_full
    for i in ctx.population:
        assert scores_reduced[i] >= ctx.threshold0
        assert predict_score(ctx.model, full.row(int(i))) >= ctx.threshold_full


def test_protection_starts_at_one(ctx):
    for strategy in (STRATEGY_FG, STRATEGY_MF, STRATEGY_FG_TOL):
        curve = run_strategy(ctx, strategy)
        assert curve.fractions[0] == 0.0
        assert curve.protection[0] == 1.0
        assert curve.diagnostics["unprotected_at_creation"] == 0
        assert curve.population_size == len(curve.population_user_ids)
        assert curve.population_size + curve.diagnostics["not_found"] == len(
            ctx.population
        )


def test_thresholds_follow_schedule(ctx):
    curve = run_strategy(ctx, STRATEGY_FG)
    assert len(curve.thresholds) == len(curve.fractions)
    assert curve.thresholds[0] == ctx.threshold0
    assert curve.thresholds[-1] == pytest.approx(ctx.threshold_full)


def test_fg_protection_decays(ctx):
    curve = run_strategy(ctx, STRATEGY_FG)
    assert curve.protection[-1] <= curve.protection[0]
    assert 0.0 < curve.diagnostics["avg_cloak_cost_full"] < 0.5


def test_mf_cost_at_least_fg(ctx):
    fg, mf = (run_strategy(ctx, s) for s in (STRATEGY_FG, STRATEGY_MF))
    cost = "avg_cloak_cost_full"
    assert mf.diagnostics[cost] >= fg.diagnostics[cost]


def test_group_curves_partition_population(ctx):
    curve = run_strategy(ctx, STRATEGY_FG)
    tp = curve.diagnostics["tp_count"]
    fp = curve.diagnostics["fp_count"]
    assert tp + fp == curve.population_size
    for name, vals in curve.group_curves.items():
        assert name in ("tp", "fp")
        assert len(vals) == len(curve.fractions)


def test_strategy_errors(ctx):
    with pytest.raises(ValueError, match="unknown strategy"):
        run_strategy(ctx, "BOGUS")
    with pytest.raises(ValueError, match="domain"):
        run_strategy(ctx, STRATEGY_DOMAIN_MF)


def test_unknown_strategy_fails_before_any_work(ctx, small_synth, monkeypatch):
    # the library entry points check every strategy name before they build
    # a context, so no classifier is fit
    def no_fit(*_):
        raise AssertionError("fit before the strategy check")

    monkeypatch.setattr(simulate, "fit_classifier", no_fit)
    res = small_synth
    with pytest.raises(ValueError, match="^unknown strategy 'NOPE'$"):
        run_protection_experiment("task_a", "NOPE", res.matrix, res.labels, _CONFIG)
    with pytest.raises(ValueError, match="^unknown strategy 'NOPE'$"):
        tradeoff_report(
            ["task_a"], [STRATEGY_FG, "NOPE"], res.matrix, res.labels, _CONFIG
        )
    with pytest.raises(ValueError, match="^unknown strategy 'NOPE'$"):
        run_strategy(ctx, "NOPE")


def test_nmf_fit_once_at_the_first_mf_run(small_synth, monkeypatch):
    # only MF reads the NMF metafeatures: a context fits them at its first
    # MF run, and never for the other strategies
    fits = []
    fit = simulate.task_nmf_metafeatures
    monkeypatch.setattr(
        simulate, "task_nmf_metafeatures", lambda *a: fits.append(a) or fit(*a)
    )
    contexts = (_random_context(s, 0.5, (0.0, 1.0))[0] for s in range(20))
    ctx = next(c for c in contexts if c is not None)
    for strategy in (STRATEGY_FG, STRATEGY_FG_TOL, STRATEGY_DOMAIN_MF):
        run_strategy(ctx, strategy)
    assert fits == []
    for _ in range(3):
        run_strategy(ctx, STRATEGY_MF)
    assert len(fits) == 1
    res = small_synth
    tradeoff_report(["task_a"], [STRATEGY_FG], res.matrix, res.labels, _CONFIG)
    assert len(fits) == 1


def test_run_strategy_cloaks_the_full_rows_once(ctx, monkeypatch):
    # one cloak of the full test rows serves both protection and cost
    calls = []
    cloak = simulate.cloak_entries
    monkeypatch.setattr(
        simulate, "cloak_entries", lambda m, *a: calls.append(m) or cloak(m, *a)
    )
    for strategy in (STRATEGY_FG, STRATEGY_MF, STRATEGY_FG_TOL):
        calls.clear()
        run_strategy(ctx, strategy)
        assert len(calls) == 1 and calls[0] is ctx.test_full


def test_readd_margins_and_protection_flags_reject_wrong_lengths(ctx):
    # ranks, held and keep each hold one value per stored entry of their rows
    full, ranks = ctx.test_full, ctx.test_ranks
    held = np.ones(full.nnz, dtype=bool)
    wrong = (
        (ranks[:-1], held),
        (np.append(ranks, -1), held),
        (ranks, held[:-1]),
        (ranks, np.append(held, True)),
    )
    for r, h in wrong:
        with pytest.raises(ValueError, match="one value per stored entry of rows"):
            readd_margins(ctx.model, full, r, h, ctx.config.schedule)
    for keep in (held[:-1], np.append(held, True)):
        with pytest.raises(ValueError, match="one flag per stored entry"):
            protection_flags(ctx, keep, ctx.population)


def test_unknown_task_errors(small_synth):
    res = small_synth
    with pytest.raises(ValueError, match="unknown task"):
        run_protection_experiment(
            "task_zzz", STRATEGY_FG, res.matrix, res.labels, _CONFIG
        )


def test_empty_population_errors(small_synth):
    # at this quantile no test user stays positive on both footprints
    res = small_synth
    steep = dataclasses.replace(_CONFIG, quantile=0.999, tolerance_quantile=0.9)
    with pytest.raises(ValueError, match="lower quantile"):
        build_protection_context("task_a", res.matrix, res.labels, steep)


def test_continuous_task_rejected(small_synth):
    res = small_synth
    with pytest.raises(ValueError, match="not binary"):
        run_protection_experiment(
            "trait_a", STRATEGY_FG, res.matrix, res.labels, _CONFIG
        )


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(quantile=1.5)
    # only FG_TOL needs tolerance_quantile <= quantile; it is checked there
    ExperimentConfig(tolerance_quantile=0.97, quantile=0.95)
    with pytest.raises(ValueError):
        ExperimentConfig(schedule=())
    with pytest.raises(ValueError):
        ExperimentConfig(schedule=(0.0, 1.5))
    assert ExperimentConfig().schedule == DEFAULT_SCHEDULE
    # NaN fails every numeric field's check, and the message names the field
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in ("seed", "schedule"):
            continue
        with pytest.raises(ValueError, match=f"^{field.name} must be "):
            ExperimentConfig(**{field.name: float("nan")})
    with pytest.raises(ValueError, match="^schedule fractions must be "):
        ExperimentConfig(schedule=(0.0, float("nan")))


def test_tolerance_quantile_checked_where_fg_tol_runs(ctx, small_synth):
    loose = dataclasses.replace(_CONFIG, tolerance_quantile=0.85)
    above = dataclasses.replace(ctx, config=loose)
    curve = run_strategy(above, STRATEGY_FG)
    assert curve.protection[0] == 1.0
    with pytest.raises(ValueError, match="tolerance_quantile must not exceed"):
        run_strategy(above, STRATEGY_FG_TOL)
    res = small_synth
    with pytest.raises(ValueError, match="tolerance_quantile must not exceed"):
        tradeoff_report(
            ["task_a"], [STRATEGY_FG, STRATEGY_FG_TOL], res.matrix, res.labels, loose
        )


def test_tradeoff_report_rows(small_synth):
    res = small_synth
    rows = tradeoff_report(
        ["task_a"], [STRATEGY_FG, STRATEGY_MF], res.matrix, res.labels, _CONFIG
    )
    assert [(r.task, r.strategy) for r in rows] == [
        ("task_a", STRATEGY_FG),
        ("task_a", STRATEGY_MF),
    ]
    by_strategy = {r.strategy: r for r in rows}
    assert (
        by_strategy[STRATEGY_MF].avg_cloak_cost
        >= by_strategy[STRATEGY_FG].avg_cloak_cost
    )
    # shared context: both strategies target the same population
    assert rows[0].population_size == rows[1].population_size
    with pytest.raises(ValueError, match="1.0"):
        tradeoff_report(
            ["task_a"],
            [STRATEGY_FG],
            res.matrix,
            res.labels,
            dataclasses.replace(_CONFIG, schedule=(0.0, 0.5)),
        )


def test_curve_serialization(ctx, tmp_path):
    curve = run_strategy(ctx, STRATEGY_FG)
    jpath = tmp_path / "curve.json"
    cpath = tmp_path / "curve.csv"
    obj = {**dataclasses.asdict(curve), "config_hash": "abc", "seed": 4}
    write_results(tmp_path, {"curve.json": obj, "curve.csv": curve_csv(curve)})
    obj = json.loads(jpath.read_text())
    assert obj["task"] == "task_a" and obj["strategy"] == STRATEGY_FG
    assert obj["config_hash"] == "abc"
    assert obj["fractions"] == [0.0, 0.5, 1.0]
    assert len(obj["protection"]) == 3 and len(obj["thresholds"]) == 3
    assert obj["population_size"] == curve.population_size
    assert "wall" not in jpath.read_text()

    lines = cpath.read_text().splitlines()
    assert lines[0] == "fraction,protection,group"
    expect = (1 + len(curve.group_curves)) * len(curve.fractions)
    assert len(lines) == 1 + expect
    assert lines[1].endswith(",all")
    # numbers roundtrip exactly through repr
    f, v, g = lines[1].split(",")
    assert float(f) == curve.fractions[0] and float(v) == curve.protection[0]


# ---------------------------------------------------------------------------
# closed-form schedule against the re-add oracle

_ORACLE_STRATEGIES = (STRATEGY_FG, STRATEGY_MF, STRATEGY_FG_TOL, STRATEGY_DOMAIN_MF)
_fraction = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


def _random_context(seed, drop_fraction, schedule):
    """A protection context on random footprints whose classifier has
    random weights, and its training rows with their drop plan's ranks;
    (None, None) when its target population is empty. The footprints are
    already activity-filtered, so the model and the domain mapping span
    the context's item space."""
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, 48, 30, density=rng.uniform(0.05, 0.5))
    m = filter_min_activity(m, 1, 1)
    labels = LabelTable({"t": rng.integers(0, 2, m.n_users).astype(float)}, m.n_users)

    def fit(mat, *_):
        model = LinearModel(rng.normal(size=mat.n_items), float(rng.normal()), 1.0)
        return 1.0, model, predict_scores(model, mat)

    assignment = rng.integers(0, 4, m.n_items)
    domain = MetafeatureModel(
        4, assignment, np.ones(m.n_items), SOURCE_DOMAIN, reserved=3
    )
    config = ExperimentConfig(
        seed=seed,
        quantile=0.6,
        tolerance_quantile=0.5,
        drop_fraction=drop_fraction,
        schedule=schedule,
        k_metafeatures=3,
        min_user=1,
        min_item=1,
        nmf_max_iters=20,
    )
    with mock.patch.object(simulate, "fit_classifier", fit):
        try:
            ctx = build_protection_context("t", m, labels, config, domain=domain)
        except ValueError:  # empty target population
            return None, None
    return ctx, _train_plan(ctx, m, labels)


def _train_plan(ctx, m, labels):
    """The training rows and their drop plan's ranks that built ctx, drawn
    again from its config's seed: the context keeps only the test rows'
    ranks."""
    config = ctx.config
    fm, train, _ = task_split(
        m, labels, ctx.task, config.min_user, config.min_item, config.train_frac,
        derive_seed(config.seed, STREAM_PROTECTION_SPLIT),
    )
    ranks = make_drop_plan(
        fm, config.drop_fraction, derive_seed(config.seed, STREAM_PROTECTION_DROP)
    )[_select_entries(fm.indptr, train.indices)[1]]
    reduced = train.matrix.keep_entries(ranks < 0)
    assert np.array_equal(reduced.indptr, ctx.train_reduced.indptr)
    assert np.array_equal(reduced.indices, ctx.train_reduced.indices)
    return train.matrix, ranks


@settings(deadline=None)
@given(
    seed=st.integers(0, 10_000),
    drop_fraction=_fraction,
    fractions=st.lists(_fraction, min_size=1, max_size=5),
    with_zero=st.booleans(),
)
def test_closed_form_matches_readd_oracle(seed, drop_fraction, fractions, with_zero):
    schedule = tuple(([0.0] if with_zero else []) + fractions)
    ctx, train = _random_context(seed, drop_fraction, schedule)
    assume(ctx is not None)
    q = ctx.config.quantile
    oracle_th = []
    for f in schedule:
        scores = predict_scores(ctx.model, readd(*train, f))
        oracle_th.append(quantile_threshold(scores, q))
    for strategy in _ORACLE_STRATEGIES:
        mfm = simulate._strategy_mfm(ctx, strategy)
        threshold = strategy_threshold(
            ctx.config, strategy, ctx.threshold0, ctx.train_scores_reduced
        )
        explained, _ = explain_population(
            ctx.model, ctx.test_reduced, ctx.population, threshold
        )
        users = np.array(sorted(explained), dtype=np.int64)
        keep = cloak_entries(ctx.test_full, explained, mfm)
        protected = protection_flags(ctx, keep, users)
        np.testing.assert_allclose(ctx.thresholds, oracle_th, rtol=1e-12, atol=0)
        assert protected.shape == (len(schedule), len(explained))
        oracle = np.zeros(protected.shape, dtype=bool)
        tie = np.zeros(protected.shape, dtype=bool)
        for k, f in enumerate(schedule):
            test_f = readd(ctx.test_full, ctx.test_ranks, f)
            for u, i in enumerate(users):
                kept = apply_cloak(test_f.row(i), explained[i].features, mfm)
                score = predict_score(ctx.model, kept)
                oracle[k, u] = score < oracle_th[k]
                tie[k, u] = abs(score - oracle_th[k]) < 1e-12
        np.testing.assert_array_equal(protected[~tie], oracle[~tie], err_msg=strategy)
        curve = run_strategy(ctx, strategy)
        assert curve.thresholds == ctx.thresholds
        costs = [
            cloak_cost(ctx.test_full.row(i), explained[i].features, mfm) for i in users
        ]
        expect_cost = float(np.mean(costs)) if costs else None
        assert curve.diagnostics["avg_cloak_cost_full"] == expect_cost
        if not tie.any():
            expect = [float(np.mean(p)) if p.size else None for p in oracle]
            assert list(curve.protection) == expect


@settings(deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(0, 10),
    drop_fraction=_fraction,
    held_rate=st.floats(0.0, 1.0),
    fractions=st.lists(_fraction, min_size=1, max_size=5),
)
def test_readd_margins_matches_rebuild_oracle(
    seed, n_users, drop_fraction, held_rate, fractions
):
    # any held mask, not only a cloak's: an unheld kept entry is out of
    # every fraction's row, and an unheld dropped entry re-adds nothing.
    # Besides a random mask, every kept entry unheld and every dropped
    # entry unheld.
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, n_users, 15, density=rng.uniform(0.0, 0.6))
    model = LinearModel(rng.normal(size=m.n_items), float(rng.normal()), 1.0)
    ranks = make_drop_plan(m, drop_fraction, seed)
    for held in (rng.random(m.nnz) < held_rate, ranks >= 0, ranks < 0):
        got = readd_margins(model, m, ranks, held, fractions)
        assert len(got) == len(fractions)
        for f, margins in zip(fractions, got):
            rebuilt = readd(m, ranks, f)
            assert margins.shape == (m.n_users,)
            for i in range(m.n_users):
                held_items = m.row(i)[held[m.indptr[i] : m.indptr[i + 1]]]
                items = np.intersect1d(rebuilt.row(i), held_items)
                want = float(model.weights[items].sum()) + model.intercept
                assert margins[i] == pytest.approx(want, rel=1e-12, abs=1e-12)
