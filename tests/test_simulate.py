import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from footcloak import simulate
from footcloak._util import DEFAULT_SCHEDULE, write_results
from footcloak.cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    cloak_population,
)
from footcloak.data import LabelTable
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
        "task_a", res.matrix, res.labels, _CONFIG, need_nmf=True
    )


def test_population_positive_under_both_thresholds(ctx):
    assert len(ctx.population) >= 5
    scores_reduced = predict_scores(ctx.model, ctx.test_reduced)
    full = ctx.test_full
    for i in ctx.population:
        assert scores_reduced[i] >= ctx.threshold0.value
        assert predict_score(ctx.model, full.row(int(i))) >= ctx.threshold_full.value


def test_protection_starts_at_one(ctx):
    for strategy in (STRATEGY_FG, STRATEGY_MF, STRATEGY_FG_TOL):
        curve, _ = run_strategy(ctx, strategy)
        assert curve.fractions[0] == 0.0
        assert curve.protection[0] == 1.0
        assert curve.diagnostics["unprotected_at_creation"] == 0
        assert curve.population_size == len(curve.population_user_ids)
        assert curve.population_size + curve.diagnostics["not_found"] == len(
            ctx.population
        )


def test_thresholds_follow_schedule(ctx):
    curve, _ = run_strategy(ctx, STRATEGY_FG)
    assert len(curve.thresholds) == len(curve.fractions)
    assert curve.thresholds[0] == ctx.threshold0.value
    assert curve.thresholds[-1] == pytest.approx(ctx.threshold_full.value)


def test_fg_protection_decays(ctx):
    curve, cost = run_strategy(ctx, STRATEGY_FG)
    assert curve.protection[-1] <= curve.protection[0]
    assert 0.0 < cost < 0.5


def test_mf_cost_at_least_fg(ctx):
    _, cost_fg = run_strategy(ctx, STRATEGY_FG)
    _, cost_mf = run_strategy(ctx, STRATEGY_MF)
    assert cost_mf >= cost_fg


def test_group_curves_partition_population(ctx):
    curve, _ = run_strategy(ctx, STRATEGY_FG)
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
    bare = dataclasses.replace(ctx, nmf=None)
    with pytest.raises(ValueError, match="NMF"):
        run_strategy(bare, STRATEGY_MF)


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
    curve, _ = run_strategy(above, STRATEGY_FG)
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
    curve, _ = run_strategy(ctx, STRATEGY_FG)
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


def _random_context(seed, drop_fraction, schedule, width_delta):
    """A protection context on random footprints whose classifier has
    random weights; the model may be narrower or wider than the item space,
    and the domain mapping narrower, so out-of-vocabulary guards are hit."""
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, 48, 30, density=rng.uniform(0.05, 0.5))
    labels = LabelTable({"t": rng.integers(0, 2, m.n_users).astype(float)}, m.n_users)

    def fit(mat, *_):
        w = rng.normal(size=max(1, mat.n_items + width_delta))
        model = LinearModel(w, float(rng.normal()), 1.0)
        return 1.0, model, predict_scores(model, mat)

    n_domain = m.n_items - 2
    assignment = rng.integers(0, 4, n_domain)
    H = np.zeros((4, n_domain))
    H[assignment, np.arange(n_domain)] = 1.0
    domain = MetafeatureModel(4, H, assignment, SOURCE_DOMAIN, reserved=3)
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
            return build_protection_context("t", m, labels, config, domain=domain)
        except ValueError:  # empty target population
            return None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    drop_fraction=_fraction,
    fractions=st.lists(_fraction, min_size=1, max_size=5),
    with_zero=st.booleans(),
    width_delta=st.integers(-3, 2),
)
def test_closed_form_matches_readd_oracle(
    seed, drop_fraction, fractions, with_zero, width_delta
):
    schedule = tuple(([0.0] if with_zero else []) + fractions)
    ctx = _random_context(seed, drop_fraction, schedule, width_delta)
    assume(ctx is not None)
    q = ctx.config.quantile
    oracle_th = []
    for f in schedule:
        scores = predict_scores(ctx.model, readd(ctx.train_reduced, ctx.train_plan, f))
        oracle_th.append(quantile_threshold(scores, q).value)
    for strategy in _ORACLE_STRATEGIES:
        mfm = simulate._strategy_mfm(ctx, strategy)
        directives, _ = cloak_population(
            strategy,
            ctx.model,
            ctx.test_reduced,
            ctx.population,
            ctx.threshold0.value,
            mfm,
            ctx.train_scores_reduced,
            ctx.config.tolerance_quantile,
        )
        protected = protection_flags(ctx, directives, mfm)
        np.testing.assert_allclose(ctx.thresholds, oracle_th, rtol=1e-12, atol=0)
        assert protected.shape == (len(schedule), len(directives))
        oracle = np.zeros(protected.shape, dtype=bool)
        tie = np.zeros(protected.shape, dtype=bool)
        for k, f in enumerate(schedule):
            test_f = readd(ctx.test_reduced, ctx.test_plan, f)
            for u, i in enumerate(sorted(directives)):
                kept = apply_cloak(test_f.row(i), directives[i], mfm)
                score = predict_score(ctx.model, kept)
                oracle[k, u] = score < oracle_th[k]
                tie[k, u] = abs(score - oracle_th[k]) < 1e-12
        np.testing.assert_array_equal(protected[~tie], oracle[~tie], err_msg=strategy)
        curve, cost = run_strategy(ctx, strategy)
        assert curve.thresholds == ctx.thresholds
        costs = [
            cloak_cost(ctx.test_full.row(i), directives[i], mfm)
            for i in sorted(directives)
        ]
        assert cost == (float(np.mean(costs)) if costs else None)
        if not tie.any():
            expect = [float(np.mean(p)) if p.size else None for p in oracle]
            assert list(curve.protection) == expect
