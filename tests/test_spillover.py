import csv
import dataclasses
import json
import logging

import numpy as np
import pytest

from footcloak import ExperimentConfig, explain, models, spillover
from footcloak._util import write_results
from footcloak.data import LabelTable
from footcloak.spillover import (
    POPULATION_ALL_TEST,
    POPULATION_CLOAKED,
    run_spillover_experiment,
    spillover_csv,
)

_CONFIG = ExperimentConfig(
    seed=6,
    quantile=0.90,
    k_metafeatures=12,
    nmf_max_iters=150,
)

_TRAITS = ["trait_a", "trait_b"]


@pytest.fixture(scope="module")
def report(small_synth):
    res = small_synth
    return run_spillover_experiment(
        "task_a", _TRAITS, res.matrix, res.labels, _CONFIG
    )


def test_report_shape(report):
    assert report.sensitive_task == "task_a"
    assert report.population_mode == POPULATION_CLOAKED
    assert [r.trait for r in report.rows] == _TRAITS
    for r in report.rows:
        assert r.n == report.n_population
        for v in (r.pearson_none, r.pearson_fg, r.pearson_mf):
            assert -1.0 <= v <= 1.0


def test_small_population_flagged(report, small_synth, caplog):
    # the 350-user fixture yields a small cloaked population by design
    if report.n_population < 30:
        assert report.small_population
    res = small_synth
    with caplog.at_level(logging.WARNING, logger="footcloak.spillover"):
        rep = run_spillover_experiment(
            "task_a", ["trait_a"], res.matrix, res.labels, _CONFIG
        )
    if rep.small_population:
        assert any("population" in r.message for r in caplog.records)


def test_mf_disrupts_more_than_fg(report):
    # MF removes a superset of FG per user, so on average it moves the
    # secondary predictions at least as much
    drop_fg = np.mean([abs(r.pearson_none - r.pearson_fg) for r in report.rows])
    drop_mf = np.mean([abs(r.pearson_none - r.pearson_mf) for r in report.rows])
    assert drop_mf >= drop_fg - 0.05


def test_each_positive_user_explained_once(small_synth, monkeypatch):
    # FG and MF cloak the same explanations: one linear_explain call per
    # positive test user
    calls = []
    explain_row = explain.linear_explain
    monkeypatch.setattr(
        explain, "linear_explain", lambda *a: calls.append(a) or explain_row(*a)
    )
    res = small_synth
    rep = run_spillover_experiment(
        "task_a", ["trait_a"], res.matrix, res.labels, _CONFIG
    )
    assert len(calls) == rep.diagnostics["n_positive"] > 0


def test_all_test_population(small_synth):
    res = small_synth
    rep = run_spillover_experiment(
        "task_a",
        ["trait_a"],
        res.matrix,
        res.labels,
        _CONFIG,
        population=POPULATION_ALL_TEST,
    )
    assert rep.population_mode == POPULATION_ALL_TEST
    assert rep.n_population == rep.diagnostics["n_test"]
    assert rep.n_population > rep.diagnostics["n_cloaked"]
    # uncloaked users dominate, so the three columns stay close together
    row = rep.rows[0]
    assert abs(row.pearson_none - row.pearson_fg) <= abs(row.pearson_none) + 1e-9


def test_deterministic(small_synth, report):
    res = small_synth
    rep2 = run_spillover_experiment(
        "task_a", _TRAITS, res.matrix, res.labels, _CONFIG
    )
    for a, b in zip(report.rows, rep2.rows):
        assert a == b


def test_unknown_population_mode(small_synth):
    res = small_synth
    with pytest.raises(ValueError, match="population mode"):
        run_spillover_experiment(
            "task_a", ["trait_a"], res.matrix, res.labels, _CONFIG, population="bogus"
        )


def test_unknown_task_and_trait(small_synth):
    res = small_synth
    with pytest.raises(ValueError, match="unknown task"):
        run_spillover_experiment("nope", ["trait_a"], res.matrix, res.labels, _CONFIG)
    with pytest.raises(ValueError, match="unknown trait"):
        run_spillover_experiment("task_a", ["nope"], res.matrix, res.labels, _CONFIG)


def test_unknown_trait_fails_before_fitting(small_synth, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("classifier fitted before the trait check")

    monkeypatch.setattr(spillover, "fit_task_classifier", no_fit)
    res = small_synth
    with pytest.raises(ValueError, match="unknown trait 'x'"):
        run_spillover_experiment(
            "task_a", ["trait_a", "x"], res.matrix, res.labels, _CONFIG
        )


def _with_gap_trait(labels):
    """Labels plus trait_gap: trait_a with every 5th user unlabeled."""
    values = dict(labels.values)
    values["trait_gap"] = values["trait_a"].copy()
    values["trait_gap"][::5] = np.nan
    return LabelTable(values, labels.n_users)


@pytest.mark.parametrize(
    "traits, fits",
    [
        (["trait_a", "trait_b", "trait_c", "trait_d", "trait_e"], 1),
        (["trait_a", "trait_gap", "trait_b"], 2),
    ],
)
def test_ridge_basis_shared_by_training_users(small_synth, monkeypatch, traits, fits):
    # one fit_ridge call (one set of folds, one CG run per fold) per
    # distinct set of labeled training users; the rows equal a separate
    # fit per trait
    res = small_synth
    labels = _with_gap_trait(res.labels)
    cfg = dataclasses.replace(_CONFIG, nmf_max_iters=20)
    calls = []

    def counted(m, Y, *args, **kwargs):
        calls.append(Y.shape[1])
        return models.fit_ridge(m, Y, *args, **kwargs)

    monkeypatch.setattr(spillover, "fit_ridge", counted)
    shared = run_spillover_experiment("task_a", traits, res.matrix, labels, cfg)
    assert len(calls) == fits and sum(calls) == len(traits)

    def per_trait(m, Y, *args, **kwargs):
        calls.append(Y.shape[1])
        return [models.fit_ridge(m, y[:, None], *args, **kwargs)[0] for y in Y.T]

    monkeypatch.setattr(spillover, "fit_ridge", per_trait)
    calls.clear()
    per_trait_report = run_spillover_experiment("task_a", traits, res.matrix, labels, cfg)
    assert len(calls) == fits
    assert shared.rows == per_trait_report.rows


def test_population_too_small_errors(small_synth):
    # an absurd quantile leaves at most 1-2 positive test users
    res = small_synth
    cfg = dataclasses.replace(_CONFIG, quantile=0.999)
    with pytest.raises(ValueError, match="population"):
        run_spillover_experiment(
            "task_a", ["trait_a"], res.matrix, res.labels, cfg
        )


def test_report_serialization(report, tmp_path):
    jpath = tmp_path / "spill.json"
    cpath = tmp_path / "spill.csv"
    obj = {**dataclasses.asdict(report), "config_hash": "x", "seed": 6}
    write_results(tmp_path, {"spill.json": obj, "spill.csv": spillover_csv(report)})
    obj = json.loads(jpath.read_text())
    assert obj["config_hash"] == "x"
    assert len(obj["rows"]) == 2
    assert set(obj["rows"][0]) == {
        "trait",
        "n",
        "pearson_none",
        "pearson_fg",
        "pearson_mf",
    }
    assert obj["rows"] == [dataclasses.asdict(r) for r in report.rows]

    lines = cpath.read_text().splitlines()
    assert lines[0] == "trait,strategy,pearson_r,n"
    assert len(lines) == 1 + 3 * len(report.rows)
    trait, strategy, val, n = lines[1].split(",")
    assert trait == "trait_a" and strategy == "none"
    assert float(val) == report.rows[0].pearson_none
    assert int(n) == report.rows[0].n

    # a trait name from the labels file may hold the CSV delimiter and quote
    odd = dataclasses.replace(report.rows[0], trait='a,"b"')
    odd_csv = spillover_csv(dataclasses.replace(report, rows=(odd,)))
    write_results(tmp_path, {"spill.csv": odd_csv})
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ['a,"b"', "none", repr(odd.pearson_none), str(odd.n)]
