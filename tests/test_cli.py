import argparse
import csv
import json

import numpy as np
import pytest

from footcloak import cli, cloak, simulate
from footcloak._util import ExperimentConfig, canonical_json
from footcloak.cli import main
from footcloak.data import load_labels, load_triplets
from footcloak.models import fit_task_classifier, predict_scores


def _run(*args):
    return main([str(a) for a in args])


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name} holds bare {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def data(tiny_dataset_dir):
    return {
        "footprints": tiny_dataset_dir / "footprints.csv",
        "labels": tiny_dataset_dir / "labels.csv",
        "domain": tiny_dataset_dir / "domain_categories.csv",
    }


def _train_args(data, out, *extra):
    return (
        "train",
        "--footprints",
        data["footprints"],
        "--labels",
        data["labels"],
        "--task",
        "task_a",
        "--out",
        out,
        *extra,
    )


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "d1"
    rc = _run(
        "synth", "--out", out, "--users", 40, "--items", 60, "--topics", 3,
        "--mean-likes", 12, "--seed", 7,
    )
    assert rc == 0
    for name in (
        "footprints.csv", "labels.csv", "domain_categories.csv",
        "ground_truth.json", "manifest.json",
    ):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["config"]["users"] == 40
    assert "jobs" not in manifest["config"]

    out2 = tmp_path / "d2"
    rc = _run(
        "synth", "--out", out2, "--users", 40, "--items", 60, "--topics", 3,
        "--mean-likes", 12, "--seed", 7,
    )
    assert rc == 0
    for name in ("footprints.csv", "labels.csv", "manifest.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--dirichlet-alpha", "nan", "dirichlet_alpha"),
        ("--mean-likes", -3, "mean_likes"),
        ("--users", 0, "n_users"),
        ("--users", 1, "n_users"),  # a one-user trait is constant
    ],
)
def test_synth_field_out_of_range_is_structured_error(
    tmp_path, capsys, flag, value, field
):
    out = tmp_path / "d"
    rc = _run("synth", "--out", out, "--users", 50, "--items", 200, flag, value)
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{field} must be ")
    assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# train


def test_train_outputs(data, tmp_path, capsys):
    out = tmp_path / "t1"
    assert _run(*_train_args(data, out)) == 0
    metrics = json.loads((out / "train_metrics.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert metrics["config_hash"] == manifest["config_hash"]
    assert metrics["task"] == "task_a"
    assert metrics["auc_test"] > 0.7
    model = json.loads((out / "model.json").read_text())
    assert model["kind"] == "binary-classifier"
    assert "train:" in capsys.readouterr().out


def test_train_rerun_byte_identical(data, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run(*_train_args(data, out1)) == 0
    assert _run(*_train_args(data, out2)) == 0
    for name in ("model.json", "train_metrics.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# cloak and explain


def test_cloak_then_explain_roundtrip(data, tmp_path, capsys):
    cdir = tmp_path / "cloak"
    rc = _run(
        "cloak", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--out", cdir,
    )
    assert rc == 0
    directives = json.loads((cdir / "directives.json").read_text())
    assert directives["directives"], "no positive test users were cloaked"
    assert "not_found" in directives
    first = directives["directives"][0]
    assert first["strategy"] == "FG"
    assert first["cloaked_features"]
    assert first["cloaked_metafeatures"] == []

    edir = tmp_path / "explain"
    rc = _run(
        "explain", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--user", first["user"], "--out", edir,
    )
    assert rc == 0
    expl = json.loads((edir / "explanation.json").read_text())
    assert expl["user"] == first["user"]
    assert expl["score_after"] < expl["threshold"] <= expl["score_before"]
    # same explanation set; the directive stores ids sorted by index,
    # the explanation in removal order
    assert sorted(expl["features"]) == sorted(first["cloaked_features"])
    out = capsys.readouterr().out
    assert "would drop" in out


def test_cloak_strategy_mf_writes_metafeature_report(data, tmp_path):
    out = tmp_path / "mf"
    rc = _run(
        "cloak", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--strategy", "mf",
        "--k", 8, "--nmf-max-iters", 80, "--out", out,
    )
    assert rc == 0
    directives = json.loads((out / "directives.json").read_text())["directives"]
    assert any(d["cloaked_metafeatures"] for d in directives)
    report = json.loads((out / "metafeatures.json").read_text())
    assert report["k"] == 8 and report["source"] == "nmf"


def test_cloak_domain_strategy(data, tmp_path, capsys):
    out = tmp_path / "dom"
    rc = _run(
        "cloak", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--strategy", "domain",
        "--domain-mapping", data["domain"], "--out", out,
    )
    assert rc == 0
    report = json.loads((out / "metafeatures.json").read_text())
    assert report["source"] == "domain"
    assert report["metafeatures"][str(report["reserved"])]["label"] == "uncategorized"

    # the mapping is mandatory for this strategy
    rc = _run(
        "cloak", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--strategy", "domain", "--out", tmp_path / "dom2",
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "domain-mapping" in err["message"]


@pytest.fixture(scope="module")
def low_test_user(data):
    """The task_a test user scoring lowest at quantile 0.9: (id, score,
    threshold)."""
    matrix = load_triplets(data["footprints"])
    labels = load_labels(data["labels"], matrix)
    clf = fit_task_classifier("task_a", matrix, labels, ExperimentConfig(quantile=0.9))
    scores = predict_scores(clf.model, clf.test.matrix)
    i = int(np.argmin(scores))
    return clf.test.matrix.user_ids[i], float(scores[i]), clf.threshold.value


@pytest.mark.parametrize(
    "command, extra", [("explain", ()), ("cloak", ("--strategy", "fg-tol"))]
)
def test_user_below_threshold_error_names_user_and_threshold(
    data, tmp_path, capsys, low_test_user, command, extra
):
    uid, score, threshold = low_test_user
    assert score < threshold
    rc = _run(
        command, "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--user", uid, *extra,
        "--out", tmp_path / command,
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"] == (
        f"user {uid!r} scores {score:.6f}, below the threshold {threshold:.6f}: "
        "not predicted positive"
    )


# ---------------------------------------------------------------------------
# simulate


def _simulate_args(data, out, *extra):
    return (
        "simulate", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--schedule", "0,0.5,1",
        "--out", out, *extra,
    )


def test_simulate_rerun_byte_identical(data, tmp_path):
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert _run(*_simulate_args(data, out1)) == 0
    assert _run(*_simulate_args(data, out2)) == 0
    for name in ("protection_curve.json", "protection_curve.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    curve = json.loads((out1 / "protection_curve.json").read_text())
    assert curve["fractions"] == [0.0, 0.5, 1.0]
    assert curve["protection"][0] == 1.0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert curve["config_hash"] == manifest["config_hash"]


def test_simulate_manifest_replay(data, tmp_path):
    out1 = tmp_path / "m1"
    assert _run(*_simulate_args(data, out1)) == 0
    out2 = tmp_path / "m2"
    rc = _run("simulate", "--config", out1 / "manifest.json", "--out", out2)
    assert rc == 0
    for name in ("protection_curve.json", "protection_curve.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# spillover and report


def test_spillover_command(data, tmp_path):
    out = tmp_path / "sp"
    rc = _run(
        "spillover", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--traits", "trait_a,trait_b",
        "--population", "all-test", "--quantile", 0.9,
        "--k", 8, "--nmf-max-iters", 60, "--out", out,
    )
    assert rc == 0
    rep = json.loads((out / "spillover.json").read_text())
    assert [r["trait"] for r in rep["rows"]] == ["trait_a", "trait_b"]
    assert rep["population_mode"] == "all-test"
    csv_lines = (out / "spillover.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 3 * 2


def test_spillover_undefined_pearson_is_null(tmp_path):
    # 9 cloaked users on this set, all with the same task_b label: its
    # Pearson is undefined, trait_a's is not
    data = tmp_path / "d"
    assert _run(
        "synth", "--users", 300, "--items", 400, "--topics", 4, "--mean-likes", 25,
        "--seed", 5, "--out", data,
    ) == 0
    out = tmp_path / "sp"
    rc = _run(
        "spillover", "--footprints", data / "footprints.csv",
        "--labels", data / "labels.csv", "--task", "task_a",
        "--traits", "task_b,trait_a", "--quantile", 0.9, "--out", out,
    )
    assert rc == 0
    rows = {r["trait"]: r for r in _strict_json(out / "spillover.json")["rows"]}
    keys = ("pearson_none", "pearson_fg", "pearson_mf")
    assert [rows["task_b"][k] for k in keys] == [None, None, None]
    assert all(isinstance(rows["trait_a"][k], float) for k in keys)
    csv_rows = _csv_rows(out / "spillover.csv")[1:]
    assert [r[2] for r in csv_rows if r[0] == "task_b"] == ["", "", ""]
    assert all(float(r[2]) == rows["trait_a"]["pearson_" + r[1]]
               for r in csv_rows if r[0] == "trait_a")


def test_report_command(data, tmp_path):
    out = tmp_path / "rep"
    rc = _run(
        "report", "--footprints", data["footprints"], "--labels", data["labels"],
        "--tasks", "task_a", "--strategies", "fg,fg-tol",
        "--quantile", 0.9, "--schedule", "0,1", "--out", out,
    )
    assert rc == 0
    rep = json.loads((out / "tradeoff.json").read_text())
    assert [(r["task"], r["strategy"]) for r in rep["rows"]] == [
        ("task_a", "FG"),
        ("task_a", "FG_TOL"),
    ]
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert lines[0].startswith("task,strategy,")
    assert len(lines) == 3


def test_tolerance_quantile_only_limits_fg_tol(data, tmp_path, capsys):
    # the default tolerance quantile (0.90) is above this quantile
    out = tmp_path / "sim"
    rc = _run(
        "simulate", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--strategy", "fg", "--quantile", 0.85,
        "--schedule", "0,1", "--out", out,
    )
    assert rc == 0
    assert _strict_json(out / "protection_curve.json")["quantile"] == 0.85
    rc = _run(
        "report", "--footprints", data["footprints"], "--labels", data["labels"],
        "--tasks", "task_a", "--strategies", "fg-tol", "--quantile", 0.85,
        "--schedule", "0,1", "--out", tmp_path / "rep",
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": "ValueError",
        "message": "tolerance_quantile must not exceed quantile",
    }


def test_fg_tol_cloak_checks_bound_before_fitting(
    data, tmp_path, capsys, monkeypatch
):
    def no_fit(*a, **k):
        raise AssertionError("the classifier was fitted")

    monkeypatch.setattr(cli, "fit_task_classifier", no_fit)
    out = tmp_path / "cl"
    rc = _run(
        "cloak", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--strategy", "fg-tol", "--quantile", 0.95,
        "--tolerance-quantile", 0.97, "--out", out,
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": "ValueError",
        "message": "tolerance_quantile must not exceed quantile",
    }


def test_no_directive_writes_null(data, tmp_path, monkeypatch, capsys):
    # no population user gets a directive: rates and costs are undefined
    monkeypatch.setattr(cloak, "linear_explain", lambda *a, **k: None)
    out = tmp_path / "sim"
    assert _run(*_simulate_args(data, out)) == 0
    curve = _strict_json(out / "protection_curve.json")
    assert curve["population_size"] == 0
    assert curve["protection"] == [None, None, None]
    assert curve["diagnostics"]["avg_cloak_cost_full"] is None
    assert _csv_rows(out / "protection_curve.csv")[1:] == [
        ["0.0", "", "all"], ["0.5", "", "all"], ["1.0", "", "all"]
    ]
    assert "undefined" in capsys.readouterr().out

    out = tmp_path / "rep"
    rc = _run(
        "report", "--footprints", data["footprints"], "--labels", data["labels"],
        "--tasks", "task_a", "--strategies", "fg",
        "--quantile", 0.9, "--schedule", "0,1", "--out", out,
    )
    assert rc == 0
    row = _strict_json(out / "tradeoff.json")["rows"][0]
    assert row["avg_cloak_cost"] is None and row["protection_at_full"] is None
    assert _csv_rows(out / "tradeoff.csv")[1] == ["task_a", "FG", "", "", "0"]


def test_tradeoff_csv_roundtrips_names(data, tmp_path, monkeypatch):
    name = 'a,"b"'
    rows = [simulate.TradeoffRow(name, "FG", 0.25, 0.5, 3)]
    monkeypatch.setattr(cli, "tradeoff_report", lambda *a, **k: rows)
    out = tmp_path / "rep"
    rc = _run(
        "report", "--footprints", data["footprints"], "--labels", data["labels"],
        "--tasks", "task_a", "--strategies", "fg", "--out", out,
    )
    assert rc == 0
    assert _csv_rows(out / "tradeoff.csv")[1] == [name, "FG", "0.25", "0.5", "3"]


# ---------------------------------------------------------------------------
# result files


def _config_keys(command):
    """The keys a command's flags set, less --out and --config."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in sub.choices[command]._actions} - {"help", "out", "config"}


_HEADERS = {
    "footprints.csv": "user_id,item_id",
    "labels.csv": "user_id,task_name,value",
    "domain_categories.csv": "item_id,category",
    "protection_curve.csv": "fraction,protection,group",
    "spillover.csv": "trait,strategy,pearson_r,n",
    "tradeoff.csv": "task,strategy,avg_cloak_cost,protection_at_full,population_size",
}

# case -> (its command line less the data options, its files besides the manifest)
_COMMAND_FILES = {
    "synth": (
        ("synth", "--users", 40, "--items", 60, "--topics", 3, "--mean-likes", 12),
        {"footprints.csv", "labels.csv", "domain_categories.csv", "ground_truth.json"},
    ),
    "train": (("train", "--task", "task_a"), {"model.json", "train_metrics.json"}),
    "explain": (("explain", "--task", "task_a"), {"explanation.json"}),
    "cloak-fg": (("cloak", "--task", "task_a"), {"directives.json"}),
    "cloak-mf": (
        ("cloak", "--task", "task_a", "--strategy", "mf", "--k", 8,
         "--nmf-max-iters", 60),
        {"directives.json", "metafeatures.json"},
    ),
    "simulate": (
        ("simulate", "--task", "task_a", "--schedule", "0,1"),
        {"protection_curve.json", "protection_curve.csv"},
    ),
    "spillover": (
        ("spillover", "--task", "task_a", "--traits", "trait_a", "--population",
         "all-test", "--k", 8, "--nmf-max-iters", 60),
        {"spillover.json", "spillover.csv"},
    ),
    "report": (
        ("report", "--tasks", "task_a", "--strategies", "fg", "--schedule", "0,1"),
        {"tradeoff.json", "tradeoff.csv"},
    ),
}


@pytest.mark.parametrize("case", sorted(_COMMAND_FILES))
def test_each_command_writes_exactly_its_files(data, tmp_path, case):
    args, files = _COMMAND_FILES[case]
    if args[0] != "synth":
        args = (
            *args, "--footprints", data["footprints"], "--labels", data["labels"],
            "--quantile", 0.9,
        )
    if args[0] == "explain":  # a user with a directive has an explanation
        cloak_args = _train_args(data, tmp_path / "c", "--quantile", 0.9)[1:]
        assert _run("cloak", *cloak_args) == 0
        directives = json.loads((tmp_path / "c" / "directives.json").read_text())
        args = (*args, "--user", directives["directives"][0]["user"])
    out = tmp_path / "out"
    assert _run(*args, "--out", out) == 0
    assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
    # the manifest records exactly the settings the command's flags set
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config) == _config_keys(args[0])
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            assert text == canonical_json(json.loads(text))
        else:
            assert text.splitlines()[0] == _HEADERS[path.name]


# ---------------------------------------------------------------------------
# config handling and errors


def test_config_file_with_flag_override(data, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\nquantile=0.9\n# comment\n\n")
    out = tmp_path / "cfgout"
    rc = _run(*_train_args(data, out, "--config", cfg, "--seed", 4))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 4  # flag beats config file
    assert manifest["config"]["quantile"] == 0.9


def test_unknown_config_key_fails(data, tmp_path, capsys):
    # k is a key of the commands that fit NMF, not of train
    for line, key in (("bogus=1", "bogus"), ("k=7", "k")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = _run(*_train_args(data, tmp_path / "o", "--config", cfg))
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {
            "error": "ValueError",
            "message": f"unknown config key {key!r} for train",
        }


_STRATEGY_CHOICES = "expected one of domain, fg, fg-tol, mf"

# case -> (command line less the data options and --out, config file text
# or None, the error message)
_FAILED_RUNS = {
    "train-nmf_tol": (
        ("train", "--task", "task_a"),
        "nmf_tol=-1\n",
        "unknown config key 'nmf_tol' for train",
    ),
    "plain-json-config": (
        ("train", "--task", "task_a"),
        '{"seed": 3}\n',
        "is JSON but not a manifest.json",
    ),
    "report-bogus-strategy": (
        ("report", "--tasks", "task_a", "--strategies", "fg,bogus"),
        None,
        f"unknown strategy 'bogus': {_STRATEGY_CHOICES}",
    ),
    "simulate-bogus-strategy-in-config": (
        ("simulate", "--task", "task_a"),
        "strategy=bogus\n",
        f"unknown strategy 'bogus': {_STRATEGY_CHOICES}",
    ),
    "cloak-bogus-strategy-in-config": (
        ("cloak", "--task", "task_a"),
        "strategy=bogus\n",
        f"unknown strategy 'bogus': {_STRATEGY_CHOICES}",
    ),
    "simulate-fg-tol-above-quantile": (
        ("simulate", "--task", "task_a", "--strategy", "fg-tol",
         "--tolerance-quantile", 0.99),
        None,
        "tolerance_quantile must not exceed quantile",
    ),
    "simulate-domain-without-mapping": (
        ("simulate", "--task", "task_a", "--strategy", "domain"),
        None,
        "--domain-mapping is required for the domain strategy",
    ),
    "explain-without-user": (
        ("explain", "--task", "task_a"),
        None,
        "--user is required for explain",
    ),
    "explain-unknown-user": (  # fails after the classifier is fitted
        ("explain", "--task", "task_a", "--user", "nobody"),
        None,
        "user 'nobody' is not in the test partition",
    ),
    "report-no-tasks": (
        ("report", "--tasks", ","),
        None,
        "tasks must list at least one name",
    ),
    "report-no-strategies": (
        ("report", "--tasks", "task_a", "--strategies", ","),
        None,
        "strategies must list at least one name",
    ),
    "spillover-no-traits": (
        ("spillover", "--task", "task_a", "--traits", ",,"),
        None,
        "traits must list at least one name",
    ),
    "simulate-schedule-not-a-number": (
        ("simulate", "--task", "task_a", "--schedule", "a,b"),
        None,
        "schedule value 'a' is not a number",
    ),
    "train-min-user-above-every-user": (
        ("train", "--task", "task_a", "--min-user", 1000),
        None,
        "no user survives activity filtering: none has min_user=1000 likes "
        "among the items with min_item=10 likes",
    ),
    "train-min-item-above-every-item": (
        ("train", "--task", "task_a", "--min-item", 1000),
        None,
        "no user survives activity filtering: none has min_user=10 likes "
        "among the items with min_item=1000 likes",
    ),
}


@pytest.mark.parametrize("case", sorted(_FAILED_RUNS))
def test_failed_run_writes_no_file(data, tmp_path, capsys, case):
    args, config, message = _FAILED_RUNS[case]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = (*args, "--config", cfg)
    out = tmp_path / "out"
    rc = _run(
        *args, "--footprints", data["footprints"], "--labels", data["labels"],
        "--out", out,
    )
    assert rc == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert set(err) == {"error", "message"}
    assert err["error"] == "ValueError"
    assert message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "text, value",
    [
        ("folds=abc\n", "'abc'"),
        ('{"command": "train", "config": {"folds": "x"}}\n', "'x'"),
    ],
    ids=["key-value", "manifest"],
)
def test_config_value_that_does_not_parse_names_key_value_and_file(
    data, tmp_path, capsys, text, value
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    rc = _run(*_train_args(data, out, "--config", cfg))
    assert rc == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {
        "error": "ValueError",
        "message": f"config file {cfg}: folds={value} is not a valid int",
    }
    assert not out.exists()


def test_malformed_config_line_fails(data, tmp_path, capsys):
    cfg = tmp_path / "bad2.cfg"
    cfg.write_text("seed 3\n")
    rc = _run(*_train_args(data, tmp_path / "o2", "--config", cfg))
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "line 1" in err["message"]


def test_manifest_command_mismatch(data, tmp_path, capsys):
    out = tmp_path / "t"
    assert _run(*_train_args(data, out)) == 0
    rc = _run("simulate", "--config", out / "manifest.json", "--out", tmp_path / "s")
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "train" in err["message"]


def test_missing_required_options(data, tmp_path, capsys):
    rc = _run(
        "train", "--footprints", data["footprints"], "--labels", data["labels"],
        "--out", tmp_path / "x",
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "task" in err["message"]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("train", ()),
        ("simulate", ()),
        ("spillover", ("--traits", "trait_b")),
    ],
    ids=["train", "simulate", "spillover"],
)
def test_continuous_task_is_structured_error(data, tmp_path, capsys, command, extra):
    rc = _run(
        command, "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "trait_a", *extra, "--out", tmp_path / command,
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": "task 'trait_a' is not binary"}


@pytest.mark.parametrize(
    "command, extra",
    [("train", ("--folds", 1)), ("spillover", ("--traits", "trait_a", "--folds", 0))],
    ids=["train", "spillover"],
)
def test_fewer_than_two_folds_is_structured_error(
    data, tmp_path, capsys, command, extra
):
    rc = _run(
        command, "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", *extra, "--out", tmp_path / command,
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": "folds must be at least 2"}


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--nmf-max-iters", 0, "nmf_max_iters"),
        ("--k", 0, "k_metafeatures"),
        ("--min-user", -5, "min_user"),
        ("--min-item", -1, "min_item"),
        ("--train-frac", 1.0, "train_frac"),
        ("--train-frac", "nan", "train_frac"),
        ("--drop-fraction", 1.5, "drop_fraction"),
        ("--drop-fraction", "nan", "drop_fraction"),
        ("--nmf-tol", -1e-3, "nmf_tol"),
        ("--nmf-tol", "nan", "nmf_tol"),
        ("--nmf-tol", "inf", "nmf_tol"),
        ("--seed", -1, "seed"),
    ],
)
def test_config_field_out_of_range_is_structured_error(
    data, tmp_path, capsys, flag, value, field
):
    # folds has its own test above
    rc = _run(
        "simulate", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", flag, value, "--out", tmp_path / "sim",
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(err) == {"error", "message"}
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{field} must be ")


def test_unknown_task_is_structured_error(data, tmp_path, capsys):
    rc = _run(
        "train", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "nope", "--out", tmp_path / "z",
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and "nope" in err["message"]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # --out is required by argparse
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", "x", "--jobs", "2"])  # no such option
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
