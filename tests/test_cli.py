import csv
import json

import pytest

from footcloak import cli, simulate
from footcloak.cli import main


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


def test_cloak_mf_writes_metafeature_report(data, tmp_path):
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


# ---------------------------------------------------------------------------
# simulate


def _simulate_args(data, out, *extra):
    return (
        "simulate", "--footprints", data["footprints"], "--labels", data["labels"],
        "--task", "task_a", "--quantile", 0.9, "--schedule", "0,0.5,1",
        "--out", out, *extra,
    )


def test_simulate_jobs_do_not_change_files(data, tmp_path):
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


def test_no_directive_writes_null(data, tmp_path, monkeypatch, capsys):
    # no population user gets a directive: rates and costs are undefined
    monkeypatch.setattr(simulate, "make_directive", lambda *a, **k: None)
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
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    rc = _run(*_train_args(data, tmp_path / "o", "--config", cfg))
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "bogus" in err["message"]


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
