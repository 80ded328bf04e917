"""Command-line entry points: synth, train, explain, cloak, simulate,
spillover, report.

Each command returns its result files, synth's dataset too, and main writes
them in one write_results call, followed by a manifest.json recording the
command, library version, seed, resolved config and its hash; a run that
fails writes no file. Reruns from the same manifest write byte-identical
result files: nothing time- or order-dependent is serialized. A command's
config keys are its flags less --out and --config. Config files are plain
key=value lines or a previously written manifest.json; explicit flags win
over config entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from ._util import ExperimentConfig, csv_text, write_results
from .cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    check_strategy,
    cloak_population,
    directives_to_dict,
)
from .data import filter_min_activity, load_labels, load_triplets
from .explain import linear_explain
from .metafeatures import (
    load_domain_categories,
    metafeature_report,
    task_nmf_metafeatures,
)
from .models import auc, fit_task_classifier, model_to_dict, predict_scores
from .simulate import (
    TradeoffRow,
    curve_csv,
    run_protection_experiment,
    tradeoff_report,
)
from .spillover import (
    POPULATION_ALL_TEST,
    POPULATION_CLOAKED,
    report_to_dict,
    run_spillover_experiment,
    spillover_csv,
)
from .synth import SynthConfig, dataset_files, generate

_STRATEGY_BY_FLAG = {
    "fg": STRATEGY_FG,
    "mf": STRATEGY_MF,
    "domain": STRATEGY_DOMAIN_MF,
    "fg-tol": STRATEGY_FG_TOL,
}

# a config key sets the SynthConfig or ExperimentConfig field of its own
# name, or the field named here
_KEY_FIELD = {
    "users": "n_users",
    "items": "n_items",
    "topics": "k_topics",
    "k": "k_metafeatures",
}
# defaults of the config keys no dataclass field gives; schedule is held
# as the text the flag takes
_PLAIN_DEFAULTS = {
    "strategy": "fg",
    "strategies": "fg,mf",
    "population": POPULATION_CLOAKED,
    "schedule": ",".join(str(f) for f in ExperimentConfig().schedule),
}


def _read_config_file(path: str, command: str) -> dict:
    """Read key=value lines, or the config block of a manifest.json."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if "command" not in obj or "config" not in obj:
            raise ValueError(f"config file {path} is JSON but not a manifest.json")
        if obj["command"] != command:
            raise ValueError(
                f"manifest was written by '{obj['command']}', not '{command}'"
            )
        return dict(obj["config"])
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


_OPTIONAL_KEYS = {"domain_mapping", "user"}


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[command])
    if args.config:
        file_cfg = _read_config_file(args.config, command)
        for key, val in file_cfg.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r} for {command}")
            # a value read as text takes its default's type
            if isinstance(val, str) and cfg[key] is not None:
                kind = type(cfg[key])
                try:
                    val = kind(val)
                except ValueError:
                    raise ValueError(
                        f"config file {args.config}: {key}={val!r} "
                        f"is not a valid {kind.__name__}"
                    ) from None
            cfg[key] = val
    for key in cfg:
        flag_val = getattr(args, key)
        if flag_val is not None:
            cfg[key] = flag_val
    missing = [k for k, v in cfg.items() if v is None and k not in _OPTIONAL_KEYS]
    if missing:
        raise ValueError(f"missing required options: {', '.join(sorted(missing))}")
    return cfg


def _config_hash(command: str, cfg: dict) -> str:
    payload = json.dumps({"command": command, "config": cfg}, sort_keys=True)
    return sha256(payload.encode()).hexdigest()


def _names(cfg: dict, key: str) -> list[str]:
    """The names a comma-separated list setting holds: at least one."""
    names = [name.strip() for name in cfg[key].split(",") if name.strip()]
    if not names:
        raise ValueError(f"{key} must list at least one name")
    return names


def _strategy(flag: str) -> str:
    """The strategy a flag value names, as fg names STRATEGY_FG."""
    if flag not in _STRATEGY_BY_FLAG:
        choices = ", ".join(sorted(_STRATEGY_BY_FLAG))
        raise ValueError(f"unknown strategy {flag!r}: expected one of {choices}")
    return _STRATEGY_BY_FLAG[flag]


def _config_fields(config_type, cfg: dict) -> dict:
    """The fields of config_type that cfg's keys set, with their values."""
    names = {f.name for f in dataclasses.fields(config_type)}
    fields = {_KEY_FIELD.get(key, key): val for key, val in cfg.items()}
    return {name: val for name, val in fields.items() if name in names}


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """The command's settings; a field it has no key for keeps its default."""
    fields = _config_fields(ExperimentConfig, cfg)
    if "schedule" in fields:
        fields["schedule"] = _schedule(fields["schedule"])
    return ExperimentConfig(**fields)


def _schedule(text: str) -> tuple[float, ...]:
    """The re-add fractions a comma-separated schedule lists."""
    fractions = []
    for x in text.split(","):
        if x.strip():
            try:
                fractions.append(float(x))
            except ValueError:
                raise ValueError(
                    f"schedule value {x.strip()!r} is not a number"
                ) from None
    return tuple(fractions)


def _synth_config(cfg: dict) -> SynthConfig:
    return SynthConfig(**_config_fields(SynthConfig, cfg))


def _load_dataset(cfg: dict):
    m = load_triplets(cfg["footprints"])
    labels = load_labels(cfg["labels"], m)
    return m, labels


def _domain_model(cfg: dict, matrix):
    """The domain mapping over the items that survive activity filtering."""
    if not cfg.get("domain_mapping"):
        raise ValueError("--domain-mapping is required for the domain strategy")
    fm = filter_min_activity(matrix, cfg["min_user"], cfg["min_item"])
    return load_domain_categories(cfg["domain_mapping"], fm.item_ids)


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(cfg: dict, outdir: Path, meta: dict) -> dict:
    result = generate(_synth_config(cfg))
    print(
        f"synth: {result.matrix.n_users} users, {result.matrix.n_items} items, "
        f"{result.matrix.nnz} likes -> {outdir}"
    )
    return dataset_files(result)


def _cmd_train(cfg: dict, outdir: Path, meta: dict) -> dict:
    matrix, labels = _load_dataset(cfg)
    task = cfg["task"]
    clf = fit_task_classifier(task, matrix, labels, _experiment_config(cfg))
    threshold = clf.threshold.value
    test_scores = predict_scores(clf.model, clf.test.matrix)
    metrics = {
        "task": task,
        "best_c": clf.best_c,
        "threshold": threshold,
        "threshold_quantile": clf.threshold.quantile,
        "n_train": clf.train.matrix.n_users,
        "n_test": clf.test.matrix.n_users,
        "auc_test": auc(test_scores, clf.test.labels.values[task]),
        "positive_rate_test": float(np.mean(test_scores >= threshold)),
        **meta,
    }
    print(
        f"train: task {task}, C={clf.best_c}, test AUC {metrics['auc_test']:.3f}, "
        f"threshold {threshold:.3f}"
    )
    return {
        "model.json": model_to_dict(clf.model, clf.filtered.item_ids),
        "train_metrics.json": metrics,
    }


def _positive_test_user(clf, uid: str) -> int:
    """Test row of user uid, who must score at or above the threshold."""
    test, threshold = clf.test.matrix, clf.threshold.value
    if uid not in test.user_index:
        raise ValueError(f"user {uid!r} is not in the test partition")
    i = test.user_index[uid]
    score = float(predict_scores(clf.model, test)[i])
    if score < threshold:
        raise ValueError(
            f"user {uid!r} scores {score:.6f}, below the threshold "
            f"{threshold:.6f}: not predicted positive"
        )
    return i


def _cmd_explain(cfg: dict, outdir: Path, meta: dict) -> dict:
    uid = cfg["user"]
    if uid is None:
        raise ValueError("--user is required for explain")
    matrix, labels = _load_dataset(cfg)
    clf = fit_task_classifier(cfg["task"], matrix, labels, _experiment_config(cfg))
    threshold = clf.threshold.value
    row = clf.test.matrix.row(_positive_test_user(clf, uid))
    expl = linear_explain(clf.model, row, threshold)
    if expl is None:
        raise ValueError(f"no explanation found for user {uid!r}")
    item_names = [clf.filtered.item_ids[j] for j in expl.features]
    print(
        f"explain: if user {uid} removed {', '.join(item_names)}, "
        f"the score would drop from {expl.score_before:.3f} to "
        f"{expl.score_after:.3f} (threshold {threshold:.3f})"
    )
    return {
        "explanation.json": {
            "user": uid,
            "task": cfg["task"],
            "threshold": threshold,
            "score_before": expl.score_before,
            "score_after": expl.score_after,
            "features": item_names,
            **meta,
        }
    }


def _cmd_cloak(cfg: dict, outdir: Path, meta: dict) -> dict:
    econf = _experiment_config(cfg)
    strategy = _strategy(cfg["strategy"])
    check_strategy(econf, strategy)
    matrix, labels = _load_dataset(cfg)
    clf = fit_task_classifier(cfg["task"], matrix, labels, econf)
    test, threshold = clf.test.matrix, clf.threshold.value
    if cfg.get("user"):
        targets = [_positive_test_user(clf, cfg["user"])]
    else:
        targets = np.nonzero(predict_scores(clf.model, test) >= threshold)[0]
    mfm = None
    if strategy == STRATEGY_MF:
        mfm = task_nmf_metafeatures(clf.train.matrix, econf)
    elif strategy == STRATEGY_DOMAIN_MF:
        mfm = _domain_model(cfg, matrix)
    directives, not_found = cloak_population(
        strategy,
        clf.model,
        test,
        targets,
        threshold,
        mfm,
        clf.train_scores,
        econf.tolerance_quantile,
    )
    print(
        f"cloak: {len(directives)} directives ({cfg['strategy']}), "
        f"{not_found} without explanation -> {outdir / 'directives.json'}"
    )
    item_ids = clf.filtered.item_ids
    files = {
        "directives.json": {
            **directives_to_dict(directives.values(), item_ids),
            **meta,
            "not_found": not_found,
        }
    }
    if mfm is not None:
        files["metafeatures.json"] = metafeature_report(mfm, item_ids)
    return files


def _cmd_simulate(cfg: dict, outdir: Path, meta: dict) -> dict:
    strategy = _strategy(cfg["strategy"])
    econf = _experiment_config(cfg)
    matrix, labels = _load_dataset(cfg)
    domain = _domain_model(cfg, matrix) if strategy == STRATEGY_DOMAIN_MF else None
    curve = run_protection_experiment(
        cfg["task"], strategy, matrix, labels, econf, domain=domain
    )
    final = curve.protection[-1]
    print(
        f"simulate: task {cfg['task']}, strategy {cfg['strategy']}, "
        f"population {curve.population_size}, protection at "
        f"{curve.fractions[-1]:.1f} re-add: "
        + ("undefined" if final is None else f"{final:.3f}")
    )
    return {
        "protection_curve.json": {**dataclasses.asdict(curve), **meta},
        "protection_curve.csv": curve_csv(curve),
    }


def _cmd_spillover(cfg: dict, outdir: Path, meta: dict) -> dict:
    traits = _names(cfg, "traits")
    econf = _experiment_config(cfg)
    matrix, labels = _load_dataset(cfg)
    report = run_spillover_experiment(
        cfg["task"], traits, matrix, labels, econf, population=cfg["population"]
    )
    print(
        f"spillover: task {cfg['task']}, population {report.n_population} "
        f"({report.population_mode}), {len(report.rows)} traits -> "
        f"{outdir / 'spillover.json'}"
    )
    return {
        "spillover.json": {**report_to_dict(report), **meta},
        "spillover.csv": spillover_csv(report),
    }


def _cmd_report(cfg: dict, outdir: Path, meta: dict) -> dict:
    tasks = _names(cfg, "tasks")
    strategies = [_strategy(s) for s in _names(cfg, "strategies")]
    econf = _experiment_config(cfg)
    matrix, labels = _load_dataset(cfg)
    domain = _domain_model(cfg, matrix) if STRATEGY_DOMAIN_MF in strategies else None
    rows = tradeoff_report(tasks, strategies, matrix, labels, econf, domain=domain)
    print(f"report: {len(rows)} task x strategy rows -> {outdir / 'tradeoff.json'}")
    header = [f.name for f in dataclasses.fields(TradeoffRow)]
    return {
        "tradeoff.json": {"rows": [dataclasses.asdict(r) for r in rows], **meta},
        "tradeoff.csv": csv_text(header, [dataclasses.astuple(r) for r in rows]),
    }


# every flag, declared once: its key -> add_argument keywords. The flag is
# the key with "-" for "_". No flag has a default: an unset flag leaves the
# config file's value or the command's default.
_FLAGS = {
    "seed": dict(type=int, help="base random seed"),
    "out": dict(required=True, help="output directory"),
    "config": dict(help="key=value config file or manifest.json"),
    "footprints": dict(help="user_id,item_id CSV/TSV"),
    "labels": dict(help="user_id,task_name,value CSV"),
    "quantile": dict(type=float, help="targeting quantile"),
    "train_frac": dict(type=float),
    "folds": dict(type=int),
    "min_user": dict(type=int),
    "min_item": dict(type=int),
    "task": dict(help="sensitive binary task"),
    "tasks": dict(help="comma-separated binary tasks"),
    "user": dict(help="external user id (test partition)"),
    "strategy": dict(choices=sorted(_STRATEGY_BY_FLAG)),
    "strategies": dict(help="comma-separated strategies"),
    "tolerance_quantile": dict(type=float),
    "k": dict(type=int, help="metafeature count"),
    "schedule": dict(help="comma-separated re-add fractions"),
    "drop_fraction": dict(type=float),
    "domain_mapping": dict(help="item_id,category CSV"),
    "nmf_max_iters": dict(type=int),
    "nmf_tol": dict(type=float),
    "traits": dict(help="comma-separated continuous traits"),
    "population": dict(choices=[POPULATION_CLOAKED, POPULATION_ALL_TEST]),
    "users": dict(type=int),
    "items": dict(type=int),
    "topics": dict(type=int),
    "dirichlet_alpha": dict(type=float),
    "popularity_exponent": dict(type=float),
    "mean_likes": dict(type=int),
}

_DATA_KEYS = "seed footprints labels quantile train_frac folds min_user min_item"
_NMF_KEYS = "k nmf_max_iters nmf_tol"

# subcommand -> (runner, help, its config keys). Each key is also a flag,
# and every subcommand takes --out and --config besides.
_COMMANDS = {
    "synth": (
        _cmd_synth,
        "generate a synthetic dataset",
        "seed users items topics dirichlet_alpha popularity_exponent mean_likes",
    ),
    "train": (
        _cmd_train,
        "train a classifier and its threshold",
        f"{_DATA_KEYS} task",
    ),
    "explain": (
        _cmd_explain,
        "explain one positive prediction",
        f"{_DATA_KEYS} task user",
    ),
    "cloak": (
        _cmd_cloak,
        "build cloaking directives",
        f"{_DATA_KEYS} task strategy user tolerance_quantile domain_mapping "
        f"{_NMF_KEYS}",
    ),
    "simulate": (
        _cmd_simulate,
        "protection over simulated time",
        f"{_DATA_KEYS} task strategy tolerance_quantile schedule drop_fraction "
        f"domain_mapping {_NMF_KEYS}",
    ),
    "spillover": (
        _cmd_spillover,
        "cost of cloaking on other tasks",
        f"{_DATA_KEYS} task traits population {_NMF_KEYS}",
    ),
    "report": (
        _cmd_report,
        "cost versus protection per task and strategy",
        f"{_DATA_KEYS} tasks strategies tolerance_quantile schedule drop_fraction "
        f"domain_mapping {_NMF_KEYS}",
    ),
}


def _command_defaults(command: str, keys: str) -> dict:
    """Each config key of a command with its default: its _PLAIN_DEFAULTS
    entry, else its config dataclass field's, else None. Config files and
    flags override these."""
    config = SynthConfig() if command == "synth" else ExperimentConfig()
    return {
        key: _PLAIN_DEFAULTS.get(key, getattr(config, _KEY_FIELD.get(key, key), None))
        for key in keys.split()
    }


_DEFAULTS = {
    name: _command_defaults(name, keys) for name, (_, _, keys) in _COMMANDS.items()
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="footcloak",
        description="Counterfactual cloaking of behavioral footprints",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in ("out", "config", *keys.split()):
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args.command, args)
        # a setting out of range (NaN too) fails before data loads
        (_synth_config if args.command == "synth" else _experiment_config)(cfg)
        outdir = Path(args.out)
        meta = {"config_hash": _config_hash(args.command, cfg), "seed": cfg["seed"]}
        files = _COMMANDS[args.command][0](cfg, outdir, meta)
        # written last, the manifest marks a complete run
        manifest = {"command": args.command, "version": __version__, "config": cfg}
        write_results(outdir, {**files, "manifest.json": {**manifest, **meta}})
        return 0
    except BrokenPipeError:
        raise
    except Exception as exc:  # structured errors for scripting
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
