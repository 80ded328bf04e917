"""Command-line entry points: synth, train, explain, cloak, simulate,
spillover, report.

Every run writes a manifest.json recording the command, library version,
seed, resolved config and its hash. Reruns from the same manifest write
byte-identical result files: nothing time- or order-dependent is
serialized. Config files are plain key=value lines (or a previously
written manifest.json); explicit flags win over config entries.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from ._util import (
    STREAM_CV,
    STREAM_NMF,
    STREAM_SPLIT,
    canonical_json,
    derive_seed,
    write_csv,
)
from .cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    make_directive,
    save_directives,
)
from .data import filter_min_activity, load_labels, load_triplets, task_split
from .explain import linear_explain
from .metafeatures import (
    build_nmf_metafeatures,
    load_domain_categories,
    save_metafeature_report,
)
from .models import (
    DEFAULT_C_GRID,
    auc,
    fit_classifier,
    predict_scores,
    quantile_threshold,
    save_model,
)
from .simulate import (
    DEFAULT_SCHEDULE,
    ExperimentConfig,
    run_protection_experiment,
    save_protection_curve,
    save_protection_curve_csv,
    tradeoff_report,
)
from .spillover import (
    POPULATION_CLOAKED,
    run_spillover_experiment,
    save_spillover_csv,
    save_spillover_report,
)
from .synth import SynthConfig, generate, write_dataset

logger = logging.getLogger(__name__)

_STRATEGY_BY_FLAG = {
    "fg": STRATEGY_FG,
    "mf": STRATEGY_MF,
    "domain": STRATEGY_DOMAIN_MF,
    "fg-tol": STRATEGY_FG_TOL,
}

_SCHEDULE_DEFAULT = ",".join(str(f) for f in DEFAULT_SCHEDULE)

# defaults per command; config files and flags override these
_DEFAULTS_COMMON = {
    "seed": 0,
    "quantile": 0.95,
    "tolerance_quantile": 0.90,
    "train_frac": 0.66,
    "folds": 3,
    "min_user": 10,
    "min_item": 10,
    "k": 50,
    "schedule": _SCHEDULE_DEFAULT,
    "drop_fraction": 0.5,
    "nmf_max_iters": 200,
    "nmf_tol": 1e-4,
}

_DEFAULTS = {
    "synth": {
        "seed": 0,
        "users": 2000,
        "items": 5000,
        "topics": 12,
        "dirichlet_alpha": 0.3,
        "popularity_exponent": 1.1,
        "mean_likes": 100,
    },
    "train": dict(_DEFAULTS_COMMON, footprints=None, labels=None, task=None),
    "explain": dict(_DEFAULTS_COMMON, footprints=None, labels=None, task=None, user=None),
    "cloak": dict(
        _DEFAULTS_COMMON,
        footprints=None,
        labels=None,
        task=None,
        strategy="fg",
        user=None,
        domain_mapping=None,
    ),
    "simulate": dict(
        _DEFAULTS_COMMON,
        footprints=None,
        labels=None,
        task=None,
        strategy="fg",
        domain_mapping=None,
    ),
    "spillover": dict(
        _DEFAULTS_COMMON,
        footprints=None,
        labels=None,
        task=None,
        traits=None,
        population=POPULATION_CLOAKED,
    ),
    "report": dict(
        _DEFAULTS_COMMON,
        footprints=None,
        labels=None,
        tasks=None,
        strategies="fg,mf",
        domain_mapping=None,
    ),
}


def _coerce(key: str, raw: str, default):
    if isinstance(default, bool):
        return raw.strip().lower() in {"1", "true", "yes", "on"}
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _read_config_file(path: str, command: str) -> dict:
    """Read key=value lines, or the config block of a manifest.json."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if "config" in obj:
            if obj.get("command") not in (None, command):
                raise ValueError(
                    f"manifest was written by '{obj.get('command')}', not '{command}'"
                )
            return dict(obj["config"])
        return obj
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


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS[command])
    if args.config:
        file_cfg = _read_config_file(args.config, command)
        for key, val in file_cfg.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r} for {command}")
            cfg[key] = _coerce(key, val, _DEFAULTS[command][key]) if isinstance(val, str) else val
    for key in cfg:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    missing = [k for k, v in cfg.items() if v is None and k not in _OPTIONAL_KEYS]
    if missing:
        raise ValueError(f"missing required options: {', '.join(sorted(missing))}")
    return cfg


_OPTIONAL_KEYS = {"domain_mapping", "user"}


def _config_hash(command: str, cfg: dict) -> str:
    payload = json.dumps({"command": command, "config": cfg}, sort_keys=True)
    return sha256(payload.encode()).hexdigest()


def _write_manifest(outdir: Path, command: str, cfg: dict) -> dict:
    h = _config_hash(command, cfg)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg.get("seed"),
        "config": cfg,
        "config_hash": h,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").write_text(canonical_json(manifest))
    return {"config_hash": h, "seed": cfg.get("seed")}


def _parse_schedule(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _experiment_config(cfg: dict) -> ExperimentConfig:
    return ExperimentConfig(
        seed=cfg["seed"],
        quantile=cfg["quantile"],
        tolerance_quantile=cfg["tolerance_quantile"],
        drop_fraction=cfg["drop_fraction"],
        train_frac=cfg["train_frac"],
        schedule=_parse_schedule(cfg["schedule"]),
        k_metafeatures=cfg["k"],
        folds=cfg["folds"],
        min_user=cfg["min_user"],
        min_item=cfg["min_item"],
        nmf_max_iters=cfg["nmf_max_iters"],
        nmf_tol=cfg["nmf_tol"],
    )


def _load_dataset(cfg: dict):
    m = load_triplets(cfg["footprints"])
    labels = load_labels(cfg["labels"], m)
    return m, labels


def _domain_model(cfg: dict, item_ids):
    if not cfg.get("domain_mapping"):
        raise ValueError("--domain-mapping is required for the domain strategy")
    return load_domain_categories(cfg["domain_mapping"], item_ids)


def _classifier_pipeline(cfg: dict):
    """Shared by train/explain/cloak: filter, per-task subset, split,
    CV-train on the full (undropped) training rows, threshold."""
    matrix, labels = _load_dataset(cfg)
    task = cfg["task"]
    fm, train, test = task_split(
        matrix,
        labels,
        task,
        cfg["min_user"],
        cfg["min_item"],
        cfg["train_frac"],
        derive_seed(cfg["seed"], STREAM_SPLIT),
    )
    best_c, model, train_scores = fit_classifier(
        train.matrix,
        train.labels.values[task],
        DEFAULT_C_GRID,
        cfg["folds"],
        derive_seed(cfg["seed"], STREAM_CV),
    )
    threshold = quantile_threshold(train_scores, cfg["quantile"], source="training scores")
    return fm, train, test, model, threshold, train_scores, best_c


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    sconf = SynthConfig(
        n_users=cfg["users"],
        n_items=cfg["items"],
        k_topics=cfg["topics"],
        dirichlet_alpha=cfg["dirichlet_alpha"],
        popularity_exponent=cfg["popularity_exponent"],
        mean_likes=cfg["mean_likes"],
        seed=cfg["seed"],
    )
    result = generate(sconf)
    paths = write_dataset(outdir, result)
    print(
        f"synth: {result.matrix.n_users} users, {result.matrix.n_items} items, "
        f"{result.matrix.nnz} likes -> {outdir}"
    )
    return list(paths.values())


def _cmd_train(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    fm, train, test, model, threshold, _, best_c = _classifier_pipeline(cfg)
    task = cfg["task"]
    test_scores = predict_scores(model, test.matrix)
    y_test = test.labels.values[task]
    metrics = {
        "task": task,
        "best_c": best_c,
        "threshold": threshold.value,
        "threshold_quantile": threshold.quantile,
        "n_train": train.matrix.n_users,
        "n_test": test.matrix.n_users,
        "auc_test": auc(test_scores, y_test),
        "positive_rate_test": float(np.mean(test_scores >= threshold.value)),
    }
    metrics.update(meta)
    model_path = outdir / "model.json"
    save_model(model_path, model, fm.item_ids)
    metrics_path = outdir / "train_metrics.json"
    metrics_path.write_text(canonical_json(metrics))
    print(
        f"train: task {task}, C={best_c}, test AUC {metrics['auc_test']:.3f}, "
        f"threshold {threshold.value:.3f}"
    )
    return [str(model_path), str(metrics_path)]


def _cmd_explain(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    fm, train, test, model, threshold, _, _ = _classifier_pipeline(cfg)
    uid = cfg["user"]
    if uid is None:
        raise ValueError("--user is required for explain")
    if uid not in test.matrix.user_index:
        raise ValueError(f"user {uid!r} is not in the test partition")
    i = test.matrix.user_index[uid]
    expl = linear_explain(model, test.matrix.row(i), threshold.value)
    if expl is None:
        raise ValueError(f"no explanation found for user {uid!r}")
    item_names = [fm.item_ids[j] for j in expl.features]
    obj = {
        "user": uid,
        "task": cfg["task"],
        "threshold": threshold.value,
        "score_before": expl.score_before,
        "score_after": expl.score_after,
        "features": item_names,
    }
    obj.update(meta)
    path = outdir / "explanation.json"
    path.write_text(canonical_json(obj))
    print(
        f"explain: if user {uid} removed {', '.join(item_names)}, "
        f"the score would drop from {expl.score_before:.3f} to "
        f"{expl.score_after:.3f} (threshold {threshold.value:.3f})"
    )
    return [str(path)]


def _cmd_cloak(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    fm, train, test, model, threshold, train_scores, _ = _classifier_pipeline(cfg)
    strategy = _STRATEGY_BY_FLAG[cfg["strategy"]]
    mfm = None
    written = []
    if strategy == STRATEGY_MF:
        mfm = build_nmf_metafeatures(
            train.matrix,
            cfg["k"],
            max_iters=cfg["nmf_max_iters"],
            tol=cfg["nmf_tol"],
            seed=derive_seed(cfg["seed"], STREAM_NMF),
        )
    elif strategy == STRATEGY_DOMAIN_MF:
        mfm = _domain_model(cfg, fm.item_ids)

    test_scores = predict_scores(model, test.matrix)
    if cfg.get("user"):
        if cfg["user"] not in test.matrix.user_index:
            raise ValueError(f"user {cfg['user']!r} is not in the test partition")
        targets = [test.matrix.user_index[cfg["user"]]]
    else:
        targets = list(np.nonzero(test_scores >= threshold.value)[0])

    directives = []
    not_found = 0
    for i in targets:
        i = int(i)
        row = test.matrix.row(i)
        uid = test.matrix.user_ids[i]
        d = make_directive(
            strategy,
            model,
            row,
            threshold.value,
            mfm,
            train_scores,
            cfg["tolerance_quantile"],
            user=uid,
        )
        if d is None:
            not_found += 1
        else:
            directives.append(d)

    dpath = outdir / "directives.json"
    save_directives(dpath, directives, fm, dict(meta, not_found=not_found))
    written.append(str(dpath))
    if mfm is not None:
        rpath = outdir / "metafeatures.json"
        save_metafeature_report(rpath, mfm, fm.item_ids)
        written.append(str(rpath))
    print(
        f"cloak: {len(directives)} directives ({cfg['strategy']}), "
        f"{not_found} without explanation -> {dpath}"
    )
    return written


def _cmd_simulate(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    matrix, labels = _load_dataset(cfg)
    strategy = _STRATEGY_BY_FLAG[cfg["strategy"]]
    econf = _experiment_config(cfg)
    domain = None
    if strategy == STRATEGY_DOMAIN_MF:
        fm = filter_min_activity(matrix, cfg["min_user"], cfg["min_item"])
        domain = _domain_model(cfg, fm.item_ids)
    curve = run_protection_experiment(
        cfg["task"], strategy, matrix, labels, econf, domain=domain
    )
    jpath = outdir / "protection_curve.json"
    cpath = outdir / "protection_curve.csv"
    save_protection_curve(jpath, curve, meta)
    save_protection_curve_csv(cpath, curve)
    final = curve.protection[-1]
    print(
        f"simulate: task {cfg['task']}, strategy {cfg['strategy']}, "
        f"population {curve.population_size}, protection at "
        f"{curve.fractions[-1]:.1f} re-add: "
        + ("undefined" if final is None else f"{final:.3f}")
    )
    return [str(jpath), str(cpath)]


def _cmd_spillover(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    matrix, labels = _load_dataset(cfg)
    econf = _experiment_config(cfg)
    traits = [t.strip() for t in cfg["traits"].split(",") if t.strip()]
    report = run_spillover_experiment(
        cfg["task"], traits, matrix, labels, econf, population=cfg["population"]
    )
    jpath = outdir / "spillover.json"
    cpath = outdir / "spillover.csv"
    save_spillover_report(jpath, report, meta)
    save_spillover_csv(cpath, report)
    print(
        f"spillover: task {cfg['task']}, population {report.n_population} "
        f"({report.population_mode}), {len(report.rows)} traits -> {jpath}"
    )
    return [str(jpath), str(cpath)]


def _cmd_report(cfg: dict, outdir: Path, meta: dict) -> list[str]:
    matrix, labels = _load_dataset(cfg)
    econf = _experiment_config(cfg)
    tasks = [t.strip() for t in cfg["tasks"].split(",") if t.strip()]
    strategies = [
        _STRATEGY_BY_FLAG[s.strip()] for s in cfg["strategies"].split(",") if s.strip()
    ]
    domain = None
    if STRATEGY_DOMAIN_MF in strategies:
        fm = filter_min_activity(matrix, cfg["min_user"], cfg["min_item"])
        domain = _domain_model(cfg, fm.item_ids)
    rows = tradeoff_report(tasks, strategies, matrix, labels, econf, domain=domain)
    obj = {
        "rows": [
            {
                "task": r.task,
                "strategy": r.strategy,
                "avg_cloak_cost": r.avg_cloak_cost,
                "protection_at_full": r.protection_at_full,
                "population_size": r.population_size,
            }
            for r in rows
        ]
    }
    obj.update(meta)
    jpath = outdir / "tradeoff.json"
    jpath.write_text(canonical_json(obj))
    cpath = outdir / "tradeoff.csv"
    write_csv(
        cpath,
        ("task", "strategy", "avg_cloak_cost", "protection_at_full", "population_size"),
        (
            (r.task, r.strategy, r.avg_cloak_cost, r.protection_at_full, r.population_size)
            for r in rows
        ),
    )
    print(f"report: {len(rows)} task x strategy rows -> {jpath}")
    return [str(jpath), str(cpath)]


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "explain": _cmd_explain,
    "cloak": _cmd_cloak,
    "simulate": _cmd_simulate,
    "spillover": _cmd_spillover,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, *, data: bool = True):
    p.add_argument("--seed", type=int, default=None, help="base random seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="key=value config file or manifest.json")
    if data:
        p.add_argument("--footprints", default=None, help="user_id,item_id CSV/TSV")
        p.add_argument("--labels", default=None, help="user_id,task_name,value CSV")
        p.add_argument("--quantile", type=float, default=None, help="targeting quantile")
        p.add_argument("--train-frac", dest="train_frac", type=float, default=None)
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--min-user", dest="min_user", type=int, default=None)
        p.add_argument("--min-item", dest="min_item", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="footcloak",
        description="Counterfactual cloaking of behavioral footprints",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p, data=False)
    p.add_argument("--users", type=int, default=None)
    p.add_argument("--items", type=int, default=None)
    p.add_argument("--topics", type=int, default=None)
    p.add_argument("--dirichlet-alpha", dest="dirichlet_alpha", type=float, default=None)
    p.add_argument(
        "--popularity-exponent", dest="popularity_exponent", type=float, default=None
    )
    p.add_argument("--mean-likes", dest="mean_likes", type=int, default=None)

    p = sub.add_parser("train", help="train a classifier and its threshold")
    _add_common(p)
    p.add_argument("--task", default=None)

    p = sub.add_parser("explain", help="explain one positive prediction")
    _add_common(p)
    p.add_argument("--task", default=None)
    p.add_argument("--user", default=None, help="external user id (test partition)")

    p = sub.add_parser("cloak", help="build cloaking directives")
    _add_common(p)
    p.add_argument("--task", default=None)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_BY_FLAG), default=None)
    p.add_argument("--user", default=None, help="restrict to one user id")
    p.add_argument("--tolerance-quantile", dest="tolerance_quantile", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="metafeature count")
    p.add_argument("--domain-mapping", dest="domain_mapping", default=None)
    p.add_argument("--nmf-max-iters", dest="nmf_max_iters", type=int, default=None)
    p.add_argument("--nmf-tol", dest="nmf_tol", type=float, default=None)

    p = sub.add_parser("simulate", help="protection over simulated time")
    _add_common(p)
    p.add_argument("--task", default=None)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_BY_FLAG), default=None)
    p.add_argument("--tolerance-quantile", dest="tolerance_quantile", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="metafeature count")
    p.add_argument("--schedule", default=None, help="comma-separated re-add fractions")
    p.add_argument("--drop-fraction", dest="drop_fraction", type=float, default=None)
    p.add_argument("--domain-mapping", dest="domain_mapping", default=None)
    p.add_argument("--nmf-max-iters", dest="nmf_max_iters", type=int, default=None)
    p.add_argument("--nmf-tol", dest="nmf_tol", type=float, default=None)

    p = sub.add_parser("spillover", help="cost of cloaking on other tasks")
    _add_common(p)
    p.add_argument("--task", default=None, help="sensitive binary task")
    p.add_argument("--traits", default=None, help="comma-separated continuous traits")
    p.add_argument("--population", choices=["cloaked", "all-test"], default=None)
    p.add_argument("--k", type=int, default=None, help="metafeature count")
    p.add_argument("--nmf-max-iters", dest="nmf_max_iters", type=int, default=None)
    p.add_argument("--nmf-tol", dest="nmf_tol", type=float, default=None)

    p = sub.add_parser("report", help="cost versus protection per task and strategy")
    _add_common(p)
    p.add_argument("--tasks", default=None, help="comma-separated binary tasks")
    p.add_argument("--strategies", default=None, help="comma-separated strategies")
    p.add_argument("--tolerance-quantile", dest="tolerance_quantile", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--schedule", default=None)
    p.add_argument("--drop-fraction", dest="drop_fraction", type=float, default=None)
    p.add_argument("--domain-mapping", dest="domain_mapping", default=None)
    p.add_argument("--nmf-max-iters", dest="nmf_max_iters", type=int, default=None)
    p.add_argument("--nmf-tol", dest="nmf_tol", type=float, default=None)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args.command, args)
        outdir = Path(args.out)
        meta = _write_manifest(outdir, args.command, cfg)
        written = _COMMANDS[args.command](cfg, outdir, meta)
        for path in written:
            logger.info("wrote %s", path)
        return 0
    except BrokenPipeError:
        raise
    except Exception as exc:  # structured errors for scripting
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
