"""Command-line entry points: synth, train, explain, cloak, simulate,
spillover, report.

Each command returns its result files, synth's dataset too, and main writes
them in one write_results call, followed by a manifest.json recording the
command, library version, seed, resolved config and its hash; a run that
fails writes no file. Reruns from the same manifest write byte-identical
result files: nothing time- or order-dependent is serialized. The parser is
built from the standard library alone and each command imports the stages it
runs, so --version, --help and usage errors load no numpy. A command's
config keys are its flags less --out and --config. Config files are plain
key=value lines or a previously written manifest.json; explicit flags win
over config entries.

Each command computes its costliest stages once per content: main opens
the store (_store) for the length of the command, and synth's dataset
(synth.generate), the parsed footprints and labels (_load_dataset), each
classifier fit (models.fit_classifier), each NMF
(metafeatures.task_nmf_metafeatures) and each spillover ridge
(models.fit_ridge) are read back from an entry keyed by SHA-256 over their
inputs, arguments and code, or computed and stored there. The store's
directory is a deployment path, not a config key: it enters neither the
manifest nor the config hash, and no output byte depends on it. A library
caller, which never opens the store, computes every stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import stat
import sys
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, _store
from ._choices import (
    POPULATION_ALL_TEST,
    POPULATION_CLOAKED,
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
)

if TYPE_CHECKING:  # the stages load numpy: each command imports its own
    from ._util import ExperimentConfig
    from .synth import SynthConfig

logger = logging.getLogger(__name__)

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
# defaults of the config keys no dataclass field gives
_PLAIN_DEFAULTS = {
    "strategy": "fg",
    "strategies": "fg,mf",
    "population": POPULATION_CLOAKED,
}


def _read_config_file(path: str, command: str) -> tuple[dict, bool]:
    """The settings of key=value lines, or of a manifest.json's config
    block, and whether they are text to parse: a manifest's are JSON
    values."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
        if "command" not in obj or not isinstance(obj.get("config"), dict):
            raise ValueError(f"config file {path} is JSON but not a manifest.json")
        if obj["command"] != command:
            raise ValueError(
                f"manifest was written by '{obj['command']}', not '{command}'"
            )
        return dict(obj["config"]), False
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out, True


_OPTIONAL_KEYS = {"domain_mapping", "user"}

# the JSON types a flag type admits: an integer is a valid float, and a
# bool is no number
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _config_value(path: str, key: str, val, as_text: bool):
    """A config file's value for key as its flag's type: text is parsed, and
    a JSON value must already have that type (or be null, for an optional
    key)."""
    kind = _FLAGS[key].get("type", str)
    if as_text:
        try:
            return kind(val)
        except ValueError:
            pass
    elif (val is None and key in _OPTIONAL_KEYS) or (
        isinstance(val, _JSON_TYPES[kind]) and not isinstance(val, bool)
    ):
        return val
    raise ValueError(
        f"config file {path}: {key}={val!r} is not a valid {kind.__name__}"
    )


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    cfg = _defaults(command)
    if args.config:
        file_cfg, as_text = _read_config_file(args.config, command)
        for key, val in file_cfg.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r} for {command}")
            cfg[key] = _config_value(args.config, key, val, as_text)
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
    """The names a comma-separated list setting holds: at least one, each once."""
    names = [name.strip() for name in cfg[key].split(",") if name.strip()]
    if not names:
        raise ValueError(f"{key} must list at least one name")
    repeats = [name for i, name in enumerate(names) if name in names[:i]]
    if repeats:
        raise ValueError(f"{key} lists {repeats[0]!r} more than once")
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


def _settings(command: str, cfg: dict) -> SynthConfig | ExperimentConfig:
    """The SynthConfig or ExperimentConfig that a command's config sets; a
    field it has no key for keeps its default."""
    if command == "synth":
        from .synth import SynthConfig

        return SynthConfig(**_config_fields(SynthConfig, cfg))
    from ._util import ExperimentConfig

    fields = _config_fields(ExperimentConfig, cfg)
    if "schedule" in fields:
        fields["schedule"] = _schedule(fields["schedule"])
    return ExperimentConfig(**fields)


def _dataset_entry(cfg: dict):
    """The store entry of cfg's footprints and labels, keyed by each input's
    SHA-256 (read in 1 MiB blocks), footprints first. None without an open
    store, or when an input is not a regular file (hashing would use a FIFO
    up) or cannot be read, which the parser then reports."""
    if not _store.is_open():
        return None
    digests = []
    try:
        for path in (cfg["footprints"], cfg["labels"]):
            if not stat.S_ISREG(os.stat(path).st_mode):
                return None
            digest = sha256()
            with open(path, "rb") as f:
                while block := f.read(1 << 20):
                    digest.update(block)
            digests.append(digest.digest())
    except OSError:
        return None
    # this module's bytes key the entry too: _load_dataset sets its layout
    return _store.entry("dataset", ("cli.py", "data.py"), digests)


def _id_blob(ids):
    """The ids as one UTF-8 byte array joined by "\n", which no id holds."""
    import numpy as np

    return np.frombuffer("\n".join(ids).encode(), dtype=np.uint8)


def _blob_ids(blob, count: int) -> tuple[str, ...]:
    """The count ids of an _id_blob; no id is empty."""
    ids = tuple(blob.tobytes().decode().split("\n")) if count else ()
    if len(ids) != count:
        raise ValueError(f"store entry holds {len(ids)} ids, not {count}")
    return ids


def _dataset(a: dict):
    """The footprints and labels that _load_dataset stored as a."""
    from .data import FootprintMatrix, LabelTable

    n_users, n_items = len(a["indptr"]) - 1, int(a["n_items"])
    m = FootprintMatrix(
        a["indptr"], a["indices"], n_items,
        _blob_ids(a["user_ids"], n_users), _blob_ids(a["item_ids"], n_items),
    )
    names = _blob_ids(a["tasks"], len(a["table"]))
    return m, LabelTable(dict(zip(names, a["table"])), n_users)


def _load_dataset(cfg: dict):
    """The footprints and the labels aligned to them, read back from their
    store entry, or parsed and stored there."""
    import numpy as np

    from .data import load_labels, load_triplets

    entry = _dataset_entry(cfg)
    dataset = _store.load(entry, _dataset)
    if dataset is not None:
        return dataset
    m = load_triplets(cfg["footprints"])
    labels = load_labels(cfg["labels"], m)
    # an input rewritten since it was hashed would be stored under the key
    # of bytes the parser did not read
    if entry is not None and _dataset_entry(cfg) == entry:
        _store.save(entry, dict(
            indptr=m.indptr, indices=m.indices, n_items=m.n_items,
            user_ids=_id_blob(m.user_ids), item_ids=_id_blob(m.item_ids),
            tasks=_id_blob(labels.task_names),
            table=np.reshape(
                list(labels.values.values()), (len(labels.values), m.n_users)
            ),
        ))
    return m, labels


def _domain_model(cfg: dict, matrix):
    """The domain mapping over the items that survive activity filtering."""
    if not cfg.get("domain_mapping"):
        raise ValueError("--domain-mapping is required for the domain strategy")
    from .data import filter_min_activity
    from .metafeatures import load_domain_categories

    fm = filter_min_activity(matrix, cfg["min_user"], cfg["min_item"])
    return load_domain_categories(cfg["domain_mapping"], fm.item_ids)


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(cfg: dict, config: SynthConfig, outdir: Path, meta: dict) -> dict:
    from .synth import dataset_files, generate

    result = generate(config)
    print(
        f"synth: {result.matrix.n_users} users, {result.matrix.n_items} items, "
        f"{result.matrix.nnz} likes -> {outdir}"
    )
    return dataset_files(result)


def _cmd_train(cfg: dict, econf: ExperimentConfig, outdir: Path, meta: dict) -> dict:
    from .models import auc, fit_task_classifier, model_to_dict, predict_scores

    matrix, labels = _load_dataset(cfg)
    task = cfg["task"]
    clf = fit_task_classifier(task, matrix, labels, econf)
    threshold = clf.threshold
    test_scores = predict_scores(clf.model, clf.test.matrix)
    metrics = {
        "task": task,
        "best_c": clf.best_c,
        "threshold": threshold,
        "threshold_quantile": econf.quantile,
        "n_train": clf.train.matrix.n_users,
        "n_test": clf.test.matrix.n_users,
        "auc_test": auc(test_scores, clf.test.labels.values[task]),
        "positive_rate_test": float((test_scores >= threshold).mean()),
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
    from .models import predict_scores

    test, threshold = clf.test.matrix, clf.threshold
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


def _cmd_explain(cfg: dict, econf: ExperimentConfig, outdir: Path, meta: dict) -> dict:
    uid = cfg["user"]
    if uid is None:
        raise ValueError("--user is required for explain")
    from .explain import linear_explain
    from .models import fit_task_classifier

    matrix, labels = _load_dataset(cfg)
    clf = fit_task_classifier(cfg["task"], matrix, labels, econf)
    threshold = clf.threshold
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


def _cmd_cloak(cfg: dict, econf: ExperimentConfig, outdir: Path, meta: dict) -> dict:
    from ._util import STREAM_NMF
    from .cloak import check_strategy, directives_to_dict, strategy_threshold
    from .explain import explain_population
    from .metafeatures import metafeature_report, task_nmf_metafeatures
    from .models import fit_task_classifier, predict_scores

    strategy = _strategy(cfg["strategy"])
    check_strategy(econf, strategy)
    matrix, labels = _load_dataset(cfg)
    clf = fit_task_classifier(cfg["task"], matrix, labels, econf)
    test, threshold = clf.test.matrix, clf.threshold
    if cfg.get("user"):
        targets = [_positive_test_user(clf, cfg["user"])]
    else:
        targets = (predict_scores(clf.model, test) >= threshold).nonzero()[0]
    mfm = None
    if strategy == STRATEGY_MF:
        mfm = task_nmf_metafeatures(clf.train.matrix, econf, STREAM_NMF)
    elif strategy == STRATEGY_DOMAIN_MF:
        mfm = _domain_model(cfg, matrix)
    explained, not_found = explain_population(
        clf.model,
        test,
        targets,
        strategy_threshold(econf, strategy, threshold, clf.train_scores),
    )
    print(
        f"cloak: {len(explained)} directives ({cfg['strategy']}), "
        f"{not_found} without explanation -> {outdir / 'directives.json'}"
    )
    files = {
        "directives.json": {
            **directives_to_dict(strategy, test, explained, mfm),
            **meta,
            "not_found": not_found,
        }
    }
    if mfm is not None:
        files["metafeatures.json"] = metafeature_report(mfm, test.item_ids)
    return files


def _cmd_simulate(cfg: dict, econf: ExperimentConfig, outdir: Path, meta: dict) -> dict:
    from .simulate import curve_csv, run_protection_experiment

    strategy = _strategy(cfg["strategy"])
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


def _cmd_spillover(cfg: dict, econf: ExperimentConfig, outdir: Path, meta: dict) -> dict:
    from .spillover import run_spillover_experiment, spillover_csv

    traits = _names(cfg, "traits")
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
        "spillover.json": {**dataclasses.asdict(report), **meta},
        "spillover.csv": spillover_csv(report),
    }


def _cmd_report(cfg: dict, econf: ExperimentConfig, outdir: Path, meta: dict) -> dict:
    from ._util import csv_text
    from .simulate import TradeoffRow, tradeoff_report

    tasks = _names(cfg, "tasks")
    strategies = [_strategy(s) for s in _names(cfg, "strategies")]
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
# and every subcommand takes --out and --config besides. main calls the
# runner with the config, its _settings, the output directory and meta.
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


def _defaults(command: str) -> dict:
    """Each config key of a command with its default: its _PLAIN_DEFAULTS
    entry, else its config dataclass field's, else None; the schedule is
    held as the text its flag takes. Config files and flags override these.
    Built only when a command runs: the config dataclasses load numpy."""
    config = _settings(command, {})
    defaults = {
        key: _PLAIN_DEFAULTS.get(key, getattr(config, _KEY_FIELD.get(key, key), None))
        for key in _COMMANDS[command][2].split()
    }
    if "schedule" in defaults:
        defaults["schedule"] = ",".join(str(f) for f in defaults["schedule"])
    return defaults


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
    if "numpy" not in sys.modules:
        # a fresh process: every solver loop runs on one BLAS thread anyway,
        # and starting OpenBLAS's thread pool costs a process more than any
        # BLAS call here gains from it; a value the user set still wins
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from ._util import write_results  # numpy loads once the command line parses

    try:
        cfg = _resolve_config(args.command, args)
        # a setting out of range (NaN too) fails before data loads
        settings = _settings(args.command, cfg)
        outdir = Path(args.out)
        meta = {"config_hash": _config_hash(args.command, cfg), "seed": cfg["seed"]}
        with _store.opened():  # for this command only
            files = _COMMANDS[args.command][0](cfg, settings, outdir, meta)
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


def run() -> None:
    """The footcloak script and python -m footcloak.cli: exit with main's
    status, its outputs written, without collecting every object at exit
    (gc.freeze). main itself never freezes: tests and notebooks call it."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
