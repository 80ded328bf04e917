"""The CLI surface, pinned as literals.

Each subcommand's options (flag, dest, type, default, required, choices),
its resolved default config and the config hash a manifest records. A
change here changes what users type or what a replayed manifest hashes to.
"""

import argparse

import pytest

from footcloak import ExperimentConfig, cli

_COMMON = {
    "--seed": ("seed", int, None, False, None),
    "--out": ("out", None, None, True, None),
    "--config": ("config", None, None, False, None),
}
_DATA = {
    **_COMMON,
    "--footprints": ("footprints", None, None, False, None),
    "--labels": ("labels", None, None, False, None),
    "--quantile": ("quantile", float, None, False, None),
    "--train-frac": ("train_frac", float, None, False, None),
    "--folds": ("folds", int, None, False, None),
    "--min-user": ("min_user", int, None, False, None),
    "--min-item": ("min_item", int, None, False, None),
}
_STRATEGY = ("strategy", None, None, False, ["domain", "fg", "fg-tol", "mf"])
_TASK = ("task", None, None, False, None)
_TOL = ("tolerance_quantile", float, None, False, None)
_K = ("k", int, None, False, None)
_DOMAIN = ("domain_mapping", None, None, False, None)
_NMF = {
    "--nmf-max-iters": ("nmf_max_iters", int, None, False, None),
    "--nmf-tol": ("nmf_tol", float, None, False, None),
}
_SCHEDULE = {
    "--schedule": ("schedule", None, None, False, None),
    "--drop-fraction": ("drop_fraction", float, None, False, None),
}

OPTIONS = {
    "synth": {
        **_COMMON,
        "--users": ("users", int, None, False, None),
        "--items": ("items", int, None, False, None),
        "--topics": ("topics", int, None, False, None),
        "--dirichlet-alpha": ("dirichlet_alpha", float, None, False, None),
        "--popularity-exponent": ("popularity_exponent", float, None, False, None),
        "--mean-likes": ("mean_likes", int, None, False, None),
    },
    "train": {**_DATA, "--task": _TASK},
    "explain": {**_DATA, "--task": _TASK, "--user": ("user", None, None, False, None)},
    "cloak": {
        **_DATA,
        **_NMF,
        "--task": _TASK,
        "--strategy": _STRATEGY,
        "--user": ("user", None, None, False, None),
        "--tolerance-quantile": _TOL,
        "--k": _K,
        "--domain-mapping": _DOMAIN,
    },
    "simulate": {
        **_DATA,
        **_NMF,
        **_SCHEDULE,
        "--task": _TASK,
        "--strategy": _STRATEGY,
        "--tolerance-quantile": _TOL,
        "--k": _K,
        "--domain-mapping": _DOMAIN,
    },
    "spillover": {
        **_DATA,
        **_NMF,
        "--task": _TASK,
        "--traits": ("traits", None, None, False, None),
        "--population": ("population", None, None, False, ["cloaked", "all-test"]),
        "--k": _K,
    },
    "report": {
        **_DATA,
        **_NMF,
        **_SCHEDULE,
        "--tasks": ("tasks", None, None, False, None),
        "--strategies": ("strategies", None, None, False, None),
        "--tolerance-quantile": _TOL,
        "--k": _K,
        "--domain-mapping": _DOMAIN,
    },
}

# a command's config keys are its flags less --out and --config
_DATA_DEFAULTS = {
    "seed": 0,
    "footprints": None,
    "labels": None,
    "quantile": 0.95,
    "train_frac": 0.66,
    "folds": 3,
    "min_user": 10,
    "min_item": 10,
}
_NMF_DEFAULTS = {"k": 50, "nmf_max_iters": 200, "nmf_tol": 0.0001}
_SCHEDULE_DEFAULTS = {
    "schedule": "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "drop_fraction": 0.5,
}

DEFAULTS = {
    "synth": {
        "seed": 0,
        "users": 2000,
        "items": 5000,
        "topics": 12,
        "dirichlet_alpha": 0.3,
        "popularity_exponent": 1.1,
        "mean_likes": 100,
    },
    "train": {**_DATA_DEFAULTS, "task": None},
    "explain": {**_DATA_DEFAULTS, "task": None, "user": None},
    "cloak": {
        **_DATA_DEFAULTS,
        **_NMF_DEFAULTS,
        "task": None,
        "strategy": "fg",
        "user": None,
        "tolerance_quantile": 0.9,
        "domain_mapping": None,
    },
    "simulate": {
        **_DATA_DEFAULTS,
        **_NMF_DEFAULTS,
        **_SCHEDULE_DEFAULTS,
        "task": None,
        "strategy": "fg",
        "tolerance_quantile": 0.9,
        "domain_mapping": None,
    },
    "spillover": {
        **_DATA_DEFAULTS,
        **_NMF_DEFAULTS,
        "task": None,
        "traits": None,
        "population": "cloaked",
    },
    "report": {
        **_DATA_DEFAULTS,
        **_NMF_DEFAULTS,
        **_SCHEDULE_DEFAULTS,
        "tasks": None,
        "strategies": "fg,mf",
        "tolerance_quantile": 0.9,
        "domain_mapping": None,
    },
}

DEFAULT_HASHES = {
    "synth": "bc24bae7b6888cc2fed92bfff65053b6c245e2fb236f328880d176642a76dfc6",
    "train": "f2b2b6d0f3a1cbe47b61ac0fd8a9a2233e42b7bc966dfa7b8e7cbd3d0d290f0f",
    "explain": "5658dc3c62af6b5f4fcdd8d36cca9304c92ee526f226d1fa475bd8fb3c276a8f",
    "cloak": "2f775bcd3e28e75e1d4e0e4288c5b6147b7ab6d1ae54092b639193da5bb28ecf",
    "simulate": "bffa0de048ba4cd6093be2d9022e733f2d33c790519f52c39f0272abcfadd2fc",
    "spillover": "e5f4f0b175da4c5691a2f7256d63cbb49c899c00f649942ddc9b19fb65b34cc3",
    "report": "b9ad0db0cf16cc69e5d4088b5fcfab307e4e5f78c26a20d9dc356ab83390d0d1",
}

# the least each command runs with, and the hash of the config it resolves to
_INPUTS = ["--footprints", "f.csv", "--labels", "l.csv"]
REQUIRED = {
    "synth": ([], "bc24bae7b6888cc2fed92bfff65053b6c245e2fb236f328880d176642a76dfc6"),
    "train": (
        [*_INPUTS, "--task", "task_a"],
        "247f4f9f9f851e6570bfc73cbb861b9479229bb9bcd2191c69e36f81c6cd213a",
    ),
    "explain": (
        [*_INPUTS, "--task", "task_a"],
        "722df87e7b2c76ce4ca0fa086628b589bcb431ad74544b23d77a210172bb4f86",
    ),
    "cloak": (
        [*_INPUTS, "--task", "task_a"],
        "92b1ae4464ffa82c83788b04ea314e228b08ebb152235cf45f28e8d8159cd9a0",
    ),
    "simulate": (
        [*_INPUTS, "--task", "task_a"],
        "919f6216d2b92f69007f646bc964703a90aff4671bfdef7ee472049ed40c7526",
    ),
    "spillover": (
        [*_INPUTS, "--task", "task_a", "--traits", "trait_a"],
        "f31ec1493b21a7e3d9f0839d55f4becf820741a5d9bee5decef17c7f6633fad7",
    ),
    "report": (
        [*_INPUTS, "--tasks", "task_a"],
        "eb65cca3b45a4c133e81f3ccc0281947fdb559dff776cf7bfa7c9575a4d9faa7",
    ),
}


def _subparsers():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_subcommands():
    assert set(_subparsers()) == set(OPTIONS)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options(command):
    got = {}
    for action in _subparsers()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        (flag,) = action.option_strings
        got[flag] = (
            action.dest,
            action.type,
            action.default,
            action.required,
            None if action.choices is None else list(action.choices),
        )
    assert got == OPTIONS[command]


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_default_config_and_hash(command):
    cfg = cli._defaults(command)
    assert cfg == DEFAULTS[command]
    # same types too: the manifest writes 0.9 and 50, not 0.9000 or 50.0
    assert [type(v) for v in cfg.values()] == [
        type(DEFAULTS[command][k]) for k in cfg
    ]
    assert cli._config_hash(command, cfg) == DEFAULT_HASHES[command]


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_resolved_config_hash(command):
    extra, want = REQUIRED[command]
    args = cli.build_parser().parse_args([command, "--out", "o", *extra])
    assert cli._config_hash(command, cli._resolve_config(command, args)) == want


def test_default_experiment_config():
    assert cli._settings("simulate", cli._defaults("simulate")) == ExperimentConfig()
