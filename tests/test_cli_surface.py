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

_EXPERIMENT_DEFAULTS = {
    "seed": 0,
    "quantile": 0.95,
    "tolerance_quantile": 0.9,
    "train_frac": 0.66,
    "folds": 3,
    "min_user": 10,
    "min_item": 10,
    "k": 50,
    "schedule": "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "drop_fraction": 0.5,
    "nmf_max_iters": 200,
    "nmf_tol": 0.0001,
    "footprints": None,
    "labels": None,
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
    "train": {**_EXPERIMENT_DEFAULTS, "task": None},
    "explain": {**_EXPERIMENT_DEFAULTS, "task": None, "user": None},
    "cloak": {
        **_EXPERIMENT_DEFAULTS,
        "task": None,
        "strategy": "fg",
        "user": None,
        "domain_mapping": None,
    },
    "simulate": {
        **_EXPERIMENT_DEFAULTS,
        "task": None,
        "strategy": "fg",
        "domain_mapping": None,
    },
    "spillover": {
        **_EXPERIMENT_DEFAULTS,
        "task": None,
        "traits": None,
        "population": "cloaked",
    },
    "report": {
        **_EXPERIMENT_DEFAULTS,
        "tasks": None,
        "strategies": "fg,mf",
        "domain_mapping": None,
    },
}

DEFAULT_HASHES = {
    "synth": "bc24bae7b6888cc2fed92bfff65053b6c245e2fb236f328880d176642a76dfc6",
    "train": "2c0e15499e4f739f43cf2803e10d29c65edb5ad4f8fa5c21c3bf0bbf3f030e7c",
    "explain": "45a9735d9cf9b46c3cbc7296a6dff1ef099f35ac200195bbbd27d3a4fba1d55e",
    "cloak": "bb8c971ff2da8c5a98bafeb326276eb193978ce8eb7be004d72a40e8b95138f9",
    "simulate": "bffa0de048ba4cd6093be2d9022e733f2d33c790519f52c39f0272abcfadd2fc",
    "spillover": "a6784b92ee36ab85a84e88f3f7c761d2e7d88cb3ac23cc1529148a9ef4d99d22",
    "report": "b9ad0db0cf16cc69e5d4088b5fcfab307e4e5f78c26a20d9dc356ab83390d0d1",
}

# the least each command runs with, and the hash of the config it resolves to
_INPUTS = ["--footprints", "f.csv", "--labels", "l.csv"]
REQUIRED = {
    "synth": ([], "bc24bae7b6888cc2fed92bfff65053b6c245e2fb236f328880d176642a76dfc6"),
    "train": (
        [*_INPUTS, "--task", "task_a"],
        "8e4489e56447f5c7a3706da19443d02988f38f7261851a00776217e39794002e",
    ),
    "explain": (
        [*_INPUTS, "--task", "task_a"],
        "40c9ac01a0f742b7df4867d510eec62b432595086626028933335bb19f5a1ed0",
    ),
    "cloak": (
        [*_INPUTS, "--task", "task_a"],
        "d250a8ddcd5732c036ab7eb217088909d7f7a4975c92c603c049001afe4ec1be",
    ),
    "simulate": (
        [*_INPUTS, "--task", "task_a"],
        "919f6216d2b92f69007f646bc964703a90aff4671bfdef7ee472049ed40c7526",
    ),
    "spillover": (
        [*_INPUTS, "--task", "task_a", "--traits", "trait_a"],
        "5cf01a8ecbe02b2f4032f7f41961381675187c41a098ac63a0e8b62d4b9132e3",
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
    cfg = cli._DEFAULTS[command]
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
    assert cli._experiment_config(cli._DEFAULTS["simulate"]) == ExperimentConfig()
