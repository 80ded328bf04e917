"""Fuzz test of the CLI: every command over drawn values of its flags.

A run either succeeds, writing strict JSON and CSV files that round-trip,
or fails with a structured error that one of footcloak's own checks
raised: never a traceback, and never Python's, numpy's or scipy's words.
Values are drawn only where the flag's argparse type accepts them, so
argparse never exits. The path flags take the tiny synthetic dataset's
files or nothing. About half the runs move some of their settings into a
config file that the test writes: key=value text, or a manifest.json whose
values mostly have their flag's JSON type and otherwise another one. A
missing config file fails in the operating system's words, by design, so
--config always names one.

Tier-1 runs 40 drawn runs and the explicit examples; CI runs the
larger budget of the ci profile (HYPOTHESIS_PROFILE=ci, see conftest.py).
"""

import contextlib
import csv
import io
import json
import linecache
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import footcloak
from footcloak import cli
from footcloak._util import csv_text

_PACKAGE = Path(footcloak.__file__).resolve().parent

_EXAMPLES = (
    settings.get_profile("ci").max_examples
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci"
    else 40
)


def _floats(lo, hi):
    """Floats of [lo, hi], and any float, NaN and the infinities too."""
    return st.floats(lo, hi), st.floats()


def _ints(lo, hi, wild_lo, wild_hi, *far):
    """Integers of [lo, hi], and of [wild_lo, wild_hi] or far."""
    wild = st.integers(wild_lo, wild_hi)
    return st.integers(lo, hi), wild | st.sampled_from(far) if far else wild


def _lists(names, wild):
    """Comma-separated lists of names; the wild lists may be empty and
    hold names the dataset or the CLI does not know."""
    return (
        st.lists(st.sampled_from(names), min_size=1, max_size=3).map(",".join),
        st.lists(st.sampled_from([*names, *wild]), max_size=3).map(",".join),
    )


def _one_of(names, wild):
    return st.sampled_from(names), st.sampled_from([*names, *wild])


_STRATEGIES = sorted(cli._STRATEGY_BY_FLAG)
_SCHEDULE_TEXT = st.floats(0.0, 1.0).map(str)

# flag key -> (the values its checks admit, wild values), as argv text. A
# run leaves a flag unset, or draws from either. The sizes stay small,
# and far values only where a check rejects them before any work, so that
# no run allocates much or runs long.
_VALUES = {
    "seed": _ints(0, 20, -2, 20, 2**64),
    "quantile": _floats(0.5, 0.99),
    "train_frac": _floats(0.3, 0.8),
    "folds": _ints(2, 4, -1, 6, 10**6),
    "min_user": _ints(0, 20, -2, 40, 1000),
    "min_item": _ints(0, 20, -2, 40, 1000),
    "task": _one_of(["task_a", "task_b", "task_c"], ["trait_a", "nope"]),
    "tasks": _lists(["task_a", "task_b", "task_c"], ["trait_a", "nope"]),
    "user": _one_of(["u00003", "u00100", "u00255"], ["nobody"]),
    "strategy": (st.sampled_from(_STRATEGIES),) * 2,
    "strategies": _lists(_STRATEGIES, ["bogus"]),
    "tolerance_quantile": _floats(0.5, 0.99),
    "k": _ints(1, 8, -1, 12),
    "schedule": (
        st.lists(_SCHEDULE_TEXT, min_size=1, max_size=4).map(",".join),
        st.lists(
            _SCHEDULE_TEXT | st.floats().map(str) | st.sampled_from(["a", "", " "]),
            max_size=4,
        ).map(",".join),
    ),
    "drop_fraction": _floats(0.0, 1.0),
    "nmf_max_iters": _ints(1, 20, -1, 30),
    "nmf_tol": _floats(0.0, 1e-2),
    "traits": _lists(
        ["trait_a", "trait_b", "trait_c", "trait_d", "trait_e"], ["task_a", "nope"]
    ),
    "population": (st.sampled_from(cli._FLAGS["population"]["choices"]),) * 2,
    "users": _ints(2, 60, -1, 60),
    "items": _ints(1, 80, -1, 80),
    "topics": _ints(1, 8, -1, 10),
    "dirichlet_alpha": _floats(0.05, 2.0),
    "popularity_exponent": _floats(-3.0, 3.0),
    "mean_likes": _ints(0, 40, -1, 60),
}
# the path flags take the dataset's files
_PATHS = {
    "footprints": "footprints.csv",
    "labels": "labels.csv",
    "domain_mapping": "domain_categories.csv",
}
_VALUES.update({key: (st.just(name),) * 2 for key, name in _PATHS.items()})
_NOT_DRAWN = {"out", "config"}


def test_every_flag_is_drawn():
    assert set(_VALUES) | _NOT_DRAWN == set(cli._FLAGS)


# a JSON value of each type, for manifest values of the wrong type
_JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-2, 3),
    float: st.floats(-2.0, 3.0),
    str: st.sampled_from(["", "x", "0.5"]),
    list: st.lists(st.integers(0, 2), max_size=2),
}


@st.composite
def _json_value(draw, key, text):
    """A manifest's value for key: in 2 draws of 3 the text as its flag's
    type, else a value of a JSON type the flag does not take."""
    kind = cli._FLAGS[key].get("type", str)
    if draw(st.integers(0, 2)):
        return kind(text)
    admitted = (int, float) if kind is float else (kind,)
    return draw(st.one_of(*(v for t, v in _JSON_VALUES.items() if t not in admitted)))


@st.composite
def _runs(draw):
    """A command, its drawn flags as {key: argv text}, and its config file:
    None, or ("text", {key: text}) or ("manifest", {key: JSON value}),
    which holds some of the drawn settings instead of the flags. A setting
    the run needs (it has no default) is mostly given; any other is unset
    as often as not."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = {}
    for key, default in cli._defaults(command).items():
        admitted, wild = _VALUES[key]
        if default is None and key not in cli._OPTIONAL_KEYS:
            value = draw(st.sampled_from([admitted] * 8 + [wild, None]))
        else:
            value = draw(st.sampled_from([None, None, admitted, admitted, wild]))
        if value is not None:
            flags[key] = str(draw(value))
    form = draw(st.sampled_from([None, None, "text", "manifest"]))
    if form is None:
        return command, flags, None
    keys = draw(st.sets(st.sampled_from(sorted(flags)))) if flags else set()
    config = {key: flags.pop(key) for key in sorted(keys)}
    if form == "manifest":
        config = {key: draw(_json_value(key, text)) for key, text in config.items()}
    return command, flags, (form, config)


def _data_path(key, value, data_dir):
    """value, with a path setting's file name as the dataset's file."""
    return str(data_dir / value) if key in _PATHS and value == _PATHS[key] else value


def _write_config(path, command, config, data_dir):
    form, values = config
    values = {key: _data_path(key, val, data_dir) for key, val in values.items()}
    if form == "text":
        path.write_text("".join(f"{key}={val}\n" for key, val in values.items()))
    else:
        path.write_text(json.dumps({"command": command, "config": values}))


def _argv(command, flags, data_dir, out):
    argv = [command, "--out", str(out)]
    for key, value in flags.items():
        value = _data_path(key, value, data_dir)
        # --key=value: argparse reads "-1e-05" after a bare flag as a flag
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def _raise_site(exc):
    """The file and line of the statement that raised exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).resolve(), tb.tb_lineno


def _check_files(out):
    assert (out / "manifest.json").exists()
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            def reject(name):
                raise AssertionError(f"{path.name} holds bare {name}")

            json.loads(text, parse_constant=reject)
        else:
            assert path.suffix == ".csv"
            header, *rows = csv.reader(io.StringIO(text, newline=""))
            assert text == csv_text(header, rows), path.name


_TRAIN = {"footprints": "footprints.csv", "labels": "labels.csv", "task": "task_a"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=_EXAMPLES, deadline=None, database=None)
@given(run=_runs())
@example(run=("simulate", {**_TRAIN, "schedule": "a,b"}, None))
@example(run=("train", {**_TRAIN, "seed": "-1"}, None))
@example(run=("train", {**_TRAIN, "min_user": "1000"}, None))
@example(run=("train", {**_TRAIN, "min_item": "1000"}, None))
@example(run=("simulate", _TRAIN, ("manifest", {"schedule": 1})))
@example(run=("train", _TRAIN, ("manifest", {"folds": 2.5})))
@example(run=("train", _TRAIN, ("manifest", {"quantile": True})))
def test_cli_run_succeeds_or_fails_in_its_own_words(tiny_dataset_dir, run):
    command, flags, config = run
    reported = []

    def report(*args, file=None, **kwargs):
        # main reports an error inside its except block
        if file is sys.stderr:
            reported.append(sys.exc_info()[1])
        print(*args, file=file, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        out = Path(tmp) / "out"
        argv = _argv(command, flags, tiny_dataset_dir, out)
        if config is not None:
            cfg = Path(tmp) / "run.cfg"
            _write_config(cfg, command, config, tiny_dataset_dir)
            argv.append(f"--config={cfg}")
        stack.enter_context(mock.patch.object(cli, "print", report, create=True))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        rc = cli.main(argv)
        if rc == 0:
            _check_files(out)
            return
        assert rc == 1
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}
        (exc,) = reported
        path, lineno = _raise_site(exc)
        source = linecache.getline(str(path), lineno).strip()
        assert path.parent == _PACKAGE and source.startswith("raise "), (
            f"{type(exc).__name__}: {exc} at {path}:{lineno}: {source}"
        )
        assert not out.exists()
