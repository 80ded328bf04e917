"""Fuzz test of the CLI: every command over drawn values of its flags.

A run either succeeds, writing strict JSON and CSV files that round-trip,
or fails with a structured error that one of footcloak's own checks
raised: never a traceback, and never Python's, numpy's or scipy's words.
Values are drawn only where the flag's argparse type accepts them, so
argparse never exits. The path flags take the tiny synthetic dataset's
files or nothing, and --config is never given: a missing file fails in
the operating system's words, by design.

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


@st.composite
def _runs(draw):
    """A command and its drawn flags, as {key: argv text}. A flag the run
    needs (it has no default) is mostly given; any other is unset as
    often as not."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = {}
    for key, default in cli._DEFAULTS[command].items():
        admitted, wild = _VALUES[key]
        if default is None and key not in cli._OPTIONAL_KEYS:
            value = draw(st.sampled_from([admitted] * 8 + [wild, None]))
        else:
            value = draw(st.sampled_from([None, None, admitted, admitted, wild]))
        if value is not None:
            flags[key] = str(draw(value))
    return command, flags


def _argv(command, flags, data_dir, out):
    argv = [command, "--out", str(out)]
    for key, value in flags.items():
        if key in _PATHS:
            value = str(data_dir / value)
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
@example(run=("simulate", {**_TRAIN, "schedule": "a,b"}))
@example(run=("train", {**_TRAIN, "seed": "-1"}))
@example(run=("train", {**_TRAIN, "min_user": "1000"}))
@example(run=("train", {**_TRAIN, "min_item": "1000"}))
def test_cli_run_succeeds_or_fails_in_its_own_words(tiny_dataset_dir, run):
    command, flags = run
    reported = []

    def report(*args, file=None, **kwargs):
        # main reports an error inside its except block
        if file is sys.stderr:
            reported.append(sys.exc_info()[1])
        print(*args, file=file, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        out = Path(tmp) / "out"
        stack.enter_context(mock.patch.object(cli, "print", report, create=True))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        rc = cli.main(_argv(command, flags, tiny_dataset_dir, out))
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
