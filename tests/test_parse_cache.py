"""The store's dataset entries against the library parse.

With the store open, cli._load_dataset reads the footprints and labels
from one store entry keyed by the reader's and the CLI's source and both
files' bytes, or parses them and writes the entry. A miss, a hit and the library parse must give the same
arrays (dtype included), ids and label values; a bad entry, an unwritable
or disabled cache, an input that is no regular file and an input rewritten
during the parse all fall back to the parse; and the cache changes no
output byte.
"""

import gc
import logging
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footcloak import _store, cli, data
from footcloak.data import load_labels, load_triplets

# an id starts with a letter, so no id strips to empty; the rest holds the
# delimiters, a quote, padding, non-ASCII and trailing NULs, which the
# reader keeps as id characters
_id = st.tuples(
    st.sampled_from(list("ab中é")),
    st.text(st.sampled_from(list('ab,"\t é中')), max_size=3),
    st.sampled_from(["", "\x00", "\x00\x00"]),
).map("".join)
_VALUES = ["0", "1", " 1 ", "0.5", "nan", "-2e3"]


def _field(text, delim):
    """A field as a CSV writer quotes it: only when it must."""
    if delim in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _dataset(draw):
    """Footprints and labels bytes with one delimiter, line end and BOM
    choice: repeated pairs and rows naming users the footprints lack."""
    delim = draw(st.sampled_from([",", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    users = draw(st.lists(_id, min_size=1, max_size=5))
    items = draw(st.lists(_id, min_size=1, max_size=5))
    tasks = draw(st.lists(_id, min_size=1, max_size=3))
    pair = st.tuples(st.sampled_from(users), st.sampled_from(items))
    pairs = draw(st.lists(pair, min_size=1, max_size=12))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # repeats
    labeled = users + draw(st.lists(_id, max_size=2))  # perhaps unknown users
    row = st.tuples(
        st.sampled_from(labeled), st.sampled_from(tasks), st.sampled_from(_VALUES)
    )
    rows = draw(st.lists(row, max_size=12))

    def encode(records):
        lines = [delim.join(_field(f, delim) for f in r) for r in records]
        end = draw(st.sampled_from(["", newline]))
        return bom + (newline.join(lines) + end).encode()

    return encode(pairs), encode(rows)


def _outcome(fn, *args):
    """(result, None), or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # a reader error must be the same on every path
        return None, (type(exc), str(exc))


def _library(cfg):
    m = load_triplets(cfg["footprints"])
    return m, load_labels(cfg["labels"], m)


def _assert_same(got, want):
    (gm, gl), (wm, wl) = got, want
    for g, w in ((gm.indptr, wm.indptr), (gm.indices, wm.indices)):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    for name in ("n_items", "user_ids", "item_ids"):
        assert getattr(gm, name) == getattr(wm, name)
    assert gl.task_names == wl.task_names and gl.n_users == wl.n_users
    for task in wl.task_names:
        assert gl.values[task].dtype == wl.values[task].dtype
        np.testing.assert_array_equal(gl.values[task], wl.values[task])  # NaN too


def _no_parse():
    """The readers patched to fail: a load under it must be a cache hit."""
    fail = mock.Mock(side_effect=AssertionError("parsed on a cache hit"))
    return mock.patch.multiple(data, load_triplets=fail, load_labels=fail)


def _entries(cache: Path) -> list[str]:
    """The kinds of the cache's entries, sorted."""
    if not cache.exists():
        return []
    return sorted(p.name.split(".", 1)[1] for p in cache.iterdir())


@settings(max_examples=150, deadline=None)
@given(case=_dataset())
def test_miss_then_hit_match_the_library_parse(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = {"footprints": tmp / "footprints.csv", "labels": tmp / "labels.csv"}
        cfg["footprints"].write_bytes(case[0])
        cfg["labels"].write_bytes(case[1])
        with (
            mock.patch.dict(os.environ, FOOTCLOAK_CACHE_DIR=str(tmp / "cache")),
            _store.opened(),
        ):
            miss, miss_err = _outcome(cli._load_dataset, cfg)
            if miss_err is None:
                assert _entries(tmp / "cache") == ["dataset.npz"]
                with _no_parse():
                    hit = cli._load_dataset(cfg)
        want, want_err = _outcome(_library, cfg)
        assert miss_err == want_err
        if want_err is None:
            _assert_same(miss, want)
            _assert_same(hit, want)


@pytest.fixture
def dataset(tiny_dataset_dir, tmp_path, monkeypatch):
    """The tiny dataset's files, and the store open in an empty directory."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("FOOTCLOAK_CACHE_DIR", str(cache))
    cfg = {
        "footprints": tiny_dataset_dir / "footprints.csv",
        "labels": tiny_dataset_dir / "labels.csv",
    }
    with _store.opened():
        yield cfg, cache


def _truncate(raw):
    return raw[: len(raw) // 2]


def _garbage(raw):
    return b"not an archive" * 10


def _flip_data_byte(raw):
    # entries are stored uncompressed: a byte of the arrays fails the CRC
    at = len(raw) // 2
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]


@pytest.mark.parametrize("damage", [_truncate, _garbage, _flip_data_byte])
def test_a_bad_entry_is_parsed_again_and_rewritten(dataset, damage, caplog):
    cfg, cache = dataset
    want = _library(cfg)
    _assert_same(cli._load_dataset(cfg), want)
    for entry in cache.iterdir():
        entry.write_bytes(damage(entry.read_bytes()))
    with caplog.at_level(logging.DEBUG, logger="footcloak._store"):
        _assert_same(cli._load_dataset(cfg), want)
    assert [r.message.split(":")[0] for r in caplog.records] == ["store miss"]
    with _no_parse():
        _assert_same(cli._load_dataset(cfg), want)
    assert _entries(cache) == ["dataset.npz"]


def test_an_edited_input_or_reader_misses(dataset, tmp_path, monkeypatch):
    cfg, cache = dataset
    cli._load_dataset(cfg)
    # the same pairs, users first seen in another order: the same labels
    # file aligns to other rows
    lines = cfg["footprints"].read_bytes().splitlines(keepends=True)
    footprints = tmp_path / "footprints.csv"
    footprints.write_bytes(b"".join(lines[:1] + lines[:0:-1]))
    cfg = {**cfg, "footprints": footprints}
    _assert_same(cli._load_dataset(cfg), _library(cfg))
    assert _entries(cache) == ["dataset.npz"] * 2
    labels = tmp_path / "labels.csv"
    labels.write_bytes(cfg["labels"].read_bytes() + b"u_new,task_a,1\n")
    cfg = {**cfg, "labels": labels}
    with mock.patch.object(data, "load_triplets", wraps=data.load_triplets) as parse:
        _assert_same(cli._load_dataset(cfg), _library(cfg))
    assert parse.call_count == 1  # a labels edit parses the footprints again
    assert _entries(cache) == ["dataset.npz"] * 3
    for n, module in enumerate(("data.py", "cli.py"), start=4):
        sources = tmp_path / f"sources-{n}"
        shutil.copytree(_store._SOURCES, sources)
        with open(sources / module, "ab") as f:
            f.write(b"\n")
        monkeypatch.setattr(_store, "_SOURCES", sources)
        _assert_same(cli._load_dataset(cfg), _library(cfg))
        assert _entries(cache) == ["dataset.npz"] * n


def test_an_input_rewritten_during_the_parse_is_not_stored(dataset, tmp_path):
    cfg, cache = dataset
    full = cfg["footprints"].read_bytes()
    footprints = tmp_path / "footprints.csv"
    footprints.write_bytes(full)
    cfg = {**cfg, "footprints": footprints}
    parse = data.load_triplets

    def rewrite_then_parse(path):  # the file changes after it was hashed
        lines = full.splitlines(keepends=True)
        footprints.write_bytes(b"".join(lines[: len(lines) // 2]))
        return parse(path)

    with mock.patch.object(data, "load_triplets", rewrite_then_parse):
        cli._load_dataset(cfg)
    footprints.write_bytes(full)
    _assert_same(cli._load_dataset(cfg), _library(cfg))
    assert _entries(cache) == ["dataset.npz"]  # from the second load only


def test_a_fifo_input_is_parsed_and_not_cached(dataset, tmp_path):
    cfg, cache = dataset
    for key in ("footprints", "labels"):
        fifo = tmp_path / f"{key}.fifo"
        os.mkfifo(fifo)
        got = {}
        threads = [
            threading.Thread(target=target, daemon=True)
            for target in (
                lambda: fifo.write_bytes(cfg[key].read_bytes()),
                lambda: got.update(dataset=cli._load_dataset({**cfg, key: fifo})),
            )
        ]
        for thread in threads:
            thread.start()
        for thread in threads:  # a load that read the FIFO twice waits forever
            thread.join(timeout=10)
            assert not thread.is_alive()
        _assert_same(got["dataset"], _library(cfg))
        assert _entries(cache) == []


def test_a_missing_input_raises_as_the_parser_does(dataset, tmp_path):
    cfg, cache = dataset
    for key in ("footprints", "labels"):
        missing = {**cfg, key: tmp_path / "missing.csv"}
        with pytest.raises(FileNotFoundError) as got:
            cli._load_dataset(missing)
        with pytest.raises(FileNotFoundError) as want:
            _library(missing)
        assert str(got.value) == str(want.value)


def _train(data_dir: Path, out: Path) -> int:
    return cli.main([
        "train", "--footprints", str(data_dir / "footprints.csv"),
        "--labels", str(data_dir / "labels.csv"), "--task", "task_a", "--out", str(out),
    ])


def _tree(path: Path) -> dict:
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}


def test_cold_warm_unwritable_and_off_write_the_same_bytes(
    tiny_dataset_dir, tmp_path, monkeypatch
):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    (tmp_path / "a-file").write_text("")
    runs = {
        "cold": tmp_path / "cache",
        "warm": tmp_path / "cache",
        "unwritable": tmp_path / "a-file" / "cache",  # its parent is a file
        "off": "",
    }
    for name, cache in runs.items():
        monkeypatch.setenv("FOOTCLOAK_CACHE_DIR", str(cache))
        assert _train(tiny_dataset_dir, tmp_path / name) == 0
    want = _tree(tmp_path / "cold")
    for name in runs:
        assert _tree(tmp_path / name) == want
    assert _entries(tmp_path / "cache") == ["dataset.npz", "fit.npz"]
    assert not (tmp_path / "xdg").exists() and not (tmp_path / "home").exists()


def test_the_default_cache_follows_xdg_then_home(monkeypatch, tmp_path):
    monkeypatch.delenv("FOOTCLOAK_CACHE_DIR")
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert _store.cache_dir() == tmp_path / "xdg" / "footcloak"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert _store.cache_dir() == tmp_path / ".cache" / "footcloak"
    monkeypatch.setenv("FOOTCLOAK_CACHE_DIR", "")
    assert _store.cache_dir() is None


def test_main_never_freezes_and_run_does(tiny_dataset_dir, tmp_path, monkeypatch):
    frozen = gc.get_freeze_count()
    assert _train(tiny_dataset_dir, tmp_path / "main") == 0
    assert gc.get_freeze_count() == frozen
    argv = ["footcloak", "synth", "--users", "20", "--items", "30", "--topics", "3",
            "--mean-likes", "5", "--out", str(tmp_path / "run")]
    monkeypatch.setattr(sys, "argv", argv)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    shutil.rmtree(tmp_path / "run")
