"""The array data layer against the per-line and per-row oracles in oracles.py.

Readers must give the same ids, CSR arrays, labels and categories as the
line-by-line loaders, or the same ValueError message with the same line
number. Files are generated with ids that hold delimiters, quotes, tabs,
spaces and non-ASCII characters, with blank lines, CRLF endings, header
rows, duplicate pairs and malformed rows. The block-edge tests add lone CR
endings, a byte-order mark and invalid UTF-8, and shrink the reader's block
to a few bytes, so each of these falls across a block edge.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from footcloak import data
from footcloak.data import (
    from_rows,
    load_labels,
    load_triplets,
    make_drop_plan,
)
from footcloak.metafeatures import load_domain_categories

from conftest import random_footprints

# str.splitlines also breaks at these; NUL makes csv.reader raise before 3.11
_NOT_IN_IDS = "\n\r\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_char = st.sampled_from(list(',"\t ab\xe9中\xa0')) | st.characters(
    exclude_characters=_NOT_IN_IDS, exclude_categories=("Cs",)
)
_ids = st.lists(st.text(_char, min_size=0, max_size=4), min_size=1, max_size=6)
_VALUES = ["0", "1", " 1 ", "0.5", "-2e3", "nan", "-inf", "1_0", "x", "", "١"]


def _line(draw, delim, width, pools):
    """One line of a delimited file; most are records, some are malformed."""
    kind = draw(st.sampled_from(["record"] * 6 + ["blank", "junk", "short", "long"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", " \xa0 "]))
    if kind == "junk":
        return draw(st.text(_char, max_size=8))
    n = width + {"record": 0, "short": -1, "long": 1}[kind]
    fields = [draw(st.sampled_from(pools[k % len(pools)])) for k in range(n)]
    if draw(st.booleans()):
        buf = io.StringIO()
        csv.writer(buf, delimiter=delim, lineterminator="").writerow(fields)
        return buf.getvalue()
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return delim.join(pad + f + pad for f in fields)


@st.composite
def delimited_files(draw, width, headers, pools, newlines=("\n", "\r\n")):
    delim = draw(st.sampled_from([",", "\t"]))
    lines = [_line(draw, delim, width, pools) for _ in range(draw(st.integers(0, 12)))]
    if draw(st.booleans()):
        header = draw(st.sampled_from(sorted(headers)))
        if draw(st.booleans()):
            header = tuple(h.upper() for h in header)
        lines.insert(draw(st.integers(0, min(2, len(lines)))), delim.join(header))
    text = draw(st.sampled_from(newlines)).join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


def _comparable(text):
    """The oracle sniffs the delimiter on the first line even when it is
    blank; keep files where that gives the reader's answer."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    nonblank = [line for line in lines if line.strip()]
    return not nonblank or ("\t" in lines[0]) == ("\t" in nonblank[0])


def _assert_equal_arrays(got, want):
    """Pairwise equal values and dtypes."""
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def _run(fn, *args):
    """(result, None), or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except (ValueError, csv.Error) as e:
        return None, (type(e), str(e))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "input.csv"


_ALL_NEWLINES = ("\n", "\r\n", "\r")
_BAD_UTF8 = [b"\xff", b"\xe9", b"\xc3", b"\x80", b"\xed\xa0\x80"]  # last: a surrogate


@st.composite
def _encoded(draw, text):
    """The text's UTF-8 bytes, perhaps after a byte-order mark, and in about
    one file of four an invalid UTF-8 sequence inserted anywhere."""
    raw = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()
    if draw(st.sampled_from([False, False, False, True])):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(_BAD_UTF8)) + raw[at:]
    return raw


def _blocks_of(n_bytes):
    """The reader's block size patched to n_bytes."""
    return mock.patch.object(data, "_BLOCK_BYTES", n_bytes)


@st.composite
def footprint_files(draw, newlines=("\n", "\r\n")):
    users, items = draw(_ids), draw(_ids)
    pools = [users, items]
    return draw(delimited_files(2, oracles.FOOTPRINT_HEADERS, pools, newlines))


def _triplets_agree(path):
    want, want_err = _run(oracles.load_triplets, path)
    got, got_err = _run(load_triplets, path)
    assert got_err == want_err
    if want_err:
        return
    assert (got.user_ids, got.item_ids) == want[:2]
    _assert_equal_arrays((got.indptr, got.indices), want[2:])
    assert got.indptr.dtype == got.indices.dtype == np.int32


@settings(max_examples=300, deadline=None)
@given(text=footprint_files())
def test_load_triplets_matches_line_oracle(scratch, text):
    assume(_comparable(text))
    scratch.write_text(text)
    _triplets_agree(scratch)


@settings(max_examples=300, deadline=None)
@given(text=footprint_files(_ALL_NEWLINES), draw=st.data(), block=st.integers(1, 48))
def test_load_triplets_matches_line_oracle_across_block_edges(
    scratch, text, draw, block
):
    assume(_comparable(text))
    scratch.write_bytes(draw.draw(_encoded(text)))
    with _blocks_of(block):
        _triplets_agree(scratch)


@st.composite
def label_files(draw, newlines=("\n", "\r\n")):
    users, tasks = draw(_ids), draw(_ids)
    pools = [users, tasks, _VALUES]
    text = draw(delimited_files(3, oracles.LABEL_HEADERS, pools, newlines))
    known = draw(st.lists(st.sampled_from(users), unique=True, max_size=len(users)))
    return text, [u.strip() or "_" for u in known]


def _labels_agree(path, user_ids):
    m = from_rows(
        [np.zeros(1, dtype=np.int64)] * len(user_ids), 1, user_ids, ("i",)
    )
    want, want_err = _run(oracles.load_labels, path, m.user_ids)
    got, got_err = _run(load_labels, path, m)
    assert got_err == want_err
    if want_err:
        return
    assert got.task_names == tuple(want)
    for task, arr in want.items():
        np.testing.assert_array_equal(got.values[task], arr)


@settings(max_examples=300, deadline=None)
@given(case=label_files())
def test_load_labels_matches_line_oracle(scratch, case):
    text, user_ids = case
    assume(_comparable(text) and len(set(user_ids)) == len(user_ids))
    scratch.write_text(text)
    _labels_agree(scratch, user_ids)


@settings(max_examples=300, deadline=None)
@given(case=label_files(_ALL_NEWLINES), draw=st.data(), block=st.integers(1, 48))
def test_load_labels_matches_line_oracle_across_block_edges(scratch, case, draw, block):
    text, user_ids = case
    assume(_comparable(text) and len(set(user_ids)) == len(user_ids))
    scratch.write_bytes(draw.draw(_encoded(text)))
    with _blocks_of(block):
        _labels_agree(scratch, user_ids)


@st.composite
def category_files(draw, newlines=("\n", "\r\n")):
    items, cats = draw(_ids), draw(_ids)
    text = draw(delimited_files(2, oracles.CATEGORY_HEADERS, [items, cats], newlines))
    space = draw(st.lists(st.sampled_from(items), unique=True, max_size=len(items)))
    return text, tuple(space + ["_extra"])


def _categories_agree(path, item_ids):
    want, want_err = _run(oracles.load_domain_categories, path, item_ids)
    got, got_err = _run(load_domain_categories, path, item_ids)
    assert got_err == want_err
    if want_err:
        return
    names, item_cat = want
    assert got.labels == names + ("uncategorized",)
    np.testing.assert_array_equal(got.assignment, np.where(item_cat < 0, len(names), item_cat))


@settings(max_examples=300, deadline=None)
@given(case=category_files())
def test_load_domain_categories_matches_line_oracle(scratch, case):
    text, item_ids = case
    assume(_comparable(text))
    scratch.write_text(text)
    _categories_agree(scratch, item_ids)


@settings(max_examples=300, deadline=None)
@given(case=category_files(_ALL_NEWLINES), draw=st.data(), block=st.integers(1, 48))
def test_load_domain_categories_matches_line_oracle_across_block_edges(
    scratch, case, draw, block
):
    text, item_ids = case
    assume(_comparable(text))
    scratch.write_bytes(draw.draw(_encoded(text)))
    with _blocks_of(block):
        _categories_agree(scratch, item_ids)


_EVERY_EDGE = (
    # a BOM, a header, CRLF, blank and whitespace lines, a lone CR, quoted
    # fields, multi-byte characters, a duplicate pair and no last newline
    '\ufeffuser_id,item_id\r\n\r\n"u,1",\u4e2d\ru2, \xe9 \n \xa0 \r\n'
    'u2,"i ""q"""\r\r\nu3,\xe9\nu2, \xe9'
)


@pytest.mark.parametrize(
    "raw",
    [
        _EVERY_EDGE.encode(),
        (_EVERY_EDGE + "\nu4\nu5,i5\n").encode(),  # a bad row
        _EVERY_EDGE.encode().replace(b"u3", b"u\xe93"),  # an invalid byte
        _EVERY_EDGE.encode().replace(b"\xbf", b"\xbf\xe4", 1),  # a split character
    ],
    ids=["clean", "bad-row", "invalid-byte", "bad-after-bom"],
)
def test_every_block_size_reads_as_the_line_oracle(tmp_path, raw):
    path = tmp_path / "f.csv"
    path.write_bytes(raw)
    for block in range(1, len(raw) + 2):
        with _blocks_of(block):
            _triplets_agree(path)


# ---------------------------------------------------------------------------
# the byte-order mark, dropped by reader and oracle alike


def test_bom_before_footprint_header(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("\ufeffuser_id,item_id\nu1,i1\nu2,i2\n", encoding="utf-8")
    m = load_triplets(p)
    assert m.user_ids == ("u1", "u2") and m.item_ids == ("i1", "i2")
    assert (m.user_ids, m.item_ids) == oracles.load_triplets(p)[:2]


def test_bom_before_label_header(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("\ufeffuser_id,task_name,value\nu1,t,1\nu2,t,0\n", encoding="utf-8")
    m = from_rows([np.zeros(1, dtype=np.int64)] * 2, 1, ("u1", "u2"), ("i",))
    labels = load_labels(p, m)
    assert labels.task_names == ("t",)
    np.testing.assert_array_equal(labels.values["t"], [1.0, 0.0])
    np.testing.assert_array_equal(oracles.load_labels(p, m.user_ids)["t"], [1.0, 0.0])


@pytest.mark.parametrize("header", ["item_id,category\n", ""])
def test_bom_before_categories(tmp_path, header):
    p = tmp_path / "c.csv"
    p.write_text(f"\ufeff{header}i1,c1\n", encoding="utf-8")
    mfm = load_domain_categories(p, ("i1", "i2"))
    assert mfm.labels == ("c1", "uncategorized")
    np.testing.assert_array_equal(mfm.assignment, [0, 1])
    names, item_cat = oracles.load_domain_categories(p, ("i1", "i2"))
    assert names == ("c1",) and list(item_cat) == [0, -1]


def test_only_one_leading_bom_is_dropped(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("\ufeff\ufeffu1,i1\nu2,\ufeffi2\n", encoding="utf-8")
    m = load_triplets(p)
    assert m.user_ids == ("\ufeffu1", "u2") and m.item_ids == ("i1", "\ufeffi2")


# ---------------------------------------------------------------------------
# ids the generated files leave out: NUL, and whitespace that str.strip drops


def test_trailing_nuls_keep_ids_apart(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("a,i\na\x00,i\na\x00\x00,i\na\x00,j\n")
    m = load_triplets(p)
    assert m.user_ids == ("a", "a\x00", "a\x00\x00")
    assert m.item_ids == ("i", "j")
    np.testing.assert_array_equal(m.indptr, [0, 1, 3, 4])
    assert (m.user_ids, m.item_ids) == oracles.load_triplets(p)[:2]


@pytest.mark.parametrize("pad", [" ", "\t", "\xa0", "\x1f", " \xa0\x1f"])
def test_ids_differing_by_stripped_padding_merge(tmp_path, pad):
    p = tmp_path / "f.csv"
    p.write_text(f"u1,i1\n{pad}u1,i2\nu1{pad},i1{pad}\n{pad}u2{pad},{pad}i2\n")
    m = load_triplets(p)
    assert m.user_ids == ("u1", "u2") and m.item_ids == ("i1", "i2")
    np.testing.assert_array_equal(m.indptr, [0, 2, 3])
    np.testing.assert_array_equal(m.indices, [0, 1, 1])
    want = oracles.load_triplets(p)
    assert (m.user_ids, m.item_ids) == want[:2]
    _assert_equal_arrays((m.indptr, m.indices), want[2:])


def test_quoted_and_plain_lines_share_codes(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text('u1,i1\n"u1", i2\nu2,"i1"\n" u2 ",i2\n"u3",i3\nu3,i1\n')
    m = load_triplets(p)
    assert m.user_ids == ("u1", "u2", "u3") and m.item_ids == ("i1", "i2", "i3")
    np.testing.assert_array_equal(m.indptr, [0, 2, 4, 6])
    np.testing.assert_array_equal(m.indices, [0, 1, 0, 1, 0, 2])
    want = oracles.load_triplets(p)
    assert (m.user_ids, m.item_ids) == want[:2]
    _assert_equal_arrays((m.indptr, m.indices), want[2:])


# ---------------------------------------------------------------------------
# the two reader fixes (the oracle shows the old behaviour)


def test_blank_first_line_does_not_set_the_delimiter(tmp_path):
    p = tmp_path / "f.tsv"
    p.write_text("\nu1\ti1\n\nu2\ti1\n")
    with pytest.raises(ValueError, match="line 2: expected 2 fields"):
        oracles.load_triplets(p)
    m = load_triplets(p)
    assert m.user_ids == ("u1", "u2") and m.item_ids == ("i1",)
    p.write_text("\nu1\ti1\nu2\n")
    with pytest.raises(ValueError, match="line 3: expected 2 fields"):
        load_triplets(p)


@pytest.mark.parametrize("sep", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_records_split_only_at_newlines(tmp_path, sep):
    p = tmp_path / "f.csv"
    p.write_text(f"u1,i{sep}1\n")
    with pytest.raises(ValueError, match="line 2: expected 2 fields"):
        oracles.load_triplets(p)
    m = load_triplets(p)
    assert m.user_ids == ("u1",) and m.item_ids == (f"i{sep}1",)
    p.write_text(f"u1,i{sep}1\nu2\n")
    with pytest.raises(ValueError, match="line 2: expected 2 fields"):
        load_triplets(p)


def test_quoted_fields_and_unterminated_quote(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text('"u,1"," i ""x"" "\nu2,"i2\nu3,i3\n')
    m = load_triplets(p)
    assert m.user_ids == ("u,1", "u2", "u3")
    assert m.item_ids == ('i "x"', "i2", "i3")


# ---------------------------------------------------------------------------
# whole-array matrix operations


def test_keys_past_int32_stay_exact(tmp_path):
    # 40,000 users x 70,000 items: the key user * n_items + item passes
    # 2**31 from user 30,678 on, where an int32 key would wrap; the loader
    # builds its keys in int64 and must match the oracle
    n_users, n_items = 40_000, 70_000
    lines = [f"u{j % n_users},i{j}" for j in range(n_items)]  # every id once
    last = [(n_users - 1, 0), (n_users - 1, n_items - 1), (n_users - 2, 7),
            (n_users - 2, 30_000), (n_users - 1, 0), (n_users - 3, 69_000)]
    lines += [f"u{u},i{j}" for u, j in last]  # one duplicate pair
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    m = load_triplets(path)
    want = oracles.load_triplets(path)
    assert (m.user_ids, m.item_ids) == want[:2]
    _assert_equal_arrays((m.indptr, m.indices), want[2:])
    assert m.nnz == n_items + len(last) - 1


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(0, 12), st.integers(1, 15)),
    density=st.floats(0.0, 1.0),
)
def test_drop_plan_keep_entries_matches_setdiff_oracle(seed, shape, density):
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, *shape, density=density)
    ranks = make_drop_plan(m, float(rng.uniform()), seed)
    got, want = m.keep_entries(ranks < 0), oracles.apply_drop(m, ranks)
    _assert_equal_arrays((got.indptr, got.indices), (want.indptr, want.indices))
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert got.user_ids == want.user_ids and got.item_ids == want.item_ids


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(0, 12), st.integers(1, 15)),
    density=st.floats(0.0, 1.0),
    drop_fraction=st.floats(0.0, 1.0),
)
def test_drop_plan_matches_list_oracle(seed, shape, density, drop_fraction):
    # the rank plan lists each user's dropped items in the re-add order of
    # the per-user draws, from the same seed
    m = random_footprints(np.random.default_rng(seed), *shape, density=density)
    ranks = make_drop_plan(m, drop_fraction, seed)
    want = oracles.make_drop_plan(m, drop_fraction, seed)
    got = oracles.dropped_items(m, ranks)
    assert len(got) == len(want) == m.n_users
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert ranks.dtype == np.int32 and len(ranks) == m.nnz
    assert (ranks >= 0).sum() == sum(map(len, want))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 15)),
    density=st.floats(0.0, 1.0),
    size=st.integers(0, 20),
)
def test_select_users_matches_concat_oracle(seed, shape, density, size):
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, *shape, density=density)
    order = rng.integers(0, shape[0], size)  # repeats allowed
    got, want = m.select_users(order), oracles.select_users(m, order)
    _assert_equal_arrays((got.indptr, got.indices), (want.indptr, want.indices))
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert got.user_ids == want.user_ids and got.n_items == want.n_items


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(-2, 7), max_size=5), max_size=6),
    n_items=st.integers(1, 6),
)
def test_from_rows_validation_matches_row_oracle(rows, n_items):
    users = tuple(f"u{i}" for i in range(len(rows)))
    items = tuple(f"i{j}" for j in range(n_items))
    arrays = [np.array(r, dtype=np.int64) for r in rows]
    want = oracles.from_rows_error(arrays, n_items)
    if want is None:
        m = from_rows(arrays, n_items, users, items)
        assert m.indptr.dtype == m.indices.dtype == np.int32
        np.testing.assert_array_equal(m.indices, np.concatenate([[]] + rows))
        assert list(np.diff(m.indptr)) == [len(r) for r in rows]
    else:
        with pytest.raises(ValueError) as err:
            from_rows(arrays, n_items, users, items)
        assert str(err.value) == want
