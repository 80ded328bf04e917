"""The array data layer against the per-line and per-row oracles in oracles.py.

Readers must give the same ids, CSR arrays, labels and categories as the
line-by-line loaders, or the same ValueError message with the same line
number. Files are generated with ids that hold delimiters, quotes, tabs,
spaces and non-ASCII characters, with blank lines, CRLF endings, header
rows, duplicate pairs and malformed rows.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from footcloak.data import (
    DropPlan,
    apply_drop,
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
def delimited_files(draw, width, headers, pools):
    delim = draw(st.sampled_from([",", "\t"]))
    lines = [_line(draw, delim, width, pools) for _ in range(draw(st.integers(0, 12)))]
    if draw(st.booleans()):
        header = draw(st.sampled_from(sorted(headers)))
        if draw(st.booleans()):
            header = tuple(h.upper() for h in header)
        lines.insert(draw(st.integers(0, min(2, len(lines)))), delim.join(header))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


def _comparable(text):
    """The oracle sniffs the delimiter on the first line even when it is
    blank; keep files where that gives the reader's answer."""
    lines = text.replace("\r\n", "\n").split("\n")
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


@st.composite
def footprint_files(draw):
    users, items = draw(_ids), draw(_ids)
    return draw(delimited_files(2, oracles.FOOTPRINT_HEADERS, [users, items]))


@settings(max_examples=300, deadline=None)
@given(text=footprint_files())
def test_load_triplets_matches_line_oracle(scratch, text):
    assume(_comparable(text))
    scratch.write_text(text)
    want, want_err = _run(oracles.load_triplets, scratch)
    got, got_err = _run(load_triplets, scratch)
    assert got_err == want_err
    if want_err:
        return
    assert (got.user_ids, got.item_ids) == want[:2]
    _assert_equal_arrays((got.indptr, got.indices), want[2:])
    assert got.indptr.dtype == got.indices.dtype == np.int32


@st.composite
def label_files(draw):
    users, tasks = draw(_ids), draw(_ids)
    text = draw(delimited_files(3, oracles.LABEL_HEADERS, [users, tasks, _VALUES]))
    known = draw(st.lists(st.sampled_from(users), unique=True, max_size=len(users)))
    return text, [u.strip() or "_" for u in known]


@settings(max_examples=300, deadline=None)
@given(case=label_files())
def test_load_labels_matches_line_oracle(scratch, case):
    text, user_ids = case
    assume(_comparable(text) and len(set(user_ids)) == len(user_ids))
    scratch.write_text(text)
    m = from_rows(
        [np.zeros(1, dtype=np.int64)] * len(user_ids), 1, user_ids, ("i",)
    )
    want, want_err = _run(oracles.load_labels, scratch, m.user_ids)
    got, got_err = _run(load_labels, scratch, m)
    assert got_err == want_err
    if want_err:
        return
    assert got.task_names == tuple(want)
    for task, arr in want.items():
        np.testing.assert_array_equal(got.values[task], arr)


@st.composite
def category_files(draw):
    items, cats = draw(_ids), draw(_ids)
    text = draw(delimited_files(2, oracles.CATEGORY_HEADERS, [items, cats]))
    space = draw(st.lists(st.sampled_from(items), unique=True, max_size=len(items)))
    return text, tuple(space + ["_extra"])


@settings(max_examples=300, deadline=None)
@given(case=category_files())
def test_load_domain_categories_matches_line_oracle(scratch, case):
    text, item_ids = case
    assume(_comparable(text))
    scratch.write_text(text)
    want, want_err = _run(oracles.load_domain_categories, scratch, item_ids)
    got, got_err = _run(load_domain_categories, scratch, item_ids)
    assert got_err == want_err
    if want_err:
        return
    names, item_cat = want
    assert got.labels == names + ("uncategorized",)
    np.testing.assert_array_equal(got.assignment, np.where(item_cat < 0, len(names), item_cat))


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
    # and apply_drop build their keys in int64 and must match the oracles
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
    empty = np.empty(0, dtype=np.int64)
    plan = DropPlan(
        (empty,) * (n_users - 3)
        + (np.array([69_000]), np.array([30_000, 5]), np.array([n_items - 1, 0]))
    )
    got, want = apply_drop(m, plan), oracles.apply_drop(m, plan)
    _assert_equal_arrays((got.indptr, got.indices), (want.indptr, want.indices))
    assert got.row(n_users - 1).tolist() == [n_users - 1]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(0, 12), st.integers(1, 15)),
    density=st.floats(0.0, 1.0),
    from_plan=st.booleans(),
)
def test_apply_drop_matches_setdiff_oracle(seed, shape, density, from_plan):
    rng = np.random.default_rng(seed)
    m = random_footprints(rng, *shape, density=density)
    if from_plan:
        plan = make_drop_plan(m, float(rng.uniform()), seed)
    else:  # any in-range items, present in the row or not, in any order
        plan = DropPlan(
            tuple(
                rng.permutation(shape[1])[: rng.integers(0, shape[1] + 1)]
                for _ in range(shape[0])
            )
        )
    got, want = apply_drop(m, plan), oracles.apply_drop(m, plan)
    _assert_equal_arrays((got.indptr, got.indices), (want.indptr, want.indices))
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert got.user_ids == want.user_ids and got.item_ids == want.item_ids


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
