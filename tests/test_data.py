from pathlib import Path

import numpy as np
import pytest

from footcloak.data import (
    _select_entries,
    filter_min_activity,
    from_rows,
    load_labels,
    load_triplets,
    make_drop_plan,
    split_train_test,
)
from footcloak.data import LabelTable
from footcloak.metafeatures import load_domain_categories

from conftest import random_footprints
from oracles import dense, dropped_items, readd


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# loading


def test_load_triplets_basic(tmp_path):
    p = _write(tmp_path, "f.csv", "u1,i1\nu1,i2\nu2,i1\n")
    m = load_triplets(p)
    assert m.n_users == 2 and m.n_items == 2 and m.nnz == 3
    assert m.user_ids == ("u1", "u2") and m.item_ids == ("i1", "i2")
    assert list(m.row(0)) == [0, 1] and list(m.row(1)) == [0]


def test_load_triplets_header_and_tsv(tmp_path):
    p = _write(tmp_path, "f.tsv", "user_id\titem_id\nu1\ti1\nu2\ti2\n")
    m = load_triplets(p)
    assert m.n_users == 2 and m.nnz == 2


def test_load_triplets_duplicates_collapse(tmp_path):
    p = _write(tmp_path, "f.csv", "u1,i1\nu1,i1\nu1,i1\n")
    m = load_triplets(p)
    assert m.n_users == 1 and m.n_items == 1 and m.nnz == 1


def test_load_triplets_empty(tmp_path):
    m = load_triplets(_write(tmp_path, "f.csv", ""))
    assert m.n_users == 0 and m.n_items == 0 and m.nnz == 0


def test_load_triplets_malformed_names_line(tmp_path):
    p = _write(tmp_path, "f.csv", "u1,i1\nu2\nu3,i3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_triplets(p)


def test_load_triplets_first_seen_order(tmp_path):
    p = _write(tmp_path, "f.csv", "ub,i9\nua,i1\nub,i1\n")
    m = load_triplets(p)
    assert m.user_ids == ("ub", "ua")
    assert m.item_ids == ("i9", "i1")
    # row content is sorted by dense index, not id string
    assert list(m.row(0)) == [0, 1]


def test_load_labels_aligned(tmp_path):
    fp = _write(tmp_path, "f.csv", "u1,i1\nu2,i1\n")
    lp = _write(
        tmp_path,
        "l.csv",
        "user_id,task_name,value\nu1,taskx,1\nu2,taskx,0\nu1,traity,3.5\nzz,taskx,1\n",
    )
    m = load_triplets(fp)
    lab = load_labels(lp, m)
    assert lab.is_binary("taskx") and not lab.is_binary("traity")
    np.testing.assert_allclose(lab.values["taskx"], [1.0, 0.0])
    assert np.isnan(lab.values["traity"][1])


def test_load_labels_malformed(tmp_path):
    fp = _write(tmp_path, "f.csv", "u1,i1\n")
    lp = _write(tmp_path, "l.csv", "u1,taskx,notanumber\n")
    m = load_triplets(fp)
    with pytest.raises(ValueError, match="line 1"):
        load_labels(lp, m)
    # a value float() reads as +-inf is no label; nan stays a missing one
    for raw in ("inf", "-Infinity", "1e999"):
        lp = _write(tmp_path, "l.csv", f"u1,taskx,1\nu1,taskx,{raw}\n")
        with pytest.raises(
            ValueError, match=f"^line 2: value '{raw}' is not a finite number$"
        ):
            load_labels(lp, m)
    lp = _write(tmp_path, "l.csv", "u1,taskx,nan\n")
    assert np.isnan(load_labels(lp, m).values["taskx"][0])


_LOADERS = {
    "footprints": ("user_id,item_id", "u{},i{}", load_triplets),
    "labels": (
        "user_id,task_name,value",
        "u{},t,{}",
        lambda p: load_labels(p, from_rows([], 1, (), ("i",))),
    ),
    "categories": (
        "item_id,category",
        "i{},c{}",
        lambda p: load_domain_categories(p, ("i1", "i2")),
    ),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("bad_line", [2, 5])
@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_invalid_utf8_names_its_line(tmp_path, kind, bad_line, newline):
    # a Latin-1 "\xe9" is not UTF-8; lines end at "\n", "\r\n" or a lone
    # "\r", as read_text's universal newlines count them
    header, row, load = _LOADERS[kind]
    lines = [header.encode()] + [row.format(i, i).encode() for i in range(1, 7)]
    lines[bad_line - 1] += b"caf\xe9"
    p = tmp_path / "bad.csv"
    p.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(ValueError, match=f"^line {bad_line}: not valid UTF-8$"):
        load(p)


def test_load_triplets_memory_is_bounded_by_file_size(tmp_path):
    """Loading the default 2000 x 5000 synthetic footprints (199k lines)
    allocates at most 10x the file's bytes at its peak."""
    import tracemalloc

    from footcloak import synth
    from footcloak._util import write_results

    res = synth.generate(synth.SynthConfig(n_users=2000, n_items=5000))
    write_results(tmp_path, synth.dataset_files(res))
    path = tmp_path / "footprints.csv"
    tracemalloc.start()
    try:
        m = load_triplets(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == res.matrix.nnz
    assert peak <= 10 * path.stat().st_size


def test_load_triplets_peak_grows_at_most_40_bytes_per_line(tmp_path, monkeypatch):
    """From a 50k- to a 200k-line file, the tracemalloc peak of load_triplets
    grows by at most 40 bytes per added line. The block is 64 KiB, so both
    files span several blocks and the per-block working set is the same in
    both."""
    import tracemalloc

    from footcloak import data

    monkeypatch.setattr(data, "_BLOCK_BYTES", 1 << 16)
    peaks = []
    for n in (50_000, 200_000):
        path = tmp_path / f"f{n}.csv"
        lines = (f"u{j // 100:05d},i{j * 7919 % 5000:05d}\n" for j in range(n))
        path.write_text("".join(lines))
        tracemalloc.start()
        try:
            m = load_triplets(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert m.nnz == n
    assert peaks[1] - peaks[0] <= 40 * 150_000


# ---------------------------------------------------------------------------
# filtering


def _brute_filter(m, min_user, min_item):
    """Independent oracle: same contract, dense arithmetic."""
    X = dense(m)
    keep_items = X.sum(axis=0) >= min_item
    reduced = X[:, keep_items]
    keep_users = reduced.sum(axis=1) >= min_user
    return reduced[keep_users]


def test_filter_example():
    # item 2 has one like and gets dropped at min_item=2; user u2 then
    # falls below min_user=2 and is dropped as well
    rows = [np.array([0, 1]), np.array([1, 2]), np.array([0, 1])]
    m = from_rows(rows, 3, ("u0", "u1", "u2"), ("a", "b", "c"))
    out = filter_min_activity(m, min_user=2, min_item=2)
    assert out.user_ids == ("u0", "u2")
    assert out.item_ids == ("a", "b")
    assert out.nnz == 4


def test_filter_threshold_boundary_kept():
    rows = [np.array([0]), np.array([0])]
    m = from_rows(rows, 1, ("u0", "u1"), ("a",))
    out = filter_min_activity(m, min_user=1, min_item=2)
    assert out.n_users == 2 and out.n_items == 1


def test_filter_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = random_footprints(rng, 30, 20, density=0.25)
        mu, mi = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        got = filter_min_activity(m, mu, mi)
        want = _brute_filter(m, mu, mi)
        assert got.indptr.dtype == got.indices.dtype == np.int32
        assert dense(got).shape == want.shape
        np.testing.assert_array_equal(dense(got), want)


def test_filter_zero_thresholds_keep_everything():
    rng = np.random.default_rng(5)
    m = random_footprints(rng, 10, 10)
    out = filter_min_activity(m, 0, 0)
    assert out.n_users == 10 and out.n_items == 10 and out.nnz == m.nnz


# ---------------------------------------------------------------------------
# splitting


def _empty_labels(n):
    return LabelTable({"t": np.zeros(n)}, n)


def test_split_sizes_66_34():
    rng = np.random.default_rng(6)
    m = random_footprints(rng, 100, 10)
    train, test = split_train_test(m, _empty_labels(100), 0.66, seed=0)
    assert train.matrix.n_users == 66 and test.matrix.n_users == 34
    together = sorted(train.matrix.user_ids + test.matrix.user_ids)
    assert together == sorted(m.user_ids)


def test_split_rounding_half_away():
    rng = np.random.default_rng(7)
    m = random_footprints(rng, 5, 8)
    train, test = split_train_test(m, _empty_labels(5), 0.5, seed=1)
    # 5 * 0.5 = 2.5 rounds to 3
    assert train.matrix.n_users == 3 and test.matrix.n_users == 2


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(8)
    m = random_footprints(rng, 40, 12)
    lab = _empty_labels(40)
    t1, _ = split_train_test(m, lab, 0.66, seed=3)
    t2, _ = split_train_test(m, lab, 0.66, seed=3)
    t3, _ = split_train_test(m, lab, 0.66, seed=4)
    assert t1.matrix.user_ids == t2.matrix.user_ids
    assert t1.matrix.user_ids != t3.matrix.user_ids


def test_split_needs_two_users():
    m = from_rows([np.array([0])], 1, ("u0",), ("a",))
    with pytest.raises(ValueError):
        split_train_test(m, _empty_labels(1), 0.66, seed=0)


def test_split_partitions_carry_indices():
    rng = np.random.default_rng(9)
    m = random_footprints(rng, 20, 6)
    train, test = split_train_test(m, _empty_labels(20), 0.66, seed=5)
    merged = np.sort(np.concatenate((train.indices, test.indices)))
    np.testing.assert_array_equal(merged, np.arange(20))
    for part in (train, test):
        for local, orig in enumerate(part.indices):
            np.testing.assert_array_equal(part.matrix.row(local), m.row(int(orig)))


# ---------------------------------------------------------------------------
# drop plans


def test_drop_plan_sizes_round_half_away():
    rows = [np.arange(10), np.arange(3), np.empty(0, np.int64)]
    m = from_rows(
        [np.sort(r) for r in rows], 10, ("u0", "u1", "u2"), tuple(f"i{j}" for j in range(10))
    )
    dropped = dropped_items(m, make_drop_plan(m, 0.5, seed=0))
    assert [len(d) for d in dropped] == [5, 2, 0]  # round(1.5) away from zero


def test_drop_plan_subset_of_row():
    rng = np.random.default_rng(10)
    m = random_footprints(rng, 15, 25)
    ranks = make_drop_plan(m, 0.4, seed=2)
    assert ranks.dtype == np.int32 and ranks.shape == (m.nnz,)
    for i, dropped in enumerate(dropped_items(m, ranks)):
        assert set(dropped) <= set(m.row(i))
        assert len(set(dropped)) == len(dropped)


def test_readd_nested_and_identity():
    rng = np.random.default_rng(11)
    m = random_footprints(rng, 12, 30)
    ranks = make_drop_plan(m, 0.5, seed=3)
    reduced = m.keep_entries(ranks < 0)
    prev_sets = None
    for frac in (0.0, 0.2, 0.5, 0.8, 1.0):
        cur = readd(m, ranks, frac)
        cur_sets = [set(cur.row(i)) for i in range(12)]
        if prev_sets is not None:
            for a, b in zip(prev_sets, cur_sets):
                assert a <= b
        prev_sets = cur_sets
    full = readd(m, ranks, 1.0)
    np.testing.assert_array_equal(full.indices, m.indices)
    np.testing.assert_array_equal(full.indptr, m.indptr)
    zero = readd(m, ranks, 0.0)
    np.testing.assert_array_equal(zero.indices, reduced.indices)


def test_readd_counts_round_half_away():
    row = np.arange(10)
    m = from_rows([row], 10, ("u0",), tuple(f"i{j}" for j in range(10)))
    ranks = make_drop_plan(m, 0.5, seed=4)  # 5 dropped
    assert len(readd(m, ranks, 0.3).row(0)) == 5 + 2  # round(1.5) = 2
    assert len(readd(m, ranks, 0.2).row(0)) == 5 + 1


def test_readd_rejects_bad_fraction():
    m = from_rows([np.array([0])], 1, ("u0",), ("a",))
    ranks = make_drop_plan(m, 0.5, seed=0)
    with pytest.raises(ValueError):
        readd(m, ranks, 1.5)


def test_drop_plan_deterministic():
    rng = np.random.default_rng(12)
    m = random_footprints(rng, 8, 15)
    p1 = make_drop_plan(m, 0.5, seed=9)
    p2 = make_drop_plan(m, 0.5, seed=9)
    np.testing.assert_array_equal(p1, p2)


def test_drop_plan_select_users():
    # a partition's ranks are the plan's ranks gathered as select_users
    # gathers the partition's rows
    rng = np.random.default_rng(14)
    m = random_footprints(rng, 10, 12)
    ranks = make_drop_plan(m, 0.5, seed=8)
    order = np.array([3, 7])
    part = m.select_users(order)
    indptr, gather = _select_entries(m.indptr, order)
    np.testing.assert_array_equal(indptr, part.indptr)
    sub = ranks[gather]
    dropped, sub_dropped = dropped_items(m, ranks), dropped_items(part, sub)
    np.testing.assert_array_equal(sub_dropped[0], dropped[3])
    np.testing.assert_array_equal(sub_dropped[1], dropped[7])


def test_from_rows_validates():
    with pytest.raises(ValueError, match="ascending"):
        from_rows([np.array([2, 1])], 3, ("u0",), ("a", "b", "c"))
    with pytest.raises(ValueError, match="range"):
        from_rows([np.array([5])], 3, ("u0",), ("a", "b", "c"))
    with pytest.raises(ValueError, match="duplicate"):
        from_rows([np.array([0]), np.array([0])], 1, ("u0", "u0"), ("a",))
