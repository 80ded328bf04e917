import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footcloak._util import write_results
from footcloak.data import from_rows
from footcloak.metafeatures import (
    MetafeatureModel,
    assign_exclusive,
    build_nmf_metafeatures,
    load_domain_categories,
    metafeature_report,
    nmf_fit,
    top_items,
)

import oracles
from conftest import random_footprints


def _ids(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


def _block_matrix(n_users, n_items, n_blocks, rng, noise=0.0):
    """Users and items split into aligned blocks; returns (matrix, item_block)."""
    item_block = np.repeat(np.arange(n_blocks), n_items // n_blocks)
    item_block = np.concatenate(
        (item_block, np.full(n_items - len(item_block), n_blocks - 1))
    )
    rows = []
    for u in range(n_users):
        blk = u % n_blocks
        own = np.nonzero(item_block == blk)[0]
        take = rng.random(own.size) < 0.6
        row = set(own[take])
        if noise > 0:
            other = np.nonzero(item_block != blk)[0]
            row |= set(other[rng.random(other.size) < noise])
        if not row:
            row = {int(own[0])}
        rows.append(np.array(sorted(row), dtype=np.int64))
    m = from_rows(rows, n_items, _ids("u", n_users), _ids("i", n_items))
    return m, item_block


# ---------------------------------------------------------------------------
# NMF


def test_nmf_rank_one_reconstructs_constant_matrix():
    rows = [np.arange(6) for _ in range(8)]
    m = from_rows(rows, 6, _ids("u", 8), _ids("i", 6))
    W, H, objectives = nmf_fit(m, k=1, max_iters=500, tol=1e-12, seed=0)
    assert objectives[-1] < 1e-6
    recon = W @ H
    np.testing.assert_allclose(recon, 1.0, atol=1e-4)


def test_nmf_objective_non_increasing():
    rng = np.random.default_rng(50)
    for seed in range(3):
        m = random_footprints(rng, 40, 30, density=0.15)
        _, _, objectives = nmf_fit(m, k=4, max_iters=120, tol=0.0, seed=seed)
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-9 * max(1.0, objectives[0]))


def test_nmf_shapes_nonnegative_and_deterministic():
    rng = np.random.default_rng(51)
    m = random_footprints(rng, 25, 18, density=0.2)
    W1, H1, o1 = nmf_fit(m, k=3, seed=7)
    W2, H2, o2 = nmf_fit(m, k=3, seed=7)
    assert W1.shape == (25, 3) and H1.shape == (3, 18)
    assert np.all(W1 >= 0) and np.all(H1 >= 0)
    np.testing.assert_array_equal(W1, W2)
    np.testing.assert_array_equal(H1, H2)
    np.testing.assert_array_equal(o1, o2)
    W3, _, _ = nmf_fit(m, k=3, seed=8)
    assert not np.array_equal(W1, W3)


def test_nmf_reused_products_match_recomputed_bit_for_bit():
    # oracle: every product of every iteration computed afresh from the
    # current W and H, with the objective written out in full
    rng = np.random.default_rng(54)
    m = random_footprints(rng, 35, 28, density=0.2)
    W, H, objectives = nmf_fit(m, k=4, max_iters=40, tol=0.0, seed=3)

    Xs = oracles.scipy_csr(m)
    gen = np.random.default_rng(3)
    W_ref = gen.uniform(0.0, 1.0, size=(35, 4))
    H_ref = gen.uniform(0.0, 1.0, size=(4, 28))
    ref = []
    for _ in range(40):
        XHt = Xs @ H_ref.T
        W_ref = W_ref * (XHt / np.maximum(W_ref @ (H_ref @ H_ref.T), 1e-12))
        WtX = (Xs.T @ W_ref).T
        H_ref = H_ref * (WtX / np.maximum((W_ref.T @ W_ref) @ H_ref, 1e-12))
        XHt = Xs @ H_ref.T
        cross = float(np.sum(W_ref * XHt))
        ref.append(
            m.nnz - 2.0 * cross + float(np.sum((W_ref.T @ W_ref) * (H_ref @ H_ref.T)))
        )
    np.testing.assert_array_equal(objectives, np.array(ref))
    np.testing.assert_array_equal(W, W_ref)
    np.testing.assert_array_equal(H, H_ref)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
    density=st.floats(0.0, 1.0),
    k=st.integers(1, 6),
    max_iters=st.integers(1, 40),
    tol=st.sampled_from([0.0, 1e-4, 1e-2]),
)
def test_nmf_in_place_updates_match_expression_oracle(
    seed, shape, density, k, max_iters, tol
):
    m = random_footprints(np.random.default_rng(seed), *shape, density=density)
    k = min(k, *shape)
    got = nmf_fit(m, k, max_iters=max_iters, tol=tol, seed=seed)
    want = oracles.nmf_fit(m, k, max_iters, tol, seed)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_nmf_tol_stops_early():
    rng = np.random.default_rng(52)
    m = random_footprints(rng, 30, 20, density=0.2)
    _, _, loose = nmf_fit(m, k=3, max_iters=500, tol=1e-2, seed=0)
    _, _, tight = nmf_fit(m, k=3, max_iters=500, tol=1e-10, seed=0)
    assert len(loose) < len(tight)
    # the early prefix is the same run
    np.testing.assert_allclose(tight[: len(loose)], loose)


def test_nmf_k_bounds():
    rng = np.random.default_rng(53)
    m = random_footprints(rng, 5, 9)
    with pytest.raises(ValueError, match="exceeds"):
        nmf_fit(m, k=6)
    with pytest.raises(ValueError):
        nmf_fit(m, k=0)


def test_nmf_recovers_planted_blocks():
    rng = np.random.default_rng(54)
    m, item_block = _block_matrix(120, 60, 2, rng, noise=0.02)
    mfm = build_nmf_metafeatures(m, k=2, max_iters=300, seed=1)
    # exclusive assignment matches the planted split up to relabeling
    agree = 0
    for perm in ((0, 1), (1, 0)):
        mapped = np.array(perm)[mfm.assignment]
        agree = max(agree, int((mapped == item_block).sum()))
    assert agree / m.n_items >= 0.95


# ---------------------------------------------------------------------------
# assignment


def test_assign_exclusive_examples_and_ties():
    H = np.array(
        [
            [0.2, 0.5, 0.3, 0.0],
            [0.9, 0.5, 0.1, 0.0],
            [0.1, 0.2, 0.3, 0.0],
        ]
    )
    got = assign_exclusive(H)
    # col 0 -> 1; col 1 ties 0.5/0.5 -> lowest index 0; col 2 ties -> 0; col 3 all zero -> 0
    np.testing.assert_array_equal(got, [1, 0, 0, 0])


def test_members_partition_items():
    rng = np.random.default_rng(55)
    m = random_footprints(rng, 30, 22, density=0.2)
    mfm = build_nmf_metafeatures(m, k=4, seed=2)
    seen = np.concatenate([mfm.members(mf) for mf in range(mfm.k)])
    assert sorted(seen.tolist()) == list(range(22))
    # each item's loading is its H entry in its own metafeature
    _, H, _ = nmf_fit(m, k=4, seed=2)
    np.testing.assert_array_equal(mfm.assignment, assign_exclusive(H))
    np.testing.assert_array_equal(mfm.loading, H[mfm.assignment, np.arange(22)])


# ---------------------------------------------------------------------------
# domain categories


def test_domain_mapping_basic(tmp_path):
    item_ids = ("a", "b", "c", "d", "e")
    path = tmp_path / "cats.csv"
    path.write_text("item_id,category\na,music\nc,film\nd,music\nzz,music\n")
    mfm = load_domain_categories(path, item_ids)
    assert mfm.k == 3  # music, film, uncategorized
    assert mfm.labels == ("music", "film", "uncategorized")
    assert mfm.reserved == 2
    np.testing.assert_array_equal(mfm.assignment, [0, 2, 1, 0, 2])
    np.testing.assert_array_equal(mfm.loading, np.ones(5))
    assert mfm.source == "domain"


def test_domain_mapping_headerless_and_tsv(tmp_path):
    item_ids = ("a", "b")
    path = tmp_path / "cats.tsv"
    path.write_text("a\tx\nb\ty\n")
    mfm = load_domain_categories(path, item_ids)
    assert mfm.labels == ("x", "y", "uncategorized")
    np.testing.assert_array_equal(mfm.assignment, [0, 1])


def test_domain_mapping_single_category_degenerate(tmp_path):
    item_ids = ("a", "b", "c")
    path = tmp_path / "cats.csv"
    path.write_text("a,only\nb,only\nc,only\n")
    mfm = load_domain_categories(path, item_ids)
    assert mfm.k == 2
    assert mfm.reserved == 1
    assert np.all(mfm.assignment == 0)


def test_domain_mapping_malformed_row_errors(tmp_path):
    path = tmp_path / "cats.csv"
    path.write_text("a,music\nb\n")
    with pytest.raises(ValueError, match="line 2"):
        load_domain_categories(path, ("a", "b"))
    path.write_text("a,music\n,film\n")
    with pytest.raises(ValueError, match="line 2"):
        load_domain_categories(path, ("a", "b"))


def test_domain_mapping_allocates_per_item(tmp_path):
    # one category per item: the model holds one assignment and one
    # loading per item, never a categories x items indicator, which alone
    # would take 8 * (n + 1) * n bytes
    n = 3000
    path = tmp_path / "cats.csv"
    path.write_text("".join(f"i{j},c{j}\n" for j in range(n)))
    tracemalloc.start()
    try:
        mfm = load_domain_categories(path, _ids("i", n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mfm.k == n + 1 and mfm.reserved == n
    np.testing.assert_array_equal(mfm.assignment, np.arange(n))
    assert peak < 1000 * n


def test_domain_mapping_all_uncategorized(tmp_path):
    path = tmp_path / "cats.csv"
    path.write_text("item_id,category\n")
    mfm = load_domain_categories(path, ("a", "b"))
    assert mfm.k == 1
    assert mfm.reserved == 0
    assert np.all(mfm.assignment == 0)


# ---------------------------------------------------------------------------
# reporting


def test_top_items_ranking_and_report(tmp_path):
    H = np.array(
        [
            [0.9, 0.0, 0.9, 0.1],
            [0.0, 0.4, 0.0, 0.0],
        ]
    )
    assignment = assign_exclusive(H)
    mfm = MetafeatureModel(2, assignment, H[assignment, np.arange(4)], "nmf")
    ids = ("w", "x", "y", "z")
    rep = top_items(mfm, ids, top_n=2)
    got0 = [e["item_id"] for e in rep["0"]["top_items"]]
    assert got0 == ["w", "y"]  # tie at 0.9 goes to the lower index
    assert rep["0"]["size"] == 3
    assert rep["1"]["top_items"] == [{"item_id": "x", "weight": 0.4}]

    out = tmp_path / "mf.json"
    write_results(tmp_path, {"mf.json": metafeature_report(mfm, ids)})
    obj = json.loads(out.read_text())
    assert obj["k"] == 2 and obj["source"] == "nmf" and obj["reserved"] is None
    assert set(obj["metafeatures"]) == {"0", "1"}
