"""Footprint data structures and deterministic data operations.

A footprint is a sparse binary user-item matrix: x[i, j] = 1 when user i
has the item j in their behavioral record. Rows are stored CSR-style with
ascending item indices. External string ids are kept alongside so that
every artifact written to disk speaks item/user ids, not dense indices.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._util import round_half_up

logger = logging.getLogger(__name__)

_FOOTPRINT_HEADERS = {("user_id", "item_id"), ("user", "item")}
_LABEL_HEADERS = {("user_id", "task_name", "value"), ("user_id", "task", "value")}


@dataclass(frozen=True, eq=False)
class FootprintMatrix:
    """Sparse binary user-item matrix with external id maps.

    indptr/indices follow the CSR convention; indices are strictly
    ascending within each row (set semantics, no duplicates).
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_items: int
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    @property
    def n_users(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.user_ids)}

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {it: j for j, it in enumerate(self.item_ids)}

    def row(self, i: int) -> np.ndarray:
        """Active item indices of user i (ascending, read-only view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Number of active items per user."""
        return np.diff(self.indptr)

    def item_counts(self) -> np.ndarray:
        """Number of users per item."""
        return np.bincount(self.indices, minlength=self.n_items)

    def density(self) -> float:
        total = self.n_users * self.n_items
        return self.nnz / total if total else 0.0

    def select_users(self, order: np.ndarray) -> "FootprintMatrix":
        """New matrix with the given rows, in the given order; item space kept."""
        order = np.asarray(order, dtype=np.int64)
        rows = [self.row(i) for i in order]
        counts = np.array([len(r) for r in rows], dtype=np.int64)
        indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
        indices = (
            np.concatenate(rows).astype(np.int64)
            if rows
            else np.empty(0, dtype=np.int64)
        )
        users = tuple(self.user_ids[i] for i in order)
        return FootprintMatrix(indptr, indices, self.n_items, users, self.item_ids)

    def with_rows(self, rows: Sequence[np.ndarray]) -> "FootprintMatrix":
        """Same users and item space, replaced row contents."""
        return from_rows(rows, self.n_items, self.user_ids, self.item_ids)

    @cached_property
    def csr(self):
        """CSR scipy matrix with float64 ones; every sparse product uses it.

        `csr.T` is a CSC view over the same arrays, so X^T products need no
        cached transpose.
        """
        from scipy import sparse

        data = np.ones(self.nnz, dtype=np.float64)
        return sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n_users, self.n_items)
        )


def from_rows(
    rows: Sequence[np.ndarray],
    n_items: int,
    user_ids: Sequence[str],
    item_ids: Sequence[str],
) -> FootprintMatrix:
    """Build a validated FootprintMatrix from per-user active-item arrays."""
    if len(rows) != len(user_ids):
        raise ValueError("one row per user id required")
    if len(item_ids) != n_items:
        raise ValueError("one item id per column required")
    if len(set(user_ids)) != len(user_ids):
        raise ValueError("duplicate user ids")
    if len(set(item_ids)) != len(item_ids):
        raise ValueError("duplicate item ids")
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    if rows and sum(len(r) for r in rows) > 0:
        indices = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    else:
        indices = np.empty(0, dtype=np.int64)
    for i, r in enumerate(rows):
        arr = np.asarray(r, dtype=np.int64)
        if arr.size == 0:
            continue
        if arr.min() < 0 or arr.max() >= n_items:
            raise ValueError(f"row {i}: item index out of range")
        if np.any(np.diff(arr) <= 0):
            raise ValueError(f"row {i}: item indices must be strictly ascending")
    return FootprintMatrix(
        indptr, indices, int(n_items), tuple(user_ids), tuple(item_ids)
    )


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Per-user label vectors, index-aligned with a FootprintMatrix.

    Values are float64 with NaN for missing. A task is binary when every
    observed value is 0 or 1; otherwise it is continuous.
    """

    values: dict[str, np.ndarray]
    n_users: int
    task_order: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.task_order:
            object.__setattr__(self, "task_order", tuple(self.values))
        for task, arr in self.values.items():
            if arr.shape != (self.n_users,):
                raise ValueError(f"task {task}: label vector not index-aligned")

    @property
    def task_names(self) -> tuple[str, ...]:
        return self.task_order

    def is_binary(self, task: str) -> bool:
        arr = self.values[task]
        obs = arr[~np.isnan(arr)]
        return obs.size > 0 and bool(np.all((obs == 0.0) | (obs == 1.0)))

    def labeled_mask(self, task: str) -> np.ndarray:
        return ~np.isnan(self.values[task])

    def select_users(self, order: np.ndarray) -> "LabelTable":
        order = np.asarray(order, dtype=np.int64)
        vals = {t: arr[order] for t, arr in self.values.items()}
        return LabelTable(vals, len(order), self.task_order)


@dataclass(frozen=True)
class Partition:
    """One side of a train/test split, with original row indices retained."""

    matrix: FootprintMatrix
    labels: LabelTable
    indices: np.ndarray


@dataclass(frozen=True, eq=False)
class DropPlan:
    """Per-user record of which items were dropped and in what re-add order.

    dropped[i] holds user i's removed items in a fixed random permutation
    order; re-adding a fraction f restores the first round(f * len) of them,
    so re-added sets are nested across fractions.
    """

    drop_fraction: float
    seed: int
    dropped: tuple[np.ndarray, ...]

    def select_users(self, order: np.ndarray) -> "DropPlan":
        order = np.asarray(order, dtype=np.int64)
        return DropPlan(
            self.drop_fraction, self.seed, tuple(self.dropped[i] for i in order)
        )


# ---------------------------------------------------------------------------
# loading


def _sniff_delimiter(first_line: str) -> str:
    return "\t" if "\t" in first_line else ","


def _read_records(path) -> tuple[list[tuple[int, list[str]]], str]:
    text = Path(path).read_text()
    lines = text.splitlines()
    delim = _sniff_delimiter(lines[0]) if lines else ","
    records = []
    for ln, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        fields = [f.strip() for f in next(csv.reader([raw], delimiter=delim))]
        records.append((ln, fields))
    return records, delim


def load_triplets(path) -> FootprintMatrix:
    """Load user-item pairs from CSV or TSV into a FootprintMatrix.

    Delimiter and an optional header row are auto-detected. Duplicate
    pairs collapse to a single entry. User and item ids take dense
    indices in first-seen order. Malformed rows raise ValueError with
    the 1-based line number.
    """
    records, _ = _read_records(path)
    if records:
        first = tuple(f.lower() for f in records[0][1])
        if first in _FOOTPRINT_HEADERS:
            records = records[1:]
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    per_user: list[set[int]] = []
    for ln, fields in records:
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ValueError(f"line {ln}: expected 2 fields 'user_id,item_id'")
        uid, iid = fields
        if uid not in user_index:
            user_index[uid] = len(user_index)
            per_user.append(set())
        if iid not in item_index:
            item_index[iid] = len(item_index)
        per_user[user_index[uid]].add(item_index[iid])
    rows = [np.array(sorted(s), dtype=np.int64) for s in per_user]
    return from_rows(
        rows, len(item_index), tuple(user_index), tuple(item_index)
    )


def load_labels(path, matrix: FootprintMatrix) -> LabelTable:
    """Load (user_id, task_name, value) rows aligned to matrix users.

    Values parse as floats; users absent from the matrix are skipped
    (they may have been filtered out upstream). Missing combinations
    stay NaN. Malformed rows raise ValueError with the line number.
    """
    records, _ = _read_records(path)
    if records:
        first = tuple(f.lower() for f in records[0][1])
        if first in _LABEL_HEADERS:
            records = records[1:]
    values: dict[str, np.ndarray] = {}
    skipped = 0
    for ln, fields in records:
        if len(fields) != 3 or not all(fields):
            raise ValueError(f"line {ln}: expected 3 fields 'user_id,task_name,value'")
        uid, task, raw = fields
        try:
            val = float(raw)
        except ValueError:
            raise ValueError(f"line {ln}: value {raw!r} is not a number") from None
        i = matrix.user_index.get(uid)
        if i is None:
            skipped += 1
            continue
        if task not in values:
            values[task] = np.full(matrix.n_users, np.nan)
        values[task][i] = val
    if skipped:
        logger.debug("load_labels: skipped %d rows for unknown users", skipped)
    return LabelTable(values, matrix.n_users)


# ---------------------------------------------------------------------------
# filtering and splitting


def filter_min_activity(
    m: FootprintMatrix, min_user: int = 10, min_item: int = 10
) -> FootprintMatrix:
    """Drop inactive items, then inactive users, in one pass.

    Item counts come from the unfiltered matrix; user degrees are
    recomputed after item removal. Exactly-at-threshold rows and columns
    are kept. The pass is not iterated: user removal may push some item
    counts back below min_item, which is accepted.
    """
    counts = m.item_counts()
    keep_item = counts >= min_item
    remap = np.cumsum(keep_item, dtype=np.int64) - 1
    entry_keep = keep_item[m.indices] if m.nnz else np.zeros(0, dtype=bool)
    csum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(entry_keep)))
    kept_deg = csum[m.indptr[1:]] - csum[m.indptr[:-1]]
    keep_user = kept_deg >= min_user
    entry_user = (
        np.repeat(np.arange(m.n_users), m.degrees()) if m.nnz else np.zeros(0, int)
    )
    final = entry_keep & keep_user[entry_user] if m.nnz else entry_keep
    new_indices = remap[m.indices[final]] if m.nnz else np.empty(0, dtype=np.int64)
    new_counts = kept_deg[keep_user]
    new_indptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(new_counts)))
    users = tuple(u for u, k in zip(m.user_ids, keep_user) if k)
    items = tuple(it for it, k in zip(m.item_ids, keep_item) if k)
    return FootprintMatrix(new_indptr, new_indices, len(items), users, items)


def split_train_test(
    m: FootprintMatrix, labels: LabelTable, train_frac: float = 0.66, seed: int = 0
) -> tuple[Partition, Partition]:
    """Random disjoint user split; train size is round(n * train_frac).

    Rounding is half away from zero. Both partitions keep users in their
    original relative order, and each carries the original row indices.
    """
    n = m.n_users
    if n < 2:
        raise ValueError("need at least 2 users to split")
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    k = round_half_up(n * train_frac)
    if k == 0 or k == n:
        raise ValueError("train_frac leaves an empty partition")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train_idx = np.sort(perm[:k])
    test_idx = np.sort(perm[k:])
    train = Partition(m.select_users(train_idx), labels.select_users(train_idx), train_idx)
    test = Partition(m.select_users(test_idx), labels.select_users(test_idx), test_idx)
    return train, test


def task_split(
    matrix: FootprintMatrix,
    labels: LabelTable,
    task: str,
    min_user: int,
    min_item: int,
    train_frac: float,
    seed: int,
) -> tuple[FootprintMatrix, Partition, Partition]:
    """Filter inactivity, keep the users labeled for a binary task, split.

    Returns the filtered, labeled matrix and its train/test partitions,
    whose indices point into that matrix. An unknown or non-binary task
    raises ValueError.
    """
    if task not in labels.values:
        raise ValueError(f"unknown task {task!r}")
    fm = filter_min_activity(matrix, min_user, min_item)
    keep = np.array([matrix.user_index[u] for u in fm.user_ids], dtype=np.int64)
    flabels = labels.select_users(keep)
    if not flabels.is_binary(task):
        raise ValueError(f"task {task!r} is not binary")
    labeled = np.nonzero(flabels.labeled_mask(task))[0]
    fm = fm.select_users(labeled)
    train, test = split_train_test(
        fm, flabels.select_users(labeled), train_frac, seed
    )
    return fm, train, test


# ---------------------------------------------------------------------------
# drop plans (simulated time)


def make_drop_plan(
    m: FootprintMatrix, drop_fraction: float = 0.5, seed: int = 0
) -> DropPlan:
    """Choose a uniform random subset of each user's items to drop.

    Per user, round(drop_fraction * degree) items are removed; the dropped
    items are stored in a random permutation order that later re-adds
    follow, so readd sets are nested across fractions.
    """
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError("drop_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    dropped = []
    for i in range(m.n_users):
        row = m.row(i)
        d = round_half_up(drop_fraction * len(row))
        perm = rng.permutation(len(row))
        dropped.append(row[perm[:d]].copy())
    return DropPlan(float(drop_fraction), seed, tuple(dropped))


def apply_drop(m: FootprintMatrix, plan: DropPlan) -> FootprintMatrix:
    """Matrix with each user's planned dropped items removed."""
    if len(plan.dropped) != m.n_users:
        raise ValueError("plan does not cover this matrix's users")
    rows = [np.setdiff1d(m.row(i), plan.dropped[i]) for i in range(m.n_users)]
    return m.with_rows(rows)


def readd(m_reduced: FootprintMatrix, plan: DropPlan, fraction: float) -> FootprintMatrix:
    """Restore the first round(fraction * len(dropped)) items per user.

    fraction=0 returns the reduced matrix unchanged; fraction=1 restores
    the original matrix exactly.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if len(plan.dropped) != m_reduced.n_users:
        raise ValueError("plan does not cover this matrix's users")
    rows = []
    for i in range(m_reduced.n_users):
        drp = plan.dropped[i]
        t = round_half_up(fraction * len(drp))
        if t == 0:
            rows.append(m_reduced.row(i))
        else:
            rows.append(np.sort(np.concatenate((m_reduced.row(i), drp[:t]))))
    return m_reduced.with_rows(rows)
