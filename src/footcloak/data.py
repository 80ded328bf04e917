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
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Optional, Sequence

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

    def row(self, i: int) -> np.ndarray:
        """Active item indices of user i (ascending, read-only view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Number of active items per user."""
        return np.diff(self.indptr)

    def item_counts(self) -> np.ndarray:
        """Number of users per item."""
        return np.bincount(self.indices, minlength=self.n_items)

    def select_users(self, order: np.ndarray) -> "FootprintMatrix":
        """New matrix with the given rows, in the given order; item space kept."""
        order = np.asarray(order, dtype=np.int64)
        starts = self.indptr[order]
        counts = self.indptr[order + 1] - starts
        indptr = _indptr(counts)
        gather = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        indices = self.indices[gather].astype(np.int64, copy=False)
        users = tuple(self.user_ids[i] for i in order)
        return FootprintMatrix(indptr, indices, self.n_items, users, self.item_ids)

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
    indptr = _indptr(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))
    indices = np.concatenate(
        [np.empty(0, dtype=np.int64)] + [np.asarray(r, dtype=np.int64) for r in rows]
    )
    # the first bad entry names its row; a range error wins within a row
    out_of_range = (indices < 0) | (indices >= n_items)
    not_ascending = np.zeros(len(indices), dtype=bool)
    not_ascending[1:] = np.diff(indices) <= 0
    not_ascending[indptr[:-1][np.diff(indptr) > 0]] = False  # row starts
    bad = out_of_range | not_ascending
    if bad.any():
        i = int(np.searchsorted(indptr, np.argmax(bad), side="right")) - 1
        row = slice(indptr[i], indptr[i + 1])
        if out_of_range[row].any():
            raise ValueError(f"row {i}: item index out of range")
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

    dropped: tuple[np.ndarray, ...]

    def select_users(self, order: np.ndarray) -> "DropPlan":
        order = np.asarray(order, dtype=np.int64)
        return DropPlan(tuple(self.dropped[i] for i in order))


# ---------------------------------------------------------------------------
# loading


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers from per-row entry counts."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _read_columns(path, headers) -> tuple[list[int], list[list[str]], Optional[int]]:
    """Read a delimited file once into columns of stripped fields.

    Lines are split at "\n" only (after read_text's universal-newline
    translation), so line numbers are the file's own. Blank lines are
    skipped; the delimiter is a tab when the first non-blank line holds one,
    else a comma. Lines holding a double quote go through csv.reader one at
    a time, so an unterminated quote cannot swallow the next line; every
    other line is a plain split. A first row matching `headers` (compared
    lowercased) is dropped. Every row must have len(header) non-empty fields.

    Returns the 1-based line numbers of the rows, the columns, and the line
    number of the first malformed row (None when there is none); the rows
    returned are the ones before it, so a caller's own checks on them come
    first, as a line-by-line loader's would.
    """
    width = len(next(iter(headers)))
    text = Path(path).read_text()
    lines = text.split("\n")
    numbers = [n for n, line in enumerate(lines, start=1) if line.strip()]
    rows = [lines[n - 1] for n in numbers]
    delim = "\t" if rows and "\t" in rows[0] else ","
    if '"' in text:
        records = [
            next(csv.reader([r], delimiter=delim)) if '"' in r else r.split(delim)
            for r in rows
        ]
        counts = list(map(len, records))
        fields = list(chain.from_iterable(records))
    else:  # one list for the file: a list per line keeps the cyclic GC busy
        counts = [r.count(delim) + 1 for r in rows]
        fields = delim.join(rows).split(delim)
    n_rows = len(rows)
    if counts.count(width) != n_rows:
        n_rows = next(k for k, c in enumerate(counts) if c != width)
    fields = [f.strip() for f in fields[: n_rows * width]]
    cols = [fields[k::width] for k in range(width)]
    start = int(n_rows > 0 and tuple(c[0].lower() for c in cols) in headers)
    end = min([n_rows] + [c.index("") for c in cols if "" in c])
    bad = numbers[end] if end < len(numbers) else None
    return numbers[start:end], [c[start:end] for c in cols], bad


def _first_seen_codes(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct values in first-seen order, and each value's index in it."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
    return tuple(index), codes


def _last_occurrence(keys: np.ndarray) -> np.ndarray:
    """Position of the last occurrence of each distinct non-negative key,
    in ascending key order."""
    order = np.argsort(keys, kind="stable")
    return order[np.diff(keys[order], append=-1) != 0]


def _codes(index: dict[str, int], values: list[str]) -> np.ndarray:
    """index[v] for each value, -1 for values not in index."""
    return np.fromiter(
        map(index.get, values, repeat(-1)), dtype=np.int64, count=len(values)
    )


def load_triplets(path) -> FootprintMatrix:
    """Load user-item pairs from CSV or TSV into a FootprintMatrix.

    Delimiter and an optional header row are auto-detected. Duplicate
    pairs collapse to a single entry. User and item ids take dense
    indices in first-seen order. Malformed rows raise ValueError with
    the 1-based line number.
    """
    _, (users, items), bad = _read_columns(path, _FOOTPRINT_HEADERS)
    if bad is not None:
        raise ValueError(f"line {bad}: expected 2 fields 'user_id,item_id'")
    user_ids, user_codes = _first_seen_codes(users)
    item_ids, item_codes = _first_seen_codes(items)
    n_items = len(item_ids)
    keys = np.sort(user_codes * n_items + item_codes)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique, less its hash pass
    rows, indices = np.divmod(keys, max(n_items, 1))
    indptr = _indptr(np.bincount(rows, minlength=len(user_ids)))
    return FootprintMatrix(indptr, indices, n_items, user_ids, item_ids)


def load_labels(path, matrix: FootprintMatrix) -> LabelTable:
    """Load (user_id, task_name, value) rows aligned to matrix users.

    Values parse as floats; users absent from the matrix are skipped
    (they may have been filtered out upstream). Missing combinations
    stay NaN. Malformed rows raise ValueError with the line number.
    """
    numbers, (uids, tasks, raws), bad = _read_columns(path, _LABEL_HEADERS)
    try:
        vals = np.fromiter(map(float, raws), dtype=np.float64, count=len(raws))
    except ValueError:
        for ln, raw in zip(numbers, raws):
            try:
                float(raw)
            except ValueError:
                raise ValueError(f"line {ln}: value {raw!r} is not a number") from None
    if bad is not None:
        raise ValueError(f"line {bad}: expected 3 fields 'user_id,task_name,value'")
    rows = _codes(matrix.user_index, uids)
    known = rows >= 0
    skipped = len(rows) - int(known.sum())
    task_names, task_codes = _first_seen_codes(list(compress(tasks, known)))
    keys = task_codes * matrix.n_users + rows[known]
    last = _last_occurrence(keys)
    table = np.full((len(task_names), matrix.n_users), np.nan)
    table.flat[keys[last]] = vals[known][last]
    values = dict(zip(task_names, table))
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
    entry_keep = keep_item[m.indices]
    csum = _indptr(entry_keep)
    kept_deg = csum[m.indptr[1:]] - csum[m.indptr[:-1]]
    keep_user = kept_deg >= min_user
    final = entry_keep & np.repeat(keep_user, m.degrees())
    new_indices = remap[m.indices[final]]
    new_indptr = _indptr(kept_deg[keep_user])
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
    follow, so re-added sets are nested across fractions.
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
    return DropPlan(tuple(dropped))


def apply_drop(m: FootprintMatrix, plan: DropPlan) -> FootprintMatrix:
    """Matrix with each user's planned dropped items removed."""
    if len(plan.dropped) != m.n_users:
        raise ValueError("plan does not cover this matrix's users")
    rows = np.repeat(np.arange(m.n_users, dtype=np.int64), m.degrees())
    counts = np.fromiter(map(len, plan.dropped), dtype=np.int64, count=m.n_users)
    dropped = np.repeat(np.arange(m.n_users, dtype=np.int64), counts) * m.n_items
    dropped += np.concatenate([np.empty(0, dtype=np.int64), *plan.dropped])
    keys = rows * m.n_items + m.indices  # ascending, so a binary search finds them
    found = np.searchsorted(keys, dropped)
    hit = found < m.nnz
    found, dropped = found[hit], dropped[hit]
    keep = np.ones(m.nnz, dtype=bool)
    keep[found[keys[found] == dropped]] = False  # items not in the row are ignored
    indptr = _indptr(np.bincount(rows[keep], minlength=m.n_users))
    return FootprintMatrix(indptr, m.indices[keep], m.n_items, m.user_ids, m.item_ids)
