"""Footprint data structures and deterministic data operations.

A footprint is a sparse binary user-item matrix: x[i, j] = 1 when user i
has the item j in their behavioral record. Rows are stored once, CSR-style,
in read-only int32 arrays (int64 past 2**31 - 1), with ascending indices.
External string ids are kept alongside, so every artifact written to disk
speaks item/user ids. Every product (FootprintMatrix.times and t_times)
runs scipy's CSR/CSC kernels on these arrays and one shared array of ones.

The loaders read a file in blocks of whole lines (_BLOCK_BYTES, 1 MiB),
never the whole file at once: a load holds one block's working set, about
ten times its bytes, plus 16 bytes per row, and load_triplets then at most
two int64 arrays of one entry per row.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import Sequence

import numpy as np

from ._util import round_half_up, sparsetools

logger = logging.getLogger(__name__)

_FOOTPRINT_HEADERS = {("user_id", "item_id"), ("user", "item")}
_LABEL_HEADERS = {("user_id", "task_name", "value"), ("user_id", "task", "value")}
_ONES = [np.ones(0)]  # the entries of every matrix: one buffer, grown, never written


@dataclass(frozen=True, eq=False)
class FootprintMatrix:
    """Sparse binary user-item matrix with external id maps.

    indptr/indices follow the CSR convention (indices strictly ascending in
    a row), read-only, int32 while nnz, n_users and n_items fit, else int64;
    products read them as stored, with a view of one shared array of ones.
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_items: int
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    def __post_init__(self):
        largest = max(self.nnz, self.n_users, self.n_items)
        index = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
        for name in ("indptr", "indices"):
            # a view, so the caller's array keeps its own writeable flag
            arr = getattr(self, name).astype(index, copy=False).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
        indptr, gather = _select_entries(self.indptr, order)
        users = tuple(self.user_ids[i] for i in order)
        return FootprintMatrix(
            indptr, self.indices[gather], self.n_items, users, self.item_ids
        )

    def keep_entries(self, keep: np.ndarray) -> "FootprintMatrix":
        """New matrix with the stored entries where keep (one flag per entry,
        in storage order) is True; ids and item space kept."""
        return FootprintMatrix(
            _indptr(keep)[self.indptr], self.indices[keep], self.n_items,
            self.user_ids, self.item_ids,
        )

    def times(self, V) -> np.ndarray:
        """X V for V of n_items rows: a vector, (n_items, 1) or
        (n_items, k), in either memory order; the result has V's shape with
        n_users rows."""
        return self._product("csr", self.n_users, self.n_items, V)

    def t_times(self, V) -> np.ndarray:
        """X^T V for V of n_users rows, shaped as times shapes X V; the
        same arrays read as the CSC form of X^T."""
        return self._product("csc", self.n_items, self.n_users, V)

    def _product(self, form: str, n_out: int, n_in: int, V) -> np.ndarray:
        # the calls of scipy's CSR/CSC matmul (_compressed._matmul_vector and
        # _matmul_multivector, scipy 1.17): a zero-filled output and V in C
        # order, so each product has the bits of the scipy product
        V = np.asarray(V, dtype=np.float64)
        if V.ndim not in (1, 2) or V.shape[0] != n_in:
            raise ValueError(f"shape {V.shape} does not have {n_in} rows")
        kernels = sparsetools()
        ones = _ONES[0]  # read once, so a concurrent swap cannot shorten it
        if len(ones) < self.nnz:
            ones = _ONES[0] = np.ones(self.nnz)
            ones.flags.writeable = False
        arrays = (self.indptr, self.indices, ones[: self.nnz])
        if V.ndim == 1 or V.shape[1] == 1:
            out = np.zeros(n_out)
            matvec = getattr(kernels, form + "_matvec")
            matvec(n_out, n_in, *arrays, V.ravel(), out)
            return out.reshape((n_out,) + V.shape[1:])
        out = np.zeros((n_out, V.shape[1]))
        matvecs = getattr(kernels, form + "_matvecs")
        matvecs(n_out, n_in, V.shape[1], *arrays, V.ravel(), out.ravel())
        return out


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

    def __post_init__(self):
        for task, arr in self.values.items():
            if arr.shape != (self.n_users,):
                raise ValueError(f"task {task}: label vector not index-aligned")

    @property
    def task_names(self) -> tuple[str, ...]:
        return tuple(self.values)

    def is_binary(self, task: str) -> bool:
        arr = self.values[task]
        obs = arr[~np.isnan(arr)]
        return obs.size > 0 and bool(np.all((obs == 0.0) | (obs == 1.0)))

    def labeled_mask(self, task: str) -> np.ndarray:
        return ~np.isnan(self.values[task])

    def check_labeled(self, name: str, kind: str = "task") -> None:
        """Reject a name the labels never held, and one that labels no user."""
        if name not in self.values:
            raise ValueError(f"unknown {kind} {name!r}")
        if not self.labeled_mask(name).any():
            raise ValueError(
                f"{kind} {name!r} has no labeled user among the footprints' users"
            )

    def select_users(self, order: np.ndarray) -> "LabelTable":
        order = np.asarray(order, dtype=np.int64)
        vals = {t: arr[order] for t, arr in self.values.items()}
        return LabelTable(vals, len(order))


@dataclass(frozen=True)
class Partition:
    """One side of a train/test split, with original row indices retained."""

    matrix: FootprintMatrix
    labels: LabelTable
    indices: np.ndarray


# ---------------------------------------------------------------------------
# loading


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers from per-row entry counts."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _select_entries(indptr: np.ndarray, order) -> tuple[np.ndarray, np.ndarray]:
    """The row pointers of rows order of a CSR matrix, and the storage
    position of each of their entries."""
    order = np.asarray(order, dtype=np.int64)
    starts = indptr[order]
    counts = indptr[order + 1] - starts
    selected = _indptr(counts)
    return selected, np.repeat(starts - selected[:-1], counts) + np.arange(selected[-1])


# Byte flags for the tokenizer. A line is blank when str.strip() empties it:
# an ASCII byte outside str.isspace makes it non-blank, and a line of
# whitespace and non-ASCII bytes is decoded to tell.
_SOLID, _HIGH, _QUOTE = 1, 2, 4
_BYTE_FLAGS = np.full(256, _SOLID, dtype=np.uint8)
_BYTE_FLAGS[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = 0
_BYTE_FLAGS[0x80:] = _HIGH
_BYTE_FLAGS[ord('"')] |= _QUOTE


_BLOCK_BYTES = 1 << 20  # bytes read at a time; a block grows only to hold a longer line


def _read_columns(
    path, headers
) -> tuple[np.ndarray, list[tuple[tuple[str, ...], np.ndarray]], int | None]:
    """Read a delimited file once into columns of codes over stripped fields.

    The file is read in blocks of whole lines (see _line_blocks), and each
    block is split into rows and fields by _split_block: blank lines are
    skipped, the delimiter is a tab when the first non-blank line holds one,
    else a comma, and a first row matching `headers` (compared lowercased)
    is dropped. Every row must have len(header) non-empty fields.

    Each block's distinct names join one table per column, so a name's code
    is its rank of first appearance in the file. Each column is (distinct
    stripped values in first-seen order, int32 code per row). Also
    returned: the 1-based line numbers of the rows and the line number of
    the first malformed row (None when there is none). The rows returned
    are the ones before it, so a caller's own checks on them come first, as
    a line-by-line loader's would. Memory is one block's working set plus
    8 + 4 * width bytes per row: the line numbers and codes grow in place
    (realloc), so no copy of all of them is made.
    """
    width = len(next(iter(headers)))
    tables = [{} for _ in range(width)]  # stripped value -> code, first-seen order
    numbers, columns = bytearray(), [bytearray() for _ in tables]
    delim = bad = None
    blocks = _line_blocks(path)
    for raw, before in blocks:
        buf = np.frombuffer(raw, dtype=np.uint8)
        delim, rows, fields = _split_block(buf, width, delim, headers)
        for (names, column, seen), table, out in zip(fields, tables, columns):
            found = np.fromiter(map(table.get, names, repeat(-1)), np.int32, len(names))
            # names of kept rows that the table lacks join it in first-seen order
            new = np.flatnonzero((found < 0) & (seen < len(column)))
            new = new[np.argsort(seen[new])].tolist()
            table.update(zip(dict.fromkeys(names[j] for j in new), count(len(table))))
            found[new] = [table[names[j]] for j in new]
            out += found[column].data
        kept = len(fields[0][1])
        numbers += (rows[:kept] + np.int64(before + 1)).data
        if kept < len(rows):
            bad = before + int(rows[kept]) + 1
            break
    for _ in blocks:  # the rest of the file is still checked as UTF-8
        pass
    numbers = np.frombuffer(numbers, dtype=np.int64)
    columns = [(tuple(t), np.frombuffer(c, np.int32)) for t, c in zip(tables, columns)]
    return numbers, columns, bad


def _split_block(buf: np.ndarray, width: int, delim: str | None, headers):
    """The rows and fields of a block of whole lines, each ending at "\n".

    Returns (delim, rows, fields). delim None means no non-blank line came
    before this block: the delimiter is then set from the block's first
    non-blank line, and a first row matching `headers` is dropped. rows are
    the 0-based line indices of the block's non-blank lines, less a dropped
    header. Each of the `width` fields is (names, one index into names per
    row, the row where each name first appears) for the rows up to the
    first malformed one, so a row past them in `rows` is malformed.

    The block is tokenized as UTF-8, which never holds "\n", ",", "\t" or
    '"' inside a multi-byte character. Lines holding a double quote go
    through csv.reader one at a time, so an unterminated quote cannot
    swallow the next line; every other line is split at the delimiter.
    Fields are grouped by their raw bytes, and only the distinct raw values
    are decoded and stripped, so no Python object is made per field.
    """
    pos_t = np.int32 if len(buf) < 2**31 else np.int64  # byte offsets, line indices
    ends = np.flatnonzero(buf == ord("\n")).astype(pos_t)
    starts = np.concatenate((np.zeros(1, pos_t), ends[:-1] + 1))
    flags = np.bitwise_or.reduceat(_BYTE_FLAGS[buf], starts)
    nonblank = (flags & _SOLID) != 0
    high = np.flatnonzero(flags == _HIGH)
    lines = _decode_all(buf, starts[high], ends[high])
    nonblank[high] = [bool(v.strip()) for v in lines]
    rows = np.flatnonzero(nonblank).astype(pos_t)
    if not len(rows):
        return delim, rows, [([], rows, rows)] * width
    is_first = delim is None
    if is_first:
        delim = "\t" if ord("\t") in buf[starts[rows[0]] : ends[rows[0]]] else ","
    marks = np.flatnonzero(buf == ord(delim)).astype(pos_t)
    first = np.searchsorted(marks, starts).astype(pos_t)  # a line's first mark
    counts = np.diff(first, append=len(marks))[rows] + 1  # fields per row
    quoted = (flags[rows] & _QUOTE) != 0
    starts, ends, first = starts[rows], ends[rows], first[rows]
    at = np.flatnonzero(quoted)
    lines = _decode_all(buf, starts[at], ends[at])
    records = {i: next(csv.reader([v], delimiter=delim)) for i, v in zip(at, lines)}
    counts[at] = [len(r) for r in records.values()]
    wrong = np.flatnonzero(counts != width)
    n_rows = int(wrong[0]) if len(wrong) else len(counts)
    start = 0
    if is_first and n_rows:
        line = _decode_all(buf, starts[:1], ends[:1])[0]
        head = records[0] if quoted[0] else line.split(delim)
        start = int(tuple(f.strip().lower() for f in head) in headers)
    plain = np.flatnonzero(~quoted[start:n_rows]) + start
    by_csv = np.flatnonzero(quoted[start:n_rows]) + start
    end, fields = n_rows, []
    for k in range(width):  # a plain row's field k ends at its k-th mark
        s = starts[plain] if k == 0 else marks[first[plain] + k - 1] + 1
        e = ends[plain] if k == width - 1 else marks[first[plain] + k]
        codes, raw_first = _factorize(buf, s, e)
        names = _decode_all(buf, s[raw_first], e[raw_first])
        names = list(map(str.strip, names + [records[i][k] for i in by_csv]))
        column = np.empty(n_rows - start, dtype=pos_t)
        column[plain - start] = codes
        column[by_csv - start] = np.arange(len(raw_first), len(names))
        if "" in names:
            empty = np.array([v == "" for v in names])[column]
            end = min(end, start + int(np.argmax(empty)))
        seen = np.concatenate((plain[raw_first], by_csv)) - start  # a name's first row
        fields.append((names, column, seen))
    return delim, rows[start:], [(n, c[: end - start], f) for n, c, f in fields]


def _line_blocks(path):
    """The file's UTF-8 bytes in blocks of whole lines, each with the number
    of lines before it.

    Blocks hold read_text()'s universal newlines ("\r\n" and a lone "\r"
    become "\n", also where a block edge splits them), every line ends at
    "\n", and one leading byte-order mark is dropped. A block is about
    _BLOCK_BYTES long, or one line when a line is longer. A file that is
    not UTF-8 raises ValueError naming the line of the first bad byte,
    counted by the same newlines.
    """
    with open(path, "rb") as f:
        rest, before = f.read(3).removeprefix(b"\xef\xbb\xbf"), 0
        while True:
            chunk = f.read(max(_BLOCK_BYTES, len(rest)))  # doubles through a long line
            data = rest + chunk
            cut = len(data)
            if chunk:  # up to the last line end, less a last "\r" that may start "\r\n"
                n = cut - data.endswith(b"\r")
                cut = max(data.rfind(b"\n", 0, n), data.rfind(b"\r", 0, n)) + 1
            block, rest = data[:cut], data[cut:]
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if not chunk and block and not block.endswith(b"\n"):
                block += b"\n"  # so the last line ends at a newline too
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError as err:
                    line = before + block.count(b"\n", 0, err.start) + 1
                    raise ValueError(f"line {line}: not valid UTF-8") from None
            if block:
                yield block, before
            if not chunk:
                return
            before += block.count(b"\n")


def _decode_all(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """Each buf[s:e] as a str, from one decode of the fields joined by "\n"."""
    lengths = ends - starts + 1
    bounds = _indptr(lengths)
    blob = buf[np.repeat(starts - bounds[:-1], lengths) + np.arange(bounds[-1])]
    blob[bounds[1:] - 1] = ord("\n")
    return blob.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


def _factorize(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Group the byte strings buf[s:e] by value, with no Python object each.

    Strings are bucketed by length, so b"a" and b"a\x00" stay apart. Returns
    a code per string and, per code, the index of its first string.
    """
    lengths = ends - starts
    order = np.argsort(lengths, kind="stable")
    codes = np.empty(len(starts), dtype=starts.dtype)
    firsts = [np.empty(0, dtype=np.int64)]
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if not len(group):
            continue
        sort, new = _sort_runs(buf, starts[group], int(lengths[group[0]]))
        ids = np.cumsum(new, dtype=codes.dtype)
        ids += sum(map(len, firsts)) - 1
        codes[group[sort]] = ids
        firsts.append(group[sort[new]])  # the sort is stable: runs start first
    return codes, np.concatenate(firsts)


def _sort_runs(buf: np.ndarray, pos: np.ndarray, length: int):
    """A stable sort of the byte strings buf[p : p + length], compared as
    big-endian 8-byte words, and a mask of where each run of equal strings
    starts in sorted order."""
    words = []
    for offset in range(0, length, 8):
        word = np.zeros(len(pos), dtype=np.uint64)
        for j in range(offset, min(offset + 8, length)):
            word <<= 8
            word |= buf[pos + j]
        words.append(word)
    sort = np.lexsort(words[::-1]) if words else np.arange(len(pos))
    new = np.zeros(len(pos), dtype=bool)
    new[0] = True
    while words:
        word = words.pop()[sort]
        new[1:] |= word[1:] != word[:-1]
    return sort, new


def _first_seen(values: tuple[str, ...], codes: np.ndarray):
    """The values that codes use, in first-seen order, and codes into them."""
    used, first = np.unique(codes, return_index=True)
    used = used[np.argsort(first)]
    remap = np.empty(len(values), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return tuple(values[i] for i in used), remap[codes]


def _lookup(index: dict[str, int], column) -> np.ndarray:
    """index[v] for each row's value v, -1 for values not in index."""
    values, codes = column
    found = np.fromiter(map(index.get, values, repeat(-1)), np.int64, len(values))
    return found[codes]


def _last_occurrence(keys: np.ndarray) -> np.ndarray:
    """Position of the last occurrence of each distinct non-negative key,
    in ascending key order."""
    order = np.argsort(keys, kind="stable")
    return order[np.diff(keys[order], append=-1) != 0]


def load_triplets(path) -> FootprintMatrix:
    """Load user-item pairs from CSV or TSV into a FootprintMatrix.

    Delimiter and an optional header row are auto-detected. Duplicate
    pairs collapse to a single entry. User and item ids take dense
    indices in first-seen order. Malformed rows raise ValueError with
    the 1-based line number.
    """
    columns, bad = _read_columns(path, _FOOTPRINT_HEADERS)[1:]  # no line numbers
    if bad is not None:
        raise ValueError(f"line {bad}: expected 2 fields 'user_id,item_id'")
    (user_ids, users), (item_ids, items) = columns
    n_items = len(item_ids)
    keys = users.astype(np.int64)  # user * n_items + item, built in place
    keys *= n_items
    keys += items
    del columns, users, items  # the codes go before the sort
    keys.sort()
    new = np.empty(len(keys), dtype=bool)  # np.unique, less its hash pass
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    del new
    row_starts = np.arange(len(user_ids) + 1, dtype=np.int64) * n_items
    indptr = np.searchsorted(keys, row_starts)
    keys %= max(n_items, 1)  # now each entry's item
    return FootprintMatrix(indptr, keys, n_items, user_ids, item_ids)


def load_labels(path, matrix: FootprintMatrix) -> LabelTable:
    """Load (user_id, task_name, value) rows aligned to matrix users.

    Values parse as floats; users absent from the matrix are skipped
    (they may have been filtered out upstream), and a task whose rows all
    name such users stays, all NaN. Missing combinations, and nan values,
    stay NaN. Malformed rows and infinite values raise ValueError with the
    line number.
    """
    numbers, (users, tasks, (raws, value_codes)), bad = _read_columns(
        path, _LABEL_HEADERS
    )
    floats = np.full(len(raws), np.nan)
    not_number = np.zeros(len(raws), dtype=bool)
    for j, raw in enumerate(raws):
        try:
            floats[j] = float(raw)
        except ValueError:
            not_number[j] = True
    # nan marks a missing value; one that float() reads as +-inf (inf,
    # -Infinity, 1e999) is malformed
    malformed = not_number | np.isinf(floats)
    if malformed.any():
        r = int(np.argmax(malformed[value_codes]))
        raw = raws[value_codes[r]]
        kind = "number" if not_number[value_codes[r]] else "finite number"
        raise ValueError(f"line {numbers[r]}: value {raw!r} is not a {kind}")
    if bad is not None:
        raise ValueError(f"line {bad}: expected 3 fields 'user_id,task_name,value'")
    rows = _lookup(matrix.user_index, users)
    known = rows >= 0
    skipped = len(rows) - int(known.sum())
    task_names = tasks[0]  # each task the file names, labeled user or not
    keys = tasks[1][known].astype(np.int64) * matrix.n_users + rows[known]
    last = _last_occurrence(keys)
    table = np.full((len(task_names), matrix.n_users), np.nan)
    table.flat[keys[last]] = floats[value_codes[known][last]]
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
    whose indices point into that matrix. An unknown or non-binary task,
    or one that labels no user, raises ValueError.
    """
    labels.check_labeled(task)
    fm = filter_min_activity(matrix, min_user, min_item)
    if fm.n_users == 0:
        raise ValueError(
            "no user survives activity filtering: none has min_user="
            f"{min_user} likes among the items with min_item={min_item} likes"
        )
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
) -> np.ndarray:
    """Choose a uniform random subset of each user's items to drop.

    Returns, per stored entry of m, its rank in its user's re-add order, or
    -1 when kept (int32). Per user, round(drop_fraction * degree) items are
    dropped: the first ones of one random permutation of the row. Re-adding
    a fraction f restores each user's entries of rank below
    round(f * dropped), so re-added sets are nested across fractions.
    """
    if not 0.0 <= drop_fraction <= 1.0:
        raise ValueError("drop_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    ranks = np.full(m.nnz, -1, dtype=np.int32)
    steps = np.arange(int(m.degrees().max(initial=0)), dtype=np.int32)
    for start, end in zip(m.indptr[:-1].tolist(), m.indptr[1:].tolist()):
        d = round_half_up(drop_fraction * (end - start))
        ranks[start:end][rng.permutation(end - start)[:d]] = steps[:d]
    return ranks
