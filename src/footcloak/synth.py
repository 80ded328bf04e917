"""Synthetic footprint generator with planted topic structure.

Items live in contiguous topic blocks. Each user draws a Dirichlet topic
mixture, splits a Poisson like count across topics, and picks items
within each topic by a Zipf popularity law, without replacement. Binary
task labels come from a logistic link on the topic mixture; continuous
traits come from a linear link plus Gaussian noise, rescaled to a 1-5
range. The planted structure is emitted as a ground-truth sidecar.

The within-topic draw replays numpy's `Generator.choice` without
replacement, taking the same uniforms from the same stream, without its
per-call checks and CDF rebuilds. A test pins the replay to numpy's own
`choice`, so a numpy release that changes `choice` fails that test rather
than silently changing the datasets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import _store
from ._util import expit
from .data import FootprintMatrix, LabelTable, from_rows

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BinaryLink:
    """Logistic link from topic mixture to a binary label."""

    name: str
    topic_weights: tuple[float, ...]
    intercept: float


@dataclass(frozen=True)
class ContinuousLink:
    """Linear link from topic mixture to a continuous trait."""

    name: str
    topic_weights: tuple[float, ...]
    noise_sd: float


def default_binary_links(k_topics: int) -> tuple[BinaryLink, ...]:
    """Three tasks, each loading strongly on two adjacent topics.

    Intercepts are spread so positive rates land between roughly 5% and
    40% under the default Dirichlet concentration.
    """

    def link(name, t0, t1, weight, intercept):
        w = np.zeros(k_topics)
        w[t0 % k_topics] = weight
        w[t1 % k_topics] = weight
        return BinaryLink(name, tuple(w), intercept)

    return (
        link("task_a", 0, 1, 9.0, -4.0),
        link("task_b", 2, 3, 9.0, -5.0),
        link("task_c", 4, 5, 8.0, -3.0),
    )


def default_continuous_links(k_topics: int) -> tuple[ContinuousLink, ...]:
    """Five traits with dense, varied topic weights (all topics matter)."""
    links = []
    for t in range(5):
        w = tuple(
            ((j + t) % 3 - 1) * (1.0 + ((j * (t + 2)) % 4)) for j in range(k_topics)
        )
        links.append(ContinuousLink(f"trait_{chr(ord('a') + t)}", w, 1.0))
    return tuple(links)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 2000
    n_items: int = 5000
    k_topics: int = 12
    dirichlet_alpha: float = 0.3
    popularity_exponent: float = 1.1
    mean_likes: int = 100
    seed: int = 0

    def __post_init__(self):
        # (field, whether it holds, the bound it must meet); every
        # comparison is written so that NaN makes it false
        checks = (
            # continuous traits are rescaled by their range, 0 for one user
            ("n_users", self.n_users >= 2, "at least 2"),
            ("n_items", self.n_items >= 1, "at least 1"),
            ("k_topics", 1 <= self.k_topics <= self.n_items, "in [1, n_items]"),
            ("dirichlet_alpha", 0.0 < self.dirichlet_alpha < math.inf, "in (0, inf)"),
            (
                "popularity_exponent",
                -math.inf < self.popularity_exponent < math.inf,
                "finite",
            ),
            ("mean_likes", 0 <= self.mean_likes <= self.n_items, "in [0, n_items]"),
            ("seed", self.seed >= 0, "at least 0"),
        )
        for name, holds, bound in checks:
            if not holds:
                raise ValueError(f"{name} must be {bound}")
        # a user can draw every item of the largest topic block, and
        # Generator.choice can draw them only if each one's Zipf weight is
        # finite and nonzero; then so is every weight of the smaller blocks
        size = -(-self.n_items // self.k_topics)
        if self.mean_likes > 0 and not _drawable(size, self.popularity_exponent):
            lo, hi = (_drawable_edge(size, e) for e in (-_EXPONENT_OUT, _EXPONENT_OUT))
            raise ValueError(
                f"popularity_exponent must be in [{lo}, {hi}] with a largest "
                f"topic block of {size} items, where its Zipf weights neither "
                "overflow nor underflow to 0"
            )


def _zipf(size: int, exponent: float) -> np.ndarray:
    """A topic block's normalized Zipf weights, rank ** -exponent over
    their sum; NaN or 0 where they overflow or underflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        wts = (np.arange(size, dtype=np.float64) + 1.0) ** (-exponent)
        return wts / wts.sum()


def _drawable(size: int, exponent: float) -> bool:
    """Whether every Zipf weight of a block of size items is finite and
    nonzero, so that choice can draw the whole block."""
    return bool((_zipf(size, exponent) > 0).all())


# an exponent whose weights fail for every block of 2 or more items:
# 2 ** 1100 overflows and 2 ** -1100 underflows
_EXPONENT_OUT = 1100.0


def _drawable_edge(size: int, outside: float) -> float:
    """The exponent between 0 and outside (which fails) where the weights
    of a block of size items stop being drawable, to 1 decimal, rounded
    toward 0 so that it is drawable itself."""
    inside = 0.0
    for _ in range(64):
        mid = (inside + outside) / 2
        if _drawable(size, mid):
            inside = mid
        else:
            outside = mid
    return math.trunc(inside * 10) / 10


@dataclass(frozen=True, eq=False)
class SynthResult:
    matrix: FootprintMatrix
    labels: LabelTable
    item_topics: np.ndarray
    affinities: np.ndarray
    config: SynthConfig
    diagnostics: dict = field(default_factory=dict)


def _topic_blocks(n_items: int, k: int) -> list[np.ndarray]:
    bounds = [(t * n_items) // k for t in range(k + 1)]
    return [np.arange(bounds[t], bounds[t + 1], dtype=np.int64) for t in range(k)]


def _topic_counts(rng, likes: int, mixture: np.ndarray, sizes: np.ndarray):
    """Split a user's likes across topics by a multinomial draw.

    A split with more draws than a topic's inventory is redrawn, up to 20
    times; then the overflow is shifted to topics with spare room. Returns
    the counts, the number of redraws and whether a shift was needed.
    """
    counts = rng.multinomial(likes, mixture)
    tries = 0
    while np.any(counts > sizes) and tries < 20:
        counts = rng.multinomial(likes, mixture)
        tries += 1
    shifted = bool(np.any(counts > sizes))
    if shifted:
        # push the remaining overflow into topics with spare room
        counts = np.minimum(counts, sizes)
        deficit = likes - int(counts.sum())
        for t in range(len(sizes)):
            room = int(sizes[t] - counts[t])
            take = min(room, deficit)
            counts[t] += take
            deficit -= take
            if deficit == 0:
                break
    return counts, tries, shifted


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF Generator.choice searches, normalized as it does."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _sample_rows(rng, blocks, zipf, aff, like_counts):
    """Each user's ascending item indices, with the resample and overflow
    counts.

    Per user, the topic counts come from _topic_counts, and then each
    topic t with c > 0 draws as
    `rng.choice(blocks[t], size=c, replace=False, p=zipf[t])` would:
    c uniforms are searched in the normalized CDF of the weights; draws
    repeated within a round are dropped, keeping first occurrences; each
    further round draws as many uniforms as are still missing, from the
    CDF of the weights with the found items zeroed. The replay takes the
    same uniforms from the same stream, so every seed gives the rows that
    loop gives. It makes none of choice's checks: SynthConfig admits only
    weights that pass them whenever anything is drawn, and a topic's
    weights are read only when it is drawn from.
    Unlike that loop, it builds each topic's first-round CDF once, and it
    takes a user's uniforms from one `rng.random` call, topped up only
    when a round needs more (`random(a)` then `random(b)` gives the
    doubles of `random(a + b)`).
    """
    sizes = np.array([len(b) for b in blocks])
    starts = [int(b[0]) for b in blocks]
    first_cdfs = [None] * len(zipf)  # each built at its topic's first draw
    resamples = 0
    overflow_shifts = 0
    rows = []
    for i, likes in enumerate(like_counts.tolist()):
        counts, tries, shifted = _topic_counts(rng, likes, aff[i], sizes)
        resamples += tries
        overflow_shifts += shifted
        uniforms = rng.random(likes)
        pos = 0
        items: list[int] = []
        for t, c in enumerate(counts.tolist()):
            if c == 0:
                continue
            cdf = first_cdfs[t]
            if cdf is None:
                cdf = first_cdfs[t] = _cdf(zipf[t])
            found: list[int] = []
            while True:
                need = c - len(found)
                if pos + need > len(uniforms):
                    more = rng.random(pos + need - len(uniforms))
                    uniforms = np.concatenate((uniforms[pos:], more))
                    pos = 0
                new = cdf.searchsorted(uniforms[pos : pos + need], side="right")
                pos += need
                found = list(dict.fromkeys(found + new.tolist()))
                if len(found) == c:
                    break
                p = zipf[t].copy()
                p[found] = 0.0
                cdf = _cdf(p)
            start = starts[t]
            items.extend([start + j for j in sorted(found)])
        rows.append(np.array(items, dtype=np.int64))
    return rows, resamples, overflow_shifts


# the modules that compute a dataset: their bytes key its store entry
_SYNTH_SOURCES = ("synth.py", "data.py", "_util.py")


def generate(config: SynthConfig) -> SynthResult:
    """Generate a footprint matrix with planted topics and linked labels.

    Deterministic given config.seed. Infeasible per-user topic splits
    (more draws than a topic's inventory) are resampled, then overflow is
    shifted to topics with spare capacity; both paths are counted in the
    diagnostics. Items within a topic are drawn by _sample_rows, which
    replays `Generator.choice` without replacement; the oracle test pins
    it to numpy's own `choice`, so a numpy release that changes `choice`
    fails that test instead of silently changing the datasets.

    While a command runs, the result is read back from the store (_store)
    when it holds one for the same config and code (numpy's version, part
    of every key, fixes the random streams), and stored there otherwise.
    """
    # synth runs on numpy's OpenBLAS alone: the lookup loads no scipy
    entry = _store.entry(
        "synth", _SYNTH_SOURCES, tuple(asdict(config).items()), scipy_blas=False
    )
    result = _store.load(entry, lambda a: _stored(config, a))
    if result is None:
        result = _generate(config)
        _store.save(entry, {
            "indptr": result.matrix.indptr,
            "indices": result.matrix.indices,
            "labels": np.array(list(result.labels.values.values())),
            "item_topics": result.item_topics,
            "affinities": result.affinities,
            "diagnostics": np.array(list(result.diagnostics.values())),
        })
    return result


def _ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:05d}" for i in range(count))


def _stored(config: SynthConfig, a: dict) -> SynthResult:
    """The SynthResult that generate stored as a; its ids and task names
    follow from the config."""
    n, m, k = config.n_users, config.n_items, config.k_topics
    matrix = FootprintMatrix(a["indptr"], a["indices"], m, _ids("u", n), _ids("i", m))
    links = (*default_binary_links(k), *default_continuous_links(k))
    labels = LabelTable(dict(zip((l.name for l in links), a["labels"])), n)
    resamples, overflow_shifts = a["diagnostics"].tolist()
    diagnostics = {"resamples": resamples, "overflow_shifts": overflow_shifts}
    return SynthResult(
        matrix, labels, a["item_topics"], a["affinities"], config, diagnostics
    )


def _generate(config: SynthConfig) -> SynthResult:
    """generate's result, computed."""
    n, m, k = config.n_users, config.n_items, config.k_topics
    rng = np.random.default_rng(config.seed)

    blocks = _topic_blocks(m, k)
    item_topics = np.concatenate(
        [np.full(len(b), t, dtype=np.int64) for t, b in enumerate(blocks)]
    )
    zipf = [_zipf(len(b), config.popularity_exponent) for b in blocks]

    aff = rng.dirichlet(np.full(k, config.dirichlet_alpha), size=n)
    like_counts = np.minimum(rng.poisson(config.mean_likes, size=n), m)

    rows, resamples, overflow_shifts = _sample_rows(
        rng, blocks, zipf, aff, like_counts
    )
    if resamples:
        logger.debug("generate: %d infeasible topic splits resampled", resamples)

    matrix = from_rows(rows, m, _ids("u", n), _ids("i", m))

    values: dict[str, np.ndarray] = {}
    for link in default_binary_links(k):
        w = np.asarray(link.topic_weights)
        p = expit(aff @ w + link.intercept)
        values[link.name] = (rng.random(n) < p).astype(np.float64)
    for link in default_continuous_links(k):
        w = np.asarray(link.topic_weights)
        raw = aff @ w + rng.normal(0.0, link.noise_sd, size=n)
        lo, hi = raw.min(), raw.max()
        if hi == lo:
            raise ValueError(f"{link.name}: degenerate trait (constant)")
        values[link.name] = 1.0 + 4.0 * (raw - lo) / (hi - lo)
    labels = LabelTable(values, n)

    diagnostics = {"resamples": resamples, "overflow_shifts": overflow_shifts}
    return SynthResult(matrix, labels, item_topics, aff, config, diagnostics)


# ---------------------------------------------------------------------------
# dataset files


def dataset_files(result: SynthResult) -> dict:
    """The dataset as result files: footprints.csv, labels.csv and
    domain_categories.csv as text, and the ground-truth sidecar as a JSON
    object.

    The CSV lines are plain comma joins, several times faster than
    csv.writer; they are csv_text's bytes, because generated ids hold no
    comma, quote or line break.
    """
    m = result.matrix
    k = result.config.k_topics

    # each user's lines in one join
    footprints = ["user_id,item_id\n"]
    item_id = m.item_ids.__getitem__
    for i, uid in enumerate(m.user_ids):
        row = m.row(i).tolist()
        if row:
            sep = f"\n{uid},"
            footprints.append(f"{uid},{sep.join(map(item_id, row))}\n")

    labels = ["user_id,task_name,value\n"]
    for task in result.labels.task_names:
        vals = result.labels.values[task].tolist()
        binary = result.labels.is_binary(task)
        labels.extend(
            f"{uid},{task},{int(v) if binary else format(v, '.6f')}\n"
            for uid, v in zip(m.user_ids, vals)
            if not math.isnan(v)
        )

    # broader editorial groups: pairs of adjacent topics, with a small
    # deterministic tail of items left unmapped to exercise 'uncategorized'
    domains = ["item_id,category\n"]
    for t, block in enumerate(_topic_blocks(m.n_items, k)):
        mapped = block[: max(1, int(len(block) * 0.98))]
        domains.extend(f"{m.item_ids[j]},cat{t // 2}\n" for j in mapped)

    return {
        "footprints.csv": "".join(footprints),
        "labels.csv": "".join(labels),
        "domain_categories.csv": "".join(domains),
        "ground_truth.json": {
            "config": asdict(result.config),
            "binary_links": [asdict(l) for l in default_binary_links(k)],
            "continuous_links": [asdict(l) for l in default_continuous_links(k)],
            "item_topics": [int(t) for t in result.item_topics],
            "diagnostics": result.diagnostics,
        },
    }
