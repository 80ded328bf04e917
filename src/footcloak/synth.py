"""Synthetic footprint generator with planted topic structure.

Items live in contiguous topic blocks. Each user draws a Dirichlet topic
mixture, splits a Poisson like count across topics, and picks items
within each topic by a Zipf popularity law, without replacement. Binary
task labels come from a logistic link on the topic mixture; continuous
traits come from a linear link plus Gaussian noise, rescaled to a 1-5
range. The planted structure is emitted as a ground-truth sidecar.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.special import expit

from ._util import canonical_json
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


def generate(config: SynthConfig) -> SynthResult:
    """Generate a footprint matrix with planted topics and linked labels.

    Deterministic given config.seed. Infeasible per-user topic splits
    (more draws than a topic's inventory) are resampled, then overflow is
    shifted to topics with spare capacity; both paths are counted in the
    diagnostics.
    """
    n, m, k = config.n_users, config.n_items, config.k_topics
    rng = np.random.default_rng(config.seed)

    blocks = _topic_blocks(m, k)
    sizes = np.array([len(b) for b in blocks])
    item_topics = np.concatenate(
        [np.full(len(b), t, dtype=np.int64) for t, b in enumerate(blocks)]
    )
    zipf = []
    for b in blocks:
        wts = (np.arange(len(b), dtype=np.float64) + 1.0) ** (
            -config.popularity_exponent
        )
        zipf.append(wts / wts.sum())

    aff = rng.dirichlet(np.full(k, config.dirichlet_alpha), size=n)
    like_counts = np.minimum(rng.poisson(config.mean_likes, size=n), m)

    resamples = 0
    overflow_shifts = 0
    rows = []
    for i in range(n):
        L = int(like_counts[i])
        counts = rng.multinomial(L, aff[i])
        tries = 0
        while np.any(counts > sizes) and tries < 20:
            counts = rng.multinomial(L, aff[i])
            tries += 1
            resamples += 1
        if np.any(counts > sizes):
            # push the remaining overflow into topics with spare room
            overflow_shifts += 1
            counts = np.minimum(counts, sizes)
            deficit = L - int(counts.sum())
            for t in range(k):
                room = int(sizes[t] - counts[t])
                take = min(room, deficit)
                counts[t] += take
                deficit -= take
                if deficit == 0:
                    break
        parts = []
        for t in range(k):
            c = int(counts[t])
            if c == 0:
                continue
            parts.append(rng.choice(blocks[t], size=c, replace=False, p=zipf[t]))
        row = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        rows.append(row)
    if resamples:
        logger.debug("generate: %d infeasible topic splits resampled", resamples)

    user_ids = tuple(f"u{i:05d}" for i in range(n))
    item_ids = tuple(f"i{j:05d}" for j in range(m))
    matrix = from_rows(rows, m, user_ids, item_ids)

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


def write_dataset(outdir, result: SynthResult) -> dict:
    """Write footprints.csv, labels.csv, domain_categories.csv and the
    ground-truth sidecar. Returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    m = result.matrix

    fp = outdir / "footprints.csv"
    with fp.open("w") as fh:
        fh.write("user_id,item_id\n")
        for i in range(m.n_users):
            uid = m.user_ids[i]
            for j in m.row(i):
                fh.write(f"{uid},{m.item_ids[j]}\n")

    lp = outdir / "labels.csv"
    with lp.open("w") as fh:
        fh.write("user_id,task_name,value\n")
        for task in result.labels.task_names:
            vals = result.labels.values[task]
            binary = result.labels.is_binary(task)
            for i in range(m.n_users):
                v = vals[i]
                if np.isnan(v):
                    continue
                text = f"{int(v)}" if binary else f"{v:.6f}"
                fh.write(f"{m.user_ids[i]},{task},{text}\n")

    # broader editorial groups: pairs of adjacent topics, with a small
    # deterministic tail of items left unmapped to exercise 'uncategorized'
    dp = outdir / "domain_categories.csv"
    blocks = _topic_blocks(m.n_items, result.config.k_topics)
    with dp.open("w") as fh:
        fh.write("item_id,category\n")
        for t, block in enumerate(blocks):
            mapped = block[: max(1, int(len(block) * 0.98))]
            for j in mapped:
                fh.write(f"{m.item_ids[j]},cat{t // 2}\n")

    gt = outdir / "ground_truth.json"
    k = result.config.k_topics
    obj = {
        "config": {
            "n_users": result.config.n_users,
            "n_items": result.config.n_items,
            "k_topics": result.config.k_topics,
            "dirichlet_alpha": result.config.dirichlet_alpha,
            "popularity_exponent": result.config.popularity_exponent,
            "mean_likes": result.config.mean_likes,
            "seed": result.config.seed,
        },
        "binary_links": [asdict(l) for l in default_binary_links(k)],
        "continuous_links": [asdict(l) for l in default_continuous_links(k)],
        "item_topics": [int(t) for t in result.item_topics],
        "diagnostics": result.diagnostics,
    }
    gt.write_text(canonical_json(obj))
    return {
        "footprints": str(fp),
        "labels": str(lp),
        "domain_categories": str(dp),
        "ground_truth": str(gt),
    }
