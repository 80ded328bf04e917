"""Small shared helpers: deterministic rounding, seeding and the seed-stream
table, result-file writers."""

from __future__ import annotations

import csv
import json
import math
from typing import Any, Iterable, Sequence

import numpy as np


def round_half_up(x: float) -> int:
    """Round half away from zero (0.5 -> 1, 1.5 -> 2, -0.5 -> -1)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


# Seed streams: each random stage draws from derive_seed(seed, stream). The
# protection experiment and the full-footprint classifier (train, explain,
# cloak, spillover) use separate ids; changing one changes every output.
STREAM_PROTECTION_SPLIT = 1
STREAM_PROTECTION_DROP = 2
STREAM_PROTECTION_CV = 3
STREAM_PROTECTION_NMF = 4
STREAM_SPLIT = 21
STREAM_CV = 22
STREAM_NMF = 23
STREAM_RIDGE = 24


def derive_seed(base_seed: int, stream: int) -> int:
    """Derive an independent child seed from a base seed and a stream id.

    Deterministic; distinct streams give statistically independent
    generators even for adjacent base seeds.
    """
    ss = np.random.SeedSequence([int(base_seed), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and a trailing newline.

    Used for every result file so that reruns are byte-identical.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as a CSV result file with newline line ends.

    Fields holding `,`, `"` or a line break are quoted, None is written as
    an empty field, and floats as their repr, so plain values keep the bytes
    of a naive comma join.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
