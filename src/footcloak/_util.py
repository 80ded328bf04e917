"""Small shared helpers: deterministic rounding, the logistic function, the
experiment config and its seed-stream table, the one result-file writer,
and serial_blas for the iterative solvers."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


def round_half_up(x: float) -> int:
    """Round half away from zero (0.5 -> 1, 1.5 -> 2, -0.5 -> -1)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def expit(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), elementwise, in float64.

    scipy.special.expit computes the same expression with the C library's
    exp; numpy's exp differs from it in the last bit for about 2% of
    inputs, so the two agree to a few ulp (a test holds them to that, with
    scipy as the oracle). Loading scipy.special costs a process about
    0.3 s, which commands that fit nothing would pay for this alone.
    exp(-x) overflows to inf below about -709.78, giving exactly 0 without
    a warning. For |x| < 2**-52 the result is exactly 1/2, as scipy's is
    for x up to 0.75 * 2**-52: there numpy's exp(-x) can be 1 - 2**-52
    where the C library's is 1 - 2**-53, which would give 1/2 + 2**-53.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-x))
    return np.where(np.abs(x) < 2.0**-52, 0.5, p)


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


DEFAULT_C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
DEFAULT_ALPHA_GRID = (1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3)
DEFAULT_SCHEDULE = tuple(round(f * 0.1, 1) for f in range(11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every stage that trains on a task: the classifier
    (split, CV folds, threshold), metafeatures, protection and spillover.

    Every field is checked when the config is built; NaN fails every
    check. Only FG_TOL reads tolerance_quantile, so its bound (at most
    quantile) is checked by cloak.check_strategy, which cloak, simulate
    and report call for their strategies before any work, not here.
    """

    seed: int = 0
    quantile: float = 0.95
    tolerance_quantile: float = 0.90
    drop_fraction: float = 0.5
    train_frac: float = 0.66
    schedule: tuple[float, ...] = DEFAULT_SCHEDULE
    k_metafeatures: int = 50
    folds: int = 3
    min_user: int = 10
    min_item: int = 10
    nmf_max_iters: int = 200
    nmf_tol: float = 1e-4

    def __post_init__(self):
        # (field, whether it holds, the bound it must meet); every
        # comparison is written so that NaN makes it false
        checks = (
            ("seed", self.seed >= 0, "at least 0"),
            ("quantile", 0.0 < self.quantile < 1.0, "in (0, 1)"),
            ("tolerance_quantile", 0.0 < self.tolerance_quantile < 1.0, "in (0, 1)"),
            ("drop_fraction", 0.0 <= self.drop_fraction <= 1.0, "in [0, 1]"),
            ("train_frac", 0.0 < self.train_frac < 1.0, "in (0, 1)"),
            ("schedule", len(self.schedule) > 0, "non-empty"),
            (
                "schedule fractions",
                all(0.0 <= f <= 1.0 for f in self.schedule),
                "in [0, 1]",
            ),
            ("k_metafeatures", self.k_metafeatures >= 1, "at least 1"),
            ("folds", self.folds >= 2, "at least 2"),
            ("min_user", self.min_user >= 0, "at least 0"),
            ("min_item", self.min_item >= 0, "at least 0"),
            ("nmf_max_iters", self.nmf_max_iters >= 1, "at least 1"),
            # a manifest holds no infinity: JSON has none
            ("nmf_tol", 0.0 <= self.nmf_tol < math.inf, "in [0, inf)"),
        )
        for name, holds, bound in checks:
            if not holds:
                raise ValueError(f"{name} must be {bound}")


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and a trailing newline.

    Used for every JSON result file so that reruns are byte-identical.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header and rows as CSV text with newline line ends.

    Fields holding `,`, `"` or a line break are quoted, None is written as
    an empty field, and floats as their repr, so plain values keep the bytes
    of a naive comma join.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_results(outdir, files: dict[str, Any]) -> None:
    """Write a command's result files into outdir, creating it if needed.

    files maps a file name to its content: a str is written as it is (the
    CSV files, built by csv_text or, for synth's dataset, by plain joins);
    anything else is a JSON object, written by canonical_json. Files are
    written in the order given, and every text is built before outdir is
    made, so content that is not strict JSON writes no file at all.
    """
    texts = {
        name: content if isinstance(content, str) else canonical_json(content)
        for name, content in files.items()
    }
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (outdir / name).write_text(text, newline="")


# Names of the thread-count functions an OpenBLAS build exports, with "{}"
# for get or set: scipy's wheel prefixes them scipy_, numpy's ILP64 wheel
# also suffixes them 64_
_OPENBLAS_THREAD_FUNCS = tuple(
    f"{prefix}_{{}}_num_threads{suffix}"
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS loaded in
    this process; () where there is none (another BLAS, or no /proc).

    /proc/self/maps is read once, at the first call. Importing footcloak
    maps only numpy's OpenBLAS: footcloak loads no scipy module at import,
    and scipy.sparse links no BLAS. scipy's own OpenBLAS is mapped when
    scipy.linalg loads, which scipy.optimize does at a model's first fit,
    so the lookup loads scipy.linalg first: a lookup made before any fit
    (NMF's, say) then still finds the library every later fit runs on.
    """
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS)

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
            )
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                get = getattr(lib, name.format("get"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_ = getattr(lib, name.format("set"))
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def serial_blas():
    """Run the block with every loaded OpenBLAS on one thread; on exit,
    also when the block raises, each gets its previous thread count back.

    For solver loops of many small BLAS calls (an L-BFGS-B fit, NMF
    updates, the ridge fit): there a second thread spins and syncs on every call, which
    costs CPU time and gains no speed, and its split of a long sum makes
    the result depend on the thread count. Does nothing where no OpenBLAS
    is found. The thread count is process-wide, so no other thread of the
    process should run BLAS work inside the block.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(controls, previous):
            set_threads(n)
