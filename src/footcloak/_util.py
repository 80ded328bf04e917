"""Small shared helpers: deterministic rounding, the logistic function,
sorted distinct values, the experiment config and its seed-stream table,
the one result-file writer, scipy's compiled L-BFGS-B routine and sparse
kernels, and the loaded OpenBLAS builds: serial_blas for the iterative
solvers, and their config strings."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import importlib.machinery
import importlib.util
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


def unique_sorted(values) -> np.ndarray:
    """np.unique(values): the sorted distinct values, NaNs counted as one.

    Asking for counts takes np.unique's sorting path. Without a return_
    option numpy 2.4 first calls np.ma.is_masked, which imports numpy.ma,
    and no command needs numpy.ma otherwise: it costs a process 10-27 ms
    (2 vCPUs).
    """
    return np.unique(values, return_counts=True)[0]


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


_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)


def _scipy_extension(package: str, name: str):
    """scipy's compiled extension file scipy/<package>/<name>, loaded on its
    own: no scipy/__init__.py or scipy/<package>/__init__.py runs. Returns
    the module and its file. Raises ImportError when there is no such file."""
    candidates = (
        Path(folder, package, name + suffix)
        for folder in importlib.util.find_spec("scipy").submodule_search_locations
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    )
    path = next((p for p in candidates if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's extension {package}/{name} not found")
    full_name = f"scipy.{package}.{name}"
    loader = importlib.machinery.ExtensionFileLoader(full_name, str(path))
    spec = importlib.util.spec_from_loader(full_name, loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module, path


@functools.cache
def lbfgsb_setulb():
    """scipy's compiled L-BFGS-B routine setulb (Zhu, Byrd, Lu & Nocedal
    1997, ACM TOMS 23(4), Algorithm 778), one reverse-communication step.

    Loaded from the extension file scipy/optimize/_lbfgsb alone. Importing
    scipy.optimize instead costs a process about 0.2 s and 25 MB more
    (2 vCPUs, scipy 1.17.1) for scipy.linalg, scipy.special and the rest of
    the package, none of which a fit uses. Raises ImportError when the file
    is missing or its setulb has another signature.
    """
    module, path = _scipy_extension("optimize", "_lbfgsb")
    setulb = getattr(module, "setulb", None)
    signature = (getattr(setulb, "__doc__", None) or "").split("\n", 1)[0].strip()
    if signature != _SETULB_SIGNATURE:
        raise ImportError(
            f"{path}: expected {_SETULB_SIGNATURE}, found {signature!r}; "
            "footcloak needs the setulb of scipy 1.15 or later"
        )
    return setulb


_SPARSE_PRODUCTS = ("csr_matvec", "csr_matvecs", "csc_matvec", "csc_matvecs")


@functools.cache
def sparsetools():
    """scipy's compiled sparse kernels, the ones scipy's CSR and CSC
    products call, from the extension file scipy/sparse/_sparsetools alone.

    Importing scipy.sparse instead costs a process about 0.18 s and 21 MB
    more (2 vCPUs, scipy 1.17.1): it clones numpy's namespace, which loads
    numpy.f2py, numpy.testing, numpy.fft and numpy.polynomial. Raises
    ImportError naming the file when it is missing, lacks any of
    _SPARSE_PRODUCTS, or has one that fails the product of the 1x1 matrix
    [1] with [2] in the arguments FootprintMatrix._product passes: the
    kernels carry no signature to check.
    """
    module, path = _scipy_extension("sparse", "_sparsetools")
    missing = [f for f in _SPARSE_PRODUCTS if not callable(getattr(module, f, None))]
    if missing:
        raise ImportError(f"{path}: has no {', '.join(missing)}")
    one = (np.array([0, 1], np.int32), np.zeros(1, np.int32), np.ones(1))
    for name in _SPARSE_PRODUCTS:
        out = np.zeros(1)
        sizes = (1, 1, 1) if name.endswith("matvecs") else (1, 1)
        try:
            getattr(module, name)(*sizes, *one, np.full(1, 2.0), out)
        except (IndexError, TypeError, ValueError) as exc:
            raise ImportError(f"{path}: {name} fails a 1x1 product: {exc}") from exc
        if out[0] != 2.0:
            raise ImportError(f"{path}: {name} gives {out[0]} for 1 * 2")
    return module


# the symbol prefix and suffix of an OpenBLAS build's functions: scipy's
# wheel prefixes them scipy_, numpy's ILP64 wheel also suffixes them 64_
_OPENBLAS_NAMES = tuple(
    (prefix, suffix) for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


def _openblas_libraries(scipy_blas: bool = True) -> list[tuple]:
    """(library, symbol prefix, suffix) of every OpenBLAS loaded in this
    process; [] where there is none (another BLAS, or no /proc).

    Importing footcloak maps no OpenBLAS, as it loads neither numpy nor
    scipy; numpy's is mapped with this module, which imports numpy, and
    scipy's sparse kernels (sparsetools) link no BLAS. scipy's own OpenBLAS
    is mapped by the L-BFGS-B extension, which links it and which a model's
    first fit loads, so unless scipy_blas is False the lookup loads that
    extension first: a lookup made before any fit (NMF's, say) then still
    finds the library every later fit runs on.
    """
    if scipy_blas:
        lbfgsb_setulb()  # maps scipy's OpenBLAS

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
            )
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            if all(
                hasattr(lib, f"{prefix}_{op}_num_threads{suffix}") for op in ("get", "set")
            ):
                found.append((lib, prefix, suffix))
                break
    return found


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every loaded OpenBLAS;
    () where there is none. Looked up once, at the first call."""
    controls = []
    for lib, prefix, suffix in _openblas_libraries():
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        get.argtypes, get.restype = [], ctypes.c_int
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


@functools.cache
def openblas_configs(scipy_blas: bool = True) -> tuple[str, ...]:
    """The config string of every loaded OpenBLAS, as its get_config gives
    it: version, build options and the core kernel the CPU chose, such as
    "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"; a
    build without get_config gives its file name. Looked up once per
    scipy_blas, at the first call; with scipy_blas False, scipy's OpenBLAS
    is not loaded for the lookup."""
    configs = []
    for lib, prefix, suffix in _openblas_libraries(scipy_blas):
        get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if get_config is None:
            configs.append(Path(lib._name).name)
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        configs.append(get_config().decode(errors="replace"))
    return tuple(configs)


@contextlib.contextmanager
def serial_blas():
    """Run the block with every loaded OpenBLAS on one thread; on exit,
    also when the block raises, each gets its previous thread count back.

    For solver loops of many small BLAS calls (an L-BFGS-B fit, NMF
    updates, the ridge fit): there a second thread spins and syncs on every
    call, which costs CPU time and gains no speed, and its split of a long
    sum makes the result depend on the thread count. A command starts
    OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set (cli.main),
    as the pool costs a fresh process more to start than it gains; this
    guard keeps the results of library callers, and of a command under
    any OPENBLAS_NUM_THREADS, free of the thread count. Does nothing where
    no OpenBLAS is found. The thread count is process-wide, so no other
    thread of the process should run BLAS work inside the block.
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
