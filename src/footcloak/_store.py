"""The content-addressed store of what commands compute: each generated
dataset, each dataset's parsed footprints and labels, each classifier fit,
each NMF and each spillover ridge.

An entry is one .npz file, <key>.<kind>.npz, in the store's directory
(cache_dir). Its key is SHA-256 over the store's format, the entry's kind,
the bytes of the modules that compute it, the library environment the
numbers come from (_environment) and the inputs and arguments its caller
names. The store is open only while cli.main runs a command (opened).
Closed, entry returns None and every caller computes as without a store,
so library callers (tests, notebooks) never read or write it.

A failed load is a miss, and a failed write leaves the command uncached.
An entry is written to a per-process temporary file, then renamed into
place, so no reader sees half of one. Hits, misses and unwritten entries
are logged at DEBUG. Imports only the standard library: numpy loads when
an entry is first looked up.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
from hashlib import sha256
from pathlib import Path

logger = logging.getLogger(__name__)

# names the key scheme and the file layout; a change to either must change it
_FORMAT = b"footcloak store 1\n"
_SOURCES = Path(__file__).parent  # the modules whose bytes key an entry

_directory: Path | None = None  # the open store's, else None


def cache_dir() -> Path | None:
    """The store's directory: FOOTCLOAK_CACHE_DIR (set empty: no store),
    else $XDG_CACHE_HOME/footcloak, else ~/.cache/footcloak."""
    env = os.environ.get("FOOTCLOAK_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    try:
        base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    except RuntimeError:  # no home directory
        return None
    return Path(base, "footcloak")


@contextlib.contextmanager
def opened():
    """The store open in cache_dir() for the block, and closed after it,
    also when the block raises."""
    global _directory
    _directory = cache_dir()
    try:
        yield
    finally:
        _directory = None


def is_open() -> bool:
    return _directory is not None


@functools.cache
def _environment(scipy_blas: bool = True) -> tuple[str, ...]:
    """What the numbers depend on besides footcloak's own code: numpy's
    version, the text of scipy's version.py (version and git revision;
    importing scipy would cost a command its package import) and every
    loaded OpenBLAS's config string, which names its core kernel: ddot and
    dgemm round differently on different kernels. scipy's OpenBLAS, which
    the fits run on, is loaded for the lookup unless scipy_blas is False."""
    import importlib.util

    import numpy as np

    from ._util import openblas_configs

    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    scipy_version = Path(scipy_dir, "version.py").read_text()
    return (np.__version__, scipy_version, *openblas_configs(scipy_blas))


def _digest(part) -> bytes:
    """SHA-256 of one key part: bytes as they are, an array with its dtype
    and shape, anything else by its type and repr."""
    import numpy as np

    if isinstance(part, bytes):
        return sha256(part).digest()
    if isinstance(part, np.ndarray):
        digest = sha256(f"{part.dtype.str} {part.shape}".encode())
        digest.update(np.ascontiguousarray(part))
        return digest.digest()
    return sha256(f"{type(part).__name__} {part!r}".encode()).digest()


def entry(
    kind: str, sources: tuple[str, ...], parts, scipy_blas: bool = True
) -> Path | None:
    """The path of kind's entry for parts, computed by the package modules
    named in sources; None when the store is closed or a source cannot be
    read. A kind computed without scipy's OpenBLAS passes scipy_blas=False
    (_environment)."""
    if _directory is None:
        return None
    key = sha256(_FORMAT)
    key.update(_digest(kind.encode()))
    try:
        for name in sources:
            key.update(_digest((_SOURCES / name).read_bytes()))
    except OSError:
        return None
    for part in (*_environment(scipy_blas), *parts):
        key.update(_digest(part))
    return _directory / f"{key.hexdigest()}.{kind}.npz"


def load(path: Path | None, build):
    """build(arrays) of the entry at path, arrays mapping each stored name to
    its array; None for no path, and for an entry that fails to load or to
    build: a miss."""
    if path is None:
        return None
    import zipfile

    import numpy as np

    try:
        with np.load(path, allow_pickle=False) as npz:
            result = build({name: npz[name] for name in npz.files})
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        logger.debug("store miss: %s (%s)", path, exc)
        return None
    logger.debug("store hit: %s", path)
    return result


def save(path: Path | None, arrays: dict) -> None:
    """Store arrays as the entry at path; nothing for no path. A write that
    fails leaves no entry."""
    if path is None:
        return
    import numpy as np

    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(temp, path)
    except (OSError, ValueError) as exc:
        logger.debug("store entry not written: %s (%s)", path, exc)
        with contextlib.suppress(OSError):
            temp.unlink()
