"""serial_blas: the solver loops run on one OpenBLAS thread, every library
gets its thread count back, and the solvers' results stop depending on the
thread count around them."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import footcloak
from footcloak._util import _openblas_thread_controls, serial_blas
from footcloak.metafeatures import nmf_fit
from footcloak.models import fit_ridge, train_logreg_l2

from conftest import random_footprints

CONTROLS = _openblas_thread_controls()
pytestmark = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS loaded")


def _counts():
    return [get() for get, _ in CONTROLS]


@contextlib.contextmanager
def _blas_threads(n):
    """Every loaded OpenBLAS on n threads inside the block."""
    previous = _counts()
    for _, set_threads in CONTROLS:
        set_threads(n)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(CONTROLS, previous):
            set_threads(count)


def test_serial_blas_restores_thread_counts_on_exit():
    with _blas_threads(2):
        with serial_blas():
            assert _counts() == [1] * len(CONTROLS)
        assert _counts() == [2] * len(CONTROLS)


def test_serial_blas_restores_thread_counts_when_the_body_raises():
    with _blas_threads(2):
        with pytest.raises(RuntimeError, match="inside"):
            with serial_blas():
                raise RuntimeError("inside")
        assert _counts() == [2] * len(CONTROLS)


def test_serial_blas_nests():
    with _blas_threads(2):
        with serial_blas():
            with serial_blas():
                assert _counts() == [1] * len(CONTROLS)
            assert _counts() == [1] * len(CONTROLS)
        assert _counts() == [2] * len(CONTROLS)


# The differential tests pick shapes where a 2-thread OpenBLAS splits the
# work: its level-1 routines (the dot products inside L-BFGS-B) thread above
# 10 000 items, and its dgemm splits (W^T W) H at a column count that is no
# multiple of the kernel's block, so a result computed outside serial_blas
# differs in the last bits between the two counts.


def test_logreg_fit_does_not_depend_on_blas_threads():
    rng = np.random.default_rng(50)
    m = random_footprints(rng, 200, 12_000, density=0.01)
    y = (rng.random(200) < 0.3).astype(float)
    fits = []
    for threads in (1, 2):
        with _blas_threads(threads):
            fits.append(train_logreg_l2(m, y, C=1.0))
    assert np.array_equal(fits[0].weights, fits[1].weights)
    assert fits[0].intercept == fits[1].intercept


def test_nmf_fit_does_not_depend_on_blas_threads():
    rng = np.random.default_rng(51)
    m = random_footprints(rng, 120, 1001, density=0.05)
    fits = []
    for threads in (1, 2):
        with _blas_threads(threads):
            fits.append(nmf_fit(m, 50, max_iters=3, seed=1))
    for one, two in zip(*fits):
        assert np.array_equal(one, two)


def test_ridge_fit_does_not_depend_on_blas_threads():
    # the ridge's dot products over the 12 000 items are long enough for a
    # 2-thread OpenBLAS to split
    rng = np.random.default_rng(52)
    m = random_footprints(rng, 200, 12_000, density=0.01)
    Y = rng.normal(size=(200, 2))
    fits = []
    for threads in (1, 2):
        with _blas_threads(threads):
            fits.append(fit_ridge(m, Y))
    for one, two in zip(*fits):
        assert one.C == two.C
        assert np.array_equal(one.weights, two.weights)
        assert one.intercept == two.intercept


def test_lookup_after_import_finds_every_blas():
    # scipy.optimize is imported lazily, so the lookup can run first; it
    # must find then what it finds with every scipy solver loaded
    src = str(Path(footcloak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import footcloak, footcloak._util as u\n"
        "names = lambda: [g.__name__ for g, _ in u._openblas_thread_controls()]\n"
        "first = names()\n"
        "import scipy.optimize, scipy.linalg\n"
        "u._openblas_thread_controls.cache_clear()\n"
        "print(first, names(), sep='\\n')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    first, after = out.stdout.splitlines()
    assert first == after
    assert first == str([g.__name__ for g, _ in CONTROLS])
