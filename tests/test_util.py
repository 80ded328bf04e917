"""serial_blas: the solver loops run on one OpenBLAS thread, every library
gets its thread count back, and the solvers' results stop depending on the
thread count around them. A command starts every OpenBLAS on one thread
unless OPENBLAS_NUM_THREADS is set."""

import contextlib
import json
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
    # the lookup loads scipy's L-BFGS-B extension, which links scipy's
    # OpenBLAS, and no scipy solver package; it must find then what it
    # finds with scipy.optimize and scipy.linalg loaded
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


def test_nmf_before_any_fit_still_serializes_scipy_blas():
    # NMF builds no scipy solver, so its serial_blas can make the one lookup
    # before any fit has loaded the L-BFGS-B extension; a later logistic
    # fit must still run scipy's OpenBLAS, which that extension links, on
    # one thread
    src = str(Path(footcloak.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, tests))}
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import footcloak._util as u, footcloak.models as models\n"
        "from footcloak.metafeatures import nmf_fit\n"
        "from conftest import random_footprints\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
        "rng = np.random.default_rng(53)\n"
        "m = random_footprints(rng, 60, 80, density=0.2)\n"
        "nmf_fit(m, 3, max_iters=2, seed=0)\n"
        "import scipy.linalg  # maps scipy's OpenBLAS if the lookup did not\n"
        "every = u._openblas_thread_controls.__wrapped__()  # a fresh lookup\n"
        "for _, set_threads in every:\n"
        "    set_threads(2)\n"
        "counts = lambda: [get() for get, _ in every]\n"
        "seen, value_and_grad = [], models.logreg_value_and_grad\n"
        "def spy(*args):\n"
        "    seen.append(counts())\n"
        "    return value_and_grad(*args)\n"
        "models.logreg_value_and_grad = spy\n"
        "models.train_logreg_l2(m, (np.arange(60) % 3 == 0).astype(float))\n"
        "names = [g.__name__ for g, _ in every]\n"
        "print(json.dumps([names, seen[0], seen[-1], counts()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    names, first, last, after = json.loads(out.stdout.strip().splitlines()[-1])
    assert names == [g.__name__ for g, _ in CONTROLS]
    assert first == last == [1] * len(CONTROLS)
    assert after == [2] * len(CONTROLS)


def _thread_counts_after_a_command(tmp_path, threads):
    """The thread count of every OpenBLAS in a fresh process that ran
    synth through cli.main, with OPENBLAS_NUM_THREADS set to threads (None:
    unset); the lookup then maps scipy's OpenBLAS too."""
    src = str(Path(footcloak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    argv = ["synth", "--users", "20", "--items", "30", "--topics", "3",
            "--mean-likes", "5", "--out", str(tmp_path / "data")]
    code = (
        "import footcloak.cli\n"
        f"assert footcloak.cli.main({argv!r}) == 0\n"
        "import footcloak._util as u  # numpy loads in main, not before\n"
        "print([get() for get, _ in u._openblas_thread_controls()])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_a_command_starts_every_blas_on_one_thread(tmp_path):
    assert _thread_counts_after_a_command(tmp_path, None) == [1] * len(CONTROLS)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps threads at the CPUs"
)
def test_a_set_thread_count_wins_over_the_commands_default(tmp_path):
    assert _thread_counts_after_a_command(tmp_path, 2) == [2] * len(CONTROLS)
