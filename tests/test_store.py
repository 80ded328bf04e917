"""The store's fit, NMF, ridge and synth entries against the uncached
library calls.

While cli.main runs a command, models.fit_classifier,
metafeatures.task_nmf_metafeatures, models.fit_ridge and synth.generate read
their results back from the store (_store) or compute and store them. A
miss, a hit that computes nothing and the library call with the store closed
must give the same model, scores, metafeatures, ridge models and dataset bit
for bit; each ingredient of a key, changed alone, must miss; an entry that
does not load is a miss; and after cli.main returns the store is closed, so
a library call computes.
"""

import dataclasses
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from footcloak import _store, cli, metafeatures, models, synth
from footcloak._util import DEFAULT_ALPHA_GRID, ExperimentConfig, canonical_json
from footcloak.data import from_rows
from footcloak.metafeatures import task_nmf_metafeatures
from footcloak.models import fit_classifier, fit_ridge
from footcloak.synth import SynthConfig, dataset_files, generate


@pytest.fixture
def store(tmp_path, monkeypatch):
    """The store open in an empty directory."""
    monkeypatch.setenv("FOOTCLOAK_CACHE_DIR", str(tmp_path / "store"))
    with _store.opened():
        yield tmp_path / "store"


def _kinds(store) -> list[str]:
    """The kinds of the store's entries, sorted."""
    return sorted(p.name.split(".", 1)[1] for p in store.iterdir())


def _matrix(rows, n_items):
    return from_rows(
        [np.array(r, dtype=np.int64) for r in rows], n_items,
        tuple(f"u{i}" for i in range(len(rows))),
        tuple(f"i{j}" for j in range(n_items)),
    )


def _fails(what):
    return mock.Mock(side_effect=AssertionError(f"{what} ran on a store hit"))


@st.composite
def _footprints(draw, min_users=6):
    n_items = draw(st.integers(2, 8))
    n_users = draw(st.integers(min_users, 24))
    row = st.sets(st.integers(0, n_items - 1), max_size=n_items).map(sorted)
    return _matrix(draw(st.lists(row, min_size=n_users, max_size=n_users)), n_items)


def _outcome(fn, *args):
    """(result, None), or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # each path must raise the same
        return None, (type(exc), str(exc))


@settings(max_examples=40, deadline=None)
@given(
    m=_footprints(),
    bits=st.lists(st.booleans(), min_size=24, max_size=24),
    folds=st.integers(2, 3),
    seed=st.integers(0, 2**32),
)
def test_a_fit_miss_hit_and_library_call_agree(m, bits, folds, seed):
    y = np.array(bits[: m.n_users], dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        store = _store.cache_dir()  # the test's own (conftest)
        shutil.rmtree(store, ignore_errors=True)
        with _store.opened():
            miss, miss_err = _outcome(fit_classifier, m, y, folds, seed)
            if miss_err is None:
                assert _kinds(store) == ["fit.npz"]
                mp.setattr(models, "grid_search_cv", _fails("the CV grid"))
                mp.setattr(models, "train_logreg_l2", _fails("a logistic fit"))
                hit = fit_classifier(m, y, folds, seed)
    want, want_err = _outcome(fit_classifier, m, y, folds, seed)
    assert miss_err == want_err
    if want_err is None:
        for got in (miss, hit):
            (best_c, model, scores), (w_c, w_model, w_scores) = got, want
            assert best_c == w_c == model.C == w_model.C
            assert model.kind == w_model.kind
            assert model.weights.dtype == w_model.weights.dtype
            assert model.weights.tobytes() == w_model.weights.tobytes()
            assert np.float64(model.intercept).tobytes() == np.float64(
                w_model.intercept
            ).tobytes()
            assert scores.tobytes() == w_scores.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    m=_footprints(min_users=3),
    k=st.integers(1, 3),
    max_iters=st.integers(1, 30),
    tol=st.sampled_from([0.0, 1e-4, 1e-2]),
    seed=st.integers(0, 2**16),
    stream=st.integers(0, 30),
)
def test_an_nmf_miss_hit_and_library_call_agree(m, k, max_iters, tol, seed, stream):
    config = ExperimentConfig(
        seed=seed, k_metafeatures=k, nmf_max_iters=max_iters, nmf_tol=tol
    )
    with pytest.MonkeyPatch.context() as mp:
        store = _store.cache_dir()
        shutil.rmtree(store, ignore_errors=True)
        with _store.opened():
            miss, miss_err = _outcome(task_nmf_metafeatures, m, config, stream)
            if miss_err is None:
                assert _kinds(store) == ["nmf.npz"]
                mp.setattr(metafeatures, "nmf_fit", _fails("NMF"))
                hit = task_nmf_metafeatures(m, config, stream)
    want, want_err = _outcome(task_nmf_metafeatures, m, config, stream)
    assert miss_err == want_err
    if want_err is None:
        for got in (miss, hit):
            assert (got.k, got.source, got.labels, got.reserved) == (
                want.k, want.source, want.labels, want.reserved
            )
            for name in ("assignment", "loading"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _same_model(got, want):
    assert got.C == want.C and got.kind == want.kind
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.intercept).tobytes() == np.float64(want.intercept).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    m=_footprints(min_users=3),
    alpha_grid=st.sampled_from([DEFAULT_ALPHA_GRID, (1e-3,), (1e3, 0.5, 2.0)]),
    folds=st.integers(2, 3),
    seed=st.integers(0, 2**32),
)
def test_a_ridge_miss_hit_and_library_call_agree(data, m, alpha_grid, folds, seed):
    values = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-5.0, 5.0))
    columns = data.draw(st.integers(1, 3))
    Y = data.draw(arrays(np.float64, (m.n_users, columns), elements=values))
    with pytest.MonkeyPatch.context() as mp:
        store = _store.cache_dir()
        shutil.rmtree(store, ignore_errors=True)
        with _store.opened():
            miss, miss_err = _outcome(fit_ridge, m, Y, alpha_grid, folds, seed)
            if miss_err is None:
                assert _kinds(store) == ["ridge.npz"]
                mp.setattr(models, "_shifted_cg", _fails("the shifted CG"))
                hit = fit_ridge(m, Y, alpha_grid, folds, seed)
    want, want_err = _outcome(fit_ridge, m, Y, alpha_grid, folds, seed)
    assert miss_err == want_err
    if want_err is None:
        for got in (miss, hit):
            assert len(got) == len(want) == columns
            for g, w in zip(got, want):
                _same_model(g, w)


def _same_dataset(got, want):
    """Equal SynthResults, array for array, and the same dataset files."""
    for name in ("indptr", "indices"):
        g, w = getattr(got.matrix, name), getattr(want.matrix, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert (got.matrix.n_items, got.matrix.user_ids, got.matrix.item_ids) == (
        want.matrix.n_items, want.matrix.user_ids, want.matrix.item_ids
    )
    assert got.labels.n_users == want.labels.n_users
    assert got.labels.task_names == want.labels.task_names
    for task, w in want.labels.values.items():
        g = got.labels.values[task]
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    for name in ("item_topics", "affinities"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    assert got.config == want.config
    assert got.diagnostics == want.diagnostics
    assert [type(v) for v in got.diagnostics.values()] == [int, int]
    files, want_files = dataset_files(got), dataset_files(want)
    assert list(files) == list(want_files)
    for name, want_text in want_files.items():
        text = files[name]
        if not isinstance(text, str):  # the ground-truth sidecar
            text, want_text = canonical_json(text), canonical_json(want_text)
        assert text == want_text


@st.composite
def _synth_configs(draw):
    # small inventories, so that topic splits are resampled and shifted
    k = draw(st.integers(1, 4))
    n_items = draw(st.integers(k, 24))
    return SynthConfig(
        n_users=draw(st.integers(2, 20)),
        n_items=n_items,
        k_topics=k,
        dirichlet_alpha=draw(st.sampled_from([0.05, 0.3, 5.0])),
        popularity_exponent=draw(st.sampled_from([-2.0, 0.0, 1.1, 3.0])),
        mean_likes=draw(st.integers(0, n_items)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=_synth_configs())
# 630 resampled splits and 30 overflow shifts
@example(SynthConfig(n_users=40, n_items=12, k_topics=6, mean_likes=10, seed=5))
def test_a_synth_miss_hit_and_library_call_agree(cfg):
    with pytest.MonkeyPatch.context() as mp:
        store = _store.cache_dir()
        shutil.rmtree(store, ignore_errors=True)
        with _store.opened():
            miss = generate(cfg)
            assert _kinds(store) == ["synth.npz"]
            mp.setattr(synth, "_sample_rows", _fails("the choice replay"))
            hit = generate(cfg)
    want = generate(cfg)
    for got in (miss, hit):
        _same_dataset(got, want)


# ---------------------------------------------------------------------------
# every ingredient of a key, changed alone, misses

_ROWS = [[0, 1], [2], [1, 3], [0, 2, 3], [3], [0, 1, 2], [1], [0, 3], [2, 3]] * 2
_LABELS = np.tile([1.0, 0.0, 1.0], 6)


def _fit_args():
    return {"m": _matrix(_ROWS, 4), "y01": _LABELS.copy(), "folds": 3, "seed": 5}


def _nmf_args():
    config = ExperimentConfig(seed=5, k_metafeatures=2, nmf_max_iters=5, nmf_tol=1e-4)
    return {"train": _matrix(_ROWS, 4), "config": config, "stream": 7}


_TARGETS = np.random.default_rng(3).normal(size=(len(_ROWS), 1))


def _ridge_args():
    return {
        "m": _matrix(_ROWS, 4), "Y": _TARGETS.copy(), "alpha_grid": DEFAULT_ALPHA_GRID,
        "folds": 3, "seed": 5,
    }


_SYNTH = SynthConfig(n_users=12, n_items=30, k_topics=3, mean_likes=8, seed=5)


def _synth_args():
    return {"config": _SYNTH}


def _edit_source(name):
    """Point the store at a copy of the package whose module name has one
    more byte."""

    def edit(mp, tmp_path, args):
        sources = tmp_path / "sources"
        shutil.copytree(_store._SOURCES, sources)
        with open(sources / name, "ab") as f:
            f.write(b"\n")
        mp.setattr(_store, "_SOURCES", sources)
        return args

    return edit


def _edit_environment(at):
    """Give the store another library environment: its item at changed."""

    def edit(mp, tmp_path, args):
        environment = _store._environment

        def changed(scipy_blas=True):
            env = list(environment(scipy_blas))
            env[at] += " other"
            return tuple(env)

        mp.setattr(_store, "_environment", changed)
        return args

    return edit


def _with(**changes):
    def edit(mp, tmp_path, args):
        return {**args, **changes}

    return edit


def _with_config(**changes):
    def edit(mp, tmp_path, args):
        fields = {
            "seed": 5, "k_metafeatures": 2, "nmf_max_iters": 5, "nmf_tol": 1e-4,
            **changes,
        }
        return {**args, "config": ExperimentConfig(**fields)}

    return edit


def _one_index(key):
    # row 1 holds item 3 where it held item 2
    return _with(**{key: _matrix([_ROWS[0], [3], *_ROWS[2:]], 4)})


def _one_boundary(key):
    # the same indices, one row boundary moved: [0, 1], [2] becomes [0], [1, 2]
    return _with(**{key: _matrix([[0], [1, 2], *_ROWS[2:]], 4)})


def _one_more_item(key):
    return _with(**{key: _matrix(_ROWS, 5)})


def _one_label():
    def edit(mp, tmp_path, args):
        y = args["y01"].copy()
        y[0] = 1.0 - y[0]
        return {**args, "y01": y}

    return edit


def _one_target(mp, tmp_path, args):
    Y = args["Y"].copy()
    Y[0, 0] += 1.0
    return {**args, "Y": Y}


def _c_grid(mp, tmp_path, args):
    mp.setattr(models, "DEFAULT_C_GRID", (1e-2, 1.0, 100.0))
    return args


_ENVIRONMENT = {"numpy version": 0, "scipy version": 1, "BLAS config": 2}

_FIT_EDITS = {
    "one index": _one_index("m"),
    "one row boundary": _one_boundary("m"),
    "item count": _one_more_item("m"),
    "one label": _one_label(),
    "folds": _with(folds=2),
    "seed": _with(seed=6),
    "C grid": _c_grid,
    **{
        f"{name} bytes": _edit_source(name)
        for name in ("models.py", "data.py", "_util.py")
    },
    **{name: _edit_environment(at) for name, at in _ENVIRONMENT.items()},
}

_NMF_EDITS = {
    "one index": _one_index("train"),
    "one row boundary": _one_boundary("train"),
    "item count": _one_more_item("train"),
    "k": _with_config(k_metafeatures=3),
    "iteration cap": _with_config(nmf_max_iters=6),
    "tolerance": _with_config(nmf_tol=1e-3),
    "seed": _with_config(seed=6),
    "seed stream": _with(stream=8),
    **{
        f"{name} bytes": _edit_source(name)
        for name in ("metafeatures.py", "data.py", "_util.py")
    },
    **{name: _edit_environment(at) for name, at in _ENVIRONMENT.items()},
}

_RIDGE_EDITS = {
    "one index": _one_index("m"),
    "one row boundary": _one_boundary("m"),
    "item count": _one_more_item("m"),
    "one target value": _one_target,
    "alpha grid": _with(alpha_grid=(0.5, 2.0)),
    "folds": _with(folds=2),
    "seed": _with(seed=6),
    **{
        f"{name} bytes": _edit_source(name)
        for name in ("models.py", "data.py", "_util.py")
    },
    **{name: _edit_environment(at) for name, at in _ENVIRONMENT.items()},
}


_SYNTH_EDITS = {
    **{
        name: _with(config=dataclasses.replace(_SYNTH, **{name: value}))
        for name, value in (
            ("n_users", 13), ("n_items", 31), ("k_topics", 4),
            ("dirichlet_alpha", 0.4), ("popularity_exponent", 1.2),
            ("mean_likes", 9), ("seed", 6),
        )
    },
    **{
        f"{name} bytes": _edit_source(name)
        for name in ("synth.py", "data.py", "_util.py")
    },
    **{name: _edit_environment(at) for name, at in _ENVIRONMENT.items()},
}


def test_every_synth_config_field_has_an_edit():
    assert {f.name for f in dataclasses.fields(SynthConfig)} <= set(_SYNTH_EDITS)


def _computes(target, name, call, args) -> bool:
    """Whether call(**args) ran target.name: a store miss."""
    with mock.patch.object(target, name, wraps=getattr(target, name)) as spy:
        call(**args)
    return spy.called


def test_an_array_part_is_keyed_with_its_dtype_and_shape():
    parts = [
        np.zeros(2, np.int32), np.zeros(1, np.int64), np.zeros((1, 2), np.int32)
    ]
    assert len({_store._digest(p) for p in parts}) == 3
    assert _store._digest(np.arange(3)[::2]) == _store._digest(np.array([0, 2]))


def test_the_environment_names_numpy_scipy_and_each_blas():
    env = _store._environment()
    assert env[0] == np.__version__
    import scipy

    assert scipy.__version__ in env[1]
    assert len(env) > 2 and all(config.startswith("OpenBLAS") for config in env[2:])


@pytest.mark.parametrize("edit", _FIT_EDITS, ids=list(_FIT_EDITS))
def test_a_changed_fit_ingredient_misses(edit, store, tmp_path, monkeypatch):
    args = _fit_args()
    assert _computes(models, "grid_search_cv", fit_classifier, args)
    assert not _computes(models, "grid_search_cv", fit_classifier, _fit_args())
    args = _FIT_EDITS[edit](monkeypatch, tmp_path, _fit_args())
    assert _computes(models, "grid_search_cv", fit_classifier, args)
    assert _kinds(store) == ["fit.npz"] * 2


@pytest.mark.parametrize("edit", _NMF_EDITS, ids=list(_NMF_EDITS))
def test_a_changed_nmf_ingredient_misses(edit, store, tmp_path, monkeypatch):
    args = _nmf_args()
    assert _computes(metafeatures, "nmf_fit", task_nmf_metafeatures, args)
    assert not _computes(metafeatures, "nmf_fit", task_nmf_metafeatures, _nmf_args())
    args = _NMF_EDITS[edit](monkeypatch, tmp_path, _nmf_args())
    assert _computes(metafeatures, "nmf_fit", task_nmf_metafeatures, args)
    assert _kinds(store) == ["nmf.npz"] * 2


@pytest.mark.parametrize("edit", _RIDGE_EDITS, ids=list(_RIDGE_EDITS))
def test_a_changed_ridge_ingredient_misses(edit, store, tmp_path, monkeypatch):
    args = _ridge_args()
    assert _computes(models, "_shifted_cg", fit_ridge, args)
    assert not _computes(models, "_shifted_cg", fit_ridge, _ridge_args())
    args = _RIDGE_EDITS[edit](monkeypatch, tmp_path, _ridge_args())
    assert _computes(models, "_shifted_cg", fit_ridge, args)
    assert _kinds(store) == ["ridge.npz"] * 2


@pytest.mark.parametrize("edit", _SYNTH_EDITS, ids=list(_SYNTH_EDITS))
def test_a_changed_synth_ingredient_misses(edit, store, tmp_path, monkeypatch):
    args = _synth_args()
    assert _computes(synth, "_sample_rows", generate, args)
    assert not _computes(synth, "_sample_rows", generate, _synth_args())
    args = _SYNTH_EDITS[edit](monkeypatch, tmp_path, _synth_args())
    assert _computes(synth, "_sample_rows", generate, args)
    assert _kinds(store) == ["synth.npz"] * 2


def test_the_alpha_grid_is_keyed_sorted(store):
    assert _computes(models, "_shifted_cg", fit_ridge, _ridge_args())
    args = {**_ridge_args(), "alpha_grid": DEFAULT_ALPHA_GRID[::-1]}
    assert not _computes(models, "_shifted_cg", fit_ridge, args)


# ---------------------------------------------------------------------------
# only cli.main opens the store


def _train(data_dir, out, task="task_a"):
    return cli.main([
        "train", "--footprints", str(data_dir / "footprints.csv"),
        "--labels", str(data_dir / "labels.csv"), "--task", task, "--out", str(out),
    ])


def test_main_closes_the_store_when_it_returns(tiny_dataset_dir, tmp_path, store_dir):
    args = _fit_args()
    for task, status in (("task_a", 0), ("no_such_task", 1)):
        assert _train(tiny_dataset_dir, tmp_path / task, task) == status
        assert not _store.is_open()
        assert _computes(models, "grid_search_cv", fit_classifier, args)
    assert _kinds(store_dir) == ["dataset.npz", "fit.npz"]


def test_a_library_call_never_touches_the_store(store_dir):
    for _ in range(2):
        assert _computes(models, "grid_search_cv", fit_classifier, _fit_args())
        assert _computes(metafeatures, "nmf_fit", task_nmf_metafeatures, _nmf_args())
        assert _computes(synth, "_sample_rows", generate, _synth_args())
    assert not any(store_dir.iterdir())


# ---------------------------------------------------------------------------
# synth through cli.main


def _synth(out):
    return cli.main([
        "synth", "--users", "260", "--items", "300", "--topics", "4",
        "--mean-likes", "25", "--seed", "5", "--out", str(out),
    ])


def test_a_warm_synth_never_replays_the_choices(tmp_path, store_dir, monkeypatch):
    assert _synth(tmp_path / "cold") == 0
    entries = _kinds(store_dir)
    assert entries == ["synth.npz"]
    monkeypatch.setattr(synth, "_sample_rows", _fails("the choice replay"))
    assert _synth(tmp_path / "warm") == 0
    assert _kinds(store_dir) == entries
    assert _files(tmp_path / "warm") == _files(tmp_path / "cold")


# ---------------------------------------------------------------------------
# spillover through cli.main


def _spillover(data_dir, out, traits, population="all-test"):
    return cli.main([
        "spillover", "--footprints", str(data_dir / "footprints.csv"),
        "--labels", str(data_dir / "labels.csv"), "--task", "task_a",
        "--traits", traits, "--population", population, "--quantile", "0.9",
        "--k", "8", "--nmf-max-iters", "20", "--out", str(out),
    ])


def _files(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_spillover_on_the_cloaked_users_reads_the_ridge_of_all_test(
    tiny_dataset_dir, tmp_path, store_dir, monkeypatch
):
    # both populations fit the ridge on the same training users
    assert _spillover(tiny_dataset_dir, tmp_path / "all", "trait_a,trait_b") == 0
    entries = _kinds(store_dir)
    assert entries.count("ridge.npz") == 1
    with monkeypatch.context() as mp:
        mp.setattr(models, "_shifted_cg", _fails("the shifted CG"))
        assert _spillover(
            tiny_dataset_dir, tmp_path / "cloaked", "trait_a,trait_b", "cloaked"
        ) == 0
    assert _kinds(store_dir) == entries
    monkeypatch.setenv("FOOTCLOAK_CACHE_DIR", "")
    assert _spillover(
        tiny_dataset_dir, tmp_path / "cloaked-off", "trait_a,trait_b", "cloaked"
    ) == 0
    assert _files(tmp_path / "cloaked") == _files(tmp_path / "cloaked-off")


@pytest.mark.parametrize("kind", ["dataset", "fit", "nmf", "ridge", "synth"])
def test_an_empty_entry_is_a_miss(kind, tmp_path, store_dir):
    def synth_and_spillover(run):
        data = tmp_path / "data"  # one path, so the manifests agree
        assert _synth(data) == 0
        dataset = _files(data)
        assert _spillover(data, tmp_path / run, "trait_a,trait_b") == 0
        return dataset, _files(tmp_path / run)

    # what a crash between the write and the rename can leave behind
    cold = synth_and_spillover("cold")
    emptied = sorted(store_dir.glob(f"*.{kind}.npz"))
    assert emptied
    for path in emptied:
        path.write_bytes(b"")
    assert synth_and_spillover("again") == cold
    assert sorted(store_dir.glob(f"*.{kind}.npz")) == emptied
    assert all(path.stat().st_size > 0 for path in emptied)
