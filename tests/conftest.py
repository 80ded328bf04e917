import os

import numpy as np
import pytest
from hypothesis import settings

from footcloak import synth
from footcloak._util import write_results
from footcloak.data import from_rows

# HYPOTHESIS_PROFILE=ci loads the ci profile: CI runs the CLI fuzz test and
# the cloak and protection oracle tests on their own under it, with a larger
# example budget than Tier-1's
settings.register_profile("ci", max_examples=600)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def store_dir(tmp_path_factory, monkeypatch):
    """Every command, in-process or a child process, keeps its store in a
    directory of this test's own: never in the user's cache, and never
    holding an entry an earlier test wrote, so a test that patches a stage
    the store caches sees the patch run."""
    path = tmp_path_factory.mktemp("store")
    monkeypatch.setenv("FOOTCLOAK_CACHE_DIR", str(path))
    return path


@pytest.fixture(scope="session")
def small_synth():
    """Shared mid-size synthetic dataset for pipeline-level module tests."""
    cfg = synth.SynthConfig(
        n_users=350, n_items=450, k_topics=6, mean_likes=35, seed=11
    )
    return synth.generate(cfg)


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    """Tiny dataset written to disk for CLI tests."""
    outdir = tmp_path_factory.mktemp("tinydata")
    cfg = synth.SynthConfig(
        n_users=260, n_items=300, k_topics=4, mean_likes=25, seed=5
    )
    res = synth.generate(cfg)
    write_results(outdir, synth.dataset_files(res))
    return outdir


def random_footprints(rng, n_users, n_items, density=0.3):
    """Random binary matrix helper shared by several test modules."""
    rows = []
    for i in range(n_users):
        mask = rng.random(n_items) < density
        rows.append(np.nonzero(mask)[0].astype(np.int64))
    users = tuple(f"u{i}" for i in range(n_users))
    items = tuple(f"i{j}" for j in range(n_items))
    return from_rows(rows, n_items, users, items)
