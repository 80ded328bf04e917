import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit as scipy_expit
from scipy.stats import rankdata

import footcloak
from footcloak import models
from footcloak._util import csv_text, expit, write_results
from footcloak.data import from_rows
from footcloak.models import (
    DEFAULT_ALPHA_GRID,
    ConvergenceError,
    LinearModel,
    _average_ranks,
    auc,
    fit_ridge,
    grid_search_cv,
    logreg_value_and_grad,
    model_to_dict,
    pearson,
    predict_scores,
    quantile_threshold,
    train_logreg_l2,
)

import oracles
from conftest import random_footprints
from oracles import predict_score


def _dense_objective(X, y01, w, b, C):
    """Independent recomputation of the training objective."""
    ys = 2.0 * y01 - 1.0
    margins = X @ w + b
    loss = np.logaddexp(0.0, -ys * margins).sum()
    return 0.5 * float(w @ w) + C * float(loss)


# ---------------------------------------------------------------------------
# prediction


def test_predict_zero_model_is_half():
    model = LinearModel(np.zeros(4), 0.0, 1.0)
    assert predict_score(model, np.array([0, 2])) == 0.5


def test_predict_log3_gives_three_quarters():
    model = LinearModel(np.array([math.log(3.0)]), 0.0, 1.0)
    assert predict_score(model, np.array([0])) == pytest.approx(0.75, abs=1e-12)


def test_predict_ignores_out_of_vocab():
    model = LinearModel(np.array([1.0]), 0.0, 1.0)
    assert predict_score(model, np.array([0, 7])) == predict_score(model, np.array([0]))


# ---------------------------------------------------------------------------
# training


def test_train_objective_matches_dense_oracle():
    rng = np.random.default_rng(20)
    m = random_footprints(rng, 6, 5, density=0.5)
    y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    C = 2.0
    model = train_logreg_l2(m, y, C)
    X = m.csr.toarray()
    val, gw, gb = logreg_value_and_grad(m, y, model.weights, model.intercept, C)
    assert val == pytest.approx(
        _dense_objective(X, y, model.weights, model.intercept, C), rel=1e-10
    )
    # first-order optimality at the returned fit
    assert max(np.max(np.abs(gw)), abs(gb)) < 1e-5
    # no random perturbation does better
    best = val
    for _ in range(30):
        dw = rng.normal(0, 0.05, 5)
        db = rng.normal(0, 0.05)
        pert = _dense_objective(X, y, model.weights + dw, model.intercept + db, C)
        assert pert >= best - 1e-9


def test_train_separable_gets_perfect_auc():
    rows = [np.array([0]), np.array([0]), np.array([1]), np.array([1])]
    m = from_rows(rows, 2, tuple(f"u{i}" for i in range(4)), ("a", "b"))
    y = np.array([1.0, 1.0, 0.0, 0.0])
    model = train_logreg_l2(m, y, C=10.0)
    assert auc(predict_scores(model, m), y) == 1.0


def test_train_weights_vanish_as_c_to_zero():
    rng = np.random.default_rng(21)
    m = random_footprints(rng, 40, 10)
    y = (rng.random(40) < 0.5).astype(float)
    if np.unique(y).size < 2:
        y[0] = 1.0 - y[0]
    model = train_logreg_l2(m, y, C=1e-8)
    assert np.max(np.abs(model.weights)) < 1e-4


def test_train_two_starts_agree():
    # convexity: the reported objective is invariant to where L-BFGS starts,
    # checked indirectly by retraining on a permuted user order
    rng = np.random.default_rng(22)
    m = random_footprints(rng, 30, 8)
    y = (rng.random(30) < 0.4).astype(float)
    y[0], y[1] = 1.0, 0.0
    m2 = m.select_users(np.arange(29, -1, -1))
    model1 = train_logreg_l2(m, y, C=0.5)
    model2 = train_logreg_l2(m2, y[::-1].copy(), C=0.5)
    v1, _, _ = logreg_value_and_grad(m, y, model1.weights, model1.intercept, 0.5)
    v2, _, _ = logreg_value_and_grad(m, y, model2.weights, model2.intercept, 0.5)
    assert v1 == pytest.approx(v2, rel=1e-6)


def test_train_rejects_single_class():
    rng = np.random.default_rng(23)
    m = random_footprints(rng, 5, 4)
    with pytest.raises(ValueError):
        train_logreg_l2(m, np.ones(5), C=1.0)


def test_train_rejects_bad_c_and_nan():
    rng = np.random.default_rng(24)
    m = random_footprints(rng, 4, 4)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        train_logreg_l2(m, y, C=0.0)
    with pytest.raises(ValueError):
        train_logreg_l2(m, np.array([1.0, 0.0, np.nan, 1.0]), C=1.0)


def test_train_nonconvergence_carries_grad_norm():
    rng = np.random.default_rng(25)
    m = random_footprints(rng, 50, 20)
    y = (rng.random(50) < 0.5).astype(float)
    y[0], y[1] = 1.0, 0.0
    with pytest.raises(ConvergenceError) as err:
        train_logreg_l2(m, y, C=100.0, max_iter=1)
    assert err.value.grad_norm >= 1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(26)
    for _ in range(5):
        n, mi = 8, 6
        m = random_footprints(rng, n, mi, density=0.4)
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(0, 1, mi)
        b = rng.normal()
        C = float(rng.uniform(0.1, 5.0))
        _, gw, gb = logreg_value_and_grad(m, y, w, b, C)
        g = np.concatenate((gw, [gb]))
        x = np.concatenate((w, [b]))
        fd = np.empty_like(x)
        for j in range(len(x)):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            vp, _, _ = logreg_value_and_grad(m, y, xp[:mi], xp[mi], C)
            vm, _, _ = logreg_value_and_grad(m, y, xm[:mi], xm[mi], C)
            fd[j] = (vp - vm) / (2 * h)
        rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))
        assert rel < 1e-5


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_singleton():
    rng = np.random.default_rng(27)
    m = random_footprints(rng, 24, 6)
    y = (rng.random(24) < 0.5).astype(float)
    y[:3], y[3:6] = 1.0, 0.0
    assert grid_search_cv(m, y, grid=(0.7,), folds=3, seed=0) == 0.7


def test_grid_search_matches_oracle_and_breaks_ties_low():
    rng = np.random.default_rng(28)
    m = random_footprints(rng, 36, 8)
    y = (rng.random(36) < 0.5).astype(float)
    y[:4], y[4:8] = 1.0, 0.0
    grid = (0.01, 0.1, 1.0, 10.0)
    seed = 3
    # independent selection loop with the same fold construction contract
    perm = np.random.default_rng(seed).permutation(36)
    folds = np.array_split(perm, 3)
    means = {}
    for C in grid:
        vals = []
        for f in range(3):
            val = np.sort(folds[f])
            trn = np.sort(np.concatenate([folds[g] for g in range(3) if g != f]))
            if np.unique(y[trn]).size < 2 or np.unique(y[val]).size < 2:
                continue
            mod = train_logreg_l2(m.select_users(trn), y[trn], C)
            vals.append(auc(predict_scores(mod, m.select_users(val)), y[val]))
        if vals:
            means[C] = float(np.mean(vals))
    want = min(c for c in means if means[c] == max(means.values()))
    assert grid_search_cv(m, y, grid, folds=3, seed=seed) == want


def test_fewer_than_two_folds_rejected():
    # one fold has no training rows; the message must not be numpy's own
    rng = np.random.default_rng(29)
    m = random_footprints(rng, 12, 6)
    y = np.tile([0.0, 1.0], 6)
    with pytest.raises(ValueError, match="^folds must be at least 2$"):
        grid_search_cv(m, y, folds=1)
    with pytest.raises(ValueError, match="^folds must be at least 2$"):
        fit_ridge(m, y[:, None], folds=0)


# ---------------------------------------------------------------------------
# thresholds


def test_quantile_threshold_hundred_scores():
    scores = np.arange(1, 101) / 100.0
    spec = quantile_threshold(scores, 0.95)
    assert spec.value == pytest.approx(0.96)
    assert int((scores >= spec.value).sum()) == 5


def test_quantile_threshold_median():
    scores = np.arange(1, 101) / 100.0
    spec = quantile_threshold(scores, 0.5)
    assert spec.value == pytest.approx(0.51)
    assert int((scores >= spec.value).sum()) == 50


def test_quantile_threshold_k_at_least_one():
    spec = quantile_threshold(np.array([0.2, 0.9, 0.5]), 0.95)
    assert spec.value == 0.9


def test_quantile_threshold_positive_count_invariant():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        scores = rng.random(n)
        q = float(rng.uniform(0.05, 0.99))
        spec = quantile_threshold(scores, q)
        k = max(1, math.floor(n * (1 - q)))
        # with distinct scores, exactly k land at or above the threshold
        assert int((scores >= spec.value).sum()) == k


def test_quantile_threshold_errors():
    with pytest.raises(ValueError):
        quantile_threshold(np.array([]), 0.95)
    with pytest.raises(ValueError):
        quantile_threshold(np.array([0.5]), 1.0)


# ---------------------------------------------------------------------------
# metrics


def _auc_oracle(scores, labels):
    pos = np.nonzero(labels == 1.0)[0]
    neg = np.nonzero(labels == 0.0)[0]
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_frozen_example():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert auc(scores, labels) == pytest.approx(0.75, abs=1e-15)


def test_auc_perfect_and_ties():
    assert auc(np.array([0.1, 0.9]), np.array([0.0, 1.0])) == 1.0
    assert auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([0.0, 1.0, 0.0, 1.0])) == 0.5


def test_auc_single_class_errors():
    with pytest.raises(ValueError):
        auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(30)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)  # induce ties
        labels = (rng.random(n) < 0.5).astype(float)
        if np.unique(labels).size < 2:
            labels[0] = 1.0 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            _auc_oracle(scores, labels), abs=1e-12
        )


def test_auc_invariant_to_monotone_transform():
    rng = np.random.default_rng(31)
    scores = rng.random(30)
    labels = (rng.random(30) < 0.5).astype(float)
    labels[0], labels[1] = 1.0, 0.0
    assert auc(scores, labels) == pytest.approx(auc(scores * 10 + 3, labels), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    scores=arrays(
        np.float64,
        st.integers(2, 40),
        # a few repeated values make tie groups of every size
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
            st.floats(allow_nan=False),
        ),
    ),
)
def test_auc_ranks_match_scipy_rankdata(data, scores):
    # scipy.stats.rankdata is the oracle the numpy average rank replaced
    binary = st.sampled_from([0.0, 1.0])
    labels = data.draw(arrays(np.float64, scores.size, elements=binary))
    labels[0], labels[-1] = 1.0, 0.0
    ranks = rankdata(scores, method="average")
    assert np.array_equal(_average_ranks(scores), ranks)
    n_pos = int(labels.sum())
    n_neg = scores.size - n_pos
    want = (float(ranks[labels == 1.0].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )
    assert auc(scores, labels) == want


# Fixed before the run: scipy's expit and footcloak's compute the same
# expression, each with an exp within about an ulp of exp(-x), and
# 1 / (1 + e) carries e's relative error on at most whole, plus one
# rounding each for + and /; over 4M normals with sigma up to 300 the
# largest gap was 4 ulp of scipy's value, so the bound is twice that.
EXPIT_ULPS = 8


@settings(max_examples=300, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 40), elements=st.floats(allow_nan=False)))
@example(x=np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]))
# exp(-x) overflows just beyond -709.78: scipy's 0 starts there too
@example(x=np.array([-709.782712893384, -709.7827128933841, -745.2, -1e308]))
# 1 + exp(-x) rounds to 1 from 53 ln 2 on: scipy's exact 1
@example(x=np.array([36.7368005696771, 36.73680056967711, 37.0, 1e308]))
# for x in (0.70, 0.75) * 2**-52 numpy's exp(-x) is 1 - 2**-52, the C
# library's 1 - 2**-53, and scipy's expit exactly 1/2
@example(x=np.array([1.5613e-16, 1.6e-16, 1.6653e-16, -3.3e-16, 2.2e-16]))
def test_expit_matches_scipy_expit(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    want = scipy_expit(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    for exact in (0.0, 0.5, 1.0):
        assert np.all(got[want == exact] == exact)
    assert np.all(np.abs(got - want) <= EXPIT_ULPS * np.spacing(want))


def test_cli_import_and_synth_load_no_scipy(tmp_path):
    # no footcloak module imports scipy at start-up, and synth, which
    # builds no sparse matrix and fits nothing, loads none of it
    src = str(Path(footcloak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["synth", "--users", "20", "--items", "30", "--topics", "3",
            "--mean-likes", "5", "--out", str(tmp_path / "data")]
    code = (
        "import sys, footcloak.cli\n"
        "scipy = lambda: [m for m in sorted(sys.modules) if m.startswith('scipy')]\n"
        "before = scipy()\n"
        f"assert footcloak.cli.main({argv!r}) == 0\n"
        "print(before, scipy())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[] []"


def test_pearson_frozen_example():
    r = pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
    assert r == pytest.approx(9.0 / math.sqrt(84.0), abs=1e-15)


def test_pearson_affine_and_sign():
    rng = np.random.default_rng(32)
    x = rng.random(20)
    y = rng.random(20)
    r = pearson(x, y)
    assert pearson(2 * x + 1, y) == pytest.approx(r, abs=1e-12)
    assert pearson(-x, y) == pytest.approx(-r, abs=1e-12)
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        pearson(np.array([1.0]), np.array([2.0]))


# ---------------------------------------------------------------------------
# ridge


def test_ridge_recovers_noiseless_linear_target():
    rng = np.random.default_rng(33)
    m = random_footprints(rng, 90, 25, density=0.35)
    w_true = rng.normal(0, 1, 25)
    X = m.csr.toarray()
    y = X @ w_true + 0.7
    train_idx = np.arange(70)
    test_idx = np.arange(70, 90)
    model = fit_ridge(m.select_users(train_idx), y[train_idx, None], folds=3, seed=0)[0]
    preds = X[test_idx] @ model.weights + model.intercept
    assert pearson(preds, y[test_idx]) > 0.999
    assert model.kind == "continuous-regressor"


def test_ridge_huge_alpha_shrinks_weights():
    rng = np.random.default_rng(34)
    m = random_footprints(rng, 40, 10)
    y = rng.normal(0, 1, 40)
    model = fit_ridge(m, y[:, None], (1e9,), 3, 0)[0]
    assert np.max(np.abs(model.weights)) < 1e-4
    # intercept falls back to roughly the target mean
    assert model.intercept == pytest.approx(float(y.mean()), abs=0.05)


def test_ridge_constant_target_errors():
    rng = np.random.default_rng(35)
    m = random_footprints(rng, 12, 6)
    with pytest.raises(ValueError):
        fit_ridge(m, np.full((12, 1), 3.0))


def test_ridge_noisy_random_target_has_low_correlation():
    rng = np.random.default_rng(36)
    m = random_footprints(rng, 60, 8)
    y = rng.normal(0, 1, 60)  # unrelated to the footprint
    model = fit_ridge(m, y[:, None], seed=1)[0]
    X = m.csr.toarray()
    held = np.arange(40, 60)
    r = pearson(X[held] @ model.weights + model.intercept, y[held])
    assert abs(r) < 0.6


def _outcome(fit):
    try:
        return fit()
    except ValueError as err:
        return str(err)


# Tolerance of the CG path against the Cholesky oracle, fixed from float64
# and the conditioning of the final system A = Kc + alpha*I. Kc has the null
# vector 1 and ||Kc|| <= ||K|| for K = X X^T (centering is a projection), so
# kappa = (||K|| + alpha) / alpha bounds the condition number of A on the
# centered vectors the targets live in. The oracle solves A beta = y_c
# backward-stably, so its beta is within RIDGE_C * n * eps * kappa * ||beta||
# of the exact solution (2-norm). CG stops at relative residual
# rtol = ROUNDOFF_C * sqrt(n) * eps, an error of at most rtol * kappa, and
# ROUNDOFF_C * sqrt(n) <= RIDGE_C * n, so the same bound holds for it.
# w = X_c^T beta multiplies that by at most ||X||_F + sqrt(n) ||mu||, and
# b = ybar - mu.w by ||mu|| once more.
RIDGE_C = 64


def _roundoff(m, alpha):
    """RIDGE_C * n * eps * kappa: the relative error bound of beta."""
    norm_k = np.linalg.norm(m.csr.toarray(), 2) ** 2
    return RIDGE_C * m.n_users * np.finfo(float).eps * (norm_k + alpha) / alpha


def _ridge_tolerance(m, y, alpha, beta):
    X = m.csr.toarray()
    mu = X.mean(axis=0)
    d_w = _roundoff(m, alpha) * np.linalg.norm(beta)
    d_w *= np.linalg.norm(X) + math.sqrt(m.n_users) * np.linalg.norm(mu)
    d_ybar = RIDGE_C * m.n_users * np.finfo(float).eps * np.max(np.abs(y))
    return d_w, d_w * np.linalg.norm(mu) + d_ybar


def _near_tie(want):
    top = sorted(want.means.values(), reverse=True)
    return len(top) > 1 and top[0] - top[1] <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    matrix_seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(4, 24),
    n_items=st.integers(1, 10),
    folds=st.integers(2, 4),
    seed=st.integers(0, 1000),
    alpha_grid=st.sampled_from([DEFAULT_ALPHA_GRID, (1e-3,), (1e3, 0.5, 2.0)]),
)
def test_shared_ridge_basis_matches_per_target_fit(
    data, matrix_seed, n_users, n_items, folds, seed, alpha_grid
):
    rng = np.random.default_rng(matrix_seed)
    m = random_footprints(rng, n_users, n_items, density=0.4)
    values = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(-5.0, 5.0))
    targets = data.draw(
        st.lists(arrays(np.float64, n_users, elements=values), min_size=1, max_size=3)
    )
    # constant on every fold but the first, so that fold's training part is
    # constant and the fold is skipped
    first = np.array_split(np.random.default_rng(seed).permutation(n_users), folds)[0]
    y_fold = np.full(n_users, 2.0)
    y_fold[first] = data.draw(arrays(np.float64, len(first), elements=values))
    targets.append(y_fold)
    if n_users < folds + 1:
        with pytest.raises(ValueError, match="need more users than folds"):
            fit_ridge(m, np.column_stack(targets), alpha_grid, folds, seed)
        return
    alone = []
    for y in targets:
        want = _outcome(lambda: oracles.train_ridge(m, y, alpha_grid, folds, seed))
        got = _outcome(lambda: fit_ridge(m, y[:, None], alpha_grid, folds, seed))
        alone.append(got if isinstance(got, str) else got[0])
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            continue
        model = got[0]
        if model.C != want.model.C:
            assert _near_tie(want)
        w, b, beta = oracles.ridge_solve(m.csr.toarray(), y, model.C)
        d_w, d_b = _ridge_tolerance(m, y, model.C, beta)
        assert np.linalg.norm(model.weights - w) <= d_w
        assert abs(model.intercept - b) <= d_b

    # all columns at once: the first failing column's error, else the
    # models of fitting each column alone
    together = _outcome(
        lambda: fit_ridge(m, np.column_stack(targets), alpha_grid, folds, seed)
    )
    fails = [c for c, a in enumerate(alone) if isinstance(a, str)]
    if fails:
        assert together == alone[fails[0]]
        return
    assert len(together) == len(targets)
    for y, model, one in zip(targets, together, alone):
        if model.C == one.C:
            assert model.intercept == one.intercept
            assert np.array_equal(model.weights, one.weights)
        else:
            assert _near_tie(oracles.train_ridge(m, y, alpha_grid, folds, seed))


@settings(max_examples=40, deadline=None)
@given(
    matrix_seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 300),
    n_items=st.integers(1, 300),
    n_vectors=st.integers(2, 12),
)
def test_block_products_match_each_vector_alone(
    matrix_seed, n_users, n_items, n_vectors
):
    # the ridge CG's bit-identity of a target fitted with others rests on
    # these: scipy's multi-vector CSR product gives each vector the bits of
    # its single-vector product, and a sum over the last axis of a C-ordered
    # block adds each row as it adds that row alone
    rng = np.random.default_rng(matrix_seed)
    m = random_footprints(rng, n_users, n_items, density=0.1)
    for M, width in ((m.csr, n_items), (m.csr_t, n_users)):
        V = rng.normal(size=(n_vectors, width))
        block = models._times(M, V)
        sums = np.sum(block, axis=1)
        for c in range(n_vectors):
            alone = models._times(M, V[c : c + 1])
            assert np.array_equal(block[c], alone[0])
            assert np.array_equal(M @ V[c], alone[0])
            assert sums[c] == np.sum(alone, axis=1)[0]


def test_ridge_memory_peak_below_half_a_gram_matrix():
    # CG on the sparse rows holds no n x n array: per fold the train and
    # validation CSR slices, and a few vectors per target and alpha. The
    # bound, half of the n^2 float64s that K = X X^T alone took, was set
    # before measuring; the Cholesky path peaked at about 2.2 n^2
    n = 600
    rng = np.random.default_rng(40)
    m = random_footprints(rng, n, 1500, density=0.02)
    Y = rng.normal(0, 1, (n, 5))
    assert m.csr.nnz and m.csr_t.nnz  # built before tracing
    tracemalloc.start()
    try:
        fitted = fit_ridge(m, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fitted) == 5
    assert peak < 0.5 * n * n * 8


def test_ridge_shift_at_the_iteration_cap_names_alpha(monkeypatch):
    # a shift that has not converged at the cap is an error, never a
    # fallback; a cap of 0 iterations leaves every shift short of its stop
    monkeypatch.setattr(models, "CG_ITERS_PER_ROW", 0)
    rng = np.random.default_rng(38)
    m = random_footprints(rng, 12, 6)
    with pytest.raises(ValueError, match=r"did not converge .* at alpha=0\.5$"):
        fit_ridge(m, rng.normal(0, 1, (12, 1)), (0.5,))


def test_ridge_targets_must_be_columns():
    rng = np.random.default_rng(39)
    m = random_footprints(rng, 12, 6)
    y = rng.normal(0, 1, 12)
    for bad in (y, y[:-1, None], y[None, :]):
        with pytest.raises(ValueError, match="targets not aligned"):
            fit_ridge(m, bad)


# ---------------------------------------------------------------------------
# serialization


def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    m = random_footprints(rng, 20, 7)
    y = (rng.random(20) < 0.5).astype(float)
    y[0], y[1] = 1.0, 0.0
    model = train_logreg_l2(m, y, C=0.3)
    path = tmp_path / "model.json"
    write_results(tmp_path, {"model.json": model_to_dict(model, m.item_ids)})
    obj = json.loads(path.read_text())
    # the sparse id -> weight map gives back every weight exactly
    weights = np.zeros(obj["n_items"])
    for item, w in obj["weights"].items():
        weights[m.item_ids.index(item)] = w
    np.testing.assert_array_equal(weights, model.weights)
    assert obj["intercept"] == model.intercept
    assert obj["C"] == model.C and obj["kind"] == model.kind
    # sha256 over the item ids in model order, each followed by a NUL byte
    vocab = b"".join(item.encode() + b"\0" for item in m.item_ids)
    assert obj["vocabulary_sha256"] == sha256(vocab).hexdigest()


def test_save_model_rejects_nan(tmp_path):
    # strict JSON: a NaN weight fails loudly instead of writing bare NaN
    # and no file of the set is written, not even one before it
    model = LinearModel(np.array([0.5, np.nan]), 0.0, 1.0)
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        write_results(
            out,
            {
                "a.csv": csv_text(["x"], [[1]]),
                "model.json": model_to_dict(model, ("a", "b")),
            },
        )
    assert not out.exists()
