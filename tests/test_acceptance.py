"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with -s to see them all).
The protection and spillover experiments run on the default synthetic
configuration over five seeds and are shared across tests through
module-scoped fixtures.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.special import expit

from footcloak import synth
from footcloak.cli import main as cli_main
from footcloak.cloak import (
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    strategy_threshold,
)
from footcloak.data import from_rows
from footcloak.explain import explain_population, linear_explain
from footcloak.metafeatures import assign_exclusive, nmf_fit
from footcloak.models import (
    LinearModel,
    auc,
    logreg_value_and_grad,
    pearson,
    quantile_threshold,
)
from footcloak.simulate import (
    ExperimentConfig,
    build_protection_context,
    run_strategy,
)
from footcloak.spillover import run_spillover_experiment

from conftest import random_footprints
from oracles import apply_cloak, predict_score, sedc_explain

TASKS = ("task_a", "task_b", "task_c")
TRAITS = tuple(f"trait_{c}" for c in "abcde")
STRATEGIES = (STRATEGY_FG, STRATEGY_MF, STRATEGY_FG_TOL)


def _criterion(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def synth_by_seed():
    return {s: synth.generate(synth.SynthConfig(seed=s)) for s in range(5)}


@pytest.fixture(scope="module")
def protection_runs(synth_by_seed):
    """Protection curves for 5 seeds x 3 tasks x 3 strategies, plus the
    shared per-run context, under the default experiment configuration."""
    t0 = time.perf_counter()
    runs = {}
    for seed, res in synth_by_seed.items():
        config = ExperimentConfig(seed=seed)
        for task in TASKS:
            ctx = build_protection_context(
                task, res.matrix, res.labels, config
            )
            curves, costs = {}, {}
            for strategy in STRATEGIES:
                curve = run_strategy(ctx, strategy)
                curves[strategy] = curve
                costs[strategy] = curve.diagnostics["avg_cloak_cost_full"]
            runs[(seed, task)] = {"ctx": ctx, "curves": curves, "costs": costs}
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def spillover_runs(synth_by_seed):
    reports = []
    for seed, res in synth_by_seed.items():
        config = ExperimentConfig(seed=seed)
        reports.append(
            run_spillover_experiment(
                "task_a", TRAITS, res.matrix, res.labels, config
            )
        )
    return reports


def _mean_at(runs, strategy, fraction, tasks=TASKS):
    """Mean protection at one schedule fraction over seeds and tasks."""
    vals = []
    for (seed, task), entry in runs.items():
        if task not in tasks:
            continue
        curve = entry["curves"][strategy]
        vals.append(curve.protection[curve.fractions.index(fraction)])
    return float(np.mean(vals))


def _task_mean_at(runs, strategy, fraction, task):
    return _mean_at(runs, strategy, fraction, tasks=(task,))


# ---------------------------------------------------------------------------
# criterion 1: explanation optimality


def _exhaustive_min_size(w, b, row, threshold):
    margin0 = float(w[row].sum()) + b
    for size in range(1, len(row) + 1):
        for feats in itertools.combinations(range(len(row)), size):
            drop = sum(float(w[row[f]]) for f in feats)
            if expit(margin0 - drop) < threshold:
                return size
    return None


def test_criterion_1_explanation_optimality():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    n_models = 0
    solvable = 0
    mismatches = 0
    while n_models < 200:
        n = int(rng.integers(3, 16))
        w = rng.normal(0.4, 1.2, n)
        b = float(rng.normal(0.0, 0.5))
        threshold = float(rng.uniform(0.3, 0.8))
        row = np.arange(n)
        model = LinearModel(w, b, 1.0)
        if float(expit(w.sum() + b)) < threshold:
            continue
        n_models += 1
        best = _exhaustive_min_size(w, b, row, threshold)
        exp = sedc_explain(model, row, threshold)
        lin = linear_explain(model, row, threshold)
        if best is None:
            if exp is not None or lin is not None:
                mismatches += 1
            continue
        solvable += 1
        if exp is None or lin is None or exp.size != best or lin.size != best:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"200 models ({solvable} solvable), {mismatches} size mismatches, "
        f"{elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: cloak construction


def test_criterion_2_cloak_construction(protection_runs):
    runs = protection_runs["runs"]
    checked = 0
    violations = 0
    for entry in runs.values():
        ctx = entry["ctx"]
        th0 = ctx.threshold0
        tol = quantile_threshold(
            ctx.train_scores_reduced, ctx.config.tolerance_quantile
        )
        for strategy, target in ((STRATEGY_FG, th0), (STRATEGY_FG_TOL, tol)):
            threshold = strategy_threshold(
                ctx.config, strategy, th0, ctx.train_scores_reduced
            )
            explained, _ = explain_population(
                ctx.model, ctx.test_reduced, ctx.population, threshold
            )
            for i, expl in explained.items():
                checked += 1
                row = ctx.test_reduced.row(i)
                if predict_score(ctx.model, apply_cloak(row, expl.features)) >= target:
                    violations += 1
    _criterion(
        2,
        checked > 0 and violations == 0,
        f"{checked} FG/FG_TOL directives, {violations} not strictly below "
        f"their target threshold at creation",
    )


# ---------------------------------------------------------------------------
# criterion 3: gradient check


def test_criterion_3_gradient_matches_finite_differences():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 12))
        mi = int(rng.integers(3, 9))
        m = random_footprints(rng, n, mi, density=0.4)
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(0.0, 1.0, mi)
        b = float(rng.normal())
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
            fd[j] = (vp - vm) / (2.0 * h)
        rel = float(np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))))
        worst = max(worst, rel)
    _criterion(
        3, worst < 1e-5, f"50 instances, worst relative gradient error {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# criterion 4: NMF behavior


def _purity(assignment, truth, k_truth):
    total = 0
    for mf in np.unique(assignment):
        members = truth[assignment == mf]
        total += int(np.bincount(members, minlength=k_truth).max())
    return total / len(truth)


def test_criterion_4_nmf(synth_by_seed):
    rng = np.random.default_rng(104)
    increases = 0
    for _ in range(20):
        m = random_footprints(rng, 30, 24, density=0.2)
        _, _, obj = nmf_fit(m, k=4, max_iters=80, tol=0.0, seed=int(rng.integers(1000)))
        if np.any(np.diff(obj) > 1e-9 * max(1.0, obj[0])):
            increases += 1

    # clean planted two-block matrix: every user likes their whole block
    rows = [np.arange(0, 20) if u % 2 == 0 else np.arange(20, 40) for u in range(40)]
    m2 = from_rows(
        rows, 40, tuple(f"u{i}" for i in range(40)), tuple(f"i{j}" for j in range(40))
    )
    truth2 = np.repeat(np.arange(2), 20)
    _, H2, _ = nmf_fit(m2, k=2, max_iters=300, tol=1e-10, seed=0)
    purity2 = _purity(assign_exclusive(H2), truth2, 2)

    purities = []
    for seed, res in synth_by_seed.items():
        k = res.config.k_topics
        _, H, _ = nmf_fit(res.matrix, k=k, seed=seed)
        purities.append(_purity(assign_exclusive(H), res.item_topics, k))
    min_purity = min(purities)

    _criterion(
        4,
        increases == 0 and purity2 == 1.0 and min_purity >= 0.9,
        f"objective increases on {increases}/20 matrices, two-block purity "
        f"{purity2:.3f} (need 1.0), default-config purity min {min_purity:.3f} "
        f"over 5 seeds (need >= 0.9)",
    )


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(105)
    worst_auc = 0.0
    worst_pearson = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.random(n), 2)  # coarse grid to exercise ties
        labels = (rng.random(n) < 0.5).astype(float)
        if np.unique(labels).size < 2:
            labels[0] = 1.0 - labels[0]
        pos = np.nonzero(labels == 1.0)[0]
        neg = np.nonzero(labels == 0.0)[0]
        total = 0.0
        for i in pos:
            for j in neg:
                if scores[i] > scores[j]:
                    total += 1.0
                elif scores[i] == scores[j]:
                    total += 0.5
        oracle = total / (len(pos) * len(neg))
        worst_auc = max(worst_auc, abs(auc(scores, labels) - oracle))

        x = rng.normal(0.0, 2.0, n)
        y = rng.normal(0.0, 2.0, n)
        mx, my = float(np.mean(x)), float(np.mean(y))
        num = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
        den = (
            sum((xi - mx) ** 2 for xi in x) * sum((yi - my) ** 2 for yi in y)
        ) ** 0.5
        worst_pearson = max(worst_pearson, abs(pearson(x, y) - num / den))
    _criterion(
        5,
        worst_auc < 1e-12 and worst_pearson < 1e-12,
        f"100 vectors: max |auc - oracle| {worst_auc:.1e}, "
        f"max |pearson - oracle| {worst_pearson:.1e} (need < 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 6: protection decay


def _criterion_6_tasks(runs):
    passing = []
    details = []
    for task in TASKS:
        fg_01 = _task_mean_at(runs, STRATEGY_FG, 0.1, task)
        fg_10 = _task_mean_at(runs, STRATEGY_FG, 1.0, task)
        mf_10 = _task_mean_at(runs, STRATEGY_MF, 1.0, task)
        decays = (fg_01 - fg_10) >= 0.15
        mf_wins = (mf_10 - fg_10) >= 0.10
        if decays and mf_wins:
            passing.append(task)
        details.append(
            f"{task}: FG {fg_01:.2f}->{fg_10:.2f}, MF(1.0) {mf_10:.2f}"
        )
    return passing, "; ".join(details)


def test_criterion_6_protection_decay(protection_runs):
    runs = protection_runs["runs"]
    elapsed = protection_runs["elapsed"]
    passing, details = _criterion_6_tasks(runs)
    _criterion(
        6,
        len(passing) >= 2 and elapsed < 600.0,
        f"{len(passing)}/3 tasks pass (need >= 2): {details}; "
        f"5-seed run {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: TP/FP ordering


def _group_values_at_full(runs, strategy):
    tp_vals, fp_vals = [], []
    for entry in runs.values():
        curve = entry["curves"][strategy]
        idx = curve.fractions.index(1.0)
        if "tp" in curve.group_curves and "fp" in curve.group_curves:
            tp_vals.append(curve.group_curves["tp"][idx])
            fp_vals.append(curve.group_curves["fp"][idx])
    return float(np.mean(tp_vals)), float(np.mean(fp_vals)), len(tp_vals)


def test_criterion_7_tp_fp_ordering(protection_runs):
    runs = protection_runs["runs"]
    tp_fg, fp_fg, n_fg = _group_values_at_full(runs, STRATEGY_FG)
    tp_mf, fp_mf, n_mf = _group_values_at_full(runs, STRATEGY_MF)
    gap_fg = abs(tp_fg - fp_fg)
    gap_mf = abs(tp_mf - fp_mf)
    _criterion(
        7,
        tp_fg <= fp_fg and gap_mf <= gap_fg,
        f"FG TP {tp_fg:.2f} <= FP {fp_fg:.2f} over {n_fg} runs; "
        f"MF gap {gap_mf:.2f} <= FG gap {gap_fg:.2f} ({n_mf} runs)",
    )


# ---------------------------------------------------------------------------
# criterion 8: trade-off dominance


def test_criterion_8_tradeoff_dominance(protection_runs):
    runs = protection_runs["runs"]
    cost_ok = True
    cost_details = []
    for task in TASKS:
        fg = float(np.mean([e["costs"][STRATEGY_FG] for (s, t), e in runs.items() if t == task]))
        mf = float(np.mean([e["costs"][STRATEGY_MF] for (s, t), e in runs.items() if t == task]))
        cost_ok = cost_ok and mf >= fg
        cost_details.append(f"{task}: MF {mf:.3f} vs FG {fg:.3f}")
    passing, _ = _criterion_6_tasks(runs)
    prot_ok = all(
        _task_mean_at(runs, STRATEGY_MF, 1.0, task)
        >= _task_mean_at(runs, STRATEGY_FG, 1.0, task)
        for task in passing
    )
    _criterion(
        8,
        cost_ok and prot_ok,
        f"cost {'; '.join(cost_details)}; MF>=FG protection at 1.0 on "
        f"{len(passing)} decay tasks: {prot_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 9: spillover ordering


def test_criterion_9_spillover_ordering(spillover_runs):
    fg_drops, mf_drops = [], []
    for report in spillover_runs:
        fg_drops.append(
            np.mean([abs(r.pearson_none - r.pearson_fg) for r in report.rows])
        )
        mf_drops.append(
            np.mean([abs(r.pearson_none - r.pearson_mf) for r in report.rows])
        )
    fg_mean = float(np.mean(fg_drops))
    mf_mean = float(np.mean(mf_drops))
    _criterion(
        9,
        mf_mean >= fg_mean >= 0.0,
        f"mean |pearson drop| over 5 traits x 5 seeds: MF {mf_mean:.3f} >= "
        f"FG {fg_mean:.3f} >= 0 on the cloaked subpopulation",
    )


# ---------------------------------------------------------------------------
# criterion 10: tolerance strategy


def test_criterion_10_tolerance_strategy(protection_runs):
    runs = protection_runs["runs"]
    tol_01 = _mean_at(runs, STRATEGY_FG_TOL, 0.1)
    tol_02 = _mean_at(runs, STRATEGY_FG_TOL, 0.2)
    fg_01 = _mean_at(runs, STRATEGY_FG, 0.1)
    fg_02 = _mean_at(runs, STRATEGY_FG, 0.2)
    tol_10 = _mean_at(runs, STRATEGY_FG_TOL, 1.0)
    fg_10 = _mean_at(runs, STRATEGY_FG, 1.0)
    ok = (
        tol_01 >= fg_01
        and tol_02 >= fg_02
        and tol_10 < tol_01
        and fg_10 < fg_01
    )
    _criterion(
        10,
        ok,
        f"FG_TOL vs FG at 0.1: {tol_01:.2f} >= {fg_01:.2f}; at 0.2: "
        f"{tol_02:.2f} >= {fg_02:.2f}; declining to 1.0: FG_TOL {tol_10:.2f}, "
        f"FG {fg_10:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 11: determinism


def test_criterion_11_manifest_replay_determinism(tiny_dataset_dir, tmp_path):
    base = [
        "--footprints", str(tiny_dataset_dir / "footprints.csv"),
        "--labels", str(tiny_dataset_dir / "labels.csv"),
        "--task", "task_a", "--quantile", "0.9",
    ]
    sim1 = tmp_path / "sim1"
    assert cli_main(["simulate", *base, "--schedule", "0,0.5,1",
                     "--out", str(sim1)]) == 0
    sim2 = tmp_path / "sim2"
    assert cli_main(["simulate", "--config", str(sim1 / "manifest.json"),
                     "--out", str(sim2)]) == 0

    sp1 = tmp_path / "sp1"
    assert cli_main(["spillover", *base, "--traits", ",".join(TRAITS),
                     "--population", "all-test", "--k", "8",
                     "--nmf-max-iters", "60",
                     "--out", str(sp1)]) == 0
    sp2 = tmp_path / "sp2"
    assert cli_main(["spillover", "--config", str(sp1 / "manifest.json"),
                     "--out", str(sp2)]) == 0

    mismatched = []
    for a, b, name in (
        (sim1, sim2, "protection_curve.json"),
        (sim1, sim2, "protection_curve.csv"),
        (sim1, sim2, "manifest.json"),
        (sp1, sp2, "spillover.json"),
        (sp1, sp2, "spillover.csv"),
        (sp1, sp2, "manifest.json"),
    ):
        if (a / name).read_bytes() != (b / name).read_bytes():
            mismatched.append(name)
    curve = json.loads((sim1 / "protection_curve.json").read_text())
    _criterion(
        11,
        not mismatched and curve["protection"][0] == 1.0,
        f"manifest replays byte-identical "
        f"(mismatches: {mismatched or 'none'})",
    )
