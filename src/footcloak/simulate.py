"""Longer-term protection experiments over simulated time.

Time is simulated by dropping a fraction of every user's likes up front
and gradually re-adding them on a fixed schedule. The classifier is
trained once on the reduced training split and never retrained; only the
decision threshold moves, recomputed at each fraction from the uncloaked
training scores. A user counts as protected at fraction f when their
cloaked score is strictly below that fraction's threshold.

Each strategy cloaks the full test rows once, and that one matrix gives
both protection and cost. The schedule is evaluated in closed form.
Re-adding fraction f restores the first round_half_up(f * len) items of
each user's drop order, so the re-added sets are nested prefixes and the
margin at f is the margin at 0.0 plus a prefix sum of the weights over
that order, placed by the drop plan's re-add ranks. The drop plan and the
cloak are each one array over the full rows' stored entries, gathered
with the rows they belong to. At 0.0 a user's row is the cloaked full row
less its drops; a re-added item weighs 0 when cloaking removed it from
the full row. No re-added matrix is built;
the tests check this against the slow, obvious path: rebuild each
re-added matrix, then the per-user oracle `tests/oracles.py::apply_cloak`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._util import (
    STREAM_PROTECTION_CV,
    STREAM_PROTECTION_DROP,
    STREAM_PROTECTION_NMF,
    STREAM_PROTECTION_SPLIT,
    ExperimentConfig,
    csv_text,
    derive_seed,
    expit,
)
from .cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_MF,
    check_strategy,
    cloak_entries,
    strategy_threshold,
)
from .data import (
    FootprintMatrix,
    LabelTable,
    _select_entries,
    make_drop_plan,
    task_split,
)
from .explain import explain_population
from .metafeatures import MetafeatureModel, task_nmf_metafeatures
from .models import (
    LinearModel,
    decision_margins,
    fit_classifier,
    predict_scores,
    quantile_threshold,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ProtectionCurve:
    """Protection over simulated time for one task and strategy.

    Undefined values, such as a protection rate over an empty population,
    are held as None (null in JSON, an empty CSV field). population_size
    counts the directed users; diagnostics["population_size"] counts the
    targeted users, positive under both thresholds. The two differ by
    diagnostics["not_found"], the targeted users with no explanation.
    """

    task: str
    strategy: str
    fractions: tuple[float, ...]
    protection: tuple[Optional[float], ...]
    thresholds: tuple[float, ...]
    population_size: int
    population_user_ids: tuple[str, ...]
    group_curves: dict[str, tuple[float, ...]]
    diagnostics: dict
    quantile: float
    seed: int


@dataclass(frozen=True)
class TradeoffRow:
    """Cost versus protection for one task and strategy.

    Cost and protection are None when no target user got a directive.
    """

    task: str
    strategy: str
    avg_cloak_cost: Optional[float]
    protection_at_full: Optional[float]
    population_size: int


def readd_margins(
    model: LinearModel,
    rows: FootprintMatrix,
    ranks: np.ndarray,
    held: np.ndarray,
    fractions: Sequence[float],
) -> list[np.ndarray]:
    """The margins w.x + b of rows at each re-add fraction. ranks is the
    rows' drop plan (make_drop_plan) and held[e] whether entry e is held,
    one of each per stored entry: at 0.0 a row is its held entries less
    its drops, and a re-added entry weighs its model weight when held, 0
    when not.

    Each dropped entry's weight sits at its user's offset plus 1 plus its
    rank, after the user's 0.0, and one cumsum per user's slice keeps the
    bits of that user's running sum (a cumsum of all less offsets would not).
    """
    if len(ranks) != rows.nnz or len(held) != rows.nnz:
        raise ValueError("ranks and held need one value per stored entry of rows")
    base = decision_margins(model, rows.keep_entries(held & (ranks < 0)))
    dropped = np.flatnonzero(ranks >= 0)
    lengths = np.diff(np.searchsorted(dropped, rows.indptr))  # per user
    offsets = np.cumsum(lengths + 1) - lengths - 1
    sums = np.zeros(len(dropped) + len(lengths))
    at = np.repeat(offsets + 1, lengths)
    at += ranks[dropped]
    sums[at] = np.where(held[dropped], model.weights[rows.indices[dropped]], 0.0)
    for start, end in zip((offsets + 1).tolist(), (offsets + 1 + lengths).tolist()):
        np.cumsum(sums[start:end], out=sums[start:end])
    t = (np.floor(f * lengths + 0.5).astype(np.int64) for f in fractions)
    return [base + sums[offsets + ti] for ti in t]


@dataclass(frozen=True, eq=False)
class ProtectionContext:
    """Everything shared by strategies for one task: model, thresholds,
    the test rows' drop plan (test_ranks, one re-add rank per stored entry
    of test_full), target population. Built once, reused across
    strategies. The training rows' plan is read only while the thresholds
    are built, so the context does not hold it.

    thresholds holds the decision threshold of each schedule fraction,
    from the uncloaked training scores; at 0.0 it equals threshold0
    exactly.
    """

    task: str
    config: ExperimentConfig
    model: LinearModel
    threshold0: float
    threshold_full: float
    train_reduced: FootprintMatrix
    test_reduced: FootprintMatrix
    test_full: FootprintMatrix
    test_ranks: np.ndarray
    train_scores_reduced: np.ndarray
    thresholds: tuple[float, ...]
    test_labels: np.ndarray
    population: np.ndarray
    domain: Optional[MetafeatureModel]
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def nmf(self) -> MetafeatureModel:
        """NMF metafeatures of the reduced training rows, fit at the first
        MF run: only MF reads them."""
        return task_nmf_metafeatures(
            self.train_reduced, self.config, STREAM_PROTECTION_NMF
        )


def build_protection_context(
    task: str,
    matrix: FootprintMatrix,
    labels: LabelTable,
    config: ExperimentConfig,
    domain: Optional[MetafeatureModel] = None,
) -> ProtectionContext:
    """Run the shared pipeline stages up to the target population.

    Drop half the likes, train once on the reduced training split (C by
    cross-validation), set the reduced and full-data thresholds, and keep
    the test users positive under both: cloaking a user never targeted is
    meaningless, and one never re-identified needs no longer-term story.
    """
    fm, train, test = task_split(
        matrix,
        labels,
        task,
        config.min_user,
        config.min_item,
        config.train_frac,
        derive_seed(config.seed, STREAM_PROTECTION_SPLIT),
    )
    ranks = make_drop_plan(
        fm, config.drop_fraction, derive_seed(config.seed, STREAM_PROTECTION_DROP)
    )
    # each partition's ranks, gathered as its select_users gathered its rows
    train_ranks, test_ranks = (
        ranks[_select_entries(fm.indptr, part.indices)[1]] for part in (train, test)
    )
    del ranks
    train_reduced = train.matrix.keep_entries(train_ranks < 0)
    test_reduced = test.matrix.keep_entries(test_ranks < 0)

    best_c, model, train_scores_reduced = fit_classifier(
        train_reduced,
        train.labels.values[task],
        config.folds,
        derive_seed(config.seed, STREAM_PROTECTION_CV),
    )
    threshold0 = quantile_threshold(train_scores_reduced, config.quantile)
    test_scores_reduced = predict_scores(model, test_reduced)
    positives0 = test_scores_reduced >= threshold0

    threshold_full = quantile_threshold(
        predict_scores(model, train.matrix), config.quantile
    )
    positives_full = predict_scores(model, test.matrix) >= threshold_full
    population = np.nonzero(positives0 & positives_full)[0]
    if len(population) == 0:
        raise ValueError(
            "empty target population: no test user is predicted positive on "
            "both the reduced and the full footprints; use more data or a "
            "lower quantile"
        )

    # the same w.x + b that train_scores_reduced came from, so fraction 0.0
    # reproduces threshold0 bit for bit
    train_margins = readd_margins(
        model, train.matrix, train_ranks, np.ones(train.matrix.nnz, dtype=bool),
        config.schedule,
    )
    thresholds = tuple(
        quantile_threshold(expit(m), config.quantile) for m in train_margins
    )

    diagnostics = {
        "n_filtered_users": fm.n_users,
        "n_train": train.matrix.n_users,
        "n_test": test.matrix.n_users,
        "best_c": best_c,
        "positives_at_zero": int(positives0.sum()),
        "positives_at_full": int(positives_full.sum()),
        "population_size": int(len(population)),
    }
    return ProtectionContext(
        task=task,
        config=config,
        model=model,
        threshold0=threshold0,
        threshold_full=threshold_full,
        train_reduced=train_reduced,
        test_reduced=test_reduced,
        test_full=test.matrix,
        test_ranks=test_ranks,
        train_scores_reduced=train_scores_reduced,
        thresholds=thresholds,
        test_labels=test.labels.values[task],
        population=population,
        domain=domain,
        diagnostics=diagnostics,
    )


def _strategy_mfm(ctx: ProtectionContext, strategy: str) -> Optional[MetafeatureModel]:
    """The grouping a strategy sweeps: the NMF metafeatures for MF, the
    domain categories for DOMAIN_MF, none for FG and FG_TOL."""
    if strategy == STRATEGY_MF:
        return ctx.nmf
    if strategy == STRATEGY_DOMAIN_MF:
        if ctx.domain is None:
            raise ValueError(f"{strategy} requires a domain category mapping")
        return ctx.domain
    return None


def protection_flags(
    ctx: ProtectionContext, keep: np.ndarray, users: np.ndarray
) -> np.ndarray:
    """protected[k, u]: whether test row users[u] scores strictly below
    ctx.thresholds[k] once cloaked, where keep holds the cloak's flag for
    each stored entry of the full test rows (cloak_entries).

    The margins at 0.0 are decision_margins of the cloaked rows less their
    planned drops, the same w.x + b the thresholds come from. A re-added
    item weighs its model weight while the cloak keeps it, and 0 once
    cloaking has removed it. Only the rows users are read, so the work
    follows the population, not the test split.
    """
    if len(keep) != ctx.test_full.nnz:
        raise ValueError("keep needs one flag per stored entry of the full test rows")
    gather = _select_entries(ctx.test_full.indptr, users)[1]
    margins = readd_margins(
        ctx.model, ctx.test_full.select_users(users), ctx.test_ranks[gather],
        keep[gather], ctx.config.schedule,
    )
    return np.array([expit(m) < th for m, th in zip(margins, ctx.thresholds)])


def run_strategy(ctx: ProtectionContext, strategy: str) -> ProtectionCurve:
    """Protection curve of one strategy over the context's population.

    The population's reduced rows are explained against the strategy's
    threshold (threshold0, or FG_TOL's tolerance threshold), and the
    explanations and the strategy's grouping cloak the full test rows.
    That one cloak feeds both the schedule, evaluated in closed form by
    protection_flags, and the average cloaking cost,
    diagnostics["avg_cloak_cost_full"]: None when no population user has
    an explanation.
    """
    config = ctx.config
    check_strategy(config, strategy)
    mfm = _strategy_mfm(ctx, strategy)
    threshold = strategy_threshold(
        config, strategy, ctx.threshold0, ctx.train_scores_reduced
    )
    explained, not_found = explain_population(
        ctx.model, ctx.test_reduced, ctx.population, threshold
    )
    pop = np.array(sorted(explained), dtype=np.int64)
    keep = cloak_entries(ctx.test_full, explained, mfm)

    y = ctx.test_labels[pop]
    groups = {"tp": y == 1.0, "fp": y == 0.0}
    for name, members in groups.items():
        if not members.any():
            logger.debug("run_strategy: group %s empty for %s", name, ctx.task)

    protected = protection_flags(ctx, keep, pop)

    def rate(flags: np.ndarray) -> Optional[float]:
        return float(np.mean(flags)) if flags.size else None

    protection = tuple(rate(p) for p in protected)
    group_curves = {
        name: tuple(rate(p[members]) for p in protected)
        for name, members in groups.items()
        if members.any()
    }
    # a directive user's full row is never empty: it holds the explanation
    degrees = ctx.test_full.degrees()[pop]
    costs = (degrees - ctx.test_full.keep_entries(keep).degrees()[pop]) / degrees

    diagnostics = dict(ctx.diagnostics)
    diagnostics.update(
        {
            "not_found": not_found,
            "n_cloaked": int(len(pop)),
            "tp_count": int(groups["tp"].sum()),
            "fp_count": int(groups["fp"].sum()),
            "unprotected_at_creation": int(
                (~protected[list(config.schedule).index(0.0)]).sum()
            )
            if 0.0 in config.schedule
            else None,
            "avg_cloak_cost_full": float(np.mean(costs)) if len(pop) else None,
        }
    )
    return ProtectionCurve(
        task=ctx.task,
        strategy=strategy,
        fractions=tuple(float(f) for f in config.schedule),
        protection=protection,
        thresholds=ctx.thresholds,
        population_size=int(len(pop)),
        population_user_ids=tuple(ctx.test_reduced.user_ids[i] for i in pop),
        group_curves=group_curves,
        diagnostics=diagnostics,
        quantile=config.quantile,
        seed=config.seed,
    )


def run_protection_experiment(
    task: str,
    strategy: str,
    matrix: FootprintMatrix,
    labels: LabelTable,
    config: ExperimentConfig,
    domain: Optional[MetafeatureModel] = None,
) -> ProtectionCurve:
    """End-to-end protection experiment for one task and strategy."""
    check_strategy(config, strategy)
    ctx = build_protection_context(task, matrix, labels, config, domain=domain)
    return run_strategy(ctx, strategy)


def tradeoff_report(
    tasks: Sequence[str],
    strategies: Sequence[str],
    matrix: FootprintMatrix,
    labels: LabelTable,
    config: ExperimentConfig,
    domain: Optional[MetafeatureModel] = None,
) -> list[TradeoffRow]:
    """Cost versus protection-at-full for every task x strategy pair.

    The model, thresholds and population are shared per task, so rows for
    different strategies are directly comparable.
    """
    if 1.0 not in config.schedule:
        raise ValueError("tradeoff report needs fraction 1.0 in the schedule")
    for strategy in strategies:
        check_strategy(config, strategy)
    rows = []
    for task in tasks:
        ctx = build_protection_context(task, matrix, labels, config, domain=domain)
        for strategy in strategies:
            curve = run_strategy(ctx, strategy)
            idx = curve.fractions.index(1.0)
            rows.append(
                TradeoffRow(
                    task=task,
                    strategy=strategy,
                    avg_cloak_cost=curve.diagnostics["avg_cloak_cost_full"],
                    protection_at_full=curve.protection[idx],
                    population_size=curve.population_size,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# serialization


def curve_csv(curve: ProtectionCurve) -> str:
    """CSV mirror: fraction, protection, group (group 'all' plus tp/fp)."""
    return csv_text(
        ("fraction", "protection", "group"),
        [
            (f, v, name)
            for name, vals in [("all", curve.protection)] + sorted(curve.group_curves.items())
            for f, v in zip(curve.fractions, vals)
        ],
    )
