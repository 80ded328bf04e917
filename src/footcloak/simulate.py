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
that order. At 0.0 a user's row is the cloaked full row less its drops; a
re-added item weighs 0 when cloaking removed it from the full row. No
re-added matrix is built; the tests check this against the slow, obvious
path: rebuild each re-added matrix, then the per-user oracle
`tests/oracles.py::apply_cloak`.
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
    cloak_matrix,
    strategy_threshold,
)
from .data import (
    DropPlan,
    FootprintMatrix,
    LabelTable,
    apply_drop,
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


@dataclass(frozen=True, eq=False)
class ReaddMargins:
    """Decision margins of a set of users at any re-add fraction.

    base[i] is user i's margin on the reduced row; sums holds, per user
    and starting at offsets[i], 0.0 followed by the running sum of the
    weights over the user's drop order. Built in O(dropped items).
    """

    base: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    sums: np.ndarray

    @classmethod
    def build(
        cls, base: np.ndarray, readd_weights: Sequence[np.ndarray]
    ) -> "ReaddMargins":
        """readd_weights[i] holds the weights of user i's dropped items in
        re-add order."""
        lengths = np.array([len(w) for w in readd_weights], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths + 1)[:-1])).astype(np.int64)
        sums = np.concatenate(
            [np.zeros(0)] + [np.concatenate(([0.0], np.cumsum(w))) for w in readd_weights]
        )
        return cls(np.asarray(base, dtype=np.float64), lengths, offsets, sums)

    def at(self, fraction: float) -> np.ndarray:
        """Margins once the first round_half_up(fraction * len) dropped
        items of every user are back."""
        t = np.floor(fraction * self.lengths + 0.5).astype(np.int64)
        return self.base + self.sums[self.offsets + t]


@dataclass(frozen=True, eq=False)
class ProtectionContext:
    """Everything shared by strategies for one task: model, thresholds,
    drop plans, target population. Built once, reused across strategies.

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
    train_plan: DropPlan
    test_reduced: FootprintMatrix
    test_full: FootprintMatrix
    test_plan: DropPlan
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
    plan = make_drop_plan(
        fm, config.drop_fraction, derive_seed(config.seed, STREAM_PROTECTION_DROP)
    )
    train_plan = plan.select_users(train.indices)
    test_plan = plan.select_users(test.indices)
    train_reduced = apply_drop(train.matrix, train_plan)
    test_reduced = apply_drop(test.matrix, test_plan)

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
    train_margins = ReaddMargins.build(
        decision_margins(model, train_reduced),
        [model.weights[d] for d in train_plan.dropped],
    )
    thresholds = tuple(
        quantile_threshold(expit(train_margins.at(f)), config.quantile)
        for f in config.schedule
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
        train_plan=train_plan,
        test_reduced=test_reduced,
        test_full=test.matrix,
        test_plan=test_plan,
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
    ctx: ProtectionContext, cloaked: FootprintMatrix, users: np.ndarray
) -> np.ndarray:
    """protected[k, u]: whether test row users[u] scores strictly below
    ctx.thresholds[k], where cloaked holds the cloaked full test rows.

    The margins at 0.0 are decision_margins of the cloaked rows less their
    planned drops, the same w.x + b the thresholds come from. A re-added
    item weighs its model weight while the cloaked row holds it, and 0
    once cloaking has removed it.
    """
    weights = ctx.model.weights
    readd_weights = []
    for i in users:
        dropped = ctx.test_plan.dropped[i]
        held = np.isin(dropped, cloaked.row(i))
        readd_weights.append(np.where(held, weights[dropped], 0.0))
    reduced = apply_drop(cloaked, ctx.test_plan)
    margins = ReaddMargins.build(
        decision_margins(ctx.model, reduced)[users], readd_weights
    )
    schedule = zip(ctx.config.schedule, ctx.thresholds)
    return np.array([expit(margins.at(f)) < th for f, th in schedule])


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
    cloaked = cloak_matrix(ctx.test_full, explained, mfm)

    y = ctx.test_labels[pop]
    groups = {"tp": y == 1.0, "fp": y == 0.0}
    for name, members in groups.items():
        if not members.any():
            logger.debug("run_strategy: group %s empty for %s", name, ctx.task)

    protected = protection_flags(ctx, cloaked, pop)

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
    costs = (degrees - cloaked.degrees()[pop]) / degrees

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
