"""Spillover: what cloaking one sensitive inference costs other tasks.

Users cloak against a sensitive classifier; secondary continuous traits
are then predicted from their cloaked footprints with ridge models that
were trained on uncloaked data. The report compares Pearson correlation
on the cloaked subpopulation under no cloaking, FG cloaking, and MF
cloaking, using the same user set and the same secondary models in all
three columns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import STREAM_RIDGE, ExperimentConfig, csv_text, derive_seed
from .cloak import STRATEGY_FG, STRATEGY_MF, cloak_matrix, cloak_population
from .data import FootprintMatrix, LabelTable
from .metafeatures import task_nmf_metafeatures
from .models import (
    decision_margins,
    fit_ridge,
    fit_task_classifier,
    pearson,
    predict_scores,
)

logger = logging.getLogger(__name__)

POPULATION_CLOAKED = "cloaked"
POPULATION_ALL_TEST = "all-test"

SMALL_POPULATION = 30
MIN_POPULATION = 3


@dataclass(frozen=True)
class SpilloverRow:
    """Correlation for one secondary trait under the three footprint states.

    A correlation that is undefined (the trait's values or its predictions
    are constant over the population) is None: null in JSON, an empty CSV
    field.
    """

    trait: str
    n: int
    r_none: Optional[float]
    r_fg: Optional[float]
    r_mf: Optional[float]


@dataclass(frozen=True, eq=False)
class SpilloverReport:
    sensitive_task: str
    population_mode: str
    n_population: int
    small_population: bool
    rows: tuple[SpilloverRow, ...]
    diagnostics: dict
    quantile: float
    seed: int


def run_spillover_experiment(
    sensitive_task: str,
    traits: Sequence[str],
    matrix: FootprintMatrix,
    labels: LabelTable,
    config: ExperimentConfig,
    population: str = POPULATION_CLOAKED,
) -> SpilloverReport:
    """Measure secondary-trait correlation before and after cloaking.

    The sensitive classifier is trained on the full training split, its
    threshold set at the training-score quantile; positive test users get
    FG and MF directives. Secondary ridge models are trained per trait on
    uncloaked training rows only. population='cloaked' evaluates over the
    cloaked users; 'all-test' evaluates over every test user, with
    directives applied where they exist.
    """
    if population not in (POPULATION_CLOAKED, POPULATION_ALL_TEST):
        raise ValueError(f"unknown population mode {population!r}")
    for trait in traits:
        if trait not in labels.values:
            raise ValueError(f"unknown trait {trait!r}")

    clf = fit_task_classifier(sensitive_task, matrix, labels, config)
    train, test, threshold = clf.train, clf.test, clf.threshold.value
    positives = np.nonzero(predict_scores(clf.model, test.matrix) >= threshold)[0]
    mfm = task_nmf_metafeatures(train.matrix, config)

    # MF finds no explanation exactly where FG finds none (both explain the
    # same row against the same threshold), so MF directs the same users
    fg, not_found = cloak_population(
        STRATEGY_FG, clf.model, test.matrix, positives, threshold
    )
    mf, _ = cloak_population(
        STRATEGY_MF, clf.model, test.matrix, positives, threshold, mfm
    )

    cloaked = np.array(sorted(fg), dtype=np.int64)
    if population == POPULATION_CLOAKED:
        pop = cloaked
    else:
        pop = np.arange(test.matrix.n_users, dtype=np.int64)
    if len(pop) < MIN_POPULATION:
        raise ValueError(
            f"population has {len(pop)} users; need at least {MIN_POPULATION}"
        )
    small = len(pop) < SMALL_POPULATION
    if small:
        logger.warning("spillover population has only %d users", len(pop))

    # traits labeled on the same training users share one fit_ridge call:
    # one set of CV folds and one CG run per fold for all of them
    groups: dict[bytes, tuple[np.ndarray, list[str]]] = {}
    for trait in traits:
        trn_idx = np.nonzero(train.labels.labeled_mask(trait))[0]
        groups.setdefault(trn_idx.tobytes(), (trn_idx, []))[1].append(trait)
    ridges = {}
    for trn_idx, group in groups.values():
        Y = np.column_stack([train.labels.values[t][trn_idx] for t in group])
        fitted = fit_ridge(
            train.matrix.select_users(trn_idx),
            Y,
            folds=config.folds,
            seed=derive_seed(config.seed, STREAM_RIDGE),
        )
        ridges.update(zip(group, fitted))

    # the test footprints uncloaked, FG-cloaked and MF-cloaked
    states = (
        test.matrix,
        cloak_matrix(test.matrix, fg),
        cloak_matrix(test.matrix, mf, mfm),
    )

    def trait_row(trait: str) -> SpilloverRow:
        ridge = ridges[trait]
        eval_idx = pop[~np.isnan(test.labels.values[trait][pop])]
        if len(eval_idx) < MIN_POPULATION:
            raise ValueError(
                f"trait {trait!r}: only {len(eval_idx)} labeled users in population"
            )
        actual = test.labels.values[trait][eval_idx]

        def r_with(state: FootprintMatrix) -> Optional[float]:
            try:
                return pearson(decision_margins(ridge, state)[eval_idx], actual)
            except ValueError:
                return None

        r = [r_with(state) for state in states]
        if None in r:
            logger.warning("trait %r: pearson undefined for constant input", trait)
        return SpilloverRow(trait, int(len(eval_idx)), *r)

    rows = tuple(trait_row(t) for t in traits)
    diagnostics = {
        "n_train": train.matrix.n_users,
        "n_test": test.matrix.n_users,
        "best_c": clf.best_c,
        "threshold": threshold,
        "n_positive": int(len(positives)),
        "n_cloaked": int(len(cloaked)),
        "not_found": not_found,
    }
    return SpilloverReport(
        sensitive_task=sensitive_task,
        population_mode=population,
        n_population=int(len(pop)),
        small_population=small,
        rows=rows,
        diagnostics=diagnostics,
        quantile=config.quantile,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: SpilloverReport) -> dict:
    return {
        "sensitive_task": report.sensitive_task,
        "population_mode": report.population_mode,
        "n_population": report.n_population,
        "small_population": report.small_population,
        "quantile": report.quantile,
        "seed": report.seed,
        "rows": [
            {
                "trait": r.trait,
                "n": r.n,
                "pearson_none": r.r_none,
                "pearson_fg": r.r_fg,
                "pearson_mf": r.r_mf,
            }
            for r in report.rows
        ],
        "diagnostics": report.diagnostics,
    }


def spillover_csv(report: SpilloverReport) -> str:
    """CSV mirror: trait, strategy, pearson_r, n."""
    return csv_text(
        ("trait", "strategy", "pearson_r", "n"),
        [
            (r.trait, strategy, val, r.n)
            for r in report.rows
            for strategy, val in (("none", r.r_none), ("fg", r.r_fg), ("mf", r.r_mf))
        ],
    )
