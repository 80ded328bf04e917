"""Counterfactual cloaking of sparse behavioral footprints.

Minimal counterfactual explanations tell a user which of their recorded
behaviors drive a sensitive prediction; cloaking removes them. This
package adds metafeature cloaking (remove whole behavior groups and keep
them suppressed), simulates how protection decays as new behaviors
arrive, and measures what cloaking costs other prediction tasks.
"""

__version__ = "0.1.0"

from ._util import ExperimentConfig
from .cloak import (
    STRATEGY_DOMAIN_MF,
    STRATEGY_FG,
    STRATEGY_FG_TOL,
    STRATEGY_MF,
    CloakDirective,
    cloak_matrix,
    cloak_population,
)
from .data import (
    DropPlan,
    FootprintMatrix,
    LabelTable,
    apply_drop,
    filter_min_activity,
    from_rows,
    load_labels,
    load_triplets,
    make_drop_plan,
    split_train_test,
)
from .explain import Explanation, linear_explain
from .metafeatures import (
    MetafeatureModel,
    assign_exclusive,
    build_nmf_metafeatures,
    load_domain_categories,
    nmf_fit,
)
from .models import (
    ConvergenceError,
    LinearModel,
    ThresholdSpec,
    auc,
    grid_search_cv,
    pearson,
    predict_scores,
    quantile_threshold,
    train_logreg_l2,
)
from .simulate import (
    ProtectionCurve,
    TradeoffRow,
    run_protection_experiment,
    tradeoff_report,
)
from .spillover import SpilloverReport, SpilloverRow, run_spillover_experiment
from .synth import SynthConfig, generate, write_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
