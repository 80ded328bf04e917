"""Counterfactual cloaking of sparse behavioral footprints.

Minimal counterfactual explanations tell a user which of their recorded
behaviors drive a sensitive prediction; cloaking removes them. This
package adds metafeature cloaking (remove whole behavior groups and keep
them suppressed), simulates how protection decays as new behaviors
arrive, and measures what cloaking costs other prediction tasks.

The public names load lazily (PEP 562): `import footcloak` loads no
numpy, and `footcloak.X` imports the one submodule that defines X.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "_choices": ("STRATEGY_DOMAIN_MF", "STRATEGY_FG", "STRATEGY_FG_TOL", "STRATEGY_MF"),
    "_util": ("ExperimentConfig",),
    "cloak": ("cloak_entries",),
    "data": (
        "FootprintMatrix",
        "LabelTable",
        "filter_min_activity",
        "from_rows",
        "load_labels",
        "load_triplets",
        "make_drop_plan",
        "split_train_test",
    ),
    "explain": ("Explanation", "linear_explain"),
    "metafeatures": (
        "MetafeatureModel",
        "assign_exclusive",
        "build_nmf_metafeatures",
        "load_domain_categories",
        "nmf_fit",
    ),
    "models": (
        "ConvergenceError",
        "LinearModel",
        "auc",
        "grid_search_cv",
        "pearson",
        "predict_scores",
        "quantile_threshold",
        "train_logreg_l2",
    ),
    "simulate": (
        "ProtectionCurve",
        "TradeoffRow",
        "run_protection_experiment",
        "tradeoff_report",
    ),
    "spillover": ("SpilloverReport", "SpilloverRow", "run_spillover_experiment"),
    "synth": ("SynthConfig", "dataset_files", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
