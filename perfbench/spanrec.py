"""Outside-in span recorder for the footcloak package.

`install` replaces every public function of the traced modules, every
alias another footcloak module imported by name, `FootprintMatrix.select_users`
and `numpy.linalg.eigh` with a wrapper that records one span per call:
name, start, end, parent span, whether it returned, and a few counts taken
from its arguments or result. Nothing under `src/` is edited; the wrappers
exist only in the process that calls `install`.

`layer_metrics` turns the spans of a workload's traced commands into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# footcloak modules whose public functions are wrapped; the span name is
# "<layer>.<function>", with the layer being the module name without "_"
TRACED_MODULES = (
    "data",
    "models",
    "metafeatures",
    "explain",
    "cloak",
    "simulate",
    "spillover",
    "synth",
    "_kernels",
)

KERNELS = ("row_margins", "scatter_add_rows", "row_component_sums", "component_col_sums")
DIRECTIVES = ("cloak.cloak_fg", "cloak.cloak_mf", "cloak.cloak_tolerance")

# span fields
NAME, START, END, PARENT, OK, INFO = range(6)


def _kernel_work(name):
    """Computed flops and bytes of one kernel call, from its argument shapes.

    Rows are binary CSR: every stored entry touches one weight (row_margins,
    scatter_add_rows) or one k-vector (the component kernels). Bytes count
    the index arrays, the gathered or scattered values and the output once.
    """

    def info(args, kwargs, result):
        indptr, indices, values = args[0], args[1], args[2]
        nnz = int(indices.size)
        n_rows = int(indptr.size) - 1
        if values.ndim == 1:  # weights or row values
            per_entry = 1
        elif name == "component_col_sums":  # W is (n_users, k)
            per_entry = values.shape[1]
        else:  # H is (k, n_items)
            per_entry = values.shape[0]
        flops = nnz * per_entry
        nbytes = indptr.nbytes + indices.nbytes + 8 * nnz * per_entry + result.nbytes
        if name == "row_margins":
            flops += n_rows  # the intercept
        return {"flops": flops, "bytes": nbytes}

    return info


_INFO = {
    "metafeatures.nmf_fit": lambda a, k, r: {"iters": len(r[2])},
    "data.readd": lambda a, k, r: {"rows": r.n_users},
    "data.load_triplets": lambda a, k, r: {"lines": r.nnz},
    "synth.write_dataset": lambda a, k, r: {
        "bytes": sum(os.path.getsize(p) for p in r.values())
    },
    **{d: (lambda a, k, r: {"found": r is not None}) for d in DIRECTIVES},
    **{f"kernels.{n}": _kernel_work(n) for n in KERNELS},
}


class Recorder:
    """Collects spans in memory; one recorder per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span[INFO] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the count, never the call
            return result

        return wrapper


def install(rec: Recorder) -> None:
    """Wrap the traced functions and every alias of them."""
    import numpy as np

    from footcloak import data

    wrappers = {}  # id(original) -> (original, wrapper)
    for short in TRACED_MODULES:
        try:
            mod = importlib.import_module(f"footcloak.{short}")
        except ModuleNotFoundError:  # a module a refactor removed reports zeros
            continue
        layer = short.lstrip("_")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            wrappers[id(obj)] = (obj, rec.wrap(f"{layer}.{attr}", obj))
    eigh = np.linalg.eigh
    wrappers[id(eigh)] = (eigh, rec.wrap("models.eigh", eigh))
    np.linalg.eigh = wrappers[id(eigh)][1]
    data.FootprintMatrix.select_users = rec.wrap(
        "data.select_users", data.FootprintMatrix.select_users
    )

    for modname, mod in list(sys.modules.items()):
        if modname != "footcloak" and not modname.startswith("footcloak."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# metrics from spans


def command_self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _has_ancestor(spans, i, pred):
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(commands: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics over the traced commands of one workload run.

    Each command dict holds `import_s`, `wall_s` (cli.main, measured outside
    the root span) and `spans` (the root span "cli" first).
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    failed = defaultdict(int)
    counts = defaultdict(float)
    coverage = []
    readd_rows = 0
    sim_evals = 0
    for cmd in commands:
        spans = cmd["spans"]
        selfs = command_self_times(spans)
        coverage.append((cmd["wall_s"] - selfs[0]) / cmd["wall_s"])
        for i, s in enumerate(spans):
            name = s[NAME]
            calls[name] += 1
            self_s[name] += selfs[i]
            if not _has_ancestor(spans, i, lambda a: a[NAME] == name):
                incl_s[name] += s[END] - s[START]
            if not s[OK]:
                failed[name] += 1
                continue
            for key, val in (s[INFO] or {}).items():
                counts[f"{name}.{key}"] += val
            if name in DIRECTIVES and not _has_ancestor(
                spans, i, lambda a: a[NAME] in DIRECTIVES
            ):
                calls["cloak.directive"] += 1
                counts["cloak.directive.found"] += int((s[INFO] or {}).get("found", False))
            if name in ("data.readd", "cloak.apply_cloak") and _has_ancestor(
                spans, i, lambda a: a[NAME] == "simulate.run_strategy"
            ):
                if name == "data.readd":
                    readd_rows += (s[INFO] or {}).get("rows", 0)
                else:
                    sim_evals += 1

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "cli.import_s": sum(c["import_s"] for c in commands),
        "cli.self_s": self_s["cli"],
        "synth.generate.self_s": self_s["synth.generate"],
        "synth.write_dataset.self_s": self_s["synth.write_dataset"],
        "synth.write_dataset.mb_per_s": ratio(
            counts["synth.write_dataset.bytes"] / 1e6,
            incl_s["synth.write_dataset"],
        ),
        "data.load_triplets.self_s": self_s["data.load_triplets"],
        "data.load_triplets.lines_per_s": ratio(
            counts["data.load_triplets.lines"], incl_s["data.load_triplets"]
        ),
        "data.load_labels.self_s": self_s["data.load_labels"],
    }
    for fn in ("select_users", "readd", "from_rows"):
        m[f"data.{fn}.calls"] = calls[f"data.{fn}"]
        m[f"data.{fn}.self_s"] = self_s[f"data.{fn}"]
    m["data.apply_drop.self_s"] = self_s["data.apply_drop"]
    fits = calls["models.train_logreg_l2"]
    m.update(
        {
            "models.grid_search_cv.incl_s": incl_s["models.grid_search_cv"],
            "models.train_logreg_l2.calls": fits,
            "models.train_logreg_l2.self_s": self_s["models.train_logreg_l2"],
            "models.train_logreg_l2.failed": failed["models.train_logreg_l2"],
            "models.logreg_value_and_grad.calls": calls["models.logreg_value_and_grad"],
            "models.logreg_evals_per_fit": ratio(
                calls["models.logreg_value_and_grad"], fits
            ),
            "models.predict_scores.calls": calls["models.predict_scores"],
            "models.train_ridge.calls": calls["models.train_ridge"],
            "models.train_ridge.self_s": self_s["models.train_ridge"],
            "models.eigh.calls": calls["models.eigh"],
            "models.eigh.self_s": self_s["models.eigh"],
        }
    )
    iters = counts["metafeatures.nmf_fit.iters"]
    nmf_s = incl_s["metafeatures.nmf_fit"]
    m.update(
        {
            "metafeatures.nmf_fit.calls": calls["metafeatures.nmf_fit"],
            "metafeatures.nmf_fit.incl_s": nmf_s,
            "metafeatures.nmf_fit.iters": iters,
            "metafeatures.nmf_fit.s_per_iter": ratio(nmf_s, iters),
            "metafeatures.load_domain_categories.self_s": self_s["metafeatures.load_domain_categories"],
        }
    )
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.computed_flops"] = counts[f"{name}.flops"]
        m[f"{name}.computed_bytes"] = counts[f"{name}.bytes"]
    m.update(
        {
            "explain.linear_explain.calls": calls["explain.linear_explain"],
            "explain.linear_explain.self_s": self_s["explain.linear_explain"],
            "cloak.directive.calls": calls["cloak.directive"],
            "cloak.directive.found_ratio": ratio(
                counts["cloak.directive.found"], calls["cloak.directive"]
            ),
            "cloak.apply_cloak.calls": calls["cloak.apply_cloak"],
            "cloak.apply_cloak.self_s": self_s["cloak.apply_cloak"],
            "simulate.build_protection_context.incl_s": incl_s["simulate.build_protection_context"],
            "simulate.run_strategy.calls": calls["simulate.run_strategy"],
            "simulate.run_strategy.self_s": self_s["simulate.run_strategy"],
            "simulate.readd_rows_per_eval": ratio(readd_rows, sim_evals),
            "spillover.run_spillover_experiment.self_s": self_s["spillover.run_spillover_experiment"],
            "trace.overhead_s": overhead_s,
            "trace.coverage": min(coverage) if coverage else 0.0,
        }
    )
    return m


def self_time_gap(cmd: dict) -> float:
    """|sum of self times - in-process wall| as a share of the wall."""
    total = sum(command_self_times(cmd["spans"]))
    return abs(total - cmd["wall_s"]) / cmd["wall_s"]
