"""Output checks for each footcloak command the benchmark runs.

A command passes when it exited 0, every JSON file it wrote parses as
strict JSON (bare NaN or Infinity is an error), and its rows have the
counts and value ranges the command documents. Each check returns the
key result values ("facts") that the benchmark compares against the
recorded reference on the default seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

# facts on the default seed must match reference.json to this tolerance;
# integers must match exactly
REL_TOL = 1e-6
ABS_TOL = 1e-9

DEFAULT_SCHEDULE_LEN = 11  # cli default: fractions 0.0, 0.1, ..., 1.0


class CheckError(Exception):
    """An output that breaks what the command documents."""


def option(argv, flag, default=None):
    """Value following `flag` in an argument list."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def strict_json(path: Path):
    def reject(token):
        raise CheckError(f"{path.name}: non-standard JSON constant {token}")

    try:
        return json.loads(path.read_text(), parse_constant=reject)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def require(cond, message):
    if not cond:
        raise CheckError(message)


def _in_range(name, value, lo, hi):
    require(
        isinstance(value, (int, float)) and lo <= value <= hi,
        f"{name}={value!r} outside [{lo}, {hi}]",
    )


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    require(lines and lines[0] == header, f"{path.name}: header is not {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _synth(argv, out: Path, log: str) -> dict:
    found = re.search(r"(\d+) users, (\d+) items, (\d+) likes", log)
    require(found, "synth did not report its matrix size")
    users, items, nnz = (int(g) for g in found.groups())
    require(users == int(option(argv, "--users")), f"synth wrote {users} users")
    require(items == int(option(argv, "--items")), f"synth wrote {items} items")
    with open(out / "footprints.csv", "rb") as fh:
        header = fh.readline()
        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    require(header == b"user_id,item_id\n", "footprints.csv header")
    require(nnz > 0 and lines == nnz + 1, f"footprints.csv has {lines} lines for {nnz} likes")
    _csv_rows(out / "labels.csv", "user_id,task_name,value")
    _csv_rows(out / "domain_categories.csv", "item_id,category")
    strict_json(out / "ground_truth.json")
    return {"synth.footprint_lines": lines, "synth.nnz": nnz}


def _train(argv, out: Path, log: str) -> dict:
    strict_json(out / "model.json")
    tm = strict_json(out / "train_metrics.json")
    require(tm["task"] == option(argv, "--task"), "train_metrics task")
    _in_range("auc_test", tm["auc_test"], 0.0, 1.0)
    _in_range("positive_rate_test", tm["positive_rate_test"], 0.0, 1.0)
    _in_range("threshold", tm["threshold"], 0.0, 1.0)
    require(tm["n_train"] > 0 and tm["n_test"] > 0, "empty train or test split")
    return {
        "train.auc_test": tm["auc_test"],
        "train.best_c": tm["best_c"],
        "train.threshold": tm["threshold"],
        "train.n_test": tm["n_test"],
    }


def _simulate(argv, out: Path, log: str) -> dict:
    c = strict_json(out / "protection_curve.json")
    n = DEFAULT_SCHEDULE_LEN
    for key in ("fractions", "protection", "thresholds"):
        require(len(c[key]) == n, f"{key} has {len(c[key])} entries, not {n}")
        for v in c[key]:
            _in_range(key, v, 0.0, 1.0)
    pop = c["population_size"]
    require(pop >= 1 and pop == len(c["population_user_ids"]), f"population {pop}")
    for name, vals in c["group_curves"].items():
        require(len(vals) == n, f"group curve {name} length")
        for v in vals:
            _in_range(f"group {name}", v, 0.0, 1.0)
    rows = _csv_rows(out / "protection_curve.csv", "fraction,protection,group")
    require(len(rows) == n * (1 + len(c["group_curves"])), "protection_curve.csv rows")
    full = c["fractions"].index(1.0)
    return {
        "simulate.population_size": pop,
        "simulate.protection_at_full": c["protection"][full],
        "simulate.threshold_at_full": c["thresholds"][full],
    }


def _report(argv, out: Path, log: str) -> dict:
    tasks = option(argv, "--tasks").split(",")
    strategies = option(argv, "--strategies").split(",")
    rows = strict_json(out / "tradeoff.json")["rows"]
    expected = len(tasks) * len(strategies)
    require(len(rows) == expected, f"{len(rows)} tradeoff rows, not {expected}")
    csv_rows = _csv_rows(
        out / "tradeoff.csv", "task,strategy,avg_cloak_cost,protection_at_full,population_size"
    )
    require(len(csv_rows) == expected, "tradeoff.csv rows")
    facts = {}
    for r, line in zip(rows, csv_rows):
        _in_range("protection_at_full", r["protection_at_full"], 0.0, 1.0)
        _in_range("avg_cloak_cost", r["avg_cloak_cost"], 0.0, 1.0)
        require(r["population_size"] >= 1, "empty population")
        require(
            line == [r["task"], r["strategy"], repr(r["avg_cloak_cost"]),
                     repr(r["protection_at_full"]), str(r["population_size"])],
            f"tradeoff.csv disagrees with tradeoff.json: {line}",
        )
        key = f"report.{r['task']}.{r['strategy']}"
        facts[f"{key}.protection_at_full"] = r["protection_at_full"]
        facts[f"{key}.avg_cloak_cost"] = r["avg_cloak_cost"]
        facts[f"{key}.population_size"] = r["population_size"]
    return facts


def _spillover(argv, out: Path, log: str) -> dict:
    traits = option(argv, "--traits").split(",")
    s = strict_json(out / "spillover.json")
    require(len(s["rows"]) == len(traits), f"{len(s['rows'])} spillover rows, not {len(traits)}")
    pop = s["n_population"]
    facts = {"spillover.n_population": pop}
    for r in s["rows"]:
        require(3 <= r["n"] <= pop, f"trait {r['trait']} evaluated on {r['n']} users")
        for key in ("pearson_none", "pearson_fg", "pearson_mf"):
            _in_range(key, r[key], -1.0, 1.0)
            facts[f"spillover.{r['trait']}.{key}"] = r[key]
    rows = _csv_rows(out / "spillover.csv", "trait,strategy,pearson_r,n")
    require(len(rows) == 3 * len(traits), "spillover.csv rows")
    return facts


_CHECKS = {
    "synth": _synth,
    "train": _train,
    "simulate": _simulate,
    "report": _report,
    "spillover": _spillover,
}


def check_command(argv, cwd: Path, log: str, seed: int) -> dict:
    """Check one finished command's outputs; returns its facts."""
    if argv[0] == "--version":
        require(re.fullmatch(r"\d+\.\d+\S*", log.strip()), f"version output {log!r}")
        return {}
    out = cwd / option(argv, "--out")
    manifest = strict_json(out / "manifest.json")
    require(manifest["command"] == argv[0], "manifest command")
    require(manifest["seed"] == seed, "manifest seed")
    return _CHECKS[argv[0]](argv, out, log)


def digest_tree(path: Path) -> dict[str, str]:
    """sha256 of every file under path, keyed by relative path."""
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def compare_reference(facts: dict, reference: dict) -> list[str]:
    """Differences between facts and the recorded reference values."""
    errors = []
    for key, want in sorted(reference.items()):
        got = facts.get(key)
        if got is None:
            errors.append(f"{key}: missing")
        elif isinstance(want, int) and not isinstance(want, bool):
            if got != want:
                errors.append(f"{key}: {got} != reference {want}")
        elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            errors.append(f"{key}: {got!r} != reference {want!r}")
    return errors
