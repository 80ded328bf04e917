#!/usr/bin/env python3
"""Paired A/B benchmark of two trees of footcloak on one workload.

    python3 tools/ab.py --base REV --workload NAME [--pairs 10] [--seed 0] [--seconds 15]

Run from anywhere; the change is this checkout's working tree, and the base
is REV exported with `git worktree add` into .bench_work/ab-base (no
network; the worktree is removed at the end). Each pair runs
`perfbench/run.py --trace 0` once on each tree, each tree's own run.py on
its own sources. The order alternates between pairs (base first, then the
change first, ...: ABBA), so a drift of the machine over time falls on both
trees alike (Kalibera & Jones 2013, "Rigorous Benchmarking in Reasonable
Time"; Georges et al. 2007, "Statistically Rigorous Java Performance
Evaluation").

For each end-to-end metric of BENCHMARK.json it reports both trees' medians
and quartiles, the relative change of the medians, the pairs in which the
change is better, and an exact two-sided sign-test p-value. A metric whose
base quartile spread (Q3 - Q1, relative to the median) exceeds its bound
is unresolved: the runs spread too widely to judge it. Otherwise it is
worse when its median moves the wrong way by more than its bound. The
report goes to BENCH_ab_<workload>.json in the repository root, as strict
JSON. `--base HEAD` on a clean checkout runs identical code on both sides:
the A/A spread.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_TREE = ROOT / ".bench_work" / "ab-base"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _remove_worktree():
    if BASE_TREE.exists():
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(BASE_TREE)],
            capture_output=True,
        )
        shutil.rmtree(BASE_TREE, ignore_errors=True)
    _git("worktree", "prune")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run on a tree: its last output line, parsed."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench/run.py failed in {tree} (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(lines[-1])


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign test of wins against losses, ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, relative change, pair wins, sign test and verdict
    of one metric over paired runs."""
    lower = metric["better"] == "lower"
    med_b, med_c = statistics.median(base), statistics.median(change)
    q_b = _quartiles(base)
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    losses = sum((c > b) if lower else (c < b) for b, c in zip(base, change))
    rel = (med_c - med_b) / med_b if med_b else None
    spread = (q_b[1] - q_b[0]) / med_b if med_b else None
    worse = rel is not None and (rel > metric["bound"] if lower else -rel > metric["bound"])
    if spread is None or spread > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "worse" if worse else "within bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base_median": med_b,
        "base_quartiles": q_b,
        "change_median": med_c,
        "change_quartiles": _quartiles(change),
        "rel_change": rel,
        "base_spread": spread,
        "change_wins": wins,
        "ties": len(base) - wins - losses,
        "sign_test_p": sign_test_p(wins, losses),
        "verdict": verdict,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    _remove_worktree()
    _git("worktree", "add", "--detach", str(BASE_TREE), base_rev)
    trees = {"base": BASE_TREE, "change": ROOT}
    samples: dict[str, list[dict]] = {"base": [], "change": []}
    order = []
    try:
        for i in range(args.pairs):
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            order.append(list(sides))
            for side in sides:
                result = run_once(trees[side], args.workload, args.seed, args.seconds)
                if result["correct"] is not True or result["failed"]:
                    raise RuntimeError(f"pair {i}: the {side} run failed its checks")
                samples[side].append({k: v["value"] for k, v in result["metrics"].items()})
                print(f"pair {i + 1}/{args.pairs} {side}: {samples[side][-1]}", flush=True)
    finally:
        _remove_worktree()

    metrics = {
        m["name"]: summarize(
            m,
            [s[m["name"]] for s in samples["base"]],
            [s[m["name"]] for s in samples["change"]],
        )
        for m in spec["end_to_end"]
    }
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    report = {
        "workload": args.workload,
        "base": base_rev,
        "change": _git("rev-parse", "HEAD") + ("+working-tree" if dirty else ""),
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "order": order,
        "samples": samples,
        "metrics": metrics,
    }
    out = ROOT / f"BENCH_ab_{args.workload}.json"
    out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    for name, m in metrics.items():
        rel = "n/a" if m["rel_change"] is None else f"{m['rel_change']:+.1%}"
        print(
            f"{name:<12} base {m['base_median']:.4g} change {m['change_median']:.4g} "
            f"({rel}), change better in {m['change_wins']}/{args.pairs}, "
            f"p={m['sign_test_p']:.3g}: {m['verdict']}"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
