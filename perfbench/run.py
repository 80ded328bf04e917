#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the footcloak CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from `src/`. Each
workload prepares its inputs from the seed, then runs its CLI commands one
at a time, each as a child process (a closed loop with one client), again
and again until S seconds have passed. Every command's exit code and
outputs are checked. The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` (commands) and `metrics`.

--trace 0 reports the end-to-end metrics: medians over the repetitions,
untraced. --trace 1 runs the sequence once untraced, then once more with
every command run in-process through `footcloak.cli.main` under the span
recorder of spanrec.py, checks that both runs wrote identical bytes, and
reports the per-layer metrics derived from the spans.

Metric names and units come from BENCHMARK.json; DESIGN.md says why each
workload exists and which end-to-end metric each layer metric should move.
Work files go to .bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import spanrec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 3
MIN_REPS = 2  # repetitions of the timed sequence, however long one takes
DEADLINE_S = 170.0  # a run ends by then; a command still running is killed
MAX_SELF_TIME_GAP = 0.05
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)

SHARED = ("--labels", "../data/labels.csv", "--footprints", "../data/footprints.csv")


@dataclass(frozen=True)
class Workload:
    # set-up command writing the dataset the timed commands read, or None
    # when the timed commands make their own (then set-up is a start check)
    synth: tuple[str, ...] | None
    timed: tuple[tuple[str, ...], ...]


# Sizes keep one repetition under 15 s on 2 cores, so a run of two
# repetitions plus its set-up ends in about 35 s.
# NMF is capped at 30 iterations (the default tolerance is never reached by
# then at these sizes), so its work does not depend on the seed.
WORKLOADS = {
    "report-2000u": Workload(
        synth=("synth", "--users", "2000", "--items", "5000", "--out", "data"),
        timed=(
            (
                "report", *SHARED,
                "--domain-mapping", "../data/domain_categories.csv",
                "--tasks", "task_a",
                "--strategies", "fg,mf,fg-tol,domain",
                "--nmf-max-iters", "30",
                "--out", "out-report",
            ),
        ),
    ),
    "spillover-1500u": Workload(
        synth=("synth", "--users", "1500", "--items", "3750", "--out", "data"),
        timed=(
            (
                "spillover", *SHARED,
                "--task", "task_a",
                "--traits", "trait_a,trait_b,trait_c,trait_d,trait_e",
                "--population", "all-test",
                "--nmf-max-iters", "30",
                "--out", "out-spillover",
            ),
        ),
    ),
    "chain-2000u": Workload(
        synth=None,
        timed=(
            ("synth", "--users", "2000", "--items", "5000", "--out", "data"),
            (
                "train", "--footprints", "data/footprints.csv", "--labels", "data/labels.csv",
                "--task", "task_a", "--out", "out-train",
            ),
            (
                "simulate", "--footprints", "data/footprints.csv", "--labels", "data/labels.csv",
                "--task", "task_a", "--strategy", "fg", "--out", "out-simulate",
            ),
        ),
    ),
}


class SetupFailed(Exception):
    pass


def _kill(pid: int):
    """Kill a command that ran out of time; os.wait4 below reaps it."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Result:
    args: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    facts: dict = field(default_factory=dict)
    digest: dict = field(default_factory=dict)


class Harness:
    """Runs CLI commands as child processes, checks them, counts failures."""

    def __init__(self, seed: int, run_dir: Path, t0: float):
        self.seed = seed
        self.run_dir = run_dir
        self.t0 = t0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        env = dict(os.environ)  # thread settings are recorded, never set
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def run(self, args, cwd: Path, spans: Path | None = None) -> Result:
        """Run one command in cwd; with `spans`, in-process under the tracer."""
        argv = list(args) if args[0] == "--version" else [*args, "--seed", str(self.seed)]
        if spans is None:
            prefix = [sys.executable, "-m", "footcloak.cli"]
        else:
            prefix = [sys.executable, str(BENCH / "traced.py"), str(spans)]
        timeout = DEADLINE_S - (perf_counter() - self.t0)
        if timeout <= 0:
            raise SetupFailed("out of time before " + args[0])
        cwd.mkdir(parents=True, exist_ok=True)
        log = self.run_dir / f"log-{self.attempted:03d}-{args[0].lstrip('-')}.txt"
        self.attempted += 1
        with open(log, "wb") as fh:
            start = perf_counter()
            proc = subprocess.Popen(prefix + argv, cwd=cwd, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, _kill, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(errors="replace")
        result = Result(
            tuple(args),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # kB on Linux
            ok=False,
        )
        try:
            checks.require(proc.returncode == 0, f"exit code {proc.returncode}: {text[-400:]!r}")
            result.facts = checks.check_command(argv, cwd, text, self.seed)
            out = checks.option(argv, "--out")
            result.digest = checks.digest_tree(cwd / out) if out else {}
            result.ok = True
        except (checks.CheckError, LookupError, TypeError, ValueError) as exc:
            self.fail(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        return result

    def sequence(self, w: Workload, cwd: Path, spans_dir: Path | None = None) -> list[Result]:
        results = []
        for i, args in enumerate(w.timed):
            spans = spans_dir / f"cmd{i}.json" if spans_dir else None
            results.append(self.run(args, cwd, spans))
            if not results[-1].ok:
                break
        return results

    def same_bytes(self, what: str, got: list[Result], want: list[Result]):
        for g, w in zip(got, want):
            if g.ok and w.ok and g.digest != w.digest:
                differ = sorted(k for k in set(g.digest) | set(w.digest) if g.digest.get(k) != w.digest.get(k))
                self.fail(f"{what}: {g.args[0]} wrote different bytes: {', '.join(differ)}")


def setup(h: Harness, w: Workload, cwd: Path, repeats: int) -> list[Result]:
    args = w.synth or ("--version",)
    results = []
    for _ in range(repeats):
        results.append(h.run(args, cwd))
        if not results[-1].ok:
            raise SetupFailed("; ".join(h.errors))
    h.same_bytes("set-up repeat", results[1:], results[:1] * len(results))
    return results


def untraced_run(h: Harness, w: Workload, seconds: float):
    """Set up, then repeat the timed sequence for `seconds` (at least
    MIN_REPS times); returns the set-up and repetition samples."""
    setups = setup(h, w, h.run_dir, SETUP_REPEATS)
    iters: list[list[Result]] = []
    loop_t0 = perf_counter()
    while True:
        cwd = h.run_dir / f"it{len(iters)}"
        res = h.sequence(w, cwd)
        if iters:
            h.same_bytes(f"repetition {len(iters)}", res, iters[0])
        iters.append(res)
        shutil.rmtree(cwd)
        last = sum(r.wall_s for r in res)
        if not all(r.ok for r in res) or len(res) < len(w.timed):
            break
        if len(iters) >= MIN_REPS and perf_counter() - loop_t0 >= seconds:
            break
        if perf_counter() - h.t0 + last > DEADLINE_S - 10:
            break
    return setups, iters


def traced_run(h: Harness, w: Workload):
    """One untraced and one traced pass.

    Returns the untraced set-up and timed results, the traced timed
    results, and the span files of every traced command.
    """
    u, t = h.run_dir / "u", h.run_dir / "t"
    spans_dir = h.run_dir / "spans"
    spans_dir.mkdir()
    untraced_setup, traced_setup = [], []
    if w.synth:
        untraced_setup = setup(h, w, u, 1)
        traced_setup = [h.run(w.synth, t, spans_dir / "setup.json")]
        h.same_bytes("traced set-up", traced_setup, untraced_setup)
        if not traced_setup[0].ok:
            raise SetupFailed("; ".join(h.errors))
    untraced = h.sequence(w, u / "it0")
    traced = h.sequence(w, t / "it0", spans_dir)
    h.same_bytes("traced run", traced, untraced)
    files = ([spans_dir / "setup.json"] if traced_setup else []) + [
        spans_dir / f"cmd{i}.json" for i in range(len(traced))
    ]
    return untraced_setup, untraced, traced, files


# ---------------------------------------------------------------------------
# metadata and output


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{dep['name']} {dep['version']}"
    except (AttributeError, KeyError):
        vendor = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, fn):
                threads = int(getattr(lib, fn)())
                break
    return {"vendor": vendor, "threads": threads}


def run_metadata(workload: str, seed: int, trace: int, facts: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "footprint_lines": facts.get("synth.footprint_lines"),
        "nnz": facts.get("synth.nnz"),
    }


def _median_line(name, values, unit):
    return (
        f"{name:<14} {statistics.median(values):10.4f} {unit:<6} "
        f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"
    )


def end_to_end(setups, iters, w: Workload) -> tuple[dict, list[str]]:
    full = [it for it in iters if len(it) == len(w.timed)] or iters
    run_s = [sum(r.wall_s for r in it) for it in full]
    cpu_s = [sum(r.cpu_s for r in it) for it in full]
    rss = [max(r.rss_mb for r in it) for it in full]
    setup_s = [r.wall_s for r in setups]
    values = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "cpu_s": statistics.median(cpu_s),
        "peak_rss_mb": statistics.median(rss),
    }
    lines = [
        _median_line("setup_s", setup_s, "s"),
        _median_line("run_s", run_s, "s"),
        _median_line("cpu_s", cpu_s, "s"),
        _median_line("peak_rss_mb", rss, "MB"),
    ]
    if len(w.timed) > 1:  # per-command wall times of a chain
        for i, args in enumerate(w.timed):
            walls = [it[i].wall_s for it in full if len(it) > i]
            lines.append(_median_line(f"{args[0]}_s", walls, "s"))
    return values, lines


def main() -> int:
    t0 = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's result values as the reference (default seed 0 only)",
    )
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.record_reference and args.seed != 0:
        ap.error("--record-reference needs --seed 0")
    if not (ROOT / "src" / "footcloak" / "cli.py").is_file():
        print(f"footcloak sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    h = Harness(args.seed, run_dir, t0)
    summary: dict = {}
    try:
        if args.trace:
            untraced_setup, untraced, traced, span_files = traced_run(h, w)
            commands = [json.loads(p.read_text()) for p in span_files if p.is_file()]
            for cmd in commands:
                gap = spanrec.self_time_gap(cmd)
                if gap > MAX_SELF_TIME_GAP:
                    h.fail(f"{cmd['argv'][0]}: self times miss the wall time by {gap:.1%}")
            overhead = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
            values = spanrec.layer_metrics(commands, overhead)
            listed = spec["per_layer"]
            lines = [f"{k:<44} {v:.6g}" for k, v in values.items()]
            facts_runs = [untraced_setup, untraced]
            summary["spans"] = commands
        else:
            setups, iters = untraced_run(h, w, args.seconds)
            values, lines = end_to_end(setups, iters, w)
            listed = spec["end_to_end"]
            facts_runs = [setups[:1], iters[0]]
            summary["samples"] = [[r.__dict__ for r in it] for it in [setups, *iters]]
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    facts = {k: v for run in facts_runs for r in run for k, v in r.facts.items()}
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.record_reference:
        reference[args.workload] = facts
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    elif args.seed == 0 and h.failed == 0:
        errors = checks.compare_reference(facts, reference.get(args.workload, {}))
        if errors or args.workload not in reference:
            h.fail("reference: " + ("; ".join(errors) or f"none recorded for {args.workload}"))

    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(values):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    meta = run_metadata(args.workload, args.seed, args.trace, facts)
    summary.update(meta=meta, metrics=values, errors=h.errors)
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary))

    print(f"footcloak benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    print(f"{'ops_total':<14} {h.attempted:10d} count")
    print(f"{'ops_failed':<14} {h.failed:10d} count")
    for err in h.errors:
        print(f"FAILED {err}")
    result = {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
