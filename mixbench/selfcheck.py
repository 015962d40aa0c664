"""``python -m mixbench selfcheck``: does the benchmark agree with itself?

Runs the suite ``--sets`` times over the same ``--runs`` seeds (the same
code every time), and prints for every workload and end-to-end metric
the set medians, the largest gap between the first set's median and a
later one's (in either direction: two sets that disagree are the
failure, whichever is faster), the quartile spread inside a set, and the
declared bound.  It fails when a gap exceeds half its bound, when a
spread exceeds its bound, when a count differs between two runs of one
seed, or when any run had a failed op.

This is also the only writer of ``BENCHMARK.json`` and
``MANIFEST.json``: ``--write-bounds`` regenerates both from the metric
registry, the workload list and :data:`BOUNDS` after the check has
passed.  The check always covers all workloads at ``run_seconds``, at
least :data:`MIN_SETS` sets of :data:`MIN_RUNS` seeds: there is no
smaller selfcheck to pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from mixbench import OUT_DIR, ROOT, calib
from mixbench.harness import (
    DEFAULT_SECONDS, DEFAULT_SEED, SETUPS, TIMED_SLICES, WARMUP_SLICES,
    sessions_per_slice,
)
from mixbench.metrics import END_TO_END, PER_LAYER, spread
from mixbench.workloads import WORKLOADS

#: Share of the parent's median by which each end-to-end metric may get
#: worse before a change is rejected: the issue's bounds.  Times and
#: rates get 10 %, process start-up 15 %, memory 5 %.  ``EXACT`` counts
#: get a bound below the smallest change they can show: one tuple more
#: per session on the workload that ships most (600) is 0.17 %.
BOUNDS = {
    "setup_s": 0.15,
    "sessions_per_s": 0.10,
    "session_ms_p50": 0.10,
    "first_result_ms_p50": 0.10,
    "refine_first_ms_p50": 0.10,
    "nav_ms_p50": 0.10,
    "bulk_ms_p50": 0.10,
    "nodes_per_s": 0.10,
    "cpu_ms_per_session": 0.10,
    "peak_rss_mb": 0.05,
    "tuples_shipped_per_session": 0.001,
}
#: Counts: the same for every seed, so selfcheck demands equality.
EXACT = ("tuples_shipped_per_session",)
MIN_SETS = 2
MIN_RUNS = 5
#: Both sets use these seeds, so that counts must repeat exactly.
FIRST_SEED = 100

COMMAND = ["python3", "-m", "mixbench", "run"]


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": ["mixbench"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": BOUNDS[m.name]}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def manifest_json():
    """What ``BENCHMARK.json``'s fixed key set has no room for."""
    return {
        "default_seed": DEFAULT_SEED,
        "ref_ms": calib.REF_MS,
        "calib_py_sha256": calib.source_hash(),
        "timed_slices": TIMED_SLICES,
        "warmup_slices": WARMUP_SLICES,
        "setups_per_run": SETUPS,
        "timed_sessions": {
            w.name: TIMED_SLICES * sessions_per_slice(w, DEFAULT_SECONDS)
            for w in WORKLOADS.values()
        },
        "traced_run_command": COMMAND + [
            "--workload", "<name>", "--seed", "<n>",
            "--seconds", str(DEFAULT_SECONDS), "--trace", "1",
        ],
        "per_layer_should_move": {m.name: m.note for m in PER_LAYER},
    }


def run_once(workload, seed):
    """One end-to-end run in a fresh process; its result dict."""
    done = subprocess.run(
        [sys.executable, "-m", "mixbench", "run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(DEFAULT_SECONDS),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    lines = done.stdout.decode("utf-8").strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr.decode("utf-8", "replace"))
        raise SystemExit(
            "selfcheck: run of {} seed {} exited {}".format(
                workload, seed, done.returncode)
        )
    return json.loads(lines[-1])


def worse_by(metric, first, later):
    """How much worse ``later`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (later - first) / first if first else 0.0
    return change if metric.better == "lower" else -change


def main(argv):
    parser = argparse.ArgumentParser(prog="python -m mixbench selfcheck")
    parser.add_argument("--sets", type=int, default=MIN_SETS)
    parser.add_argument("--runs", type=int, default=MIN_RUNS)
    parser.add_argument("--write-bounds", action="store_true")
    args = parser.parse_args(argv)
    if args.sets < MIN_SETS or args.runs < MIN_RUNS:
        parser.error("a check needs --sets >= {} and --runs >= {}".format(
            MIN_SETS, MIN_RUNS))
    values = {}  # (workload, metric) -> one list of values per set
    for index in range(args.sets):
        for run in range(args.runs):
            # Workloads alternate inside a set, so slow minutes of the
            # box are spread over all of them.
            for name in WORKLOADS:
                seed = FIRST_SEED + run
                result = run_once(name, seed)
                if not result["correct"]:
                    raise SystemExit(
                        "selfcheck: {} seed {} had {} failed ops".format(
                            name, seed, result["failed"]))
                for metric, entry in result["metrics"].items():
                    sets = values.setdefault(
                        (name, metric), [[] for _ in range(args.sets)])
                    sets[index].append(entry["value"])
                print("set {} run {} {} done".format(index + 1, run + 1, name),
                      file=sys.stderr, flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "selfcheck.json"), "w") as handle:
        json.dump({"{}/{}".format(*key): sets
                   for key, sets in values.items()}, handle, indent=1)
    failed = []
    print("{:<14} {:<28} {:>12} {:>12} {:>8} {:>8} {:>7}".format(
        "workload", "metric", "median 1", "median last", "gap", "spread",
        "bound"))
    for name in WORKLOADS:
        for metric in END_TO_END:
            sets = values[(name, metric.name)]
            medians = [statistics.median(s) for s in sets]
            gap = max(
                (worse_by(metric, medians[0], later) for later in medians[1:]),
                key=abs,
            )
            within = max(spread(s) for s in sets)
            bound = BOUNDS[metric.name]
            problem = ""
            if metric.name in EXACT and any(s != sets[0] for s in sets):
                problem = "COUNT DIFFERS"
            elif abs(gap) > bound / 2:
                problem = "GAP"
            elif within > bound and metric.name != "setup_s":
                problem = "SPREAD"
            if problem:
                failed.append((name, metric.name))
            elif within > bound / 3:
                # Passes; the contract asks to aim below a third.
                problem = "(spread above a third of the bound)"
            print("{:<14} {:<28} {:>12.4f} {:>12.4f} {:>+7.2%} {:>7.2%} "
                  "{:>6.1%}  {}".format(name, metric.name, medians[0],
                                        medians[-1], gap, within, bound,
                                        problem))
    if failed:
        print("selfcheck FAILED: {}".format(
            ", ".join("{}/{}".format(*pair) for pair in failed)))
        return 1
    print("selfcheck passed: every set-median gap is within half its bound, "
          "every spread within its bound, every count identical")
    if args.write_bounds:
        for path, content in (
            (os.path.join(ROOT, "BENCHMARK.json"), benchmark_json()),
            (os.path.join(ROOT, "mixbench", "MANIFEST.json"),
             manifest_json()),
        ):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(content, handle, indent=2)
                handle.write("\n")
            print("wrote {}".format(path))
    return 0
