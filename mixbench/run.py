"""One benchmark run: ``python -m mixbench run --workload W --seed N``.

An end-to-end run (``--trace 0``) serves the workload from a child
process and drives it over TCP; a traced run (``--trace 1``) is
:func:`mixbench.tracer.run_traced`.  Either prints every metric by name
and unit and ends with the one-line JSON result.
"""

import argparse
import json
import os
import statistics
import sys

from mixbench import OUT_DIR, require_repro
from mixbench.driver import RunAborted
from mixbench.harness import (
    DEFAULT_SECONDS, DEFAULT_SEED, P95_MIN_SESSIONS, SETUPS, Plan,
    quiet_collector, raw_report, run_slices, sessions_per_slice, set_up,
)
from mixbench.metrics import END_TO_END, PER_LAYER, end_to_end_metrics
from mixbench.workloads import WORKLOADS


def run_end_to_end(plan):
    """The timed TCP run; ``(metrics, raw report)``."""
    setups = []
    drivers = []
    with quiet_collector(disable=True):
        for attempt in range(SETUPS):
            server, client, driver, seconds = set_up(plan)
            setups.append(seconds)
            drivers.append(driver)
            if attempt < SETUPS - 1:
                client.close()
                server.stop()
        with server:
            try:
                before = driver.call("stats")
                records = list(
                    run_slices(driver, plan.timed, server.cpu_seconds))
                after = driver.call("stats")
                rows = driver.call(
                    "sql", statements=["SELECT orid FROM orders"])
                peak_rss_mb = server.peak_rss_mb()
            finally:
                client.close()
    workload = plan.workload
    if rows is None or (
        len(rows["results"][0]["rows"]) != workload.customers * workload.orders
    ):
        # Churn inserts and deletes in pairs: the table must end the
        # run at its starting size.
        driver.fail("table-size")
    shipped = 0
    if before and after:
        shipped = (after["counters"].get("tuples_shipped", 0)
                   - before["counters"].get("tuples_shipped", 0))
    metrics = end_to_end_metrics(
        records, statistics.median(setups), peak_rss_mb, shipped
    )
    raw = raw_report(plan, drivers, records)
    raw["setup_s_each"] = setups
    return metrics, raw


def execute(workload, seed, seconds, trace, corrupt=False):
    """Run once; ``(result for the last stdout line, raw report)``."""
    plan = Plan(workload, seed, sessions_per_slice(workload, seconds), corrupt)
    if trace:
        from mixbench.tracer import run_traced

        metrics, raw = run_traced(plan)
        declared = PER_LAYER
    else:
        metrics, raw = run_end_to_end(plan)
        declared = END_TO_END
    raw["seed"] = seed
    raw["metrics"] = metrics
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit}
            for m in declared
        },
    }
    return result, raw


def main(argv):
    parser = argparse.ArgumentParser(prog="python -m mixbench run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="bbq_served")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--inject-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_repro()
    workload = WORKLOADS[args.workload]
    try:
        result, raw = execute(
            workload, args.seed, args.seconds, bool(args.trace),
            corrupt=args.inject_mismatch,
        )
    except RunAborted as exc:
        sys.stderr.write("mixbench: run aborted: {}\n".format(exc))
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    name = ("trace_" if args.trace else "") + workload.name + ".json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    print("workload {}  seed {}  ops attempted {}  failed {}  refused {}"
          .format(workload.name, args.seed, raw["attempted"],
                  raw["failed"], raw["refused"]))
    for name, entry in result["metrics"].items():
        print("  {:<42} {:>14.4f} {}".format(
            name, entry["value"], entry["unit"]))
    for miss in raw["mismatches"]:
        print("  MISMATCH {}".format(json.dumps(miss)))
    if raw.get("p95_sessions", P95_MIN_SESSIONS) < P95_MIN_SESSIONS:
        print("  NOT A P95: session_ms_p95 needs {} sessions, this run "
              "has {}".format(P95_MIN_SESSIONS, raw["p95_sessions"]))
    for name in raw.get("missing_targets", ()):
        print("  ABSENT {}: the entry point is gone, the metrics read from "
              "its spans are 0".format(name))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
