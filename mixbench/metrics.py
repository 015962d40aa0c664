"""The metric registry and the arithmetic that fills it.

:data:`END_TO_END` and :data:`PER_LAYER` are the one list of names,
units and directions; ``BENCHMARK.json`` is generated from them (bounds
are written there by ``selfcheck`` only), the run prints them, and the
README tables are their prose.

Scaling: the kernel runs between all sessions; session *i* has factor
``f_i = REF_MS / mean(kernel before, kernel after)`` and every sample
taken inside it is multiplied by ``f_i`` before samples are pooled, so
a median or percentile is taken over times "at reference speed".
Throughputs are medians over slices of ``count / (slice wall * slice
factor)``, the slice factor being ``REF_MS`` over the mean of all the
slice's kernel runs: a ratio of two sums that the host's bursts hit in
proportion to their length, so it holds whatever the bursts look like
(under a hog stealing 30 % of the CPU it moved by at most 4.6 %, the sum
of per-session products by 8 %).

The kernel is timed twice, in wall and in CPU time.  When the host
takes the CPU away in bursts (steal), the kernel's wall time holds its
share of the bursts and its CPU time none.  A session, or an op of
milliseconds, is hit like the kernel, so its wall factor is the right
one; a round trip under :data:`SHORT_OP_S` almost never is, so the
median of such round trips is burst-free and is scaled by the CPU
factor (with a hog stealing 30-40 % of the CPU, ``nav_ms_p50`` read
27 % low with the wall factor and within 5 % with this one).  On a quiet
box the two factors are the same number.
"""

import statistics
from collections import namedtuple

from mixbench.calib import REF_MS

Metric = namedtuple("Metric", "name unit better note")

END_TO_END = (
    Metric("setup_s", "s", "lower",
           "spawn server -> listening -> warm-up slices done; median of "
           "the run's set-ups; oracle excluded"),
    Metric("sessions_per_s", "1/s", "higher",
           "completed sessions per second, one closed-loop client"),
    Metric("session_ms_p50", "ms", "lower", "open -> close latency"),
    Metric("first_result_ms_p50", "ms", "lower",
           "query sent -> reply to the first d"),
    Metric("refine_first_ms_p50", "ms", "lower",
           "in-place q sent -> reply to the first d/bulk op on it"),
    Metric("nav_ms_p50", "ms", "lower",
           "one d/r/fl/fv round trip, first pulls excluded"),
    Metric("bulk_ms_p50", "ms", "lower",
           "a session's children/walk/tree round trips, summed"),
    Metric("nodes_per_s", "1/s", "higher",
           "answer nodes delivered to the client per second"),
    Metric("cpu_ms_per_session", "ms", "lower",
           "server-process utime+stime per session"),
    Metric("peak_rss_mb", "MB", "lower", "server-process VmHWM"),
    Metric("tuples_shipped_per_session", "count", "lower",
           "the paper's metric, from stats-op counter deltas"),
)

#: ``note`` names the end-to-end metric and workload each should move.
PER_LAYER = (
    Metric("server.self_ms_per_session", "ms", "lower",
           "nav_ms_p50, sessions_per_s on bbq_*"),
    Metric("server.decode_us_per_frame", "us", "lower",
           "nav_ms_p50 on bbq_*"),
    Metric("server.encode_us_per_frame", "us", "lower",
           "bulk_ms_p50 on deep_walk, nav_ms_p50 on bbq_*"),
    Metric("server.frames_per_session", "count", "lower",
           "sessions_per_s on bbq_*"),
    Metric("server.reply_bytes_per_session", "B", "lower",
           "bulk_ms_p50 on deep_walk"),
    Metric("server.socket_ms_per_session", "ms", "lower",
           "nav_ms_p50, session_ms_p50 on bbq_* (frames x the nav round "
           "trip's TCP median minus its in-process median)"),
    Metric("server.rejected_per_session", "count", "lower",
           "failed ops everywhere"),
    Metric("qdom.self_ms_per_session", "ms", "lower",
           "nav_ms_p50, bulk_ms_p50 on bbq_*, deep_walk"),
    Metric("qdom.commands_per_session", "count", "lower",
           "bulk_ms_p50 on deep_walk"),
    Metric("qdom.prefetch_hits_per_session", "count", "higher",
           "nav_ms_p50 on bbq_*"),
    Metric("cache.self_ms_per_session", "ms", "lower",
           "first_result_ms_p50 on bbq_*"),
    Metric("cache.plan_hit_ratio", "ratio", "higher",
           "first_result_ms_p50 on bbq_served; 0 on adhoc_compile"),
    Metric("cache.nav_memo_hit_ratio", "ratio", "higher",
           "first_result_ms_p50, tuples_shipped_per_session on bbq_served"),
    Metric("cache.sql_hit_ratio", "ratio", "higher",
           "tuples_shipped_per_session on bbq_*"),
    Metric("cache.invalidations_per_session", "count", "lower",
           "session_ms_p95 on bbq_churn"),
    Metric("cache.evictions_per_session", "count", "lower",
           "cpu_ms_per_session, peak_rss_mb on adhoc_compile"),
    Metric("cache.tuples_from_cache_per_session", "count", "higher",
           "tuples_shipped_per_session on bbq_*"),
    Metric("xquery.parse_ms_per_compile", "ms", "lower",
           "first_result_ms_p50 on adhoc_compile"),
    Metric("algebra.translate_ms_per_compile", "ms", "lower",
           "first_result_ms_p50 on adhoc_compile"),
    Metric("composer.compose_ms_per_refine", "ms", "lower",
           "refine_first_ms_p50 on adhoc_compile, bbq_*"),
    Metric("rewriter.rewrite_ms_per_compile", "ms", "lower",
           "first_result_ms_p50, refine_first_ms_p50 on adhoc_compile"),
    Metric("rewriter.split_ms_per_compile", "ms", "lower",
           "first_result_ms_p50, refine_first_ms_p50 on adhoc_compile"),
    Metric("rewriter.rules_fired_per_compile", "count", "lower",
           "rewriter.rewrite_ms_per_compile"),
    Metric("rewriter.probes_per_compile", "count", "lower",
           "rewriter.rewrite_ms_per_compile"),
    Metric("rewriter.compiles_per_session", "count", "lower",
           "sessions_per_s on adhoc_compile"),
    Metric("engine.self_ms_per_session", "ms", "lower",
           "bulk_ms_p50, nodes_per_s, cpu_ms_per_session on deep_walk; "
           "refine_first_ms_p50 on bbq_*"),
    Metric("engine.operator_tuples_per_session", "count", "lower",
           "cpu_ms_per_session on deep_walk"),
    Metric("engine.elements_built_per_session", "count", "lower",
           "peak_rss_mb, nodes_per_s on deep_walk"),
    Metric("engine.buffered_tuples_per_session", "count", "lower",
           "peak_rss_mb on deep_walk"),
    Metric("sources.self_ms_per_session", "ms", "lower",
           "nodes_per_s on deep_walk"),
    Metric("sources.sql_queries_per_session", "count", "lower",
           "tuples_shipped_per_session everywhere"),
    Metric("sources.tuples_shipped_per_session", "count", "lower",
           "tuples_shipped_per_session everywhere"),
    Metric("sources.blocks_shipped_per_session", "count", "lower",
           "nodes_per_s on deep_walk"),
    Metric("sources.navigations_per_session", "count", "lower",
           "0 everywhere: with push_sql on no workload navigates a source"),
    Metric("relational.self_ms_per_session", "ms", "lower",
           "bulk_ms_p50, nodes_per_s on deep_walk"),
    Metric("relational.exec_ms_per_sql", "ms", "lower",
           "refine_first_ms_p50 on bbq_*"),
    Metric("relational.rows_scanned_per_session", "count", "lower",
           "cpu_ms_per_session on deep_walk"),
    Metric("relational.join_tuples_per_session", "count", "lower",
           "bulk_ms_p50 on deep_walk"),
    Metric("relational.index_lookups_per_session", "count", "higher",
           "relational.rows_scanned_per_session"),
    Metric("relational.dml_ms_per_statement", "ms", "lower",
           "session_ms_p95 on bbq_churn; 0 elsewhere"),
    Metric("xmltree.serialize_ms_per_session", "ms", "lower",
           "bulk_ms_p50 on deep_walk"),
    Metric("xmltree.serialized_bytes_per_session", "B", "lower",
           "bulk_ms_p50 on deep_walk"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "wrapped in-process session time / unwrapped"),
    Metric("trace.unattributed_ms_per_session", "ms", "lower",
           "traced-run time outside every span (the driver's own work)"),
    Metric("bench.speed_factor_p50", "ratio", "higher",
           "median slice factor: 1.0 = the box runs at reference speed"),
    Metric("bench.speed_factor_spread", "ratio", "lower",
           "quartile spread of the slice factors: what calibration removed"),
    Metric("session_ms_p95", "ms", "lower",
           "open -> close latency over the traced run's TCP pass.  Moved "
           "here from the end-to-end list: the tail is the sessions the "
           "host's steal bursts hit, and it rose 10-40 % in the box's slow "
           "hours, which no bound <= 15 % holds"),
)


def percentile(values, q):
    """Nearest-rank ``q``-quantile (0..1) of an unsorted list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


def spread(values):
    """Quartile distance as a share of the median (the driver's test)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def factors(record):
    """``(wall factor, cpu factor)`` of each session of a slice record:
    the reference kernel time over the mean of the two kernel runs
    around the session."""
    marks = record["marks"]
    return [
        (2.0 * REF_MS / (before[0] + after[0]),
         2.0 * REF_MS / (before[1] + after[1]))
        for before, after in zip(marks, marks[1:])
    ]


def slice_factor(record, which=0):
    """One factor for a whole slice (its CPU delta, its span totals)."""
    marks = record["marks"]
    return REF_MS * len(marks) / sum(mark[which] for mark in marks)


#: Round trips shorter than this take the CPU factor (module docstring).
SHORT_OP_S = 1e-3


def _scaled(sample, wall, cpu):
    return sample * (cpu if sample < SHORT_OP_S else wall)


def pooled(records, field):
    """All samples of one timing class, each scaled by its session's
    factor."""
    out = []
    for record in records:
        for turn, (wall, cpu) in zip(record["times"], factors(record)):
            out.extend(_scaled(s, wall, cpu) for s in getattr(turn, field))
    return out


def bulk_sums(records):
    """Each session's bulk round trips as one scaled sum.  Pooling the
    round trips themselves would put the median between two kinds of op
    (a 0.07 ms ``children`` and a 0.3 ms ``tree``) and let it wander."""
    return [
        sum(_scaled(s, wall, cpu) for s in turn.bulk)
        for record in records
        for turn, (wall, cpu) in zip(record["times"], factors(record))
        if turn.bulk
    ]


def slice_walls(records):
    """Scaled seconds each slice's sessions took."""
    return [
        sum(turn.cycle for turn in record["times"]) * slice_factor(record)
        for record in records
    ]


def _middle_mean(values):
    """Mean of the middle half: robust like a median, but averaging
    out the 10 ms tick of ``/proc`` CPU times."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def end_to_end_metrics(records, setup_s, peak_rss_mb, tuples_shipped):
    walls = slice_walls(records)
    counts = [len(r["times"]) for r in records]
    session = pooled(records, "session")
    return {
        "setup_s": setup_s,
        "sessions_per_s": statistics.median(
            n / w for n, w in zip(counts, walls)),
        "session_ms_p50": 1e3 * statistics.median(session),
        "first_result_ms_p50": 1e3 * statistics.median(
            pooled(records, "first")),
        "refine_first_ms_p50": 1e3 * statistics.median(
            pooled(records, "refined")),
        "nav_ms_p50": 1e3 * statistics.median(pooled(records, "nav")),
        "bulk_ms_p50": 1e3 * statistics.median(bulk_sums(records)),
        "nodes_per_s": statistics.median(
            r["nodes"] / w for r, w in zip(records, walls)),
        "cpu_ms_per_session": 1e3 * _middle_mean([
            r["server_cpu_s"] * slice_factor(r, 1) / n
            for r, n in zip(records, counts)
        ]),
        "peak_rss_mb": peak_rss_mb,
        "tuples_shipped_per_session": tuples_shipped / sum(counts),
    }
