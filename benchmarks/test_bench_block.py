"""E-BLOCK: block-at-a-time navigation vs the seed's tuple-at-a-time.

The block-execution claim: batching changes *how* an answer crosses the
mediator boundary, never *what* crosses it.  A deep lazy walk — the
client visiting every node of a virtual answer — costs one QDOM command
(plus span, plus engine round trip) per hop in tuple mode; block mode
ships blocks of ``block_size`` bindings per engine pull and walks
already-shipped subtrees client-locally, so the per-node command
overhead amortizes away.

Two workloads:

* a **wide-record scan** (many leaves per shipped tuple — navigation
  dominates), the headline series at block 64 vs 1;
* the paper's **join view** (Fig. 3): engine work per tuple is larger,
  so the amortization buys less.

Every configuration must agree byte-for-byte (serialized answers, walk
transcripts) and ship exactly the same number of tuples.  Wall clock is
printed and recorded, never asserted: ``mixbench``'s ``deep_walk``
workload measures it end to end with repeats and spread.  What is
asserted is the deterministic proxy for the speedup, the QDOM command
count: the tuple-mode walk issues commands per hop, the block-mode walk
per unshipped block.
"""

from __future__ import annotations

import time

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro import stats as statnames
from repro.xmltree import serialize

from benchmarks.conftest import (
    VIEW_QUERY,
    bench_record,
    build_mediator,
    print_series,
)

N_ROWS = 1500
N_COLS = 10
N_CUSTOMERS = 300
ORDERS_PER = 6
BLOCK_SIZES = (1, 4, 16, 64, 256)
HEADLINE_BLOCK = 64
COMMAND_FLOOR = 100        # deterministic: ≥100x fewer QDOM commands
REPEATS = 3

SCAN_QUERY = "FOR $R IN document(root1)/rec RETURN $R"


def build_wide_mediator(block_size):
    """A mediator over one wide table: each shipped tuple becomes a
    ``rec`` element with ``N_COLS + 1`` field subtrees (field element +
    value leaf), so the walk visits ~2*(N_COLS+1)+1 nodes per tuple."""
    stats = Instrument()
    db = Database("bench", stats=stats)
    fields = ", ".join("f{} INT".format(i) for i in range(N_COLS))
    db.run("CREATE TABLE wide (id INT, {}, PRIMARY KEY (id))".format(
        fields))
    for row in range(N_ROWS):
        values = ", ".join(str(row * 31 + i) for i in range(N_COLS))
        db.run("INSERT INTO wide VALUES ({}, {})".format(row, values))
    wrapper = RelationalWrapper(db).register_document(
        "root1", "wide", element_label="rec"
    )
    mediator = Mediator(stats=stats, block_size=block_size).add_source(
        wrapper
    )
    return stats, mediator


def timed_walk(build, query, block_size):
    """Best-of-``REPEATS`` deep walk; returns measurements + counters."""
    best = None
    for _ in range(REPEATS):
        stats, mediator = build(block_size)
        commands_before = stats.get(statnames.QDOM_COMMANDS)
        start = time.perf_counter()
        steps, truncated = mediator.query(query).walk(None)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best["seconds"]:
            best = {
                "seconds": elapsed,
                "steps": steps,
                "truncated": truncated,
                "tuples_shipped": stats.get(statnames.TUPLES_SHIPPED),
                "qdom_commands": (
                    stats.get(statnames.QDOM_COMMANDS) - commands_before
                ),
                "blocks_shipped": stats.get(statnames.BLOCKS_SHIPPED),
            }
    # The serialized answer, from a fresh mediator so materialization
    # does not pollute the timed walk.
    __, mediator = build(block_size)
    best["answer"] = serialize(mediator.query(query).to_tree())
    return best


def _run_series(build, query, label):
    results = {}
    rows = []
    reference = None
    for size in BLOCK_SIZES:
        measured = timed_walk(build, query, size)
        results[size] = measured
        if reference is None:
            reference = measured
        # Observational equivalence at every width.
        assert measured["answer"] == reference["answer"], (
            "answers diverged at block_size={}".format(size)
        )
        assert measured["steps"] == reference["steps"]
        assert (
            measured["tuples_shipped"] == reference["tuples_shipped"]
        ), "tuples_shipped diverged at block_size={}".format(size)
        rows.append((
            size,
            round(measured["seconds"], 4),
            measured["tuples_shipped"],
            measured["qdom_commands"],
            measured["blocks_shipped"],
            round(reference["seconds"] / measured["seconds"], 1),
        ))
    print_series(
        "E-BLOCK: deep lazy walk, {} ({} steps)".format(
            label, len(reference["steps"])
        ),
        ("block size", "wall (s)", "shipped", "commands", "blocks",
         "vs size 1"),
        rows,
    )
    return results


def test_eblock_wide_scan_speedup():
    """The headline series: a deep walk over wide records at every block
    size, with identical observable output and ≥100x fewer QDOM
    commands at block 64 than in tuple mode."""
    results = _run_series(build_wide_mediator, SCAN_QUERY, "wide scan")
    tuple_mode = results[1]
    block = results[HEADLINE_BLOCK]
    bench_record(
        "BLOCK", "wide-scan-deep-walk",
        params={"n_rows": N_ROWS, "n_cols": N_COLS,
                "block_sizes": list(BLOCK_SIZES), "repeats": REPEATS},
        seconds={
            "block_{}".format(s): results[s]["seconds"]
            for s in BLOCK_SIZES
        },
        counters={
            "walk_steps": len(tuple_mode["steps"]),
            "tuples_shipped": tuple_mode["tuples_shipped"],
            "qdom_commands_tuple_mode": tuple_mode["qdom_commands"],
            "qdom_commands_block_{}".format(HEADLINE_BLOCK):
                block["qdom_commands"],
            "blocks_shipped_block_{}".format(HEADLINE_BLOCK):
                block["blocks_shipped"],
        },
    )
    # Deterministic guard (holds in smoke mode too): the walk itself
    # collapses from one command per hop to one per unshipped block.
    assert block["blocks_shipped"] > 0
    assert tuple_mode["qdom_commands"] >= (
        COMMAND_FLOOR * max(block["qdom_commands"], 1)
    ), (
        "block mode still issued {} commands vs {}".format(
            block["qdom_commands"], tuple_mode["qdom_commands"]
        )
    )


def test_eblock_join_view_walk():
    """The paper's join view: same equivalence invariants and command
    guard; the speedup is diluted by per-tuple join/construction
    work."""

    def build(block_size):
        return build_mediator(
            N_CUSTOMERS, ORDERS_PER, block_size=block_size
        )

    results = _run_series(build, VIEW_QUERY, "join view")
    tuple_mode = results[1]
    block = results[HEADLINE_BLOCK]
    bench_record(
        "BLOCK", "join-view-deep-walk",
        params={"n_customers": N_CUSTOMERS, "orders_per": ORDERS_PER,
                "block_sizes": list(BLOCK_SIZES), "repeats": REPEATS},
        seconds={
            "block_{}".format(s): results[s]["seconds"]
            for s in BLOCK_SIZES
        },
        counters={
            "walk_steps": len(tuple_mode["steps"]),
            "tuples_shipped": tuple_mode["tuples_shipped"],
            "qdom_commands_tuple_mode": tuple_mode["qdom_commands"],
            "qdom_commands_block_{}".format(HEADLINE_BLOCK):
                block["qdom_commands"],
        },
    )
    assert tuple_mode["qdom_commands"] >= (
        COMMAND_FLOOR * max(block["qdom_commands"], 1)
    )


def test_eblock_browse_prefix_stays_lazy():
    """Block mode must not turn browsing into bulk export: opening the
    view and visiting a handful of results still ships a bounded prefix
    (prefetch-k, not the whole answer)."""
    stats, mediator = build_mediator(
        N_CUSTOMERS, ORDERS_PER, block_size=HEADLINE_BLOCK
    )
    node = mediator.query(VIEW_QUERY).d()
    seen = 0
    while node is not None and seen < 3:
        seen += 1
        node = node.r()
    shipped = stats.get(statnames.TUPLES_SHIPPED)
    eager_stats, eager = build_mediator(
        N_CUSTOMERS, ORDERS_PER, lazy=False
    )
    eager.query(VIEW_QUERY)
    total = eager_stats.get(statnames.TUPLES_SHIPPED)
    bench_record(
        "BLOCK", "browse-3-prefix",
        params={"block_size": HEADLINE_BLOCK, "browsed": 3},
        counters={"lazy_block_shipped": shipped, "eager_shipped": total},
    )
    # Prefetch-64 at each pipeline level ships O(block) tuples per
    # level, far from the full 1800-tuple join.
    assert shipped <= 8 * HEADLINE_BLOCK
    assert shipped * 2 < total
