"""Block-at-a-time execution made visible.

Runs the same deep navigation walk twice — once with one-tuple blocks
(``block_size=1``, the seed's pull order and per-hop navigation) and
once with the default width (``block_size=64``) — and prints what changed
and, more importantly, what did not: the serialized answer and the
tuples shipped are byte-for-byte identical, while the per-hop QDOM
command traffic collapses to one bulk command per unshipped block.

Run:  python examples/block_pipeline.py
"""

import time

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro.xmltree import serialize

N_ROWS = 800
N_COLS = 8

QUERY = "FOR $R IN document(root1)/rec RETURN $R"


def build(stats):
    db = Database("wide", stats=stats)
    fields = ", ".join("f{} INT".format(i) for i in range(N_COLS))
    db.run("CREATE TABLE wide (id INT, {}, PRIMARY KEY (id))".format(
        fields))
    for row in range(N_ROWS):
        values = ", ".join(str(row * 31 + i) for i in range(N_COLS))
        db.run("INSERT INTO wide VALUES ({}, {})".format(row, values))
    return RelationalWrapper(db).register_document(
        "root1", "wide", element_label="rec"
    )


def deep_walk(block_size):
    """Walk every node of the virtual answer; returns the measurements."""
    stats = Instrument()
    mediator = Mediator(stats=stats, block_size=block_size).add_source(
        build(stats)
    )
    commands_before = stats.get("qdom_commands")
    start = time.perf_counter()
    steps, _ = mediator.query(QUERY).walk()
    elapsed = time.perf_counter() - start
    answer = serialize(mediator.query(QUERY).to_tree())
    return {
        "seconds": elapsed,
        "steps": len(steps),
        "answer": answer,
        "shipped": stats.get("tuples_shipped"),
        "commands": stats.get("qdom_commands") - commands_before,
        "blocks": stats.get("blocks_shipped"),
        "prefetch_hits": stats.get("prefetch_hits"),
    }


print("Deep lazy walk over {} rows x {} columns".format(N_ROWS, N_COLS))
print()

tuple_mode = deep_walk(1)
block_mode = deep_walk(64)

header = "{:>14} {:>12} {:>10} {:>10} {:>10} {:>10}".format(
    "mode", "wall (s)", "steps", "shipped", "commands", "blocks")
print(header)
print("-" * len(header))
for label, m in (("width 1", tuple_mode), ("width 64", block_mode)):
    print("{:>14} {:>12.4f} {:>10} {:>10} {:>10} {:>10}".format(
        label, m["seconds"], m["steps"], m["shipped"],
        m["commands"], m["blocks"]))

print()
print("identical answers:      {}".format(
    tuple_mode["answer"] == block_mode["answer"]))
print("identical walk lengths: {}".format(
    tuple_mode["steps"] == block_mode["steps"]))
print("equal tuples shipped:   {}".format(
    tuple_mode["shipped"] == block_mode["shipped"]))
print("speedup:                {:.1f}x".format(
    tuple_mode["seconds"] / block_mode["seconds"]))
print()
print("Block mode ships the same rows in {} blocks and walks shipped"
      .format(block_mode["blocks"]))
print("subtrees client-locally: {} QDOM commands instead of {}."
      .format(block_mode["commands"], tuple_mode["commands"]))
