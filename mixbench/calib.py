"""The speed-calibration kernel.  FROZEN: never edit this file.

The box this benchmark runs on changes speed within tens of
milliseconds (shared cores), which moves every raw time by 10-30 %.
The driver therefore runs this fixed pure-stdlib kernel between all
sessions and scales each session's samples by ``REF_MS / kernel time``,
so they read "at reference speed".

The kernel has two halves, because the interpreter slows down unevenly
under contention.  The first is bulk work inside C loops (sort, join,
split, ``json``), the second is what the mediator's own hot paths look
like: generators, tuple rows, dict-of-list joins, many small
``__slots__`` objects and recursion.  Scaling by their sum tracked the
program better than either alone (run-to-run quartile spread of
``session_ms_p50``: raw 6-12 %, first half 2.1-2.8 %, both 1.1-2.9 %).

``test_mixbench.py`` pins this file's hash to the one recorded in
``MANIFEST.json``: an edit here silently rescales every time metric, so
it must fail a test instead.
"""

import hashlib
import json
import time

#: Kernel wall time at reference speed (this box's median, with the
#: kernel interleaved between sessions, when the benchmark was
#: defined).  A constant, not a measurement.
REF_MS = 7.5


class _Node:
    __slots__ = ("label", "kids")

    def __init__(self, label, kids=()):
        self.label = label
        self.kids = list(kids)


def _scan(index, keys, floor):
    for key in keys:
        for row in index.get(key, ()):
            if row[2] > floor:
                yield key, row


def _count(node):
    return 1 + sum(_count(kid) for kid in node.kids)


def _bulk():
    table = {}
    for i in range(7000):
        key = "k%05d" % (i * 7919 % 2003)
        table[key] = table.get(key, 0) + i
    items = sorted(table.items())
    words = [k + ":" + str(v) for k, v in items]
    text = ",".join(words)
    parts = text.split(",")
    blob = json.dumps({"rows": items[:700], "n": len(parts)})
    acc = len(blob)
    for part in parts:
        acc += len(part)
    doc = json.loads(blob)
    return acc + len(doc["rows"])


def _objects():
    rows = [(i, "C%04d" % (i % 181), (i * 37) % 500) for i in range(1300)]
    index = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    keys = ["C%04d" % i for i in range(181)]
    groups = {}
    for key, row in _scan(index, keys, 100):
        rec = groups.get(key)
        if rec is None:
            rec = groups[key] = _Node("rec", [_Node("id", [_Node(key)])])
        rec.kids.append(_Node(
            "info", [_Node("o", [_Node(str(row[0])), _Node(str(row[2]))])]
        ))
    total = 0
    for rec in groups.values():
        total += _count(rec)
    text = json.dumps([[r.label, len(r.kids)] for r in groups.values()])
    return total + len(json.loads(text))


def kernel():
    return _bulk() + _objects()


def source_hash():
    """sha256 of this file."""
    with open(__file__.replace(".pyc", ".py"), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def measure():
    """Run the kernel once; ``(wall_ms, cpu_ms)``."""
    cpu = time.process_time()
    wall = time.perf_counter()
    kernel()
    return (
        (time.perf_counter() - wall) * 1e3,
        (time.process_time() - cpu) * 1e3,
    )
