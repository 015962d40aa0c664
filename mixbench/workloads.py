"""The four workloads: deployments and seeded session scripts.

A script is a list of sessions; a session is a list of :class:`Step`
tuples the driver (and, symbolically, the oracle) executes in order.
Scripts are a pure function of ``(workload, seed, session count)``: the
program under test only ever sees the generated requests.

Seeds change *which* requests are sent and in what order, never how
much work is done.  Every slice is cut into windows of about
:data:`WINDOW` sessions; a window's hot-text ranks (apportioned by zipf
weight), refine classes and, on ``bbq_churn``, the DML batch that opens
it are the same for every seed.  The seed shuffles the windows of a
slice and the sessions inside a window, and jitters literals only inside
ranges that cannot change an answer or a pushed predicate's result
(order values are multiples of 100, churn values end in 50, thresholds
end below 50).  Since a DML batch invalidates everything read before it,
the tuples a window ships depend on its composition alone, so every
count repeats exactly for every seed, and ten runs with ten seeds agree
on times within a few percent.
"""

import random
from collections import namedtuple

#: One request of a session script.
#:
#: ``node``/``save`` name driver registers holding node handles
#: (``("kids", 2)`` addresses the third handle of a ``children`` reply).
#: ``kind`` is the timing class: ``open``/``close`` bracket the session
#: latency, ``query``→``first`` and ``q``→``refined`` bracket the two
#: first-answer latencies, ``nav`` round trips are pooled, ``bulk`` round
#: trips summed per session, ``other`` is timed only as part of its
#: session.  ``canon`` names the answer class of a query text for the
#: oracle's memo: two texts with one ``canon`` must have the same answer.
Step = namedtuple("Step", "op kind node save args canon")


def _step(op, kind, node=None, save=None, canon=None, **args):
    return Step(op, kind, node, save, args, canon)


SCAN_CUSTOMERS = "FOR $C IN document(root1)/customer RETURN $C"
SCAN_ORDERS = "FOR $O IN document(root2)/order RETURN $O"
#: The paper's Fig.-3 view: customers with their orders nested.
JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
_FILTER = (
    "FOR $O IN document(root2)/order WHERE $O/value/data() > {} "
    "RETURN <Big> $O </Big>"
)
_REFINE = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > {} RETURN $R"
)

#: bbq hot texts, hottest first (zipf rank 1..6).
HOT_TEXTS = (
    SCAN_CUSTOMERS,
    SCAN_ORDERS,
    JOIN_VIEW,
    _FILTER.format(100),
    _FILTER.format(300),
    _FILTER.format(400),
)
ZIPF_S = 1.1
REFINE_CLASSES = (100, 200, 300, 400)
#: Values the churn workload rewrites order 0 to: each sits between two
#: ladder rungs, so every one changes which filters and refinements
#: order 0 passes.
CHURN_VALUES = (150, 250, 350)
#: Sessions per window (exactly, when the slice holds a multiple of it,
#: as at ``run_seconds``; one window in a smoke run's one-session
#: slices).  On ``bbq_churn`` every window opens with a DML batch, so
#: every 4th session writes.
WINDOW = 4


class Workload:
    """A deployment plus a script generator."""

    def __init__(self, name, why, customers, orders, cache,
                 sessions_per_ref_s, build_session, churn=False):
        self.name = name
        self.why = why
        self.customers = customers
        self.orders = orders
        self.cache = cache
        #: Sessions per second of ``--seconds``: about what one
        #: closed-loop client completed at reference speed, kernel runs
        #: between sessions included, when the benchmark was defined.  A
        #: frozen constant: it turns ``--seconds`` into a fixed session
        #: count, so a faster program finishes sooner instead of doing
        #: more.
        self.sessions_per_ref_s = sessions_per_ref_s
        self._build_session = build_session
        self.churn = churn

    def script(self, seed, slices, per_slice):
        """``slices`` lists of ``per_slice`` sessions each."""
        rng = random.Random("{}:{}".format(self.name, seed))
        ranks = _apportion(_zipf(len(HOT_TEXTS)), per_slice)
        classes = _apportion([1.0] * len(REFINE_CLASSES), per_slice)
        count = max(1, (per_slice + WINDOW // 2) // WINDOW)
        # Dealt round-robin, so every window gets hot and cold texts and
        # all refine classes; window j always writes the same value.
        windows = [
            (ranks[j::count], classes[j::count],
             CHURN_VALUES[j % len(CHURN_VALUES)] if self.churn else None)
            for j in range(count)
        ]
        out = []
        number = 0
        for _ in range(slices):
            sessions = []
            for texts, refines, value in rng.sample(windows, count):
                texts = rng.sample(texts, len(texts))
                refines = rng.sample(refines, len(refines))
                for rank, cls in zip(texts, refines):
                    sessions.append(
                        self._build_session(rng, number, rank, cls, value)
                    )
                    value = None  # only the window's first session writes
                    number += 1
            out.append(sessions)
        return out


def _zipf(n):
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def _apportion(weights, total):
    """``total`` indexes into ``weights``, each index as often as its
    weight share says (largest remainder), so every slice holds the
    same mix."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(
        range(len(weights)),
        key=lambda i: (counts[i] - weights[i] * scale, i),
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return [i for i, count in enumerate(counts) for _ in range(count)]


def _refine(rng, cls):
    """A refinement whose threshold is jittered inside its class, below
    the churn value of that class."""
    threshold = REFINE_CLASSES[cls] + rng.randrange(50)
    return _REFINE.format(threshold), ("refine", cls)


# -- bbq_served / bbq_churn ---------------------------------------------------------


def _bbq_session(rng, number, rank, cls, value):
    steps = [_step("open", "open")]
    if value is not None:
        # Insert + update + delete: the table keeps its size, every
        # version counter moves, and order 0 takes a new value that the
        # readers after it must see.
        orid = 1000000 + number
        steps.append(_step(
            "sql", "other", canon=("state", value),
            statements=[
                "INSERT INTO orders VALUES ({}, 'C000000', {})".format(
                    orid, 100 + rng.randrange(400)),
                "UPDATE orders SET value = {} WHERE orid = 0".format(value),
                "DELETE FROM orders WHERE orid = {}".format(orid),
            ],
        ))
    steps += [
        _step("query", "query", save="root", canon=("hot", rank),
              query=HOT_TEXTS[rank]),
        _step("d", "first", node="root", save="first"),
    ]
    steps.append(_step("fl", "nav", node="first"))
    steps.append(_step("r", "nav", node="first", save="cur"))
    for _ in range(7):
        steps.append(_step("fl", "nav", node="cur"))
        steps.append(_step("r", "nav", node="cur", save="cur"))
    # First and last child, one leaf-ward hop each: on the scans that
    # reads the key and the last field (the order value churn rewrites)
    # through the memo; on the view and the filters it lands on inner
    # elements, whose fv is None.  Never a hop below a leaf.
    steps.append(_step("children", "bulk", node="first", save="kids"))
    for index in (0, -1):
        steps.append(_step("d", "nav", node=("kids", index), save="leaf"))
        steps.append(_step("fv", "nav", node="leaf"))
    text, canon = _refine(rng, cls)
    steps += [
        _step("query", "other", save="view", canon=("view",),
              query=JOIN_VIEW),
        _step("q", "q", node="view", save="refined", canon=canon,
              query=text),
        _step("d", "refined", node="refined", save="rec"),
        _step("tree", "bulk", node="rec"),
        _step("walk", "bulk", node="rec"),
    ]
    for _ in range(4):
        steps.append(_step("r", "nav", node="rec", save="rec"))
    steps.append(_step("close", "close"))
    return steps


# -- adhoc_compile ------------------------------------------------------------------


def _adhoc_session(rng, number, rank, cls, value):
    # Every literal is unique to the session and always true (orids stay
    # far below it), so no text repeats, nothing is ever served from the
    # plan cache or the memo, and all sessions have one answer.
    base = 1000000 * (1 + rng.randrange(900)) + number
    return [
        _step("open", "open"),
        _step("query", "query", save="root", canon=("join",), query=(
            "FOR $C IN document(root1)/customer "
            "$O IN document(root2)/order "
            "WHERE $C/id/data() = $O/cid/data() "
            "AND $O/orid/data() < {} "
            "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} "
            "</CustRec> {{$C}}".format(base))),
        _step("d", "first", node="root", save="rec"),
        _step("fl", "nav", node="rec"),
        _step("r", "nav", node="rec", save="next"),
        _step("fl", "nav", node="next"),
        _step("q", "q", node="root", save="refined", canon=("rootq",),
              query=(
            "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
            "WHERE $S/order/value/data() > 100 "
            "AND $S/order/orid/data() < {} RETURN $R".format(base + 1))),
        _step("d", "refined", node="refined"),
        _step("query", "other", save="big", canon=("filter",), query=(
            "FOR $O IN document(root2)/order "
            "WHERE $O/value/data() > 100 AND $O/orid/data() < {} "
            "RETURN <Big> $O </Big>".format(base + 2))),
        _step("d", "other", node="big", save="bigrec"),
        _step("children", "bulk", node="bigrec"),
        # From a non-root node: decontextualization, not composition.
        _step("q", "other", node="rec", save="inner", canon=("nodeq",),
              query=(
            "FOR $O IN document(root)/OrderInfo "
            "WHERE $O/order/orid/data() < {} RETURN $O".format(base + 3))),
        _step("d", "other", node="inner"),
        _step("close", "close"),
    ]


# -- deep_walk ----------------------------------------------------------------------


def _deep_session(rng, number, rank, cls, value):
    text, canon = _refine(rng, 2)
    return [
        _step("open", "open"),
        _step("query", "query", save="root", canon=("view",),
              query=JOIN_VIEW),
        _step("d", "first", node="root", save="rec"),
        _step("fl", "nav", node="rec"),
        _step("r", "nav", node="rec", save="rec"),
        _step("fl", "nav", node="rec"),
        _step("walk", "bulk", node="root"),
        _step("q", "q", node="root", save="refined", canon=canon,
              query=text),
        _step("tree", "refined", node="refined"),
        _step("close", "close"),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "bbq_served",
            "ROADMAP's headline session over 200x5 rows, read-only with "
            "caches hot: what is left is the wire, the session layer, the "
            "uncached q compile and the refinement's join pull.",
            200, 5, True, 24.0, _bbq_session,
        ),
        Workload(
            "bbq_churn",
            "The same sessions with a DML batch before every 4th: "
            "invalidation and refill beside reads, and read-your-writes "
            "checked on every reader.",
            200, 5, True, 24.0, _bbq_session, churn=True,
        ),
        Workload(
            "adhoc_compile",
            "Every query text unique, over 8x2 rows: "
            "parse/translate/compose/rewrite/split dominate and the "
            "128-entry LRUs churn.",
            8, 2, True, 36.0, _adhoc_session,
        ),
        Workload(
            "deep_walk",
            "No cache, full walk and tree of a join view over 60x5 rows: "
            "engine, sources, relational executor and serialisation do "
            "the work, compile and wire almost none.",
            60, 5, False, 18.0, _deep_session,
        ),
    )
}
