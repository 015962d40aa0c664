"""The block-width differential battery.

One query, five widths: the same mediator pipeline is run at block
sizes {1, 2, 7, 64, 1024} over identical workloads, and every
configuration must be observationally identical to ``block_size=1``
(the seed's execution model, a one-tuple block) *and* to the eager
oracle — ``Mediator(lazy=False, cache=False, block_size=1)``, the
configuration ``mixbench/oracle.py`` uses — which shares no execution
code with the lazy engine, so width 1 is checked against an independent
reference rather than against itself:

* byte-identical serialized answers (labels and values; oids are
  surrogates and legitimately differ),
* identical navigation transcripts — for full walks, for partial
  prefix walks (where prefetching must not change *what* the client
  sees, only how it is fetched), and for the bulk ``walk()`` command,
* equal ``tuples_shipped``: batching changes how rows cross the cursor
  boundary, never how many.

``MIX_BLOCK_SEED`` (the CI block-matrix variable) rotates the workload
shape and the query mix, so the three CI seeds exercise different
join fan-outs and partial-block remainders; every test must pass for
any seed.
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

from repro import Database, Instrument, Mediator, RelationalWrapper
from repro import stats as statnames
from repro.xmltree import serialize

#: The CI matrix seed (fixed seeds in .github/workflows/ci.yml).
BLOCK_SEED = int(os.environ.get("MIX_BLOCK_SEED", "0"))

#: The tested vector widths: tuple mode, a tiny block, a prime that
#: never divides the result sizes (partial final blocks), the default,
#: and one far larger than any result (a single partial block).
BLOCK_SIZES = [1, 2, 7, 64, 1024]

QUERIES = [
    """
    FOR $C IN document(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data()
    RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
    """,
    "FOR $C IN document(root1)/customer RETURN $C",
    "FOR $O IN document(root2)/order RETURN $O",
    """
    FOR $O IN document(root2)/order
    WHERE $O/value/data() > 1000
    RETURN <Big> $O </Big>
    """,
    "FOR $R IN document(vw)/Rec RETURN $R",
]

VIEW_DEF = """
FOR $O IN document(root2)/order
WHERE $O/value/data() > 500
RETURN <Rec> $O </Rec>
"""


def fresh_mediator(block_size, **options):
    """A fresh mediator (own database, own instrument) at ``block_size``.

    The workload shape rotates with ``MIX_BLOCK_SEED`` so different CI
    seeds produce different result cardinalities — and so different
    final-block remainders at every tested width.
    """
    n_customers = 4 + (BLOCK_SEED % 3)
    orders_per = 2 + (BLOCK_SEED % 2)
    stats = Instrument()
    db = Database("diff", stats=stats)
    db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
           " PRIMARY KEY (id))")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    for i in range(n_customers):
        db.run("INSERT INTO customer VALUES"
               " ('C{0}', 'Co{0}', 'Town{0}')".format(i))
    orid = 0
    for i in range(n_customers):
        for j in range(orders_per):
            value = 100 * (orid + 1) + 37 * BLOCK_SEED
            db.run("INSERT INTO orders VALUES ({}, 'C{}', {})".format(
                orid, i, value))
            orid += 1
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    mediator = Mediator(
        stats=stats, block_size=block_size, **options
    ).add_source(wrapper)
    mediator.define_view("vw", VIEW_DEF)
    return stats, mediator


def oracle_mediator():
    """The eager, uncached, width-1 oracle over the same workload."""
    return fresh_mediator(1, lazy=False, cache=False)[1]


def transcript(handle, budget=None, raw=False):
    """``(depth, label)`` per d/r landing, depth-first, optionally
    stopping after ``budget`` landings (a *partial* walk).  Built from
    single-step commands on purpose: it must agree with the bulk
    ``walk()`` reply at every block size.  ``raw=True`` keeps leaf
    labels unstringified, as ``walk()`` (and the seed's server op)
    emits them."""
    out = []
    remaining = [budget if budget is not None else float("inf")]

    def rec(node, depth):
        while node is not None and remaining[0] > 0:
            remaining[0] -= 1
            label = node.fl()
            out.append((depth, label if raw else str(label)))
            rec(node.d(), depth + 1)
            if remaining[0] <= 0:
                return
            node = node.r()

    rec(handle.d(), 0)
    return out


@given(
    st.integers(0, len(QUERIES) - 1),
    st.sampled_from([None, 1, 3, 7, 17]),
)
@settings(max_examples=25, deadline=None)
def test_all_block_sizes_agree_with_tuple_mode(query_index, budget):
    query = QUERIES[(query_index + BLOCK_SEED) % len(QUERIES)]
    ref_stats, ref = fresh_mediator(1)
    ref_root = ref.query(query)
    ref_answer = serialize(ref_root.to_tree())
    ref_shipped = ref_stats.get(statnames.TUPLES_SHIPPED)
    ref_walk = transcript(ref.query(query), budget)
    oracle = oracle_mediator()
    assert ref_answer == serialize(oracle.query(query).to_tree()), (
        "block_size=1 answer diverged from the eager oracle"
    )
    assert ref_walk == transcript(oracle.query(query), budget), (
        "block_size=1 partial walk diverged from the eager oracle"
    )
    for size in BLOCK_SIZES[1:]:
        stats, mediator = fresh_mediator(size)
        root = mediator.query(query)
        assert serialize(root.to_tree()) == ref_answer, (
            "answers diverged at block_size={}".format(size)
        )
        assert stats.get(statnames.TUPLES_SHIPPED) == ref_shipped, (
            "tuples_shipped diverged at block_size={}: {} != {}".format(
                size, stats.get(statnames.TUPLES_SHIPPED), ref_shipped
            )
        )
        assert transcript(mediator.query(query), budget) == ref_walk, (
            "partial-walk transcripts diverged at block_size={} "
            "(budget {})".format(size, budget)
        )
    for size in BLOCK_SIZES:
        # The script once more on one caching mediator: the first run
        # records how far it navigated, and every later evaluation of
        # the shape (the memo dropped in between) starts that wide.
        __, cached = fresh_mediator(size, cache=True)
        for run in range(2):
            assert transcript(cached.query(query), budget) == ref_walk, (
                "run {} of a cached shape diverged at block_size={} "
                "(budget {})".format(run + 1, size, budget)
            )
            cached.cache.nav_memo.clear()
        assert serialize(cached.query(query).to_tree()) == ref_answer, (
            "demand-sized answer diverged at block_size={}".format(size)
        )


@given(st.integers(0, len(QUERIES) - 1),
       st.sampled_from([None, 2, 9]))
@settings(max_examples=15, deadline=None)
def test_bulk_walk_matches_stepwise_transcript(query_index, budget):
    """``walk()`` (bulk ``d_many`` under block mediators, per-hop
    ``d``/``r``/``fl`` in tuple mode) must reproduce the stepwise
    transcript exactly, truncation flag included."""
    query = QUERIES[(query_index + BLOCK_SEED) % len(QUERIES)]
    reference = oracle_mediator().query(query).walk(budget)
    for size in BLOCK_SIZES:
        __, mediator = fresh_mediator(size)
        steps, truncated = mediator.query(query).walk(budget)
        stepwise = [
            list(pair)
            for pair in transcript(mediator.query(query), budget,
                                   raw=True)
        ]
        assert [list(s) for s in steps] == stepwise, (
            "walk() diverged from stepwise navigation at "
            "block_size={}".format(size)
        )
        if budget is not None:
            assert truncated == (len(stepwise) >= budget)
        assert (steps, truncated) == reference, (
            "walk() diverged from the eager oracle at block_size={}"
            .format(size)
        )


@given(st.sampled_from([None, 1, 4]))
@settings(max_examples=10, deadline=None)
def test_query_in_place_agrees_across_block_sizes(budget):
    """``q(query, p)`` — decontextualized re-querying from a navigated
    handle — must see the eager oracle's world at every block size."""
    follow_up = (
        "FOR $P IN document(root)/CustRec"
        " WHERE $P/customer/id/data() = \"C1\" RETURN $P"
    )

    def run(mediator):
        answer = serialize(mediator.query(QUERIES[0]).q(follow_up).to_tree())
        walk = transcript(mediator.query(QUERIES[0]).q(follow_up), budget)
        return answer, walk

    reference = run(oracle_mediator())
    for size in BLOCK_SIZES:
        __, mediator = fresh_mediator(size)
        assert run(mediator) == reference, (
            "q-in-place diverged from the eager oracle at block_size={}"
            .format(size)
        )
        # Twice on one caching mediator, walks first: the second walk
        # and the answer evaluate at the demand the first walk recorded.
        __, cached = fresh_mediator(size, cache=True)
        walks = [
            transcript(cached.query(QUERIES[0]).q(follow_up), budget)
            for __ in range(2)
        ]
        answer = serialize(cached.query(QUERIES[0]).q(follow_up).to_tree())
        assert walks == [reference[1]] * 2 and answer == reference[0], (
            "cached q-in-place diverged from the eager oracle at "
            "block_size={}".format(size)
        )


def test_explain_is_stable_per_block_size():
    """EXPLAIN output is deterministic at every block size, and the
    block footer appears exactly when block execution is on."""
    for size in BLOCK_SIZES:
        __, first = fresh_mediator(size)
        __, second = fresh_mediator(size)
        a = first.explain(QUERIES[0], mask_times=True)
        b = second.explain(QUERIES[0], mask_times=True)
        assert a == b
        if size == 1:
            assert "-- block:" not in a
        else:
            assert "-- block: size={} ".format(size) in a
