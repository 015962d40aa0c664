"""The differential cache-consistency property (ISSUE acceptance
criterion).

Two mediators run over **one shared database**: one with the full
multi-level cache (plan / pushed-SQL / navigation), one stone cold.
For random interleavings of queries, DML (INSERT / UPDATE / DELETE),
and ``define_view`` redefinitions, the two must be observationally
identical at every step — byte-identical serialized answers (labels
and values; oids are surrogates and legitimately differ) and identical
lazy navigation transcripts, for full walks and for partial prefix
walks alike.  A cached answer must also never carry a ``<mix:error>``
stub: nothing degraded is ever served from cache.

``MIX_CACHE_SEED`` (the CI cache-consistency matrix variable) rotates
the operation mix, so the three CI seeds exercise different
interleavings; every test must pass for any seed.
"""

from __future__ import annotations

import os

import re

from hypothesis import given, settings, strategies as st

from repro import Database, Mediator, RelationalWrapper, render_plan
from repro.obs import Instrument
from repro.resilience import ERROR_LABEL
from repro.xmltree import serialize

#: The CI matrix seed (three fixed seeds in .github/workflows/ci.yml).
CACHE_SEED = int(os.environ.get("MIX_CACHE_SEED", "0"))

QUERIES = [
    """
    FOR $C IN document(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data()
    RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> </CustRec>
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

VIEW_DEFS = [
    """
    FOR $O IN document(root2)/order
    WHERE $O/value/data() > 20000
    RETURN <Rec> $O </Rec>
    """,
    "FOR $O IN document(root2)/order RETURN <Rec> $O </Rec>",
    "FOR $C IN document(root1)/customer RETURN <Rec> $C </Rec>",
]


def fresh_pair():
    """One shared database; a caching and a cold mediator over it.

    Each mediator gets its *own* wrapper (and so its own SQL result
    cache), mirroring two mediator processes over one backend.
    """
    db = Database("shared", stats=Instrument())
    db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
           " PRIMARY KEY (id))")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    db.run("INSERT INTO customer VALUES"
           " ('XYZ', 'XYZInc.', 'LosAngeles'),"
           " ('DEF', 'DEFCorp.', 'NewYork'),"
           " ('ABC', 'ABCInc.', 'SanDiego')")
    db.run("INSERT INTO orders VALUES"
           " (28904, 'XYZ', 2400), (87456, 'ABC', 200000),"
           " (111, 'XYZ', 100), (222, 'DEF', 30000)")

    def wrap():
        return (
            RelationalWrapper(db)
            .register_document("root1", "customer")
            .register_document("root2", "orders", element_label="order")
        )

    # strict=True: every compiled plan (cold and cached alike) passes
    # the static verifier; warm hits reuse the cached verification.
    cached = Mediator(
        stats=Instrument(), cache=True, strict=True
    ).add_source(wrap())
    cold = Mediator(stats=Instrument(), strict=True).add_source(wrap())
    for mediator in (cached, cold):
        mediator.define_view("vw", VIEW_DEFS[0])
    return db, cached, cold


#: Shapes whose literals the differential below draws: a filter, a
#: filtered join, a query through the view, and refinements issued from
#: the root and from the first node of the answers.
SHAPES = [
    "FOR $O IN document(root2)/order WHERE $O/value/data() > {} "
    "RETURN <Big> $O </Big>",
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() AND $O/value/data() < {} "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} </CustRec> {{$C}}",
    "FOR $R IN document(vw)/Rec $S IN $R/order "
    "WHERE $S/value/data() > {} AND $S/orid/data() != {} RETURN $R",
    "FOR $C IN document(root1)/customer WHERE $C/id/data() = {} RETURN $C",
]
ROOT_REFINES = [
    "FOR $R IN document(root)/Big $S IN $R/order "
    "WHERE $S/value/data() > {} RETURN $R",
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > {} RETURN $R",
    "FOR $R IN document(root)/Rec $S IN $R/order "
    "WHERE $S/value/data() < {} RETURN $S",
    "FOR $C IN document(root)/customer WHERE $C/name/data() != {} "
    "RETURN $C",
]
NODE_REFINE = (
    "FOR $O IN document(root)/OrderInfo "
    "WHERE $O/order/value/data() > {} RETURN $O"
)
LITERALS = st.one_of(
    st.sampled_from([0, 100, 2400, 20000, 30000, 200000]),
    st.integers(-5, 300000),
    st.sampled_from([2400.0, 0.5, 99999.5]),
    st.sampled_from(["XYZ", "ABC", "a  b", "it's", "?0"]),
)


def spelled(literal):
    """A literal as query text."""
    return '"{}"'.format(literal) if isinstance(literal, str) else literal


def compiled(handle, mediator):
    """The bound plans behind an answer (pushed SQL included) and the
    compile's rewrite provenance; the root's view number blanked, as
    every inline compile takes a fresh one."""
    return (
        re.sub(r"view\d+", "view", render_plan(handle.view.exec_plan())),
        re.sub(r"view\d+", "view", render_plan(handle.view.compose_plan())),
        mediator.last_rewrite_rules,
    )


def transcript(handle, budget=None):
    """The lazy navigation transcript of a result: ``(depth, label)``
    per d/r landing, depth-first, optionally stopping after ``budget``
    landings (a *partial* walk)."""
    out = []
    remaining = [budget if budget is not None else float("inf")]

    def rec(node, depth):
        while node is not None and remaining[0] > 0:
            remaining[0] -= 1
            out.append((depth, str(node.fl())))
            rec(node.d(), depth + 1)
            if remaining[0] <= 0:
                return
            node = node.r()

    rec(handle.d(), 0)
    return out


operations = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1),
                  st.sampled_from([None, 1, 3, 7])),
        st.tuples(st.just("insert_order"),
                  st.sampled_from(["XYZ", "ABC", "DEF", "GHI"]),
                  st.integers(0, 300000)),
        st.tuples(st.just("insert_customer"), st.just(None), st.just(None)),
        st.tuples(st.just("update_orders"),
                  st.sampled_from(["XYZ", "ABC", "DEF"]),
                  st.integers(0, 300000)),
        st.tuples(st.just("delete_orders"), st.just(None),
                  st.integers(0, 300000)),
        st.tuples(st.just("redefine_view"),
                  st.integers(0, len(VIEW_DEFS) - 1), st.just(None)),
    ),
    min_size=1,
    max_size=12,
)


@given(operations)
@settings(max_examples=30, deadline=None)
def test_cached_and_cold_mediators_agree_at_every_step(ops):
    db, cached, cold = fresh_pair()
    next_orid = 100000
    next_cust = 0
    for step, (kind, a, b) in enumerate(ops):
        if kind == "query":
            index = (a + CACHE_SEED) % len(QUERIES)
            query = QUERIES[index]
            budget = b
            warm = cached.query(query)
            ref = cold.query(query)
            assert compiled(warm, cached) == compiled(ref, cold)
            if budget is None:
                warm_tree, ref_tree = warm.to_tree(), ref.to_tree()
                assert serialize(warm_tree) == serialize(ref_tree), (
                    "full answers diverged at step {} (query {})".format(
                        step, index
                    )
                )
                assert ERROR_LABEL not in serialize(warm_tree)
            assert transcript(warm, budget) == transcript(ref, budget), (
                "navigation transcripts diverged at step {} "
                "(query {}, budget {})".format(step, index, budget)
            )
        elif kind == "insert_order":
            value = (b + CACHE_SEED * 97) % 300001
            db.run("INSERT INTO orders VALUES ({}, '{}', {})".format(
                next_orid, a, value))
            next_orid += 1
        elif kind == "insert_customer":
            db.run("INSERT INTO customer VALUES"
                   " ('N{0}', 'NewCo{0}', 'Town{0}')".format(next_cust))
            next_cust += 1
        elif kind == "update_orders":
            value = (b + CACHE_SEED * 31) % 300001
            db.run("UPDATE orders SET value = {} WHERE cid = '{}'".format(
                value, a))
        elif kind == "delete_orders":
            threshold = (b + CACHE_SEED * 13) % 300001
            db.run("DELETE FROM orders WHERE value > {}".format(threshold))
        elif kind == "redefine_view":
            definition = VIEW_DEFS[(a + CACHE_SEED) % len(VIEW_DEFS)]
            for mediator in (cached, cold):
                mediator.define_view("vw", definition)
    # The interleaving really exercised the cache when it queried.
    if any(op[0] == "query" for op in ops):
        stats = cached.cache_stats()
        consulted = (
            stats["plan_cache"]["hits"] + stats["plan_cache"]["misses"]
        )
        assert consulted > 0


@given(st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_repeated_query_storm_stays_consistent(seed):
    """Many repeats of one query with interleaved writes: every answer
    reflects exactly the state at its own step."""
    db, cached, cold = fresh_pair()
    rng_value = (seed * 7919 + CACHE_SEED * 104729) % 250000
    query = QUERIES[2]  # all orders
    for round_number in range(4):
        warm = serialize(cached.query(query).to_tree())
        ref = serialize(cold.query(query).to_tree())
        assert warm == ref
        db.run("INSERT INTO orders VALUES ({}, 'XYZ', {})".format(
            200000 + seed * 10 + round_number, rng_value + round_number))
    assert serialize(cached.query(query).to_tree()) == serialize(
        cold.query(query).to_tree()
    )
    # Four rounds of (query, write): repeats before a write hit, writes
    # invalidate exactly — never a stale answer (checked above), and
    # the memo was genuinely in play.
    assert cached.cache_stats()["nav_memo"]["misses"] >= 1


@given(st.lists(
    st.tuples(st.integers(0, len(SHAPES) - 1), LITERALS, LITERALS, LITERALS),
    min_size=1, max_size=8,
))
@settings(max_examples=25, deadline=None)
def test_bound_plans_are_the_inline_compiles(requests):
    """bind ≡ compile: whatever literals a request carries, the plan the
    caching mediator binds them into — for ``query``, for ``q`` from the
    root and for ``q`` from a node — is the plan ``cache=False``
    compiles from the same text, and so is the answer."""
    __, cached, cold = fresh_pair()
    for index, first, second, third in requests:
        index = (index + CACHE_SEED) % len(SHAPES)
        first, second, third = spelled(first), spelled(second), spelled(third)
        text = SHAPES[index].format(first, second)
        warm, ref = cached.query(text), cold.query(text)
        assert compiled(warm, cached) == compiled(ref, cold), text
        assert serialize(warm.to_tree()) == serialize(ref.to_tree()), text
        refine = ROOT_REFINES[index].format(third)
        warm_q, ref_q = warm.q(refine), ref.q(refine)
        assert compiled(warm_q, cached) == compiled(ref_q, cold), refine
        assert serialize(warm_q.to_tree()) == serialize(ref_q.to_tree())
        if index == 1 and warm.d() is not None:
            refine = NODE_REFINE.format(third)
            warm_q, ref_q = warm.d().q(refine), ref.d().q(refine)
            assert compiled(warm_q, cached) == compiled(ref_q, cold), refine
            assert serialize(warm_q.to_tree()) == serialize(ref_q.to_tree())
    stats = cached.cache_stats()["plan_cache"]
    assert stats["hits"] + stats["misses"] >= 2 * len(requests)
