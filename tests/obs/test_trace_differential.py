"""The differential harness: lazy vs eager, under full instrumentation.

For every workload query over randomized customer/order instances, the
lazy mediator and the eager mediator must:

1. produce *identical* result trees (navigated via QDOM commands on the
   lazy side, fully materialized on the eager side);
2. issue **no more SQL** on the lazy side than the eager side for a full
   walk — and no more for a *partial* navigation either, which is the
   paper's entire point: navigation-driven evaluation never does more
   source work than full materialization.

Each mediator owns a dedicated :class:`Instrument` shared with its
database, so ``sql_queries`` counts every statement the relational
source actually received (pushed ``rQ`` SQL and wrapper scans alike).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import Database, Mediator, RelationalWrapper
from repro.obs import TRACE_CAPACITY, Instrument
from repro.stats import SQL_QUERIES
from repro.xmltree import deep_equals, serialize

customer_rows = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.sampled_from(["AInc", "BInc", "CInc", "DInc"]),
        st.sampled_from(["LA", "NY", "SD"]),
    ),
    min_size=0,
    max_size=8,
)
order_rows = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.integers(0, 5000),
    ),
    min_size=0,
    max_size=14,
)

workload_queries = st.sampled_from(
    [
        "FOR $C IN document(root1)/customer RETURN $C",
        "FOR $C IN document(root1)/customer RETURN <R> $C </R>",
        "FOR $O IN document(root2)/order"
        " WHERE $O/value/data() > 1000 RETURN $O",
        "FOR $C IN document(root1)/customer"
        " WHERE $C/addr/data() = 'NY' RETURN <R> $C </R> {$C}",
        "FOR $C IN document(root1)/customer, $O IN document(root2)/order"
        " WHERE $C/id/data() = $O/cid/data()"
        " RETURN <Rec> $C <O> $O </O> {$O} </Rec> {$C}",
        "FOR $C IN document(root1)/customer, $O IN document(root2)/order"
        " WHERE $C/id/data() = $O/cid/data()"
        " AND $O/value/data() > 500"
        " RETURN <Rec> $O </Rec> {$O}",
    ]
)


def build_mediator(customers, orders, lazy, trace_capacity=TRACE_CAPACITY):
    """A mediator over a fresh instance, with its own instrument."""
    inst = Instrument(trace_capacity=trace_capacity)
    db = Database("diff", stats=inst)
    db.run(
        "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
        " PRIMARY KEY (id))"
    )
    db.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    seen = set()
    for cid, name, addr in customers:
        key = "C{}".format(cid)
        if key in seen:
            continue
        seen.add(key)
        db.run(
            "INSERT INTO customer VALUES ('{}', '{}', '{}')".format(
                key, name, addr
            )
        )
    for i, (cid, value) in enumerate(orders):
        db.run(
            "INSERT INTO orders VALUES ({}, 'C{}', {})".format(i, cid, value)
        )
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    # strict=True: every plan this harness compiles is additionally
    # checked by the static verifier after each pipeline stage.
    return inst, Mediator(
        stats=inst, lazy=lazy, strict=True
    ).add_source(wrapper)


def canonical(tree):
    return sorted(serialize(c) for c in tree.children)


@given(customer_rows, order_rows, workload_queries)
@settings(max_examples=25, deadline=None)
def test_lazy_and_eager_mediators_agree_and_lazy_queries_less(
    customers, orders, query
):
    lazy_inst, lazy_mediator = build_mediator(customers, orders, lazy=True)
    eager_inst, eager_mediator = build_mediator(customers, orders, lazy=False)

    eager_root = eager_mediator.query(query)
    eager_tree = eager_root.to_tree()
    eager_sql = eager_inst.get(SQL_QUERIES)

    lazy_root = lazy_mediator.query(query)
    lazy_tree = lazy_root.to_tree()  # full walk, navigation-driven

    if not deep_equals(eager_tree, lazy_tree):
        # Set-semantics pushdown may reorder/dedup; the multisets of
        # results must still coincide exactly.
        assert canonical(eager_tree) == canonical(lazy_tree)
    assert lazy_inst.get(SQL_QUERIES) <= eager_sql


@given(customer_rows, order_rows, workload_queries)
@settings(max_examples=15, deadline=None)
def test_partial_navigation_never_exceeds_eager_sql(
    customers, orders, query
):
    """A single ``d`` into the lazy result must cost at most the SQL an
    eager evaluation of the same query pays."""
    eager_inst, eager_mediator = build_mediator(customers, orders, lazy=False)
    eager_mediator.query(query)
    eager_sql = eager_inst.get(SQL_QUERIES)

    lazy_inst, lazy_mediator = build_mediator(customers, orders, lazy=True)
    root = lazy_mediator.query(query)
    root.d()  # force only the first child
    assert lazy_inst.get(SQL_QUERIES) <= eager_sql


@given(customer_rows, order_rows, workload_queries)
@settings(max_examples=10, deadline=None)
def test_lazy_trace_sql_is_subset_of_statements_issued(
    customers, orders, query
):
    """Every SQL string a navigation trace claims was issued must have
    actually reached the database (counted by ``sql_queries``).  The
    ring holds one trace per command of the walk — a ``d`` and an ``r``
    per answer child at most — so every trace is read."""
    inst, mediator = build_mediator(
        customers, orders, lazy=True,
        trace_capacity=len(customers) + len(orders) + 1,
    )
    root = mediator.query(query)
    inst.clear_traces()
    node, commands = root.d(), 1
    while node is not None:
        node, commands = node.r(), commands + 1
    assert len(inst.traces()) == commands
    traced_sql = []
    for trace in inst.traces():
        for sql in trace.sql_statements():
            if sql not in traced_sql:
                traced_sql.append(sql)
    assert len(traced_sql) <= inst.get(SQL_QUERIES)
