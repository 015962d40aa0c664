"""Property tests: lazy/eager equivalence, rewrite soundness, composition.

These are the library's load-bearing invariants (DESIGN.md §4):

1. a full navigation walk of the lazy engine equals eager evaluation;
2. rewriting with every rule but join→semijoin preserves exact
   (multiset) results; the full rule set plus SQL push-down preserves
   the set of results, which is the algebra's semantics (join→semijoin
   keeps one record where the naive plan kept one per witness);
3. decontextualized in-place queries equal the same query over the
   materialized subtree.

Every plan an instance generates additionally passes the static plan
verifier (:mod:`repro.analysis`) at each pipeline stage — translation,
each fired rewrite rule, SQL push-down — so a rewrite that breaks the
binding-schema dataflow fails the property with the rule named even
when the differential check happens to still agree.
"""

from hypothesis import given, settings, strategies as st

from repro.relational import Database
from repro.sources import RelationalWrapper, SourceCatalog, XmlFileSource
from repro.algebra.translator import translate_query
from repro.analysis import assert_plan_verifies
from repro.composer import compose_at_root, decontextualize
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import VNode, vnode_to_tree
from repro.rewriter import Rewriter, push_to_sources
from repro.rewriter.rules import DEFAULT_RULES, JoinToSemiJoin
from repro.xmltree import deep_equals, serialize


def verified(plan, catalog=None, stage=None):
    """The plan itself, after the static verifier accepts it."""
    assert_plan_verifies(plan, catalog=catalog, stage=stage)
    return plan


def rewrite_verified(rewriter, plan, catalog=None):
    """Rewrite with a trace, verifying the output of every fired rule."""
    trace = []
    out = rewriter.rewrite(plan, trace=trace)
    for step in trace:
        assert_plan_verifies(
            step.plan, catalog=catalog,
            stage="rewrite[{}]".format(step.rule_name),
        )
    return out


# -- random database instances ----------------------------------------------------

customer_rows = st.lists(
    st.tuples(
        st.integers(0, 12),                       # id (unique-ified below)
        st.sampled_from(["AInc", "BInc", "CInc", "DInc"]),
        st.sampled_from(["LA", "NY", "SD"]),
    ),
    min_size=0,
    max_size=8,
)
order_rows = st.lists(
    st.tuples(
        st.integers(0, 12),                        # cid reference
        st.integers(0, 5000),                      # value
    ),
    min_size=0,
    max_size=14,
)


def make_catalog(customers, orders):
    db = Database("prop")
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
            "INSERT INTO orders VALUES ({}, 'C{}', {})".format(
                i, cid, value
            )
        )
    wrapper = (
        RelationalWrapper(db)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )
    return SourceCatalog().register(wrapper)


# -- random queries over the schema --------------------------------------------------

simple_queries = st.sampled_from(
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

VIEW = (
    "FOR $C IN document(root1)/customer, $O IN document(root2)/order"
    " WHERE $C/id/data() = $O/cid/data()"
    " RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O}"
    " </CustRec> {$C}"
)

root_queries = st.sampled_from(
    [
        "FOR $R IN document(rootv)/CustRec RETURN $R",
        "FOR $R IN document(rootv)/CustRec,"
        " $S IN $R/OrderInfo"
        " WHERE $S/order/value/data() > 1000 RETURN $R",
        "FOR $S IN document(rootv)/CustRec/OrderInfo"
        " WHERE $S/order/value/data() < 2500 RETURN $S",
        "FOR $R IN document(rootv)/CustRec"
        " WHERE $R/customer/addr/data() = 'NY' RETURN $R",
    ]
)

node_queries = st.sampled_from(
    [
        "FOR $O IN document(root)/OrderInfo RETURN $O",
        "FOR $O IN document(root)/OrderInfo"
        " WHERE $O/order/value/data() > 1000 RETURN $O",
        "FOR $N IN document(root)/customer/name RETURN <N> $N </N>",
    ]
)


def canonical(tree):
    """Order-insensitive multiset of serialized children."""
    return sorted(serialize(c) for c in tree.children)


@given(customer_rows, order_rows, simple_queries)
@settings(max_examples=40, deadline=None)
def test_lazy_walk_equals_eager(customers, orders, query):
    plan = verified(
        translate_query(query, root_oid="res"),
        catalog=make_catalog(customers, orders), stage="translate",
    )
    eager_tree = EagerEngine(make_catalog(customers, orders)).evaluate_tree(
        plan
    )
    lazy_root = LazyEngine(make_catalog(customers, orders)).evaluate_tree(
        plan
    )
    assert deep_equals(eager_tree, vnode_to_tree(VNode.root(lazy_root)))


@given(customer_rows, order_rows, simple_queries)
@settings(max_examples=30, deadline=None)
def test_sql_pushdown_preserves_results(customers, orders, query):
    catalog = make_catalog(customers, orders)
    plan = verified(
        translate_query(query, root_oid="res"),
        catalog=catalog, stage="translate",
    )
    # Both planning modes must produce verifiable splits; the cost-based
    # one additionally reorders joins from ANALYZE statistics.
    pushed = verified(
        push_to_sources(plan, catalog), catalog=catalog, stage="sql-split"
    )
    for source in catalog.sources():
        source.analyze()
    cost_pushed = verified(
        push_to_sources(plan, catalog, cost=True),
        catalog=catalog, stage="sql-split",
    )
    eager = EagerEngine(catalog)
    reference = canonical(eager.evaluate_tree(plan))
    assert reference == canonical(eager.evaluate_tree(pushed))
    assert reference == canonical(eager.evaluate_tree(cost_pushed))


@given(customer_rows, order_rows, root_queries)
@settings(max_examples=30, deadline=None)
def test_rewrite_soundness_multiset(customers, orders, query):
    naive = verified(
        compose_at_root(
            translate_query(VIEW, root_oid="rootv"), translate_query(query)
        ),
        stage="translate",
    )
    # Every rule but join→semijoin preserves duplicates, so the naive and
    # rewritten answers agree record for record, not just as sets.
    multiset_rules = [
        rule for rule in DEFAULT_RULES if not isinstance(rule, JoinToSemiJoin)
    ]
    optimized = rewrite_verified(Rewriter(rules=multiset_rules), naive)
    eager = EagerEngine(make_catalog(customers, orders))
    naive_tree = eager.evaluate_tree(naive)
    optimized_tree = eager.evaluate_tree(optimized)
    assert canonical(naive_tree) == canonical(optimized_tree)


@given(customer_rows, order_rows, root_queries)
@settings(max_examples=30, deadline=None)
def test_rewrite_soundness_set(customers, orders, query):
    naive = verified(
        compose_at_root(
            translate_query(VIEW, root_oid="rootv"), translate_query(query)
        ),
        stage="translate",
    )
    catalog = make_catalog(customers, orders)
    optimized = rewrite_verified(Rewriter(), naive, catalog=catalog)
    final = verified(
        push_to_sources(optimized, catalog), catalog=catalog,
        stage="sql-split",
    )
    eager = EagerEngine(catalog)
    naive_set = set(canonical(eager.evaluate_tree(naive)))
    final_set = set(canonical(eager.evaluate_tree(final)))
    assert naive_set == final_set


@given(customer_rows, order_rows, node_queries, st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_decontextualization_equals_materialized_subtree(
    customers, orders, query, index
):
    catalog = make_catalog(customers, orders)
    view = translate_query(VIEW, root_oid="rootv")
    root = VNode.root(LazyEngine(catalog).evaluate_tree(view))
    node = root.down()
    for _ in range(index):
        if node is None:
            break
        node = node.right()
    if node is None:
        return  # fewer results than the index; nothing to test
    composed = verified(
        decontextualize(
            view, node.require_query_root(), translate_query(query)
        ),
        catalog=catalog, stage="decontextualize",
    )
    decon_tree = EagerEngine(catalog).evaluate_tree(composed)

    ref_catalog = SourceCatalog().register_document(
        "root", XmlFileSource().add_tree("root", vnode_to_tree(node))
    )
    ref_tree = EagerEngine(ref_catalog).evaluate_tree(
        translate_query(query)
    )
    assert canonical(decon_tree) == canonical(ref_tree)
