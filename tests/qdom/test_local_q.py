"""An in-place ``q`` answered from the nodes the session already holds.

When the start node's subtree is fully forced and clean, the catalog's
data fingerprint is the one the answer was produced under, and the
query is a selection of ``document(root)``, the mediator answers from
the held records (:mod:`repro.qdom.local`): no compile, no SQL.  The
answer must be the pushed one byte for byte — the serialized tree and
the oids that ``d``/``children`` return — and every fence must send the
``q`` down the pushed path instead.
"""

from __future__ import annotations

import gc
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import Instrument, Mediator, render_plan
from repro import stats as statnames
from repro.errors import NavigationError
from repro.resilience import FaultInjectingSource, ManualClock
from repro.server import LoopbackClient, MediatorService
from repro.sources import MediatorSource, XmlFileSource
from repro.workloads import CustomersOrdersSpec, build_customers_orders
from repro.xmltree import serialize

from tests.conftest import MIX_SEED, Q1, make_paper_wrapper

JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
BIG_VIEW = ("FOR $O IN document(root2)/order WHERE $O/value/data() > 500 "
            "RETURN <Big> $O </Big>")
ORDERS = "FOR $O IN document(root2)/order RETURN $O"
REFINE = ("FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
          "WHERE $S/order/value/data() > {} RETURN $R")

#: ``(view, selections at its root, selections at its first record)``.
CASES = [
    (JOIN_VIEW, [
        REFINE,
        "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo RETURN $R",
        "FOR $R IN document(root)/CustRec "
        "WHERE $R/OrderInfo/order/value/data() < {} RETURN $R",
        "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
        "WHERE $S/order/orid != 4 AND {} <= $R/OrderInfo/order/value "
        "RETURN $R",
    ], [
        "FOR $X IN document(root)/customer "
        "WHERE $X/id/data() != \"C000001\" RETURN $X",
    ]),
    (BIG_VIEW, [
        "FOR $R IN document(root)/Big $S IN $R/order "
        "WHERE $S/value/data() > {} RETURN $R",
    ], [
        "FOR $X IN document(root)/order WHERE $X/value/data() < {} "
        "RETURN $X",
    ]),
    (ORDERS, [
        "FOR $X IN document(root)/order WHERE $X/value/data() < {} "
        "RETURN $X",
        "FOR $X IN document(root)/order WHERE $X/cid/data() = "
        '"C000002" AND $X/value/data() >= {} RETURN $X',
    ], []),
]

#: Queries outside the fragment, each at the root of a ``JOIN_VIEW``.
OUTSIDE = [
    "FOR $R IN document(root)/CustRec RETURN <X> $R </X>",
    "FOR $R IN document(root)/CustRec $O IN document(root2)/order "
    "WHERE $O/value/data() > 100 RETURN $R",
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $R/customer/id/data() = $S/order/cid/data() RETURN $R",
    "FOR $R IN document(root)/CustRec "
    "WHERE $R/*/order/value/data() > 100 RETURN $R",
]


#: A surrogate oid of the lazy or the eager engine.
_SURROGATE = re.compile(r"^&[Le]\d+$")


def deployment(spec=None, **switches):
    """``(mediator, its database)`` over one customers/orders instance."""
    stats = Instrument()
    built = build_customers_orders(
        spec or CustomersOrdersSpec(n_customers=4, orders_per_customer=3,
                                    value_mode="uniform", tiers=30, seed=7),
        stats=stats,
    )
    return Mediator(stats=stats, **switches).add_source(built.wrapper), \
        built.database


def local_count(mediator):
    return mediator.stats.get(statnames.Q_ANSWERED_LOCALLY)


def read(answer):
    """What a client reads of an answer: the serialized tree, and the
    oid of every node ``children`` reaches, depth first.  Surrogate
    oids (``&L17``) are drawn per evaluation and masked; key and skolem
    oids are compared."""
    oids = []

    def visit(handle):
        for child in handle.children():
            oids.append(_SURROGATE.sub("&_", str(child.oid)))
            visit(child)

    visit(answer)
    return serialize(answer.export_node()), oids


def pushing(mediator):
    """``mediator`` with its held-answer path switched off."""
    mediator._may_hold = lambda *args: False
    return mediator


def refine(mediator, view, text, at_node, walk=True):
    root = mediator.query(view)
    if walk:
        root.walk()
    start = root.d() if at_node else root
    return start.q(text)


@seed(MIX_SEED)
@settings(max_examples=20, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 3)),
    case=st.integers(0, len(CASES) - 1),
    pick=st.integers(0, 3),
    value=st.sampled_from([0, 150, 900, 1800, 5000]),
    at_node=st.booleans(),
    block_size=st.sampled_from([1, 64]),
)
def test_local_answer_is_the_pushed_and_the_oracle_answer(
        shape, case, pick, value, at_node, block_size):
    view, at_root, at_record = CASES[case]
    texts = at_record if at_node else at_root
    if not texts:
        at_node, texts = False, at_root
    text = texts[pick % len(texts)].format(value)
    spec = CustomersOrdersSpec(n_customers=shape[0],
                               orders_per_customer=shape[1],
                               value_mode="uniform", tiers=30, seed=7)
    mediator, __ = deployment(spec, block_size=block_size)
    twin = pushing(deployment(spec, block_size=block_size)[0])
    oracle, __ = deployment(spec, lazy=False, block_size=1)
    if at_node and mediator.query(view).d() is None:
        return  # an empty view has no record to stand on
    local = refine(mediator, view, text, at_node)
    assert local_count(mediator) == 1
    pushed = refine(twin, view, text, at_node, walk=False)
    assert local.oid == pushed.oid
    assert read(local) == read(pushed)
    wanted = read(refine(oracle, view, text, at_node, walk=False))
    assert read(local) == wanted


def test_deep_walk_q_compiles_nothing_and_ships_nothing():
    mediator, __ = deployment()
    root = mediator.query(JOIN_VIEW)
    root.walk()
    before = mediator.stats.snapshot()
    refined = root.q(REFINE.format(900))
    after = mediator.stats.snapshot()
    for counter in (statnames.SQL_QUERIES, statnames.TUPLES_SHIPPED,
                    statnames.OPERATOR_TUPLES):
        assert after.get(counter, 0) == before.get(counter, 0)
    assert after.get("time:rewrite") == before.get("time:rewrite")
    assert after[statnames.Q_ANSWERED_LOCALLY] == 1
    span = mediator.last_trace()
    assert (span.name, span.attributes["answer"]) == ("q", "held")
    # Its records are the held nodes themselves.
    held = {id(node.node) for node in root.children()}
    assert all(id(record.node) in held for record in refined.children())


def test_the_view_of_a_local_answer_compiles_on_first_read():
    mediator, __ = deployment()
    twin = pushing(deployment()[0])
    text = REFINE.format(900)
    root = mediator.query(JOIN_VIEW)
    root.walk()
    before = mediator.stats.elapsed("rewrite")
    local = root.q(text)
    assert mediator.stats.elapsed("rewrite") == before
    pushed = refine(twin, JOIN_VIEW, text, False, walk=False)
    assert render_plan(local.view.exec_plan()) == \
        render_plan(pushed.view.exec_plan())
    assert mediator.stats.elapsed("rewrite") > before


@pytest.mark.parametrize("at_node", [False, True])
@pytest.mark.parametrize("further", [
    "FOR $R IN document(root)/CustRec "
    'WHERE $R/customer/id/data() != "C000000" RETURN $R',
    "FOR $O IN document(root)/OrderInfo "
    "WHERE $O/order/value/data() > 900 RETURN $O",
    "FOR $X IN document(root)/customer RETURN $X",
    "FOR $R IN document(root)/CustRec RETURN <Again> $R </Again>",
])
@pytest.mark.parametrize("cache", [False, True])
def test_a_further_q_from_a_local_answer_is_the_pushed_one(at_node,
                                                           further, cache):
    mediator, __ = deployment(cache=cache)
    twin = pushing(deployment(cache=cache)[0])
    text = REFINE.format(150)
    local = refine(mediator, JOIN_VIEW, text, False)
    pushed = refine(twin, JOIN_VIEW, text, False, walk=False)
    assert local_count(mediator) == 1
    if at_node:
        local, pushed = local.d(), pushed.d()
    if at_node == further.startswith("FOR $R"):
        return  # a CustRec has no CustRec children, the root no OrderInfo
    assert read(local.q(further)) == read(pushed.q(further))


# -- the fences ------------------------------------------------------------------


def test_a_write_after_the_walk_sends_the_q_down():
    mediator, db = deployment()
    root = mediator.query(JOIN_VIEW)
    root.walk()
    db.run("UPDATE orders SET value = 99999 WHERE orid = 0")
    refined = root.q(REFINE.format(90000))
    assert local_count(mediator) == 0
    xml = serialize(refined.export_node())
    assert "<value>99999</value>" in xml
    assert xml.count("<CustRec>") == 1


def test_a_degraded_stub_sends_the_q_down():
    stats = Instrument()
    faulty = FaultInjectingSource(
        make_paper_wrapper(stats=stats), clock=ManualClock(), obs=stats,
    ).fail_pull("root2", 1)
    mediator = Mediator(stats=stats, push_sql=False,
                        on_source_error="degrade").add_source(faulty)
    root = mediator.query(ORDERS)
    root.walk()
    assert "mix:error" in serialize(root.export_node())
    text = "FOR $X IN document(root)/order WHERE $X/value/data() > 0 " \
           "RETURN $X"
    root.q(text)
    assert local_count(mediator) == 0
    clean = mediator.query(ORDERS)
    clean.walk()
    clean.q(text)
    assert local_count(mediator) == 1


def test_a_degraded_join_sends_the_q_down():
    # A degrading join drops the stub of a failed order pull silently:
    # the records lose that order and the tree holds no stub.  Only the
    # failure epoch tells, and the q must see the recovered source.
    spec = CustomersOrdersSpec(n_customers=4, orders_per_customer=3,
                               value_mode="uniform", tiers=30, seed=7)
    stats = Instrument()
    faulty = FaultInjectingSource(
        build_customers_orders(spec, stats=stats).wrapper,
        clock=ManualClock(), obs=stats,
    ).fail_pull("root2", 1, kind="permanent")
    mediator = Mediator(stats=stats, push_sql=False,
                        on_source_error="degrade").add_source(faulty)
    twin = pushing(deployment(spec, push_sql=False,
                              on_source_error="degrade")[0])
    root = mediator.query(JOIN_VIEW)
    root.walk()
    assert stats.get(statnames.DEGRADED_RESULTS) > 0
    assert "mix:error" not in serialize(root.export_node())
    assert read(root) != read(twin.query(JOIN_VIEW))
    faulty.fail_pull("root2", 1, times=0)  # the source recovers
    refined = root.q(REFINE.format(0))
    assert local_count(mediator) == 0
    assert read(refined) == \
        read(refine(twin, JOIN_VIEW, REFINE.format(0), False, walk=False))


def test_an_unversioned_document_sends_the_q_down():
    lower = Mediator().add_source(make_paper_wrapper())
    upper = Mediator().add_source(
        MediatorSource(lower).register_view("custview", Q1)
    )
    root = upper.query("FOR $R IN document(custview)/CustRec RETURN $R")
    root.walk()
    refined = root.q("FOR $A IN document(root)/CustRec "
                     'WHERE $A/customer/id/data() != "ABC" RETURN $A')
    assert local_count(upper) == 0
    assert len(refined.children()) == 2


def test_a_half_walked_answer_sends_the_q_down():
    mediator, __ = deployment()
    root = mediator.query(JOIN_VIEW)
    root.walk(budget=5)
    root.q(REFINE.format(0))
    # Every record forced, none of their lists.
    assert len(root.children()) == 4 and root.node.fully_materialized
    root.q(REFINE.format(0))
    assert local_count(mediator) == 0
    root.walk()
    root.q(REFINE.format(0))
    assert local_count(mediator) == 1


def test_a_query_reusing_a_view_variable_is_pushed():
    # The composition renames the view's $C, which the skolem oids of
    # the pushed records name.
    text = 'FOR $C IN document(root)/CustRec WHERE $C/customer/id/data() ' \
           '!= "C000001" RETURN $C'
    mediator, __ = deployment()
    twin = pushing(deployment()[0])
    local = refine(mediator, JOIN_VIEW, text, False)
    assert local_count(mediator) == 0
    assert read(local) == read(refine(twin, JOIN_VIEW, text, False))
    further = "FOR $X IN document(root)/OrderInfo RETURN $X"
    assert read(local.d().q(further)) == \
        read(refine(twin, JOIN_VIEW, text, False).d().q(further))


@pytest.mark.parametrize("path, text", [
    # Constructed records below the root: rule 9 renames their skolems.
    ((0,), "FOR $X IN document(root)/OrderInfo RETURN $X"),
    # A tuple object's fields draw their oids when built.
    ((0, 0), "FOR $X IN document(root)/name RETURN $X"),
])
def test_these_starts_below_the_root_are_pushed(path, text):
    answers = []
    for mediator in (deployment()[0], pushing(deployment()[0])):
        start = mediator.query(JOIN_VIEW)
        start.walk()
        for index in path:
            start = start.children()[index]
        answers.append(read(start.q(text)))
        assert local_count(mediator) == 0
    assert answers[0] == answers[1]


@pytest.mark.parametrize("text", OUTSIDE)
def test_a_query_outside_the_fragment_is_pushed(text):
    mediator, __ = deployment()
    twin = pushing(deployment()[0])
    local = refine(mediator, JOIN_VIEW, text, False)
    assert local_count(mediator) == 0
    assert read(local) == read(refine(twin, JOIN_VIEW, text, False,
                                      walk=False))


@pytest.mark.parametrize("view, text", [
    # A literal on the left, and a leaf reached by its label.
    (JOIN_VIEW, "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
                "WHERE 900 < $S/order/value RETURN $R"),
    (JOIN_VIEW, "FOR $R IN document(root)/CustRec "
                'WHERE $R/customer/name/Name1 = "Name1" RETURN $R'),
    # Elements that atomize to nothing: a tuple object, an element
    # over an element, and one over two.
    (ORDERS, "FOR $X IN document(root)/order WHERE $X/data() = 3 "
             "RETURN $X"),
    (JOIN_VIEW, "FOR $R IN document(root)/CustRec "
                "WHERE $R/OrderInfo != 5 RETURN $R"),
    (BIG_VIEW, "FOR $X IN document(root)/Big WHERE $X/order != 5 "
               "RETURN $X"),
])
def test_atomization_is_the_engines(view, text):
    mediator, __ = deployment()
    local = refine(mediator, view, text, False)
    assert local_count(mediator) == 1
    assert read(local) == read(refine(pushing(deployment()[0]), view, text,
                                      False))


#: A document whose first item has two equal tags.
ITEMS = ("<list><item><tag>a</tag><tag>a</tag><n>1</n></item>"
         "<item><tag>b</tag><n>2</n></item></list>")


@pytest.mark.parametrize("view, text", [
    # Two witnesses inside a source element: once per witness pushed.
    ("FOR $I IN document(items)/item RETURN $I",
     'FOR $A IN document(root)/item WHERE $A/tag/data() = "a" RETURN $A'),
    ("FOR $I IN document(items)/item RETURN <W> $I </W>",
     "FOR $A IN document(root)/W WHERE $A/item/tag/data() = \"a\" "
     "RETURN $A"),
])
def test_several_witnesses_in_a_source_element_are_pushed(view, text):
    answers = []
    for mediator in (Mediator(), pushing(Mediator())):
        mediator.add_source(XmlFileSource().add_text("items", ITEMS))
        answers.append(read(refine(mediator, view, text, False)))
        assert local_count(mediator) == 0
    assert answers[0] == answers[1]
    assert answers[0][0].count("<tag>a</tag><tag>a</tag>") == 2


def test_witnesses_under_two_labels_of_a_record_are_pushed():
    text = ('FOR $R IN document(root)/CustRec WHERE $R/customer/name/data() '
            '!= "x" AND $R/OrderInfo/order/value/data() > 0 RETURN $R')
    mediator, __ = deployment()
    twin = pushing(deployment()[0])
    local = refine(mediator, JOIN_VIEW, text, False)
    assert local_count(mediator) == 0
    assert read(local) == read(refine(twin, JOIN_VIEW, text, False))


@pytest.mark.parametrize("switches", [
    {"lazy": False}, {"optimize": False},
])
def test_the_eager_and_the_naive_mediator_always_push(switches):
    mediator, __ = deployment(**switches)
    refine(mediator, JOIN_VIEW, REFINE.format(0), False)
    assert local_count(mediator) == 0


def test_an_unaddressable_start_node_is_refused_before_any_local_answer():
    mediator, __ = deployment()
    root = mediator.query(JOIN_VIEW)
    root.walk()
    field = root.d().d().d()  # the id field of the first customer
    with pytest.raises(NavigationError):
        field.q("FOR $X IN document(root)/id RETURN $X")
    assert local_count(mediator) == 0


def test_served_stats_show_local_answers():
    mediator, __ = deployment()
    with LoopbackClient(MediatorService(mediator)) as client:
        assert client.call("stats")["counters"][
            statnames.Q_ANSWERED_LOCALLY] == 0
        session = client.call("open")["session"]
        root = client.call("query", session=session, query=JOIN_VIEW)
        client.call("walk", session=session, node=root["node"])
        refined = client.call("q", session=session, node=root["node"],
                              query=REFINE.format(900))
        assert refined["oid"] == "&L1"
        assert client.call("stats")["counters"][
            statnames.Q_ANSWERED_LOCALLY] == 1


def test_a_local_answer_leaves_no_cyclic_garbage():
    mediator, __ = deployment()

    def session(client, threshold):
        sid = client.call("open")["session"]
        root = client.call("query", session=sid, query=JOIN_VIEW)
        client.call("walk", session=sid, node=root["node"])
        refined = client.call("q", session=sid, node=root["node"],
                              query=REFINE.format(threshold))
        client.call("tree", session=sid, node=refined["node"])
        client.call("close", session=sid)

    with LoopbackClient(MediatorService(mediator)) as client:
        session(client, 0)
        gc.collect()
        gc.disable()
        try:
            for threshold in (150, 900, 1800):
                session(client, threshold)
            assert gc.collect() == 0
        finally:
            gc.enable()
    assert local_count(mediator) == 4
