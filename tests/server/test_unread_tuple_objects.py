"""Bulk reads render tuple and constructed objects from what they hold.

A served ``walk`` and ``tree`` and the navigation memo's poison check
never need a tuple object's field nodes or a constructed element's
child list, so a session made of them builds none
(``TupleObject._build`` and ``ConstructedObject._build`` are counted).
A ``d`` into either does build, and lands on the oid the eager build
would give.
"""

from __future__ import annotations

import pytest

from repro.server import LoopbackClient
from repro.xmltree.tree import ConstructedObject, TupleObject

from tests.server.conftest import make_service

#: The deep_walk benchmark's view and refinement, over the paper data.
JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
REFINE = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > 150 RETURN $R"
)


@pytest.fixture
def builds(monkeypatch):
    """The field nodes built while the test runs."""
    built = []
    original = TupleObject._build

    def counted(self):
        if self.row_fields is not None:
            built.extend(name for name, _ in self.row_fields)
        original(self)

    monkeypatch.setattr(TupleObject, "_build", counted)
    return built


@pytest.fixture
def child_lists(monkeypatch):
    """The labels of the constructed elements whose child list was
    built while the test runs."""
    built = []
    original = ConstructedObject._build

    def counted(self):
        if self.bindings is not None:
            built.append(self.label)
        original(self)

    monkeypatch.setattr(ConstructedObject, "_build", counted)
    return built


def deep_walk_session(client):
    session = client.call("open")["session"]
    root = client.call("query", session=session, query=JOIN_VIEW)["node"]
    record = client.call("d", session=session, node=root)["node"]
    client.call("fl", session=session, node=record)
    record = client.call("r", session=session, node=record)["node"]
    client.call("fl", session=session, node=record)
    steps = client.call("walk", session=session, node=root)["steps"]
    refined = client.call("q", session=session, node=root, query=REFINE)
    xml = client.call("tree", session=session, node=refined["node"])["xml"]
    client.call("close", session=session)
    return steps, xml


@pytest.mark.parametrize("cache", [False, True])
def test_a_deep_walk_session_builds_no_field_node(builds, child_lists,
                                                  cache):
    with LoopbackClient(make_service(cache=cache)) as client:
        steps, xml = deep_walk_session(client)
        again = deep_walk_session(client)
    assert builds == []
    assert child_lists == []
    assert (steps, xml) == again
    assert [2, "id"] in steps and [3, "XYZ"] in steps
    assert "<customer><id>XYZ</id><name>XYZInc.</name>" in xml


def test_a_nav_memo_hit_checks_poison_without_building(builds, child_lists):
    service = make_service(cache=True)
    memo = service.mediator.cache_stats
    with LoopbackClient(service) as client:
        session = client.call("open")["session"]
        for _ in range(3):
            root = client.call(
                "query", session=session, query=JOIN_VIEW)["node"]
            client.call("walk", session=session, node=root)
        client.call("close", session=session)
    assert memo()["nav_memo"]["hits"] == 2
    assert builds == []
    assert child_lists == []


def test_d_into_a_tuple_object_builds_it_with_the_eager_oids(builds):
    with LoopbackClient(make_service(cache=False)) as client:
        session = client.call("open")["session"]
        root = client.call(
            "query", session=session,
            query="FOR $C IN document(root1)/customer RETURN $C")["node"]
        customer = client.call("d", session=session, node=root)
        field = client.call("d", session=session, node=customer["node"])
        value = client.call("d", session=session, node=field["node"])
    assert customer["oid"] == "&XYZ"
    assert builds == ["id", "name", "addr"]
    assert (field["label"], value["label"]) == ("id", "XYZ")
    assert value["oid"] != field["oid"]


@pytest.mark.parametrize("cache", [False, True])
def test_navigation_builds_one_child_list_per_element_entered(child_lists,
                                                              cache):
    with LoopbackClient(make_service(cache=cache)) as client:
        session = client.call("open")["session"]

        def call(op, node):
            return client.call(op, session=session, node=node)

        root = client.call("query", session=session, query=JOIN_VIEW)
        record = call("d", root["node"])
        call("fl", record["node"])
        record = call("r", record["node"])
        assert child_lists == []
        customer = call("d", record["node"])
        assert child_lists == ["CustRec"]
        info = call("r", customer["node"])
        assert call("fl", info["node"])["label"] == "OrderInfo"
        order = call("d", info["node"])
        assert call("fv", order["node"])["value"] is None
        field = call("d", order["node"])
        call("r", field["node"])
        assert child_lists == ["CustRec", "OrderInfo"]
        call("d", customer["node"])
        call("fl", record["node"])
        assert child_lists == ["CustRec", "OrderInfo"]
