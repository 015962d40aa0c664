"""Constructed elements against plain-``Node`` references.

A constructed object (``crElt``'s element) keeps its child bindings
until something reads its children.  Every check here compares one
with a reference built in the test from plain :class:`Node` s — the
eager element, or the lazy one the engine used to build over the same
lists — not through the engine, whose ``crElt`` is what is under test.
"""

import sys
import threading

import pytest

from repro import Instrument
from repro.algebra.values import Skolem, VList
from repro.errors import TransientSourceError
from repro.qdom.api import QdomNode
from repro.resilience.stub import degrade_children, is_error_stub
from repro.xmltree import serialize
from repro.xmltree.tree import (
    ConstructedObject,
    Node,
    OidGenerator,
    tree_size,
)


def record(label, key, *values):
    """A plain element with one leaf-carrying field per value; every oid
    derives from ``key``, so two builds are equal oid for oid."""
    return Node("&" + key, label, [
        Node("&{}.{}".format(key, i), "f{}".format(i),
             [Node("&{}.{}v".format(key, i), value)])
        for i, value in enumerate(values)
    ])


def skolem(fn, key):
    return Skolem("$" + fn.upper(), fn, ["&" + key], arg_vars=["$K"])


def info(n):
    """``<OrderInfo>`` over one order, as a constructed object."""
    return ConstructedObject(
        skolem("g", "o{}".format(n)), "OrderInfo",
        (record("order", "o{}".format(n), n, "c<{}>&".format(n), 10 * n),),
    )


def info_ref(n):
    return Node(skolem("g", "o{}".format(n)), "OrderInfo",
                [record("order", "o{}".format(n), n, "c<{}>&".format(n),
                        10 * n)])


def lazy(items):
    """A list whose items are produced on demand."""
    return VList((), lazy_tail=iter(items))


#: name -> (constructed object, plain reference), both built fresh.
CASES = {
    "element": lambda: (info(1), info_ref(1)),
    "cat": lambda: (
        ConstructedObject(
            skolem("f", "c1"), "CustRec",
            VList([record("customer", "c1", "c1", "N")]).lazy_concat(
                lazy([info(n) for n in range(3)])).parts(),
        ),
        Node(skolem("f", "c1"), "CustRec",
             [record("customer", "c1", "c1", "N")]
             + [info_ref(n) for n in range(3)]),
    ),
    "nested": lambda: (
        ConstructedObject(skolem("h", "n"), "Nest", (lazy([
            VList([record("a", "a", 1), record("b", "b", 2)]),
            record("c", "c", 3),
            lazy([info(4)]),
        ]),)),
        Node(skolem("h", "n"), "Nest", [
            record("a", "a", 1), record("b", "b", 2),
            record("c", "c", 3), info_ref(4),
        ]),
    ),
    "empty": lambda: (
        ConstructedObject(skolem("e", "e"), "Empty",
                          VList([]).lazy_concat(lazy([])).parts()),
        Node(skolem("e", "e"), "Empty"),
    ),
}


@pytest.fixture(params=sorted(CASES))
def name(request):
    return request.param


def shape(node):
    """``(oid, label, [children])`` of a whole subtree."""
    return (node.oid, node.label, [shape(c) for c in node.children])


def walk(node, budget):
    return QdomNode.root(node, prefetch=64).walk(budget)


def unbuilt(node):
    return node.bindings is not None


class TestEquivalence:
    def test_labels_oids_and_structure_after_a_build(self, name):
        obj, ref = CASES[name]()
        assert unbuilt(obj)
        assert shape(obj) == shape(ref)
        assert not unbuilt(obj)
        assert all(a is b for a, b in zip(obj.children, obj.children))

    def test_an_element_binding_is_materialized_and_lists_are_owed(self):
        element, __ = CASES["element"]()
        assert element.fully_materialized
        assert element.materialized_child_count == 1
        rec, __ = CASES["cat"]()
        assert not rec.fully_materialized
        assert rec.materialized_child_count == 0
        assert rec.materialized_children() == []
        rec.materialize()
        assert rec.fully_materialized
        assert [c.label for c in rec.materialized_children()] == [
            "customer", "OrderInfo", "OrderInfo", "OrderInfo"]
        assert rec.materialized_child_count == 4
        assert unbuilt(rec) and unbuilt(element)
        assert not rec.is_leaf and not element.is_leaf

    def test_walk_at_every_budget(self, name):
        __, ref = CASES[name]()
        for budget in range(tree_size(ref) + 2):
            obj, __ = CASES[name]()
            assert walk(obj, budget) == walk(ref, budget), budget
        obj, __ = CASES[name]()
        assert walk(obj, None) == walk(ref, None)
        assert unbuilt(obj)
        container = Node("&r", "list", [CASES[name]()[0], info(9)])
        assert walk(container, None) == walk(
            Node("&r", "list", [ref, info_ref(9)]), None)
        assert all(unbuilt(c) for c in container.children)

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("show_oids", [False, True])
    def test_serialize(self, name, indent, show_oids):
        obj, ref = CASES[name]()
        assert serialize(obj, indent, show_oids) == serialize(
            ref, indent, show_oids)
        container = Node("&r", "list", [CASES[name]()[0], info(9)])
        assert serialize(container, indent, show_oids) == serialize(
            Node("&r", "list", [ref, info_ref(9)]), indent, show_oids)
        if indent is None and not show_oids:
            assert unbuilt(obj)
            assert all(unbuilt(c) for c in container.children)


def test_the_node_interface_builds_and_reads_the_same_children():
    customer = record("customer", "c1", "c1")
    obj = ConstructedObject(skolem("f", "c1"), "CustRec", (
        customer, lazy([info(1), VList([info(2), info(3)])]),
    ))
    assert list(obj) == obj.children
    assert [c.label for c in obj] == ["customer"] + ["OrderInfo"] * 3
    assert obj.children[0] is customer
    obj.materialize()
    extra = obj.append(Node("&x", "extra"))
    assert obj.child(4) is extra and obj.materialized_child_count == 5
    element = info(5)
    leaf = element.append(Node("&y", "extra"))
    assert element.children[1] is leaf


def test_materialize_after_a_partial_build_forces_the_rest():
    def make():
        return ConstructedObject(skolem("f", "c1"), "CustRec", (
            record("customer", "c1", "c1"), lazy([info(1), info(2)]),
        ))

    whole = make()
    whole.materialize()
    assert whole.materialized_child_count == 3 and unbuilt(whole)
    obj = make()
    assert obj.child(0).label == "customer"
    assert not unbuilt(obj) and obj.materialized_child_count == 1
    obj.materialize()
    assert obj.fully_materialized and obj.materialized_child_count == 3


def test_the_prefix_stops_inside_a_failed_list_item():
    def failing():
        yield info(1)
        raise TransientSourceError("inner fault", source="s")

    inner = VList((), lazy_tail=failing())
    obj = ConstructedObject(skolem("f", "c1"), "CustRec",
                            (VList([info(0), inner, info(2)]),))
    with pytest.raises(TransientSourceError):
        obj.materialize()
    assert [c.oid for c in obj.materialized_children()] == [
        info(0).oid, info(1).oid]
    assert obj.is_broken and not obj.fully_materialized


# -- a nested list that fails mid-stream ------------------------------------------------


class _Failing:
    """Children ``0..count-1`` of a list; the pull of ``at`` raises a
    transient fault once, then the stream goes on from there."""

    def __init__(self, count, at):
        self._next = 0
        self._count = count
        self._at = at
        self.error = None

    def __iter__(self):
        return self

    def __next__(self):
        if self._next == self._at and self.error is None:
            self.error = TransientSourceError(
                "fault on pull {}".format(self._at), source="s")
            raise self.error
        if self._next >= self._count:
            raise StopIteration
        self._next += 1
        return info(self._next)


def failing_pair(policy):
    """``(constructed object, old-style lazy Node, its stream)`` over
    two identical failing lists; under ``degrade`` each list carries the
    stub the engine puts where a pull failed."""
    def lst():
        stream = _Failing(4, 2)
        if policy == "degrade":
            tail = degrade_children(lambda: stream, Instrument(),
                                    OidGenerator("err"), "s")
        else:
            tail = stream
        return lazy(tail), stream

    first = VList([record("customer", "c1", "c1")])
    ours, stream = lst()
    theirs, __ = lst()
    obj = ConstructedObject(skolem("f", "c1"), "CustRec",
                            first.lazy_concat(ours).parts())
    ref = Node(skolem("f", "c1"), "CustRec",
               lazy_tail=flattened(first.lazy_concat(theirs)))
    return obj, ref, stream


def flattened(source):
    """The lazy tail an element over the list ``source`` used to pull
    its children through: items, a list item expanded one level."""
    for item in source:
        if isinstance(item, VList):
            yield from item
        else:
            yield item


class TestFailures:
    def test_raise_latches_the_error_after_the_same_prefix(self):
        obj, ref, stream = failing_pair("raise")
        for node in (obj, ref):
            with pytest.raises(TransientSourceError):
                walk(node, None)
        assert obj.is_broken and ref.is_broken
        assert not obj.fully_materialized
        assert obj.materialized_child_count == ref.materialized_child_count
        assert [c.oid for c in obj.materialized_children()] == [
            c.oid for c in ref.materialized_children()]
        with pytest.raises(TransientSourceError) as again:
            obj.materialize()
        assert again.value is stream.error
        # The build keeps the prefix and the latched error.
        assert obj.child(2).oid == ref.child(2).oid
        with pytest.raises(TransientSourceError) as built:
            obj.child(3)
        assert built.value is stream.error
        assert not unbuilt(obj)

    def test_degrade_puts_the_stub_at_the_same_position(self):
        obj, ref, __ = failing_pair("degrade")
        assert walk(obj, None) == walk(ref, None)
        assert serialize(obj) == serialize(ref)
        labels = [c.label for c in obj.materialized_children()]
        assert labels == ["customer", "OrderInfo", "OrderInfo",
                          "mix:error", "OrderInfo", "OrderInfo"]
        assert is_error_stub(obj.materialized_children()[3])
        assert unbuilt(obj)


# -- concurrent first readers ------------------------------------------------------------


@pytest.fixture
def often_switching():
    """Switch threads as often as the interpreter allows, so races
    show up within a few hundred reads."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("complete", [False, True])
def test_concurrent_first_readers_get_the_same_children(often_switching,
                                                         complete):
    items = [info(n) for n in range(64)]
    obj = ConstructedObject(
        skolem("f", "c"), "CustRec",
        VList([record("customer", "c", 1)]).lazy_concat(
            VList(items) if complete else lazy(items)).parts())
    barrier = threading.Barrier(8, timeout=10)
    seen = [None] * 8

    def read(slot):
        barrier.wait()
        if slot % 2:
            seen[slot] = [obj.child(i) for i in range(65)]
        else:
            seen[slot] = obj.children

    threads = [threading.Thread(target=read, args=(slot,))
               for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen[0]) == 65 and seen[0][1:] == items
    for children in seen[1:]:
        assert len(children) == 65
        assert all(a is b for a, b in zip(children, seen[0]))
