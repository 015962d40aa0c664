"""Unit tests for the labeled ordered tree model."""

import sys
import threading
import time

import pytest

from repro.errors import MixError
from repro.xmltree import (
    Node,
    OidGenerator,
    atomize,
    deep_equals,
    elem,
    leaf,
    tree_size,
)
from repro.xmltree.tree import LazyPrefix


class TestNodeBasics:
    def test_leaf_has_value(self):
        node = leaf("XYZ")
        assert node.is_leaf
        assert node.value == "XYZ"

    def test_numeric_leaf(self):
        node = leaf(2400)
        assert node.value == 2400

    def test_element_has_no_value(self):
        node = elem("customer", elem("id", "XYZ"))
        assert not node.is_leaf
        assert node.value is None

    def test_elem_wraps_scalars(self):
        node = elem("id", "XYZ")
        assert len(node.children) == 1
        assert node.children[0].label == "XYZ"

    def test_invalid_label_rejected(self):
        with pytest.raises(MixError):
            Node("&1", ["not", "a", "label"])

    def test_invalid_child_rejected(self):
        with pytest.raises(MixError):
            elem("a", object())

    def test_explicit_oid(self):
        node = elem("customer", oid="&XYZ123")
        assert node.oid == "&XYZ123"

    def test_child_navigation(self):
        node = elem("a", elem("b"), elem("c"))
        assert node.child(0).label == "b"
        assert node.child(1).label == "c"
        assert node.child(2) is None
        assert node.child(-1) is None
        assert node.first_child().label == "b"

    def test_children_labeled_and_find(self):
        node = elem("a", elem("x", "1"), elem("y", "2"), elem("x", "3"))
        assert len(node.children_labeled("x")) == 2
        assert node.find("y").label == "y"
        assert node.find("zzz") is None

    def test_append(self):
        node = elem("a")
        node.append(leaf("v"))
        assert node.children[0].label == "v"

    def test_iter_subtree_preorder(self):
        node = elem("a", elem("b", "1"), elem("c"))
        labels = [n.label for n in node.iter_subtree()]
        assert labels == ["a", "b", "1", "c"]

    def test_tree_size(self):
        node = elem("a", elem("b", "1"), elem("c"))
        assert tree_size(node) == 4

    def test_pretty_and_repr(self):
        node = elem("a", elem("b", "1", oid="&b"), oid="&a")
        assert node.pretty().splitlines()[:2] == ["&a a", "  &b b"]
        assert repr(node) == "Node(&a:a, 1 children)"
        assert repr(node.child(0).child(0)).endswith("='1')")


class TestLazyChildren:
    def _lazy_node(self, count):
        def tail():
            for i in range(count):
                yield leaf(i)

        return Node("&l", "list", lazy_tail=tail())

    def test_child_forces_prefix_only(self):
        node = self._lazy_node(10)
        assert node.child(2).label == 2
        assert node.materialized_child_count == 3
        assert not node.fully_materialized

    def test_children_property_forces_all(self):
        node = self._lazy_node(5)
        assert len(node.children) == 5
        assert node.fully_materialized

    def test_child_beyond_end(self):
        node = self._lazy_node(2)
        assert node.child(5) is None
        assert node.fully_materialized

    def test_is_leaf_forces_one(self):
        assert self._lazy_node(0).is_leaf
        node = self._lazy_node(3)
        assert not node.is_leaf
        assert node.materialized_child_count == 1

    def test_append_rejected_while_lazy(self):
        node = self._lazy_node(3)
        with pytest.raises(MixError):
            node.append(leaf("x"))

    def test_repr_marks_laziness(self):
        node = self._lazy_node(3)
        assert "lazy" in repr(node)


class TestLazyPrefix:
    """The one memoized prefix under nodes, lists and binding sets."""

    @staticmethod
    def dying(count, exc):
        def tail():
            yield from range(count)
            raise exc

        return LazyPrefix(lazy_tail=tail())

    def test_latch_reraises_the_same_exception(self):
        exc = ValueError("source lost")
        prefix = self.dying(2, exc)
        assert prefix.item(1) == 1
        caught = []
        for __ in range(3):
            with pytest.raises(ValueError) as info:
                prefix.item(2)
            caught.append(info.value)
        assert all(e is exc for e in caught)
        assert prefix.is_broken and not prefix.fully_materialized
        assert prefix.item(0) == 0  # the prefix itself stays readable
        with pytest.raises(ValueError):
            list(prefix)
        assert prefix.materialized() == [0, 1]

    def test_prefetch_parks_an_error_past_the_strict_part(self):
        exc = ValueError("source lost")
        prefix = self.dying(2, exc)
        prefix.prefetch(1, extra=5)  # the failure is past the demand
        assert prefix.materialized_count == 2
        assert prefix.is_broken
        assert prefix.item(1) == 1
        with pytest.raises(ValueError) as info:
            prefix.prefetch(3)
        assert info.value is exc

    def test_two_threads_get_each_item_exactly_once(self):
        produced = []

        def tail():
            for i in range(2000):
                time.sleep(0)  # let the other reader in mid-resume
                produced.append(i)
                yield i

        prefix = LazyPrefix(lazy_tail=tail())
        seen = [[], []]
        start = threading.Barrier(2)

        def reader(out):
            start.wait()
            out.extend(prefix)

        threads = [threading.Thread(target=reader, args=(out,))
                   for out in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert produced == list(range(2000))
        assert seen[0] == seen[1] == list(range(2000))


class TestDeepEquals:
    def test_equal_ignores_oids(self):
        a = elem("x", elem("y", "1"))
        b = elem("x", elem("y", "1"))
        assert a.oid != b.oid
        assert deep_equals(a, b)

    def test_compare_oids(self):
        a = elem("x", oid="&1")
        b = elem("x", oid="&2")
        assert deep_equals(a, b)
        assert not deep_equals(a, b, compare_oids=True)

    def test_label_mismatch(self):
        assert not deep_equals(elem("x"), elem("y"))

    def test_child_count_mismatch(self):
        assert not deep_equals(elem("x", "a"), elem("x", "a", "b"))

    def test_none_handling(self):
        assert deep_equals(None, None)
        assert not deep_equals(elem("x"), None)


class TestAtomize:
    def test_leaf(self):
        assert atomize(leaf("v")) == "v"

    def test_single_leaf_child(self):
        assert atomize(elem("id", "XYZ")) == "XYZ"

    def test_numeric(self):
        assert atomize(elem("value", 2400)) == 2400

    def test_complex_element(self):
        node = elem("customer", elem("id", "X"), elem("name", "N"))
        assert atomize(node) is None

    def test_none(self):
        assert atomize(None) is None


class TestOidGenerator:
    def test_fresh_sequence(self):
        gen = OidGenerator("t")
        assert gen.fresh() == "&t1"
        assert gen.fresh() == "&t2"

    def test_independent_generators(self):
        a, b = OidGenerator("a"), OidGenerator("a")
        assert a.fresh() == b.fresh()
