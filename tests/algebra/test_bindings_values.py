"""Unit tests for binding tuples/sets and the value model (Fig. 5)."""

import pytest

from repro.errors import MixError, PlanError
from repro.xmltree import elem, leaf
from repro.algebra import (
    BindingSet,
    BindingTuple,
    Skolem,
    VList,
    bindings_to_tree,
    value_kind,
)
from repro.algebra.values import value_key, values_equal
from repro.engine.block import Block, BlockSet


class TestBindingTuple:
    def test_get_and_has(self):
        t = BindingTuple({"$A": leaf("x")})
        assert t.has("$A")
        assert t.get("$A").label == "x"
        with pytest.raises(PlanError):
            t.get("$B")

    def test_variables_must_have_sigil(self):
        with pytest.raises(MixError):
            BindingTuple({"A": leaf("x")})

    def test_extend(self):
        t = BindingTuple({"$A": leaf(1)})
        t2 = t.extend("$B", leaf(2))
        assert t2.variables() == {"$A", "$B"}
        assert not t.has("$B")  # immutability

    def test_extend_existing_rejected(self):
        t = BindingTuple({"$A": leaf(1)})
        with pytest.raises(PlanError):
            t.extend("$A", leaf(2))

    def test_merge(self):
        merged = BindingTuple({"$A": leaf(1)}).merge(
            BindingTuple({"$B": leaf(2)})
        )
        assert merged.variables() == {"$A", "$B"}

    def test_merge_overlap_rejected(self):
        with pytest.raises(PlanError):
            BindingTuple({"$A": leaf(1)}).merge(BindingTuple({"$A": leaf(2)}))

    def test_project(self):
        t = BindingTuple({"$A": leaf(1), "$B": leaf(2)})
        assert t.project(["$A"]).variables() == {"$A"}

    def test_rename(self):
        t = BindingTuple({"$A": leaf(1)}).rename({"$A": "$Z"})
        assert t.variables() == {"$Z"}

    def test_key_groups_equal_values(self):
        a = BindingTuple({"$A": elem("c", elem("id", "X"), oid="&X")})
        b = BindingTuple({"$A": elem("c", elem("id", "X"), oid="&X")})
        assert a.key(["$A"]) == b.key(["$A"])

    def test_key_distinguishes_oids(self):
        a = BindingTuple({"$A": elem("c", elem("id", "X"), oid="&X")})
        b = BindingTuple({"$A": elem("c", elem("id", "X"), oid="&Y")})
        assert a.key(["$A"]) != b.key(["$A"])

    def test_equals(self):
        a = BindingTuple({"$A": leaf(1)})
        b = BindingTuple({"$A": leaf(1)})
        c = BindingTuple({"$A": leaf(2)})
        assert a.equals(b)
        assert not a.equals(c)


class TestBindingSet:
    def test_append_and_iterate(self):
        s = BindingSet()
        s.append(BindingTuple({"$A": leaf(1)}))
        s.append(BindingTuple({"$A": leaf(2)}))
        assert len(s) == 2
        assert [t.get("$A").label for t in s] == [1, 2]

    def test_variables(self):
        s = BindingSet([BindingTuple({"$A": leaf(1)})])
        assert s.variables() == {"$A"}
        assert BindingSet().variables() == frozenset()


class TestVList:
    def test_concat(self):
        a = VList([leaf(1)])
        b = VList([leaf(2), leaf(3)])
        assert [v.label for v in a.concat(b)] == [1, 2, 3]

    def test_lazy_concat_does_not_force(self):
        forced = []

        def tail():
            for i in range(3):
                forced.append(i)
                yield leaf(i)

        lazy = VList(lazy_tail=tail())
        combined = VList([leaf("x")]).lazy_concat(lazy)
        assert forced == []
        assert combined.item(0).label == "x"
        assert forced == []
        assert combined.item(1).label == 0
        assert forced == [0]

    def test_item_prefix_forcing(self):
        v = VList(lazy_tail=(leaf(i) for i in range(10)))
        assert v.item(3).label == 3
        assert len(v._items) == 4

    def test_equality(self):
        assert VList([leaf(1)]) == VList([leaf(1)])
        assert VList([leaf(1)]) != VList([leaf(2)])


class TestSetValues:
    """Set values key and compare by their tuples, whether the set is
    the eager engine's list or a lazy block stream."""

    @staticmethod
    def rows(*labels):
        return Block({"$A": [leaf(x) for x in labels]}, len(labels))

    def test_a_lazy_set_keys_like_the_eager_one(self):
        eager = BindingSet([BindingTuple({"$A": leaf(1)}),
                            BindingTuple({"$A": leaf(2)})])
        lazy = BlockSet(iter([self.rows(1), self.rows(2)]))
        assert value_key(lazy) == value_key(eager)
        assert value_key(VList([lazy])) == value_key(VList([eager]))

    def test_a_set_whose_stream_raised_never_keys_short(self):
        exc = ValueError("source lost")

        def dying():
            yield self.rows(1)
            raise exc

        lazy = BlockSet(dying())
        for __ in range(2):
            with pytest.raises(ValueError) as info:
                value_key(lazy)
            assert info.value is exc
        assert lazy.tuple_at(0).get("$A").label == 1

    def test_sets_compare_tuple_by_tuple(self):
        one = BindingSet([BindingTuple({"$A": leaf(1)})])
        assert values_equal(one, BindingSet([BindingTuple({"$A": leaf(1)})]))
        assert not values_equal(one, BindingSet([BindingTuple({"$A": leaf(2)})]))
        assert not values_equal(one, BindingSet())
        assert not values_equal(VList([leaf(1)]), VList())

    def test_reprs(self):
        t = BindingTuple({"$A": leaf(1)})
        assert repr(BindingSet([t])) == "BindingSet(1 tuples)"
        assert repr(t).startswith("[$A=")
        assert "lazy" in repr(VList(lazy_tail=iter(())))


class TestValueKinds:
    def test_kinds(self):
        assert value_kind(leaf(1)) == "element"
        assert value_kind(VList()) == "list"
        assert value_kind(BindingSet()) == "set"
        with pytest.raises(MixError):
            value_kind("nope")

    def test_values_equal_across_kinds(self):
        assert not values_equal(leaf(1), VList([leaf(1)]))

    def test_value_key_of_skolem(self):
        s1 = Skolem("$V", "f", ("&X",))
        s2 = Skolem("$V", "f", ("&X",))
        n1 = elem("CustRec", oid=s1)
        n2 = elem("CustRec", oid=s2)
        # childless element: leaves compare by value, so force children
        n1.append(leaf("a"))
        n2.append(leaf("b"))
        assert value_key(n1) == value_key(n2)  # identity by skolem


class TestSkolem:
    def test_repr_matches_fig7(self):
        s = Skolem("$V", "f", ("&XYZ123",))
        assert repr(s) == "&($V,f(&XYZ123))"

    def test_fixed_bindings(self):
        s = Skolem("$V", "f", ("&X", "&Y"), arg_vars=("$C", "$D"))
        assert s.fixed_bindings() == {"$C": "&X", "$D": "&Y"}

    def test_equality(self):
        assert Skolem("$V", "f", ("&X",)) == Skolem("$V", "f", ("&X",))
        assert Skolem("$V", "f", ("&X",)) != Skolem("$V", "g", ("&X",))


class TestFig5Tree:
    def test_tree_representation(self):
        # The paper's Fig. 5 example: B = { [$A=a1, $B=list[e1,e2],
        # $C={[$D=d11],[$D=d12]}], [$A=a2, $B=list[f1,f2,f3], $C={[$D=d21]}] }
        binding_set = BindingSet(
            [
                BindingTuple(
                    {
                        "$A": leaf("a1"),
                        "$B": VList([leaf("e1"), leaf("e2")]),
                        "$C": BindingSet(
                            [
                                BindingTuple({"$D": leaf("d11")}),
                                BindingTuple({"$D": leaf("d12")}),
                            ]
                        ),
                    }
                ),
                BindingTuple(
                    {
                        "$A": leaf("a2"),
                        "$B": VList([leaf("f1"), leaf("f2"), leaf("f3")]),
                        "$C": BindingSet([BindingTuple({"$D": leaf("d21")})]),
                    }
                ),
            ]
        )
        tree = bindings_to_tree(binding_set, root_label="set")
        assert tree.label == "set"
        assert [b.label for b in tree.children] == ["binding", "binding"]
        first = tree.children[0]
        assert [v.label for v in first.children] == ["$A", "$B", "$C"]
        assert first.children[0].children[0].label == "a1"
        b_value = first.children[1].children[0]
        assert b_value.label == "list"
        assert [x.label for x in b_value.children] == ["e1", "e2"]
        c_value = first.children[2].children[0]
        assert c_value.label == "set"
        assert len(c_value.children) == 2
        assert c_value.children[0].children[0].label == "$D"
