"""Tests for the Section-4 operator-level navigation interface and the
lazy Fig.-5 tree it walks."""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import stats as statnames
from repro.errors import MixError, NavigationError
from repro.obs import Instrument
from repro.xmltree import serialize
from repro.xmltree.paths import Path
from repro.xmltree.tree import Node, OidGenerator, elem, leaf
from repro.algebra import GetD, GroupBy, MkSrc
from repro.algebra.bindings import BindingSet, BindingTuple, bindings_to_tree
from repro.algebra.translator import translate_query
from repro.algebra.values import VList
from repro.engine.lazy import LazyEngine
from repro.engine.table_nav import OperatorTable, f
from repro.engine.vtree import VNode, walk_fully
from repro.sources import SourceCatalog
from tests.conftest import (
    MIX_SEED,
    Q1,
    make_paper_wrapper,
    make_scaled_wrapper,
)


def engine_and_plan(plan_builder, stats=None):
    catalog = SourceCatalog().register(make_paper_wrapper(stats=stats))
    return LazyEngine(catalog, stats=stats), plan_builder()


def customers_plan():
    return GetD("$K", Path.of("customer"), "$C", MkSrc("root1", "$K"))


class TestSixCalls:
    def test_get_root_is_list(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        assert root.label() == "list"
        assert root.value() is None

    def test_d_yields_binding_nodes(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        binding = root.down()
        assert binding.label() == "binding"
        assert binding.right().label() == "binding"

    def test_binding_children_are_var_nodes(self):
        engine, plan = engine_and_plan(customers_plan)
        binding = OperatorTable(engine, plan).get_root().down()
        var_node = binding.down()
        assert var_node.label() == "$C"
        assert var_node.right().label() == "$K"
        assert var_node.right().right() is None

    def test_var_node_leads_to_value(self):
        engine, plan = engine_and_plan(customers_plan)
        var_node = OperatorTable(engine, plan).get_root().down().down()
        value = var_node.down()
        assert value.label() == "customer"
        field = value.down()
        assert field.label() == "id"
        leaf = field.down()
        assert leaf.value() in ("XYZ", "DEF", "ABC")

    def test_f_jumps_to_attribute(self):
        engine, plan = engine_and_plan(customers_plan)
        binding = OperatorTable(engine, plan).get_root().down()
        value = f(binding, "$C")
        assert value.label() == "customer"

    def test_f_unknown_variable(self):
        engine, plan = engine_and_plan(customers_plan)
        binding = OperatorTable(engine, plan).get_root().down()
        with pytest.raises(NavigationError):
            f(binding, "$NOPE")

    def test_f_only_on_bindings(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        with pytest.raises(NavigationError):
            f(root, "$C")


class TestGroupNavigation:
    def test_nested_set_renders_as_fig5(self):
        def plan():
            return GroupBy(("$C",), "$X", customers_plan())

        engine, built = engine_and_plan(plan)
        binding = OperatorTable(engine, built).get_root().down()
        group_value = f(binding, "$X")
        assert group_value.label() == "set"
        inner_binding = group_value.down()
        assert inner_binding.label() == "binding"
        assert f(inner_binding, "$C").label() == "customer"


class TestLaziness:
    def test_get_root_pulls_nothing(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(100, 0, stats=stats)
        )
        plan = customers_plan()
        OperatorTable(LazyEngine(catalog, stats=stats), plan).get_root()
        assert stats.get(statnames.TUPLES_SHIPPED) == 0

    def test_navigation_pulls_per_tuple(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(100, 0, stats=stats)
        )
        plan = customers_plan()
        root = OperatorTable(
            LazyEngine(catalog, stats=stats), plan
        ).get_root()
        binding = root.down()
        assert stats.get(statnames.TUPLES_SHIPPED) == 1
        binding.right()
        assert stats.get(statnames.TUPLES_SHIPPED) == 2

    def test_whole_view_plan_navigable(self):
        engine, __ = engine_and_plan(customers_plan)
        plan = translate_query(Q1, root_oid="v")
        # Navigate the table of the operator *below* the tD.
        table = OperatorTable(engine, plan.input)
        binding = table.get_root().down()
        out_var = plan.input.out_var  # the crElt's CustRec variable
        assert f(binding, out_var).label() == "CustRec"


class TestTableBehaviour:
    """What navigating a table through the answers' ``VNode`` changes:
    every call is a counted QDOM command, every node has an oid, and an
    empty table's root is a leaf like any other."""

    def test_second_get_root_ships_nothing(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(5, 0, stats=stats)
        )
        table = OperatorTable(LazyEngine(catalog, stats=stats),
                              customers_plan())
        root = table.get_root()
        walk_fully(root)
        shipped = stats.get(statnames.TUPLES_SHIPPED)
        assert shipped == 5
        again = table.get_root()
        assert again is root
        walk_fully(again)
        assert stats.get(statnames.TUPLES_SHIPPED) == shipped

    def test_reading_a_binding_ships_no_further_tuple(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(100, 0, stats=stats)
        )
        root = OperatorTable(
            LazyEngine(catalog, stats=stats), customers_plan()
        ).get_root()
        walk_fully(root.down())
        f(root.down(), "$K")
        assert stats.get(statnames.TUPLES_SHIPPED) == 1

    def test_f_is_one_command(self):
        stats = Instrument()
        engine, plan = engine_and_plan(customers_plan, stats=stats)
        binding = OperatorTable(engine, plan).get_root().down()
        f(binding, "$K")
        span = stats.last_trace()
        assert span.name == "f"
        assert [s.name for s in span.iter_spans()
                if s.kind == "navigation"] == ["f"]

    def test_navigation_counts_qdom_commands(self):
        stats = Instrument()
        engine, plan = engine_and_plan(customers_plan, stats=stats)
        root = OperatorTable(engine, plan).get_root()
        binding = root.down()
        f(binding, "$C").label()
        assert stats.get(statnames.QDOM_COMMANDS) == 4

    def test_table_nodes_carry_oids(self):
        engine, plan = engine_and_plan(customers_plan)
        root = OperatorTable(engine, plan).get_root()
        binding = root.down()
        nodes = [root, binding, binding.right(), binding.down(),
                 binding.down().right()]
        oids = [vnode.node.oid for vnode in nodes]
        assert all(oid.startswith("&b") for oid in oids)
        assert len(set(oids)) == len(oids)

    def test_empty_table_root_is_a_leaf(self):
        engine, __ = engine_and_plan(customers_plan)
        plan = GetD("$K", Path.of("nosuch"), "$C", MkSrc("root1", "$K"))
        root = OperatorTable(engine, plan).get_root()
        assert root.down() is None
        assert root.value() == "list"

    def test_f_on_a_variable_node(self):
        engine, plan = engine_and_plan(customers_plan)
        var_node = OperatorTable(engine, plan).get_root().down().down()
        with pytest.raises(NavigationError):
            f(var_node, "$C")


def eager_tree(binding_set, gen, root_label="list"):
    """The reference Fig.-5 builder: every node built at once."""
    root = Node(gen.fresh(), root_label)
    for binding_tuple in binding_set:
        bnode = Node(gen.fresh(), "binding")
        for var in sorted(binding_tuple.variables()):
            var_node = Node(gen.fresh(), var)
            var_node.append(eager_value(binding_tuple.get(var), gen))
            bnode.append(var_node)
        root.append(bnode)
    return root


def eager_value(value, gen):
    if isinstance(value, Node):
        return value
    if isinstance(value, VList):
        list_node = Node(gen.fresh(), "list")
        for item in value:
            list_node.append(eager_value(item, gen))
        return list_node
    return eager_tree(value, gen, root_label="set")


def binding_sets(values):
    return st.lists(
        st.dictionaries(st.sampled_from(["$A", "$B", "$C"]), values,
                        max_size=3).map(BindingTuple),
        max_size=3,
    ).map(BindingSet)


leaves = st.builds(leaf, st.sampled_from(["a", "b", 7, 2.5]))
one_deep = st.lists(leaves, max_size=3).map(VList)
two_deep = st.lists(st.one_of(leaves, one_deep), max_size=3).map(VList)
flat_values = st.one_of(leaves, one_deep, two_deep)
tables = binding_sets(
    st.one_of(flat_values, binding_sets(
        st.one_of(flat_values, binding_sets(flat_values))))
)


class CountingList(VList):
    """A lazy list value that records how many items were pulled."""

    __slots__ = ("pulled",)

    def __init__(self, items):
        VList.__init__(self, (), lazy_tail=self._counted(items))
        self.pulled = 0

    def _counted(self, items):
        for item in items:
            self.pulled += 1
            yield item


class TestFig5Tree:
    @seed(MIX_SEED)
    @settings(max_examples=80, deadline=None)
    @given(tables)
    def test_lazy_tree_equals_eager_reference(self, binding_set):
        lazy = bindings_to_tree(binding_set)
        eager = eager_tree(binding_set, OidGenerator("e"))
        assert serialize(lazy) == serialize(eager)

    @seed(MIX_SEED)
    @settings(max_examples=40, deadline=None)
    @given(tables)
    def test_oids_are_distinct(self, binding_set):
        oids = [n.oid for n in bindings_to_tree(binding_set).iter_subtree()]
        assert len(set(oids)) == len(oids)

    def test_reading_a_binding_leaves_its_list_unforced(self):
        items = CountingList([leaf("x"), leaf("y")])
        tree = bindings_to_tree(BindingSet(
            [BindingTuple({"$A": leaf("a"), "$L": items})]
        ))
        binding = VNode(tree).down()
        assert [v.label() for v in binding.children()] == ["$A", "$L"]
        list_node = f(binding, "$L")
        assert list_node.label() == "list"
        assert items.pulled == 0
        assert list_node.down().value() == "x"
        assert items.pulled == 1

    def test_nested_set_pulls_as_read(self):
        inner = BindingSet([BindingTuple({"$D": leaf("d1")}),
                            BindingTuple({"$D": leaf("d2")})])
        tree = bindings_to_tree(BindingSet(
            [BindingTuple({"$S": inner})]
        ))
        nested = f(VNode(tree).down(), "$S")
        assert nested.label() == "set"
        assert nested.node.materialized_child_count == 0
        assert f(nested.down(), "$D").value() == "d1"
        assert nested.node.materialized_child_count == 1

    def test_f_on_a_value_labeled_binding(self):
        tree = bindings_to_tree(BindingSet(
            [BindingTuple({"$A": elem("binding", elem("x", "1"))})]
        ))
        value = f(VNode(tree).down(), "$A")
        assert value.label() == "binding"
        with pytest.raises(NavigationError):
            f(value, "x")

    def test_not_a_value_raises_when_read(self):
        tree = bindings_to_tree(BindingSet([BindingTuple({"$A": 3})]))
        binding = VNode(tree).down()
        with pytest.raises(MixError):
            binding.down()
