"""Tests for QdomNode conveniences and mediator mode equivalence."""

import itertools

import pytest

from repro import Mediator
from repro.xmltree import deep_equals, serialize
from tests.conftest import Q1, make_paper_wrapper


class TestQdomNodeApi:
    @pytest.fixture
    def root(self, paper_wrapper):
        return Mediator().add_source(paper_wrapper).query(Q1)

    def test_oid_property(self, root):
        assert str(root.oid) == "&view1"
        assert "f(" in str(root.d().oid)

    def test_to_tree_materializes(self, root):
        tree = root.to_tree()
        assert tree.label == "list"
        assert len(tree.children) == 3

    @pytest.mark.parametrize("block_size", [1, 64])
    def test_export_node_serializes_in_place(self, paper_wrapper,
                                             block_size):
        mediator = Mediator(block_size=block_size).add_source(paper_wrapper)
        view = mediator.query(Q1)
        first = view.d()
        refined = first.q(
            "FOR $X IN document(root)/OrderInfo "
            "WHERE $X/order/value/data() > 500 RETURN $X"
        )
        for node in (first.d().r(), first, refined, view):
            assert serialize(node.export_node()) == serialize(node.to_tree())

    def test_view_plan_attached(self, root):
        from repro.algebra import TD

        assert isinstance(root.view_plan, TD)
        # Children carry the same view plan (needed for q()).
        assert root.d().view_plan is root.view_plan

    def test_repr(self, root):
        assert "CustRec" in repr(root.d())

    @pytest.mark.parametrize("block_size", [1, 64])
    def test_walk_lets_go_of_the_answer(self, paper_wrapper, block_size):
        # walk's recursive helpers used to stay behind in a reference
        # cycle holding the walked tree: only a full collection freed
        # it, so a server's peak memory hung on collector timing.
        import gc

        from repro.xmltree.tree import Node

        mediator = Mediator(block_size=block_size).add_source(paper_wrapper)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            steps, truncated = mediator.query(Q1).walk()
            assert steps and not truncated
            gc.collect()
            stranded = [o for o in gc.garbage if isinstance(o, Node)]
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            gc.enable()
        assert stranded == []

    @pytest.mark.parametrize("query", [
        "FOR $O IN document(root2)/order RETURN $O",
        "FOR $C IN document(root1)/customer $O IN document(root2)/order"
        " WHERE $C/id/data() = $O/cid/data()"
        " RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O}"
        " </CustRec> {$C}",
    ])
    def test_budgeted_walk_forces_at_most_one_block(self, query):
        # A budgeted bulk walk used to force every child of every node
        # it entered: walk(3) shipped the whole answer at width 64.
        from repro import stats as sn
        from repro.workloads import build_customers_orders

        shipped = []
        for walk in (lambda root: root.d(), lambda root: root.walk(3)):
            built = build_customers_orders(
                n_customers=200, orders_per_customer=5
            )
            mediator = Mediator(stats=built.stats, block_size=64)
            walk(mediator.add_source(built.wrapper).query(query))
            shipped.append(built.stats.get(sn.TUPLES_SHIPPED))
        one_block, budgeted = shipped
        assert budgeted <= one_block < 1000

    def test_find_returns_none(self, root):
        assert root.find("nope") is None

    def test_provenance_on_root(self, root):
        prov = root.provenance()
        assert prov.var is None


class TestModeMatrix:
    """All four optimize × lazy combinations (and push_sql) agree."""

    MODES = list(itertools.product([True, False], repeat=3))

    @pytest.mark.parametrize(
        "optimize,push_sql,lazy", MODES,
        ids=["opt{}-push{}-lazy{}".format(*m) for m in MODES],
    )
    def test_same_result_shape(self, optimize, push_sql, lazy):
        mediator = Mediator(
            optimize=optimize, push_sql=push_sql, lazy=lazy
        ).add_source(make_paper_wrapper())
        root = mediator.query(Q1)
        shape = set()
        for custrec in root.children():
            cust = custrec.find("customer").find("id").d().fv()
            orders = frozenset(
                oi.find("order").find("orid").d().fv()
                for oi in custrec.children()
                if oi.fl() == "OrderInfo"
            )
            shape.add((cust, orders))
        assert shape == {
            ("XYZ", frozenset({28904, 111})),
            ("DEF", frozenset({222})),
            ("ABC", frozenset({87456})),
        }

    @pytest.mark.parametrize("lazy", [True, False])
    def test_in_place_query_all_modes(self, lazy):
        mediator = Mediator(lazy=lazy).add_source(make_paper_wrapper())
        root = mediator.query(Q1)
        node = root.d()
        while node.find("customer").find("id").d().fv() != "XYZ":
            node = node.r()
        refined = node.q(
            "FOR $O IN document(root)/OrderInfo"
            " WHERE $O/order/value/data() > 2000 RETURN $O"
        )
        values = [
            c.find("order").find("value").d().fv()
            for c in refined.children()
        ]
        assert values == [2400]


class TestInPlaceQueryWithExtraSources:
    def test_context_joined_with_another_document(self, paper_wrapper):
        """An in-place query may join the context with other documents."""
        from repro.sources import XmlFileSource

        mediator = Mediator().add_source(paper_wrapper)
        mediator.add_source(
            XmlFileSource().add_text(
                "tiers",
                "<list>"
                "<tier><floor>1000</floor><name>gold</name></tier>"
                "<tier><floor>0</floor><name>basic</name></tier>"
                "</list>",
            )
        )
        root = mediator.query(Q1)
        node = root.d()
        while node.find("customer").find("id").d().fv() != "XYZ":
            node = node.r()
        result = node.q(
            "FOR $O IN document(root)/OrderInfo,"
            " $T IN document(tiers)/tier"
            " WHERE $O/order/value/data() > $T/floor/data()"
            " RETURN <Tiered> $O $T </Tiered> {$O, $T}"
        )
        pairs = {
            (
                t.find("OrderInfo").find("order").find("orid").d().fv(),
                t.find("tier").find("name").d().fv(),
            )
            for t in result.children()
        }
        # 2400 beats both floors; 100 beats only the basic floor.
        assert pairs == {
            (28904, "gold"), (28904, "basic"), (111, "basic")
        }
