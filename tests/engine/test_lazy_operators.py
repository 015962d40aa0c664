"""Lazy-engine coverage for the operators the view pipeline uses less:
project, orderBy, semijoin (both keeps), apply with non-tD nested plans,
and decontextualization from deeply nested nodes."""

import pytest

from repro.xmltree import elem
from repro.xmltree.paths import Path
from repro.algebra import (
    Apply,
    BindingSet,
    Condition,
    GetD,
    GroupBy,
    MkSrc,
    NestedSrc,
    OrderBy,
    Project,
    Select,
    SemiJoin,
)
from repro.algebra.translator import translate_query
from repro.composer import decontextualize
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import VNode
from repro.sources import SourceCatalog, XmlFileSource
from tests.conftest import Q1, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def customers(catalog_var="$K"):
    return GetD(
        catalog_var, Path.of("customer"), "$C", MkSrc("root1", catalog_var)
    )


def run_lazy(catalog, plan):
    return LazyEngine(catalog).stream(plan, {}).tuples


class TestProjectLazy:
    def test_projects_and_dedups(self, catalog):
        plan = Project(
            ("$A",),
            GetD("$C", Path.parse("customer.addr"), "$A", customers()),
        )
        out = run_lazy(catalog, plan)
        assert len(out) == 3
        assert all(t.variables() == {"$A"} for t in out)

    def test_dedup_collapses_equal_values(self, catalog):
        # Project onto the leaf values of a repeated label.
        source = XmlFileSource().add_tree(
            "doc",
            elem(
                "list",
                elem("item", elem("tag", "red")),
                elem("item", elem("tag", "red")),
                elem("item", elem("tag", "blue")),
            ),
        )
        cat = SourceCatalog().register_document("doc", source)
        plan = Project(
            ("$T",),
            GetD(
                "$I", Path.parse("item.tag.data()"), "$T",
                MkSrc("doc", "$I"),
            ),
        )
        out = LazyEngine(cat).stream(plan, {}).tuples
        assert len(out) == 2


class TestOrderByLazy:
    def test_orders_by_oid(self, catalog):
        plan = OrderBy(("$C",), customers())
        out = run_lazy(catalog, plan)
        oids = [t.get("$C").oid for t in out]
        assert oids == sorted(oids)


class TestSemiJoinLazy:
    def _probe(self):
        return GetD(
            "$1", Path.parse("order.cid.data()"), "$2",
            GetD("$J", Path.of("order"), "$1", MkSrc("root2", "$J")),
        )

    def test_keep_left(self, catalog):
        left = GetD(
            "$C", Path.parse("customer.id.data()"), "$3", customers()
        )
        plan = SemiJoin(
            (Condition.var_var("$3", "=", "$2"),),
            left,
            self._probe(),
            keep="left",
        )
        out = run_lazy(catalog, plan)
        ids = sorted(t.get("$3").label for t in out)
        assert ids == ["ABC", "DEF", "XYZ"]
        assert all("$2" not in t.variables() for t in out)

    def test_keep_right(self, catalog):
        left = Select(
            Condition.var_const("$3", "=", "XYZ"),
            GetD("$C", Path.parse("customer.id.data()"), "$3", customers()),
        )
        plan = SemiJoin(
            (Condition.var_var("$3", "=", "$2"),),
            left,
            self._probe(),
            keep="right",
        )
        out = run_lazy(catalog, plan)
        assert len(out) == 2  # XYZ's two orders

    def test_agrees_with_eager(self, catalog):
        left = GetD(
            "$C", Path.parse("customer.id.data()"), "$3", customers()
        )
        plan = SemiJoin(
            (Condition.var_var("$3", "=", "$2"),),
            left,
            self._probe(),
            keep="left",
        )
        lazy_out = run_lazy(catalog, plan)
        eager_out = EagerEngine(catalog).evaluate(plan)
        assert len(lazy_out) == len(eager_out)


class TestApplyNonTdPlan:
    def test_apply_binding_set_result(self, catalog):
        nested = Select(
            Condition.var_const("$C", "!=", "never"), NestedSrc("$X")
        )
        plan = Apply(
            nested, "$X", "$Out",
            GroupBy(("$C",), "$X", customers()),
        )
        out = run_lazy(catalog, plan)
        assert len(out) == 3
        assert isinstance(out[0].get("$Out"), BindingSet)


class TestDecontextFromNestedNode:
    def test_query_from_orderinfo_pins_two_variables(self, catalog):
        view = translate_query(Q1, root_oid="rootv")
        root = VNode.root(LazyEngine(catalog).evaluate_tree(view))
        custrec = root.down()
        while custrec.down().node.find("id").children[0].label != "XYZ":
            custrec = custrec.right()
        orderinfo = custrec.down().right()  # first OrderInfo of XYZ
        prov = orderinfo.require_query_root()
        assert set(prov.fixed) == {"$C", "$O"}
        composed = decontextualize(
            view,
            prov,
            translate_query(
                "FOR $V IN document(root)/order/value RETURN <V> $V </V>"
            ),
        )
        tree = EagerEngine(catalog).evaluate_tree(composed)
        # Exactly the one pinned order's value.
        assert len(tree.children) == 1
        value = tree.children[0].children[0].children[0].label
        assert value in (100, 2400)
