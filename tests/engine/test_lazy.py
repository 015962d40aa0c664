"""Unit tests for the navigation-driven lazy engine (Section 4)."""

import pytest

from repro import stats as statnames
from repro.obs import Instrument
from repro.xmltree import deep_equals
from repro.xmltree.paths import Path
from repro.algebra import (
    Apply,
    Condition,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    NestedSrc,
    OrderBy,
    Project,
    TD,
)
from repro.algebra.translator import translate_query
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine, infer_sorted_vars
from repro.engine.vtree import VNode, vnode_to_tree, walk_fully
from repro.sources import SourceCatalog
from tests.conftest import Q1, make_paper_wrapper, make_scaled_wrapper


def fresh_catalog(stats=None):
    return SourceCatalog().register(make_paper_wrapper(stats=stats))


def eval_both(plan):
    """Evaluate with both engines on fresh sources; return (eager, lazy)."""
    eager_tree = EagerEngine(fresh_catalog()).evaluate_tree(plan)
    lazy_root = LazyEngine(fresh_catalog()).evaluate_tree(plan)
    lazy_tree = vnode_to_tree(VNode.root(lazy_root))
    return eager_tree, lazy_tree


class TestEquivalence:
    @pytest.mark.parametrize(
        "query",
        [
            "FOR $C IN document(root1)/customer RETURN $C",
            "FOR $C IN document(root1)/customer RETURN <R> $C </R>",
            "FOR $C IN document(root1)/customer"
            " WHERE $C/addr/data() = 'NewYork' RETURN $C",
            Q1,
            "FOR $C IN document(root1)/customer,"
            " $O IN document(root2)/order"
            " WHERE $C/id/data() = $O/cid/data()"
            " AND $O/value/data() > 1000"
            " RETURN <Big> $O </Big> {$O}",
        ],
    )
    def test_lazy_equals_eager(self, query):
        plan = translate_query(query, root_oid="res")
        eager_tree, lazy_tree = eval_both(plan)
        assert deep_equals(eager_tree, lazy_tree)

    def test_stateful_gby_matches(self):
        plan = translate_query(Q1, root_oid="res")
        lazy_root = LazyEngine(
            fresh_catalog(), force_stateful_gby=True
        ).evaluate_tree(plan)
        lazy_tree = vnode_to_tree(VNode.root(lazy_root))
        eager_tree = EagerEngine(fresh_catalog()).evaluate_tree(plan)
        assert deep_equals(eager_tree, lazy_tree)


class TestNestedJoin:
    """A hash join inside a nested plan, one side reading nestedSrc."""

    @staticmethod
    def plan(nsrc_left):
        sides = (
            NestedSrc("$P"),
            GetD("$O", Path.of("order", "cid"), "$J", MkSrc("root2", "$O")),
        )
        if not nsrc_left:
            sides = sides[::-1]
        nested = TD("$O", Join(
            (Condition.var_var("$I", "=", "$J"),), *sides
        ))
        grouped = GroupBy(("$I",), "$P", GetD(
            "$K", Path.of("customer", "id"), "$I", MkSrc("root1", "$K"),
        ))
        return TD("$R", Apply(nested, "$P", "$R", grouped), "res")

    @pytest.mark.parametrize("nsrc_left", [True, False])
    @pytest.mark.parametrize("width", [1, 8])
    def test_lazy_equals_eager(self, nsrc_left, width):
        plan = self.plan(nsrc_left)
        eager_tree = EagerEngine(fresh_catalog()).evaluate_tree(plan)
        lazy_root = LazyEngine(
            fresh_catalog(), block_size=width
        ).evaluate_tree(plan)
        lazy_tree = vnode_to_tree(VNode.root(lazy_root))
        assert deep_equals(eager_tree, lazy_tree)
        assert [o.label for o in eager_tree.children] == ["order"] * 4


class TestLaziness:
    def test_no_work_before_navigation(self):
        stats = Instrument()
        catalog = SourceCatalog().register(make_paper_wrapper(stats=stats))
        plan = translate_query(
            "FOR $C IN document(root1)/customer RETURN $C", root_oid="res"
        )
        LazyEngine(catalog, stats=stats).evaluate_tree(plan)
        assert stats.get(statnames.TUPLES_SHIPPED) == 0

    def test_one_navigation_one_tuple(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(100, 0, stats=stats)
        )
        plan = translate_query(
            "FOR $C IN document(root1)/customer RETURN $C", root_oid="res"
        )
        root = LazyEngine(catalog, stats=stats).evaluate_tree(plan)
        VNode.root(root).down()
        assert stats.get(statnames.TUPLES_SHIPPED) == 1

    def test_selection_pulls_through_nonmatching(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(50, 1, stats=stats)
        )
        # Orders all have value 100; none below 50 -> the first d() must
        # exhaust the source to learn the answer is empty.
        plan = translate_query(
            "FOR $O IN document(root2)/order"
            " WHERE $O/value/data() < 50 RETURN $O",
            root_oid="res",
        )
        root = LazyEngine(catalog, stats=stats).evaluate_tree(plan)
        assert VNode.root(root).down() is None
        assert stats.get(statnames.TUPLES_SHIPPED) == 50

    def test_empty_left_join_side_skips_right(self):
        stats = Instrument()
        catalog = SourceCatalog().register(
            make_scaled_wrapper(0, 0, stats=stats)
        )
        plan = translate_query(Q1, root_oid="res")
        root = LazyEngine(catalog, stats=stats).evaluate_tree(plan)
        assert VNode.root(root).down() is None
        # No customers: the orders table must never be read.
        snapshot = stats.snapshot()
        assert snapshot.get(statnames.TUPLES_SHIPPED, 0) == 0


class TestNavigation:
    def test_down_right_labels(self):
        plan = translate_query(Q1, root_oid="res")
        root = VNode.root(LazyEngine(fresh_catalog()).evaluate_tree(plan))
        first = root.down()
        assert first.label() == "CustRec"
        second = first.right()
        assert second.label() == "CustRec"
        assert root.label() == "list"

    def test_leaf_value_fetch(self):
        plan = translate_query(
            "FOR $C IN document(root1)/customer RETURN $C", root_oid="res"
        )
        root = VNode.root(LazyEngine(fresh_catalog()).evaluate_tree(plan))
        customer = root.down()
        id_elem = customer.down()
        assert id_elem.label() == "id"
        assert id_elem.value() is None  # non-leaf
        assert id_elem.down().value() in ("XYZ", "DEF", "ABC")

    def test_right_at_root_is_none(self):
        plan = translate_query(Q1, root_oid="res")
        root = VNode.root(LazyEngine(fresh_catalog()).evaluate_tree(plan))
        assert root.right() is None

    def test_walk_fully_counts(self):
        plan = translate_query(
            "FOR $C IN document(root1)/customer RETURN $C", root_oid="res"
        )
        root = VNode.root(LazyEngine(fresh_catalog()).evaluate_tree(plan))
        # 1 root + 3 customers * (1 + 3 fields * 2 nodes) = 22
        assert walk_fully(root) == 22


class TestSortednessInference:
    def test_orderby_establishes(self):
        plan = OrderBy(("$X",), MkSrc("d", "$X"))
        assert infer_sorted_vars(plan) == ("$X",)

    def test_unary_ops_pass_through(self):
        plan = GetD(
            "$X", Path.of("a"), "$Y", OrderBy(("$X",), MkSrc("d", "$X"))
        )
        assert infer_sorted_vars(plan) == ("$X",)

    def test_mksrc_gives_nothing(self):
        assert infer_sorted_vars(MkSrc("d", "$X")) == ()

    def test_project_keeps_the_prefix_it_binds(self):
        sorted_xy = OrderBy(("$X", "$Y"), GetD(
            "$X", Path.of("a"), "$Y", MkSrc("d", "$X")
        ))
        assert infer_sorted_vars(Project(("$X",), sorted_xy)) == ("$X",)
        # Dropping the leading key leaves the rest unclustered.
        assert infer_sorted_vars(Project(("$Y",), sorted_xy)) == ()

    def test_groupby_filters_inherited(self):
        plan = GroupBy(
            ("$X",), "$G", OrderBy(("$X", "$Y"), MkSrc("d", "$X"))
        )
        assert infer_sorted_vars(plan) == ("$X",)
