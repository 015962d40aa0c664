"""Tests for composition (§6) and decontextualization (§5)."""

import pytest

from repro.errors import CompositionError
from repro.algebra import GetD, MkSrc, Select, TD
from repro.algebra.plan import all_vars, find_operators
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root, decontextualize, freshen_against
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import Provenance, VNode
from repro.qdom import Mediator
from repro.sources import SourceCatalog
from repro.workloads import build_customers_orders
from repro.xmltree import serialize
from tests.conftest import Q1, Q8, Q12, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def view_plan():
    return translate_query(Q1, root_oid="rootv")


class TestFreshen:
    def test_no_collision_keeps_names(self):
        plan_a = translate_query("FOR $A IN document(d)/x RETURN $A")
        plan_b = translate_query("FOR $B IN document(d)/y RETURN $B")
        renamed, mapping = freshen_against(plan_a, plan_b)
        assert "$A" in all_vars(renamed)

    def test_collisions_renamed(self):
        plan_a = translate_query("FOR $A IN document(d)/x RETURN $A")
        plan_b = translate_query("FOR $A IN document(d)/y RETURN $A")
        renamed, mapping = freshen_against(plan_a, plan_b)
        assert "$A" in mapping
        assert "$A" not in all_vars(renamed)


class TestComposeAtRoot:
    def test_naive_shape(self):
        composed = compose_at_root(view_plan(), translate_query(Q12))
        # Fig. 13: the query's mksrc(rootv, ...) now has the view as input
        mksrcs = [
            op for op in find_operators(composed, MkSrc)
            if op.input is not None
        ]
        assert len(mksrcs) == 1
        assert isinstance(mksrcs[0].input, TD)

    def test_requires_root_reference(self):
        other = translate_query("FOR $A IN document(other)/x RETURN $A")
        with pytest.raises(CompositionError):
            compose_at_root(view_plan(), other)

    def test_requires_td_rooted_view(self):
        with pytest.raises(CompositionError):
            compose_at_root(MkSrc("d", "$X"), translate_query(Q12))

    def test_composition_semantics(self, catalog):
        """eval(compose(q1, q2)) == eval q2 over the materialized q1."""
        composed = compose_at_root(view_plan(), translate_query(Q12))
        eager = EagerEngine(catalog)
        composed_tree = eager.evaluate_tree(composed)

        # Reference: materialize the view, expose it as a document, and
        # run q2 over it directly.
        from repro.sources import XmlFileSource

        view_tree = eager.evaluate_tree(view_plan())
        ref_catalog = SourceCatalog().register_document(
            "rootv", XmlFileSource().add_tree("rootv", view_tree)
        )
        ref_tree = EagerEngine(ref_catalog).evaluate_tree(
            translate_query(Q12)
        )
        ids = lambda t: sorted(
            c.find("customer").find("id").children[0].label
            for c in t.children
        )
        assert ids(composed_tree) == ids(ref_tree) == ["ABC", "DEF"]

    def test_double_root_reference(self, catalog):
        query = translate_query(
            "FOR $A IN document(root)/CustRec,"
            " $B IN document(root)/CustRec"
            " WHERE $A/customer/id/data() = $B/customer/id/data()"
            " RETURN $A"
        )
        composed = compose_at_root(view_plan(), query, view_id="rootv")
        tree = EagerEngine(catalog).evaluate_tree(composed)
        assert len(tree.children) == 3  # each CustRec matches itself


class TestDecontextualize:
    def _custrec_node(self, catalog, index=0):
        engine = LazyEngine(catalog)
        plan = view_plan()
        root = VNode.root(engine.evaluate_tree(plan))
        node = root.down()
        for _ in range(index):
            node = node.right()
        return plan, node

    def test_fig10_shape(self, catalog):
        plan, node = self._custrec_node(catalog)
        prov = node.require_query_root()
        query = translate_query(Q8)
        composed = decontextualize(plan, prov, query)
        # A pinning select over the view body (Fig. 10's $C = &XYZ123).
        selects = [
            op for op in find_operators(composed, Select)
            if op.condition.mode == "oid"
        ]
        assert len(selects) == 1
        # The query's getD was re-rooted at the context variable with the
        # context label prefixed.
        getds = find_operators(composed, GetD)
        assert any(repr(g.path).startswith("CustRec.") for g in getds)
        # No dangling root mksrc remains.
        assert all(
            str(op.source).lstrip("&") != "root"
            for op in find_operators(composed, MkSrc)
        )

    def test_query_from_node_semantics(self, catalog):
        plan, node = self._custrec_node(catalog)  # first CustRec (XYZ)
        cust_id = (
            node.down().node.find("id").children[0].label
        )
        prov = node.require_query_root()
        composed = decontextualize(plan, prov, translate_query(Q8))
        tree = EagerEngine(catalog).evaluate_tree(composed)
        values = [
            oi.find("order").find("value").children[0].label
            for oi in tree.children
        ]
        if cust_id == "XYZ":
            assert values == [2400]
        else:
            assert all(v > 2000 for v in values)

    def test_equivalent_to_materialize_subtree(self, catalog):
        """Decontextualized query == same query over the materialized
        subtree at the start node (the paper's correctness criterion)."""
        from repro.engine.vtree import vnode_to_tree
        from repro.sources import XmlFileSource

        plan, node = self._custrec_node(catalog, index=1)
        prov = node.require_query_root()
        composed = decontextualize(plan, prov, translate_query(Q8))
        decon_tree = EagerEngine(catalog).evaluate_tree(composed)

        subtree = vnode_to_tree(node)
        ref_catalog = SourceCatalog().register_document(
            "root", XmlFileSource().add_tree("root", subtree)
        )
        ref_tree = EagerEngine(ref_catalog).evaluate_tree(
            translate_query(Q8)
        )
        values = lambda t: sorted(
            oi.find("order").find("value").children[0].label
            for oi in t.children
        )
        assert values(decon_tree) == values(ref_tree)

    def test_root_provenance_falls_back_to_compose(self, catalog):
        plan = view_plan()
        composed = decontextualize(
            plan, Provenance(None, {}), translate_query(Q12),
            view_id="rootv",
        )
        mksrcs = [
            op for op in find_operators(composed, MkSrc)
            if op.input is not None
        ]
        assert len(mksrcs) == 1

    def test_unaddressable_node_rejected(self):
        with pytest.raises(CompositionError):
            decontextualize(
                view_plan(),
                Provenance(None, {"$C": "&XYZ"}),
                translate_query(Q8),
            )


class TestQueryFromNamedView:
    """A ``q`` from a node a named view built: the naive plan still
    reads the view through its ``mksrc``/``tD`` pair, which only the
    rewriter folds, and decontextualization must look inside it."""

    VIEW = "FOR $O IN document(root2)/order RETURN <Rec> $O </Rec>"
    QUERY = (
        "FOR $X IN document(root)/order WHERE $X/value/data() > 0 "
        "RETURN $X"
    )

    def answers(self, optimize, push_sql):
        built = build_customers_orders(n_customers=1, orders_per_customer=2)
        mediator = Mediator(
            optimize=optimize, push_sql=push_sql
        ).add_source(built.wrapper)
        mediator.define_view("vw", self.VIEW)
        rec = mediator.query("FOR $R IN document(vw)/Rec RETURN $R").d()
        answers = []
        while rec is not None:
            answer = rec.q(self.QUERY).to_tree()
            # The tuple object's key oid, and its content (the field
            # nodes' surrogate oids differ run to run).
            answers.append([(c.oid, serialize(c)) for c in answer.children])
            rec = rec.r()
        return answers

    @pytest.mark.parametrize("push_sql", [True, False])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_answers_equal_the_optimized_ones(self, optimize, push_sql):
        expected = self.answers(optimize=True, push_sql=True)
        assert [len(a) for a in expected] == [1, 1]
        assert self.answers(optimize, push_sql) == expected
