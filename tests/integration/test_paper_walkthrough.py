"""Integration: the paper's complete worked example, Figures 2-22.

Each test regenerates one of the paper's artifacts from the implemented
pipeline and checks its structure against what the paper shows.
"""

import pytest

from repro import Mediator, render_plan
from repro.algebra import (
    Apply,
    Cat,
    CrElt,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    RelQuery,
    Select,
    SemiJoin,
    TD,
)
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root, decontextualize
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import VNode
from repro.rewriter import Rewriter, push_to_sources
from repro.algebra.values import Skolem
from repro.sources import SourceCatalog
from tests.conftest import Q1, Q8, Q12, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


class TestFig2Database:
    def test_xml_view_of_relational_db(self, catalog):
        customer = next(
            c for c in catalog.iter_children("root1") if c.oid == "&XYZ"
        )
        assert customer.label == "customer"
        fields = {
            c.label: c.children[0].label for c in customer.children
        }
        assert fields == {
            "id": "XYZ", "name": "XYZInc.", "addr": "LosAngeles"
        }
        order = next(
            c for c in catalog.iter_children("root2") if c.oid == "&28904"
        )
        assert order.label == "order"
        assert order.find("value").children[0].label == 2400


class TestFig6Plan:
    def test_operator_stack_matches_figure(self):
        plan = translate_query(Q1, root_oid="rootv")
        # Fig 6, top to bottom: tD, crElt(custRec), cat, apply over
        # nested [tD, crElt(OrderInfo), nSrc] and gBy($C), join, getDs,
        # mksrcs.
        assert isinstance(plan, TD)
        crelt = plan.input
        assert isinstance(crelt, CrElt) and crelt.label == "CustRec"
        cat = crelt.input
        assert isinstance(cat, Cat)
        apply_op = cat.input
        assert isinstance(apply_op, Apply)
        gby = apply_op.input
        assert isinstance(gby, GroupBy) and gby.group_vars == ("$C",)
        join = gby.input
        assert isinstance(join, Join)
        assert len(find_operators(join, MkSrc)) == 2
        assert len(find_operators(join, GetD)) == 4

    def test_rendering_is_readable(self):
        text = render_plan(translate_query(Q1, root_oid="rootv"))
        for token in ("tD(", "crElt(CustRec", "gBy($C", "mksrc(root1",
                      "mksrc(root2", "join("):
            assert token in text


class TestFig7Result:
    def test_skolem_ids_in_result(self, catalog):
        plan = translate_query(Q1, root_oid="rootv")
        tree = EagerEngine(catalog).evaluate_tree(plan)
        custrec = tree.children[0]
        assert isinstance(custrec.oid, Skolem)
        assert custrec.oid.fn == "f"
        # The skolem argument is the customer's key-derived oid.
        assert str(custrec.oid.args[0]).startswith("&")
        orderinfo = custrec.children[1]
        assert isinstance(orderinfo.oid, Skolem)
        assert orderinfo.oid.fn == "g"

    def test_custrec_layout(self, catalog):
        plan = translate_query(Q1, root_oid="rootv")
        tree = EagerEngine(catalog).evaluate_tree(plan)
        for custrec in tree.children:
            assert custrec.children[0].label == "customer"
            assert all(
                c.label == "OrderInfo" for c in custrec.children[1:]
            )


class TestFig9to10Decontextualization:
    def test_fig9_plan_for_q8(self):
        plan = translate_query(Q8)
        assert isinstance(plan, TD)
        (select,) = find_operators(plan, Select)
        assert repr(select.condition).endswith("> 2000")
        (mksrc,) = find_operators(plan, MkSrc)
        assert mksrc.source == "root"

    def test_fig10_composed_plan(self, catalog):
        view = translate_query(Q1, root_oid="rootv")
        root = VNode.root(LazyEngine(catalog).evaluate_tree(view))
        node = root.down()  # a CustRec
        prov = node.require_query_root()
        composed = decontextualize(view, prov, translate_query(Q8))
        oid_selects = [
            s for s in find_operators(composed, Select)
            if s.condition.mode == "oid"
        ]
        assert len(oid_selects) == 1
        # The view's construction operators are all still present.
        assert len(find_operators(composed, CrElt)) == 2


class TestFig13to21RewritingTrace:
    def test_trace_applies_expected_rules(self):
        naive = compose_at_root(
            translate_query(Q1, root_oid="rootv"), translate_query(Q12)
        )
        trace = []
        Rewriter().rewrite(naive, trace=trace)
        fired = {step.rule_name for step in trace}
        assert any("rule 11" in n for n in fired)
        assert any("rules 1-4" in n for n in fired)
        assert any("rules 5-8" in n for n in fired)
        assert any("rule 9" in n for n in fired)
        assert any("select-pushdown" in n for n in fired)
        assert any("live variables" in n for n in fired)
        assert any("rule 12" in n for n in fired)

    def test_fig21_shape(self):
        naive = compose_at_root(
            translate_query(Q1, root_oid="rootv"), translate_query(Q12)
        )
        optimized = Rewriter().rewrite(naive)
        # Fig 21: the semijoin sits below the gBy, on its input.
        gbys = find_operators(optimized, GroupBy)
        assert any(
            isinstance(g.input, SemiJoin) for g in gbys
        )


class TestFig22SqlSplit:
    def test_final_plan_and_sql(self, catalog):
        naive = compose_at_root(
            translate_query(Q1, root_oid="rootv"), translate_query(Q12)
        )
        optimized = Rewriter().rewrite(naive)
        final = push_to_sources(optimized, catalog)
        (rq,) = find_operators(final, RelQuery)
        sql = rq.sql
        # The paper's q1 (modulo alias numbering and DISTINCT):
        assert "FROM customer c1, orders o1, customer c2, orders o2" in sql
        assert "c1.id = c2.id" in sql
        assert ".value > 20000" in sql
        assert "ORDER BY" in sql
        # Mediator part keeps only restructuring/grouping operators.
        mediator_ops = {
            type(op).__name__ for op in find_operators(final, object)
        }
        assert "MkSrc" not in mediator_ops

    def test_final_plan_answer(self, catalog):
        naive = compose_at_root(
            translate_query(Q1, root_oid="rootv"), translate_query(Q12)
        )
        final = push_to_sources(Rewriter().rewrite(naive), catalog)
        tree = EagerEngine(catalog).evaluate_tree(final)
        ids = sorted(
            c.find("customer").find("id").children[0].label
            for c in tree.children
        )
        assert ids == ["ABC", "DEF"]


class TestEndToEndThroughMediator:
    def test_full_session(self, catalog):
        mediator = Mediator(catalog=catalog)
        root = mediator.query(Q1)
        assert len(root.children()) == 3
        refined = root.q(Q12.replace("rootv", "root"))
        ids = sorted(
            c.find("customer").find("id").d().fv()
            for c in refined.children()
        )
        assert ids == ["ABC", "DEF"]
        # And a query from a node of the *refined* result.
        first = refined.d()
        deeper = first.q(
            "FOR $O IN document(root)/OrderInfo RETURN $O"
        )
        assert all(c.fl() == "OrderInfo" for c in deeper.children())
