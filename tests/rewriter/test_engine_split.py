"""Tests for the rewrite driver and the SQL split (Fig. 22)."""

import pytest

from repro.errors import RewriteError
from repro.algebra import (
    GroupBy,
    MkSrc,
    RelQuery,
    Select,
    SemiJoin,
    TD,
)
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root
from repro.engine.eager import EagerEngine
from repro.rewriter import Rewriter, push_to_sources
from repro.rewriter.engine import rewrite_plan
from repro.sources import SourceCatalog
from repro.xmltree import deep_equals
from tests.conftest import Q1, Q12, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def composed_plan():
    view = translate_query(Q1, root_oid="rootv")
    query = translate_query(Q12)
    return compose_at_root(view, query)


class TestRewriteDriver:
    def test_composition_reaches_fixpoint(self):
        trace = []
        optimized = Rewriter().rewrite(composed_plan(), trace=trace)
        assert trace, "at least one rule must fire"
        # rule 11 fires exactly once for one composition
        names = [step.rule_name for step in trace]
        assert sum("rule 11" in n for n in names) == 1
        # The naive mksrc-over-tD pair is gone.
        assert all(
            op.input is None for op in find_operators(optimized, MkSrc)
        )

    def test_rewrite_preserves_set_of_results(self, catalog):
        naive = composed_plan()
        optimized = Rewriter().rewrite(composed_plan())
        eager = EagerEngine(catalog)
        naive_tree = eager.evaluate_tree(naive)
        optimized_tree = eager.evaluate_tree(optimized)
        # Set semantics: compare the distinct CustRec children.
        def custrec_ids(tree):
            return {
                child.find("customer").find("id").children[0].label
                for child in tree.children
            }

        assert custrec_ids(naive_tree) == custrec_ids(optimized_tree)
        assert custrec_ids(naive_tree) == {"ABC", "DEF"}

    def test_set_mode_introduces_semijoin(self):
        optimized = Rewriter().rewrite(composed_plan())
        assert len(find_operators(optimized, SemiJoin)) >= 1

    def test_nonconvergence_guard(self):
        with pytest.raises(RewriteError):
            Rewriter(max_steps=1).rewrite(composed_plan())

    def test_convenience_wrapper(self):
        assert rewrite_plan(composed_plan()) is not None


class TestSqlSplit:
    def test_view_plan_pushes_join(self, catalog):
        plan = translate_query(Q1, root_oid="rootv")
        pushed = push_to_sources(plan, catalog)
        rqs = find_operators(pushed, RelQuery)
        assert len(rqs) == 1
        (rq,) = rqs
        assert "customer c1" in rq.sql
        assert "orders o1" in rq.sql
        assert "c1.id = o1.cid" in rq.sql
        # No mksrc left below the pushed subtree.
        assert find_operators(pushed, MkSrc) == []

    def test_order_by_for_gby(self, catalog):
        plan = translate_query(Q1, root_oid="rootv")
        pushed = push_to_sources(plan, catalog)
        (rq,) = find_operators(pushed, RelQuery)
        assert "ORDER BY c1.id, o1.orid" in rq.sql
        assert rq.order_vars == ("$C",)

    def test_fig22_composition_sql(self, catalog):
        optimized = Rewriter().rewrite(composed_plan())
        pushed = push_to_sources(optimized, catalog)
        (rq,) = find_operators(pushed, RelQuery)
        sql = rq.sql
        # The paper's q1 shape: a four-way self-join with the value
        # condition and the key equalities, ordered for the gBy.
        assert sql.count("customer") == 2
        assert sql.count("orders") == 2
        assert "o1.value > 20000" in sql or "o2.value > 20000" in sql
        assert "c1.id = c2.id" in sql
        assert "DISTINCT" in sql
        assert "ORDER BY" in sql

    def test_pushed_plan_evaluates_identically(self, catalog):
        # The pushed SQL adds ORDER BY (for the presorted gBy), so both
        # the CustRec order and the within-group order may differ;
        # compare the grouping structure order-insensitively.
        plan = translate_query(Q1, root_oid="rootv")
        pushed = push_to_sources(plan, catalog)
        eager = EagerEngine(catalog)

        def canonical(tree):
            shape = set()
            for custrec in tree.children:
                cust_id = custrec.find("customer").find("id").children[0].label
                orders = frozenset(
                    oi.find("order").find("orid").children[0].label
                    for oi in custrec.children_labeled("OrderInfo")
                )
                shape.add((cust_id, orders))
            return shape

        assert canonical(eager.evaluate_tree(plan)) == canonical(
            eager.evaluate_tree(pushed)
        )

    def test_oid_select_compiled_to_key_predicate(self, catalog):
        from repro.algebra import Condition
        from repro.xmltree.paths import Path
        from repro.algebra import GetD

        plan = TD(
            "$C",
            Select(
                Condition.oid_equals("$C", "&XYZ"),
                GetD("$K", Path.of("customer"), "$C",
                     MkSrc("root1", "$K")),
            ),
        )
        pushed = push_to_sources(plan, catalog)
        (rq,) = find_operators(pushed, RelQuery)
        assert "c1.id = 'XYZ'" in rq.sql

    def test_bare_mksrc_not_pushed(self, catalog):
        plan = TD("$K", MkSrc("root1", "$K"))
        pushed = push_to_sources(plan, catalog)
        assert find_operators(pushed, RelQuery) == []

    def test_nonrelational_source_untouched(self):
        from repro.sources import XmlFileSource
        from repro.xmltree import elem

        catalog = SourceCatalog().register_document(
            "xdoc", XmlFileSource().add_tree("xdoc", elem("list"))
        )
        plan = translate_query(
            "FOR $A IN document(xdoc)/a WHERE $A/v/data() = 1 RETURN $A"
        )
        pushed = push_to_sources(plan, catalog)
        assert find_operators(pushed, RelQuery) == []
