"""Error paths and fallbacks of the engines and the composer."""

import pytest

from repro.errors import CompositionError, EvaluationError
from repro.xmltree.paths import Path
from repro.algebra import (
    Cat,
    Condition,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    Select,
    TD,
)
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.composer import decontextualize
from repro.engine.eager import EagerEngine
from repro.engine.lazy import LazyEngine
from repro.engine.vtree import Provenance, VNode
from repro.sources import SourceCatalog
from tests.conftest import Q1, make_paper_wrapper


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


class TestEngineErrors:
    def test_mksrc_over_non_td_input_lazy(self, catalog):
        bad = MkSrc("v", "$X", MkSrc("root1", "$K"))
        with pytest.raises(EvaluationError):
            LazyEngine(catalog).stream(bad, {}).tuples

    def test_td_over_nested_set_rejected(self, catalog):
        plan = TD(
            "$G",
            GroupBy(("$K",), "$G", MkSrc("root1", "$K")),
        )
        with pytest.raises(EvaluationError):
            EagerEngine(catalog).evaluate_tree(plan)

    def test_td_over_nested_set_rejected_lazy(self, catalog):
        plan = TD(
            "$G",
            GroupBy(("$K",), "$G", MkSrc("root1", "$K")),
        )
        root = LazyEngine(catalog).evaluate_tree(plan)
        with pytest.raises(EvaluationError):
            root.child(0)  # the error surfaces on navigation

    def test_cat_over_set_value_rejected(self, catalog):
        plan = Cat(
            "$G", False, "$K", True, "$Z",
            GroupBy(("$K",), "$G", MkSrc("root1", "$K")),
        )
        with pytest.raises(EvaluationError):
            EagerEngine(catalog).evaluate(plan)

    def test_join_condition_must_span_inputs_lazy(self, catalog):
        # Both condition variables on the same side.
        left = GetD(
            "$K", Path.parse("customer.id"), "$A", MkSrc("root1", "$K")
        )
        right = MkSrc("root2", "$J")
        plan = Join((Condition.var_var("$A", "=", "$K"),), left, right)
        with pytest.raises(EvaluationError):
            LazyEngine(catalog).stream(plan, {}).tuples


class TestDecontextFallbacks:
    def test_translated_plans_always_fuse(self, catalog):
        """The translator isolates the root variable behind getDs, so
        the efficient fusion path applies and no wildcard expansion is
        needed."""
        view = translate_query(Q1, root_oid="rootv")
        node = VNode.root(LazyEngine(catalog).evaluate_tree(view)).down()
        prov = node.require_query_root()
        query = translate_query(
            "FOR $M IN document(root)/customer RETURN $M"
        )
        composed = decontextualize(view, prov, query)
        getds = find_operators(composed, GetD)
        assert all("*" not in repr(g.path) for g in getds)
        tree = EagerEngine(catalog).evaluate_tree(composed)
        assert [c.label for c in tree.children] == ["customer"]

    def test_child_expansion_when_root_var_escapes_getd(self, catalog):
        """A hand-built plan that exports the root's children directly
        cannot fuse; the generic child-expansion getD is inserted."""
        view = translate_query(Q1, root_oid="rootv")
        node = VNode.root(LazyEngine(catalog).evaluate_tree(view)).down()
        prov = node.require_query_root()
        # 'Return every child of the context node' — the mksrc variable
        # feeds the tD itself.
        query = TD("$M", MkSrc("root", "$M"))
        composed = decontextualize(view, prov, query)
        getds = find_operators(composed, GetD)
        assert any("*" in repr(g.path) for g in getds)
        tree = EagerEngine(catalog).evaluate_tree(composed)
        labels = [c.label for c in tree.children]
        assert labels[0] == "customer"
        assert all(l == "OrderInfo" for l in labels[1:])

    def test_unpinnable_variable_rejected(self, catalog):
        view = translate_query(Q1, root_oid="rootv")
        query = translate_query(Q1.replace("root1", "root"))
        with pytest.raises(CompositionError):
            decontextualize(
                view,
                Provenance("$V9", {"$NOT_IN_VIEW": "&X"}),
                query,
            )

    def test_unknown_context_variable_rejected(self, catalog):
        view = translate_query(Q1, root_oid="rootv")
        query = translate_query(
            "FOR $M IN document(root)/x RETURN $M"
        )
        with pytest.raises(CompositionError):
            decontextualize(view, Provenance("$GHOST", {}), query)
