"""Tests for named virtual views (view expansion via composition)."""

import pytest

from repro import Mediator
from repro.errors import CompositionError
from repro import stats as statnames
from tests.conftest import Q1, make_paper_wrapper, make_scaled_wrapper

CUSTVIEW = """
FOR $C IN document(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""


@pytest.fixture
def mediator(paper_wrapper):
    return (
        Mediator()
        .add_source(paper_wrapper)
        .define_view("custview", CUSTVIEW)
    )


class TestDefinition:
    def test_view_names(self, mediator):
        assert mediator.view_names() == ["custview"]

    def test_name_collision_with_document(self, paper_wrapper):
        mediator = Mediator().add_source(paper_wrapper)
        with pytest.raises(CompositionError):
            mediator.define_view("root1", CUSTVIEW)

    def test_invalid_view_rejected_at_definition(self, paper_wrapper):
        from repro.errors import XQueryParseError

        mediator = Mediator().add_source(paper_wrapper)
        with pytest.raises(XQueryParseError):
            mediator.define_view("v", "not a query")


class TestQueryingViews:
    def test_query_over_view(self, mediator):
        root = mediator.query(
            "FOR $R IN document(custview)/CustRec,"
            " $S IN $R/OrderInfo"
            " WHERE $S/order/value/data() > 20000"
            " RETURN $R"
        )
        ids = sorted(
            c.find("customer").find("id").d().fv()
            for c in root.children()
        )
        assert ids == ["ABC", "DEF"]

    def test_view_on_view(self, paper_wrapper):
        mediator = (
            Mediator()
            .add_source(paper_wrapper)
            .define_view("custview", CUSTVIEW)
            .define_view(
                "bigspenders",
                "FOR $R IN document(custview)/CustRec,"
                " $S IN $R/OrderInfo"
                " WHERE $S/order/value/data() > 20000"
                " RETURN <Spender> $R </Spender> {$R}",
            )
        )
        root = mediator.query(
            "FOR $X IN document(bigspenders)/Spender RETURN $X"
        )
        assert len(root.children()) == 2

    def test_cyclic_views_detected(self, paper_wrapper):
        mediator = (
            Mediator()
            .add_source(paper_wrapper)
            .define_view(
                "a", "FOR $X IN document(b)/Thing RETURN <A> $X </A>"
            )
            .define_view(
                "b", "FOR $X IN document(a)/A RETURN <Thing> $X </Thing>"
            )
        )
        with pytest.raises(CompositionError):
            mediator.query("FOR $X IN document(a)/A RETURN $X")

    def test_in_place_query_unaffected_by_views(self, mediator):
        # An in-place query's document(root) must not be captured by
        # view expansion.
        root = mediator.query(Q1)
        node = root.d()
        while node.find("customer").find("id").d().fv() != "XYZ":
            node = node.r()
        refined = node.q(
            "FOR $O IN document(root)/OrderInfo"
            " WHERE $O/order/value/data() < 500 RETURN $O"
        )
        assert len(refined.children()) == 1

    def test_in_place_query_may_reference_views(self, mediator):
        root = mediator.query(Q1)
        node = root.d()
        result = node.q(
            "FOR $O IN document(root)/OrderInfo,"
            " $R IN document(custview)/CustRec"
            " WHERE $O/order/cid/data() = $R/customer/id/data()"
            " RETURN <Check> $O </Check> {$O}"
        )
        assert all(c.fl() == "Check" for c in result.children())


class TestViewEfficiency:
    def test_view_conditions_reach_the_source(self):
        """Combined view+query conditions are pushed as one SQL query."""
        stats = None
        from repro import Instrument

        stats = Instrument()
        wrapper = make_scaled_wrapper(100, 5, stats=stats)
        mediator = (
            Mediator(stats=stats)
            .add_source(wrapper)
            .define_view("custview", CUSTVIEW)
        )
        root = mediator.query(
            "FOR $S IN document(custview)/CustRec/OrderInfo"
            " WHERE $S/order/value/data() > 10000 RETURN $S"
        )
        assert root.children() == []  # max value is 500
        # The empty answer was established with little traffic: the
        # value condition reached the SQL (no 500-tuple join shipping).
        assert stats.get(statnames.TUPLES_SHIPPED) < 250
