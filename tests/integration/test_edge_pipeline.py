"""Integration edge cases: empty results, unsatisfiable paths, errors."""

import pytest

from repro import Mediator
from repro.errors import (
    TranslationError,
    UnknownSourceError,
    XQueryParseError,
)
from repro.algebra import Empty
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root
from repro.rewriter import Rewriter
from tests.conftest import Q1, make_paper_wrapper


@pytest.fixture
def mediator(paper_wrapper):
    return Mediator().add_source(paper_wrapper)


class TestEmptyResults:
    def test_unsatisfiable_selection(self, mediator):
        root = mediator.query(
            "FOR $C IN document(root1)/customer"
            ' WHERE $C/id/data() = "NOBODY" RETURN $C'
        )
        assert root.d() is None
        assert root.children() == []

    def test_unsatisfiable_path_rewrites_to_empty(self):
        view = translate_query(Q1, root_oid="rootv")
        bogus = translate_query(
            "FOR $R IN document(rootv)/NoSuchElement RETURN $R"
        )
        optimized = Rewriter().rewrite(compose_at_root(view, bogus))
        assert find_operators(optimized, Empty)

    def test_unsatisfiable_composed_query_runs_empty(self, mediator):
        root = mediator.query(Q1)
        result = root.q(
            "FOR $R IN document(root)/NoSuchElement RETURN $R"
        )
        assert result.children() == []

    def test_in_place_query_wrong_inner_label(self, mediator):
        node = mediator.query(Q1).d()
        result = node.q(
            "FOR $X IN document(root)/Bogus/deeper RETURN $X"
        )
        assert result.children() == []


class TestErrorPaths:
    def test_unknown_document(self, mediator):
        with pytest.raises(UnknownSourceError):
            mediator.query(
                "FOR $X IN document(nowhere)/a RETURN $X"
            ).d()

    def test_malformed_query(self, mediator):
        with pytest.raises(XQueryParseError):
            mediator.query("FOR $X RETURN $X")

    def test_correlated_subquery_rejected_at_translation(self, mediator):
        with pytest.raises(TranslationError):
            mediator.query(
                "FOR $A IN document(root1)/customer RETURN <R>"
                " FOR $B IN $A/id RETURN $B </R>"
            )


class TestUnusualShapes:
    def test_self_join_of_one_table(self, mediator):
        root = mediator.query(
            "FOR $A IN document(root1)/customer,"
            " $B IN document(root1)/customer"
            " WHERE $A/addr/data() = $B/addr/data()"
            " RETURN <Pair> $A $B </Pair> {$A, $B}"
        )
        # Each customer pairs with itself (all addrs distinct).
        assert len(root.children()) == 3

    def test_inequality_join(self, mediator):
        root = mediator.query(
            "FOR $A IN document(root2)/order,"
            " $B IN document(root2)/order"
            " WHERE $A/value/data() < $B/value/data()"
            " RETURN <Lt> $A $B </Lt> {$A, $B}"
        )
        # 4 orders with distinct values: C(4,2) = 6 ordered pairs.
        assert len(root.children()) == 6

    def test_document_rooted_where_operand(self, mediator):
        root = mediator.query(
            "FOR $C IN document(root1)/customer"
            " WHERE $C/id/data() = document(root2)/order/cid/data()"
            " RETURN $C"
        )
        ids = sorted(
            c.find("id").d().fv() for c in root.children()
        )
        assert ids == ["ABC", "DEF", "XYZ"]

    def test_wildcard_path(self, mediator):
        root = mediator.query(
            "FOR $F IN document(root1)/customer/* RETURN <F> $F </F>"
        )
        # 3 customers x 3 fields.
        assert len(root.children()) == 9

    def test_deep_nesting_three_levels(self, mediator):
        root = mediator.query(
            "FOR $C IN document(root1)/customer,"
            " $O IN document(root2)/order"
            " WHERE $C/id/data() = $O/cid/data()"
            " RETURN <A> <B> $C </B> {$C}"
            " <Cc> $O </Cc> {$O} </A> {$C}"
        )
        first = root.d()
        assert first.fl() == "A"
        assert first.d().fl() == "B"

    def test_repeated_in_place_refinement_chain(self, mediator):
        root = mediator.query(Q1)
        step1 = root.q(
            "FOR $R IN document(root)/CustRec RETURN $R"
        )
        step2 = step1.q(
            "FOR $R IN document(root)/CustRec"
            ' WHERE $R/customer/addr/data() = "NewYork" RETURN $R'
        )
        recs = step2.children()
        assert len(recs) == 1
        assert recs[0].find("customer").find("id").d().fv() == "DEF"

    def test_duplicate_distinct_where_conditions(self, mediator):
        root = mediator.query(
            "FOR $O IN document(root2)/order"
            " WHERE $O/value/data() > 100 AND $O/value/data() < 50000"
            " RETURN $O"
        )
        values = sorted(
            c.find("value").d().fv() for c in root.children()
        )
        assert values == [2400, 30000]


class TestExponentLiterals:
    """A float whose text form has an exponent (``1e-05``, ``1e+16``)
    travels through pushed SQL like any other literal."""

    QUERY = (
        "FOR $O IN document(root2)/order WHERE $O/value/data() < {} "
        "RETURN $O"
    )

    @staticmethod
    def answers(literal, **switches):
        from repro.workloads import build_customers_orders

        built = build_customers_orders(n_customers=2, orders_per_customer=2)
        mediator = Mediator(stats=built.stats, **switches)
        mediator.add_source(built.wrapper)
        text = TestExponentLiterals.QUERY.format(literal)
        mediator.explain(text)
        return [child.oid for child in mediator.query(text).children()]

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize(
        "literal, count", [("0.00001", 0), ("10000000000000000.0", 4)]
    )
    def test_answers_equal_the_unpushed_answers(self, literal, count, cache):
        unpushed = self.answers(literal, cache=cache, push_sql=False)
        assert len(unpushed) == count
        assert self.answers(literal, cache=cache) == unpushed


def test_string_literal_against_an_analyzed_numeric_column():
    """The cost model places only numbers in a numeric histogram; a
    string compared with a number is false for every row."""
    from repro.workloads import build_customers_orders

    text = (
        'FOR $O IN document(root2)/order WHERE $O/orid/data() < "abc" '
        "RETURN $O"
    )
    answers = []
    for push_sql in (True, False):
        built = build_customers_orders(n_customers=2, orders_per_customer=2)
        mediator = Mediator(stats=built.stats, push_sql=push_sql)
        mediator.add_source(built.wrapper).analyze_sources()
        answers.append(mediator.query(text).children())
    assert answers == [[], []]
