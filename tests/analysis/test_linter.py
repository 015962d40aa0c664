"""The schema-aware linter: dead paths, unsatisfiable predicates,
unused variables — each finding pointing at its source line/column."""

from __future__ import annotations

import pytest

from tests.conftest import Q1, Q12, make_paper_wrapper

from repro import Mediator
from repro.analysis import DocumentSchema, catalog_schemas, lint_query
from repro.sources import Source, SourceCatalog, XmlFileSource


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


def codes(diagnostics):
    return [d.code for d in diagnostics]


def at(diagnostics, code):
    """The single diagnostic with ``code``."""
    found = [d for d in diagnostics if d.code == code]
    assert len(found) == 1, "expected exactly one {}: {}".format(
        code, diagnostics
    )
    return found[0]


class TestCatalogSchemas:
    def test_derives_both_paper_documents(self, catalog):
        schemas = catalog_schemas(catalog)
        assert set(schemas) == {"root1", "root2"}
        assert schemas["root1"].label == "customer"
        assert schemas["root2"].label == "order"
        assert set(schemas["root1"].columns) == {"id", "name", "addr"}
        assert schemas["root2"].columns["value"] == "INTEGER"
        assert schemas["root1"].columns["id"] == "TEXT"

    def test_none_catalog_gives_no_schemas(self):
        assert catalog_schemas(None) == {}


class TestCleanQueries:
    def test_q1_is_clean(self, catalog):
        assert lint_query(Q1, catalog=catalog) == []

    def test_view_query_is_clean_with_views_declared(self, catalog):
        assert lint_query(Q12, catalog=catalog, views=("rootv",)) == []

    def test_no_catalog_no_findings(self):
        # Without schemas everything is unknown: never guess.
        assert lint_query(Q1) == []


class TestDeadPaths:
    def test_misspelled_column_in_binding(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $N IN $C/naem\n"
            "RETURN <R> $N </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W001")
        assert "naem" in diag.message
        assert "addr, id, name" in diag.message
        assert (diag.span.line, diag.span.column) == (2, 11)

    def test_misspelled_tuple_label_at_the_root(self, catalog):
        query = (
            "FOR $C IN source(root1)/customers\n"
            "RETURN <R> $C </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W001")
        assert "customers" in diag.message
        assert (diag.span.line, diag.span.column) == (1, 11)

    def test_step_below_a_field_is_dead(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $X IN $C/id/city\n"
            "RETURN <R> $X </R>"
        )
        assert "MIX-W001" in codes(lint_query(query, catalog=catalog))

    def test_dead_path_in_a_condition(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE $C/zip/data() = 90210\n"
            "RETURN <R> $C </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W001")
        assert (diag.span.line, diag.span.column) == (2, 7)

    def test_wildcard_steps_stay_alive(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE $C/*/data() = \"XYZ\"\n"
            "RETURN <R> $C </R>"
        )
        assert lint_query(query, catalog=catalog) == []


class TestTypeAndRangeChecks:
    def test_text_column_compared_with_number(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE $C/addr/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W002")
        assert "TEXT" in diag.message and "'addr'" in diag.message
        assert (diag.span.line, diag.span.column) == (2, 7)

    def test_integer_column_compared_with_string(self, catalog):
        query = (
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() = \"many\"\n"
            "RETURN <R> $O </R>"
        )
        assert "MIX-W002" in codes(lint_query(query, catalog=catalog))

    def test_literal_on_the_left_is_normalized(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE 17 = $C/addr/data()\n"
            "RETURN <R> $C </R>"
        )
        assert "MIX-W002" in codes(lint_query(query, catalog=catalog))

    def test_contradictory_ranges(self, catalog):
        query = (
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() > 100 AND $O/value/data() < 50\n"
            "RETURN <R> $O </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W003")
        assert "admits no value" in diag.message
        assert diag.span.line == 2

    def test_equal_bounds_are_satisfiable(self, catalog):
        query = (
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() >= 100 AND $O/value/data() <= 100\n"
            "RETURN <R> $O </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_ranges_on_distinct_paths_do_not_interact(self, catalog):
        query = (
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() > 100 AND $O/orid/data() < 50\n"
            "RETURN <R> $O </R>"
        )
        assert lint_query(query, catalog=catalog) == []


RANGE_QUERY = (
    "FOR $O IN document(root2)/order\n"
    "WHERE $O/value/data() > 500000\n"
    "RETURN <Big> $O </Big>"
)


class TestStatisticsRanges:
    def _mediator(self):
        return Mediator().add_source(make_paper_wrapper())

    def test_without_statistics_out_of_range_is_not_flagged(self):
        mediator = self._mediator()
        assert mediator.lint(RANGE_QUERY) == []

    def test_fresh_statistics_flag_out_of_range_predicates(self):
        mediator = self._mediator()
        mediator.analyze_sources()
        diag = at(mediator.lint(RANGE_QUERY), "MIX-W003")
        assert "[100, 200000]" in diag.message
        assert "'value'" in diag.message

    def test_in_range_predicate_stays_clean(self):
        mediator = self._mediator()
        mediator.analyze_sources()
        query = RANGE_QUERY.replace("500000", "5000")
        assert mediator.lint(query) == []

    def test_stale_statistics_are_never_used(self):
        # The PR-4 freshness contract: after a write the old min/max
        # must not condemn a predicate the new data might satisfy.
        mediator = self._mediator()
        mediator.analyze_sources()
        for source in mediator.catalog.sources():
            source.database.run(
                "INSERT INTO orders VALUES (999, 'ABC', 900000)"
            )
        assert mediator.lint(RANGE_QUERY) == []


class TestUnusedAndUnknown:
    def test_unused_for_variable(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $O IN document(root2)/order\n"
            "RETURN <R> $C </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W004")
        assert "$O" in diag.message
        assert (diag.span.line, diag.span.column) == (2, 5)

    def test_variable_used_only_as_a_binding_root_counts(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $I IN $C/id\n"
            "RETURN <R> $I </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_variable_used_in_group_by_counts(self, catalog):
        assert lint_query(Q1, catalog=catalog) == []

    def test_variable_used_by_nested_query_counts(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "RETURN <R> FOR $O IN document(root2)/order\n"
            "WHERE $C/id/data() = $O/cid/data()\n"
            "RETURN <O> $O </O> </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_unknown_document(self, catalog):
        query = (
            "FOR $X IN document(root9)/thing\n"
            "RETURN <R> $X </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W005")
        assert "root9" in diag.message
        assert "root1" in diag.message  # the known alternatives

    def test_views_suppress_unknown_document(self, catalog):
        query = (
            "FOR $X IN document(rootv)/CustRec\n"
            "RETURN <R> $X </R>"
        )
        assert lint_query(query, catalog=catalog, views=("rootv",)) == []


class TestMissingData:
    def test_field_vs_literal_suggests_data(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE $C/id = \"XYZ\"\n"
            "RETURN <R> $C </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W006")
        assert "data()" in diag.message and "id" in diag.message
        assert (diag.span.line, diag.span.column) == (2, 7)

    def test_field_vs_field_join_is_fine(self, catalog):
        # Oid/structural joins on elements are legitimate; only the
        # element-vs-literal shape suggests a forgotten data().
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $O IN document(root2)/order\n"
            "WHERE $C/id = $O/cid\n"
            "RETURN <R> $C <O> $O </O> {$O} </R> {$C}"
        )
        assert "MIX-W006" not in codes(lint_query(query, catalog=catalog))


class TestDocRootedConditionOperands:
    # Condition operands may navigate from document roots directly —
    # the resolver walks them against the same catalog schemas.
    def test_known_document_path_resolves_to_a_column(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE document(root1)/customer/id/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        assert "MIX-W002" in codes(lint_query(query, catalog=catalog))

    def test_query_root_operand_is_unknown(self, catalog):
        # document(root) is the query's own output: no static shape.
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE document(root)/anything/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_view_rooted_operand_is_unknown(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE document(rootv)/x/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        assert lint_query(query, catalog=catalog, views=("rootv",)) == []

    def test_unknown_document_in_a_condition_is_silent(self, catalog):
        # MIX-W005 fires on bindings only; a condition against an
        # unresolvable document just gives up on shape checks.
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE document(root9)/x/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        assert lint_query(query, catalog=catalog) == []


class TestShapeEdges:
    def test_data_at_the_document_root_is_unknown(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE document(root1)/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_data_on_a_whole_tuple_is_unknown(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "WHERE $C/data() = 17\n"
            "RETURN <R> $C </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_wildcard_below_a_field_is_unknown(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $X IN $C/id/*\n"
            "RETURN <R> $X </R>"
        )
        assert lint_query(query, catalog=catalog) == []

    def test_step_below_an_atomized_value_is_dead(self, catalog):
        query = (
            "FOR $C IN source(root1)/customer\n"
            "    $X IN $C/id/data()\n"
            "    $Y IN $X/city\n"
            "RETURN <R> $Y </R>"
        )
        diag = at(lint_query(query, catalog=catalog), "MIX-W001")
        assert "atomized value" in diag.message

    def test_not_equals_constrains_no_interval(self, catalog):
        # != admits everything but one point: no single-interval model,
        # so it must never feed the contradiction/statistics checks.
        query = (
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() != 100 AND $O/value/data() > 99999999\n"
            "RETURN <R> $O </R>"
        )
        assert "MIX-W003" not in codes(lint_query(query, catalog=catalog))


class TestSchemaObjects:
    def test_column_stats_without_wrapper_is_none(self):
        schema = DocumentSchema("d", "t", {"c": "INTEGER"})
        assert schema.column_stats("c") is None

    def test_column_stats_without_statistics_api_is_none(self):
        schema = DocumentSchema(
            "d", "t", {"c": "INTEGER"}, wrapper=Source(), table="t"
        )
        assert schema.column_stats("c") is None

    def test_non_relational_sources_are_skipped(self, catalog):
        catalog.register(XmlFileSource().add_text("rootx", "<a></a>"))
        schemas = catalog_schemas(catalog)
        assert "rootx" not in schemas
        assert "root1" in schemas


class TestSourceTag:
    def test_diagnostics_carry_the_source_name(self, catalog):
        query = "FOR $C IN source(root1)/customers\nRETURN <R> $C </R>"
        diags = lint_query(query, catalog=catalog, source="bad.xq")
        assert diags and all(d.source == "bad.xq" for d in diags)
        assert diags[0].render().startswith("bad.xq:1:11:")
