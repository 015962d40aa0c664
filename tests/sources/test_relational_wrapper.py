"""Unit tests for the relational-to-XML wrapper (Fig. 2)."""

import pytest

from repro.errors import SourceError
from repro.stats import StatsRegistry
from repro import stats as statnames
from tests.conftest import make_paper_wrapper


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def wrapper(stats):
    return make_paper_wrapper(stats=stats)


class TestDocumentExport:
    def test_document_ids(self, wrapper):
        assert wrapper.document_ids() == ["root1", "root2"]

    def test_unknown_document(self, wrapper):
        with pytest.raises(SourceError):
            wrapper.table_for_document("nope")

    def test_materialize_fig2_layout(self, wrapper):
        root = wrapper.materialize_document("root1")
        assert root.label == "list"
        assert root.oid == "&root1"
        customer = root.children[0]
        assert customer.label == "customer"
        assert [c.label for c in customer.children] == ["id", "name", "addr"]
        # field children carry value leaves
        assert customer.children[0].children[0].is_leaf

    def test_element_label_override(self, wrapper):
        root = wrapper.materialize_document("root2")
        assert root.children[0].label == "order"

    def test_key_derived_oids(self, wrapper):
        root = wrapper.materialize_document("root1")
        oids = {c.oid for c in root.children}
        assert oids == {"&XYZ", "&DEF", "&ABC"}

    def test_numeric_key_oid(self, wrapper):
        root = wrapper.materialize_document("root2")
        assert "&28904" in {c.oid for c in root.children}


class TestLazyIteration:
    def test_iteration_is_cursor_driven(self, wrapper, stats):
        iterator = wrapper.iter_document_children("root1")
        assert stats.get(statnames.TUPLES_SHIPPED) == 0
        next(iterator)
        assert stats.get(statnames.TUPLES_SHIPPED) == 1
        assert stats.get(statnames.SOURCE_NAVIGATIONS) == 1

    def test_full_iteration(self, wrapper):
        children = list(wrapper.iter_document_children("root2"))
        assert len(children) == 4

    def test_width_one_is_one_row_fetches(self, wrapper, stats):
        # One fetch path at every width: width 1 ships one-row blocks.
        assert len(list(wrapper.iter_document_children("root2"))) == 4
        assert stats.get(statnames.TUPLES_SHIPPED) == 4
        assert stats.get(statnames.SOURCE_NAVIGATIONS) == 4
        assert stats.get(statnames.BLOCKS_SHIPPED) == 4


class TestOidCodec:
    def test_roundtrip(self, wrapper):
        key = wrapper.oid_to_key("customer", "&XYZ")
        assert key == ["XYZ"]

    def test_integer_key_coerced(self, wrapper):
        assert wrapper.oid_to_key("orders", "&28904") == [28904]

    def test_bad_oid(self, wrapper):
        with pytest.raises(SourceError):
            wrapper.oid_to_key("customer", "XYZ")

    def test_wrong_arity(self, wrapper):
        with pytest.raises(SourceError):
            wrapper.oid_to_key("customer", "&a/b")


class TestSql:
    def test_supports_sql(self, wrapper):
        assert wrapper.supports_sql()

    def test_execute(self, wrapper):
        cursor = wrapper.execute_sql("SELECT id FROM customer ORDER BY id")
        assert cursor.fetchall() == [("ABC",), ("DEF",), ("XYZ",)]

    def test_describe_table(self, wrapper):
        schema = wrapper.describe_table("orders")
        assert schema.primary_key == ("orid",)
