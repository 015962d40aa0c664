"""Unit tests for the relational-to-XML export (Fig. 2).

Every test runs on both SQL back ends, loaded with the same rows: the
in-process database (the ``Test*`` classes) and SQLite (their
``TestSqlite*`` subclasses) — the export is one shared implementation,
so both must produce the same documents, oids and traffic.
"""

import pytest

from repro import Database, Mediator, RelationalWrapper
from repro import stats as statnames
from repro.algebra import RQVar
from repro.errors import SourceError
from repro.sources import SqliteWrapper
from repro.sources.relational import assemble
from repro.obs import Instrument
from repro.xmltree import serialize
from repro.xmltree.tree import OidGenerator, deep_equals
from tests.conftest import FIG2_SQL


def memory_wrapper(statements, stats):
    db = Database("t", stats=stats)
    for sql in statements:
        db.run(sql)
    return RelationalWrapper(db)


def sqlite_wrapper(statements, stats):
    wrapper = SqliteWrapper(server_name="s", stats=stats)
    for sql in statements:
        wrapper.run(sql)
    return wrapper


BACKENDS = {"memory": memory_wrapper, "sqlite": sqlite_wrapper}


@pytest.fixture
def stats():
    return Instrument()


@pytest.fixture
def wrapper(request, stats):
    """The Fig. 2 database behind the test class's ``backend``."""
    build = BACKENDS[getattr(request.cls, "backend", "memory")]
    return (
        build(FIG2_SQL, stats)
        .register_document("root1", "customer")
        .register_document("root2", "orders", element_label="order")
    )


class TestDocumentExport:
    def test_document_ids(self, wrapper):
        assert wrapper.document_ids() == ["root1", "root2"]

    def test_unknown_document(self, wrapper):
        with pytest.raises(SourceError):
            wrapper.table_for_document("nope")

    def test_materialize_fig2_layout(self, wrapper):
        customer = next(wrapper.iter_document_children("root1"))
        assert customer.label == "customer"
        assert [c.label for c in customer.children] == ["id", "name", "addr"]
        # field children carry value leaves
        assert customer.children[0].children[0].is_leaf

    def test_element_label_override(self, wrapper):
        assert next(wrapper.iter_document_children("root2")).label == "order"

    def test_key_derived_oids(self, wrapper):
        oids = {c.oid for c in wrapper.iter_document_children("root1")}
        assert oids == {"&XYZ", "&DEF", "&ABC"}

    def test_numeric_key_oid(self, wrapper):
        children = wrapper.iter_document_children("root2")
        assert "&28904" in {c.oid for c in children}


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

    def test_block_mode_matches_tuple_mode(self, wrapper):
        tuple_oids = [c.oid for c in wrapper.iter_document_children("root2")]
        wrapper.set_block_size(3)
        block_oids = [c.oid for c in wrapper.iter_document_children("root2")]
        assert block_oids == tuple_oids


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

    def test_escaped_roundtrip(self, wrapper):
        entry = RQVar("$C", "customer", [(0, "id")], [0])
        element = assemble(entry, ("A/B\\C",), OidGenerator())
        assert element.oid == "&A\\/B\\\\C"
        assert wrapper.oid_to_key("customer", element.oid) == ["A/B\\C"]


class TestSql:
    def test_supports_sql(self, wrapper):
        assert wrapper.supports_sql()

    def test_execute(self, wrapper):
        cursor = wrapper.execute_sql("SELECT id FROM customer ORDER BY id")
        assert cursor.fetchall() == [("ABC",), ("DEF",), ("XYZ",)]

    def test_describe_table(self, wrapper):
        schema = wrapper.describe_table("orders")
        assert schema.primary_key == ("orid",)


class TestSqliteDocumentExport(TestDocumentExport):
    backend = "sqlite"


class TestSqliteLazyIteration(TestLazyIteration):
    backend = "sqlite"


class TestSqliteOidCodec(TestOidCodec):
    backend = "sqlite"


class TestSqliteSql(TestSql):
    backend = "sqlite"


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize(
    "doc,label,widths",
    [("parts", "part", [3, 2]), ("notes", "note", [2, 1])],
    ids=["null-field", "keyless"],
)
def test_scan_and_pushed_rq_build_the_same_tuple_objects(backend, doc, label,
                                                         widths):
    stats = Instrument()
    wrapper = BACKENDS[backend]((
        "CREATE TABLE part (pno TEXT, color TEXT, weight INT,"
        " PRIMARY KEY (pno))",
        "INSERT INTO part VALUES ('P1', 'red', 12), ('P2', NULL, 7)",
        "CREATE TABLE note (body TEXT, n INT)",
        "INSERT INTO note VALUES ('x', 1), ('y', NULL)",
    ), stats)
    wrapper.register_document("parts", "part")
    wrapper.register_document("notes", "note")
    scanned = list(wrapper.iter_document_children(doc))
    mediator = Mediator(stats=stats).add_source(wrapper)
    pushed = mediator.query(
        "FOR $T IN document({})/{} RETURN $T".format(doc, label)
    ).to_tree().children
    assert stats.get(statnames.RQ_STATEMENTS) == 1
    assert len(pushed) == len(scanned) == 2
    assert all(deep_equals(a, b) for a, b in zip(scanned, pushed))
    # A NULL field is an absent element on both paths.
    assert [len(c.children) for c in scanned] == widths
    if doc == "parts":
        assert [c.oid for c in pushed] == [c.oid for c in scanned]
        assert [c.oid for c in scanned] == ["&P1", "&P2"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("push_sql", [True, False])
def test_null_keys_join_nothing_through_the_mediator(backend, push_sql):
    # The pushed join must agree with navigation and with SQLite: a
    # customer and an order that both lack the key do not match.
    stats = Instrument()
    wrapper = BACKENDS[backend]((
        "CREATE TABLE customer (id TEXT, name TEXT)",
        "CREATE TABLE orders (cid TEXT, value INT)",
        "INSERT INTO customer VALUES (NULL, 'Anon'), ('k', 'Kay')",
        "INSERT INTO orders VALUES (NULL, 10), ('k', 20)",
    ), stats)
    wrapper.register_document("root1", "customer")
    wrapper.register_document("root2", "orders", element_label="order")
    mediator = Mediator(stats=stats, push_sql=push_sql).add_source(wrapper)
    answer = mediator.query(
        "FOR $C IN document(root1)/customer $O IN document(root2)/order"
        " WHERE $C/id/data() = $O/cid/data() RETURN <R> $C $O </R>"
    ).to_tree()
    assert [serialize(c) for c in answer.children] == [
        "<R><customer><id>k</id><name>Kay</name></customer>"
        "<order><cid>k</cid><value>20</value></order></R>"
    ]
    assert stats.get(statnames.RQ_STATEMENTS) == (1 if push_sql else 0)
