"""Unit tests for the stdlib-``sqlite3`` relational wrapper.

Only what is SQLite's own is tested here; the shared Fig.-2 export
(documents, oids, block batching) runs on both back ends in
``test_relational_wrapper.py``.
"""

import pytest

from repro import Instrument
from repro import stats as statnames
from repro.errors import SourceError
from repro.sources import SqliteWrapper
from repro.relational.types import INTEGER, TEXT


@pytest.fixture
def stats():
    return Instrument()


@pytest.fixture
def wrapper(stats):
    w = SqliteWrapper(server_name="sq", stats=stats)
    w.run("CREATE TABLE customer (id TEXT PRIMARY KEY, name TEXT,"
          " addr TEXT)")
    w.run("CREATE TABLE orders (orid INTEGER PRIMARY KEY, cid TEXT,"
          " value INTEGER)")
    w.run_many("INSERT INTO customer VALUES (?, ?, ?)", [
        ("XYZ", "XYZInc.", "LosAngeles"),
        ("DEF", "DEFCorp.", "NewYork"),
        ("ABC", "ABCInc.", "SanDiego"),
    ])
    w.run_many("INSERT INTO orders VALUES (?, ?, ?)", [
        (28904, "XYZ", 2400), (87456, "ABC", 200000),
        (111, "XYZ", 100), (222, "DEF", 30000),
    ])
    w.register_document("root1", "customer")
    w.register_document("root2", "orders", element_label="order")
    return w


class TestSchema:
    def test_describe_table_types_and_key(self, wrapper):
        schema = wrapper.describe_table("orders")
        assert schema.column_names == ["orid", "cid", "value"]
        assert schema.columns[0].type is INTEGER
        assert schema.columns[1].type is TEXT
        assert schema.primary_key == ("orid",)

    def test_affinity_declarations_map_to_engine_types(self, wrapper):
        wrapper.run("CREATE TABLE t (a VARCHAR(30), b DOUBLE, c BLOB)")
        schema = wrapper.describe_table("t")
        assert schema.columns[0].type is TEXT
        assert schema.columns[2].type is TEXT  # unknown word falls back

    def test_missing_table_raises(self, wrapper):
        with pytest.raises(SourceError):
            wrapper.describe_table("nope")

    def test_register_validates_eagerly(self, stats):
        w = SqliteWrapper(stats=stats)
        with pytest.raises(SourceError):
            w.register_document("root9", "missing")


class TestSql:
    def test_execute_counts_queries_and_shipping(self, wrapper, stats):
        cursor = wrapper.execute_sql("SELECT orid FROM orders")
        assert stats.get(statnames.SQL_QUERIES) == 1
        assert stats.get(statnames.TUPLES_SHIPPED) == 0
        assert len(cursor.fetchall()) == 4
        assert stats.get(statnames.TUPLES_SHIPPED) == 4

    def test_bad_sql_is_a_source_error(self, wrapper):
        with pytest.raises(SourceError):
            wrapper.execute_sql("SELECT FROM WHERE")
        with pytest.raises(SourceError):
            wrapper.run("NOT SQL AT ALL")

    def test_join_pushdown(self, wrapper):
        rows = wrapper.execute_sql(
            "SELECT c.name, o.value FROM customer c, orders o"
            " WHERE c.id = o.cid ORDER BY o.orid"
        ).fetchall()
        assert rows[0] == ("XYZInc.", 100)
        assert len(rows) == 4


class TestStatistics:
    def test_analyze_collects_minmax(self, wrapper):
        assert wrapper.analyze() == 2
        stats = wrapper.table_statistics("orders")
        assert stats.row_count == 4
        value = stats.column("value")
        assert (value.min, value.max) == (100, 200000)
        assert value.ndv == 4

    def test_statistics_go_stale_on_write(self, wrapper):
        wrapper.analyze()
        assert wrapper.table_statistics("orders") is not None
        wrapper.run("INSERT INTO orders VALUES (999, 'DEF', 7)")
        assert wrapper.table_statistics("orders") is None

    def test_data_version_moves_on_write(self, wrapper):
        before = wrapper.data_version()
        wrapper.run("INSERT INTO orders VALUES (998, 'DEF', 7)")
        assert wrapper.data_version() != before


class TestShardMember:
    def test_sqlite_members_behind_a_sharded_source(self):
        from repro.workloads import build_sharded_customers_orders

        sw = build_sharded_customers_orders(
            shards=3, backend="sqlite", n_customers=6,
            orders_per_customer=2)
        rows = sw.sharded.execute_sql(
            "SELECT orid FROM orders ORDER BY orid").fetchall()
        assert [r[0] for r in rows] == list(range(12))
        assert sw.stats.get(statnames.SHARDS_SCATTERED) == 3
        sw.sharded.close()
