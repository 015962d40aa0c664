"""Tests for secondary hash indexes and index-aware execution."""

import pytest

from repro.errors import SchemaError
from repro.relational import Database
from repro.obs import Instrument
from repro import stats as statnames


@pytest.fixture
def db():
    database = Database("idx", stats=Instrument())
    database.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    for i in range(200):
        database.run(
            "INSERT INTO orders VALUES ({}, 'C{}', {})".format(
                i, i % 10, i * 5
            )
        )
    return database


class TestIndexMaintenance:
    def test_create_index_sql(self, db):
        db.run("CREATE INDEX by_cid ON orders (cid)")
        assert ("cid",) in db.table("orders").indexes()

    def test_create_index_unknown_column(self, db):
        with pytest.raises(SchemaError):
            db.run("CREATE INDEX bad ON orders (nope)")

    def test_index_updated_on_insert(self, db):
        table = db.table("orders")
        table.create_index(("cid",))
        db.run("INSERT INTO orders VALUES (999, 'CNEW', 1)")
        rows = table.access_paths().index_rows(("cid",), ["CNEW"])
        assert rows == [(999, "CNEW", 1)]

    def test_index_rebuilt_on_delete(self, db):
        table = db.table("orders")
        table.create_index(("cid",))
        db.run("DELETE FROM orders WHERE cid = 'C3'")
        assert table.access_paths().index_rows(("cid",), ["C3"]) == []
        # Other entries still reachable and correct.
        rows = table.access_paths().index_rows(("cid",), ["C4"])
        assert all(r[1] == "C4" for r in rows)

    def test_index_rebuilt_on_update(self, db):
        table = db.table("orders")
        table.create_index(("cid",))
        db.run("UPDATE orders SET cid = 'MOVED' WHERE orid = 7")
        rows = table.access_paths().index_rows(("cid",), ["MOVED"])
        assert any(r[0] == 7 for r in rows)

    def test_missing_index_scan_rejected(self, db):
        with pytest.raises(SchemaError):
            db.table("orders").access_paths().index_rows(("cid",), ["C1"])

    def test_composite_index(self, db):
        table = db.table("orders")
        table.create_index(("cid", "value"))
        rows = table.access_paths().index_rows(("cid", "value"), ["C3", 15])
        assert rows == [(3, "C3", 15)]


class TestPrefixProbes:
    """A composite index answers probes on any leading prefix."""

    def test_prefix_probe_on_composite_index(self, db):
        table = db.table("orders")
        table.create_index(("cid", "value"))
        rows = table.access_paths().index_rows(("cid", "value"), ["C3"])
        assert len(rows) == 20
        assert all(r[1] == "C3" for r in rows)

    def test_prefix_probe_preserves_insertion_order(self, db):
        table = db.table("orders")
        table.create_index(("cid", "value"))
        rows = table.access_paths().index_rows(("cid", "value"), ["C3"])
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_prefix_probe_counts_one_lookup(self, db):
        """The access paths read uncounted; the statement that probes
        counts one lookup and the rows of the bucket chain."""
        table = db.table("orders")
        table.create_index(("cid", "value"))
        before = db.stats.snapshot()
        probed = table.access_paths().index_rows(("cid", "value"), ["C3"])
        assert db.stats.diff(before) == {}
        rows = db.execute(
            "SELECT orid FROM orders WHERE cid = 'C3'").fetchall()
        delta = db.stats.diff(before)
        assert delta[statnames.INDEX_LOOKUPS] == 1
        assert delta[statnames.ROWS_SCANNED] == len(rows) == len(probed)

    def test_empty_probe_rejected(self, db):
        table = db.table("orders")
        table.create_index(("cid", "value"))
        with pytest.raises(SchemaError):
            table.access_paths().index_rows(("cid", "value"), [])

    def test_overlong_probe_rejected(self, db):
        table = db.table("orders")
        table.create_index(("cid",))
        with pytest.raises(SchemaError):
            table.access_paths().index_rows(("cid",), ["C3", 15])

    def test_prefix_probe_after_mutations(self, db):
        table = db.table("orders")
        table.create_index(("cid", "value"))
        db.run("DELETE FROM orders WHERE cid = 'C3' AND value > 500")
        db.run("INSERT INTO orders VALUES (1000, 'C3', 1)")
        rows = table.access_paths().index_rows(("cid", "value"), ["C3"])
        assert all(r[1] == "C3" for r in rows)
        assert any(r[0] == 1000 for r in rows)
        assert not any(r[2] > 500 for r in rows)

    def test_executor_uses_prefix_when_only_first_column_bound(self, db):
        db.run("CREATE INDEX by_cid_value ON orders (cid, value)")
        before = db.stats.snapshot()
        rows = db.execute(
            "SELECT orid FROM orders WHERE cid = 'C3' AND value > 500"
        ).fetchall()
        delta = db.stats.diff(before)
        assert delta[statnames.INDEX_LOOKUPS] == 1
        # Only the C3 bucket chain is scanned, not all 200 rows.
        assert delta[statnames.ROWS_SCANNED] == 20
        paths = db.table("orders").access_paths()
        assert all(paths.lookup((r[0],))[2] > 500 for r in rows)


class TestIndexAwareExecution:
    def test_equality_query_uses_index(self, db):
        db.run("CREATE INDEX by_cid ON orders (cid)")
        before = db.stats.snapshot()
        rows = db.execute(
            "SELECT orid FROM orders WHERE cid = 'C3'"
        ).fetchall()
        delta = db.stats.diff(before)
        assert len(rows) == 20
        assert delta[statnames.INDEX_LOOKUPS] == 1
        assert delta[statnames.ROWS_SCANNED] == 20  # not 200

    def test_without_index_full_scan(self, db):
        before = db.stats.snapshot()
        db.execute("SELECT orid FROM orders WHERE cid = 'C3'").fetchall()
        delta = db.stats.diff(before)
        assert delta.get(statnames.INDEX_LOOKUPS, 0) == 0
        assert delta[statnames.ROWS_SCANNED] == 200

    def test_residual_predicates_still_applied(self, db):
        db.run("CREATE INDEX by_cid ON orders (cid)")
        rows = db.execute(
            "SELECT orid FROM orders WHERE cid = 'C3' AND value > 500"
        ).fetchall()
        paths = db.table("orders").access_paths()
        assert rows and all(paths.lookup((r[0],))[2] > 500 for r in rows)

    def test_index_in_join_build_side(self, db):
        db.run("CREATE TABLE customer (id TEXT, PRIMARY KEY (id))")
        for i in range(10):
            db.run("INSERT INTO customer VALUES ('C{}')".format(i))
        db.run("CREATE INDEX by_cid ON orders (cid)")
        rows = db.execute(
            "SELECT c.id, o.orid FROM customer c, orders o"
            " WHERE c.id = o.cid AND o.cid = 'C5'"
        ).fetchall()
        assert len(rows) == 20
        assert all(r[0] == "C5" for r in rows)

    def test_results_identical_with_and_without_index(self, db):
        query = "SELECT orid FROM orders WHERE cid = 'C7' ORDER BY orid"
        without = db.execute(query).fetchall()
        db.run("CREATE INDEX by_cid ON orders (cid)")
        with_index = db.execute(query).fetchall()
        assert without == with_index
