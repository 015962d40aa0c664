"""Unit tests for the pipelined SQL executor."""

import pytest

from repro.errors import SchemaError, SqlError
from repro.relational import Database
from repro.relational.cursor import Cursor
from repro.relational.executor import compare
from repro.obs import Instrument
from repro import stats as statnames


@pytest.fixture
def db():
    database = Database("test", stats=Instrument())
    database.run(
        "CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
        " PRIMARY KEY (id))"
    )
    database.run(
        "CREATE TABLE orders (orid INT, cid TEXT, value INT,"
        " PRIMARY KEY (orid))"
    )
    database.run(
        "INSERT INTO customer VALUES ('XYZ','XYZInc.','LA'),"
        " ('DEF','DEFCorp.','NY'), ('ABC','ABCInc.','SD')"
    )
    database.run(
        "INSERT INTO orders VALUES (1,'XYZ',100), (2,'XYZ',2400),"
        " (3,'ABC',200000), (4,'DEF',30000)"
    )
    return database


class TestCompare:
    def test_numeric(self):
        assert compare(1, "<", 2)
        assert compare(2.5, ">=", 2)
        assert not compare(1, ">", 2)

    def test_strings(self):
        assert compare("a", "<", "b")
        assert compare("a", "=", "a")

    def test_null_always_false(self):
        assert not compare(None, "=", None)
        assert not compare(None, "<", 1)

    def test_mixed_types_equality_only(self):
        assert not compare("5", "=", 5)
        assert compare("5", "!=", 5)
        assert not compare("5", "<", 6)


class TestSelect:
    def test_projection(self, db):
        rows = db.execute("SELECT name FROM customer ORDER BY id").fetchall()
        assert rows == [("ABCInc.",), ("DEFCorp.",), ("XYZInc.",)]

    def test_star(self, db):
        cursor = db.execute("SELECT * FROM customer")
        assert cursor.column_names == ["id", "name", "addr"]
        assert len(cursor.fetchall()) == 3

    def test_filter(self, db):
        rows = db.execute(
            "SELECT orid FROM orders WHERE value > 1000 ORDER BY orid"
        ).fetchall()
        assert rows == [(2,), (3,), (4,)]

    def test_equi_join(self, db):
        rows = db.execute(
            "SELECT c.id, o.value FROM customer c, orders o"
            " WHERE c.id = o.cid ORDER BY c.id, o.orid"
        ).fetchall()
        assert rows == [
            ("ABC", 200000), ("DEF", 30000), ("XYZ", 100), ("XYZ", 2400)
        ]

    def test_self_join(self, db):
        rows = db.execute(
            "SELECT a.orid, b.orid FROM orders a, orders b"
            " WHERE a.cid = b.cid AND a.orid < b.orid"
        ).fetchall()
        assert rows == [(1, 2)]

    def test_cross_product(self, db):
        rows = db.execute(
            "SELECT c.id, o.orid FROM customer c, orders o"
        ).fetchall()
        assert len(rows) == 12

    def test_theta_join(self, db):
        rows = db.execute(
            "SELECT a.orid, b.orid FROM orders a, orders b"
            " WHERE a.value < b.value AND a.cid = b.cid"
        ).fetchall()
        assert rows == [(1, 2)]

    def test_four_way_join_fig22(self, db):
        rows = db.execute(
            "SELECT DISTINCT c1.id, o1.orid FROM customer c1, orders o1,"
            " customer c2, orders o2 WHERE c1.id = o1.cid"
            " AND c2.id = o2.cid AND c1.id = c2.id AND o2.value > 20000"
            " ORDER BY c1.id, o1.orid"
        ).fetchall()
        assert rows == [("ABC", 3), ("DEF", 4)]

    @pytest.mark.parametrize("optimizer", [True, False])
    @pytest.mark.parametrize("order_by", ["", " ORDER BY a.id"])
    @pytest.mark.parametrize("layout", [
        ("CREATE TABLE b (x TEXT, w TEXT, z INT)",),
        ("CREATE TABLE b (x TEXT, w TEXT, z INT)",
         "CREATE INDEX bx ON b (x)"),
        ("CREATE TABLE b (x TEXT, w TEXT, z INT, PRIMARY KEY (x, w))",),
    ], ids=["join-index", "ddl-index", "key"])
    def test_null_join_key_matches_nothing(self, optimizer, order_by,
                                           layout):
        # As in SQLite: NULL = NULL is not true, so neither the hash
        # join nor the ordered plan's key/index/join-index lookups and
        # residual equality may pair the NULL rows.
        db = Database("nulls", optimizer=optimizer)
        db.run("CREATE TABLE a (id INT, x TEXT, w TEXT, y INT,"
               " PRIMARY KEY (id))")
        for sql in layout:
            db.run(sql)
        db.run("INSERT INTO a VALUES (1, 'k', NULL, 1), (2, NULL, 'w', 2),"
               " (3, 'k', 'w', 3)")
        db.run("INSERT INTO b VALUES ('k', NULL, 10), (NULL, 'w', 20),"
               " ('k', 'w', 30)")
        rows = db.execute(
            "SELECT a.y, b.z FROM a, b WHERE a.x = b.x AND a.w = b.w"
            + order_by
        ).fetchall()
        assert rows == [(3, 30)]
        rows = db.execute(
            "SELECT a.y, b.z FROM a, b WHERE a.x = b.x" + order_by
        ).fetchall()
        assert sorted(rows) == [(1, 10), (1, 30), (3, 10), (3, 30)]

    def test_distinct(self, db):
        rows = db.execute(
            "SELECT DISTINCT cid FROM orders ORDER BY cid"
        ).fetchall()
        assert rows == [("ABC",), ("DEF",), ("XYZ",)]

    def test_unqualified_unambiguous_column(self, db):
        rows = db.execute(
            "SELECT name FROM customer WHERE id = 'XYZ'"
        ).fetchall()
        assert rows == [("XYZInc.",)]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute(
                "SELECT cid FROM orders a, orders b WHERE a.orid = b.orid"
            ).fetchall()

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT nope FROM customer")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT * FROM missing")

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM customer c, orders c")


class TestPipelining:
    def test_filter_scans_only_whats_needed(self, db):
        before = db.stats.get(statnames.ROWS_SCANNED)
        cursor = db.execute("SELECT id FROM customer")
        cursor.fetchone()
        after = db.stats.get(statnames.ROWS_SCANNED)
        assert after - before == 1

    def test_join_probe_side_is_lazy(self, db):
        # customer is the probe side; fetching one row should not scan
        # all customers (orders, the build side, is fully scanned).
        before = db.stats.get(statnames.ROWS_SCANNED)
        cursor = db.execute(
            "SELECT c.id FROM customer c, orders o WHERE c.id = o.cid"
        )
        cursor.fetchone()
        scanned = db.stats.get(statnames.ROWS_SCANNED) - before
        assert scanned < 3 + 4  # strictly less than everything

    def test_closed_cursor_stops(self, db):
        cursor = db.execute("SELECT * FROM customer")
        cursor.fetchone()
        cursor.close()
        assert cursor.fetchone() is None

    def test_order_by_key_streams(self, db):
        # Key order stands in for the sort: one row read for one row out
        # (and the rows are not in insertion order, so it is a sort).
        before = db.stats.get(statnames.ROWS_SCANNED)
        cursor = db.execute("SELECT id FROM customer ORDER BY id")
        assert cursor.fetchone() == ("ABC",)
        assert db.stats.get(statnames.ROWS_SCANNED) - before == 1

    @pytest.mark.parametrize("query", [
        "SELECT id FROM customer ORDER BY name",
        "SELECT orid FROM orders ORDER BY cid, orid",
    ])
    def test_order_by_non_key_materializes(self, db, query):
        table = db.table("orders" if "orders" in query else "customer")
        before = db.stats.get(statnames.ROWS_SCANNED)
        db.execute(query).fetchone()
        assert db.stats.get(statnames.ROWS_SCANNED) - before == len(table)

    def test_order_by_key_without_optimizer_materializes(self, db):
        db.optimizer = False
        before = db.stats.get(statnames.ROWS_SCANNED)
        cursor = db.execute("SELECT id FROM customer ORDER BY id")
        assert cursor.fetchone() == ("ABC",)
        assert db.stats.get(statnames.ROWS_SCANNED) - before == 3


class TestDml:
    def test_delete(self, db):
        assert db.run("DELETE FROM orders WHERE cid = 'XYZ'") == 2
        assert len(db.table("orders")) == 2

    def test_update(self, db):
        assert db.run("UPDATE orders SET value = 0 WHERE orid = 1") == 1
        rows = db.execute("SELECT value FROM orders WHERE orid = 1").fetchall()
        assert rows == [(0,)]

    def test_run_rejects_select(self, db):
        with pytest.raises(SqlError):
            db.run("SELECT * FROM customer")

    def test_execute_rejects_dml(self, db):
        with pytest.raises(SqlError):
            db.execute("DELETE FROM customer")


class TestCursorCounting:
    def test_tuples_shipped(self, db):
        before = db.stats.get(statnames.TUPLES_SHIPPED)
        cursor = db.execute("SELECT * FROM customer")
        cursor.fetch_block(2)
        assert db.stats.get(statnames.TUPLES_SHIPPED) - before == 2

    def test_sql_queries_counted(self, db):
        before = db.stats.get(statnames.SQL_QUERIES)
        db.execute("SELECT * FROM customer")
        db.execute("SELECT * FROM orders")
        assert db.stats.get(statnames.SQL_QUERIES) - before == 2

    def test_batches_count_once(self, db):
        """A batch is one increment of ``tuples_shipped``, whatever its
        size; the totals are what a ``fetchone`` loop would count."""
        calls = []
        incr = db.stats.incr

        def spy(name, amount=1):
            calls.append((name, amount))
            incr(name, amount)

        db.stats.incr = spy
        cursor = db.execute("SELECT * FROM orders")
        assert len(cursor.fetch_block(3)) == 3
        assert len(cursor.fetch_block(8)) == 1
        assert cursor.fetch_block(8) == []
        shipped = [n for name, n in calls if name == statnames.TUPLES_SHIPPED]
        assert shipped == [3, 1]
        assert db.stats.get(statnames.BLOCKS_SHIPPED) == 2
        assert cursor.rows_fetched == 4

    def test_work_counters_are_exact_between_fetches(self, db):
        cursor = db.execute(
            "SELECT c.id, o.orid FROM customer c, orders o"
            " WHERE c.id = o.cid ORDER BY c.id, o.orid"
        )
        before = db.stats.snapshot()
        assert cursor.fetchone() == ("ABC", 3)
        delta = db.stats.diff(before)
        # 4 orders indexed once, then ABC and its one order read — and
        # DEF, whose arrival ends ABC's run, with its order.
        assert delta[statnames.ROWS_SCANNED] == 4 + 2 + 2
        assert delta[statnames.JOIN_TUPLES] == 2
        assert delta["rows_out:customer,orders"] == 1

    def test_close_closes_the_row_generator(self, db):
        finished = []

        def rows():
            try:
                yield (1,)
                yield (2,)
            finally:
                finished.append(True)

        cursor = Cursor(["a"], rows())
        assert cursor.fetchone() == (1,)
        cursor.close()
        assert finished == [True]
        assert cursor.fetchone() is None
        assert cursor.fetch_block(4) == []


FIG22_VIEW = (
    "SELECT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value"
    " FROM customer c1, orders o1 WHERE c1.id = o1.cid"
    " ORDER BY c1.id, o1.orid"
)
FIG22_REFINE = (
    "SELECT DISTINCT c2.id, c2.name, c2.addr, o2.orid, o2.cid, o2.value"
    " FROM customer c1, orders o1, customer c2, orders o2"
    " WHERE o1.value > 120 AND c1.id = o1.cid AND c2.id = o2.cid"
    " AND c1.id = c2.id ORDER BY c2.id, o2.orid"
)


class TestFirstBlockGuards:
    """The two pushed statements of the Fig.-22 session at the served
    benchmark's size (200x5): the first block costs a few groups, not
    the join.  Access structures are warm, as they are for every
    statement after a table version's first."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.workloads import build_customers_orders

        database = build_customers_orders(
            n_customers=200, orders_per_customer=5
        ).database
        for sql in (FIG22_VIEW, FIG22_REFINE):
            database.execute(sql).fetchone()
        return database

    @staticmethod
    def work(database, sql, fetch, optimizer=True):
        database.optimizer = optimizer
        try:
            before = database.stats.snapshot()
            rows = fetch(database.execute(sql))
            delta = database.stats.diff(before)
        finally:
            database.optimizer = True
        return rows, delta[statnames.ROWS_SCANNED], delta.get(
            statnames.JOIN_TUPLES, 0
        )

    def test_refine_first_block(self, served):
        def block(cursor):
            return cursor.fetch_block(320)

        rows, scanned, joined = self.work(served, FIG22_REFINE, block)
        seed_rows, seed_scanned, seed_joined = self.work(
            served, FIG22_REFINE, block, optimizer=False
        )
        assert rows == seed_rows and len(rows) == 320
        assert seed_scanned == 2400
        assert scanned * 3 <= seed_scanned
        assert joined * 5 <= seed_joined

    def test_view_first_row(self, served):
        row, scanned, _ = self.work(
            served, FIG22_VIEW, lambda cursor: cursor.fetchone()
        )
        assert row[0] == "C000000" and row[3:] == (0, "C000000", 100)
        assert scanned <= 20

    @pytest.mark.parametrize("sql", [FIG22_VIEW, FIG22_REFINE])
    def test_full_drain_scans_no_more(self, served, sql):
        def drain(cursor):
            return cursor.fetchall()

        rows, scanned, joined = self.work(served, sql, drain)
        seed_rows, seed_scanned, seed_joined = self.work(
            served, sql, drain, optimizer=False
        )
        assert rows == seed_rows and len(rows) == 1000
        assert scanned <= seed_scanned
        assert joined <= seed_joined


class TestCursorSnapshot:
    """A streaming cursor reads the table versions of its first pull."""

    ORDERED = (
        "SELECT c.id, o.orid, o.value FROM customer c, orders o"
        " WHERE c.id = o.cid ORDER BY c.id, o.orid"
    )

    @staticmethod
    def write(db):
        db.run("INSERT INTO customer VALUES ('AAA','AAAInc.','SF')")
        db.run("INSERT INTO orders VALUES (0,'AAA',1), (9,'XYZ',9)")
        db.run("UPDATE orders SET value = 7 WHERE orid = 4")
        db.run("UPDATE customer SET name = 'renamed' WHERE id = 'XYZ'")
        db.run("DELETE FROM orders WHERE orid = 2")
        db.run("DELETE FROM customer WHERE id = 'DEF'")

    def test_open_cursor_keeps_its_version(self, db):
        expected = db.execute(self.ORDERED).fetchall()
        cursor = db.execute(self.ORDERED)
        assert cursor.fetch_block(1) == expected[:1]
        self.write(db)
        assert cursor.fetchall() == expected[1:]
        assert db.execute(self.ORDERED).fetchall() == [
            ("AAA", 0, 1), ("ABC", 3, 200000), ("XYZ", 1, 100), ("XYZ", 9, 9)
        ]

    def test_unpulled_cursor_sees_the_version_of_its_first_pull(self, db):
        cursor = db.execute(self.ORDERED)
        self.write(db)
        assert cursor.fetchall() == db.execute(self.ORDERED).fetchall()

    def test_structures_are_built_once_per_version(self, db):
        def scanned(sql=self.ORDERED):
            before = db.stats.get(statnames.ROWS_SCANNED)
            db.execute(sql).fetchall()
            return db.stats.get(statnames.ROWS_SCANNED) - before

        customers, orders = db.table("customer"), db.table("orders")
        cold = scanned()
        paths = customers.access_paths(), orders.access_paths()
        # The join index on orders.cid is the one extra counted scan.
        assert cold == len(orders) + len(customers) + len(orders)
        assert scanned() == scanned() == cold - len(orders)
        assert customers.access_paths() is paths[0]
        assert orders.access_paths() is paths[1]
        db.run("UPDATE orders SET value = 7 WHERE orid = 4")
        assert scanned() == cold
        assert scanned() == cold - len(orders)
        assert customers.access_paths() is paths[0]
        assert orders.access_paths() is not paths[1]
        # Neither structure is a DDL index.
        assert orders.indexes() == [] and customers.indexes() == []


def test_streaming_readers_race_a_writer():
    """More threads than cores, short switch interval: every reader of
    the order-preserving plan sees one table version (all values equal
    but the one order a key-addressed update negated, every group
    complete, key order) while a writer keeps replacing both tables, and
    the lazily built structures never tear."""
    import sys
    import threading
    import time

    database = Database("race", stats=Instrument())
    database.run("CREATE TABLE c (id INT, PRIMARY KEY (id))")
    database.run("CREATE TABLE o (orid INT, cid INT, value INT,"
                 " PRIMARY KEY (orid))")
    for i in range(12):
        database.run("INSERT INTO c VALUES ({})".format(i))
        for j in range(3):
            database.run(
                "INSERT INTO o VALUES ({}, {}, 0)".format(i * 3 + j, i)
            )
    sql = ("SELECT c.id, o.orid, o.value FROM c, o WHERE c.id = o.cid"
           " ORDER BY c.id, o.orid")
    expected = [(i, i * 3 + j) for i in range(12) for j in range(3)]
    deadline = time.monotonic() + 1.0
    failures = []
    reads = []

    def writer():
        # A scan-path UPDATE sets every value; a key-addressed one then
        # negates one order's, and the key-addressed DELETE removes the
        # customer the INSERT added.
        value = 0
        while time.monotonic() < deadline:
            value += 1
            database.run("UPDATE o SET value = {}".format(value))
            database.run("UPDATE o SET value = {} WHERE orid = {}".format(
                -value, value % 36))
            database.run("INSERT INTO c VALUES (99)")
            database.run("DELETE FROM c WHERE id = 99")

    def reader():
        count = 0
        try:
            while time.monotonic() < deadline:
                cursor = database.execute(sql)
                rows = []
                while True:
                    block = cursor.fetch_block(5)
                    if not block:
                        break
                    rows += block
                keys = [row[:2] for row in rows if row[0] != 99]
                assert keys == expected, keys
                value = max(row[2] for row in rows)
                assert [row[1] for row in rows if row[2] != value] in (
                    [], [value % 36]), rows
                assert {row[2] for row in rows} <= {value, -value}, rows
                count += 1
        except Exception as exc:  # reported by the main thread
            failures.append(exc)
        reads.append(count)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(16)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert len(reads) == 16 and all(reads)
