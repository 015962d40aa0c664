"""Unit tests for in-memory tables."""

import pytest

from repro.errors import (
    IntegrityError,
    SchemaError,
    SqlError,
    TypeMismatchError,
)
from repro.relational.executor import compare
from repro.relational.parser import parse_sql
from repro.relational import (
    Column,
    Database,
    INTEGER,
    TEXT,
    Table,
    TableSchema,
)
from repro.obs import Instrument
from repro import stats as statnames


def make_table(stats=None, key=("id",)):
    schema = TableSchema(
        "t", [Column("id", INTEGER), Column("name", TEXT)], primary_key=key
    )
    return Table(schema, stats=stats)


class TestInsert:
    def test_insert_and_len(self):
        table = make_table()
        table.insert([1, "a"])
        table.insert([2, "b"])
        assert len(table) == 2

    def test_type_coercion_on_insert(self):
        table = make_table()
        row = table.insert(["3", 42])
        assert row == (3, "42")

    def test_duplicate_key_rejected(self):
        table = make_table()
        table.insert([1, "a"])
        with pytest.raises(IntegrityError):
            table.insert([1, "b"])

    def test_keyless_table_allows_duplicates(self):
        table = make_table(key=())
        table.insert([1, "a"])
        table.insert([1, "a"])
        assert len(table) == 2

    def test_insert_many(self):
        table = make_table()
        assert table.insert_many([[1, "a"], [2, "b"]]) == 2

    def test_failed_multi_row_insert_inserts_nothing(self):
        db = Database("t")
        db.run("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        db.run("CREATE INDEX tv ON t (v)")
        table = db.table("t")
        version = table.version
        with pytest.raises(IntegrityError):
            db.run("INSERT INTO t VALUES (1, 10), (2, 20), (1, 30)")
        with pytest.raises(TypeMismatchError):
            db.run("INSERT INTO t VALUES (3, 10), (4, 'x')")
        assert table.rows_snapshot() == []
        assert table.version == version
        db.run("INSERT INTO t VALUES (5, 10)")
        with pytest.raises(IntegrityError):
            db.run("INSERT INTO t VALUES (6, 10), (5, 50)")
        paths = table.access_paths()
        assert list(paths.scan()) == [(5, 10)]
        assert paths.lookup((6,)) is None
        assert paths.index_rows(("v",), [10]) == [(5, 10)]


class TestScan:
    def test_scan_reads_the_version_uncounted(self):
        stats = Instrument()
        table = make_table(stats=stats)
        table.insert_many([[1, "a"], [2, "b"], [3, "c"]])
        assert list(table.access_paths().scan()) == [
            (1, "a"), (2, "b"), (3, "c")
        ]
        assert stats.get(statnames.ROWS_SCANNED) == 0

    def test_scan_is_lazy(self):
        """A statement's scan counts only the rows its fetches pulled."""
        db = Database("lazy", stats=Instrument())
        db.run("CREATE TABLE t (id INT, name TEXT, PRIMARY KEY (id))")
        db.table("t").insert_many([[i, "x"] for i in range(100)])
        cursor = db.execute("SELECT * FROM t")
        cursor.fetchone()
        cursor.fetchone()
        assert db.stats.get(statnames.ROWS_SCANNED) == 2

    def test_snapshot_not_counted(self):
        stats = Instrument()
        table = make_table(stats=stats)
        table.insert([1, "a"])
        assert table.rows_snapshot() == [(1, "a")]
        assert stats.get(statnames.ROWS_SCANNED) == 0


class TestKeyLookup:
    def test_lookup(self):
        table = make_table()
        table.insert([1, "a"])
        paths = table.access_paths()
        assert paths.lookup((1,)) == (1, "a")
        assert paths.lookup((9,)) is None


class TestMutation:
    def test_delete_where(self):
        table = make_table()
        table.insert_many([[1, "a"], [2, "b"], [3, "a"]])
        removed = table.delete_where(lambda row: row[1] == "a")
        assert removed == 2
        assert len(table) == 1

    def test_delete_rebuilds_key_index(self):
        table = make_table()
        table.insert_many([[1, "a"], [2, "b"]])
        table.delete_where(lambda row: row[0] == 1)
        table.insert([1, "again"])  # key free again
        assert len(table) == 2

    def test_update_where(self):
        table = make_table()
        table.insert_many([[1, "a"], [2, "b"]])
        changed = table.update_where(
            lambda row: row[0] == 2, lambda row: (row[0], "B")
        )
        assert changed == 1
        assert table.access_paths().lookup((2,)) == (2, "B")

    def test_update_key_collision_rejected(self):
        table = make_table()
        table.insert_many([[1, "a"], [2, "b"]])
        with pytest.raises(IntegrityError):
            table.update_where(lambda row: row[0] == 2,
                               lambda row: (1, row[1]))


class TestAccessPaths:
    """One table version, frozen for readers."""

    def test_same_object_until_the_version_moves(self):
        table = make_table()
        table.insert([1, "a"])
        paths = table.access_paths()
        assert table.access_paths() is paths
        assert paths.version == table.version
        table.insert([2, "b"])
        assert table.access_paths() is not paths

    def test_insert_after_capture_is_invisible(self):
        table = make_table()
        table.create_index(("name",))
        table.insert_many([[2, "a"], [1, "a"]])
        paths = table.access_paths()
        table.insert([0, "a"])
        assert list(paths.scan()) == [(2, "a"), (1, "a")]
        assert paths.lookup((0,)) is None
        assert paths.index_rows(("name",), ["a"]) == [(2, "a"), (1, "a")]
        assert paths.probe(("name",))("a") == [(2, "a"), (1, "a")]
        assert paths.key_order() == [1, 0]
        assert table.access_paths().key_order() == [2, 1, 0]

    def test_delete_and_update_leave_captured_paths_alone(self):
        table = make_table()
        table.create_index(("name",))
        table.insert_many([[1, "a"], [2, "b"], [3, "a"]])
        paths = table.access_paths()
        order = paths.key_order()
        join = paths.probe(("id",))
        table.delete_where(lambda row: row[0] == 1)
        table.update_where(lambda row: row[0] == 3, lambda row: (3, "c"))
        assert list(paths.scan()) == [(1, "a"), (2, "b"), (3, "a")]
        assert paths.lookup((1,)) == (1, "a")
        assert paths.index_rows(("name",), ["a"]) == [(1, "a"), (3, "a")]
        assert [paths.rows[p] for p in order] == list(paths.scan())
        assert join(3) == [(3, "a")]
        fresh = table.access_paths()
        assert fresh.lookup((1,)) is None
        assert fresh.probe(("id",))(3) == [(3, "c")]

    def test_key_order_is_the_order_by_order(self):
        schema = TableSchema(
            "t", [Column("k", TEXT), Column("n", INTEGER)],
            primary_key=("k", "n"),
        )
        table = Table(schema)
        table.insert_many([["b", 1], ["a", 2], [None, 5], ["a", 1]])
        paths = table.access_paths()
        assert [paths.rows[p] for p in paths.key_order()] == [
            (None, 5), ("a", 1), ("a", 2), ("b", 1)
        ]

    def test_key_order_needs_a_key(self):
        table = make_table(key=())
        with pytest.raises(SchemaError):
            table.access_paths().key_order()

    def test_join_index_is_one_counted_scan_per_version(self):
        stats = Instrument()
        table = make_table(stats=stats)
        table.insert_many([[1, "a"], [2, "b"], [3, "a"]])
        paths = table.access_paths()
        assert paths.probe(("name",))("a") == [(1, "a"), (3, "a")]
        assert paths.probe(("name",))("z") is None
        assert stats.get(statnames.ROWS_SCANNED) == 3
        paths.key_order()
        assert stats.get(statnames.ROWS_SCANNED) == 3
        assert table.indexes() == [] and table.version == 3

    def test_ddl_index_is_probed_in_place(self):
        stats = Instrument()
        table = make_table(stats=stats)
        table.insert_many([[1, "a"], [2, "b"], [3, "a"]])
        table.create_index(("name",))
        table.create_index(("name", "id"))
        paths = table.access_paths()
        assert paths.probe(("name",))("a") == [(1, "a"), (3, "a")]
        assert paths.probe(("name", "id"))(("a", 3)) == [(3, "a")]
        assert paths.probe(("name",))("z") == []
        assert stats.get(statnames.ROWS_SCANNED) == 0

    def test_failed_update_swaps_nothing(self):
        table = make_table()
        table.create_index(("name",))
        table.insert_many([[1, "a"], [2, "b"]])
        with pytest.raises(IntegrityError):
            table.update_where(lambda row: row[0] == 2,
                               lambda row: (1, "x"))
        assert table.rows_snapshot() == [(1, "a"), (2, "b")]
        paths = table.access_paths()
        assert paths.lookup((2,)) == (2, "b")
        assert paths.index_rows(("name",), ["b"]) == [(2, "b")]

    def test_failed_statements_change_nothing(self):
        # A duplicate key from an update, a value of the wrong type and
        # a boolean comparison, by either locate path.
        table = make_table()
        table.create_index(("name",))
        table.insert_many([[1, "a"], [2, "b"]])
        paths, version = table.access_paths(), table.version

        def boolean(row):
            return compare(True, "=", row[0])

        def rekey(row):
            return (1, row[1])

        for error, statement in [
            (SqlError, lambda: table.delete_where(boolean)),
            (SqlError, lambda: table.delete_where(boolean, key=(2,))),
            (TypeMismatchError, lambda: table.update_where(
                lambda row: row[0] == 2, lambda row: ("x", row[1]))),
            (IntegrityError, lambda: table.update_where(
                lambda row: True, rekey)),
            (IntegrityError, lambda: table.update_where(
                lambda row: True, rekey, key=(2,))),
        ]:
            with pytest.raises(error):
                statement()
        assert table.version == version
        assert table.rows_snapshot() == [(1, "a"), (2, "b")]
        assert table.access_paths() is paths
        assert paths.lookup((2,)) == (2, "b")
        assert paths.index_rows(("name",), ["b"]) == [(2, "b")]

    def test_usable_indexes(self):
        table = make_table()
        table.create_index(("name", "id"))
        table.create_index(("id",))
        assert table.usable_indexes({"name"}) == [(("name", "id"), 1)]
        assert table.usable_indexes({"id", "name"}) == [
            (("id",), 1), (("name", "id"), 2)
        ]
        assert table.usable_indexes({"other"}) == []


class TestKeyAddressedDml:
    """A DELETE/UPDATE whose WHERE binds the primary key edits the row
    the key index names; the answers are the scan's."""

    @staticmethod
    def database():
        db = Database("k", stats=Instrument())
        db.run("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
        db.run("CREATE TABLE c (a INT, b TEXT, v INT, PRIMARY KEY (a, b))")
        db.run("CREATE TABLE bag (id INT, v INT)")
        db.run("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        return db

    @pytest.mark.parametrize("table, where, key", [
        ("t", "id = 1", (1,)),
        ("t", "2 = id AND v > 5", (2,)),
        ("t", "t.id = 3 AND id = 4", (3,)),
        ("t", "id = 1.0", (1.0,)),
        ("t", "id = '1'", ("1",)),
        ("t", "id = NULL", (None,)),
        ("t", "id > 1", None),
        ("t", "v = 10", None),
        ("t", "id = v", None),
        ("c", "b = 'x' AND v = 1 AND a = 2", (2, "x")),
        ("c", "a = 2", None),
        ("bag", "id = 1", None),
    ])
    def test_which_where_names_a_key(self, table, where, key):
        db = self.database()
        stmt = parse_sql("DELETE FROM {} WHERE {}".format(table, where))
        assert db._bound_key(db.table(table), stmt.predicates) == key

    def test_counts_and_versions_are_the_scans(self):
        db = self.database()
        table = db.table("t")
        version = table.version
        assert db.run("UPDATE t SET v = 11 WHERE id = 1") == 1
        assert db.run("UPDATE t SET v = 0 WHERE id = 3 AND v > 100") == 0
        assert db.run("UPDATE t SET v = 12 WHERE id = 1.0") == 1
        assert db.run("DELETE FROM t WHERE id = '2'") == 0
        assert db.run("DELETE FROM t WHERE 2 = id") == 1
        assert db.run("DELETE FROM t WHERE id = 2") == 0
        assert table.version == version + 6
        assert table.rows_snapshot() == [(1, 12), (3, 30)]
        assert db.stats.get(statnames.ROWS_SCANNED) == 0

    def test_key_changing_update_moves_the_key(self):
        db = self.database()
        assert db.run("UPDATE t SET id = 9 WHERE id = 2") == 1
        with pytest.raises(IntegrityError):
            db.run("UPDATE t SET id = 1 WHERE id = 3")
        paths = db.table("t").access_paths()
        assert paths.lookup((2,)) is None
        assert paths.lookup((9,)) == (9, 20)
        assert paths.lookup((3,)) == (3, 30)

    def test_open_cursor_reads_the_version_before_the_write(self):
        db = self.database()
        cursor = db.execute("SELECT id, v FROM t")
        assert cursor.fetchone() == (1, 10)
        db.run("UPDATE t SET v = 99 WHERE id = 2")
        db.run("DELETE FROM t WHERE id = 1")
        db.run("INSERT INTO t VALUES (4, 40)")
        assert cursor.fetchall() == [(2, 20), (3, 30)]
        assert db.execute("SELECT id, v FROM t").fetchall() == [
            (2, 99), (3, 30), (4, 40)
        ]
