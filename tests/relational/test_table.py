"""Unit tests for in-memory tables."""

import pytest

from repro.errors import IntegrityError, SchemaError
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

    def test_usable_indexes(self):
        table = make_table()
        table.create_index(("name", "id"))
        table.create_index(("id",))
        assert table.usable_indexes({"name"}) == [(("name", "id"), 1)]
        assert table.usable_indexes({"id", "name"}) == [
            (("id",), 1), (("name", "id"), 2)
        ]
        assert table.usable_indexes({"other"}) == []
