"""Tests for JSON persistence of databases."""

import pytest

from repro.errors import SqlError
from repro.relational.persist import dump_database, load_database
from tests.conftest import make_paper_db


class TestRoundTrip:
    def test_dump_and_load(self):
        original = make_paper_db()
        reloaded = load_database(dump_database(original))
        assert reloaded.table_names() == original.table_names()
        for name in original.table_names():
            assert (
                reloaded.table(name).rows_snapshot()
                == original.table(name).rows_snapshot()
            )

    def test_schema_preserved(self):
        reloaded = load_database(dump_database(make_paper_db()))
        schema = reloaded.table("orders").schema
        assert schema.primary_key == ("orid",)
        assert schema.column("value").type.name == "INTEGER"

    def test_indexes_preserved(self):
        db = make_paper_db()
        db.run("CREATE INDEX by_cid ON orders (cid)")
        reloaded = load_database(dump_database(db))
        assert ("cid",) in reloaded.table("orders").indexes()

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "db.json")
        dump_database(make_paper_db(), path)
        reloaded = load_database(path)
        cursor = reloaded.execute(
            "SELECT id FROM customer ORDER BY id"
        )
        assert cursor.fetchall() == [("ABC",), ("DEF",), ("XYZ",)]

    def test_reloaded_db_is_queryable_and_mutable(self):
        reloaded = load_database(dump_database(make_paper_db()))
        reloaded.run("INSERT INTO customer VALUES ('NEW', 'N', 'LA')")
        assert len(reloaded.table("customer")) == 4

    def test_version_check(self):
        with pytest.raises(SqlError):
            load_database('{"format_version": 999, "tables": []}')
