"""The ``ANALYZE [table]`` statement and its counter."""

import pytest

from repro.errors import SchemaError, SqlError
from repro.optimizer.statistics import fresh_statistics
from repro.relational import Database
from repro.obs import Instrument
from repro import stats as statnames


@pytest.fixture
def db():
    database = Database("ana", stats=Instrument())
    database.run("CREATE TABLE a (x INT, PRIMARY KEY (x))")
    database.run("CREATE TABLE b (y INT, PRIMARY KEY (y))")
    for i in range(5):
        database.run("INSERT INTO a VALUES ({})".format(i))
        database.run("INSERT INTO b VALUES ({})".format(i * 10))
    return database


def test_analyze_one_table(db):
    assert db.run("ANALYZE a") == 1
    assert fresh_statistics(db.table("a")) is not None
    assert fresh_statistics(db.table("b")) is None


def test_analyze_whole_database(db):
    assert db.run("ANALYZE") == 2
    assert fresh_statistics(db.table("a")) is not None
    assert fresh_statistics(db.table("b")) is not None


def test_analyze_counts_tables_analyzed(db):
    before = db.stats.snapshot()
    db.run("ANALYZE")
    db.run("ANALYZE a")
    delta = db.stats.diff(before)
    assert delta[statnames.TABLES_ANALYZED] == 3


def test_analyze_unknown_table(db):
    with pytest.raises(SchemaError):
        db.run("ANALYZE nope")


def test_analyze_is_not_a_select(db):
    with pytest.raises(SqlError):
        db.execute("ANALYZE a")


def test_analyze_keyword_case_insensitive(db):
    assert db.run("analyze a") == 1


def test_analyze_via_run_matches_method(db):
    db.run("ANALYZE a")
    via_stmt = fresh_statistics(db.table("a"))
    db.analyze("a")
    via_method = fresh_statistics(db.table("a"))
    assert via_stmt.row_count == via_method.row_count == 5


def test_persisted_database_reloads_without_stale_stats(db):
    """Statistics are a runtime artifact: a dump/load round trip comes
    back unanalyzed rather than carrying counters that no longer match
    the reloaded tables' write versions."""
    from repro.relational.persist import dump_database, load_database

    db.run("ANALYZE")
    reloaded = load_database(dump_database(db))
    assert fresh_statistics(reloaded.table("a")) is None
