"""The pushed-SQL result cache: exact version-based invalidation.

The contract under test (see :mod:`repro.cache.sqlcache`):

* a repeated SELECT replays recorded rows — zero ``tuples_shipped``,
  the replayed rows counted under ``tuples_from_cache`` instead;
* any DML on a *referenced* table kills the entry at the next lookup,
  while writes to unreferenced tables leave it alive (per-table write
  versions, never time-based);
* DDL (drop/recreate) can never resurrect an entry — table epochs make
  a recreated table a different table;
* only cursors read to exhaustion commit: partial reads, failed
  statements, and cursors that straddled a write cache nothing.
"""

from __future__ import annotations

import pytest

from repro import Database, Mediator, SqlResultCache
from repro.cache import normalize_sql
from repro.errors import SqlError
from repro.obs import Instrument
from repro import stats as sn

from tests.conftest import make_paper_db, make_scaled_wrapper


@pytest.fixture
def db():
    return make_paper_db(stats=Instrument())


@pytest.fixture
def cache():
    return SqlResultCache(maxsize=8, obs=Instrument())


SELECT_CUSTOMERS = "SELECT * FROM customer"
SELECT_ORDERS = "SELECT * FROM orders"


def test_repeat_select_replays_without_shipping(db, cache):
    first = cache.execute(db, SELECT_CUSTOMERS).fetchall()
    shipped = db.stats.get(sn.TUPLES_SHIPPED)
    second = cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert second == first
    assert db.stats.get(sn.TUPLES_SHIPPED) == shipped  # nothing re-shipped
    assert db.stats.get(sn.TUPLES_FROM_CACHE) == len(first)
    assert cache.stats()["hits"] == 1


def test_whitespace_variants_share_one_entry(db, cache):
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert cache.execute(
        db, "SELECT   *\n  FROM    customer"
    ).fetchall() == cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert len(cache) == 1
    assert cache.stats()["misses"] == 1


def test_spacing_inside_a_string_literal_is_data(cache):
    # normalize_sql used to collapse it: the second statement replayed
    # the first one's row.
    db = Database("two", stats=Instrument())
    db.run("CREATE TABLE customer (id TEXT, name TEXT, PRIMARY KEY (id))")
    db.run("INSERT INTO customer VALUES ('C1', 'a  b'), ('C2', 'a b')")
    select = "SELECT id FROM customer WHERE name = '{}'"
    assert cache.execute(db, select.format("a  b")).fetchall() == [("C1",)]
    assert cache.execute(db, select.format("a b")).fetchall() == [("C2",)]
    assert cache.execute(db, select.format("a  b")).fetchall() == [("C1",)]
    assert len(cache) == 2 and cache.stats()["hits"] == 1


@pytest.mark.parametrize("one, other", [
    # A comment ends at the line break, wherever the key's spaces fall.
    ("SELECT id FROM customer -- c\n WHERE id = 'XYZ'",
     "SELECT id FROM customer -- c WHERE id = 'XYZ'"),
    ("SELECT id FROM customer WHERE name = 'it''s  --  so'",
     "SELECT id FROM customer WHERE name = 'it''s -- so'"),
    ("SELECT id FROM customer WHERE id = 'a' 'b'",
     "SELECT id FROM customer WHERE id = 'a''b'"),
])
def test_statements_that_tokenize_apart_have_keys_apart(one, other):
    assert normalize_sql(one) != normalize_sql(other)


def test_layout_and_comments_are_not_part_of_the_key():
    assert normalize_sql(
        "SELECT id -- the key\n  FROM customer\tWHERE name='a  b' AND x = -1"
    ) == normalize_sql(
        "SELECT id FROM customer WHERE name='a  b'   AND x = -1 -- done"
    )


def test_a_statement_is_parsed_once_per_miss_and_never_on_a_hit(
        db, cache, monkeypatch):
    from repro.cache import sqlcache
    from repro.relational import database

    parses = []
    for module in (sqlcache, database):
        original = module.parse_sql
        monkeypatch.setattr(
            module, "parse_sql",
            lambda sql, original=original: parses.append(sql)
            or original(sql),
        )
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert len(parses) == 1
    cache.execute(db, SELECT_CUSTOMERS).fetchall()  # hit
    assert len(parses) == 1
    for number in range(50):  # unique texts: no side table to thrash
        cache.execute(
            db, "SELECT * FROM orders WHERE orid = {}".format(number)
        ).fetchall()
    assert len(parses) == 51


def test_dml_on_referenced_table_invalidates(db, cache):
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    db.run("INSERT INTO customer VALUES ('NEW', 'NewCo', 'Here')")
    rows = cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert any("NEW" in map(str, row) for row in rows)  # fresh data
    assert cache.stats()["invalidations"] == 1
    # The re-executed result is recommitted at the new version.
    assert cache.execute(db, SELECT_CUSTOMERS).fetchall() == rows
    assert cache.stats()["hits"] == 1


@pytest.mark.parametrize("dml", [
    "UPDATE customer SET name = 'Gone' WHERE id = 'XYZ'",
    "DELETE FROM customer WHERE id = 'XYZ'",
])
def test_update_and_delete_invalidate(db, cache, dml):
    before = cache.execute(db, SELECT_CUSTOMERS).fetchall()
    db.run(dml)
    after = cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert after != before
    assert cache.stats()["invalidations"] == 1


def test_write_to_unreferenced_table_keeps_entry(db, cache):
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    db.run("INSERT INTO orders VALUES (999, 'XYZ', 5)")
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert cache.stats()["hits"] == 1
    assert cache.stats()["invalidations"] == 0


def test_join_entry_dies_when_either_table_moves(db, cache):
    join = ("SELECT c1.id, o1.orid FROM customer c1, orders o1"
            " WHERE c1.id = o1.cid")
    cache.execute(db, join).fetchall()
    db.run("INSERT INTO orders VALUES (1000, 'ABC', 7)")
    rows = cache.execute(db, join).fetchall()
    assert cache.stats()["invalidations"] == 1
    assert any(row[1] == 1000 for row in rows)


def test_drop_and_recreate_cannot_resurrect(db, cache):
    before = cache.execute(db, SELECT_ORDERS).fetchall()
    db.drop_table("orders")
    db.run("CREATE TABLE orders (orid INT, cid TEXT, value INT,"
           " PRIMARY KEY (orid))")
    # Same table name, same (fresh) version counter — but a new epoch:
    # the old rows must not come back.
    assert cache.execute(db, SELECT_ORDERS).fetchall() == []
    assert before != []
    assert cache.stats()["hits"] == 0


def test_partial_read_commits_nothing(db, cache):
    cursor = cache.execute(db, SELECT_CUSTOMERS)
    cursor.fetchone()                       # one row, then abandon
    assert len(cache) == 0
    cache.execute(db, SELECT_CUSTOMERS).fetchall()  # full read commits
    assert len(cache) == 1


def test_failed_statement_commits_nothing(db, cache):
    with pytest.raises(SqlError):
        cache.execute(db, "SELECT * FROM no_such_table").fetchall()
    assert len(cache) == 0


def test_write_during_cursor_blocks_commit(db, cache):
    cursor = cache.execute(db, SELECT_CUSTOMERS)
    cursor.fetchone()
    db.run("INSERT INTO customer VALUES ('MID', 'MidCo', 'There')")
    cursor.fetchall()                       # exhausted, but torn
    assert len(cache) == 0                  # straddled a write: no commit
    fresh = cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert any("MID" in map(str, row) for row in fresh)


def test_non_select_passes_through(db, cache):
    # Only SELECTs are cacheable; anything else goes straight down.
    with pytest.raises(SqlError):
        cache.execute(db, "INSERT INTO customer VALUES ('X', 'Y', 'Z')")
    assert len(cache) == 0


def test_eviction_respects_bound(db):
    cache = SqlResultCache(maxsize=1)
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    cache.execute(db, SELECT_ORDERS).fetchall()   # evicts the customers
    assert len(cache) == 1
    assert cache.stats()["evictions"] == 1
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert cache.stats()["hits"] == 0


@pytest.mark.parametrize("width", [1, 7, 64])
def test_fetches_count_alike_with_the_cache_on_and_off(width):
    # A miss hands out the database's own cursor: each fetch is one
    # fetch there, counted once, and exhaustion still commits.
    counts = []
    for cached in (False, True):
        stats = Instrument()
        wrapper = make_scaled_wrapper(20, 5, stats=stats)
        if cached:
            wrapper.enable_sql_cache(8, obs=Instrument())
        cursor = wrapper.execute_sql(SELECT_ORDERS)
        while cursor.fetch_block(width):
            pass
        counts.append((stats.get(sn.TUPLES_SHIPPED),
                       stats.get(sn.BLOCKS_SHIPPED)))
    assert counts[0] == counts[1] == (100, -(-100 // width))
    assert len(wrapper.sql_cache) == 1


@pytest.mark.parametrize("width", [1, 7, 64])
def test_a_walk_counts_alike_with_the_cache_on_and_off(width):
    counts = []
    for cached in (False, True):
        stats = Instrument()
        mediator = Mediator(stats=stats, cache=cached, block_size=width)
        mediator.add_source(make_scaled_wrapper(20, 5, stats=stats))
        mediator.query("FOR $O IN document(root2)/order RETURN $O").walk()
        counts.append((stats.get(sn.TUPLES_SHIPPED),
                       stats.get(sn.BLOCKS_SHIPPED)))
    assert counts[0] == counts[1]
    assert counts[0][0] == 100


def test_counters_mirror_onto_instrument(db):
    obs = Instrument()
    cache = SqlResultCache(maxsize=8, obs=obs)
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    db.run("DELETE FROM customer WHERE id = 'XYZ'")
    cache.execute(db, SELECT_CUSTOMERS).fetchall()
    assert obs.get(sn.SQL_CACHE_HITS) == 1
    assert obs.get(sn.SQL_CACHE_MISSES) == 2
    assert obs.get(sn.SQL_CACHE_INVALIDATIONS) == 1
