"""The pushed-SQL result cache (keyed by SQL text and values + table
write versions).

The mediator's hottest source interaction is re-executing the same
pushed ``rQ`` statement (Fig. 22) for a query it has answered before.
:class:`SqlResultCache` sits between a wrapper's :meth:`execute_sql`
and the database and serves the *full row list* of a previously
exhausted cursor when — and only when — every table the statement reads
is still at the write version it had when the rows were produced.

Correctness rules:

* **exact, version-based invalidation** — the key's fingerprint is the
  ``(epoch, version)`` pair of each referenced table (see
  :meth:`repro.relational.Database.table_versions`); any DML/DDL on a
  referenced table bumps its version and the entry dies at the next
  lookup.  Writes to *unreferenced* tables leave the entry alive.
* **commit on exhaustion only** — rows are recorded as the real cursor
  ships them, and the entry is committed only when the cursor runs to
  completion *and* the fingerprint is still current.  A partially read
  or closed cursor caches nothing; a statement that fails caches
  nothing; a cursor that straddled a concurrent write caches nothing.
  Degraded ``<mix:error>`` paths can therefore never poison this cache:
  stubs are born from statements that raised, and raised statements
  never commit.
* **replayed rows are not source traffic** — a hit ships zero tuples
  through the wrapper boundary; replayed rows count under
  ``tuples_from_cache`` instead of ``tuples_shipped``, which is what the
  warm-vs-cold experiments measure.
"""

from __future__ import annotations

from repro import stats as statnames
from repro.relational import ast
from repro.relational.ast import bind_sql
from repro.relational.cursor import Cursor
from repro.relational.parser import parse_sql
from repro.cache.keys import normalize_sql
from repro.cache.lru import LRUCache


class _Entry:
    """One cached result: the rows, the tables they were read from and
    the versions those were at."""

    __slots__ = ("tables", "fingerprint", "column_names", "rows")

    def __init__(self, tables, fingerprint, column_names, rows):
        self.tables = tables
        self.fingerprint = fingerprint
        self.column_names = list(column_names)
        self.rows = tuple(rows)


class SqlResultCache:
    """A bounded LRU of fully fetched SELECT results.

    Example::

        cache = SqlResultCache(maxsize=64, obs=db.stats)
        cursor = cache.execute(db, "SELECT * FROM customer")
        cursor.fetchall()                       # miss: executes, records
        cache.execute(db, "SELECT * FROM customer").fetchall()  # hit
        db.run("INSERT INTO customer VALUES (...)")
        cache.execute(db, "SELECT * FROM customer")  # invalidated: re-runs
    """

    def __init__(self, maxsize=128, obs=None, prefix="sql_cache"):
        self._lru = LRUCache(maxsize, obs=obs, prefix=prefix)

    @staticmethod
    def _fingerprint(versions, tables):
        """``(epoch, version)`` per referenced table in ``versions``
        (:meth:`~repro.relational.Database.table_versions`); ``None``
        entries (dropped tables) can never match a stored fingerprint."""
        return tuple((name, versions.get(name)) for name in tables)

    # -- the wrapper-facing call ------------------------------------------------------

    def execute(self, database, sql, params=()):
        """Serve ``sql`` run with ``params`` (its ``?N`` values) from
        cache, or execute-and-record through ``database``; always
        returns a :class:`Cursor`.

        The key is the statement's layout-free text and the values, so
        one template serves every request that binds it alike.  A hit
        reads no statement (the entry knows its tables); a miss takes
        the statement from the parse memo, which parses a text only the
        first time it is seen, and hands it down to the database.
        """
        key = (normalize_sql(sql), tuple(params))
        versions = database.table_versions()
        hit, entry = self._lru.lookup(
            key,
            validate=lambda e: e.fingerprint == self._fingerprint(
                versions, e.tables
            ),
        )
        if hit:
            database.stats.event(
                "sql_cache_hit", normalize_sql(bind_sql(sql, params)),
                database=database.name,
            )
            return self._replay(database, entry)
        stmt = parse_sql(sql)
        if not isinstance(stmt, ast.SelectStmt):
            # only SELECTs are cacheable
            return database.execute(sql, params, stmt)
        tables = tuple(sorted({ref.table for ref in stmt.tables}))
        return self._record(
            database, sql, params, stmt, key, tables,
            self._fingerprint(versions, tables),
        )

    def _replay(self, database, entry):
        def rows():
            for row in entry.rows:
                database.stats.incr(statnames.TUPLES_FROM_CACHE)
                yield row

        # stats=None: replayed rows never count as tuples_shipped — they
        # do not cross the source boundary.
        return Cursor(entry.column_names, rows(), stats=None)

    def _record(self, database, sql, params, stmt, key, tables, fingerprint):
        # The caller gets the database's cursor: one fetch, counted once.
        cursor = database.execute(sql, params, stmt)

        def commit(rows):
            # Exhausted: commit only if no referenced table moved while
            # the cursor was open (a torn read must not be cached).
            current = self._fingerprint(database.table_versions(), tables)
            if current == fingerprint:
                self._lru.store(
                    key, _Entry(tables, fingerprint, cursor.column_names, rows)
                )

        return cursor.record(commit)

    # -- maintenance / inspection -----------------------------------------------------

    def clear(self):
        return self._lru.clear()

    def stats(self):
        return self._lru.stats()

    def __len__(self):
        return len(self._lru)

    def __repr__(self):
        return "SqlResultCache({!r})".format(self._lru)
