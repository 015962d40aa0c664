"""A ``sqlite3``-backed relational wrapper.

The mediator's relational protocol was designed against the in-process
:class:`repro.relational.Database`; this wrapper speaks the same
protocol over a real SQLite database (stdlib ``sqlite3``, no new
dependency).  The Fig.-2 export — documents, tuple objects, key-derived
oids, block batching — is the shared
:class:`~repro.sources.relational.TableSource`; this module supplies
only what is SQLite's: pushed-down SQL through :meth:`execute_sql` with
every shipped row counted, schemas from ``PRAGMA table_info``,
``data_version()`` for the result caches, and ``ANALYZE`` min/max
statistics for shard pruning.

It is usable standalone (``Mediator().add_source(SqliteWrapper(...))``)
or as a member of a :class:`~repro.sources.shard.ShardedSource` — each
member then owns its *own* connection, which is what lets a scatter's
member statements run concurrently.
"""

from __future__ import annotations

import functools
import sqlite3

from repro import stats as statnames
from repro.errors import SourceError
from repro.obs.instrument import Instrument
from repro.optimizer.statistics import ColumnStatistics, TableStatistics
from repro.relational.ast import bind_sql, replace_params
from repro.relational.cursor import Cursor
from repro.relational.schema import Column, TableSchema
from repro.relational.types import TEXT, TYPE_NAMES
from repro.sources.relational import TableSource

#: Rows crossing the sqlite C boundary per generator step.
_FETCH_BATCH = 256


class SqliteWrapper(TableSource):
    """Wraps a SQLite database as an XML source.

    Args:
        path: database path (default in-memory).
        server_name: the catalog server name.
        stats: the :class:`~repro.obs.Instrument` shipped rows and SQL
            statements are counted on (one is created when omitted).

    Example::

        wrapper = SqliteWrapper(server_name="sq")
        wrapper.run("CREATE TABLE customer (id INTEGER PRIMARY KEY, "
                    "name TEXT)")
        wrapper.run("INSERT INTO customer VALUES (1, 'ACME')")
        wrapper.register_document("root1", "customer")
    """

    def __init__(self, path=":memory:", server_name="sqlite", stats=None):
        # check_same_thread=False: scatter-gather fetches member blocks
        # from pool threads; the sqlite3 module serializes access to
        # the connection itself.
        super().__init__(server_name, "q")
        self.connection = sqlite3.connect(
            path, check_same_thread=False
        )
        self.stats = stats if stats is not None else Instrument()
        self._statistics = {}  # table -> (TableStatistics, version stamp)

    def run(self, sql, params=()):
        """Execute DDL/DML (committed immediately); returns rowcount."""
        try:
            cursor = self.connection.execute(sql, params)
            self.connection.commit()
        except sqlite3.Error as exc:
            raise SourceError(
                "sqlite rejected statement: {}".format(exc),
                sql=sql,
                source=self.server_name,
            )
        return cursor.rowcount

    def run_many(self, sql, rows):
        """``executemany`` + commit, for bulk loading."""
        try:
            self.connection.executemany(sql, rows)
            self.connection.commit()
        except sqlite3.Error as exc:
            raise SourceError(
                "sqlite rejected batch statement: {}".format(exc),
                sql=sql,
                source=self.server_name,
            )
        return self

    # -- versioning ----------------------------------------------------------------

    def data_version(self):
        """Write fingerprint: this connection's change counter plus the
        file's cross-connection ``PRAGMA data_version``."""
        pragma = self.connection.execute("PRAGMA data_version").fetchone()
        return (
            "sqlite",
            self.server_name,
            self.connection.total_changes,
            pragma[0] if pragma else 0,
        )

    # -- statistics (ANALYZE) ------------------------------------------------------

    def analyze(self, table_name=None):
        """Collect row-count/NDV/min-max statistics via SQL.

        Returns the number of tables profiled.  Statistics are stamped
        with :meth:`data_version` and go stale on any write, matching
        the in-process wrapper's freshness rule.
        """
        tables = [table_name] if table_name else self._user_tables()
        stamp = self.data_version()
        for table in tables:
            stats = self._collect(table)
            self._statistics[table] = (stats, stamp)
            self.stats.incr(statnames.TABLES_ANALYZED)
        return len(tables)

    def table_statistics(self, table_name):
        """Fresh statistics for ``table_name``, or ``None``."""
        entry = self._statistics.get(table_name)
        if entry is None:
            return None
        stats, stamp = entry
        return stats if stamp == self.data_version() else None

    def _user_tables(self):
        rows = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name"
        ).fetchall()
        return [r[0] for r in rows]

    def _collect(self, table_name):
        schema = self.describe_table(table_name)
        quoted = _quote(table_name)
        (row_count,) = self.connection.execute(
            "SELECT COUNT(*) FROM {}".format(quoted)
        ).fetchone()
        columns = {}
        for column in schema.columns:
            q = _quote(column.name)
            non_null, ndv, lo, hi = self.connection.execute(
                "SELECT COUNT({0}), COUNT(DISTINCT {0}), MIN({0}), "
                "MAX({0}) FROM {1}".format(q, quoted)
            ).fetchone()
            null_fraction = (
                (row_count - non_null) / row_count if row_count else 0.0
            )
            columns[column.name] = ColumnStatistics(
                column.name, ndv, lo, hi, null_fraction
            )
        return TableStatistics(
            table_name, row_count, columns, version=self.data_version()
        )

    # -- SQL -----------------------------------------------------------------------

    def execute_sql(self, sql, params=()):
        """Run ``sql``; its ``?N`` slots (0-based) become sqlite's
        ``?N+1`` parameters, so sqlite prepares a text once however
        many values it runs with."""
        self.stats.incr(statnames.SQL_QUERIES)
        text = _sqlite_slots(sql) if params else sql
        try:
            cursor = self.connection.execute(text, params)
        except sqlite3.Error as exc:
            raise SourceError(
                "sqlite rejected SQL: {}".format(exc),
                sql=bind_sql(sql, params),
                source=self.server_name,
            )
        if cursor.description is None:  # DDL/DML pushed through
            self.connection.commit()
            return Cursor([], (), self.stats)
        names = [d[0] for d in cursor.description]
        return Cursor(
            names, self._row_stream(cursor, sql, params), self.stats
        )

    def _row_stream(self, cursor, sql, params):
        while True:
            try:
                batch = cursor.fetchmany(_FETCH_BATCH)
            except sqlite3.Error as exc:
                raise SourceError(
                    "sqlite failed mid-stream: {}".format(exc),
                    sql=bind_sql(sql, params),
                    source=self.server_name,
                )
            if not batch:
                return
            for row in batch:
                yield tuple(row)

    def describe_table(self, table_name):
        try:
            rows = self.connection.execute(
                "PRAGMA table_info({})".format(_quote(table_name))
            ).fetchall()
        except sqlite3.Error as exc:
            raise SourceError(
                "sqlite could not describe {!r}: {}".format(
                    table_name, exc
                ),
                source=self.server_name,
            )
        if not rows:
            raise SourceError(
                "sqlite server {!r} has no table {!r}".format(
                    self.server_name, table_name
                ),
                source=self.server_name,
            )
        columns = [
            Column(name, _column_type(declared))
            for __, name, declared, __, __, __ in rows
        ]
        key = [
            (pk, name) for __, name, __, __, __, pk in rows if pk
        ]
        primary_key = tuple(name for __, name in sorted(key))
        return TableSchema(table_name, columns, primary_key=primary_key)

    def _scan_sql(self, table_name):
        return "SELECT * FROM {}".format(_quote(table_name))

    def close(self):
        self.connection.close()


@functools.lru_cache(maxsize=256)
def _sqlite_slots(sql):
    """``sql`` with each 0-based ``?N`` slot renumbered to sqlite's
    1-based ``?N+1``; once per text."""
    return replace_params(sql, lambda slot: "?{}".format(slot + 1))


def _quote(identifier):
    return '"{}"'.format(str(identifier).replace('"', '""'))


def _column_type(declared):
    """Map a declared SQLite column type to the engine's type system.

    SQLite's type affinity accepts arbitrary declarations like
    ``VARCHAR(30)``; the leading word decides, unknown words fall back
    to TEXT (SQLite's own behavior for unparseable declarations is
    looser still).
    """
    token = str(declared or "").split("(")[0].strip().split()
    name = token[0].upper() if token else ""
    return TYPE_NAMES.get(name, TEXT)
