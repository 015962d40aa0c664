"""A ``sqlite3``-backed relational wrapper.

The mediator's relational protocol was designed against the in-process
:class:`repro.relational.Database`; this wrapper speaks the same
protocol over a real SQLite database (stdlib ``sqlite3``, no new
dependency): documents as ``list``-rooted tables of tuple objects with
key-derived oids (paper Fig. 2), pushed-down SQL through
:meth:`execute_sql` with every shipped row counted, ``data_version()``
for the result caches, ``set_block_size`` batching, and ``ANALYZE``
min/max statistics for shard pruning.

It is usable standalone (``Mediator().add_source(SqliteWrapper(...))``)
or as a member of a :class:`~repro.sources.shard.ShardedSource` — each
member then owns its *own* connection, which is what lets a scatter's
member statements run concurrently.
"""

from __future__ import annotations

import sqlite3

from repro import stats as statnames
from repro.errors import SourceError
from repro.optimizer.statistics import ColumnStatistics, TableStatistics
from repro.relational.cursor import Cursor
from repro.relational.schema import Column, TableSchema
from repro.relational.types import TEXT, TYPE_NAMES
from repro.sources.base import Source
from repro.stats import StatsRegistry
from repro.xmltree.tree import Node, OidGenerator

#: Rows crossing the sqlite C boundary per generator step.
_FETCH_BATCH = 256


class SqliteWrapper(Source):
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
        self.connection = sqlite3.connect(
            path, check_same_thread=False
        )
        self.server_name = server_name
        self.stats = stats if stats is not None else StatsRegistry()
        self._documents = {}   # doc_id -> (table name, element label)
        self._oids = OidGenerator("q")
        self._block_size = 1
        self._statistics = {}  # table -> (TableStatistics, version stamp)

    # -- configuration -------------------------------------------------------------

    def register_document(self, doc_id, table_name, element_label=None):
        """Export ``table_name`` as the document ``doc_id``."""
        self.describe_table(table_name)  # validate early
        self._documents[doc_id] = (table_name, element_label or table_name)
        return self

    def set_block_size(self, size):
        """Batch document-iteration fetches to ``size`` rows (the same
        duck protocol as :class:`RelationalWrapper`)."""
        size = int(size)
        self._block_size = size if size > 1 else 1
        return self

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

    # -- Source interface ----------------------------------------------------------

    def document_ids(self):
        return sorted(self._documents)

    def table_for_document(self, doc_id):
        return self._doc_entry(doc_id)[0]

    def label_for_document(self, doc_id):
        return self._doc_entry(doc_id)[1]

    def _doc_entry(self, doc_id):
        try:
            return self._documents[doc_id]
        except KeyError:
            raise SourceError(
                "wrapper {!r} exports no document {!r}".format(
                    self.server_name, doc_id
                ),
                doc_id=doc_id,
                source=self.server_name,
            )

    def iter_document_children(self, doc_id):
        """Cursor-driven tuple objects, one per pull, fetched
        ``set_block_size`` rows at a time (width 1 is a one-row fetch)."""
        table_name, label = self._doc_entry(doc_id)
        schema = self.describe_table(table_name)
        stats = self.stats
        span_name = "wrap({})".format(doc_id)
        span_key = "wrap:{}:{}".format(self.server_name, doc_id)
        with self._span(stats, span_name, span_key, table_name):
            cursor = self.execute_sql(
                "SELECT * FROM {}".format(_quote(table_name))
            )
        while True:
            with self._span(stats, span_name, span_key, table_name):
                rows = cursor.fetch_block(self._block_size)
                if not rows:
                    return
                stats.incr(statnames.SOURCE_NAVIGATIONS, len(rows))
                elements = [
                    self.row_to_element(schema, row, label=label)
                    for row in rows
                ]
            for element in elements:
                yield element

    @staticmethod
    def _span(stats, name, key, table_name):
        return stats.operator_span(
            name, key=key, kind="source", table=table_name
        )

    def materialize_document(self, doc_id):
        root = Node("&{}".format(doc_id), "list")
        for child in self.iter_document_children(doc_id):
            root.append(child)
        return root

    def supports_sql(self):
        return True

    def execute_sql(self, sql):
        self.stats.incr(statnames.SQL_QUERIES)
        try:
            cursor = self.connection.execute(sql)
        except sqlite3.Error as exc:
            raise SourceError(
                "sqlite rejected SQL: {}".format(exc),
                sql=sql,
                source=self.server_name,
            )
        if cursor.description is None:  # DDL/DML pushed through
            self.connection.commit()
            return Cursor([], (), self.stats)
        names = [d[0] for d in cursor.description]
        return Cursor(names, self._row_stream(cursor, sql), self.stats)

    def _row_stream(self, cursor, sql):
        while True:
            try:
                batch = cursor.fetchmany(_FETCH_BATCH)
            except sqlite3.Error as exc:
                raise SourceError(
                    "sqlite failed mid-stream: {}".format(exc),
                    sql=sql,
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

    # -- element assembly (Fig. 2 layout, as RelationalWrapper) ---------------------

    def row_to_element(self, schema, row, label=None):
        element = Node(
            self.oid_for_row(schema, row), label or schema.name
        )
        for col, value in zip(schema.columns, row):
            if value is None:
                continue
            field = Node(self._oids.fresh(), col.name)
            field.append(Node(self._oids.fresh(), value))
            element.append(field)
        return element

    def oid_for_row(self, schema, row):
        key_idx = schema.key_indexes()
        if not key_idx:
            return self._oids.fresh()
        return "&" + "/".join(str(row[i]) for i in key_idx)

    def oid_to_key(self, table_name, oid):
        schema = self.describe_table(table_name)
        if not str(oid).startswith("&"):
            raise SourceError(
                "not a wrapper oid: {!r}".format(oid),
                source=self.server_name,
            )
        parts = str(oid)[1:].split("/")
        key_idx = schema.key_indexes()
        if len(parts) != len(key_idx):
            raise SourceError(
                "oid {!r} does not match the key of {!r}".format(
                    oid, table_name
                ),
                source=self.server_name,
            )
        return [
            schema.columns[i].type.accept(part)
            for i, part in zip(key_idx, parts)
        ]

    def close(self):
        self.connection.close()

    def __repr__(self):
        return "SqliteWrapper({}, docs={})".format(
            self.server_name, self._documents
        )


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
