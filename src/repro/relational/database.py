"""The database facade: tables, DDL/DML, and query execution."""

from __future__ import annotations

import itertools
import threading

from repro import stats as statnames
from repro.errors import SchemaError, SqlError
from repro.relational import ast
from repro.relational.cursor import Cursor
from repro.relational.executor import compare, execute_select
from repro.relational.parser import parse_sql
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.obs.instrument import Instrument


class Database:
    """A named collection of tables plus a statistics registry.

    Example::

        db = Database("auction")
        db.run("CREATE TABLE customer (id TEXT, name TEXT, addr TEXT,"
               " PRIMARY KEY (id))")
        db.run("INSERT INTO customer VALUES ('XYZ', 'XYZInc.', 'LosAngeles')")
        cursor = db.execute("SELECT id, name FROM customer ORDER BY id")
        cursor.fetchone()   # ('XYZ', 'XYZInc.')
    """

    def __init__(self, name="db", stats=None, optimizer=True):
        self.name = name
        self.stats = stats or Instrument()
        #: When true the executor plans SELECTs cost-based (join order,
        #: build side, index choice, sort vs key order) from ``ANALYZE``
        #: statistics; when false it keeps the seed's syntactic
        #: FROM-order planning.
        self.optimizer = optimizer
        self._tables = {}
        # Table *epochs* make versions survive drop/recreate: a table
        # recreated under an old name gets a fresh epoch from this
        # monotone clock, so no cached fingerprint can ever match it.
        self._epoch_clock = itertools.count(1)
        self._epochs = {}
        # Writers are serialized: concurrent DML/DDL from server threads
        # would otherwise lose ``Table.version`` bumps (a read-modify-
        # write), and a lost bump makes the result caches serve stale
        # rows.  Readers never take this lock — delete/update swap in a
        # fresh row list atomically, so an open cursor keeps iterating a
        # consistent snapshot.
        self._write_lock = threading.RLock()

    # -- schema ---------------------------------------------------------------

    def create_table(self, name, columns, primary_key=()):
        """Create a table from ``[(col_name, ColumnType), ...]``."""
        if name in self._tables:
            raise SchemaError("table {!r} already exists".format(name))
        schema = TableSchema(
            name, [Column(n, t) for n, t in columns], primary_key
        )
        table = Table(schema, stats=self.stats)
        self._tables[name] = table
        self._epochs[name] = next(self._epoch_clock)
        return table

    def drop_table(self, name):
        self.table(name)  # raises when absent
        del self._tables[name]
        del self._epochs[name]

    def table(self, name):
        """The :class:`Table` called ``name`` (raises :class:`SchemaError`)."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError("no table {!r} in database {!r}".format(
                name, self.name
            ))

    def table_names(self):
        return sorted(self._tables)

    def has_table(self, name):
        return name in self._tables

    def table_versions(self):
        """``{table: (epoch, write_version)}`` for every live table.

        The pair is the exact invalidation token of :mod:`repro.cache`:
        ``write_version`` moves on every DML/DDL statement touching the
        table (see :class:`~repro.relational.table.Table`), ``epoch``
        moves when the table is dropped and recreated.  Reads never move
        either, so a cache keyed on these tokens is invalidated by
        writes and only by writes — never by time.

        Taken under the write lock so a fingerprint never interleaves
        with a half-applied statement (no torn version snapshots).
        """
        with self._write_lock:
            return {
                name: (self._epochs[name], table.version)
                for name, table in self._tables.items()
            }

    # -- optimizer statistics ----------------------------------------------------

    def analyze(self, table_name=None):
        """Collect optimizer statistics (``ANALYZE [table]``).

        Profiles ``table_name`` (or every table) and stores a
        :class:`~repro.optimizer.statistics.TableStatistics` snapshot on
        each table, stamped with the table's current ``(epoch,
        version)`` so later DML makes it stale rather than wrong.
        Returns the number of tables analyzed.
        """
        from repro.optimizer.statistics import collect_table_statistics

        names = [table_name] if table_name else self.table_names()
        with self._write_lock:
            for name in names:
                table = self.table(name)
                table.statistics = collect_table_statistics(
                    table, epoch=self._epochs[name]
                )
        if names:
            self.stats.incr(statnames.TABLES_ANALYZED, len(names))
        return len(names)

    def estimate(self, sql):
        """Estimated result rows for a SELECT, or ``None``.

        Requires fresh (post-``ANALYZE``, pre-DML) statistics on every
        referenced table; never touches data or counters.
        """
        from repro.optimizer.cost import estimate_select

        stmt = parse_sql(sql)
        if not isinstance(stmt, ast.SelectStmt):
            raise SqlError("estimate() is for SELECT statements")
        return estimate_select(self, stmt)

    # -- statement execution ----------------------------------------------------

    def execute(self, sql, params=(), stmt=None):
        """Execute a SELECT; returns a :class:`Cursor`.

        ``params`` are the values of the statement's ``?N`` slots
        (0-based): the text is parsed once (the parse memo of
        :func:`~repro.relational.parser.parse_sql`) and every execute
        binds its values into a copy of the predicates, then plans the
        bound statement.  ``stmt`` is ``parse_sql(sql)`` when the caller
        already has it.

        Issuing the statement counts one :data:`repro.stats.SQL_QUERIES`;
        rows are counted as shipped only when fetched.
        """
        if stmt is None:
            stmt = parse_sql(sql)
        if not isinstance(stmt, ast.SelectStmt):
            raise SqlError("execute() is for SELECT; use run() for DDL/DML")
        stmt = stmt.bind(params)
        self.stats.incr(statnames.SQL_QUERIES)
        self.stats.event("sql", ast.bind_sql(sql, params), database=self.name)
        names, rows, after_fetch = execute_select(self, stmt)
        return Cursor(names, rows, stats=self.stats, after_fetch=after_fetch)

    def run(self, sql):
        """Execute DDL/DML; returns the affected row count.

        Statements are applied under the database write lock, so
        concurrent writers from different threads serialize and every
        version bump is counted.
        """
        stmt = parse_sql(sql)
        if isinstance(stmt, ast.SelectStmt):
            raise SqlError("run() is for DDL/DML; use execute() for SELECT")
        with self._write_lock:
            return self._apply(stmt)

    def _apply(self, stmt):
        if isinstance(stmt, ast.CreateTableStmt):
            self.create_table(stmt.name, stmt.columns, stmt.primary_key)
            return 0
        if isinstance(stmt, ast.CreateIndexStmt):
            self.table(stmt.table).create_index(stmt.columns)
            return 0
        if isinstance(stmt, ast.InsertStmt):
            table = self.table(stmt.table)
            return table.insert_many(stmt.rows)
        if isinstance(stmt, ast.AnalyzeStmt):
            return self.analyze(stmt.table)
        if isinstance(stmt, (ast.DeleteStmt, ast.UpdateStmt)):
            table = self.table(stmt.table)
            pred = self._row_predicate(table, stmt.predicates)
            key = self._bound_key(table, stmt.predicates)
            if isinstance(stmt, ast.DeleteStmt):
                return table.delete_where(pred, key)
            assignments = [
                (table.schema.column_index(col), lit.value)
                for col, lit in stmt.assignments
            ]

            def updater(row):
                new_row = list(row)
                for idx, value in assignments:
                    new_row[idx] = value
                return new_row

            return table.update_where(pred, updater, key)
        raise SqlError("unsupported statement {!r}".format(stmt))

    @staticmethod
    def _bound_key(table, predicates):
        """The primary-key tuple a DML ``WHERE`` binds, each key column
        by ``column = literal`` in either operand order, or ``None``.
        With a key the row it names is the statement's only candidate;
        the whole ``WHERE`` is still tested on that row, so other ANDed
        predicates (or a second, different binding) still filter."""
        key_columns = table.schema.primary_key
        if not key_columns:
            return None
        bound = {}
        for p in predicates:
            if p.op != "=":
                continue
            for column, value in ((p.left, p.right), (p.right, p.left)):
                if type(column) is ast.ColRef and type(value) is ast.Literal:
                    bound.setdefault(column.column, value.value)
        if not all(column in bound for column in key_columns):
            return None
        return tuple(bound[column] for column in key_columns)

    def _row_predicate(self, table, predicates):
        """Compile WHERE predicates into one single-row test for DML.

        Each operand is resolved once, to a column index or a literal
        value, so a row pays one call of the test and one
        :func:`compare` per predicate."""
        terms = [
            (self._dml_operand(table, p.left), p.op,
             self._dml_operand(table, p.right))
            for p in predicates
        ]
        if len(terms) == 1:
            (left, __), op, (right, value) = terms[0]
            if left is not None and right is None:
                return lambda row: compare(row[left], op, value)

        def test(row):
            for (left, literal), op, (right, value) in terms:
                if not compare(literal if left is None else row[left], op,
                               value if right is None else row[right]):
                    return False
            return True

        return test

    @staticmethod
    def _dml_operand(table, operand):
        """``(column index, None)`` for a column, ``(None, value)`` for a
        literal."""
        if isinstance(operand, ast.Param):
            raise SqlError("DML takes no parameters ({!r})".format(operand))
        if isinstance(operand, ast.Literal):
            return None, operand.value
        if operand.qualifier not in (None, table.schema.name):
            raise SchemaError(
                "DML predicates may only reference {!r}".format(
                    table.schema.name
                )
            )
        return table.schema.column_index(operand.column), None

    def __repr__(self):
        return "Database({}, tables={})".format(self.name, self.table_names())
