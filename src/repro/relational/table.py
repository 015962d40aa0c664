"""In-memory tables with primary-key enforcement and scan counting."""

from __future__ import annotations

import threading
from itertools import islice

from repro.errors import IntegrityError, SchemaError
from repro import stats as statnames
from repro.relational.types import sort_key


class AccessPaths:
    """Uncounted read access to *one version* of a table.

    Captured under the table's lock, so rows, key index and secondary
    indexes belong to one version.  Later DML either appends past
    ``count`` (insert) or swaps in new structures (delete/update) —
    nothing captured here is ever mutated below ``count``, so whoever
    holds an ``AccessPaths`` keeps reading the version it was taken at.

    Two structures are built lazily and live as long as the version:

    * :meth:`key_order` — row positions sorted by primary key.  Derived
      from the key like a B-tree's leaf chain, so building it is not a
      scan;
    * a hash *join index* on one column (see :meth:`probe`), built by
      one counted scan on first use.

    Neither is a DDL index: they bump no ``version``, are invisible to
    :meth:`Table.indexes`, and so never reach plan keys or cache
    fingerprints.
    """

    def __init__(self, table):
        self.version = table.version
        self.rows = table._rows
        self.count = len(self.rows)
        self._table = table
        self._key_index = table._key_index
        self._secondary = dict(table._secondary)
        self._key_order = None
        self._join_indexes = {}

    def scan(self):
        """The version's rows in insertion order."""
        return islice(self.rows, self.count)

    def lookup(self, key):
        """The row with primary key tuple ``key``, or ``None``."""
        pos = self._key_index.get(key)
        if pos is None or pos >= self.count:
            return None
        return self.rows[pos]

    def index_rows(self, columns, values):
        """Rows whose DDL-indexed ``columns`` equal ``values``, which
        may bind only a leading prefix of the index columns; insertion
        order."""
        key = tuple(columns)
        if key not in self._secondary:
            raise SchemaError(
                "no index on {} of table {!r}".format(
                    key, self._table.schema.name
                )
            )
        if not values or len(values) > len(key):
            raise SchemaError(
                "index probe on {} needs 1..{} values, got {}".format(
                    key, len(key), len(values)
                )
            )
        index = self._secondary[key]
        probe = tuple(values)
        if len(probe) == len(key):
            positions = index.get(probe, ())
        else:
            # Prefix probe: gather matching buckets, restore insertion
            # order so results match a filtered scan's ordering.
            positions = sorted(
                pos
                for bucket_key, bucket in list(index.items())
                if bucket_key[: len(probe)] == probe
                for pos in bucket
            )
        rows, count = self.rows, self.count
        return [rows[pos] for pos in positions if pos < count]

    def key_order(self):
        """Row positions in primary-key order (:func:`sort_key` per
        key column, the order ``ORDER BY`` sorts by)."""
        if self._key_order is None:
            key_idx = self._table.schema.key_indexes()
            if not key_idx:
                raise SchemaError(
                    "table {!r} has no primary key".format(
                        self._table.schema.name
                    )
                )
            rows = self.rows
            with self._table._lock:
                if self._key_order is None:
                    self._key_order = sorted(
                        range(self.count),
                        key=lambda pos: [
                            sort_key(rows[pos][i]) for i in key_idx
                        ],
                    )
        return self._key_order

    def probe(self, columns):
        """``key -> rows`` (or ``None``) for equality on ``columns``,
        ``key`` being a bare value for one column and a tuple for
        several: through the DDL index on exactly these columns when
        there is one, else through the join index on the single
        column."""
        columns = tuple(columns)
        index = self._secondary.get(columns)
        if index is None:
            (column,) = columns
            return self._join_index(column).get
        rows, count = self.rows, self.count
        single = len(columns) == 1

        def indexed(key):
            bucket = index.get((key,) if single else key, ())
            return [rows[p] for p in bucket if p < count]

        return indexed

    def _join_index(self, column):
        index = self._join_indexes.get(column)
        if index is None:
            table = self._table
            col = table.schema.column_index(column)
            with table._lock:
                index = self._join_indexes.get(column)
                if index is None:
                    index = {}
                    for row in self.scan():
                        index.setdefault(row[col], []).append(row)
                    self._join_indexes[column] = index
                    if table._stats is not None:
                        table._stats.incr(statnames.ROWS_SCANNED, self.count)
        return index


class Table:
    """Rows of a single relation, stored as tuples in insertion order.

    A primary-key index (when the schema declares a key) gives O(1)
    point lookups, which the executor uses for key-equality predicates
    and the wrapper for oid-driven fetches.

    Mutators hold the table's lock, and so does capturing an
    :class:`AccessPaths`; readers take no lock afterwards.
    """

    def __init__(self, schema, stats=None):
        self.schema = schema
        self._rows = []
        self._stats = stats
        self._key_index = {} if schema.primary_key else None
        self._secondary = {}  # tuple(column names) -> {values: [positions]}
        self._lock = threading.Lock()
        self._paths = None
        #: Monotone write version: every DML/DDL touching this table
        #: bumps it, which is what the SQL result cache and the
        #: navigation memo fingerprint (version-based invalidation).
        self.version = 0
        #: Optimizer statistics (:class:`repro.optimizer.statistics
        #: .TableStatistics`) from the last ``ANALYZE``, or ``None``.
        #: Never invalidated in place — consumers compare the recorded
        #: version against the live one (same tokens as the cache).
        self.statistics = None

    def __len__(self):
        return len(self._rows)

    # -- mutation ------------------------------------------------------------

    def insert(self, values):
        """Insert one row (a sequence of values in column order)."""
        row = self.schema.validate_row(values)
        with self._lock:
            position = len(self._rows)
            if self._key_index is not None:
                key = tuple(row[i] for i in self.schema.key_indexes())
                if key in self._key_index:
                    raise IntegrityError(
                        "duplicate primary key {!r} in table {!r}".format(
                            key, self.schema.name
                        )
                    )
                self._key_index[key] = position
            self._rows.append(row)
            self.version += 1
            for columns, index in self._secondary.items():
                index.setdefault(self._index_key(columns, row), []).append(
                    position
                )
        return row

    def insert_many(self, rows):
        """Insert several rows; returns the number inserted."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def delete_where(self, predicate):
        """Delete rows for which ``predicate(row)`` is true; returns count.

        The write version bumps whether or not rows matched — every DML
        statement invalidates, which can only over-invalidate.
        """
        with self._lock:
            self.version += 1
            kept = [r for r in self._rows if not predicate(r)]
            removed = len(self._rows) - len(kept)
            if removed:
                self._replace_rows(kept)
        return removed

    def update_where(self, predicate, updater):
        """Apply ``updater(row) -> new_row`` to matching rows."""
        with self._lock:
            self.version += 1
            changed = 0
            new_rows = []
            for row in self._rows:
                if predicate(row):
                    new_rows.append(self.schema.validate_row(updater(row)))
                    changed += 1
                else:
                    new_rows.append(row)
            if changed:
                self._replace_rows(new_rows)
        return changed

    def _replace_rows(self, rows):
        """Swap in ``rows`` with freshly built indexes.  The old row
        list and index dicts are left as they were (an open cursor may
        still read them), and nothing is swapped when a key repeats."""
        key_index = None
        if self._key_index is not None:
            key_index = {}
            key_idx = self.schema.key_indexes()
            for pos, row in enumerate(rows):
                key = tuple(row[i] for i in key_idx)
                if key in key_index:
                    raise IntegrityError(
                        "update produced duplicate key {!r} in {!r}".format(
                            key, self.schema.name
                        )
                    )
                key_index[key] = pos
        self._rows = rows
        self._key_index = key_index
        for columns in self._secondary:
            self._secondary[columns] = self._build_secondary(columns)

    # -- secondary indexes ------------------------------------------------------

    def create_index(self, columns):
        """Create (or return) a hash index on ``columns``.

        Used by the executor for equality predicates; maintained on
        insert and rebuilt on delete/update.
        """
        key = tuple(columns)
        for name in key:
            self.schema.column_index(name)  # validates
        with self._lock:
            if key not in self._secondary:
                self._secondary[key] = self._build_secondary(key)
                self.version += 1  # DDL: cached plans over old physics expire
        return key

    def indexes(self):
        """The column tuples of all secondary indexes."""
        return sorted(self._secondary)

    def usable_indexes(self, bound):
        """``[(columns, prefix_len)]`` for every index with a leading
        prefix of its columns among the ``bound`` column names (an index
        on ``(a, b)`` answers ``a = 1``)."""
        candidates = []
        for columns in self.indexes():
            prefix_len = 0
            while prefix_len < len(columns) and columns[prefix_len] in bound:
                prefix_len += 1
            if prefix_len:
                candidates.append((columns, prefix_len))
        return candidates

    def _build_secondary(self, columns):
        index = {}
        for position, row in enumerate(self._rows):
            index.setdefault(self._index_key(columns, row), []).append(
                position
            )
        return index

    def _index_key(self, columns, row):
        return tuple(row[self.schema.column_index(c)] for c in columns)

    # -- access --------------------------------------------------------------

    def access_paths(self):
        """The :class:`AccessPaths` of the current version (the same
        object until the version moves, so its lazily built structures
        serve every statement in between)."""
        paths = self._paths
        if paths is None or paths.version != self.version:
            with self._lock:
                paths = self._paths
                if paths is None or paths.version != self.version:
                    paths = self._paths = AccessPaths(self)
        return paths

    def rows_snapshot(self):
        """A copy of all rows, *not* counted as scanned (test helper)."""
        return list(self._rows)

    def __repr__(self):
        return "Table({}, {} rows)".format(self.schema.name, len(self._rows))
