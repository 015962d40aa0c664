"""In-memory tables with primary-key enforcement and scan counting."""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import compress, count, islice

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
        self._key_columns = tuple(schema.key_indexes())
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
            self._append([row])
        return row

    def insert_many(self, rows):
        """Insert several rows; returns the number inserted.  Every row
        and key is checked, within the batch and against the table,
        before any row is appended: a batch that fails inserts nothing."""
        rows = [self.schema.validate_row(values) for values in rows]
        with self._lock:
            self._append(rows)
        return len(rows)

    def _append(self, rows):
        start = len(self._rows)
        if self._key_index is not None:
            keys = [self._key(row) for row in rows]
            fresh = set()
            for key in keys:
                if key in self._key_index or key in fresh:
                    raise IntegrityError(
                        "duplicate primary key {!r} in table {!r}".format(
                            key, self.schema.name
                        )
                    )
                fresh.add(key)
            for position, key in enumerate(keys, start):
                self._key_index[key] = position
        self._rows.extend(rows)
        self.version += len(rows)
        for columns, index in self._secondary.items():
            for position, row in enumerate(rows, start):
                index.setdefault(self._index_key(columns, row), []).append(
                    position
                )

    def delete_where(self, predicate, key=None):
        """Delete the rows ``predicate`` accepts; returns their count.

        ``key``, a primary-key tuple, makes the row that key names the
        only candidate (``predicate`` is still tested on it); without
        one every row is.  The write version bumps whether or not rows
        matched — every DML statement invalidates, which can only
        over-invalidate.
        """
        with self._lock:
            positions = self._locate(predicate, key)
            self._edit(positions)
        return len(positions)

    def update_where(self, predicate, updater, key=None):
        """Replace each row ``predicate`` accepts by ``updater(row)``;
        returns their count.  ``key`` as in :meth:`delete_where`."""
        with self._lock:
            positions = self._locate(predicate, key)
            rows = self._rows
            self._edit(positions, [
                self.schema.validate_row(updater(rows[pos]))
                for pos in positions
            ])
        return len(positions)

    def _locate(self, predicate, key):
        """Ascending positions of the rows ``predicate`` accepts among
        the candidates (see :meth:`delete_where`)."""
        rows = self._rows
        if key is None:
            return list(compress(count(), map(predicate, rows)))
        pos = self._key_index.get(key)
        return [] if pos is None or not predicate(rows[pos]) else [pos]

    def _edit(self, positions, new_rows=None):
        """Swap in a new version with the rows at ``positions`` (ascending)
        replaced by ``new_rows``, or removed when it is ``None``, and
        bump the write version.

        The row list is copied and only the located entries change.  A
        captured :class:`AccessPaths` keeps the old structures, so the
        key index is kept as it is while no key moves (an update keeps
        every position, and inserts only add positions past an old
        version's count) and edited on a copy otherwise; secondary
        indexes change copy-on-write.  Every check runs before the
        swap: a statement that fails changes nothing.
        """
        if positions:
            if new_rows is None:
                version = self._deleted(positions)
            else:
                version = self._replaced(positions, new_rows)
            self._rows, self._key_index, self._secondary = version
        self.version += 1

    def _replaced(self, positions, new_rows):
        """``(rows, key index, secondary indexes)`` with the rows at
        ``positions`` replaced by ``new_rows``."""
        old_rows = self._rows
        key_index = self._key_index
        if key_index is not None:
            moved = [
                (self._key(old_rows[pos]), self._key(row), pos)
                for pos, row in zip(positions, new_rows)
            ]
            moved = [m for m in moved if m[0] != m[1]]
            if moved:
                key_index = key_index.copy()
                for old_key, __, __ in moved:
                    del key_index[old_key]
                for __, new_key, pos in moved:
                    if new_key in key_index:
                        raise IntegrityError(
                            "update produced duplicate key {!r} in {!r}"
                            .format(new_key, self.schema.name)
                        )
                    key_index[new_key] = pos
        secondary = {}
        for columns, index in self._secondary.items():
            removed, added = {}, {}
            for pos, row in zip(positions, new_rows):
                old = self._index_key(columns, old_rows[pos])
                new = self._index_key(columns, row)
                if old != new:
                    removed.setdefault(old, set()).add(pos)
                    added.setdefault(new, []).append(pos)
            if removed:
                index = index.copy()
                for bucket_key in removed.keys() | added.keys():
                    gone = removed.get(bucket_key, ())
                    bucket = [
                        p for p in index.get(bucket_key, ()) if p not in gone
                    ]
                    bucket = sorted(bucket + added.get(bucket_key, []))
                    if bucket:
                        index[bucket_key] = bucket
                    else:
                        del index[bucket_key]
            secondary[columns] = index
        rows = old_rows.copy()
        for pos, row in zip(positions, new_rows):
            rows[pos] = row
        return rows, key_index, secondary

    def _deleted(self, positions):
        """``(rows, key index, secondary indexes)`` without the rows at
        ``positions``."""
        old_rows = self._rows
        first = positions[0]
        rows = old_rows[:first]
        for pos, end in zip(positions, positions[1:] + [len(old_rows)]):
            rows += old_rows[pos + 1:end]
        key_index = self._key_index
        if key_index is not None:
            key_index = key_index.copy()
            for pos in positions:
                del key_index[self._key(old_rows[pos])]
            for pos in range(first, len(rows)):
                key_index[self._key(rows[pos])] = pos
        gone = set(positions)

        def renumbered(bucket):
            # Every bucket becomes a new list: the table shrank, and an
            # insert appends to buckets in place at positions an older
            # version still counts as its own.
            if bucket[-1] < first:
                return bucket.copy()
            return [
                p - bisect_left(positions, p) for p in bucket if p not in gone
            ]

        secondary = {}
        for columns, index in self._secondary.items():
            secondary[columns] = fresh = {}
            for bucket_key, bucket in index.items():
                bucket = renumbered(bucket)
                if bucket:
                    fresh[bucket_key] = bucket
        return rows, key_index, secondary

    def _key(self, row):
        return tuple(row[i] for i in self._key_columns)

    # -- secondary indexes ------------------------------------------------------

    def create_index(self, columns):
        """Create (or return) a hash index on ``columns``.

        Used by the executor for equality predicates; maintained on
        insert and edited copy-on-write on delete/update.
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
