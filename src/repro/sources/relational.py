"""The relational-to-XML wrapper (paper Fig. 2).

Each registered table becomes a document: a ``list``-labeled root whose
children are "tuple objects" — one element per row, labeled with the
table name, whose children are field elements with leaf values.  "The
relational database wrapper exporting the database assigns the tuple keys
(eg, XYZ123) to be the oid's of the corresponding 'tuple' objects —
after it precedes them with the &."

Laziness: :meth:`iter_document_children` drives a cursor, so rows the
mediator never navigates to are never shipped (or even joined, thanks to
the pipelined executor underneath).
"""

from __future__ import annotations

from repro import stats as statnames
from repro.errors import SourceError
from repro.xmltree.tree import Node, OidGenerator
from repro.sources.base import Source


class RelationalWrapper(Source):
    """Wraps a :class:`repro.relational.Database` as an XML source.

    Example::

        wrapper = RelationalWrapper(db, server_name="s")
        wrapper.register_document("root1", "customer")
        wrapper.register_document("root2", "orders")
    """

    def __init__(self, database, server_name="s"):
        self.database = database
        self.server_name = server_name
        self._documents = {}  # doc_id -> (table name, element label)
        self._oids = OidGenerator("w")
        self._sql_cache = None
        self._block_size = 1

    # -- block execution ----------------------------------------------------------

    def set_block_size(self, size):
        """Batch document-iteration row fetches to ``size`` rows.

        Set by :meth:`Mediator.add_source` to the mediator's block size.
        Document iteration still *yields* one element per pull (the
        engine's laziness contract is untouched, and fault-injecting
        proxies intercepting the iterator still see every item), but
        rows cross the cursor boundary ``fetch_block``-at-a-time and the
        per-row wrapper span collapses to one span per block.
        ``tuples_shipped`` stays per-row; batches count
        :data:`~repro.stats.BLOCKS_SHIPPED`.
        """
        size = int(size)
        self._block_size = size if size > 1 else 1
        return self

    # -- result caching ----------------------------------------------------------

    def enable_sql_cache(self, maxsize=128, obs=None):
        """Cache fully fetched SQL results, keyed by statement text +
        per-table write versions (see :mod:`repro.cache.sqlcache`).

        Counters land on ``obs`` (default: the database's instrument).
        ``maxsize=0`` leaves the wrapper uncached.
        """
        from repro.cache.sqlcache import SqlResultCache

        if maxsize:
            self._sql_cache = SqlResultCache(
                maxsize, obs=obs or self.database.stats
            )
        else:
            self._sql_cache = None
        return self

    def disable_sql_cache(self):
        self._sql_cache = None
        return self

    @property
    def sql_cache(self):
        """The attached :class:`SqlResultCache`, or ``None``."""
        return self._sql_cache

    def sql_cache_health(self):
        """Cumulative cache counters plus the wrapper's traffic tallies
        (rendered per source by ``Mediator.explain``)."""
        if self._sql_cache is None:
            return None
        health = {"source": self.server_name}
        health.update(self._sql_cache.stats())
        stats = self.database.stats
        health["tuples_shipped"] = stats.get(statnames.TUPLES_SHIPPED)
        health["tuples_from_cache"] = stats.get(statnames.TUPLES_FROM_CACHE)
        return health

    def data_version(self):
        """The wrapper's write-version fingerprint (navigation memo)."""
        return (
            "rel",
            self.server_name,
            tuple(sorted(self.database.table_versions().items())),
        )

    # -- optimizer statistics ----------------------------------------------------

    def set_cost_optimizer(self, enabled):
        """Switch the underlying database's cost-based planning."""
        self.database.optimizer = bool(enabled)
        return self

    def analyze(self):
        """``ANALYZE`` every exported table; returns the count."""
        return self.database.analyze()

    def table_statistics(self, table_name):
        """Fresh ``ANALYZE`` statistics for ``table_name``, or ``None``
        (never analyzed, or stale after DML)."""
        from repro.optimizer.statistics import fresh_statistics

        return fresh_statistics(self.database.table(table_name))

    def estimate_sql(self, sql):
        """Estimated result rows for a pushed SELECT, or ``None``.

        Estimates exist only when *every* referenced table has fresh
        statistics — a never-analyzed source yields no estimates, which
        keeps EXPLAIN output (and its goldens) unchanged by default.
        """
        from repro.optimizer.statistics import fresh_statistics
        from repro.relational import ast
        from repro.relational.parser import parse_sql

        stmt = parse_sql(sql)
        if not isinstance(stmt, ast.SelectStmt):
            return None
        for ref in stmt.tables:
            if not self.database.has_table(ref.table):
                return None
            table = self.database.table(ref.table)
            if fresh_statistics(table) is None:
                return None
        return self.database.estimate(sql)

    # -- configuration -----------------------------------------------------------

    def register_document(self, doc_id, table_name, element_label=None):
        """Export ``table_name`` as the document ``doc_id``.

        ``element_label`` names the exported tuple objects; it defaults
        to the table name but may differ (the paper's ``orders`` table
        exports ``order`` elements in Fig. 2).
        """
        self.database.table(table_name)  # validate early
        self._documents[doc_id] = (table_name, element_label or table_name)
        return self

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

    # -- Source interface -----------------------------------------------------------

    def document_ids(self):
        return sorted(self._documents)

    def iter_document_children(self, doc_id):
        """Cursor-driven tuple objects, one per pull, fetched
        ``set_block_size`` rows at a time (width 1 is a one-row fetch)."""
        table_name, label = self._doc_entry(doc_id)
        schema = self.database.table(table_name).schema
        stats = self.database.stats
        span_name = "wrap({})".format(doc_id)
        span_key = "wrap:{}:{}".format(self.server_name, doc_id)
        with self._span(stats, span_name, span_key, table_name):
            # Through execute_sql so document iteration shares the SQL
            # result cache with pushed rQ statements.
            cursor = self.execute_sql(
                "SELECT * FROM {}".format(table_name)
            )
        while True:
            # One span covers the whole batch: rows cross the cursor
            # boundary block-at-a-time, but each is still one source
            # navigation and one shipped tuple.
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
        """The whole document at once (eager baseline)."""
        root = Node("&{}".format(doc_id), "list")
        for child in self.iter_document_children(doc_id):
            root.append(child)
        return root

    def supports_sql(self):
        return True

    def execute_sql(self, sql):
        if self._sql_cache is not None:
            return self._sql_cache.execute(self.database, sql)
        return self.database.execute(sql)

    def describe_table(self, table_name):
        return self.database.table(table_name).schema

    # -- element assembly ------------------------------------------------------------

    def row_to_element(self, schema, row, label=None):
        """Build the tuple object for one row (Fig. 2 layout).

        SQL NULLs have no XML value representation in the paper's
        model; a NULL field is exported as an *absent* element, the
        idiomatic XML encoding (conditions on it are then false, which
        matches SQL's NULL comparison semantics).
        """
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
        """The key-derived oid of a row's tuple object (``&XYZ`` style).

        Keyless tables get surrogate oids — their tuple objects cannot be
        referenced by decontextualized queries, matching the paper's
        requirement that group-by variables be key-addressable.
        """
        key_idx = schema.key_indexes()
        if not key_idx:
            return self._oids.fresh()
        return "&" + "/".join(str(row[i]) for i in key_idx)

    def oid_to_key(self, table_name, oid):
        """Decode a tuple-object oid back to its key values."""
        schema = self.database.table(table_name).schema
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

    def __repr__(self):
        return "RelationalWrapper({}, docs={})".format(
            self.server_name, self._documents
        )
