"""The relational-to-XML export (paper Fig. 2), shared by every SQL back end.

Each registered table becomes a document: a ``list``-labeled root whose
children are "tuple objects" — one element per row, labeled with the
table name, whose children are field elements with leaf values.  "The
relational database wrapper exporting the database assigns the tuple keys
(eg, XYZ123) to be the oid's of the corresponding 'tuple' objects —
after it precedes them with the &."

The export exists once: :func:`assemble` builds every value an ``rQ``
leaf binds *and* every tuple object a document scan yields (a scan is an
``rQ`` ``element`` entry over ``SELECT *``), and :func:`key_values`
is the inverse of the key-oid encoding inside it.  :class:`TableSource`
owns the document registry and the cursor-driven scan; its two back ends,
:class:`RelationalWrapper` here and
:class:`~repro.sources.sqlite.SqliteWrapper`, supply only SQL execution,
schemas, versioning and statistics.

Laziness: :meth:`TableSource.iter_document_children` drives a cursor, so
rows the mediator never navigates to are never shipped (or even joined,
thanks to the pipelined executor underneath).
"""

from __future__ import annotations

from repro import stats as statnames
from repro.algebra.operators import RQVar
from repro.errors import MixError, SourceError
from repro.xmltree.tree import VALUE_TYPES, Node, OidGenerator, TupleObject
from repro.sources.base import Source


def assemble(entry, row, oids):
    """Build one :class:`RQVar` entry's value from a SQL result row.

    Returns ``None`` when a ``field``/``leaf`` entry's column is SQL
    NULL: the corresponding ``getD`` binding would not exist, so the
    whole tuple must be dropped (the caller's responsibility).  SQL NULLs
    have no XML value in the paper's model, so the NULL columns of an
    ``element`` entry become *absent* fields (conditions on them are then
    false, matching SQL's NULL comparison semantics).

    An ``element`` entry's value is a :class:`TupleObject`: it keeps
    the non-NULL ``(field, value)`` pairs and reserves the field and
    leaf oids now, but builds those nodes only when something reads its
    children.  A value that is not ``str``/``int``/``float`` raises
    :class:`MixError` here, as building its leaf would.

    A tuple object's oid is ``&`` plus its key values joined by ``/``,
    with ``\\`` and ``/`` inside a value escaped by ``\\`` — keys free of
    both keep the plain form (``&XYZ``, ``&W1/A``).  Keyless rows get a
    surrogate oid: they cannot be referenced by decontextualized queries,
    matching the paper's requirement that group-by variables be
    key-addressable.
    """
    kind = entry.kind
    if kind == "element":
        fields = []
        for position, field_name in entry.columns:
            value = row[position]
            if value is None:
                continue
            if not isinstance(value, VALUE_TYPES):
                raise MixError(
                    "node label must be str/int/float, got {!r}".format(value)
                )
            fields.append((field_name, value))
        # Field, then its leaf, column by column; a keyless row's own
        # oid after them.
        keys = entry.key_positions
        first = oids.reserve(2 * len(fields) + (not keys))
        if not keys:
            oid = oids.oid(first + 2 * len(fields))
        else:
            text = "/".join([str(row[p]) for p in keys])
            if "\\" in text or text.count("/") >= len(keys):
                text = "/".join([
                    str(row[p]).replace("\\", "\\\\").replace("/", "\\/")
                    for p in keys
                ])
            oid = "&" + text
        if not fields:
            return Node(oid, entry.label)
        return TupleObject(oid, entry.label, tuple(fields), oids, first)
    ((position, field_name),) = entry.columns
    value = row[position]
    if value is None:
        return None
    if kind == "leaf":
        return Node(oids.fresh(), value)
    field = Node(oids.fresh(), field_name)
    field.append(Node(oids.fresh(), value))
    return field


def key_values(oid):
    """The key-value texts a tuple-object oid encodes (``&`` stripped),
    split on unescaped ``/`` — the inverse of :func:`assemble`'s oid."""
    text = str(oid)[1:]
    if "\\" not in text:
        return text.split("/")
    parts, current, chars = [], [], iter(text)
    for char in chars:
        if char == "\\":
            current.append(next(chars, ""))
        elif char == "/":
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


class TableSource(Source):
    """The Fig.-2 export over any SQL back end.

    Owns the document registry, block batching, the cursor-driven
    document scan and the oid decoder.  A back end supplies
    ``execute_sql``, ``describe_table``, a ``stats`` instrument (shipped
    rows and source navigations are counted on it), and — when its
    dialect needs it — :meth:`_scan_sql`.
    """

    def __init__(self, server_name, oid_prefix):
        self.server_name = server_name
        self._documents = {}  # doc_id -> (table name, element label)
        self._oids = OidGenerator(oid_prefix)
        self._block_size = 1

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

    # -- configuration -----------------------------------------------------------

    def register_document(self, doc_id, table_name, element_label=None):
        """Export ``table_name`` as the document ``doc_id``.

        ``element_label`` names the exported tuple objects; it defaults
        to the table name but may differ (the paper's ``orders`` table
        exports ``order`` elements in Fig. 2).
        """
        self.describe_table(table_name)  # validate early
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
        ``set_block_size`` rows at a time (width 1 is a one-row fetch).

        A scan is the ``rQ`` format with one ``element`` entry over every
        column, so it builds exactly the tuple objects a pushed ``rQ``
        builds."""
        table_name, label = self._doc_entry(doc_id)
        schema = self.describe_table(table_name)
        entry = RQVar(
            None, label, enumerate(schema.column_names),
            schema.key_indexes(),
        )
        stats = self.stats
        oids = self._oids
        span_name = "wrap({})".format(doc_id)
        span_key = "wrap:{}:{}".format(self.server_name, doc_id)
        with self._span(stats, span_name, span_key, table_name):
            # Through execute_sql so document iteration shares the SQL
            # result cache with pushed rQ statements.
            cursor = self.execute_sql(self._scan_sql(table_name))
        while True:
            # One span covers the whole batch: rows cross the cursor
            # boundary block-at-a-time, but each is still one source
            # navigation and one shipped tuple.
            with self._span(stats, span_name, span_key, table_name):
                rows = cursor.fetch_block(self._block_size)
                if not rows:
                    return
                stats.incr(statnames.SOURCE_NAVIGATIONS, len(rows))
                elements = [assemble(entry, row, oids) for row in rows]
            for element in elements:
                yield element

    def _scan_sql(self, table_name):
        return "SELECT * FROM {}".format(table_name)

    @staticmethod
    def _span(stats, name, key, table_name):
        return stats.operator_span(
            name, key=key, kind="source", table=table_name
        )

    def supports_sql(self):
        return True

    def oid_to_key(self, table_name, oid):
        """Decode a tuple-object oid back to its key values."""
        schema = self.describe_table(table_name)
        if not str(oid).startswith("&"):
            raise SourceError(
                "not a wrapper oid: {!r}".format(oid),
                source=self.server_name,
            )
        parts = key_values(oid)
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
        return "{}({}, docs={})".format(
            type(self).__name__, self.server_name, self._documents
        )


class RelationalWrapper(TableSource):
    """Wraps a :class:`repro.relational.Database` as an XML source.

    Example::

        wrapper = RelationalWrapper(db, server_name="s")
        wrapper.register_document("root1", "customer")
        wrapper.register_document("root2", "orders")
    """

    def __init__(self, database, server_name="s"):
        super().__init__(server_name, "w")
        self.database = database
        self._sql_cache = None

    @property
    def stats(self):
        """The database's instrument (shipped rows are counted there)."""
        return self.database.stats

    # -- result caching ----------------------------------------------------------

    def enable_sql_cache(self, maxsize=128, obs=None):
        """Cache fully fetched SQL results, keyed by statement text and
        values + per-table write versions (see :mod:`repro.cache.sqlcache`).

        Counters land on ``obs`` (default: the database's instrument).
        ``maxsize=0`` leaves the wrapper uncached.
        """
        from repro.cache.sqlcache import SqlResultCache

        if maxsize:
            self._sql_cache = SqlResultCache(maxsize, obs=obs or self.stats)
        else:
            self._sql_cache = None
        return self

    @property
    def sql_cache(self):
        """The attached :class:`SqlResultCache`, or ``None``."""
        return self._sql_cache

    def health(self):
        """``cache``: the result cache's cumulative counters plus the
        wrapper's traffic tallies (none without a cache)."""
        if self._sql_cache is None:
            return {}
        cache = {"source": self.server_name}
        cache.update(self._sql_cache.stats())
        cache["tuples_shipped"] = self.stats.get(statnames.TUPLES_SHIPPED)
        cache["tuples_from_cache"] = self.stats.get(
            statnames.TUPLES_FROM_CACHE
        )
        return {"cache": cache}

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

    # -- SQL -----------------------------------------------------------------------

    def execute_sql(self, sql, params=()):
        if self._sql_cache is not None:
            return self._sql_cache.execute(self.database, sql, params)
        return self.database.execute(sql, params)

    def describe_table(self, table_name):
        return self.database.table(table_name).schema
