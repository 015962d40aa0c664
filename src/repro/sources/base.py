"""The wrapper interface the mediator engines program against."""

from __future__ import annotations

from repro.errors import SourceError
from repro.relational.ast import bind_sql


class Source:
    """Abstract base of all source wrappers.

    A source exports one or more *documents* (named XML roots), and the
    engines read a document one way: :meth:`iter_document_children`, a
    lazy iterator over the root's children, pulled one at a time as
    navigation demands.  A source that supports no navigation (per the
    paper's footnote 2, :class:`~repro.sources.xmlfile.XmlFileSource`)
    fetches the whole document in one step behind that iterator.
    Relational wrappers additionally accept pushed-down SQL via
    :meth:`execute_sql` (a text and the values of its ``?N`` slots);
    the SQL back ends share their Fig.-2 export through
    :class:`~repro.sources.relational.TableSource`.

    Every other capability a caller may use is a method here whose
    default does nothing, so callers call it instead of probing for it:
    a source without a relational export answers ``None`` from
    :meth:`table_for_document`, one that cannot version its data
    ``None`` from :meth:`data_version` (it is then excluded from
    result-level caching), and one with nothing to report ``{}`` from
    :meth:`health`.
    """

    #: The catalog server name of a source that takes SQL, else ``None``.
    server_name = None

    def document_ids(self):
        """Ids of the documents this source exports."""
        raise NotImplementedError

    def iter_document_children(self, doc_id):
        """Lazy iterator of the document root's children (Nodes)."""
        raise NotImplementedError

    # -- relational capabilities -------------------------------------------------

    def supports_sql(self):
        """Whether :meth:`execute_sql` is available (relational sources)."""
        return False

    def execute_sql(self, sql, params=()):
        """Run pushed-down SQL with ``params`` as the values of its
        ``?N`` slots (0-based); returns a cursor.  Relational only.

        The mediator sends the slotted text its plan cache compiled and
        one request's values, so a source can parse a statement once
        per text; :func:`~repro.relational.ast.bind_sql` spells the
        values in for display (errors carry that text)."""
        sql = bind_sql(sql, params)
        raise SourceError(
            "{} does not accept SQL: {!r}".format(type(self).__name__, sql),
            sql=sql,
            source=type(self).__name__,
        )

    def describe_table(self, table_name):
        """Schema of an exported table (relational only)."""
        raise SourceError(
            "{} has no relational schema (table {!r})".format(
                type(self).__name__, table_name
            ),
            source=type(self).__name__,
        )

    def table_for_document(self, doc_id):
        """The table exporting ``doc_id``, or ``None`` (not relational)."""
        return None

    def label_for_document(self, doc_id):
        """The element label of ``doc_id``'s tuple objects, or ``None``."""
        return None

    # -- configuration set by Mediator.add_source ----------------------------------

    def set_block_size(self, size):
        """Fetch document rows ``size`` at a time (block execution).

        A source that batches still yields one element per pull, so
        navigation semantics and ``tuples_shipped`` are unchanged."""
        return self

    def set_cost_optimizer(self, enabled):
        """Switch cost-based planning of pushed SQL."""
        return self

    def enable_sql_cache(self, maxsize=128, obs=None):
        """Cache pushed-SQL results (``maxsize=0``: uncached)."""
        return self

    # -- versioning and statistics -------------------------------------------------

    def data_version(self):
        """A hashable token that changes on every write, or ``None``
        (unversioned: excluded from result-level caching)."""
        return None

    def analyze(self):
        """``ANALYZE`` the exported tables; the count, or ``None`` when
        the source keeps no statistics."""
        return None

    def table_statistics(self, table_name):
        """Fresh ``ANALYZE`` statistics for ``table_name``, or ``None``."""
        return None

    def estimate_sql(self, sql):
        """Estimated result rows of a pushed SELECT, or ``None``."""
        return None

    def health(self):
        """Cumulative health by kind, ``{kind: fields}``: ``cache`` (a
        SQL result cache), ``shard`` (a scatter-gather fleet),
        ``resilience`` (fault-tolerance policies).  Every ``fields``
        dict names its ``source``; ``Mediator.explain`` renders one
        footer line per kind and source."""
        return {}


class SourceProxy(Source):
    """A source decorating ``inner``: the whole protocol is forwarded,
    and a subclass overrides only what it decorates.

    ``__getattr__`` passes through the surface specific to one kind of
    wrapper (``oid_to_key``, ``invalidate``, ``sql_cache``, ...)."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def server_name(self):
        return self.inner.server_name

    def document_ids(self):
        return self.inner.document_ids()

    def iter_document_children(self, doc_id):
        return self.inner.iter_document_children(doc_id)

    def supports_sql(self):
        return self.inner.supports_sql()

    def execute_sql(self, sql, params=()):
        return self.inner.execute_sql(sql, params)

    def describe_table(self, table_name):
        return self.inner.describe_table(table_name)

    def table_for_document(self, doc_id):
        return self.inner.table_for_document(doc_id)

    def label_for_document(self, doc_id):
        return self.inner.label_for_document(doc_id)

    def set_block_size(self, size):
        self.inner.set_block_size(size)
        return self

    def set_cost_optimizer(self, enabled):
        self.inner.set_cost_optimizer(enabled)
        return self

    def enable_sql_cache(self, maxsize=128, obs=None):
        self.inner.enable_sql_cache(maxsize, obs=obs)
        return self

    def data_version(self):
        return self.inner.data_version()

    def analyze(self):
        return self.inner.analyze()

    def table_statistics(self, table_name):
        return self.inner.table_statistics(table_name)

    def estimate_sql(self, sql):
        return self.inner.estimate_sql(sql)

    def health(self):
        return self.inner.health()

    def __getattr__(self, attr):
        return getattr(self.inner, attr)
