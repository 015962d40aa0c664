"""The wrapper interface the mediator engines program against."""

from __future__ import annotations

from repro.errors import SourceError
from repro.xmltree.tree import Node


class Source:
    """Abstract base of all source wrappers.

    A source exports one or more *documents* (named XML roots).  The
    engine interacts with a document in two ways:

    * :meth:`iter_document_children` — a lazy iterator over the root's
      children, pulled one at a time as navigation demands (the
      navigation-driven path);
    * :meth:`materialize_document` — the whole document at once (the
      eager baseline).  The default is a ``list`` root over
      :meth:`iter_document_children`; only a source that supports no
      navigation (per the paper's footnote 2, :class:`XmlFileSource`)
      overrides it, and the resilience proxies extend it.

    Relational wrappers additionally accept pushed-down SQL via
    :meth:`execute_sql`; the SQL back ends share their Fig.-2 export
    through :class:`~repro.sources.relational.TableSource`.

    Sources that can version their data implement ``data_version()``
    returning a hashable token that changes on every write (the
    relational wrapper derives it from per-table write versions, the
    XML source from its registration epoch).  The method is looked up
    with ``getattr`` rather than defined here so that decorating
    proxies (:class:`~repro.resilience.ResilientSource`,
    :class:`~repro.resilience.FaultInjectingSource`) delegate it to
    their inner source automatically via ``__getattr__``; a source
    without the method is treated as unversioned and excluded from
    result-level caching.

    ``set_block_size(size)`` is duck-typed the same way (block
    execution): a block-mode mediator calls it on every registered
    source that has it, and sources that do (the relational wrapper)
    switch :meth:`iter_document_children` to cursor batches of
    ``size`` rows — one source span per batch, still one element per
    pull, so navigation semantics and ``tuples_shipped`` are
    unchanged.  Sources without the method simply stay tuple-at-a-time
    behind the same iterator interface.
    """

    def document_ids(self):
        """Ids of the documents this source exports."""
        raise NotImplementedError

    def iter_document_children(self, doc_id):
        """Lazy iterator of the document root's children (Nodes)."""
        raise NotImplementedError

    def materialize_document(self, doc_id):
        """The full document tree: a ``list`` root over every child."""
        return Node(
            "&{}".format(doc_id), "list", self.iter_document_children(doc_id)
        )

    def supports_sql(self):
        """Whether :meth:`execute_sql` is available (relational sources)."""
        return False

    def execute_sql(self, sql):
        """Run pushed-down SQL; returns a cursor.  Relational only."""
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
