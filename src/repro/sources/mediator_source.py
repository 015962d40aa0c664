"""A MIX mediator acting as a source to another MIX mediator.

The paper, Section 4: "In the ideal case where the underlying source is
an XML source that supports navigation (e.g., a MIX mediator can be such
a source to another MIX mediator) client navigations are translated into
r and d commands sent to the source."

:class:`MediatorSource` exports views of a *lower* mediator as documents
of an *upper* one.  Child iteration is implemented with QDOM ``d``/``r``
commands against the lower mediator's virtual result, so the upper
mediator's laziness propagates through: navigating the upper view pulls
only as much of the lower view — and therefore only as much of the
ultimate relational sources — as needed.
"""

from __future__ import annotations

from repro import stats as statnames
from repro.errors import SourceError
from repro.xmltree.tree import Node
from repro.sources.base import Source


class MediatorSource(Source):
    """Expose another mediator's query results as navigable documents.

    Example::

        lower = Mediator().add_source(wrapper)
        federated = MediatorSource(lower, stats=stats)
        federated.register_view("custview", Q1_TEXT)
        upper = Mediator().add_source(federated)
        upper.query("FOR $R IN document(custview)/CustRec RETURN $R")

    It is deliberately unversioned (the default ``data_version()`` of
    ``None``): the lower mediator's sources can change without this
    wrapper noticing, so result caches above must treat its data as
    always-possibly-stale.
    """

    def __init__(self, mediator, stats=None):
        self.mediator = mediator
        self._stats = stats
        self._views = {}       # doc_id -> query text
        self._roots = {}       # doc_id -> cached QdomNode root

    # -- configuration -----------------------------------------------------------

    def register_view(self, doc_id, query_text):
        """Export the result of ``query_text`` as document ``doc_id``.

        The lower mediator runs the query lazily on first access.
        """
        self._views[doc_id] = query_text
        return self

    # -- Source interface -----------------------------------------------------------

    def document_ids(self):
        return sorted(self._views)

    def _root(self, doc_id):
        if doc_id not in self._views:
            raise SourceError(
                "mediator source exports no view {!r}".format(doc_id),
                doc_id=doc_id,
                source=type(self).__name__,
            )
        if doc_id not in self._roots:
            # Cache only after the lower query succeeded; a failed run
            # leaves no entry, so the next access retries cleanly.
            self._roots[doc_id] = self.mediator.query(self._views[doc_id])
        return self._roots[doc_id]

    def iter_document_children(self, doc_id):
        """Navigate the lower view with d/r commands, one child at a time."""
        stats = self._stats
        span_key = "medsrc:{}".format(doc_id)

        def pull(move):
            # Each lower-mediator navigation that lands on a node is one
            # forwarded command; the span ties it to the upper command
            # that demanded it.  A failing navigation invalidates the
            # cached root: the lower view's lazy stream is broken by the
            # escaped exception, and reusing it would silently truncate
            # later fetches (a poisoned cache entry).
            try:
                if stats is None:
                    return move()
                with stats.operator_span(
                    "medsrc({})".format(doc_id), key=span_key, kind="source"
                ):
                    node = move()
                    if node is not None:
                        stats.incr(statnames.SOURCE_NAVIGATIONS)
                    return node
            except Exception:
                self.invalidate(doc_id)
                raise

        node = pull(lambda: self._root(doc_id).d())
        while node is not None:
            yield _qdom_to_node(node)
            node = pull(node.r)

    def invalidate(self, doc_id=None):
        """Drop cached roots so the next access re-runs the lower query."""
        if doc_id is None:
            self._roots.clear()
        else:
            self._roots.pop(doc_id, None)


def _qdom_to_node(qdom_node):
    """A lazily materializing Node mirror of a QDOM subtree.

    Children are produced by lower-mediator navigation commands only as
    the upper engine's navigation reaches them.  Leaves carry their
    value as the label, per the shared data model.  The ``d`` that tells
    a leaf from an inner node is also the tail's first step, so each
    lower node costs one ``d``.
    """
    first = qdom_node.d()
    if first is None:  # a leaf: label is the value
        return Node(str(qdom_node.oid), qdom_node.fl())

    def tail(child=first):
        while child is not None:
            yield _qdom_to_node(child)
            child = child.r()

    return Node(str(qdom_node.oid), qdom_node.fl(), lazy_tail=tail())
