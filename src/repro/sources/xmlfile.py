"""XML file/text sources.

Per the paper's footnote 2: "In the case that the underlying source does
not support any form of navigation then the mediator simply obtains the
full source result in one step."  An XML file is such a source: the first
access parses and materializes the whole document (counted once under
``doc_fetches``); iteration over children is then free.
"""

from __future__ import annotations

from repro.errors import SourceError
from repro.xmltree.parser import parse_xml
from repro.sources.base import Source

DOC_FETCHES = "doc_fetches"


class XmlFileSource(Source):
    """One or more XML documents served from text, files, or trees."""

    def __init__(self, stats=None):
        self._texts = {}
        self._trees = {}
        self._stats = stats
        self._data_epoch = 0  # bumped whenever a document is (re)registered

    # -- configuration ------------------------------------------------------------

    def add_text(self, doc_id, xml_text):
        """Register a document from XML text (parsed on first access)."""
        self._texts[doc_id] = xml_text
        self._trees.pop(doc_id, None)  # re-registration replaces the tree
        self._data_epoch += 1
        return self

    def add_file(self, doc_id, path):
        """Register a document from a file on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.add_text(doc_id, handle.read())

    def add_tree(self, doc_id, root):
        """Register an already-built tree (no fetch counted)."""
        self._trees[doc_id] = root
        self._data_epoch += 1
        return self

    def data_version(self):
        """Documents change only through (re)registration, so the
        registration epoch is an exact write version."""
        return ("xml", self._data_epoch)

    # -- Source interface ------------------------------------------------------------

    def document_ids(self):
        return sorted(set(self._texts) | set(self._trees))

    def iter_document_children(self, doc_id):
        # No navigation support: fetch everything, then iterate.
        return iter(self._fetch(doc_id).children)

    def _fetch(self, doc_id):
        """The whole document, fetched in one step on first access."""
        if doc_id in self._trees:
            return self._trees[doc_id]
        if doc_id not in self._texts:
            raise SourceError(
                "no document {!r}".format(doc_id), doc_id=doc_id,
                source=type(self).__name__,
            )
        if self._stats is not None:
            self._stats.incr(DOC_FETCHES)
            self._stats.event("doc_fetch", doc_id)
        # The cache entry is written only after a successful parse: a
        # failed fetch leaves no poisoned entry behind, so the next
        # access retries from the registered text.
        tree = parse_xml(self._texts[doc_id])
        self._trees[doc_id] = tree  # one-step fetch, then cached
        return tree
