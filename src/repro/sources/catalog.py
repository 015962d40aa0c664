"""The source catalog: document ids and server names to wrappers."""

from __future__ import annotations

from repro.errors import UnknownSourceError
from repro.sources.base import Source


class SourceCatalog:
    """What the engines consult to resolve ``mksrc`` and ``rQ`` leaves.

    Document ids are the paper's ``root1``/``root2`` (the ``&`` prefix is
    accepted and stripped); server names are the ``s`` of ``rQ(s, q, m)``.
    """

    def __init__(self):
        self._documents = {}   # doc_id -> Source
        self._servers = {}     # server name -> Source (supports_sql)

    # -- registration -------------------------------------------------------------

    def register(self, source):
        """Register all of a source's documents (and its server name)."""
        if not isinstance(source, Source):
            raise UnknownSourceError(
                "catalog accepts Source instances, got {!r}".format(source)
            )
        for doc_id in source.document_ids():
            self._documents[doc_id] = source
        if source.server_name is not None and source.supports_sql():
            self._servers[source.server_name] = source
        return self

    def register_document(self, doc_id, source):
        """Register a single document explicitly."""
        self._documents[_normalize(doc_id)] = source
        return self

    # -- resolution ----------------------------------------------------------------

    def source_for(self, doc_id):
        try:
            return self._documents[_normalize(doc_id)]
        except KeyError:
            raise UnknownSourceError(
                "no source exports document {!r} (known: {})".format(
                    doc_id, sorted(self._documents)
                ),
                doc_id=_normalize(doc_id),
                known=sorted(self._documents),
            )

    def server(self, name):
        try:
            return self._servers[name]
        except KeyError:
            raise UnknownSourceError(
                "no relational server {!r} (known: {})".format(
                    name, sorted(self._servers)
                ),
                known=sorted(self._servers),
            )

    def has_document(self, doc_id):
        return _normalize(doc_id) in self._documents

    def document_ids(self):
        return sorted(self._documents)

    def sources(self):
        """The distinct registered source objects, in registration order."""
        seen = []
        for source in list(self._documents.values()) + list(
            self._servers.values()
        ):
            if not any(s is source for s in seen):
                seen.append(source)
        return seen

    def data_fingerprint(self):
        """Combined write-version of every registered source.

        ``None`` when any source is unversioned — see
        :func:`repro.cache.keys.data_fingerprint`.
        """
        from repro.cache.keys import data_fingerprint

        return data_fingerprint(self)

    # -- engine conveniences ------------------------------------------------------------

    def iter_children(self, doc_id):
        """Lazy child iterator of a document: the one read path of both
        engines."""
        return self.source_for(doc_id).iter_document_children(
            _normalize(doc_id)
        )


def _normalize(doc_id):
    doc_id = str(doc_id)
    return doc_id[1:] if doc_id.startswith("&") else doc_id
