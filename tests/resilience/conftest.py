"""Shared helpers for the resilience suite.

All timing in this suite runs on :class:`~repro.resilience.ManualClock`
— no real sleeps anywhere.
"""

from __future__ import annotations

from repro.algebra import operators as ops
from repro.engine import EagerEngine, LazyEngine
from repro.errors import TransientSourceError
from repro.sources import SourceCatalog
from repro.sources.base import Source
from repro.xmltree.tree import Node, OidGenerator


def degraded_scan(source, doc_id, lazy=True, stats=None):
    """The children of ``doc_id`` as a degrading engine's document scan
    binds them: ``source`` raises, the engine puts in the stubs."""
    engine = (LazyEngine if lazy else EagerEngine)(
        SourceCatalog().register_document(doc_id, source), stats=stats,
        on_source_error="degrade",
    )
    plan = ops.TD("$X", ops.MkSrc(doc_id, "$X"), root_oid="scan")
    return engine.evaluate_tree(plan).children


class FlakyListSource(Source):
    """A generator-backed source whose iterator dies on failure.

    Unlike :class:`~repro.resilience.FaultInjectingSource`'s retry-safe
    iterator, this source's :meth:`iter_document_children` is a plain
    generator: once it raises, the generator is dead and yields only
    ``StopIteration`` — the case ``ResilientSource`` must handle by
    reopening the stream and fast-forwarding.  ``fail_at``/``fail_times``
    state lives on the source, so a reopened stream sees the remaining
    budget.
    """

    def __init__(self, doc_id, labels, fail_at=None, fail_times=1,
                 exc_factory=None):
        self.doc_id = doc_id
        self.labels = list(labels)
        self.fail_at = fail_at
        self.fail_times = fail_times
        self.opens = 0
        self._exc_factory = exc_factory or (
            lambda pos: TransientSourceError(
                "flaky pull at {}".format(pos),
                doc_id=self.doc_id, source="flaky",
            )
        )
        self._oids = OidGenerator("fk")

    def document_ids(self):
        return [self.doc_id]

    def _element(self, label):
        element = Node(self._oids.fresh(), label)
        element.append(Node(self._oids.fresh(), "v-" + label))
        return element

    def iter_document_children(self, doc_id):
        self.opens += 1
        for position, label in enumerate(self.labels):
            if position == self.fail_at and self.fail_times > 0:
                self.fail_times -= 1
                raise self._exc_factory(position)
            yield self._element(label)
