"""Cache poisoning: a failed fetch must leave no broken cache entry.

Both caching sources write their cache only after success
(``XmlFileSource._trees``) or invalidate on a mid-stream failure
(``MediatorSource._roots``), so a later access retries cleanly instead
of serving a truncated or unparseable document forever.
"""

import pytest

from repro.errors import ParseError, TransientSourceError
from repro.qdom.mediator import Mediator
from repro.resilience import FaultInjectingSource, ManualClock
from repro.sources import MediatorSource, SourceCatalog, XmlFileSource

from tests.conftest import make_paper_wrapper

GOOD_XML = "<list><a><x/></a><b><x/></b></list>"
BAD_XML = "<list><a></list>"


class TestXmlFileSourceCache:
    def test_failed_parse_leaves_no_cache_entry(self):
        source = XmlFileSource().add_text("d", BAD_XML)
        with pytest.raises(ParseError):
            source.iter_document_children("d")
        assert "d" not in source._trees  # nothing poisoned

    def test_reregistering_good_text_recovers(self):
        source = XmlFileSource().add_text("d", BAD_XML)
        with pytest.raises(ParseError):
            source.iter_document_children("d")
        source.add_text("d", GOOD_XML)
        children = list(source.iter_document_children("d"))
        assert [c.label for c in children] == ["a", "b"]
        # And the successful parse *is* cached now.
        assert list(source.iter_document_children("d")) == children
        assert next(source.iter_document_children("d")) is children[0]


class TestMediatorSourceCache:
    def make_federation(self):
        faulty = FaultInjectingSource(
            make_paper_wrapper(), clock=ManualClock()
        ).fail_pull("root1", 1)
        lower = Mediator(
            catalog=SourceCatalog().register(faulty), push_sql=False
        )
        source = MediatorSource(lower).register_view(
            "v", "FOR $C IN document(root1)/customer RETURN $C"
        )
        return faulty, source

    def test_mid_stream_failure_invalidates_the_cached_root(self):
        __, source = self.make_federation()
        iterator = source.iter_document_children("v")
        next(iterator)  # position 0 is fine
        with pytest.raises(TransientSourceError):
            next(iterator)  # the lower view's lazy stream breaks
        assert source._roots == {}  # the broken root was dropped

    def test_next_iteration_reruns_the_lower_query_in_full(self):
        __, source = self.make_federation()
        iterator = source.iter_document_children("v")
        next(iterator)
        with pytest.raises(TransientSourceError):
            next(iterator)
        # The fault budget is spent and the poisoned root is gone: a
        # fresh iteration re-runs the lower query and yields the full
        # stream — no silent truncation from a half-consumed view.
        labels = [c.label for c in source.iter_document_children("v")]
        assert labels == ["customer"] * 3

    def test_successful_stream_keeps_the_cache(self):
        __, source = self.make_federation()
        # Spend the single transient fault, then drain a healthy stream.
        with pytest.raises(TransientSourceError):
            list(source.iter_document_children("v"))
        list(source.iter_document_children("v"))
        assert "v" in source._roots
