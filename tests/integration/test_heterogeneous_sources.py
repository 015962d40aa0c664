"""Integration: views spanning relational and XML-file sources.

"The current system accesses XML files and relational database sources,
which are wrapped to offer an XML view of themselves."  The SQL split
must push the relational part while leaving the file part mediator-side,
and a join across the two source kinds must work in both engines.
"""

import pytest

from repro import Instrument, Mediator
from repro.algebra import MkSrc, RelQuery
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.rewriter import push_to_sources
from repro.sources import SourceCatalog, XmlFileSource
from repro.sources.xmlfile import DOC_FETCHES
from tests.conftest import make_paper_wrapper

REGIONS_XML = """
<list>
  <region><code>LosAngeles</code><zone>west</zone></region>
  <region><code>NewYork</code><zone>east</zone></region>
  <region><code>SanDiego</code><zone>west</zone></region>
</list>
"""

MIXED_QUERY = """
FOR $C IN document(root1)/customer
    $R IN document(regions)/region
WHERE $C/addr/data() = $R/code/data()
RETURN <Located> $C $R </Located> {$C, $R}
"""


@pytest.fixture
def stats():
    return Instrument()


@pytest.fixture
def mediator(stats):
    mediator = Mediator(stats=stats)
    mediator.add_source(make_paper_wrapper(stats=stats))
    mediator.add_source(
        XmlFileSource(stats=stats).add_text("regions", REGIONS_XML)
    )
    return mediator


class TestMixedSourceJoin:
    def test_join_across_source_kinds(self, mediator):
        root = mediator.query(MIXED_QUERY)
        rows = root.children()
        assert len(rows) == 3
        zones = {
            r.find("customer").find("id").d().fv():
            r.find("region").find("zone").d().fv()
            for r in rows
        }
        assert zones == {"XYZ": "west", "DEF": "east", "ABC": "west"}

    def test_file_part_stays_at_mediator(self, stats):
        catalog = SourceCatalog()
        catalog.register(make_paper_wrapper(stats=stats))
        catalog.register(
            XmlFileSource(stats=stats).add_text("regions", REGIONS_XML)
        )
        plan = translate_query(MIXED_QUERY, root_oid="v")
        pushed = push_to_sources(plan, catalog)
        mksrcs = find_operators(pushed, MkSrc)
        # The file document's mksrc survives; in this plan there is no
        # relational *work* beyond a scan, so no rQ either.
        assert any(op.source == "regions" for op in mksrcs)

    def test_relational_side_still_pushes_with_conditions(self, stats):
        catalog = SourceCatalog()
        catalog.register(make_paper_wrapper(stats=stats))
        catalog.register(
            XmlFileSource(stats=stats).add_text("regions", REGIONS_XML)
        )
        query = """
        FOR $C IN document(root1)/customer
            $O IN document(root2)/order
            $R IN document(regions)/region
        WHERE $C/id/data() = $O/cid/data()
          AND $C/addr/data() = $R/code/data()
          AND $O/value/data() > 1000
        RETURN <Hit> $C $R </Hit> {$C, $R}
        """
        from repro.rewriter import Rewriter

        plan = translate_query(query, root_oid="v")
        # The mediator pipeline: rewrite (pushes the selection into the
        # relational join branch), then split.
        pushed = push_to_sources(Rewriter().rewrite(plan), catalog)
        rqs = find_operators(pushed, RelQuery)
        assert len(rqs) == 1
        assert ".value > 1000" in rqs[0].sql
        assert any(
            op.source == "regions"
            for op in find_operators(pushed, MkSrc)
        )

    def test_file_fetched_once(self, mediator, stats):
        root = mediator.query(MIXED_QUERY)
        root.children()
        assert stats.get(DOC_FETCHES) == 1

    def test_in_place_query_on_mixed_view(self, mediator):
        root = mediator.query(MIXED_QUERY)
        west = root.q(
            "FOR $L IN document(root)/Located"
            ' WHERE $L/region/zone/data() = "west" RETURN $L'
        )
        assert len(west.children()) == 2


class TestPureXmlFileViews:
    def test_query_over_file_only(self, mediator):
        root = mediator.query(
            "FOR $R IN document(regions)/region"
            ' WHERE $R/zone/data() = "west" RETURN <W> $R </W>'
        )
        codes = sorted(
            w.find("region").find("code").d().fv()
            for w in root.children()
        )
        assert codes == ["LosAngeles", "SanDiego"]

    def test_lazy_and_eager_agree_on_file_source(self, stats):
        query = (
            "FOR $R IN document(regions)/region RETURN <W> $R </W>"
        )
        lazy = Mediator(stats=stats)
        lazy.add_source(
            XmlFileSource(stats=stats).add_text("regions", REGIONS_XML)
        )
        eager = Mediator(lazy=False)
        eager.add_source(XmlFileSource().add_text("regions", REGIONS_XML))
        lazy_labels = [n.fl() for n in lazy.query(query).children()]
        eager_labels = [n.fl() for n in eager.query(query).children()]
        assert lazy_labels == eager_labels == ["W", "W", "W"]
