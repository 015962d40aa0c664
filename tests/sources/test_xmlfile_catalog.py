"""Unit tests for XML file sources and the source catalog."""

import pytest

from repro.errors import SourceError, UnknownSourceError
from repro.obs import Instrument
from repro.sources import SourceCatalog, XmlFileSource
from repro.sources.xmlfile import DOC_FETCHES
from repro.xmltree import elem
from tests.conftest import make_paper_wrapper


class TestXmlFileSource:
    def test_text_document(self):
        source = XmlFileSource().add_text("d", "<list><a>1</a></list>")
        children = list(source.iter_document_children("d"))
        assert [c.label for c in children] == ["a"]
        assert children[0].children[0].label == 1

    def test_tree_document(self):
        source = XmlFileSource().add_tree("d", elem("list", elem("a", "1")))
        assert next(source.iter_document_children("d")).label == "a"

    def test_one_step_fetch_counted_once(self):
        stats = Instrument()
        source = XmlFileSource(stats=stats).add_text("d", "<l><a>1</a></l>")
        list(source.iter_document_children("d"))
        list(source.iter_document_children("d"))
        assert stats.get(DOC_FETCHES) == 1  # cached after the first fetch

    def test_file_document(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<l><b>2</b></l>")
        source = XmlFileSource().add_file("d", str(path))
        assert next(source.iter_document_children("d")).label == "b"

    def test_unknown_document(self):
        with pytest.raises(SourceError):
            XmlFileSource().iter_document_children("missing")

    def test_no_sql(self):
        source = XmlFileSource()
        assert not source.supports_sql()
        with pytest.raises(SourceError):
            source.execute_sql("SELECT 1")

    def test_document_ids(self):
        source = XmlFileSource().add_text("b", "<x/>").add_text("a", "<y/>")
        assert source.document_ids() == ["a", "b"]


class TestSourceCatalog:
    def test_register_and_resolve(self):
        wrapper = make_paper_wrapper()
        catalog = SourceCatalog().register(wrapper)
        assert catalog.source_for("root1") is wrapper
        assert catalog.has_document("root2")

    def test_amp_prefix_normalized(self):
        catalog = SourceCatalog().register(make_paper_wrapper())
        assert catalog.source_for("&root1") is not None

    def test_server_registration(self):
        catalog = SourceCatalog().register(make_paper_wrapper())
        assert catalog.server("s").supports_sql()

    def test_unknown_document(self):
        with pytest.raises(UnknownSourceError):
            SourceCatalog().source_for("nope")

    def test_unknown_server(self):
        with pytest.raises(UnknownSourceError):
            SourceCatalog().server("nope")

    def test_non_source_rejected(self):
        with pytest.raises(UnknownSourceError):
            SourceCatalog().register(object())

    def test_materialize_and_iter(self):
        catalog = SourceCatalog().register(make_paper_wrapper())
        children = list(catalog.iter_children("&root1"))
        assert [c.label for c in children] == ["customer"] * 3
        assert next(catalog.iter_children("root1")).label == "customer"
