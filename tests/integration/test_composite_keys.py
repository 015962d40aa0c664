"""Integration: composite primary keys through the whole stack.

The paper requires key-addressable tuple objects for decontextualization
("the id needs to encode the values of the fields ... that form a key");
this exercises oid encoding/decoding, SQL generation of key predicates,
and in-place queries when keys span several columns.
"""

import pytest

from repro import Database, Mediator, RelationalWrapper
from repro.algebra import Condition, GetD, MkSrc, RelQuery, Select, TD
from repro.algebra.plan import find_operators
from repro.rewriter import push_to_sources
from repro.sources import SourceCatalog
from repro.xmltree.paths import Path


@pytest.fixture
def wrapper():
    db = Database("inv")
    db.run(
        "CREATE TABLE stock (warehouse TEXT, sku TEXT, qty INT,"
        " PRIMARY KEY (warehouse, sku))"
    )
    db.run(
        "INSERT INTO stock VALUES ('W1', 'A', 10), ('W1', 'B', 0),"
        " ('W2', 'A', 7), ('W2', 'C', 3)"
    )
    return RelationalWrapper(db).register_document("stock", "stock")


class TestCompositeOids:
    def test_oid_encodes_both_key_parts(self, wrapper):
        oids = {c.oid for c in wrapper.iter_document_children("stock")}
        assert "&W1/A" in oids
        assert "&W2/C" in oids

    def test_oid_roundtrip(self, wrapper):
        assert wrapper.oid_to_key("stock", "&W1/B") == ["W1", "B"]


class TestCompositeSqlPin:
    def test_oid_select_compiles_to_two_predicates(self, wrapper):
        catalog = SourceCatalog().register(wrapper)
        plan = TD(
            "$S",
            Select(
                Condition.oid_equals("$S", "&W2/A"),
                GetD("$K", Path.of("stock"), "$S", MkSrc("stock", "$K")),
            ),
        )
        pushed = push_to_sources(plan, catalog)
        (rq,) = find_operators(pushed, RelQuery)
        assert "s1.warehouse = 'W2'" in rq.sql
        assert "s1.sku = 'A'" in rq.sql


class TestCompositeInPlaceQueries:
    def test_query_from_composite_key_node(self, wrapper):
        mediator = Mediator().add_source(wrapper)
        root = mediator.query(
            "FOR $S IN document(stock)/stock"
            " RETURN <Item> $S </Item> {$S}"
        )
        item = root.d()
        oid = str(item.oid)
        assert "/" in oid  # the skolem arg is the composite key
        result = item.q(
            "FOR $Q IN document(root)/stock/qty RETURN <Q> $Q </Q>"
        )
        quantities = [c.d().d().fv() for c in result.children()]
        assert len(quantities) == 1


class TestSeparatorInKeyValues:
    """A ``/`` (or ``\\``) inside a key value is escaped in the oid, so
    ``('a/b', 'c')`` and ``('a', 'b/c')`` stay two addressable rows."""

    @pytest.fixture
    def slashed(self):
        db = Database("inv")
        db.run(
            "CREATE TABLE stock (warehouse TEXT, sku TEXT, qty INT,"
            " PRIMARY KEY (warehouse, sku))"
        )
        db.run(
            "INSERT INTO stock VALUES ('a/b', 'c', 1), ('a', 'b/c', 2),"
            " ('x', 'y', 3)"
        )
        return RelationalWrapper(db).register_document("stock", "stock")

    def test_oids_are_distinct_and_round_trip(self, slashed):
        oids = [c.oid for c in slashed.iter_document_children("stock")]
        assert len(set(oids)) == 3
        assert [slashed.oid_to_key("stock", oid) for oid in oids] == [
            ["a/b", "c"], ["a", "b/c"], ["x", "y"]
        ]

    def test_oid_select_pins_both_key_columns(self, slashed):
        first = next(slashed.iter_document_children("stock")).oid
        catalog = SourceCatalog().register(slashed)
        plan = TD(
            "$S",
            Select(
                Condition.oid_equals("$S", first),
                GetD("$K", Path.of("stock"), "$S", MkSrc("stock", "$K")),
            ),
        )
        (rq,) = find_operators(push_to_sources(plan, catalog), RelQuery)
        assert "s1.warehouse = 'a/b'" in rq.sql
        assert "s1.sku = 'c'" in rq.sql

    @pytest.mark.parametrize("cache", [True, False])
    def test_in_place_query_returns_only_its_own_row(self, slashed, cache):
        mediator = Mediator(cache=cache).add_source(slashed)
        root = mediator.query(
            "FOR $S IN document(stock)/stock"
            " RETURN <Item> $S </Item> {$S}"
        )
        quantities = []
        for item in root.children():
            result = item.q(
                "FOR $Q IN document(root)/stock/qty RETURN <Q> $Q </Q>"
            )
            quantities.append([c.d().d().fv() for c in result.children()])
        assert quantities == [[1], [2], [3]]
