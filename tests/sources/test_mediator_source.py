"""Tests for mediator-to-mediator federation (the paper's §4 remark)."""

import pytest

from repro import Instrument, Mediator
from repro import stats as statnames
from repro.errors import SourceError
from repro.sources import MediatorSource, SourceCatalog
from tests.conftest import Q1, make_paper_wrapper, make_scaled_wrapper


@pytest.fixture
def lower_mediator():
    return Mediator().add_source(make_paper_wrapper())


class TestMediatorSource:
    def test_register_and_list(self, lower_mediator):
        source = MediatorSource(lower_mediator).register_view("v", Q1)
        assert source.document_ids() == ["v"]

    def test_unknown_view(self, lower_mediator):
        with pytest.raises(SourceError):
            list(MediatorSource(lower_mediator).iter_document_children("nope"))

    def test_materialize_matches_lower_result(self, lower_mediator):
        source = MediatorSource(lower_mediator).register_view("v", Q1)
        children = list(source.iter_document_children("v"))
        assert len(children) == 3
        assert all(c.label == "CustRec" for c in children)
        first = children[0]
        assert first.children[0].label == "customer"

    def test_navigations_counted(self, lower_mediator):
        stats = Instrument()
        source = MediatorSource(lower_mediator, stats=stats)
        source.register_view("v", Q1)
        iterator = source.iter_document_children("v")
        next(iterator)
        assert stats.get(statnames.SOURCE_NAVIGATIONS) == 1

    def test_invalidate_reruns_query(self, lower_mediator):
        source = MediatorSource(lower_mediator).register_view("v", Q1)
        first = list(source.iter_document_children("v"))
        source.invalidate("v")
        second = list(source.iter_document_children("v"))
        assert len(first) == len(second)


class TestFederatedQuerying:
    def test_upper_mediator_over_lower_view(self, lower_mediator):
        federated = MediatorSource(lower_mediator).register_view(
            "custview", Q1
        )
        upper = Mediator().add_source(federated)
        result = upper.query(
            "FOR $R IN document(custview)/CustRec"
            ' WHERE $R/customer/addr/data() = "NewYork"'
            " RETURN $R"
        )
        recs = result.children()
        assert len(recs) == 1
        assert recs[0].find("customer").find("id").d().fv() == "DEF"

    def test_federated_navigation_is_lazy(self):
        # Tuple mode on both levels: the bound below is the seed's
        # minimal-shipping invariant; block mode trades it for batching.
        stats = Instrument()
        lower = Mediator(stats=stats, block_size=1).add_source(
            make_scaled_wrapper(200, 2, stats=stats)
        )
        federated = MediatorSource(lower, stats=stats).register_view(
            "v", Q1
        )
        upper = Mediator(stats=stats, block_size=1).add_source(federated)
        root = upper.query(
            "FOR $R IN document(v)/CustRec RETURN $R"
        )
        root.d()
        # Browsing one upper result must not force the lower mediator to
        # evaluate its whole view (which would be 400 joined tuples).
        assert stats.get(statnames.TUPLES_SHIPPED) < 40

    def test_three_level_stack(self, lower_mediator):
        middle = Mediator().add_source(
            MediatorSource(lower_mediator).register_view("v1", Q1)
        )
        top = Mediator().add_source(
            MediatorSource(middle).register_view(
                "v2", "FOR $R IN document(v1)/CustRec RETURN $R"
            )
        )
        result = top.query(
            "FOR $R IN document(v2)/CustRec RETURN <Top> $R </Top>"
        )
        assert len(result.children()) == 3


def label_shape(node):
    """``(label, [children])`` of a whole plain subtree."""
    return (node.label, [label_shape(c) for c in node.children])


@pytest.mark.parametrize("block_size", [1, 64])
def test_full_upper_walk_sends_one_lower_d_per_node(block_size):
    # Each lower node costs one d: an inner node's d is both its leaf
    # test and its first child, a leaf's answers None.  Every node
    # below the lower root also costs one fl and one r (the last child's
    # r answers None); the root itself costs one d.
    reference = Mediator().add_source(make_paper_wrapper()).query(Q1)
    lower_tree = reference.to_tree()
    nodes = sum(1 for _ in lower_tree.iter_subtree())

    lower_stats = Instrument(trace_capacity=10_000)
    lower = Mediator(stats=lower_stats, block_size=block_size).add_source(
        make_paper_wrapper()
    )
    upper = Mediator(block_size=block_size).add_source(
        MediatorSource(lower).register_view("v", Q1)
    )
    answer = upper.query("FOR $R IN document(v)/CustRec RETURN $R")
    before = lower_stats.get(statnames.QDOM_COMMANDS)
    upper_tree = answer.to_tree()
    commands = [span.name for span in lower_stats.traces()]

    assert commands.count("d") == nodes
    assert commands.count("r") == commands.count("fl") == nodes - 1
    assert lower_stats.get(statnames.QDOM_COMMANDS) - before == (
        3 * nodes - 2
    )
    assert label_shape(upper_tree) == label_shape(lower_tree)
