"""Tests for the BBQ-style Session."""

import pytest

from repro import stats as sn
from repro.errors import NavigationError
from repro.qdom import Mediator, Session
from tests.conftest import Q1


@pytest.fixture
def session(paper_wrapper):
    return Session(Mediator().add_source(paper_wrapper))


class TestOpenAndNavigate:
    def test_requires_open(self, session):
        with pytest.raises(NavigationError):
            session.down()

    def test_open_moves_to_root(self, session):
        session.open(Q1)
        assert session.label() == "list"
        assert session.breadcrumbs() == ["list"]

    def test_down_right_into(self, session):
        session.open(Q1).down()
        assert session.label() == "CustRec"
        session.right()
        assert session.label() == "CustRec"
        session.into("customer")
        assert session.label() == "customer"
        assert session.breadcrumbs() == ["list", "CustRec", "customer"]

    def test_up(self, session):
        session.open(Q1).down().into("customer").up()
        assert session.label() == "CustRec"

    def test_up_at_root_rejected(self, session):
        session.open(Q1)
        with pytest.raises(NavigationError):
            session.up()

    def test_down_on_leaf_rejected(self, session):
        session.open(Q1).down().into("customer").into("id").down()
        assert session.value() is not None
        with pytest.raises(NavigationError):
            session.down()

    def test_right_at_end_rejected(self, session):
        session.open(Q1).down().right().right()
        with pytest.raises(NavigationError):
            session.right()

    def test_into_missing_label_rejected(self, session):
        session.open(Q1).down()
        with pytest.raises(NavigationError):
            session.into("lens")

    def test_next_where(self, session):
        session.open(Q1).down()
        session.next_where(
            lambda n: n.find("customer").find("id").d().fv() == "XYZ"
        )
        assert session.current.find("customer").find("id").d().fv() == "XYZ"

    def test_next_where_exhausted(self, session):
        session.open(Q1).down()
        with pytest.raises(NavigationError):
            session.next_where(lambda n: False)


class TestRefinement:
    def test_refine_from_node(self, session):
        session.open(Q1).down()
        session.next_where(
            lambda n: n.find("customer").find("id").d().fv() == "XYZ"
        )
        session.refine(
            "FOR $O IN document(root)/OrderInfo"
            " WHERE $O/order/value/data() < 500 RETURN $O"
        )
        assert session.label() == "list"
        session.down()
        assert session.label() == "OrderInfo"

    def test_back_to_previous_view(self, session):
        session.open(Q1).down()
        session.refine("FOR $O IN document(root)/OrderInfo RETURN $O")
        session.back_to_previous_view()
        assert session.label() == "list"
        session.down()
        assert session.label() == "CustRec"

    def test_back_without_history_rejected(self, session):
        session.open(Q1)
        with pytest.raises(NavigationError):
            session.back_to_previous_view()


class TestLog:
    def test_interaction_recorded(self, session):
        session.open(Q1).down().right().into("customer")
        commands = [cmd for cmd, __ in session.log()]
        assert commands == ["open", "down", "right", "into"]

    def test_repr(self, session):
        assert "no view" in repr(session)
        session.open(Q1).down()
        assert "CustRec" in repr(session)

    def test_repr_issues_no_command(self, session):
        # repr reads the held labels; it must not count as navigation
        # or push traces into the instrument's ring.
        session.open(Q1).down().into("customer")
        node = session.current
        stats = node.mediator.stats
        commands = stats.get(sn.QDOM_COMMANDS)
        traces = len(stats.traces())
        assert repr(session) == "Session(at list / CustRec / customer)"
        assert repr(node).startswith("QdomNode(")
        assert repr(node).endswith(":customer)")
        assert stats.get(sn.QDOM_COMMANDS) == commands
        assert len(stats.traces()) == traces
        assert session.breadcrumbs() == ["list", "CustRec", "customer"]
        assert stats.get(sn.QDOM_COMMANDS) == commands + 3
