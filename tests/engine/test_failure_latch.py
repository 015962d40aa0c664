"""A lazy stream that raised stays raised: no silent truncation.

The Fig.-3 view over 4 customers x 3 orders, behind a source whose
pushed cursor dies after its 4th row: the first customer's rows arrive
whole, the second's first order arrives, and everything after is lost.
Under the default ``raise`` policy, navigated stepwise, every record
must either hold all three of its orders or raise — never present a
partial record or a short answer as complete — and once a record has
raised, the root's next ``r`` (which needs the lost rows) raises too.
That holds at every width, with the cache off and on, in-process and
over the wire.
"""

from __future__ import annotations

import pytest

from repro import Instrument, Mediator
from repro.errors import SourceError
from repro.server import LoopbackClient, MediatorService, ServerReplyError

from tests.conftest import DyingCursorSource, Q1, make_scaled_wrapper


class InProcess:
    escape = SourceError

    def __init__(self, mediator):
        self.mediator = mediator

    def query(self):
        return self.mediator.query(Q1)

    def down(self, node):
        return node.d()

    def right(self, node):
        return node.r()

    def label(self, node):
        return node.fl()


class Served:
    escape = ServerReplyError

    def __init__(self, mediator):
        self.client = LoopbackClient(MediatorService(mediator))
        self.session = self.client.call("open")["session"]

    def query(self):
        return self.client.call("query", session=self.session,
                                query=Q1)["node"]

    def _call(self, op, node):
        try:
            return self.client.call(op, session=self.session, node=node)
        except ServerReplyError as exc:
            assert exc.error_type == "SourceError", exc
            raise

    def down(self, node):
        return self._call("d", node)["node"]

    def right(self, node):
        return self._call("r", node)["node"]

    def label(self, node):
        return self._call("fl", node)["label"]


def orders_of(nav, record):
    """How many ``OrderInfo`` children the record has (stepwise)."""
    count = 0
    child = nav.down(record)
    while child is not None:
        count += nav.label(child) == "OrderInfo"
        child = nav.right(child)
    return count


def walk(nav):
    """Each record's order count, then ``"raised"`` for a record whose
    walk raised (the walk stops there)."""
    seen = []
    record = nav.down(nav.query())
    while record is not None:
        try:
            seen.append(orders_of(nav, record))
        except nav.escape:
            seen.append("raised")
            with pytest.raises(nav.escape):
                nav.right(record)
            return seen
        record = nav.right(record)
    return seen


@pytest.mark.parametrize("transport", [InProcess, Served])
@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("width", [1, 2, 64])
def test_a_dead_cursor_never_truncates_a_record(width, cache, transport):
    stats = Instrument()
    source = DyingCursorSource(make_scaled_wrapper(4, 3, stats=stats), 4)
    mediator = Mediator(
        stats=stats, cache=cache, block_size=width
    ).add_source(source)
    nav = transport(mediator)
    for __ in range(2):  # a second session meets the same failure
        assert walk(nav) == [3, "raised"]
