"""The shared mediator tier holds steady under served traffic.

A long-lived mediator serves session after session; what the
observability layer keeps must not grow with them.  Its only lasting
record is the bounded trace ring, so once warm-up has filled the ring,
200 more sessions must leave the memory held by allocations made in
``repro/obs`` where it was.  And a served request leaves no cyclic
garbage: everything it built is freed by reference counting, so peak
memory does not hang on when the cyclic collector happens to run.  What
the ring keeps is light for the collector too: a span owns a container
only once it records into it.
"""

from __future__ import annotations

import gc
import tracemalloc
from types import MappingProxyType

from repro.obs import TRACE_CAPACITY
from repro.obs.span import Span
from repro.server import LoopbackClient

from tests.server.conftest import make_service

JOIN_QUERY = """
FOR $C IN document(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> </CustRec>
"""

#: Refinements of the join view; every session uses a new threshold, so
#: its text, shape lookup and pushed SQL are new to the caches.
REFINE = """
FOR $R IN document(root)/CustRec $S IN $R/OrderInfo
WHERE $S/order/value/data() > {}
RETURN $R
"""

DML = [
    "INSERT INTO orders VALUES (900, 'ABC', 42)",
    "UPDATE orders SET value = 43 WHERE orid = 900",
    "DELETE FROM orders WHERE orid = 900",
]

IN_PLACE = """
FOR $X IN document(root)/OrderInfo
WHERE $X/order/value/data() > 500
RETURN $X
"""

#: Sessions run before the first measurement: at 8 requests (traces) a
#: session, many times what the trace ring holds.
WARMUP = 100
SESSIONS = 200
#: Allowed drift, in bytes, of what ``repro/obs`` holds: a few traces'
#: worth of size difference between ring contents, not 200 sessions'.
SLACK = 16 * 1024


def run_session(client):
    session = client.call("open")["session"]
    root = client.call("query", session=session, query=JOIN_QUERY)
    first = client.call("d", session=session, node=root["node"])
    client.call("r", session=session, node=first["node"])
    client.call("children", session=session, node=root["node"])
    sub = client.call("q", session=session, node=first["node"],
                      query=IN_PLACE)
    client.call("walk", session=session, node=sub["node"])
    client.call("close", session=session)


def obs_bytes():
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/obs/*")]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_obs_memory_stays_flat_over_served_sessions():
    service = make_service()
    tracemalloc.start()
    try:
        with LoopbackClient(service) as client:
            for _ in range(WARMUP):
                run_session(client)
            before = obs_bytes()
            for _ in range(SESSIONS):
                run_session(client)
            after = obs_bytes()
    finally:
        tracemalloc.stop()
    assert len(service.obs.traces()) == TRACE_CAPACITY  # the ring is full
    assert after - before < SLACK, (
        "repro/obs kept {} more bytes after {} sessions".format(
            after - before, SESSIONS
        )
    )


def cyclic_session(client, threshold):
    """The join view, a root ``q`` refinement, ``walk``, ``tree`` and a
    DML batch."""
    session = client.call("open")["session"]
    root = client.call("query", session=session, query=JOIN_QUERY)
    client.call("d", session=session, node=root["node"])
    refined = client.call("q", session=session, node=root["node"],
                          query=REFINE.format(threshold))
    client.call("walk", session=session, node=root["node"])
    client.call("tree", session=session, node=refined["node"])
    client.call("sql", session=session, statements=DML)
    client.call("close", session=session)


def test_served_sessions_leave_no_cyclic_garbage():
    service = make_service()
    with LoopbackClient(service) as client:
        for threshold in range(3):
            cyclic_session(client, threshold)
        gc.collect()
        gc.disable()
        try:
            for threshold in range(100, 105):
                cyclic_session(client, threshold)
            assert gc.collect() == 0
        finally:
            gc.enable()


def tracked_per_span(traces):
    """Objects reachable from ``traces`` through spans and their
    containers that the collector tracks, per span."""
    kept, todo = {}, list(traces)
    while todo:
        obj = todo.pop()
        if id(obj) not in kept:
            kept[id(obj)] = obj
            todo.extend(
                ref for ref in gc.get_referents(obj)
                if isinstance(ref, (Span, list, tuple, dict, MappingProxyType))
            )
    spans = sum(isinstance(obj, Span) for obj in kept.values())
    return sum(gc.is_tracked(obj) for obj in kept.values()) / spans


def test_the_trace_ring_is_light_for_the_collector():
    service = make_service(cache=False)
    with LoopbackClient(service) as client:
        for _ in range(TRACE_CAPACITY):
            session = client.call("open")["session"]
            root = client.call("query", session=session, query=JOIN_QUERY)
            client.call("walk", session=session, node=root["node"])
            client.call("tree", session=session, node=root["node"])
            client.call("close", session=session)
    traces = service.obs.traces()
    assert len(traces) == TRACE_CAPACITY
    gc.collect()
    assert tracked_per_span(traces) <= 3
