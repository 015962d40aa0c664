"""Readers of one shared answer race the completion of its elements.

A memoized answer's tree is shared by every session that hits the
navigation memo, and the bulk readers read it without the force lock
(:func:`~repro.xmltree.tree.held_children`): a constructed element
that completes publishes its flat child tuple, then clears its tail.
Eight sessions hit one memoized ``JOIN_VIEW`` answer and walk it, render
it and refine it in place (pushed while it is incomplete, held once it
is complete) while the first of them is still forcing it, with the
interpreter switching threads as often as it can.  Every reply must be
the one a single session gets alone.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Mediator
from repro.server import LoopbackClient, MediatorService, ServerLimits
from repro.workloads import build_customers_orders

from tests.conftest import MIX_SEED

THREADS = 8
ROUNDS = 8
JOIN_VIEW = (
    "FOR $C IN document(root1)/customer $O IN document(root2)/order "
    "WHERE $C/id/data() = $O/cid/data() "
    "RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}"
)
REFINE = (
    "FOR $R IN document(root)/CustRec $S IN $R/OrderInfo "
    "WHERE $S/order/value/data() > 150 RETURN $R"
)


def fresh_service():
    built = build_customers_orders(
        n_customers=40, orders_per_customer=5, seed=MIX_SEED)
    mediator = Mediator(stats=built.stats, cache=True).add_source(
        built.wrapper)
    return MediatorService(mediator, limits=ServerLimits(
        max_sessions=THREADS + 4, max_inflight=THREADS * 4))


def walk(call, root):
    return call("walk", node=root)["steps"]


def tree(call, root):
    return call("tree", node=root)["xml"]


def refine(call, root):
    refined = call("q", node=root, query=REFINE)["node"]
    kids = call("children", node=refined)["children"]
    return [kid["oid"] for kid in kids], tree(call, refined)


def record(call, root):
    first = call("d", node=root)["node"]
    return tree(call, first), walk(call, first)


READS = (walk, tree, refine, record)


def session_reads(client, order):
    """Query the view and make every read, in ``order``; the replies
    by read."""
    session = client.call("open")["session"]

    def call(op, **args):
        return client.call(op, session=session, **args)

    root = call("query", query=JOIN_VIEW)["node"]
    replies = {read.__name__: read(call, root) for read in order}
    client.call("close", session=session)
    return replies


@pytest.fixture
def often_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def test_readers_racing_the_completion_get_the_lone_replies(
        often_switching):
    with LoopbackClient(fresh_service()) as client:
        alone = session_reads(client, READS)
    for __ in range(ROUNDS):
        service = fresh_service()
        with LoopbackClient(service) as client:
            primer = client.call("open")["session"]
            client.call("query", session=primer, query=JOIN_VIEW)
        barrier = threading.Barrier(THREADS, timeout=30)
        replies = [None] * THREADS
        errors = []

        def run(slot):
            order = READS[slot % 4:] + READS[:slot % 4]
            try:
                with LoopbackClient(service) as client:
                    barrier.wait()
                    replies[slot] = session_reads(client, order)
            except Exception as exc:  # reported below, with the slot
                errors.append((slot, repr(exc)))

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(reply == alone for reply in replies)
        assert service.mediator.cache_stats()["nav_memo"]["hits"] >= THREADS
