"""The pull protocol every source iterator speaks to the engine.

The engine's degradation rule (:func:`repro.resilience.stub.
degrade_children`) relies on it: a raised pull consumes nothing, so a
transient failure is re-attempted by pulling again; ``skip()`` abandons
exactly what a permanent failure lost — one position, or the whole
member of a fleet when the member itself is dead.  The fault injector,
the sharded scan and ``ResilientSource`` (over a retry-safe iterator
and over a plain generator it must reopen) all keep it.
"""

from __future__ import annotations

from collections import namedtuple

import pytest

from repro.errors import ShardError, SourceError, TransientSourceError
from repro.resilience import FaultInjectingSource, ManualClock, ResilientSource
from repro.resilience.faults import PERMANENT, TRANSIENT
from repro.sources.shard import RANGE
from repro.workloads import build_sharded_customers_orders
from repro.xmltree import serialize

from tests.conftest import make_paper_wrapper
from tests.resilience.conftest import FlakyListSource

#: ``open(kind)`` is an iterator over ``doc`` whose position 1 fails
#: with a fault of ``kind``; ``fleet`` builds a sharded scan.
Case = namedtuple("Case", "open doc fleet")


def injected(source, doc, kind):
    return FaultInjectingSource(source, clock=ManualClock()).fail_pull(
        doc, 1, kind=kind
    )


def open_injected(kind):
    return injected(make_paper_wrapper(), "root2", kind) \
        .iter_document_children("root2")


def fleet(member_wrapper=None):
    return build_sharded_customers_orders(
        shards=2, scheme=RANGE, partition_key="orid", n_customers=2,
        orders_per_customer=2, member_wrapper=member_wrapper,
    ).sharded


def open_sharded(kind):
    # Member 0 fails at its second order; member 1 is healthy.
    return fleet(lambda ms: [injected(ms[0], "root2", kind)] + ms[1:]) \
        .iter_document_children("root2")


def open_resilient_injected(kind):
    return ResilientSource(
        injected(make_paper_wrapper(), "root2", kind)
    ).iter_document_children("root2")


def open_resilient_generator(kind):
    # A one-shot fault: the generator dies raising, and the reopen that
    # fast-forwards it does not meet the fault again.
    def error(position):
        cls = TransientSourceError if kind == TRANSIENT else SourceError
        return cls("flaky pull at {}".format(position), doc_id="d")

    flaky = FlakyListSource("d", ["a", "b", "c", "e"], fail_at=1,
                            exc_factory=error)
    return ResilientSource(flaky).iter_document_children("d")


CASES = {
    "injected": Case(open_injected, "root2", False),
    "sharded": Case(open_sharded, "root2", True),
    "resilient-retry-safe": Case(open_resilient_injected, "root2", False),
    "resilient-generator": Case(open_resilient_generator, "d", False),
}


def texts(nodes):
    return [serialize(node) for node in nodes]


def reference(case):
    """The fault-free stream of the case's document."""
    if case.fleet:
        return texts(fleet().iter_document_children(case.doc))
    if case.doc == "d":
        return texts(FlakyListSource("d", ["a", "b", "c", "e"])
                     .iter_document_children("d"))
    return texts(make_paper_wrapper().iter_document_children(case.doc))


@pytest.mark.parametrize("name", sorted(CASES))
def test_pull_protocol(name):
    case = CASES[name]
    want = reference(case)

    # A raised pull consumes nothing: pulling again delivers the
    # position, so the stream is the fault-free one.  Through the
    # sharded scan a member's transient failure stays transient.
    stream = case.open(TRANSIENT)
    got = [next(stream)]
    with pytest.raises(TransientSourceError):
        next(stream)
    assert texts(got + list(stream)) == want

    # skip() after a permanent failure drops exactly that position.
    stream = case.open(PERMANENT)
    got = [next(stream)]
    with pytest.raises(SourceError) as info:
        next(stream)
    assert not isinstance(info.value, (TransientSourceError, ShardError))
    stream.skip()
    assert texts(got + list(stream)) == want[:1] + want[2:]

    if case.fleet:
        # A member that cannot even open is dead: the raise names the
        # shard, and skip() drops the whole member.
        sharded = fleet()
        member = sharded.members[0]
        healthy = len(texts(member.iter_document_children(case.doc)))

        def down(doc_id):
            raise SourceError("member down", doc_id=doc_id)

        member.iter_document_children = down
        stream = sharded.iter_document_children(case.doc)
        with pytest.raises(ShardError):
            next(stream)
        stream.skip()
        assert texts(stream) == want[healthy:]
