"""EXPLAIN's footer and trace events come from one record.

Every footer line after the totals is also a trace event on the explain
span, with the same kind, body and ``source`` attribute, in the same
order — so a JSON trace consumer reads exactly what the text shows.
"""

from __future__ import annotations

import re

from tests.conftest import Q1, make_paper_wrapper

from repro import Instrument, Mediator, RelationalWrapper
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    shard_resilience,
)
from repro.resilience.faults import PERMANENT
from repro.sources import SourceCatalog
from repro.workloads import (
    build_customers_orders,
    build_sharded_customers_orders,
)

FOOTER_LINE = re.compile(r"-- (\w+)(?:\[([^\]]+)\])?: (.*)")


def footer_entries(text):
    """``(kind, source, body)`` of each footer line after the totals."""
    lines = [line for line in text.splitlines() if line.startswith("-- ")]
    assert lines[0].startswith("-- tuples=")
    return [FOOTER_LINE.fullmatch(line).groups() for line in lines[1:]]


def event_entries(trace):
    return [
        (name, attrs.get("source"), detail)
        for name, detail, attrs in trace.events
    ]


def assert_events_match_footer(mediator, query):
    text, trace, __ = mediator.explain_with_trace(query, mask_times=True)
    entries = footer_entries(text)
    assert event_entries(trace) == entries
    return entries


def test_resilient_source():
    clock = ManualClock()
    faulty = FaultInjectingSource(make_paper_wrapper(), clock=clock)
    faulty.fail_pull("root2", 0, kind=PERMANENT)
    faulty.fail_pull("root2", 1, kind=PERMANENT)
    resilient = ResilientSource(
        faulty,
        retry=RetryPolicy(attempts=2, sleep=clock.sleep),
        breaker=CircuitBreaker(failure_threshold=2, clock=clock),
        name="s",
    )
    mediator = Mediator(
        catalog=SourceCatalog().register(resilient),
        push_sql=False, on_source_error="degrade",
    )
    entries = assert_events_match_footer(mediator, Q1)
    kinds = [kind for kind, __, __ in entries]
    assert kinds[0] == "block" and "plan_cache" in kinds
    (body,) = [body for kind, __, body in entries if kind == "resilience"]
    assert "circuit_rejections=" in body
    assert "breaker=open transitions=closed->open" in body


def test_sharded_source():
    fleet = build_sharded_customers_orders(
        shards=3, n_customers=6, orders_per_customer=3
    )
    try:
        entries = assert_events_match_footer(fleet.mediator(), Q1)
    finally:
        fleet.sharded.close()
    assert ("shard", "s", "shards=3 scattered=3 pruned=0 failed=0") in entries


def test_warm_cache():
    mediator = Mediator(cache=True, block_size=1).add_source(
        make_paper_wrapper()
    )
    mediator.explain(Q1)
    entries = assert_events_match_footer(mediator, Q1)
    assert entries[0] == ("plan_cache", None, "hit")
    assert [kind for kind, __, __ in entries] == [
        "plan_cache", "verified", "cache"
    ]
    assert entries[-1][1] == "s"


CROSS_SOURCE = """
FOR $C IN document(cust)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C $O </CustRec>
"""

#: Recorded before health was one ``Source.health()`` hook.
CROSS_SOURCE_EXPLAIN = """\
tD($V6, view1)   [tuples=4]
  crElt(CustRec, f($C, $O), $W5, $V6)   [tuples=4]
    cat(list($C), list($O), $W5)   [tuples=4]
      join($3 = $4)   [tuples=4]
        rQ(one, <sql>, {$3={1}; $C={2,3,4}})   [tuples=2]
            sql: SELECT c1.id, c1.id, c1.name, c1.addr FROM customer c1
        rQ(s, <sql>, {$4={1}; $O={2,3,4}})   [tuples=4]
            sql: SELECT o1.cid, o1.orid, o1.cid, o1.value FROM orders o1
-- tuples=18 rq_statements=2
-- plan_cache: miss
-- verified: 2 stages
-- cache[one]: hits=0 misses=1 evictions=0 invalidations=0 tuples_shipped=2 tuples_from_cache=0
-- shard[s]: shards=2 scattered=2 pruned=0 failed=0
-- resilience[one]: retries=0 timeouts=0 failures=0 circuit_rejections=0 breaker=None transitions=-
-- resilience[s]: retries=1 timeouts=0 failures=1 circuit_rejections=0 breaker=closed/closed transitions=-"""


def test_cache_shard_and_resilience_together():
    """A SQL-cached wrapper behind ``ResilientSource`` next to a
    resilient two-member fleet: every footer kind, kind by kind, then
    source by source."""
    stats = Instrument()
    clock = ManualClock()
    retry = RetryPolicy(attempts=2, sleep=clock.sleep)
    single = build_customers_orders(n_customers=2, orders_per_customer=2)
    wrapper = RelationalWrapper(single.database, server_name="one")
    wrapper.register_document("cust", "customer")
    fleet = build_sharded_customers_orders(
        shards=2, n_customers=2, orders_per_customer=2, stats=stats,
        member_wrapper=lambda members: shard_resilience(
            [FaultInjectingSource(members[0]).fail_sql(times=1),
             members[1]],
            retry=retry,
            breaker=CircuitBreaker(failure_threshold=2, clock=clock),
        ),
    )
    mediator = Mediator(stats=stats, cache=True, block_size=1)
    mediator.add_source(ResilientSource(wrapper, retry=retry, obs=stats))
    mediator.add_source(fleet.sharded)
    try:
        assert mediator.explain(CROSS_SOURCE, mask_times=True) \
            == CROSS_SOURCE_EXPLAIN
        entries = assert_events_match_footer(mediator, CROSS_SOURCE)
    finally:
        fleet.sharded.close()
    assert [(kind, source) for kind, source, __ in entries][-4:] == [
        ("cache", "one"), ("shard", "s"),
        ("resilience", "one"), ("resilience", "s"),
    ]
