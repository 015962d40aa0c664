"""EXPLAIN's footer and trace events come from one record.

Every footer line after the totals is also a trace event on the explain
span, with the same kind, body and ``source`` attribute, in the same
order — so a JSON trace consumer reads exactly what the text shows.
"""

from __future__ import annotations

import re

from tests.conftest import Q1, make_paper_wrapper

from repro import Mediator
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
)
from repro.resilience.faults import PERMANENT
from repro.sources import SourceCatalog
from repro.workloads import build_sharded_customers_orders

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
