"""End-to-end tracing: one QDOM navigation yields one causal trace.

The acceptance criterion of the observability refactor: a single ``d``
on the customer/order view produces a JSON-exportable trace whose root
is the navigation command, whose children are the lazy operator spans
the command pulled on, and whose leaves carry the exact SQL strings the
relational source received.
"""

from __future__ import annotations

import json

from tests.conftest import Q1, make_paper_wrapper

from repro import Mediator
from repro.obs import Instrument, trace_to_dict, trace_to_json
from repro.algebra import operators as ops
from repro.stats import QDOM_COMMANDS, SQL_QUERIES


def shared_bus_mediator():
    """Mediator and database on one shared Instrument (the normal
    deployment: source counters and navigation traces on one bus)."""
    inst = Instrument()
    wrapper = make_paper_wrapper(stats=inst)
    return inst, Mediator(stats=inst).add_source(wrapper)


def test_single_navigation_trace_links_command_to_operators_and_sql():
    inst, mediator = shared_bus_mediator()
    root = mediator.query(Q1)

    # The plan actually executed (rQ leaves carry the pushed SQL).
    exec_plan, __, __ = mediator.prepare(Q1)
    rq_nodes = [
        n for n in _walk_plan(exec_plan) if isinstance(n, ops.RelQuery)
    ]
    assert rq_nodes, "Q1 must push SQL to the source"

    inst.clear_traces()
    child = root.d()
    assert child is not None

    trace = root.last_trace()
    assert trace is inst.last_trace()
    # Root of the trace is the navigation command itself.
    assert trace.name == "d"
    assert trace.kind == "navigation"
    assert trace.attributes["oid"] == "&view1"

    # The command span contains the lazy operator spans it pulled on.
    operator_spans = trace.find_all(kind="operator")
    assert {s.name for s in operator_spans} >= {"tD", "crElt", "rQ"}
    rq_span = trace.find("rQ", kind="operator")
    assert rq_span.attributes["server"] == "s"

    # ... down to the exact SQL text the source received.
    traced_sql = trace.sql_statements()
    assert rq_span.attributes["sql"] in traced_sql
    assert traced_sql[0] == rq_nodes[0].sql
    assert "FROM customer" in rq_nodes[0].sql
    assert "orders" in rq_nodes[0].sql


def test_trace_exports_to_json_with_full_linkage():
    inst, mediator = shared_bus_mediator()
    root = mediator.query(Q1)
    inst.clear_traces()
    root.d()

    payload = trace_to_dict(root.last_trace())
    decoded = json.loads(trace_to_json(root.last_trace()))
    assert decoded["name"] == payload["name"] == "d"

    def collect(node, out):
        out.append(node)
        for c in node["children"]:
            collect(c, out)
        return out

    spans = collect(decoded, [])
    rq = [s for s in spans if s["name"] == "rQ"]
    assert rq, "JSON trace must contain the rQ operator span"
    assert "SELECT" in rq[0]["attributes"]["sql"]
    # Operator work hangs below the root command, never beside it.
    assert decoded["kind"] == "navigation"
    assert all(s["kind"] in ("operator", "source") for s in spans[1:])


def test_each_navigation_command_is_one_trace():
    inst, mediator = shared_bus_mediator()
    root = mediator.query(Q1)
    inst.clear_traces()
    before = inst.get(QDOM_COMMANDS)
    child = root.d()
    child.fl()
    sibling = child.r()
    assert sibling is not None
    assert inst.get(QDOM_COMMANDS) - before == 3
    names = [t.name for t in inst.traces()]
    assert names == ["d", "fl", "r"]


def test_forced_work_is_attributed_to_the_forcing_command():
    """The first ``d`` forces the source query; later commands reuse the
    memoized stream and carry no new SQL."""
    inst, mediator = shared_bus_mediator()
    root = mediator.query(Q1)
    sql_before = inst.get(SQL_QUERIES)
    inst.clear_traces()

    child = root.d()
    first = inst.last_trace()
    assert inst.get(SQL_QUERIES) > sql_before  # the d paid for the SQL
    assert first.sql_statements()

    inst.clear_traces()
    child.fl()
    label_trace = inst.last_trace()
    assert label_trace.name == "fl"
    assert label_trace.sql_statements() == []  # a free command


def test_query_stage_timers_accumulate_on_the_bus():
    inst, mediator = shared_bus_mediator()
    mediator.query(Q1)
    snap = inst.snapshot()
    assert "time:translate" in snap
    assert "time:rewrite" in snap
    assert "time:push_sql" in snap


def _walk_plan(node):
    yield node
    if isinstance(node, ops.Apply):
        for sub in _walk_plan(node.plan):
            yield sub
    for child in node.children:
        for sub in _walk_plan(child):
            yield sub
