"""Unit tests of the instrumentation bus: counters, spans, node tokens."""

from __future__ import annotations

import gc
import json

import pytest

from repro.obs import (
    Instrument,
    node_token,
    render_explain,
    trace_to_dict,
    trace_to_json,
    traces_to_json,
)


class _FakeOp:
    opname = "fakeOp"


# -- counters: the counter/timer contract --------------------------------------------


def test_counter_interface_matches_registry():
    inst = Instrument()
    inst.incr("abc")
    inst.incr("abc", 2)
    assert inst.get("abc") == 3
    assert inst.get("never") == 0
    snap = inst.snapshot()
    inst.incr("abc")
    assert snap["abc"] == 3  # snapshot is a copy
    assert inst.diff(snap) == {"abc": 1}
    assert "abc=4" in repr(inst)
    inst.reset()
    assert inst.get("abc") == 0


def test_timer_lands_in_snapshot_under_time_prefix():
    inst = Instrument()
    with inst.timer("t"):
        pass
    assert inst.elapsed("t") >= 0.0
    assert "time:t" in inst.snapshot()


# -- spans -------------------------------------------------------------------------


def test_command_span_records_a_trace():
    inst = Instrument()
    with inst.command_span("d", oid="&X") as span:
        assert inst.current_span is span
    trace = inst.last_trace()
    assert trace is span
    assert trace.name == "d"
    assert trace.kind == "navigation"
    assert trace.attributes["oid"] == "&X"
    assert trace.calls == 1
    assert trace.elapsed >= 0.0


def test_nested_command_spans_form_a_tree():
    inst = Instrument()
    with inst.command_span("outer"):
        with inst.command_span("inner"):
            pass
    trace = inst.last_trace()
    assert trace.name == "outer"
    assert [c.name for c in trace.children] == ["inner"]
    assert len(inst.traces()) == 1  # inner is not a root trace


def test_counter_increment_is_attributed_to_active_span():
    inst = Instrument()
    inst.incr("outside")
    with inst.command_span("d"):
        inst.incr("inside", 2)
    trace = inst.last_trace()
    assert trace.counters == {"inside": 2}
    assert inst.get("outside") == 1
    assert inst.get("inside") == 2  # global count still maintained


def test_operator_spans_merge_by_key():
    inst = Instrument()
    with inst.command_span("d"):
        for __ in range(5):
            with inst.operator_span("join", key="join#1"):
                inst.incr("operator_tuples")
    trace = inst.last_trace()
    assert len(trace.children) == 1
    joined = trace.children[0]
    assert joined.name == "join"
    assert joined.calls == 5
    assert joined.counters == {"operator_tuples": 5}


def test_operator_span_outside_trace_records_nothing():
    inst = Instrument()
    with inst.operator_span("join", key="join#1") as span:
        assert span is None  # no active trace -> no bookkeeping at all
    assert inst.last_trace() is None
    assert inst.snapshot() == {}


def test_events_collect_on_the_active_span():
    inst = Instrument()
    inst.event("ignored", "no active span")
    with inst.command_span("d"):
        inst.event("sql", "SELECT 1", server="s")
    trace = inst.last_trace()
    assert [name for name, __, __ in trace.events] == ["sql"]
    assert trace.events[0][1] == "SELECT 1"
    assert trace.events[0][2] == {"server": "s"}
    assert trace.sql_statements() == ["SELECT 1"]


def test_trace_ring_is_bounded():
    inst = Instrument(trace_capacity=3)
    for i in range(5):
        with inst.command_span("d", seq=i):
            pass
    kept = [t.attributes["seq"] for t in inst.traces()]
    assert kept == [2, 3, 4]


def test_trace_export_round_trips_through_json():
    inst = Instrument()
    with inst.command_span("d", oid="&X"):
        with inst.operator_span("rQ", key="rQ#1", sql="SELECT 1"):
            inst.incr("operator_tuples")
        inst.event("sql", "SELECT 1")
    payload = trace_to_dict(inst.last_trace())
    decoded = json.loads(trace_to_json(inst))
    assert decoded == json.loads(json.dumps(payload, default=str))
    assert decoded["name"] == "d"
    assert decoded["children"][0]["attributes"]["sql"] == "SELECT 1"
    masked = trace_to_dict(inst.last_trace(), mask_times=True)
    assert masked["elapsed_ms"] is None


def test_every_trace_of_the_ring_exports_oldest_first():
    inst = Instrument(trace_capacity=2)
    assert trace_to_json(inst) == "null"
    for seq in range(3):
        with inst.command_span("d", seq=seq):
            inst.incr("qdom_commands")
    exported = json.loads(traces_to_json(inst, mask_times=True))
    assert [trace["attributes"]["seq"] for trace in exported] == [1, 2]
    assert exported[-1] == trace_to_dict(inst, mask_times=True)
    with pytest.raises(TypeError):
        trace_to_dict("not a trace")


# -- per-node numbers on operator spans, and stable tokens ---------------------------


def _rows(trace, token):
    return sum(s.rows for s in trace.iter_spans() if s.key == token)


def test_operator_span_rows_accumulate_per_key():
    inst = Instrument()
    with inst.command_span("d") as trace:
        with inst.operator_span("join", key="join#1") as span:
            span.rows += 1
        with inst.command_span("r"):  # a second parent: a second span
            with inst.operator_span("join", key="join#1") as span:
                span.rows += 4
    assert [s.key for s in trace.find_all(name="join")] == ["join#1"] * 2
    assert _rows(trace, "join#1") == 5
    assert _rows(trace, "other") == 0
    assert trace.find(name="d").key is None  # command spans carry no key
    # The rows stay out of the exported trace: it is unchanged.
    assert "rows" not in json.dumps(trace_to_dict(trace))


def test_render_explain_sums_rows_and_time_per_token():
    from repro.algebra import MkSrc

    op = MkSrc("root1", "$K")
    inst = Instrument()
    with inst.command_span("explain", kind="explain") as trace:
        for name in ("d", "r"):
            with inst.command_span(name):
                with inst.operator_span("mksrc", key=node_token(op)) as s:
                    s.rows += 2
    spans = trace.find_all(name="mksrc")
    assert len(spans) == 2
    ms = sum(s.elapsed for s in spans) * 1e3
    assert render_explain(op, trace) == (
        "mksrc(root1, $K)   [tuples=4 time={:.3f}ms]".format(ms)
    )
    assert render_explain(op, trace, mask_times=True) == (
        "mksrc(root1, $K)   [tuples=4]"
    )
    assert render_explain(op) == "mksrc(root1, $K)"


def test_node_token_is_stamped_and_stable():
    op = _FakeOp()
    token = node_token(op)
    assert token.startswith("fakeOp#")
    assert node_token(op) == token
    assert node_token(_FakeOp()) != token


def test_node_token_needs_a_node_that_can_carry_it():
    with pytest.raises(AttributeError):
        node_token(object())  # no __dict__: nowhere to stamp the token


def test_tokens_survive_id_reuse_after_gc():
    """The seed bug: Profiler keyed on id(node); CPython reuses ids after
    GC, so counts of dead plans could alias onto new ones.  Tokens are
    minted from a process-unique counter, so every distinct node object
    observed over time gets a distinct key."""
    seen = set()
    for __ in range(100):
        op = _FakeOp()
        seen.add(node_token(op))
        del op
        gc.collect()
    assert len(seen) == 100


def test_trace_totals_do_not_alias_across_gc():
    inst = Instrument()
    with inst.command_span("d") as trace:
        for __ in range(50):
            op = _FakeOp()
            with inst.operator_span("fakeOp", key=node_token(op)) as span:
                span.rows += 1
            del op
            gc.collect()
    fresh = _FakeOp()
    # never aliased onto a dead op
    assert _rows(trace, node_token(fresh)) == 0
    assert len(trace.children) == 50
    assert sum(s.rows for s in trace.iter_spans()) == 50
