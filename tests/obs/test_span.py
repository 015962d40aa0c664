"""Spans own a container only once they record into it.

A span starts on shared empties (``()`` for children and events, one
read-only mapping for attributes, counters and merged children) and is
given its own list or dict by the first write.  These tests build the
same trees twice — through :class:`Span` and through a reference whose
containers are ordinary lists and dicts from the start — and require
every reader to agree; and they check that the shared empties are never
written through.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import Instrument
from repro.obs.span import Span


class PlainSpan(Span):
    """The reference: every container a fresh list or dict at birth."""

    def __init__(self, span_id, name, kind="span", attributes=None):
        Span.__init__(self, span_id, name, kind, attributes)
        self.attributes = dict(attributes or {})
        self.counters = {}
        self.events = []
        self.children = []
        self._merged = {}

    def add_child(self, span):
        self.children.append(span)
        return span

    def merged_child(self, key, make_span):
        span = self._merged.get(key)
        if span is None:
            span = make_span()
            span.key = key
            self._merged[key] = span
            self.children.append(span)
        return span

    def bump(self, counter, amount=1):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def add_event(self, name, detail=None, attrs=None):
        self.events.append((name, detail, dict(attrs or {})))


NAMES = st.sampled_from(["d", "r", "rQ", "gBy", "tD"])
COUNTERS = st.sampled_from(["sql_queries", "operator_tuples", "qdom_commands"])
ATTRS = st.dictionaries(
    st.sampled_from(["sql", "oid", "server"]),
    st.sampled_from(["SELECT 1", "SELECT 2", "&X", "s"]),
    max_size=2,
)

#: One building step: ``(method, target span index, arguments)``.
STEPS = st.one_of(
    st.tuples(st.just("child"), st.integers(0, 30), NAMES, ATTRS),
    st.tuples(st.just("merged"), st.integers(0, 30), NAMES, ATTRS),
    st.tuples(st.just("bump"), st.integers(0, 30), COUNTERS,
              st.integers(0, 3)),
    st.tuples(
        st.just("event"), st.integers(0, 30),
        st.sampled_from(["sql", "degraded", "doc_fetch"]),
        st.tuples(st.sampled_from([None, "SELECT 1", "SELECT 3"]), ATTRS),
    ),
)


def build(cls, steps):
    """Replay ``steps`` on a tree of ``cls`` spans; returns its root."""
    numbers = iter(range(1, 10_000))

    def fresh(name, attrs):
        return cls("s{}".format(next(numbers)), name, "operator", attrs)

    spans = [fresh("root", {})]
    for method, index, name, arg in steps:
        span = spans[index % len(spans)]
        if method == "child":
            spans.append(span.add_child(fresh(name, arg)))
        elif method == "merged":
            before = len(span.children)
            child = span.merged_child(name, lambda: fresh(name, arg))
            child.calls += 1
            if len(span.children) > before:
                spans.append(child)
        elif method == "bump":
            span.bump(name, arg)
        else:
            detail, attrs = arg
            span.add_event(name, detail, attrs)
    return spans[0]


def ids(spans):
    return [span.span_id for span in spans]


@given(st.lists(STEPS, max_size=40))
@example([("merged", 0, "rQ", {}), ("merged", 0, "rQ", {}),
          ("event", 1, "sql", ("SELECT 1", {"server": "s"}))])
@settings(max_examples=60, deadline=None)
def test_every_reader_agrees_with_plain_containers(steps):
    light, plain = build(Span, steps), build(PlainSpan, steps)
    for mask in (True, False):
        assert light.render(mask_times=mask) == plain.render(mask_times=mask)
        assert light.to_dict(mask_times=mask) == plain.to_dict(
            mask_times=mask
        )
    assert light.sql_statements() == plain.sql_statements()
    assert repr(light) == repr(plain)
    for name in ("d", "rQ", "gBy", None):
        for kind in (None, "operator", "navigation"):
            matches = ids(plain.find_all(name=name, kind=kind))
            assert ids(light.find_all(name=name, kind=kind)) == matches
            found = light.find(name=name, kind=kind)
            assert ids([found] if found else []) == matches[:1]
    for counter in ("sql_queries", "operator_tuples", "qdom_commands"):
        assert light.total_counter(counter) == plain.total_counter(counter)


def test_a_span_that_recorded_nothing_owns_no_container():
    first, second = Span("s1", "d"), Span("s2", "r", attributes={})
    for field in ("children", "events"):
        assert getattr(first, field) == ()
        assert getattr(first, field) is getattr(second, field)
    for field in ("attributes", "counters", "_merged"):
        assert len(getattr(first, field)) == 0
        assert getattr(first, field) is getattr(second, field)
    assert first.attributes is first.counters is first._merged


def test_a_write_gives_the_span_its_own_container():
    idle, busy = Span("s1", "d"), Span("s2", "d")
    busy.add_child(Span("s3", "rQ"))
    busy.merged_child("gBy#1", lambda: Span("s4", "gBy"))
    busy.bump("sql_queries", 2)
    busy.add_event("sql", "SELECT 1", {"server": "s"})
    assert [child.span_id for child in busy.children] == ["s3", "s4"]
    assert busy.counters == {"sql_queries": 2}
    assert busy.events == [("sql", "SELECT 1", {"server": "s"})]
    assert idle.children == () and idle.events == ()
    assert len(idle.counters) == 0 and len(idle._merged) == 0
    assert idle.merged_child("gBy#1", lambda: Span("s5", "gBy")).span_id == (
        "s5"
    )
    assert busy._merged["gBy#1"].span_id == "s4"


def test_an_attribute_set_later_gives_the_span_its_own_mapping():
    bare, given = Span("s1", "q"), Span("s2", "q", attributes={"oid": "&X"})
    bare.set_attribute("answer", "held")
    given.set_attribute("answer", "held")
    assert bare.attributes == {"answer": "held"}
    assert given.attributes == {"oid": "&X", "answer": "held"}
    assert len(Span("s3", "q").attributes) == 0


def test_given_attributes_are_copied_not_shared():
    attrs = {"oid": "&X"}
    span = Span("s1", "d", attributes=attrs)
    attrs["oid"] = "&Y"
    assert span.attributes == {"oid": "&X"}


def test_the_shared_empties_cannot_be_written():
    span = Span("s1", "d")
    with pytest.raises(AttributeError):
        span.children.append(Span("s2", "r"))
    with pytest.raises(AttributeError):
        span.events.append(("sql", None, {}))
    for field in ("attributes", "counters", "_merged"):
        with pytest.raises(TypeError):
            getattr(span, field)["x"] = 1
    assert len(Span("s3", "d").counters) == 0


def test_threads_each_get_their_own_root_traces_in_a_bounded_ring():
    inst = Instrument(trace_capacity=32)
    threads, per_thread = 8, 12
    barrier = threading.Barrier(threads)
    roots, kept = [], []

    def work(worker):
        barrier.wait()
        for seq in range(per_thread):
            with inst.command_span(
                "serve:d", kind="serve", worker=worker
            ) as root:
                with inst.command_span("d", worker=worker, seq=seq):
                    inst.incr("qdom_commands")
                    with inst.operator_span("rQ", key="rQ#{}".format(worker)):
                        inst.incr("sql_queries")
                        inst.event("sql", "SELECT {}".format(worker))
            roots.append(root)
            kept.append(len(inst.traces()))

    pool = [
        threading.Thread(target=work, args=(worker,))
        for worker in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)

    assert len({id(root) for root in roots}) == threads * per_thread
    for root in roots:
        worker = root.attributes["worker"]
        [command] = root.children
        assert command.attributes["worker"] == worker
        [operator] = command.children
        assert operator.key == "rQ#{}".format(worker)
        assert operator.events == [("sql", "SELECT {}".format(worker), {})]
        assert root.total_counter("sql_queries") == 1
        assert root.total_counter("qdom_commands") == 1
    assert max(kept) <= 32
    ring = inst.traces()
    assert len(ring) == 32
    assert all(any(trace is root for root in roots) for trace in ring)
    assert inst.get("sql_queries") == threads * per_thread
