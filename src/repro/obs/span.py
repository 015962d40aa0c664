"""Spans: one node of a causal trace.

A span records one unit of attributable work — a QDOM navigation
command, a query pipeline stage, one lazy operator's pulls, a source
scan — together with everything that happened *because of it*: child
spans, counter increments, and point events (e.g. the exact SQL text a
source received).  Spans form the tree the paper's Fig.-22 argument is
about: a ``d`` command at the client fans out into a bounded set of
operator pulls and, at the leaves, SQL on the sources.

Two kinds of children exist:

* *command* children (navigation/query spans) are appended in arrival
  order, one per command;
* *merged* children (operator/source spans) are deduplicated by a key —
  a lazy operator pulled 40 times under one navigation shows up as one
  span with ``calls=40``, not 40 spans.

Most spans record little: an operator span under a navigation gets a
counter or two and no children, a leaf gets no events.  So a span owns
a container only once it records into it; until then its fields are
shared empties (``()`` and one read-only mapping), and a kept trace
costs the collector what it holds, not five containers per span.
"""

from __future__ import annotations

from types import MappingProxyType

#: The mapping every span reads for attributes, counters and merged
#: children it has not recorded (read-only, so no span writes into it).
_EMPTY = MappingProxyType({})


class Span:
    """One node of a trace tree.

    Attributes:
        span_id: trace-local id (``s1``, ``s2``, ...; assigned in
            creation order, so traces are stable across runs).
        name: what the work was (``d``, ``query``, ``gBy``, ``rQ``...).
        kind: coarse category — ``navigation``, ``query``, ``operator``,
            ``source``, or ``explain``.
        attributes: static facts known at open time (oid, SQL text, ...).
        counters: counter increments attributed to this span (increments
            made while a *descendant* was current belong to the
            descendant, not to this span).
        events: ordered ``(name, detail, attrs)`` point records.
        children: child spans, in first-seen order.
        calls: how many times this span was entered (merged spans > 1).
        elapsed: cumulative wall-clock seconds spent inside this span
            (children included, as in ``EXPLAIN ANALYZE`` actual time).
        key: the key a merged child was created under (an engine
            operator span's is its plan node's
            :func:`~repro.obs.tokens.node_token`); ``None`` otherwise.
        rows: tuples the operator's plan node produced while this span
            was current (``EXPLAIN ANALYZE`` sums them per ``key``).

    ``children`` and ``events`` are a tuple, ``attributes`` and
    ``counters`` a read-only mapping, until the span first records into
    them; callers only read them, and record through the building
    methods.
    """

    __slots__ = (
        "span_id",
        "name",
        "kind",
        "attributes",
        "counters",
        "events",
        "children",
        "calls",
        "elapsed",
        "key",
        "rows",
        "_merged",
    )

    def __init__(self, span_id, name, kind="span", attributes=None):
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.attributes = dict(attributes) if attributes else _EMPTY
        self.counters = _EMPTY
        self.events = ()
        self.children = ()
        self.calls = 0
        self.elapsed = 0.0
        self.key = None
        self.rows = 0
        self._merged = _EMPTY

    # -- building ---------------------------------------------------------------
    #
    # A container is empty only while it is the shared one: the span's
    # own list or dict is made holding its first entry.

    def add_child(self, span):
        """Append a command child (one span per occurrence)."""
        if self.children:
            self.children.append(span)
        else:
            self.children = [span]
        return span

    def merged_child(self, key, make_span):
        """The merged child for ``key``, created by ``make_span()`` once."""
        span = self._merged.get(key)
        if span is None:
            span = make_span()
            span.key = key
            if self._merged:
                self._merged[key] = span
            else:
                self._merged = {key: span}
            self.add_child(span)
        return span

    def bump(self, counter, amount=1):
        """Attribute a counter increment to this span."""
        counters = self.counters
        if counters:
            counters[counter] = counters.get(counter, 0) + amount
        else:
            self.counters = {counter: amount}

    def set_attribute(self, name, value):
        """Record a fact learnt after the span opened."""
        if self.attributes:
            self.attributes[name] = value
        else:
            self.attributes = {name: value}

    def add_event(self, name, detail=None, attrs=None):
        """Record a point event (e.g. ``("sql", "SELECT ...", {...})``)."""
        event = (name, detail, dict(attrs or {}))
        if self.events:
            self.events.append(event)
        else:
            self.events = [event]

    # -- reading ----------------------------------------------------------------

    def iter_spans(self):
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            for span in child.iter_spans():
                yield span

    def find(self, name=None, kind=None):
        """First descendant (or self) matching ``name`` and/or ``kind``."""
        for span in self.iter_spans():
            if name is not None and span.name != name:
                continue
            if kind is not None and span.kind != kind:
                continue
            return span
        return None

    def find_all(self, name=None, kind=None):
        """Every matching span, preorder."""
        out = []
        for span in self.iter_spans():
            if name is not None and span.name != name:
                continue
            if kind is not None and span.kind != kind:
                continue
            out.append(span)
        return out

    def sql_statements(self):
        """Every SQL text recorded in this subtree, in trace order.

        Collects both ``sql`` events (statements a source actually
        received) and ``sql`` attributes (the text an ``rQ`` operator
        span carries), deduplicated while preserving order.
        """
        seen = []
        for span in self.iter_spans():
            sql = span.attributes.get("sql")
            if sql is not None and sql not in seen:
                seen.append(sql)
            for name, detail, __ in span.events:
                if name == "sql" and detail is not None and detail not in seen:
                    seen.append(detail)
        return seen

    def total_counter(self, counter):
        """Sum of ``counter`` over this subtree."""
        return sum(s.counters.get(counter, 0) for s in self.iter_spans())

    # -- export -----------------------------------------------------------------

    def to_dict(self, mask_times=False):
        """A JSON-serializable dict of the subtree.

        ``mask_times=True`` replaces elapsed times with ``None`` so the
        output is byte-stable across runs (golden tests).
        """
        return {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "calls": self.calls,
            "elapsed_ms": None if mask_times else round(self.elapsed * 1e3, 3),
            "attributes": dict(self.attributes),
            "counters": dict(self.counters),
            "events": [
                {"name": n, "detail": d, "attributes": a}
                for n, d, a in self.events
            ],
            "children": [c.to_dict(mask_times=mask_times) for c in self.children],
        }

    def render(self, mask_times=False):
        """An indented text rendering of the subtree."""
        lines = []
        self._render(lines, 0, mask_times)
        return "\n".join(lines)

    def _render(self, lines, depth, mask_times):
        pad = "  " * depth
        bits = ["{}{} [{}]".format(pad, self.name, self.kind)]
        if self.calls > 1:
            bits.append("calls={}".format(self.calls))
        if not mask_times:
            bits.append("time={:.3f}ms".format(self.elapsed * 1e3))
        for key in sorted(self.counters):
            bits.append("{}={}".format(key, self.counters[key]))
        lines.append(" ".join(bits))
        for name, detail, __ in self.events:
            lines.append("{}  * {}: {}".format(pad, name, detail))
        for child in self.children:
            child._render(lines, depth + 1, mask_times)

    def __repr__(self):
        return "Span({}, {}, {} children)".format(
            self.name, self.kind, len(self.children)
        )
