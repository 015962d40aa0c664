"""The instrumentation bus: counters, timers, and spans.

One :class:`Instrument` replaces the seed's ``StatsRegistry``/``Profiler``
pair.  Everything the stack wants to report goes through it:

* **counters/timers** — the registry interface the sources, the
  relational engine, and the benchmarks already speak (``incr``,
  ``get``, ``snapshot``, ``diff``, ``timer``, ``elapsed``);
* **spans** — the causal trace: a *command span* (one per QDOM
  navigation or query) is the root; *operator spans* (merged per plan
  node) nest under whatever was running when the operator pulled and
  carry the tuples their node produced; SQL events land on the span
  that caused them.  The trace is the only record of operator work:
  ``EXPLAIN ANALYZE`` sums its per-node numbers from it.

Counter increments made while a span is active are additionally
attributed to that span, which is what lets a trace answer "which
navigation command caused which source work".

The counter names live in :mod:`repro.stats`.

**Thread model.**  One instrument may be shared by many server threads
(:mod:`repro.server` multiplexes hundreds of sessions over one
mediator), so counters and timers are updated under a lock — concurrent
increments never lose counts.  The span *stack* is thread-local: each
thread nests its own command/operator spans, and completed root traces
from every thread land on the shared (bounded) trace ring.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

from repro.obs.span import Span

#: Root traces retained per instrument (older ones are evicted): about
#: three ``deep_walk`` sessions of served requests.  Nothing in the
#: mediator reads more than :meth:`Instrument.last_trace`.
TRACE_CAPACITY = 32


class Instrument:
    """A named bag of counters/timers plus a span-based tracer."""

    def __init__(self, trace_capacity=TRACE_CAPACITY):
        self._counters = {}
        self._timers = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traces = deque(maxlen=trace_capacity)
        self._span_ids = itertools.count(1)

    @property
    def _stack(self):
        """This thread's span stack (each thread nests independently)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- counters and timers ----------------------------------------------------------

    def incr(self, name, amount=1):
        """Increase counter ``name`` by ``amount`` (default 1).

        The increment is also attributed to the currently active span,
        if any.
        """
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount
        stack = self._stack
        if stack:
            stack[-1].bump(name, amount)

    def get(self, name):
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def reset(self):
        """Zero every counter and timer, and drop every recorded trace.

        Only the calling thread's span stack is cleared; other threads'
        in-flight spans keep nesting correctly.
        """
        with self._lock:
            self._counters.clear()
            self._timers.clear()
        del self._stack[:]
        self._traces.clear()

    def timer(self, name):
        """Context manager accumulating wall-clock seconds under ``name``."""
        return _Timer(self, name)

    def elapsed(self, name):
        """Total seconds accumulated by :meth:`timer` under ``name``."""
        return self._timers.get(name, 0.0)

    def snapshot(self):
        """An immutable copy of all counters (timers under ``time:<name>``)."""
        with self._lock:
            merged = dict(self._counters)
            for name, secs in self._timers.items():
                merged["time:" + name] = secs
        return merged

    def diff(self, before):
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        now = self.snapshot()
        keys = set(now) | set(before)
        return {k: now.get(k, 0) - before.get(k, 0) for k in keys}

    # -- spans ------------------------------------------------------------------------

    @property
    def current_span(self):
        """The innermost active span, or ``None`` outside any trace."""
        return self._stack[-1] if self._stack else None

    def _fresh_span(self, name, kind, attrs):
        return Span(
            "s{}".format(next(self._span_ids)), name, kind, attrs
        )

    def command_span(self, name, kind="navigation", **attrs):
        """One span per occurrence — QDOM commands and query stages.

        When no trace is active, the span becomes the root of a new
        trace, recorded under :meth:`traces` on completion.  Like
        :meth:`operator_span`, the returned context is a plain class
        (one opens per served request and per QDOM command), to be
        entered right away.
        """
        stack = self._stack
        span = self._fresh_span(name, kind, attrs)
        if stack:
            stack[-1].add_child(span)
            return _Entered(stack, span)
        return _Root(stack, span, self._traces)

    def operator_span(self, name, key=None, kind="operator", **attrs):
        """A merged child span under the current span (``None`` outside
        a trace, where nothing is recorded).

        Repeated entries with the same ``key`` (under the same parent)
        accumulate into a single span — a lazy operator pulled 40 times
        by one navigation is one span with ``calls=40``.  The engines
        key on the plan node's token and add the tuples the node
        produced to the span's ``rows``.

        The engines open one per pulled block, so the returned context
        is a plain class rather than a generator; it is meant to be
        entered right away, as in ``with obs.operator_span(...)``.
        """
        stack = self._stack
        if not stack:
            return NULL_SPAN
        parent = stack[-1]
        span = parent._merged.get(key or name)
        if span is None:
            span = parent.merged_child(
                key or name, lambda: self._fresh_span(name, kind, attrs)
            )
        return _Entered(stack, span)

    def event(self, name, detail=None, **attrs):
        """Record a point event on the active span (no-op outside one)."""
        if self._stack:
            self._stack[-1].add_event(name, detail, attrs)

    # -- trace access -----------------------------------------------------------------

    def traces(self):
        """Completed root spans, oldest first (bounded ring)."""
        return list(self._traces)

    def last_trace(self):
        """The most recently completed root span, or ``None``."""
        return self._traces[-1] if self._traces else None

    def clear_traces(self):
        """Drop recorded traces, keeping counters and timers."""
        self._traces.clear()

    def __repr__(self):
        parts = ", ".join(
            "{}={}".format(k, v) for k, v in sorted(self.snapshot().items())
        )
        return "Instrument({})".format(parts)


class _Entered:
    """The context of one entry into a merged span: pushed on the
    thread's stack for the block, its time added on the way out."""

    __slots__ = ("_stack", "_span", "_start")

    def __init__(self, stack, span):
        self._stack = stack
        self._span = span

    def __enter__(self):
        span = self._span
        self._stack.append(span)
        span.calls += 1
        self._start = time.perf_counter()
        return span

    def __exit__(self, *exc):
        self._span.elapsed += time.perf_counter() - self._start
        self._stack.pop()
        return False


class _Root(_Entered):
    """The context of a root command span: on the way out, the span
    joins the trace ring."""

    __slots__ = ("_traces",)

    def __init__(self, stack, span, traces):
        _Entered.__init__(self, stack, span)
        self._traces = traces

    def __exit__(self, *exc):
        _Entered.__exit__(self, *exc)
        self._traces.append(self._span)
        return False


class _Timer:
    """The context of one :meth:`Instrument.timer` block."""

    __slots__ = ("_instrument", "_name", "_start")

    def __init__(self, instrument, name):
        self._instrument = instrument
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        instrument, name = self._instrument, self._name
        with instrument._lock:
            timers = instrument._timers
            timers[name] = timers.get(name, 0.0) + elapsed
        return False


class _NullSpan:
    """A span context that records nothing and yields ``None``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


#: The context of an operator span outside any trace, and of a command
#: on a node without an instrument.
NULL_SPAN = _NullSpan()
