"""repro.obs — the unified observability layer.

One :class:`Instrument` is the single bus every layer reports to:

* the relational engine and the wrappers bump **counters** (SQL issued,
  tuples shipped, rows scanned), named in :mod:`repro.stats`;
* QDOM navigation commands open **spans**, operators nest merged child
  spans under them (keyed on stable :func:`node_token`\\ s, carrying
  the tuples each plan node produced), and SQL text lands as events —
  so a single ``d`` at the client yields a causal trace down to the
  exact SQL the relational source received, and ``EXPLAIN ANALYZE``
  reads its per-node numbers off that one trace.

Quick tour::

    from repro.obs import Instrument, trace_to_json

    inst = Instrument()
    db = Database("shop", stats=inst)          # counters flow in
    mediator = Mediator(stats=inst).add_source(wrapper)
    root = mediator.query(Q1)
    root.d()                                   # navigation opens a span
    print(trace_to_json(inst.last_trace()))    # d -> operators -> SQL

    print(mediator.explain(Q1))                # EXPLAIN ANALYZE text
"""

from repro.obs.instrument import Instrument, TRACE_CAPACITY
from repro.obs.span import Span
from repro.obs.tokens import node_token
from repro.obs.explain import (
    explain_analyze,
    explain_analyze_with_trace,
    render_explain,
)
from repro.obs.export import trace_to_dict, trace_to_json, traces_to_json

__all__ = [
    "Instrument",
    "Span",
    "TRACE_CAPACITY",
    "explain_analyze",
    "explain_analyze_with_trace",
    "node_token",
    "render_explain",
    "trace_to_dict",
    "trace_to_json",
    "traces_to_json",
]
