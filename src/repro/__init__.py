"""repro — a reproduction of "Mixing Querying and Navigation in MIX"
(Mukhopadhyay & Papakonstantinou, ICDE 2002).

The package implements the full MIX mediator stack described in the
paper, from scratch:

* :mod:`repro.xmltree` — the labeled-ordered-tree XML data model;
* :mod:`repro.relational` — a pipelined relational database engine with
  a SQL subset and cursors (the source substrate);
* :mod:`repro.sources` — wrappers exporting sources as XML documents;
* :mod:`repro.xquery` — the XQuery subset of the paper's Fig. 4;
* :mod:`repro.algebra` — the XMAS algebra, the XQuery→XMAS translator,
  and the paper-style plan printer;
* :mod:`repro.engine` — the eager reference evaluator and the
  navigation-driven lazy engine (Section 4, Table 1);
* :mod:`repro.composer` — query composition and decontextualization
  (Sections 5-6);
* :mod:`repro.rewriter` — the Table-2 rewriting optimizer and the
  SQL push-down split (Fig. 22);
* :mod:`repro.qdom` — the QDOM client API and the mediator itself;
* :mod:`repro.obs` — the observability layer: one instrumentation bus
  carrying counters, per-operator metrics, and navigation-level traces
  (``EXPLAIN ANALYZE``, JSON trace export);
* :mod:`repro.resilience` — the fault-tolerant source layer:
  deterministic fault injection, retry/timeout/circuit-breaker policies
  (:class:`~repro.resilience.ResilientSource`), and partial-result
  degradation via ``<mix:error>`` stubs;
* :mod:`repro.cache` — the multi-level query cache: compiled-plan
  cache, pushed-SQL result cache, and navigation memo, all bounded LRU
  with exact version-based invalidation (``Mediator(cache=True)``).

Quickstart::

    from repro import Mediator, Database, RelationalWrapper

    db = Database("shop")
    db.run("CREATE TABLE customer (id TEXT, name TEXT, PRIMARY KEY (id))")
    db.run("INSERT INTO customer VALUES ('XYZ', 'XYZ Inc.')")

    mediator = Mediator()
    mediator.add_source(
        RelationalWrapper(db).register_document("root1", "customer")
    )
    root = mediator.query(
        "FOR $C IN document(root1)/customer RETURN <Rec> $C </Rec>"
    )
    rec = root.d()        # navigation drives evaluation
    print(rec.fl())       # 'Rec'
"""

from repro.errors import (
    CircuitOpenError,
    CompositionError,
    EvaluationError,
    MixError,
    NavigationError,
    ParseError,
    PlanError,
    RewriteError,
    SourceError,
    SourceTimeoutError,
    SqlError,
    TransientSourceError,
    TranslationError,
    UnknownSourceError,
    XQueryParseError,
)
from repro.obs import (
    Instrument,
    Span,
    explain_analyze,
    render_explain,
    trace_to_dict,
    trace_to_json,
)
from repro.relational import Database
from repro.sources import RelationalWrapper, SourceCatalog, XmlFileSource
from repro.xquery import parse_xquery
from repro.algebra.translator import Translator, translate_query
from repro.algebra.printer import render_plan
from repro.engine import EagerEngine, LazyEngine
from repro.composer import compose_at_root, decontextualize
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingSource,
    ManualClock,
    ResilientSource,
    RetryPolicy,
    Timeout,
)
from repro.rewriter import Rewriter, push_to_sources
from repro.cache import CacheManager, LRUCache, SqlResultCache
from repro.qdom import Mediator, QdomNode

__version__ = "1.0.0"

__all__ = [
    "CacheManager",
    "CircuitBreaker",
    "CircuitOpenError",
    "CompositionError",
    "Database",
    "EagerEngine",
    "EvaluationError",
    "FaultInjectingSource",
    "Instrument",
    "LRUCache",
    "LazyEngine",
    "ManualClock",
    "Mediator",
    "MixError",
    "NavigationError",
    "ParseError",
    "PlanError",
    "QdomNode",
    "RelationalWrapper",
    "ResilientSource",
    "RetryPolicy",
    "RewriteError",
    "Rewriter",
    "SourceCatalog",
    "SourceError",
    "SourceTimeoutError",
    "Span",
    "SqlError",
    "SqlResultCache",
    "Timeout",
    "TransientSourceError",
    "TranslationError",
    "Translator",
    "UnknownSourceError",
    "XQueryParseError",
    "XmlFileSource",
    "compose_at_root",
    "decontextualize",
    "explain_analyze",
    "parse_xquery",
    "push_to_sources",
    "render_explain",
    "render_plan",
    "trace_to_dict",
    "trace_to_json",
    "translate_query",
]
