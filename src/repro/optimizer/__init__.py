"""Statistics-driven cost-based optimization (``ANALYZE`` + cost model).

The seed planner was entirely syntactic: join order followed FROM-clause
connectivity, the hash-join build side was always the newly joined
alias, and the SQL split never looked at data sizes.  This package adds
the statistics layer the DESIGN calls for:

* :mod:`repro.optimizer.statistics` — ``ANALYZE`` collection: row
  counts, per-column NDV / min / max / null fraction / equi-width
  histograms, staled by the tables' ``(epoch, version)`` write counters;
* :mod:`repro.optimizer.selectivity` — selectivity estimation for the
  executor's predicate forms (equality, ranges, conjunctions,
  equijoins), with System-R defaults when statistics are missing or
  stale;
* :mod:`repro.optimizer.cost` — the cost model behind the executor's
  join ordering, build/probe-side choice, index-vs-scan decision, and
  the choice between sorting and an order-preserving plan;
* :mod:`repro.optimizer.planview` — mediator-level cardinality
  estimates for XMAS plans, rendered as ``est=… act=…`` by
  ``EXPLAIN ANALYZE``.

Statistics only steer plan choices — never results.  ``ANALYZE`` is
plain DDL (``db.run("ANALYZE")``), and both the relational executor
(``Database(optimizer=False)``) and the mediator
(``Mediator(cost_optimizer=False)``, CLI ``--no-optimizer``) can fall
back to the seed's deterministic syntactic planning.
"""

from repro.optimizer.statistics import (
    ColumnStatistics,
    Histogram,
    TableStatistics,
    collect_table_statistics,
    fresh_statistics,
)
from repro.optimizer.selectivity import (
    conjunction_selectivity,
    default_selectivity,
    equijoin_selectivity,
    predicate_selectivity,
)
from repro.optimizer.cost import (
    JoinStep,
    LookupStep,
    OrderedPlan,
    SelectPlanner,
    estimate_select,
)
from repro.optimizer.planview import estimate_plan

__all__ = [
    "ColumnStatistics",
    "Histogram",
    "TableStatistics",
    "collect_table_statistics",
    "fresh_statistics",
    "conjunction_selectivity",
    "default_selectivity",
    "equijoin_selectivity",
    "predicate_selectivity",
    "JoinStep",
    "LookupStep",
    "OrderedPlan",
    "SelectPlanner",
    "estimate_select",
    "estimate_plan",
]
