"""Evaluation engines for XMAS plans.

Two engines share the same operator semantics:

* :mod:`repro.engine.eager` — full materialization.  The reference
  implementation and the baseline that the paper argues against
  ("other XML mediator systems ... compute and return the full result").
* :mod:`repro.engine.lazy` — navigation-driven evaluation (Section 4).
  Every operator is a *lazy mediator*: it produces its output tuple
  stream only as far as navigation commands demand, pulling from the
  operators (and ultimately the source cursors) below it.  The presorted
  stateless group-by of Table 1 lives in :mod:`repro.engine.gby`.

The lazy engine exposes results as a virtual tree
(:mod:`repro.engine.vtree`) whose nodes carry the provenance information
(variable + skolem ids) that decontextualization (Section 5) decodes.
The same :class:`VNode` navigates one operator's Fig.-5 binding table
(:mod:`repro.engine.table_nav`, Section 4's per-operator interface).
"""

from repro.engine.eager import EagerEngine, evaluate_eager
from repro.engine.lazy import LazyEngine
from repro.engine.table_nav import OperatorTable
from repro.engine.vtree import VNode, Provenance

__all__ = [
    "EagerEngine",
    "LazyEngine",
    "OperatorTable",
    "Provenance",
    "VNode",
    "evaluate_eager",
]
