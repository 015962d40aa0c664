"""Cardinality estimates for XMAS plans (`est=` in EXPLAIN ANALYZE).

Estimated tuple counts per plan operator, keyed by the same stable node
tokens the :class:`~repro.obs.instrument.Instrument` uses for actuals —
so ``repro.obs.explain`` can print ``est=… act=…`` side by side and
misestimates become visible at a glance.

Estimates *originate* at ``rQ`` leaves: the pushed SQL is re-parsed and
costed against the source database's statistics
(:func:`repro.optimizer.cost.estimate_select`), which requires fresh
``ANALYZE`` statistics on every referenced table.  They then propagate
up the mediator spine with simple per-operator rules (selections scale,
joins multiply, group-bys shrink).  A node whose inputs carry no
estimate carries none either — in particular, a never-analyzed source
yields an empty map and EXPLAIN output identical to the pre-optimizer
format, which is what keeps the seed goldens byte-stable.
"""

from __future__ import annotations

from repro.algebra import operators as ops
from repro.obs.tokens import node_token
from repro.optimizer.selectivity import default_selectivity

#: Fraction of input tuples estimated to survive a semijoin probe.
SEMIJOIN_FRACTION = 0.75
#: Estimated groups per input tuple for gBy (distinct-group heuristic).
GROUP_FRACTION = 0.75


def estimate_plan(plan, catalog):
    """``{node_token: estimated_rows}`` for the estimable part of
    ``plan``.  Empty when no source statistics back any leaf."""
    estimates = {}
    _estimate(plan, catalog, estimates)
    return estimates


def _estimate(node, catalog, estimates):
    """Post-order estimate of ``node``; records and returns it
    (``None`` when not estimable)."""
    child_ests = [
        _estimate(child, catalog, estimates) for child in node.children
    ]
    if isinstance(node, ops.Apply):
        # The nested plan runs per group; estimate it for its own
        # annotations but the apply's output follows its input.
        _estimate(node.plan, catalog, estimates)
    est = _node_estimate(node, catalog, child_ests)
    if est is not None:
        est = max(0, int(round(est)))
        estimates[node_token(node)] = est
    return est


def _node_estimate(node, catalog, child_ests):
    if isinstance(node, ops.RelQuery):
        return _relquery_estimate(node, catalog)
    if isinstance(node, ops.Select):
        if child_ests and child_ests[0] is not None:
            return child_ests[0] * default_selectivity(node.condition.op)
        return None
    if isinstance(node, (ops.Join, ops.SemiJoin)):
        return _join_estimate(node, child_ests)
    if isinstance(node, ops.GroupBy):
        if child_ests and child_ests[0] is not None:
            return max(1.0, child_ests[0] * GROUP_FRACTION)
        return None
    if isinstance(
        node, (ops.CrElt, ops.Cat, ops.TD, ops.OrderBy, ops.Apply,
               ops.Project)
    ):
        # One output tuple per input tuple: pass the input through.
        return child_ests[0] if child_ests else None
    return None


def _join_estimate(node, child_ests):
    if len(child_ests) != 2 or None in child_ests:
        return None
    left, right = child_ests
    if isinstance(node, ops.SemiJoin):
        kept = left if node.keep == "left" else right
        return kept * SEMIJOIN_FRACTION
    estimate = left * right
    for condition in node.conditions:
        if condition.op == "=" and condition.is_var_var():
            # Key/value equijoin: the classic 1/max(|l|, |r|) — the
            # per-column NDV already shaped the rQ estimates below.
            estimate *= 1.0 / max(left, right, 1.0)
        else:
            estimate *= default_selectivity(condition.op)
    return estimate


def _relquery_estimate(node, catalog):
    try:
        source = catalog.server(node.server)
    except Exception:
        return None
    return source.estimate_sql(node.display_sql)
