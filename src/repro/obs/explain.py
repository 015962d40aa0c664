"""``EXPLAIN ANALYZE`` for XMAS plans, over the instrumentation bus.

:func:`render_explain` prints a plan in the paper's figure style with the
per-node numbers of one evaluation's trace — tuples produced and
cumulative wall time, summed over the operator spans keyed on each
node's token — and the exact SQL an ``rQ`` node ships.
:func:`explain_analyze` is the one-call version: translate, optimize,
evaluate (driving the lazy engine with a full navigation walk), and
render.

Times are wall-clock and therefore unstable; ``mask_times=True`` omits
them so the output is byte-identical across runs — that is what the
golden-trace tests snapshot to catch silent pushdown regressions.
"""

from __future__ import annotations

from repro.obs.instrument import Instrument
from repro.obs.tokens import node_token


def render_explain(plan, trace=None, mask_times=False, estimates=None):
    """The plan rendered with per-node tuple counts (and times).

    ``trace`` is the root :class:`~repro.obs.span.Span` the evaluation
    ran under; each node's numbers are the ``rows`` and ``elapsed`` of
    the operator spans keyed on its token, summed over the trace.
    Nodes that never ran show ``tuples=0``; with no trace at all the
    annotation is omitted entirely (plain ``EXPLAIN`` without
    ``ANALYZE``).  ``estimates`` — the optimizer's ``{node_token:
    rows}`` map (:func:`repro.optimizer.planview.estimate_plan`) —
    switches an estimated node's annotation to ``est=… act=…`` so
    misestimates sit next to their actuals; nodes without an estimate
    (and every node when the map is empty, e.g. on a never-analyzed
    source) keep the plain ``tuples=`` form.
    """
    totals = None
    if trace is not None:
        totals = {}
        for span in trace.iter_spans():
            rows, secs = totals.get(span.key, (0, 0.0))
            totals[span.key] = (rows + span.rows, secs + span.elapsed)
    lines = []
    _render(plan, 0, lines, totals, mask_times, estimates or {})
    return "\n".join(lines)


def _render(node, depth, lines, totals, mask_times, estimates):
    from repro.algebra import operators as ops
    from repro.algebra.printer import render_operator

    pad = "  " * depth
    line = pad + render_operator(node)
    if totals is not None:
        token = node_token(node)
        rows, secs = totals.get(token, (0, 0.0))
        if token in estimates:
            line += "   [est={} act={}".format(estimates[token], rows)
        else:
            line += "   [tuples={}".format(rows)
        if not mask_times:
            line += " time={:.3f}ms".format(secs * 1e3)
        line += "]"
    lines.append(line)
    if isinstance(node, ops.RelQuery):
        lines.append("{}    sql: {}".format(pad, node.display_sql))
    if isinstance(node, ops.Apply):
        lines.append(pad + "  p:")
        _render(node.plan, depth + 2, lines, totals, mask_times, estimates)
    for child in node.children:
        _render(child, depth + 1, lines, totals, mask_times, estimates)


def explain_analyze(mediator, query_text, mask_times=False):
    """Run ``query_text`` through the mediator pipeline and explain it.

    The plan goes through the mediator's own translate/optimize/push
    stages, then is evaluated under one ``explain`` span on a dedicated
    :class:`Instrument` (so the numbers reflect exactly this query).
    The lazy engine is driven by a full navigation walk — the counts
    therefore show what a client walking the whole result would cost.  Returns the rendered text.
    """
    text, __, __ = explain_analyze_with_trace(
        mediator, query_text, mask_times=mask_times
    )
    return text


def explain_analyze_with_trace(mediator, query_text, mask_times=False):
    """Like :func:`explain_analyze` but returns ``(text, trace, plan)``.

    ``trace`` is the root :class:`~repro.obs.span.Span` of the
    evaluation, ready for :func:`repro.obs.export.trace_to_json`.  The
    footer is one record of ``(kind, body, source)`` entries: the totals
    line, then ``block`` (width > 1 only), ``rewrite`` per fired rule,
    ``plan_cache``, ``verified`` and one ``cache``/``shard``/
    ``resilience`` line per reporting source.  Each entry after the
    totals is also a trace event on the root span with the same kind,
    body and ``source`` attribute.
    """
    from repro.engine.vtree import VNode, walk_fully

    instrument = Instrument()
    # Through the mediator's own prepare stage, so the plan cache is
    # consulted exactly as a client query would (and the footer can
    # say whether compilation was skipped); the fired rules are read
    # from the plan it returned, whatever other sessions compile.
    view, plan_status, __ = mediator._prepare(query_text)
    exec_plan = view.exec_plan()
    verify_report = mediator.verify_query(query_text)
    before = {
        (kind, name): health
        for kind, __, name, health in _source_health(mediator.catalog)
    }
    block_size = mediator.block_size
    # Sources count shipped blocks on the mediator's instrument.
    blocks_before = mediator.stats.get("blocks_shipped")
    with instrument.command_span(
        "explain", kind="explain", query=_clip(query_text)
    ) as trace:
        # Full width (no demand): the counts are those of a client
        # walking the whole result, not of earlier sessions' habits.
        root = mediator._evaluate(exec_plan, stats=instrument)
        if mediator.lazy:
            walk_fully(
                VNode.root(root, obs=instrument, prefetch=block_size)
            )
        record = [("totals", "tuples={} rq_statements={}".format(
            instrument.get("operator_tuples"),
            instrument.get("rq_statements"),
        ), None)]
        if block_size > 1:
            # At width 1 the seed's goldens stay byte-identical.
            record.append(("block", "size={} blocks_shipped={} "
                           "prefetch_hits={}".format(
                               block_size,
                               mediator.stats.get("blocks_shipped")
                               - blocks_before,
                               instrument.get("prefetch_hits"),
                           ), None))
        for name, count in _rule_steps(view.prepared.rewrite_rules):
            record.append(
                ("rewrite", "rule={} steps={}".format(name, count), None)
            )
        record.append(("plan_cache", plan_status, None))
        record.append(("verified", _verify_summary(verify_report), None))
        for kind, fields, name, health in _source_health(mediator.catalog):
            pre = before.get((kind, name), {})
            record.append((kind, " ".join(
                "{}={}".format(field, _field(field, pre, health))
                for field in fields
            ), name))
        for kind, body, source in record[1:]:
            instrument.event(kind, body, source=source)
    estimates = {}
    if mediator.cost_optimizer:
        from repro.optimizer.planview import estimate_plan

        estimates = estimate_plan(exec_plan, mediator.catalog)
    text = render_explain(
        exec_plan, trace, mask_times=mask_times, estimates=estimates
    )
    footer = "\n".join(_footer_line(*entry) for entry in record)
    return text + "\n" + footer, trace, exec_plan


def _footer_line(kind, body, source):
    if kind == "totals":
        return "-- " + body
    if source is not None:
        kind = "{}[{}]".format(kind, source)
    return "-- {}: {}".format(kind, body)


def _rule_steps(rewrite_rules):
    """``(rule_name, fire_count)`` pairs in first-fired order."""
    counts = {}
    for name in rewrite_rules:
        counts[name] = counts.get(name, 0) + 1
    return list(counts.items())


def _verify_summary(report):
    """``<n> stages`` or a failure naming the first broken stage."""
    if report.ok:
        return "{} stages".format(report.stage_count)
    first = next(d for d in report.diagnostics if d.is_error)
    return "FAILED at {} ({})".format(report.failed_stage, first.code)


#: One footer line per source whose ``health()`` reports the kind:
#: ``(kind, fields)``, in footer order.
_SOURCE_FOOTERS = (
    ("cache", (
        "hits", "misses", "evictions", "invalidations",
        "tuples_shipped", "tuples_from_cache",
    )),
    ("shard", ("shards", "scattered", "pruned", "failed")),
    ("resilience", (
        "retries", "timeouts", "failures", "circuit_rejections",
        "breaker", "transitions",
    )),
)


def _source_health(catalog):
    """``(kind, fields, source name, health)`` for every kind a source's
    ``health()`` reports, kind by kind in :data:`_SOURCE_FOOTERS` order,
    then source by source."""
    reports = [source.health() for source in catalog.sources()]
    return [
        (kind, fields, report[kind]["source"], report[kind])
        for kind, fields in _SOURCE_FOOTERS
        for report in reports
        if kind in report
    ]


def _field(field, pre, post):
    """A footer field over one evaluation: ``shards`` and ``breaker``
    are current state, ``transitions`` the breaker transitions it added,
    and every other field the counter's change."""
    if field in ("shards", "breaker"):
        return post[field]
    if field == "transitions":
        seen = len(pre.get("breaker_transitions", ()))
        return ",".join(post["breaker_transitions"][seen:]) or "-"
    return post[field] - pre.get(field, 0)


def _clip(text, limit=160):
    return " ".join(str(text).split())[:limit]
