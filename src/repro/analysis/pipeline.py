"""Per-stage pipeline verification: translate → rewrites → SQL split.

:func:`verify_query_pipeline` recompiles a query through a mediator's
own pipeline — outside the plan cache, leaving the mediator's state
untouched — and runs the plan verifier on the output of *every* stage:

* ``translate`` — the composed plan after translation and view
  expansion,
* one stage per Table-2 rewrite step, named after the rule that fired
  (so a rewrite that breaks schema flow fails fast with the offending
  rule named),
* ``sql-split`` — the executable plan after relational push-down
  (cost-based SQL refinements included when the mediator's cost
  optimizer is on).

The result is a :class:`PipelineReport`; ``report.ok`` / ``raise_if_failed``
give the pass/fail view and ``report.stage_count`` feeds the EXPLAIN
``verified: <n> stages`` footer.  ``Mediator(strict=True)`` performs the
same checks inline while compiling (see :meth:`repro.qdom.Mediator.prepare`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.analysis.verifier import verify_plan
from repro.errors import PlanVerificationError
from repro.rewriter import push_to_sources


class StageReport:
    """One pipeline stage: its name, output plan, and findings.

    ``rule`` is the rewrite rule that produced this stage's plan (the
    provenance key of rewrite stages), ``None`` for the non-rewrite
    stages (``translate``, ``sql-split``).
    """

    __slots__ = ("name", "plan", "diagnostics", "rule")

    def __init__(self, name, plan, diagnostics, rule=None):
        self.name = name
        self.plan = plan
        self.diagnostics = list(diagnostics)
        self.rule = rule

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)

    def __repr__(self):
        return "StageReport({}: {})".format(
            self.name, "ok" if self.ok else "FAILED"
        )


class PipelineReport:
    """The verifier's verdict over a whole compilation pipeline."""

    __slots__ = ("query", "stages")

    def __init__(self, query, stages):
        self.query = query
        self.stages = list(stages)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def ok(self) -> bool:
        return all(stage.ok for stage in self.stages)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        out = []
        for stage in self.stages:
            out.extend(stage.diagnostics)
        return out

    @property
    def failed_stage(self) -> Optional[str]:
        for stage in self.stages:
            if not stage.ok:
                return stage.name
        return None

    def raise_if_failed(self):
        """Raise :class:`PlanVerificationError` on the first bad stage."""
        for stage in self.stages:
            if not stage.ok:
                first = next(
                    d for d in stage.diagnostics if d.is_error
                )
                raise PlanVerificationError(
                    "plan verification failed after stage {!r}:"
                    " {} {}".format(stage.name, first.code, first.message),
                    diagnostics=stage.diagnostics,
                    stage=stage.name,
                    rule=stage.rule,
                )
        return self

    def __repr__(self):
        return "PipelineReport({} stages, {})".format(
            self.stage_count, "ok" if self.ok else "FAILED"
        )


def verify_query_pipeline(mediator, query_text, source=None):
    """Compile ``query_text`` through ``mediator``'s pipeline, verifying
    after every stage; returns a :class:`PipelineReport`.

    The compilation happens outside the mediator's plan cache and does
    not consume a view id, so calling this never perturbs the mediator
    (EXPLAIN relies on that to keep its golden output stable).
    """
    plan = mediator.translate(query_text, assign_root=False)
    plan = mediator._expand_views(plan)
    catalog = mediator.catalog
    stages = [
        StageReport(
            "translate",
            plan,
            verify_plan(
                plan, catalog=catalog, stage="translate", source=source
            ),
        )
    ]
    if mediator.optimize:
        trace = []
        plan = mediator._rewriter.rewrite(plan, trace=trace)
        for step in trace:
            stage_name = "rewrite[{}]".format(step.rule_name)
            stages.append(
                StageReport(
                    stage_name,
                    step.plan,
                    verify_plan(
                        step.plan, catalog=catalog, stage=stage_name,
                        source=source,
                    ),
                    rule=step.rule_name,
                )
            )
    if mediator.push_sql:
        plan = push_to_sources(
            plan, catalog, cost=mediator.cost_optimizer
        )
        stages.append(
            StageReport(
                "sql-split",
                plan,
                verify_plan(
                    plan, catalog=catalog, stage="sql-split",
                    source=source,
                ),
            )
        )
    return PipelineReport(query_text, stages)
