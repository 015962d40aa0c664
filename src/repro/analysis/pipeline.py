"""Per-stage pipeline verification: translate → rewrites → SQL split.

The mediator's one compile path (``Mediator._compile``) records the
output of every stage and hands the list to :func:`verify_stages`, which
runs the plan verifier on each:

* ``translate`` — the plan after translation, view expansion and (for
  an in-place query) composition,
* one stage per Table-2 rewrite step, named after the rule that fired
  (so a rewrite that breaks schema flow is reported with the offending
  rule named),
* ``sql-split`` — the executable plan after relational push-down
  (cost-based SQL refinements included when the mediator's cost
  optimizer is on).

The result is a :class:`PipelineReport`; ``report.ok`` / ``raise_if_failed``
give the pass/fail view and ``report.stage_count`` feeds the EXPLAIN
``verified: <n> stages`` footer.  Every mediator raises from the
``translate`` stage of each compile and ``Mediator(strict=True)`` from
all of them; ``Mediator.verify_query`` returns the report of a compile
outside the plan cache.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.analysis.verifier import raise_on_errors, verify_plan


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
            raise_on_errors(stage.diagnostics, stage.name, stage.rule)
        return self

    def __repr__(self):
        return "PipelineReport({} stages, {})".format(
            self.stage_count, "ok" if self.ok else "FAILED"
        )


def verify_stages(query, stages, catalog):
    """Verify the ``(name, plan, rule)`` stages a compile recorded;
    returns a :class:`PipelineReport`."""
    return PipelineReport(query, [
        StageReport(
            name, plan, verify_plan(plan, catalog=catalog, stage=name), rule
        )
        for name, plan, rule in stages
    ])

