"""Static analysis over XMAS plans and XQuery text (``repro.analysis``).

Three passes:

* the **plan verifier** (:func:`verify_plan`, :func:`assert_plan_verifies`)
  follows the binding-list schema each XMAS operator declares
  (:func:`repro.algebra.plan.defined_vars`) through a plan and checks
  the dataflow invariants of Section 5;
* the **pipeline verifier** (``Mediator.verify_query``) runs the plan
  verifier on every stage the mediator's own compile recorded —
  translate, each Table-2 rewrite step, SQL split — naming the stage
  that broke schema flow;
* the **XQuery linter** (:func:`lint_query`) checks query text against
  the schemas the relational wrapper catalog exports: dead paths,
  unsatisfiable predicates, unused variables, each finding carrying
  source line/column spans.

All passes report through the shared :class:`Diagnostic` framework with
stable codes (``MIX-E001``..., ``MIX-W001``...), rendered as compiler-style
text or JSON.  The CLI surfaces them as ``python -m repro lint`` and
``python -m repro check-plan``; every mediator raises from the
verifier's report on the translate stage of each compile, and
``Mediator(strict=True)`` on every stage.
"""

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    ERROR,
    INFO,
    Span,
    WARNING,
    has_errors,
    render_json,
    render_text,
    sort_diagnostics,
)
from repro.analysis.linter import (
    DocumentSchema,
    catalog_schemas,
    lint_query,
)
from repro.analysis.pipeline import (
    PipelineReport,
    StageReport,
)
from repro.analysis.verifier import (
    assert_plan_verifies,
    verify_plan,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "DocumentSchema",
    "ERROR",
    "INFO",
    "PipelineReport",
    "RuleCheckReport",
    "RuleReport",
    "Span",
    "StageReport",
    "WARNING",
    "assert_plan_verifies",
    "catalog_schemas",
    "certify_rules",
    "generate_corpus",
    "has_errors",
    "lint_query",
    "render_json",
    "render_text",
    "sort_diagnostics",
    "verify_plan",
]


def __getattr__(name):
    # The certifier loads on first use: every mediator imports this
    # package for the verifier, and only check-rules and strict
    # mediators with extension rules need the certifier's memory.
    if name in ("RuleCheckReport", "RuleReport", "certify_rules",
                "generate_corpus"):
        from repro.analysis import rulecheck

        return getattr(rulecheck, name)
    raise AttributeError("no attribute {!r} in repro.analysis".format(name))
