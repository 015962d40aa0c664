"""The diagnostics framework shared by the plan verifier and the linter.

A :class:`Diagnostic` is one finding: a stable code (``MIX-E001``,
``MIX-W003``, ...), a severity, a human message, and — when the finding
points into query text — a :class:`Span` with 1-based line/column
coordinates.  Codes are *stable*: tests, CI jobs, and editor tooling key
on them, so a code is never renamed or reused for a different invariant
(retired codes stay reserved).

The two renderers are the text form (one ``file:line:col: severity
CODE message`` line per finding, the familiar compiler shape) and a JSON
form for machine consumers (the CI lint job, editor integrations).
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from repro.xquery.ast import Span

#: Severity levels, ordered: an ``error`` invalidates a plan/query, a
#: ``warning`` flags code that runs but cannot mean what it says, an
#: ``info`` is advisory.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

#: The stable code registry: code -> (default severity, summary).
#: Codes MIX-E*** are plan-verifier invariants, MIX-W*** are linter
#: findings.  Never renumber; retired codes stay reserved.
CODES = {
    # -- plan verifier (schema dataflow over the 14 XMAS operators) ----
    "MIX-E001": (ERROR, "operator consumes a variable its input does not"
                        " bind"),
    "MIX-E002": (ERROR, "operator introduces a binding that already"
                        " exists (duplicate binding)"),
    "MIX-E003": (ERROR, "crElt/cat argument is not in scope"),
    "MIX-E004": (ERROR, "groupBy key is not part of the input schema"),
    "MIX-E005": (ERROR, "nestedSrc references a free context variable"),
    "MIX-E006": (ERROR, "tD exports a variable the plan does not bind"),
    "MIX-E007": (ERROR, "project/orderBy references a variable outside"
                        " the schema"),
    "MIX-E008": (ERROR, "rQ exports the same variable twice"),
    "MIX-E009": (ERROR, "plan references a source the catalog does not"
                        " know"),
    "MIX-E010": (ERROR, "join/semijoin condition references a variable"
                        " bound by neither input"),
    # MIX-E011 is retired (see RETIRED below).
    # -- rule certifier (repro.analysis.rulecheck) ---------------------
    "MIX-E012": (ERROR, "rewrite rule breaks its declared schema"
                        " contract (or diverges on answers)"),
    "MIX-E013": (ERROR, "rewrite rule set does not terminate (plan"
                        " fingerprint cycle or step divergence)"),
    # -- schema-aware XQuery linter ------------------------------------
    "MIX-W001": (WARNING, "dead path expression: the path can never"
                          " match the source schema"),
    "MIX-W002": (WARNING, "type-mismatched comparison can never be"
                          " true"),
    "MIX-W003": (WARNING, "unsatisfiable predicate (contradictory or"
                          " outside the analyzed value range)"),
    "MIX-W004": (WARNING, "FOR variable is bound but never used"),
    "MIX-W005": (WARNING, "query references an unknown document"),
    "MIX-W006": (WARNING, "comparison on a path that is not a leaf"
                          " (missing data()?)"),
    # -- rule certifier (repro.analysis.rulecheck) ---------------------
    "MIX-W007": (WARNING, "rewrite rule never fires on the certification"
                          " corpus (dead rule)"),
    "MIX-W008": (WARNING, "rewrite rule is shadowed by an earlier rule"
                          " at every site it matches"),
}

#: Retired codes: code -> why.  Kept out of :data:`CODES`, so a
#: :class:`Diagnostic` rejects them as unknown, and reserved here so no
#: new invariant ever reuses the number.
RETIRED = {
    "MIX-E011": "block pipeline vs tuple-at-a-time differential; the"
                " tuple-at-a-time engine is gone (width 1 is a one-tuple"
                " block)",
}


class Diagnostic:
    """One verifier/linter finding.

    Attributes:
        code: a stable registry code (``MIX-E001``...); unknown codes
            are rejected so typos cannot silently mint new ones.
        message: the specific human-readable finding.
        severity: ``error``/``warning``/``info``; defaults to the
            code's registered severity.
        span: source position, when the finding points into query text.
        stage: pipeline stage name for plan-verifier findings
            (``translate``, a rewrite rule name, ``sql-split``).
        source: logical name of what was analyzed (a query name, a
            file path) for multi-input reports.
    """

    __slots__ = ("code", "message", "severity", "span", "stage", "source")

    def __init__(self, code: str, message: str,
                 severity: Optional[str] = None,
                 span: Optional[Span] = None,
                 stage: Optional[str] = None,
                 source: Optional[str] = None) -> None:
        if code not in CODES:
            raise ValueError("unknown diagnostic code {!r}".format(code))
        if severity is None:
            severity = CODES[code][0]
        if severity not in _SEVERITY_ORDER:
            raise ValueError("unknown severity {!r}".format(severity))
        self.code = code
        self.message = message
        self.severity = severity
        self.span = span
        self.stage = stage
        self.source = source

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            out["span"] = self.span.to_dict()
        if self.stage is not None:
            out["stage"] = self.stage
        if self.source is not None:
            out["source"] = self.source
        return out

    def render(self) -> str:
        """The one-line text form: ``[source:]line:col: sev CODE msg``."""
        prefix = ""
        if self.source is not None:
            prefix += "{}:".format(self.source)
        if self.span is not None:
            prefix += "{}:{}:".format(self.span.line, self.span.column)
        if prefix:
            prefix += " "
        suffix = ""
        if self.stage is not None:
            suffix = " [stage: {}]".format(self.stage)
        return "{}{} {}: {}{}".format(
            prefix, self.severity, self.code, self.message, suffix
        )

    def __repr__(self) -> str:
        return "Diagnostic({})".format(self.render())


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable order: severity, then source position, then code."""

    def key(d: Diagnostic):
        span = d.span or Span(0, 0)
        return (_SEVERITY_ORDER[d.severity], span.line, span.column, d.code)

    return sorted(diagnostics, key=key)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """The multi-line text report (sorted; empty string when clean)."""
    return "\n".join(d.render() for d in sort_diagnostics(diagnostics))


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """A stable JSON report: ``{"diagnostics": [...], "errors": n}``."""
    items = [d.to_dict() for d in sort_diagnostics(diagnostics)]
    return json.dumps(
        {
            "diagnostics": items,
            "errors": sum(1 for d in items if d["severity"] == ERROR),
            "warnings": sum(
                1 for d in items if d["severity"] == WARNING
            ),
        },
        indent=2,
        sort_keys=True,
    )
