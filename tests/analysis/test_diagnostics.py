"""The diagnostics framework: codes, severities, renderers, ordering."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    CODES,
    Diagnostic,
    ERROR,
    Span,
    WARNING,
    has_errors,
    render_json,
    render_text,
    sort_diagnostics,
)
from repro.analysis.diagnostics import RETIRED


class TestCodeRegistry:
    def test_every_code_is_namespaced_and_typed(self):
        for code, (severity, summary) in CODES.items():
            assert code.startswith("MIX-")
            assert severity in (ERROR, WARNING)
            assert summary

    def test_verifier_codes_are_errors_linter_codes_warnings(self):
        for code, (severity, __) in CODES.items():
            if code.startswith("MIX-E"):
                assert severity == ERROR
            if code.startswith("MIX-W"):
                assert severity == WARNING

    def test_all_invariant_codes_present(self):
        # The stable registry: the checklist the seeded-defect corpus
        # keys on.  A missing code means a retired/renamed invariant.
        expected = {"MIX-E%03d" % i for i in range(1, 11)}
        expected |= {"MIX-W%03d" % i for i in range(1, 7)}
        assert expected <= set(CODES)

    def test_retired_codes_stay_reserved(self):
        # MIX-E011 (block vs tuple-at-a-time) left with the tuple engine:
        # it can never be emitted again, and never means anything else.
        assert "MIX-E011" in RETIRED
        assert not set(RETIRED) & set(CODES)
        with pytest.raises(ValueError):
            Diagnostic("MIX-E011", "x")


class TestDiagnostic:
    def test_severity_defaults_from_registry(self):
        assert Diagnostic("MIX-E001", "x").severity == ERROR
        assert Diagnostic("MIX-W001", "x").severity == WARNING

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("MIX-E999", "typo-minted code")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("MIX-E001", "x", severity="fatal")

    def test_is_error(self):
        assert Diagnostic("MIX-E001", "x").is_error
        assert not Diagnostic("MIX-W001", "x").is_error

    def test_render_includes_position_source_and_stage(self):
        diag = Diagnostic(
            "MIX-E004", "bad key", span=Span(3, 7),
            stage="rewrite[r1]", source="q.xq",
        )
        assert diag.render() == (
            "q.xq:3:7: error MIX-E004: bad key [stage: rewrite[r1]]"
        )

    def test_render_bare(self):
        assert Diagnostic("MIX-W004", "unused").render() == (
            "warning MIX-W004: unused"
        )

    def test_to_dict_omits_absent_fields(self):
        out = Diagnostic("MIX-W001", "dead").to_dict()
        assert out == {
            "code": "MIX-W001", "severity": "warning", "message": "dead",
        }

    def test_to_dict_with_span(self):
        out = Diagnostic(
            "MIX-W001", "dead", span=Span(2, 5, 2, 9)
        ).to_dict()
        assert out["span"] == {
            "line": 2, "column": 5, "end_line": 2, "end_column": 9,
        }

    def test_to_dict_carries_stage_and_source(self):
        out = Diagnostic(
            "MIX-E001", "x", stage="sql-split", source="q.xq"
        ).to_dict()
        assert out["stage"] == "sql-split"
        assert out["source"] == "q.xq"

    def test_repr_is_the_rendered_line(self):
        diag = Diagnostic("MIX-W004", "unused")
        assert repr(diag) == "Diagnostic(warning MIX-W004: unused)"


class TestReports:
    def _mixed(self):
        return [
            Diagnostic("MIX-W004", "later", span=Span(9, 1)),
            Diagnostic("MIX-W001", "early", span=Span(1, 2)),
            Diagnostic("MIX-E001", "the error", span=Span(5, 5)),
        ]

    def test_sort_puts_errors_first_then_position(self):
        codes = [d.code for d in sort_diagnostics(self._mixed())]
        assert codes == ["MIX-E001", "MIX-W001", "MIX-W004"]

    def test_sort_is_deterministic_without_spans(self):
        diags = [Diagnostic("MIX-W002", "b"), Diagnostic("MIX-W001", "a")]
        assert [d.code for d in sort_diagnostics(diags)] == [
            "MIX-W001", "MIX-W002",
        ]

    def test_has_errors(self):
        assert has_errors(self._mixed())
        assert not has_errors([Diagnostic("MIX-W001", "w")])
        assert not has_errors([])

    def test_render_text_one_line_per_finding(self):
        text = render_text(self._mixed())
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("5:5: error MIX-E001")

    def test_render_text_empty_when_clean(self):
        assert render_text([]) == ""

    def test_render_json_counts(self):
        payload = json.loads(render_json(self._mixed()))
        assert payload["errors"] == 1
        assert payload["warnings"] == 2
        assert [d["code"] for d in payload["diagnostics"]] == [
            "MIX-E001", "MIX-W001", "MIX-W004",
        ]

    def test_render_json_is_stable(self):
        assert render_json(self._mixed()) == render_json(self._mixed())


class TestSpan:
    def test_equality_and_hash(self):
        assert Span(1, 2) == Span(1, 2)
        assert Span(1, 2) != Span(1, 3)
        assert hash(Span(1, 2, 3, 4)) == hash(Span(1, 2, 3, 4))

    def test_repr_is_line_colon_col(self):
        assert repr(Span(3, 14)) == "3:14"
