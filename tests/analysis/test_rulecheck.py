"""Tests for the rule-certification engine (repro.analysis.rulecheck)."""

import json

import pytest

from repro.algebra import operators as ops
from repro.algebra.plan import iter_operators
from repro.analysis import certify_rules, generate_corpus
from tests.analysis.defect_rules import DEFECT_RULES
from repro.analysis.rulecheck import MAX_DIAGNOSTICS_PER_CODE
from repro.errors import RewriteError
from repro.rewriter.rule import Rule, rule_name
from repro.rewriter.rules import DEFAULT_RULES

#: Which stable code each seeded defect must trip (and nothing worse).
EXPECTED_DEFECTS = {
    "defect-drop-binding": "MIX-E012",
    "defect-flip-flop": "MIX-E013",
    "defect-ping": "MIX-E013",
    "defect-pong": "MIX-E013",
    "defect-never-fires": "MIX-W007",
    "defect-shadowed-empty": "MIX-W008",
    "defect-drop-select": "MIX-E012",
}


@pytest.fixture(scope="module")
def default_report():
    return certify_rules()


@pytest.fixture(scope="module")
def defect_report():
    return certify_rules(extension_rules=DEFECT_RULES)


class TestCorpus:
    def test_covers_all_fourteen_operators(self):
        covered = set()
        for entry in generate_corpus():
            for node in iter_operators(entry.plan):
                covered.add(type(node).__name__)
                if isinstance(node, ops.Apply):
                    for inner in iter_operators(node.plan):
                        covered.add(type(inner).__name__)
        required = {
            "GetD", "MkSrc", "CrElt", "Cat", "TD", "Join", "SemiJoin",
            "Select", "Project", "OrderBy", "GroupBy", "Apply",
            "NestedSrc", "RelQuery",
        }
        assert required <= covered

    def test_corpus_is_cached_and_copied(self):
        first = generate_corpus()
        second = generate_corpus()
        assert [p.name for p in first] == [p.name for p in second]
        assert first is not second  # callers get their own list

    def test_every_default_rule_has_a_firing_site(self, default_report):
        for report in default_report.rules:
            assert report.sites >= 1, report.name


class TestDefaultRules:
    def test_default_rules_certify_clean(self, default_report):
        assert default_report.ok
        assert default_report.error_count == 0
        assert default_report.warning_count == 0
        assert len(default_report.rules) == len(DEFAULT_RULES)

    def test_report_lookup_and_render(self, default_report):
        report = default_report.rule("select-pushdown")
        assert report.certified
        text = default_report.render_text()
        assert "select-pushdown" in text
        assert "0 errors" in text
        payload = json.loads(default_report.render_json())
        assert payload["ok"] is True
        assert payload["errors"] == 0

    def test_unknown_rule_lookup_raises(self, default_report):
        with pytest.raises(KeyError):
            default_report.rule("no-such-rule")


class TestSeededDefects:
    def test_each_defect_trips_its_code(self, defect_report):
        for name, code in EXPECTED_DEFECTS.items():
            report = defect_report.rule(name)
            codes = {d.code for d in report.diagnostics}
            assert code in codes, "{} should trip {}, got {}".format(
                name, code, sorted(codes)
            )

    def test_defect_diagnostics_carry_rule_provenance(self, defect_report):
        for name in EXPECTED_DEFECTS:
            report = defect_report.rule(name)
            assert report.diagnostics, name
            for diag in report.diagnostics:
                assert diag.source == name

    def test_defaults_stay_clean_next_to_defects(self, defect_report):
        default_names = {rule_name(r) for r in DEFAULT_RULES}
        for report in defect_report.rules:
            if report.name in default_names:
                assert report.certified, report.name
                assert not report.diagnostics, report.name

    def test_warning_defects_are_still_certified(self, defect_report):
        # W007/W008 are warnings: the rules are suspect, not unsound.
        assert defect_report.rule("defect-never-fires").certified
        assert defect_report.rule("defect-shadowed-empty").certified
        assert not defect_report.ok  # the error-level defects fail it

    def test_drop_select_is_caught_differentially(self, defect_report):
        report = defect_report.rule("defect-drop-select")
        assert report.contract == "none"
        assert report.differential_fired is True
        assert any(
            d.code == "MIX-E012" and d.stage == "differential"
            for d in report.diagnostics
        )

    def test_diagnostics_are_capped_per_code(self, defect_report):
        # drop-binding matches getD everywhere; without the cap the
        # report would drown in one rule's findings.
        report = defect_report.rule("defect-drop-binding")
        schema_findings = [
            d for d in report.diagnostics
            if d.code == "MIX-E012" and d.stage == "schema"
        ]
        assert len(schema_findings) <= MAX_DIAGNOSTICS_PER_CODE + 1
        assert any(
            "suppressed" in d.message for d in schema_findings
        )


class TestCertifierApi:
    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(RewriteError, match="duplicate rule name"):
            certify_rules(extension_rules=(DEFAULT_RULES[0],))

    def test_focus_limits_reporting_to_named_rules(self):
        report = certify_rules(
            extension_rules=DEFECT_RULES,
            focus=["defect-drop-binding"],
        )
        assert not report.rule("defect-drop-binding").certified
        # Unfocused defects are present but not analyzed.
        assert report.rule("defect-flip-flop").certified
        assert not report.rule("defect-flip-flop").diagnostics

    def test_rule_raising_exception_is_reported_not_fatal(self):
        class Explosive(Rule):
            name = "ext-explosive"
            schema_contract = "preserve"

            def apply(self, node, ctx):
                raise ValueError("boom")

        report = certify_rules(
            extension_rules=[Explosive()], focus=["ext-explosive"]
        )
        findings = report.rule("ext-explosive").diagnostics
        assert any(
            d.code == "MIX-E012" and "boom" in d.message
            for d in findings
        )

    def test_sites_are_rewritten_with_the_rewriters_own_step(
        self, monkeypatch
    ):
        from repro.analysis import rulecheck
        from repro.rewriter import engine

        assert rulecheck.apply_result is engine.apply_result
        calls = []

        def spy(plan, node, result):
            calls.append(node)
            return engine.apply_result(plan, node, result)

        monkeypatch.setattr(rulecheck, "apply_result", spy)
        report = certify_rules(focus=["select-pushdown"])
        assert len(calls) == report.rule("select-pushdown").sites > 0

    def test_drop_select_trips_only_the_differential(self):
        from tests.analysis.defect_rules import DropSelectRule

        report = certify_rules(
            extension_rules=[DropSelectRule()],
            focus=["defect-drop-select"],
        )
        rule = report.rule("defect-drop-select")
        stages = {d.stage for d in rule.diagnostics if d.code == "MIX-E012"}
        # Statically invisible: the oracle mediators' answers catch it.
        assert stages == {"differential"}
        assert rule.differential_fired is True

    def test_default_rules_need_no_differential(self, default_report):
        # Why phase 4 covers extension rules only: every Table-2 rule
        # makes a static schema promise the corpus can check everywhere.
        for report in default_report.rules:
            assert report.contract != "none", report.name
            assert report.unknown_sites == 0, report.name
            assert report.differential_fired is None, report.name

    def test_report_json_round_trips(self, defect_report):
        payload = json.loads(defect_report.render_json())
        assert payload["ok"] is False
        by_name = {r["name"]: r for r in payload["rules"]}
        for name, code in EXPECTED_DEFECTS.items():
            codes = {d["code"] for d in by_name[name]["diagnostics"]}
            assert code in codes
