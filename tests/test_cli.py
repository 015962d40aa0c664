"""Tests for the ``python -m repro`` entry point."""

import pytest

from repro.__main__ import _ACCEPTS, _OPTIONS, _parse, main

# ``--flag=text`` samples and the value each must parse to; every
# valued option in the table needs one.
SAMPLES = {
    "--cache-size": ("16", 16),
    "--block-size": ("4", 4),
    "--shards": ("2", 2),
    "--fault-profile": ("outage", "outage"),
    "--fault-seed": ("7", 7),
    "--rules": ("pkg.mod:RULES", "pkg.mod:RULES"),
    "--host": ("0.0.0.0", "0.0.0.0"),
    "--port": ("0", 0),
    "--max-sessions": ("9", 9),
    "--max-inflight": ("3", 3),
}


def flag_arg(flag):
    return flag if _OPTIONS[flag][1] is None else "{}={}".format(
        flag, SAMPLES[flag][0])


class TestOptionTable:
    def test_every_valued_option_has_a_sample(self):
        valued = {f for f, (__, parse, __) in _OPTIONS.items() if parse}
        assert valued == set(SAMPLES)

    @pytest.mark.parametrize("command", sorted(_ACCEPTS))
    def test_accepted_flags_parse_to_their_key(self, command):
        for flag in _ACCEPTS[command]:
            options, args = _parse(command, [flag_arg(flag), "pos"])
            want = True if flag not in SAMPLES else SAMPLES[flag][1]
            assert options[flag[2:].replace("-", "_")] == want, flag
            assert args == ["pos"]

    @pytest.mark.parametrize("command", sorted(_ACCEPTS))
    def test_other_flags_exit_2(self, command, capsys):
        for flag in sorted(set(_OPTIONS) - set(_ACCEPTS[command])):
            arg = flag_arg(flag)
            assert main([command, arg]) == 2, flag
            assert capsys.readouterr().err.strip() == (
                "{}: unknown option {!r}".format(command, arg))

    def test_defaults_fill_every_key(self):
        options, args = _parse("demo", [])
        assert args == []
        assert options["block_size"] is None
        assert options["cache_size"] == 128
        assert options["no_cache"] is False
        assert options["port"] == 4617

    @pytest.mark.parametrize("argv", [
        ["demo", "--blok-size=4"],
        ["demo", "--block-size", "4"],
        ["serve", "--bogus"],
        ["explain", "--no-cahce"],
        ["explain", "--json=yes"],
        ["serve", "--port"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(argv[0] + ": ")

    def test_bad_value_keeps_its_message(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--block-size=x"])
        assert str(exc.value) == "--block-size expects an integer, got 'x'"

    def test_sql_comment_is_not_an_option(self, capsys):
        assert main(["sql", "-- note", "SELECT id FROM customer"]) == 0
        assert "-- 3 rows" in capsys.readouterr().out

    def test_usage_lists_every_commands_flags(self, capsys):
        assert main([]) == 2
        usage = capsys.readouterr().out
        for command, flags in _ACCEPTS.items():
            (line,) = [l for l in usage.splitlines()
                       if l.split()[:1] == [command]]
            for flag in flags:
                assert flag in line, (command, flag)


class TestCli:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "p1 = d(p0)" in out
        assert "CustRec" in out
        assert "q(Q3, p5)" in out

    def test_usage_on_unknown_command(self, capsys):
        assert main(["nope"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_usage_on_no_command(self, capsys):
        assert main([]) == 2


class TestOptimizerCli:
    def test_explain_analyze_flag_prints_counts_and_estimates(self, capsys):
        assert main(["explain", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyzed[s]: 2 tables" in out
        assert "est=" in out and "act=" in out

    def test_explain_without_analyze_has_no_estimates(self, capsys):
        assert main(["explain"]) == 0
        assert "est=" not in capsys.readouterr().out

    def test_no_optimizer_explain_matches_default_unanalyzed(self, capsys):
        import re

        def masked(text):
            return re.sub(r" time=[0-9.]+ms", "", text)

        assert main(["explain"]) == 0
        default = masked(capsys.readouterr().out)
        assert main(["explain", "--no-optimizer"]) == 0
        assert masked(capsys.readouterr().out) == default

    def test_sql_select(self, capsys):
        assert main(["sql", "SELECT id FROM customer ORDER BY id"]) == 0
        out = capsys.readouterr().out
        assert "-- 3 rows" in out

    def test_sql_analyze(self, capsys):
        assert main(["sql", "ANALYZE"]) == 0
        assert "-- 2 tables analyzed" in capsys.readouterr().out

    def test_sql_dml(self, capsys):
        assert main(
            ["sql", "INSERT INTO orders VALUES (99, 'C1', 5)"]
        ) == 0
        assert "-- 1 rows affected" in capsys.readouterr().out

    def test_sql_error_reported(self, capsys):
        assert main(["sql", "SELECT nope FROM nowhere"]) == 1


WARNY_QUERY = (
    "FOR $C IN source(root1)/customer\n"
    "    $N IN $C/naem\n"
    "RETURN <R> $C </R>"
)


class TestAnalysisCli:
    def test_lint_default_query_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_flags_warnings_but_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "warny.xq"
        path.write_text(WARNY_QUERY)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MIX-W001" in out and "MIX-W004" in out
        assert "warny.xq:2:" in out

    def test_lint_strict_fails_on_warnings(self, tmp_path, capsys):
        path = tmp_path / "warny.xq"
        path.write_text(WARNY_QUERY)
        assert main(["lint", "--strict", str(path)]) == 1

    def test_lint_json_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "warny.xq"
        path.write_text(WARNY_QUERY)
        assert main(["lint", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == 2
        assert payload["diagnostics"][0]["source"].endswith("warny.xq")

    def test_lint_analyze_enables_range_checks(self, tmp_path, capsys):
        path = tmp_path / "range.xq"
        path.write_text(
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() > 500000\n"
            "RETURN <R> $O </R>"
        )
        assert main(["lint", str(path)]) == 0
        assert "MIX-W003" not in capsys.readouterr().out
        assert main(["lint", "--analyze", str(path)]) == 0
        assert "MIX-W003" in capsys.readouterr().out

    def test_lint_parse_error_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.xq"
        path.write_text("FOR RETURN")
        assert main(["lint", str(path)]) == 1
        assert "broken.xq" in capsys.readouterr().err

    def test_lint_missing_file(self, capsys):
        assert main(["lint", "/nonexistent/q.xq"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_check_plan_default(self, capsys):
        assert main(["check-plan"]) == 0
        out = capsys.readouterr().out
        assert "translate" in out and "sql-split" in out
        assert "-- verified: 2 stages" in out
        assert "FAILED" not in out

    def test_check_plan_no_optimizer(self, capsys):
        assert main(["check-plan", "--no-optimizer"]) == 0
        assert "-- verified:" in capsys.readouterr().out

    def test_check_plan_from_file(self, tmp_path, capsys):
        path = tmp_path / "q.xq"
        path.write_text(
            "FOR $O IN document(root2)/order\n"
            "WHERE $O/value/data() > 1000\n"
            "RETURN <Big> $O </Big> {$O}"
        )
        assert main(["check-plan", str(path)]) == 0

    def test_check_plan_missing_file(self, capsys):
        assert main(["check-plan", "/nonexistent/q.xq"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_check_plan_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.xq"
        path.write_text("FOR RETURN")
        assert main(["check-plan", str(path)]) == 1

    def test_usage_lists_new_commands(self, capsys):
        main([])
        out = capsys.readouterr().out
        assert "lint" in out and "check-plan" in out


class TestCheckRulesCli:
    def test_default_rules_certify_clean(self, capsys):
        assert main(["check-rules"]) == 0
        out = capsys.readouterr().out
        assert "rule-certification: 10 rules" in out
        assert "0 errors" in out and "0 warnings" in out
        assert "FAIL" not in out

    def test_defect_rules_fail_with_expected_codes(self, capsys):
        assert main(
            ["check-rules",
             "--rules=tests.analysis.defect_rules:DEFECT_RULES"]
        ) == 1
        out = capsys.readouterr().out
        for code in ("MIX-E012", "MIX-E013", "MIX-W007", "MIX-W008"):
            assert code in out, code
        assert "defect-drop-binding" in out

    def test_json_report(self, capsys):
        import json

        assert main(
            ["check-rules", "--json",
             "--rules=tests.analysis.defect_rules:DEFECT_RULES"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        by_name = {r["name"]: r for r in payload["rules"]}
        assert by_name["defect-drop-select"]["differential_fired"] is True
        assert not by_name["defect-flip-flop"]["certified"]
        assert by_name["select-pushdown"]["certified"]

    def test_bad_rules_spec_is_usage_error(self, capsys):
        assert main(["check-rules", "--rules=nocolon"]) == 2
        assert "module:attr" in capsys.readouterr().err

    def test_unimportable_rules_module(self, capsys):
        assert main(["check-rules", "--rules=no.such.module:RULES"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_unexpected_argument(self, capsys):
        assert main(["check-rules", "extra"]) == 2

    def test_usage_lists_check_rules(self, capsys):
        main([])
        assert "check-rules" in capsys.readouterr().out
