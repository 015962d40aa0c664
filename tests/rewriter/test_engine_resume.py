"""Tests for the resume-scan driver and the termination diagnostics."""

import pytest

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import plan_equal, plan_fingerprint
from repro.algebra.translator import translate_query
from repro.composer import compose_at_root
from repro.errors import RewriteError
from repro.rewriter import Rewriter
from repro.rewriter.rule import Rule, RuleResult
from repro.xmltree.paths import Path
from tests.conftest import Q1, Q12


def worked_example():
    view = translate_query(Q1, root_oid="rootv")
    query = translate_query(Q12)
    return compose_at_root(view, query)


class TestResumeScan:
    def test_resume_and_restart_reach_the_same_fixpoint(self):
        resume = Rewriter(resume_scan=True).rewrite(worked_example())
        restart = Rewriter(resume_scan=False).rewrite(worked_example())
        assert plan_equal(resume, restart)

    def test_step_count_does_not_regress_on_worked_example(self):
        # The seed's restart driver optimizes the Fig. 13-21 composition
        # in 20 steps; resume scan must not add steps.
        restart_trace = []
        Rewriter(resume_scan=False).rewrite(
            worked_example(), trace=restart_trace
        )
        resume_trace = []
        Rewriter(resume_scan=True).rewrite(
            worked_example(), trace=resume_trace
        )
        assert len(restart_trace) <= 20
        assert len(resume_trace) <= len(restart_trace)

    def test_resume_cuts_probes_on_deep_plans(self):
        # A select sinking one orderBy layer per step: the k-th fire
        # happens at pre-order depth k.  Restart re-scans the untouched
        # prefix before every fire (O(N^2) probes over an N-deep
        # chain); resume picks up at the fire site (O(N)).
        class SinkSelect(Rule):
            name = "sink-select"
            schema_contract = "preserve"

            def apply(self, node, ctx):
                if not isinstance(node, ops.Select):
                    return None
                below = node.input
                if not isinstance(below, ops.OrderBy):
                    return None
                pushed = node.with_children((below.input,))
                return RuleResult(below.with_children((pushed,)))

        def deep_plan(depth=40):
            plan = ops.GetD(
                "$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K")
            )
            for _ in range(depth):
                plan = ops.OrderBy(("$A",), plan)
            return ops.Select(Condition.var_const("$A", ">", 1), plan)

        resume = Rewriter(rules=[SinkSelect()], resume_scan=True)
        restart = Rewriter(rules=[SinkSelect()], resume_scan=False)
        resumed = resume.rewrite(deep_plan())
        restarted = restart.rewrite(deep_plan())
        assert plan_equal(resumed, restarted)
        assert resume.last_probes < restart.last_probes / 2

    def test_last_rule_names_records_firing_order(self):
        rewriter = Rewriter()
        trace = []
        rewriter.rewrite(worked_example(), trace=trace)
        assert rewriter.last_rule_names == tuple(
            step.rule_name for step in trace
        )
        assert any("rule 11" in n for n in rewriter.last_rule_names)


class TestTerminationDiagnostics:
    def test_cycle_error_attaches_steps_with_provenance(self):
        from tests.analysis.defect_rules import FlipFlopRule

        def join_plan():
            left = ops.GetD(
                "$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K")
            )
            right = ops.GetD(
                "$L", Path.of("b"), "$B", ops.MkSrc("root2", "$L")
            )
            return ops.Join(
                (Condition.var_var("$A", "=", "$B"),), left, right
            )

        with pytest.raises(RewriteError) as info:
            Rewriter(rules=[FlipFlopRule()]).rewrite(join_plan())
        err = info.value
        assert err.code == "MIX-E013"
        assert err.kind == "cycle"
        assert "MIX-E013" in str(err)
        assert err.steps, "last-k steps must be attached"
        for step in err.steps:
            assert step.rule_name == "defect-flip-flop"
            assert step.fingerprint == plan_fingerprint(step.plan)
        # The message names the cycling rule and its fingerprints.
        assert "defect-flip-flop#" in str(err)

    def test_divergence_error_carries_kind_and_steps(self):
        with pytest.raises(RewriteError) as info:
            Rewriter(max_steps=1).rewrite(worked_example())
        err = info.value
        assert err.code == "MIX-E013"
        assert err.kind == "divergence"
        assert err.steps

    def test_cycle_segment_excludes_innocent_prefix_rules(self):
        # select-pushdown legitimately fires once before the ping/pong
        # pair closes its loop; the attached cycle segment must not
        # blame it.
        from tests.analysis.defect_rules import PingRule, PongRule

        plan = ops.Select(
            Condition.var_const("$A", ">", 1),
            ops.Project(
                ("$A",),
                ops.OrderBy(
                    ("$A",),
                    ops.GetD(
                        "$K", Path.of("a"), "$A",
                        ops.MkSrc("root1", "$K"),
                    ),
                ),
            ),
        )
        from repro.rewriter.rules import SelectPushdown

        with pytest.raises(RewriteError) as info:
            Rewriter(
                rules=[SelectPushdown(), PingRule(), PongRule()]
            ).rewrite(plan)
        names = {step.rule_name for step in info.value.steps}
        assert names <= {"defect-ping", "defect-pong"}

    def test_fingerprint_is_alpha_invariant(self):
        a = ops.GetD("$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K"))
        b = ops.GetD("$X", Path.of("a"), "$Y", ops.MkSrc("root1", "$X"))
        assert plan_fingerprint(a) == plan_fingerprint(b)
        c = ops.GetD("$K", Path.of("b"), "$A", ops.MkSrc("root1", "$K"))
        assert plan_fingerprint(a) != plan_fingerprint(c)
