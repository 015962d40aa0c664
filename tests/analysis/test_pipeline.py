"""Per-stage pipeline verification and ``Mediator(strict=True)``.

Locks in the satellite guarantee that *every* seed pipeline output —
after translation, after each Table-2 rewrite step, after the SQL
split — satisfies the verifier's dataflow invariants, with the cost
optimizer both on and off.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.conftest import Q1, Q12, make_paper_wrapper

from repro import Mediator
from repro.analysis import (
    Diagnostic,
    PipelineReport,
    StageReport,
)
from repro.errors import PlanVerificationError
from repro.server import LoopbackClient, ServerReplyError
from tests.server.conftest import make_service

VIEW_QUERY = Q1


def mediator_with(**kwargs):
    return Mediator(**kwargs).add_source(make_paper_wrapper())


class TestVerifyQueryPipeline:
    @pytest.mark.parametrize("cost", [True, False])
    def test_q1_verifies_at_every_stage(self, cost):
        report = mediator_with(cost_optimizer=cost).verify_query(Q1)
        assert report.ok
        assert report.failed_stage is None
        assert report.raise_if_failed() is report
        names = [stage.name for stage in report.stages]
        assert names[0] == "translate"
        assert names[-1] == "sql-split"

    @pytest.mark.parametrize("cost", [True, False])
    def test_composed_view_verifies_through_every_rewrite(self, cost):
        # The Fig. 12 composition drives the full Table-2 rewrite walk:
        # each fired rule contributes one named stage, and each stage's
        # output plan must satisfy the schema-flow invariants.
        mediator = mediator_with(cost_optimizer=cost)
        mediator.define_view("rootv", VIEW_QUERY)
        report = mediator.verify_query(Q12)
        assert report.ok
        rewrites = [
            s.name for s in report.stages if s.name.startswith("rewrite[")
        ]
        assert len(rewrites) >= 5
        assert any("compose-mksrc-tD" in name for name in rewrites)

    def test_without_rewriting_only_translate_and_split(self):
        report = mediator_with(optimize=False).verify_query(Q1)
        assert [s.name for s in report.stages] == ["translate", "sql-split"]
        assert report.ok

    def test_without_pushdown_no_split_stage(self):
        report = mediator_with(push_sql=False).verify_query(Q1)
        assert "sql-split" not in [s.name for s in report.stages]
        assert report.ok

    def test_verify_query_does_not_perturb_the_mediator(self):
        # EXPLAIN's golden output depends on the first real query being
        # view1: verification must not consume view ids or cache slots.
        mediator = mediator_with()
        mediator.verify_query(Q1)
        mediator.verify_query(Q1)
        plan = mediator.translate(Q1)
        assert "view1" in repr(plan)


#: A FOR clause that rebinds ``$C``: its ``getD`` introduces a variable
#: its input already binds (MIX-E002).
REBINDING_QUERY = "FOR $C IN document(root1)/customer $C IN $C/id RETURN $C"


class TestTranslateStageAlwaysVerified:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("cache", [False, True])
    def test_rebinding_query_is_refused_at_query(self, strict, cache):
        mediator = mediator_with(strict=strict, cache=cache)
        with pytest.raises(PlanVerificationError) as err:
            mediator.query(REBINDING_QUERY)
        assert err.value.stage == "translate"
        assert [d.code for d in err.value.diagnostics] == ["MIX-E002"]

    def test_in_place_q_is_verified_after_composition(self):
        root = mediator_with().query(Q1)
        with pytest.raises(PlanVerificationError) as err:
            root.q(
                "FOR $P IN document(root)/CustRec $P IN $P/customer"
                " RETURN $P"
            )
        assert err.value.stage == "translate"

    def test_served_session_gets_a_plan_error(self):
        with LoopbackClient(make_service()) as client:
            session = client.call("open")["session"]
            with pytest.raises(ServerReplyError) as err:
                client.call("query", session=session, query=REBINDING_QUERY)
            assert err.value.code == "MIX-E-PLAN"
            assert "MIX-E002" in str(err.value)

    def test_define_view_verifies_the_view(self):
        with pytest.raises(PlanVerificationError) as err:
            mediator_with().define_view("rootv", REBINDING_QUERY)
        assert err.value.stage == "translate"


class TestReportObjects:
    def _failed_report(self):
        bad = StageReport(
            "rewrite[r3]", None,
            [Diagnostic("MIX-E004", "gBy key $X not in schema")],
        )
        ok = StageReport("translate", None, [])
        return PipelineReport("q", [ok, bad])

    def test_failed_stage_and_ok(self):
        report = self._failed_report()
        assert not report.ok
        assert report.failed_stage == "rewrite[r3]"
        assert report.stage_count == 2
        assert [d.code for d in report.diagnostics] == ["MIX-E004"]

    def test_raise_if_failed_names_stage_and_code(self):
        with pytest.raises(PlanVerificationError) as err:
            self._failed_report().raise_if_failed()
        assert "rewrite[r3]" in str(err.value)
        assert "MIX-E004" in str(err.value)
        assert err.value.stage == "rewrite[r3]"

    def test_warnings_do_not_fail_a_stage(self):
        stage = StageReport(
            "translate", None, [Diagnostic("MIX-W001", "dead")]
        )
        assert stage.ok
        assert PipelineReport("q", [stage]).ok

    def test_reprs_show_the_verdict(self):
        report = self._failed_report()
        assert repr(report) == "PipelineReport(2 stages, FAILED)"
        assert repr(report.stages[0]) == "StageReport(translate: ok)"
        assert repr(report.stages[1]) == "StageReport(rewrite[r3]: FAILED)"


class TestStrictMediator:
    def test_strict_compiles_and_answers_like_default(self):
        strict = mediator_with(strict=True)
        loose = mediator_with()
        assert strict.explain(Q1, mask_times=True) == loose.explain(
            Q1, mask_times=True
        )

    def test_strict_records_verified_stage_count(self):
        mediator = mediator_with(strict=True)
        mediator.prepare(Q1)
        assert mediator.last_verified_stages == 2

    def test_default_mediator_does_not_verify(self):
        mediator = mediator_with()
        mediator.prepare(Q1)
        assert mediator.last_verified_stages is None

    def test_plan_cache_carries_the_verification(self):
        mediator = mediator_with(strict=True, cache=True)
        mediator.prepare(Q1)
        first = mediator.last_verified_stages
        mediator.last_verified_stages = None
        __, __, status = mediator.prepare(Q1)
        assert status == "hit"
        assert mediator.last_verified_stages == first

    def test_verification_is_timed(self):
        # The checks run under their own obs timer, so their cost shows
        # up in snapshots next to translate/rewrite.
        for strict in (True, False):
            mediator = mediator_with(strict=strict)
            assert mediator.stats.elapsed("verify") == 0.0
            mediator.prepare(Q1)
            assert mediator.stats.elapsed("verify") > 0.0

    def test_strict_rewrite_failure_names_its_rule(self):
        # A rule registered past certification breaks a plan: the error
        # strict mode raises blames it in the message, as the verifier's
        # own assert_plan_verifies does.
        from tests.analysis.defect_rules import DropBindingRule

        mediator = mediator_with(strict=True)
        mediator._rewriter.register(DropBindingRule())
        with pytest.raises(PlanVerificationError) as err:
            mediator.query(Q1)
        assert err.value.stage == "rewrite[defect-drop-binding]"
        assert err.value.rule == "defect-drop-binding"
        assert str(err.value).startswith(
            "plan verification failed after stage "
            "'rewrite[defect-drop-binding]' (rule 'defect-drop-binding'): "
        )

    def test_strict_view_composition_verifies_all_rewrites(self):
        mediator = mediator_with(strict=True)
        mediator.define_view("rootv", VIEW_QUERY)
        mediator.prepare(Q12)
        assert mediator.last_verified_stages > 2

    @pytest.mark.parametrize("cache", [False, True])
    def test_strict_root_and_node_q_are_verified(self, cache):
        # Example 2.1: p4 composes Q2 at the root of Q1's answer, p9
        # decontextualizes Q3 at a CustRec of p4's.
        mediator = mediator_with(strict=True, cache=cache)
        p0 = mediator.query(Q1)
        p4 = p0.q(EXAMPLE_Q2)
        root_stages = mediator.last_verified_stages
        p5 = p4.d()
        p9 = p5.q(EXAMPLE_Q3)
        node_stages = mediator.last_verified_stages
        assert (root_stages or 0) > 2 and (node_stages or 0) > 2
        assert p5.fl() == "CustRec" and p9.children() == []
        if cache:
            # A plan-cache hit carries the recorded verification over.
            for start, query, stages in ((p0, EXAMPLE_Q2, root_stages),
                                         (p5, EXAMPLE_Q3, node_stages)):
                hits = mediator.cache.plan_cache.stats()["hits"]
                mediator.last_verified_stages = None
                start.q(query)
                assert mediator.cache.plan_cache.stats()["hits"] == hits + 1
                assert mediator.last_verified_stages == stages


#: Example 2.1's in-place queries: Q2 from the root of Q1's answer, Q3
#: from a CustRec of Q2's.
EXAMPLE_Q2 = (
    'FOR $P IN document(root)/CustRec'
    ' WHERE $P/customer/name/data() < "B" RETURN $P'
)
EXAMPLE_Q3 = (
    "FOR $O IN document(root)/OrderInfo"
    " WHERE $O/order/value/data() < 500 RETURN $O"
)

EXAMPLES = sorted(
    (Path(__file__).parent / ".." / ".." / "examples" / "queries")
    .glob("*.xq")
)
CORPUS = [("Q1", Q1, False), ("Q12-over-rootv", Q12, True)] + [
    (path.name, path.read_text(), False) for path in EXAMPLES
]


@pytest.mark.parametrize("cost", [True, False], ids=["cost", "no-cost"])
@pytest.mark.parametrize(
    "text, over_view", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS]
)
def test_strict_verify_query_and_explain_count_the_same_stages(
    text, over_view, cost
):
    # One compile path: strict mode, verify_query and EXPLAIN's footer
    # all verify the stages that path recorded, so they count alike.
    def build(**kwargs):
        mediator = mediator_with(cost_optimizer=cost, **kwargs)
        if over_view:
            mediator.define_view("rootv", VIEW_QUERY)
        return mediator

    strict = build(strict=True)
    strict.prepare(text)
    stages = strict.last_verified_stages
    assert stages >= 2
    assert build().verify_query(text).stage_count == stages
    footer = [
        line for line in build().explain(text, mask_times=True).splitlines()
        if line.startswith("-- verified:")
    ]
    assert footer == ["-- verified: {} stages".format(stages)]


class TestExplainFooter:
    def test_explain_reports_verified_stages(self):
        text = mediator_with().explain(Q1, mask_times=True)
        assert text.endswith("-- verified: 2 stages")

    def test_composed_explain_counts_rewrite_stages(self):
        mediator = mediator_with()
        mediator.define_view("rootv", VIEW_QUERY)
        text = mediator.explain(Q12, mask_times=True)
        footer = [
            line for line in text.splitlines()
            if line.startswith("-- verified:")
        ]
        assert len(footer) == 1
        stages = int(footer[0].split()[2])
        assert stages > 2
