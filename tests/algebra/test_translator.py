"""Unit tests for the XQuery-to-XMAS translator (Section 3)."""

import pytest

from repro.errors import TranslationError
from repro.xmltree.paths import Path
from repro.algebra import (
    Apply,
    Cat,
    CrElt,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    NestedSrc,
    Select,
    TD,
)
from repro.algebra.plan import find_operators
from repro.algebra.translator import translate_query
from repro.analysis import verify_plan
from tests.conftest import Q1, Q12


class TestForClause:
    def test_document_rooted(self):
        plan = translate_query("FOR $A IN document(d)/x RETURN $A")
        getd = find_operators(plan, GetD)[0]
        assert getd.path == Path.of("x")
        assert getd.out_var == "$A"
        assert isinstance(getd.input, MkSrc)
        assert getd.input.source == "d"

    def test_variable_rooted_prepends_label(self):
        # Fig. 11: $S IN $R/OrderInfo becomes getD($R.custRec.orderInfo, $S)
        plan = translate_query(
            "FOR $R IN document(d)/CustRec, $S IN $R/OrderInfo RETURN $S"
        )
        getds = find_operators(plan, GetD)
        paths = {repr(g.path) for g in getds}
        assert "CustRec.OrderInfo" in paths

    def test_unbound_root_var_rejected(self):
        with pytest.raises(TranslationError):
            translate_query("FOR $S IN $R/x RETURN $S")


class TestWhereClause:
    def test_var_const_becomes_select(self):
        plan = translate_query(
            "FOR $O IN document(d)/order WHERE $O/value/data() < 500 RETURN $O"
        )
        selects = find_operators(plan, Select)
        assert len(selects) == 1
        assert repr(selects[0].condition).endswith("< 500")

    def test_const_on_left_flipped(self):
        plan = translate_query(
            "FOR $O IN document(d)/order WHERE 500 > $O/value/data() RETURN $O"
        )
        (select,) = find_operators(plan, Select)
        assert select.condition.op == "<"

    def test_cross_expression_condition_becomes_join(self):
        plan = translate_query(Q1)
        joins = find_operators(plan, Join)
        assert len(joins) == 1
        assert len(joins[0].conditions) == 1

    def test_same_expression_condition_becomes_select(self):
        plan = translate_query(
            "FOR $A IN document(d)/x WHERE $A/p/data() = $A/q/data() RETURN $A"
        )
        assert len(find_operators(plan, Select)) == 1
        assert len(find_operators(plan, Join)) == 0

    def test_unconditioned_sources_cartesian(self):
        plan = translate_query(
            "FOR $A IN document(d)/x, $B IN document(d)/y RETURN <R> $A $B </R>"
        )
        (join,) = find_operators(plan, Join)
        assert join.conditions == ()

    def test_condition_path_materialized_with_fresh_var(self):
        plan = translate_query(Q1)
        getds = find_operators(plan, GetD)
        data_paths = [g for g in getds if g.path.ends_with_data()]
        assert len(data_paths) == 2  # $C/id/data() and $O/cid/data()


class TestReturnClause:
    def test_bare_variable(self):
        plan = translate_query("FOR $A IN document(d)/x RETURN $A")
        assert isinstance(plan, TD)
        assert plan.var == "$A"

    def test_fig6_shape(self):
        plan = translate_query(Q1, root_oid="rootv")
        assert isinstance(plan, TD)
        assert plan.root_oid == "rootv"
        crelt = plan.input
        assert isinstance(crelt, CrElt)
        assert crelt.label == "CustRec"
        assert crelt.fn == "f"
        assert crelt.skolem_args == ("$C",)
        cat = crelt.input
        assert isinstance(cat, Cat)
        assert cat.x_var == "$C" and cat.x_single
        apply_op = cat.input
        assert isinstance(apply_op, Apply)
        gby = apply_op.input
        assert isinstance(gby, GroupBy)
        assert gby.group_vars == ("$C",)
        # Nested plan: tD over crElt(OrderInfo, g($O), list($O)) over nSrc.
        nested = apply_op.plan
        assert isinstance(nested, TD)
        inner_crelt = nested.input
        assert isinstance(inner_crelt, CrElt)
        assert inner_crelt.label == "OrderInfo"
        assert inner_crelt.fn == "g"
        assert inner_crelt.ch_is_list
        assert isinstance(inner_crelt.input, NestedSrc)

    def test_skolem_args_without_groupby(self):
        plan = translate_query(
            "FOR $A IN document(d)/x RETURN <R> $A </R>"
        )
        (crelt,) = find_operators(plan, CrElt)
        assert crelt.skolem_args == ("$A",)

    def test_nested_uncorrelated_query(self):
        plan = translate_query(
            "FOR $A IN document(d)/x RETURN <R> $A "
            "FOR $B IN document(d)/y RETURN <S> $B </S> </R>"
        )
        applies = find_operators(plan, Apply)
        assert any(a.inp_var is None for a in applies)

    def test_correlated_nested_query_rejected(self):
        with pytest.raises(TranslationError):
            translate_query(
                "FOR $A IN document(d)/x RETURN <R> "
                "FOR $B IN $A/y RETURN $B </R>"
            )

    def test_multiple_content_parts_fold_with_cat(self):
        plan = translate_query(
            "FOR $A IN document(d)/x, $B IN document(d)/y "
            "RETURN <R> $A $B $A </R>"
        )
        cats = find_operators(plan, Cat)
        assert len(cats) == 2  # three parts -> two cats

    def test_groupby_without_varying_content(self):
        plan = translate_query(
            "FOR $A IN document(d)/x RETURN <R> $A </R> {$A}"
        )
        # Group list covers content: no apply machinery needed.
        assert find_operators(plan, Apply) == []

    def test_q12_translation(self):
        plan = translate_query(Q12)
        assert isinstance(plan, TD)
        assert plan.var == "$R"
        assert len(find_operators(plan, Select)) == 1

    def test_translated_plans_verify(self):
        for text in (
            Q1,
            Q12,
            "FOR $A IN document(d)/x RETURN $A",
            "FOR $A IN document(d)/x RETURN <R> $A </R> {$A}",
        ):
            assert verify_plan(translate_query(text)) == []

    def test_rebound_variable_fails_verification(self):
        # The translator builds what the text says; the verifier is
        # what rejects a FOR that rebinds a variable (MIX-E002).
        plan = translate_query(
            "FOR $C IN document(root1)/customer $C IN $C/id RETURN $C"
        )
        assert [d.code for d in verify_plan(plan)] == ["MIX-E002"]


class TestEndToEndText:
    def test_translate_query_accepts_text(self):
        plan = translate_query("FOR $A IN document(d)/x RETURN $A")
        assert isinstance(plan, TD)
