"""Unit tests for the Table-2 rewrite rules, each fired on a minimal plan."""

import pytest

from repro.xmltree.paths import Path
from repro.algebra import (
    Apply,
    Cat,
    Condition,
    CrElt,
    Empty,
    GetD,
    GroupBy,
    Join,
    MkSrc,
    NestedSrc,
    Select,
    SemiJoin,
    TD,
    plan_equal,
)
from repro.algebra.plan import find_operators
from repro.rewriter.context import RewriteContext
from repro.rewriter import rules as R


def apply_rule(rule, plan, node=None):
    """Apply ``rule`` at ``node`` (default: the plan root)."""
    ctx = RewriteContext(plan)
    return rule.apply(node if node is not None else plan, ctx)


class TestRule11Compose:
    def test_mksrc_over_td_collapses(self):
        view_body = GetD("$K", Path.of("c"), "$1", MkSrc("root1", "$K"))
        plan = MkSrc("rootv", "$X", TD("$1", view_body, "rootv"))
        result = apply_rule(R.ComposeMkSrcTD(), plan)
        assert result is not None
        assert plan_equal(result.replacement, view_body)
        assert result.rename == {"$X": "$1"}

    def test_plain_mksrc_not_matched(self):
        assert apply_rule(R.ComposeMkSrcTD(), MkSrc("d", "$X")) is None


class TestRules1to4GetDCrElt:
    def _crelt(self, ch_is_list=False):
        return CrElt(
            "CustRec", "f", ("$C",), "$W", ch_is_list, "$V",
            MkSrc("d", "$W") if not ch_is_list else MkSrc("d", "$W"),
        )

    def test_rule1_pushes_below_with_list_path(self):
        plan = GetD("$V", Path.parse("CustRec.OrderInfo"), "$S",
                    self._crelt())
        result = apply_rule(R.GetDThroughCrElt(), plan)
        assert isinstance(result.replacement, CrElt)
        pushed = result.replacement.input
        assert isinstance(pushed, GetD)
        assert pushed.in_var == "$W"
        assert repr(pushed.path) == "list.OrderInfo"

    def test_rule2_identifies_variables(self):
        plan = GetD("$V", Path.of("CustRec"), "$R", self._crelt())
        result = apply_rule(R.GetDThroughCrElt(), plan)
        assert isinstance(result.replacement, CrElt)
        assert result.rename == {"$R": "$V"}

    def test_rule3_list_qualified_child(self):
        plan = GetD("$V", Path.parse("CustRec.order.value"), "$S",
                    self._crelt(ch_is_list=True))
        result = apply_rule(R.GetDThroughCrElt(), plan)
        pushed = result.replacement.input
        assert repr(pushed.path) == "order.value"

    def test_rule4_label_mismatch_is_empty(self):
        plan = GetD("$V", Path.parse("Wrong.x"), "$S", self._crelt())
        result = apply_rule(R.GetDThroughCrElt(), plan)
        assert isinstance(result.replacement, Empty)

    def test_wildcard_start_pushes(self):
        plan = GetD("$V", Path.parse("*.OrderInfo"), "$S", self._crelt())
        result = apply_rule(R.GetDThroughCrElt(), plan)
        assert isinstance(result.replacement, CrElt)

    def test_unrelated_variable_not_matched(self):
        plan = GetD("$OTHER", Path.of("x"), "$S", self._crelt())
        assert apply_rule(R.GetDThroughCrElt(), plan) is None

    def test_data_path_left_alone(self):
        plan = GetD("$V", Path.parse("CustRec.data()"), "$S", self._crelt())
        assert apply_rule(R.GetDThroughCrElt(), plan) is None


class TestRules5to8GetDCat:
    def _cat_plan(self):
        """cat(list($C), $Z, $W) where $C is a customer element and $Z a
        list of OrderInfo elements (as in Fig. 15)."""
        customers = GetD("$K", Path.of("customer"), "$C",
                         MkSrc("root1", "$K"))
        nested = TD(
            "$P",
            CrElt("OrderInfo", "g", ("$O",), "$O", True, "$P",
                  NestedSrc("$X")),
        )
        grouped = Apply(
            nested, "$X", "$Z",
            GroupBy(("$C",), "$X",
                    GetD("$C", Path.parse("customer.id"), "$O", customers)),
        )
        return Cat("$C", True, "$Z", False, "$W", grouped)

    def test_resolves_to_matching_list_operand(self):
        plan = GetD("$W", Path.parse("list.OrderInfo"), "$S",
                    self._cat_plan())
        result = apply_rule(R.GetDThroughCat(), plan)
        assert isinstance(result.replacement, Cat)
        pushed = result.replacement.input
        assert isinstance(pushed, GetD)
        assert pushed.in_var == "$Z"
        assert repr(pushed.path) == "list.OrderInfo"

    def test_resolves_to_matching_single_operand(self):
        plan = GetD("$W", Path.parse("list.customer.id"), "$S",
                    self._cat_plan())
        result = apply_rule(R.GetDThroughCat(), plan)
        pushed = result.replacement.input
        assert pushed.in_var == "$C"
        assert repr(pushed.path) == "customer.id"

    def test_no_match_is_empty(self):
        plan = GetD("$W", Path.parse("list.Nothing"), "$S", self._cat_plan())
        result = apply_rule(R.GetDThroughCat(), plan)
        assert isinstance(result.replacement, Empty)

    def test_non_list_path_is_empty(self):
        plan = GetD("$W", Path.parse("customer"), "$S", self._cat_plan())
        result = apply_rule(R.GetDThroughCat(), plan)
        assert isinstance(result.replacement, Empty)


class TestRule9GetDIntoApply:
    def _apply_plan(self):
        source = GetD("$K", Path.of("c"), "$C", MkSrc("root1", "$K"))
        nested = TD(
            "$P",
            CrElt("OrderInfo", "g", ("$C",), "$C", True, "$P",
                  NestedSrc("$X")),
        )
        return Apply(nested, "$X", "$Z", GroupBy(("$C",), "$X", source))

    def test_join_introduced_over_group_vars(self):
        plan = GetD("$Z", Path.parse("list.OrderInfo.x"), "$S",
                    self._apply_plan())
        result = apply_rule(R.GetDIntoApply(), plan)
        join = result.replacement
        assert isinstance(join, Join)
        assert len(join.conditions) == 1
        assert join.conditions[0].mode == "key"
        # The left branch is the renamed copy with the pushed getD.
        left = join.left
        assert isinstance(left, GetD)
        assert left.out_var == "$S"
        assert repr(left.path) == "OrderInfo.x"
        # The right branch is the untouched apply chain.
        assert isinstance(join.right, Apply)
        # Copy variables are renamed apart.
        from repro.algebra.plan import defined_vars

        left_vars = defined_vars(left)
        right_vars = defined_vars(join.right)
        assert not (left_vars & right_vars - {"$S"})

    def test_requires_group_by_below(self):
        source = GetD("$K", Path.of("c"), "$C", MkSrc("root1", "$K"))
        nested = TD("$P", CrElt("O", "g", (), "$C", True, "$P",
                                NestedSrc("$X")))
        plan = GetD(
            "$Z", Path.parse("list.O"), "$S",
            Apply(nested, "$X", "$Z", source),
        )
        assert apply_rule(R.GetDIntoApply(), plan) is None


class TestSelectPushdown:
    def test_past_getd(self):
        plan = Select(
            Condition.var_const("$C", "=", 1),
            GetD("$C", Path.parse("c.x"), "$Y", MkSrc("d", "$C")),
        )
        result = apply_rule(R.SelectPushdown(), plan)
        assert isinstance(result.replacement, GetD)
        assert isinstance(result.replacement.input, Select)

    def test_blocked_by_defining_getd(self):
        plan = Select(
            Condition.var_const("$Y", "=", 1),
            GetD("$C", Path.parse("c.x"), "$Y", MkSrc("d", "$C")),
        )
        assert apply_rule(R.SelectPushdown(), plan) is None

    def test_into_join_branch(self):
        join = Join((), MkSrc("a", "$A"), MkSrc("b", "$B"))
        plan = Select(Condition.var_const("$B", "=", 1), join)
        result = apply_rule(R.SelectPushdown(), plan)
        new_join = result.replacement
        assert isinstance(new_join, Join)
        assert isinstance(new_join.right, Select)
        assert isinstance(new_join.left, MkSrc)

    def test_cross_branch_condition_merged_into_join(self):
        join = Join((), MkSrc("a", "$A"), MkSrc("b", "$B"))
        plan = Select(Condition.var_var("$A", "=", "$B"), join)
        result = apply_rule(R.SelectPushdown(), plan)
        assert len(result.replacement.conditions) == 1

    def test_below_groupby_on_group_vars_only(self):
        gby = GroupBy(("$A",), "$X", MkSrc("a", "$A"))
        ok = Select(Condition.var_const("$A", "=", 1), gby)
        result = apply_rule(R.SelectPushdown(), ok)
        assert isinstance(result.replacement, GroupBy)
        blocked = Select(Condition.var_const("$X", "=", 1), gby)
        assert apply_rule(R.SelectPushdown(), blocked) is None


class TestJoinToSemiJoin:
    def test_dead_side_converted(self):
        join = Join(
            (Condition.key_equals("$A", "$B"),),
            MkSrc("a", "$A"),
            MkSrc("b", "$B"),
        )
        plan = TD("$B", join)  # only $B is used above
        result = apply_rule(R.JoinToSemiJoin(), plan, node=join)
        semi = result.replacement
        assert isinstance(semi, SemiJoin)
        assert semi.keep == "right"

    def test_both_sides_live_not_converted(self):
        join = Join(
            (Condition.key_equals("$A", "$B"),),
            MkSrc("a", "$A"),
            MkSrc("b", "$B"),
        )
        plan = TD("$Z", Cat("$A", True, "$B", True, "$Z", join))
        assert apply_rule(R.JoinToSemiJoin(), plan, node=join) is None


class TestRule12SemiJoinBelowGby:
    def test_pushes_below_apply_and_gby(self):
        source = GetD("$K", Path.of("c"), "$C", MkSrc("root1", "$K"))
        nested = TD("$P", CrElt("O", "g", ("$C",), "$C", True, "$P",
                                NestedSrc("$X")))
        kept = Apply(nested, "$X", "$Z", GroupBy(("$C",), "$X", source))
        probe = GetD("$K2", Path.of("c"), "$C2", MkSrc("root1", "$K2"))
        semi = SemiJoin(
            (Condition.key_equals("$C2", "$C"),), probe, kept, keep="right"
        )
        result = apply_rule(R.SemiJoinBelowGroupBy(), semi)
        new_apply = result.replacement
        assert isinstance(new_apply, Apply)
        new_gby = new_apply.input
        assert isinstance(new_gby, GroupBy)
        assert isinstance(new_gby.input, SemiJoin)

    def test_condition_on_nongroup_vars_blocks(self):
        source = GetD("$K", Path.of("c"), "$C", MkSrc("root1", "$K"))
        nested = TD("$P", CrElt("O", "g", ("$C",), "$C", True, "$P",
                                NestedSrc("$X")))
        kept = Apply(nested, "$X", "$Z", GroupBy(("$C",), "$X", source))
        probe = MkSrc("root1", "$K2")
        semi = SemiJoin(
            (Condition.key_equals("$K2", "$X"),), probe, kept, keep="right"
        )
        assert apply_rule(R.SemiJoinBelowGroupBy(), semi) is None


class TestEmptyAndDeadElimination:
    def test_empty_propagates_through_select(self):
        plan = Select(Condition.var_const("$A", "=", 1), Empty(("$A",)))
        result = apply_rule(R.EmptyPropagation(), plan)
        assert isinstance(result.replacement, Empty)

    def test_empty_propagates_through_join(self):
        plan = Join((), Empty(("$A",)), MkSrc("b", "$B"))
        result = apply_rule(R.EmptyPropagation(), plan)
        assert isinstance(result.replacement, Empty)

    def test_td_keeps_empty_input(self):
        plan = TD("$A", Empty(("$A",)))
        assert apply_rule(R.EmptyPropagation(), plan) is None

    def test_dead_crelt_removed(self):
        source = MkSrc("d", "$A")
        crelt = CrElt("R", "f", ("$A",), "$A", True, "$DEAD", source)
        plan = TD("$A", crelt)
        result = apply_rule(R.DeadOperatorElimination(), plan, node=crelt)
        assert result.replacement is source

    def test_live_crelt_kept(self):
        source = MkSrc("d", "$A")
        crelt = CrElt("R", "f", ("$A",), "$A", True, "$V", source)
        plan = TD("$V", crelt)
        assert apply_rule(R.DeadOperatorElimination(), plan, node=crelt) is None


class TestEmptyInsideNestedPlans:
    def test_empty_keeps_the_partition_variables(self):
        # getD($Z.zzz) over cat(list($A), list($B)) matches nothing
        # (rows 5-8); the empty set minted below nestedSrc must still
        # bind what the getD bound, or the nested tD reads an unbound $G.
        from repro.analysis import verify_plan
        from repro.rewriter.engine import Rewriter

        nested = TD("$G", GetD(
            "$Z", Path.of("zzz"), "$G",
            Cat("$A", True, "$B", True, "$Z", NestedSrc("$P")),
        ))
        grouped = GroupBy(("$K",), "$P", GetD(
            "$K", Path.of("c", "b"), "$B",
            GetD("$K", Path.of("c", "a"), "$A", MkSrc("root1", "$K")),
        ))
        plan = TD("$R", Apply(nested, "$P", "$R", grouped), "r")
        assert verify_plan(plan) == []
        rewritten = Rewriter().rewrite(plan)
        (empty,) = find_operators(rewritten, Empty)
        assert set(empty.variables) >= {"$A", "$B", "$G", "$K"}
        assert verify_plan(rewritten) == []


class TestJoinSidesInsideNestedPlans:
    """The pushdown and semijoin rules read a join side's variables
    through the enclosing ``apply``: inside a nested plan, a side that
    reads ``nestedSrc`` binds the partition's variables."""

    @staticmethod
    def _plan():
        nested = TD("$N", GetD(
            "$K", Path.parse("customer.name"), "$N",
            Join(
                (Condition.var_var("$I", "=", "$J"),),
                NestedSrc("$P"),
                GetD("$O", Path.parse("order.cid"), "$J",
                     MkSrc("root2", "$O")),
            ),
        ))
        grouped = GroupBy(("$I",), "$P", GetD(
            "$K", Path.parse("customer.id"), "$I", MkSrc("root1", "$K")
        ))
        return TD("$R", Apply(nested, "$P", "$R", grouped), "r")

    @staticmethod
    def _answers(plan, engine):
        from repro.engine.eager import EagerEngine
        from repro.engine.lazy import LazyEngine
        from repro.engine.vtree import VNode, vnode_to_tree
        from repro.sources import SourceCatalog
        from repro.xmltree import serialize
        from tests.conftest import make_paper_wrapper

        catalog = SourceCatalog().register(make_paper_wrapper())
        if engine == "eager":
            tree = EagerEngine(catalog).evaluate_tree(plan)
        else:
            tree = vnode_to_tree(VNode.root(
                LazyEngine(catalog, block_size=engine).evaluate_tree(plan)
            ))
        return [serialize(child) for child in tree.children]

    def test_rules_fire_as_at_top_level(self):
        from repro.rewriter.engine import Rewriter

        steps = []
        Rewriter().rewrite(self._plan(), trace=steps)
        assert [s.rule_name for s in steps] == [
            "getD-pushdown", "join-to-semijoin (live variables)",
        ]

    @pytest.mark.parametrize("engine", ["eager", 1, 8])
    def test_rewritten_plan_answers_as_the_plan(self, engine):
        # join-to-semijoin is a set-semantics rule (the paper's algebra
        # is set-based): the semijoin names a customer once, where the
        # join named it once per order, so answers compare as sets.
        from repro.rewriter.engine import Rewriter

        plan = self._plan()
        rewritten = Rewriter().rewrite(plan)
        want = self._answers(plan, "eager")
        got = self._answers(rewritten, engine)
        assert set(got) == set(want)
        assert len(set(want)) == 3
        assert self._answers(plan, engine) == want
