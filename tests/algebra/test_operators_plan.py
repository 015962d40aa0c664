"""Unit tests for plan nodes and plan-level utilities."""

import pytest

from repro.errors import PlanError
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
    OrderBy,
    Project,
    RQVar,
    RelQuery,
    Select,
    SemiJoin,
    TD,
    clone_plan,
    defined_vars,
    iter_operators,
    plan_equal,
    rename_vars,
)
from repro.algebra.plan import nested_env, partition_schema
from repro.algebra.plan import (
    VarFactory,
    all_vars,
    find_operators,
    plan_fingerprint,
    rename_shared,
    replace_operator,
)
from repro.analysis import verify_plan
from repro.sources import SourceCatalog
from tests.conftest import make_paper_wrapper


def small_plan():
    """getD($1.customer, $C) over mksrc(root1, $1), then a select."""
    return Select(
        Condition.var_const("$C", "=", "x"),
        GetD("$1", Path.of("customer"), "$C", MkSrc("root1", "$1")),
    )


def fig6_style_plan():
    """A plan shaped like Fig. 6 (gBy + apply + cat + crElt + tD)."""
    join = Join(
        (Condition.var_var("$1", "=", "$2"),),
        GetD(
            "$C", Path.parse("customer.id"), "$1",
            GetD("$K", Path.of("customer"), "$C", MkSrc("root1", "$K")),
        ),
        GetD(
            "$O", Path.parse("order.cid"), "$2",
            GetD("$J", Path.of("order"), "$O", MkSrc("root2", "$J")),
        ),
    )
    nested = TD(
        "$P",
        CrElt("OrderInfo", "g", ("$O",), "$O", True, "$P", NestedSrc("$X")),
    )
    return TD(
        "$V",
        CrElt(
            "CustRec", "f", ("$C",), "$W", False, "$V",
            Cat(
                "$C", True, "$Z", False, "$W",
                Apply(nested, "$X", "$Z", GroupBy(("$C",), "$X", join)),
            ),
        ),
        root_oid="rootv",
    )


class TestDefinedVars:
    def test_mksrc(self):
        assert defined_vars(MkSrc("d", "$X")) == {"$X"}

    def test_getd_extends(self):
        plan = GetD("$X", Path.of("a"), "$Y", MkSrc("d", "$X"))
        assert defined_vars(plan) == {"$X", "$Y"}

    def test_select_passthrough(self):
        assert defined_vars(small_plan()) == {"$1", "$C"}

    def test_project_restricts(self):
        plan = Project(("$C",), small_plan())
        assert defined_vars(plan) == {"$C"}

    def test_join_merges(self):
        plan = Join((), MkSrc("a", "$A"), MkSrc("b", "$B"))
        assert defined_vars(plan) == {"$A", "$B"}

    def test_semijoin_keeps_one_side(self):
        left = MkSrc("a", "$A")
        right = MkSrc("b", "$B")
        assert defined_vars(SemiJoin((), left, right, "left")) == {"$A"}
        assert defined_vars(SemiJoin((), left, right, "right")) == {"$B"}

    def test_groupby(self):
        plan = GroupBy(("$A",), "$X", MkSrc("a", "$A"))
        assert defined_vars(plan) == {"$A", "$X"}

    def test_td_defines_nothing(self):
        assert defined_vars(fig6_style_plan()) == frozenset()

    def test_nestedsrc_unknown(self):
        assert defined_vars(NestedSrc("$X")) is None

    def test_empty(self):
        assert defined_vars(Empty(("$A",))) == {"$A"}

    def test_relquery(self):
        rq = RelQuery("s", "SELECT 1", [RQVar("$C", "customer", [(0, "id")], (0,))])
        assert defined_vars(rq) == {"$C"}

    def test_nestedsrc_resolved_through_env(self):
        plan = GetD("$A", Path.of("a", "b"), "$B", NestedSrc("$X"))
        assert defined_vars(plan, {"$X": frozenset(["$A"])}) == {"$A", "$B"}
        assert defined_vars(plan, {}) is None

    def test_nested_env_holds_the_partition_schema(self):
        grouped = GroupBy(("$C",), "$X", Join(
            (), MkSrc("a", "$C"), GetD("$O", Path.of("o", "v"), "$V",
                                       MkSrc("b", "$O")),
        ))
        apply = Apply(NestedSrc("$X"), "$X", "$Z",
                      Select(Condition.var_const("$C", "=", 1), grouped))
        assert nested_env(apply) == {"$X": {"$C", "$O", "$V"}}
        assert defined_vars(apply.plan, nested_env(apply)) == {
            "$C", "$O", "$V"}

    def test_partition_schema_follows_the_streamed_inputs(self):
        grouped = GroupBy(("$C",), "$X", MkSrc("a", "$C"))
        kept = SemiJoin((), MkSrc("b", "$D"), grouped, "right")
        assert partition_schema(kept, "$X") == {"$C"}
        assert partition_schema(Project(("$C", "$X"), grouped), "$X") == {
            "$C"}
        # Bound by something other than a gBy, or not bound at all.
        assert partition_schema(MkSrc("a", "$X"), "$X") is None
        assert partition_schema(TD("$X", grouped), "$X") is None


class TestTraversal:
    def test_iter_includes_nested(self):
        plan = fig6_style_plan()
        names = [type(op).__name__ for op in iter_operators(plan)]
        assert "NestedSrc" in names
        assert names.count("TD") == 2

    def test_find_operators(self):
        plan = fig6_style_plan()
        assert len(find_operators(plan, MkSrc)) == 2
        assert len(find_operators(plan, CrElt)) == 2

    def test_all_vars(self):
        assert "$X" in all_vars(fig6_style_plan())
        assert "$1" in all_vars(fig6_style_plan())


class TestRenameClone:
    def test_rename_deep(self):
        plan = fig6_style_plan()
        renamed = rename_vars(plan, {"$C": "$CC"})
        assert "$CC" in all_vars(renamed)
        assert "$C" not in all_vars(renamed)
        # Nested plan renamed too (skolem args of inner crElt use $O).
        renamed2 = rename_vars(plan, {"$O": "$OO"})
        inner = find_operators(renamed2, CrElt)
        assert any(op.skolem_args == ("$OO",) for op in inner)

    def test_rename_shared_equals_rename_and_keeps_untouched_subtrees(self):
        plan = fig6_style_plan()
        for var in sorted(all_vars(plan)):
            for mapping in ({var: "$NEW"}, {var: "$C"}, {"$ABSENT": var}):
                shared = rename_shared(plan, mapping)
                assert plan_equal(shared, rename_vars(plan, mapping))
                kept = {id(n) for n in iter_operators(plan)}
                for node in iter_operators(shared):
                    mentions = node.local_defined_vars() | node.used_vars()
                    if id(node) in kept:
                        assert not set(mapping) & mentions
        assert rename_shared(plan, {"$ABSENT": "$X"}) is plan
        # The $O branch of the join is not the $C branch's business.
        renamed = rename_shared(plan, {"$K": "$KK"})
        before = find_operators(plan, Join)[0]
        after = find_operators(renamed, Join)[0]
        assert after is not before and after.right is before.right

    def test_fingerprint_of_a_rebuilt_spine(self):
        # replace_operator and rename_shared hand the per-node part of
        # the fingerprint on to the copies they make; it must be the one
        # a fresh computation gives.
        plan = fig6_style_plan()
        plan_fingerprint(plan)
        target = find_operators(plan, MkSrc)[0]
        replaced = replace_operator(plan, target, MkSrc("other", "$K"))
        renamed = rename_shared(plan, {"$K": "$KK"})
        for warm in (replaced, renamed):
            assert plan_fingerprint(warm) == plan_fingerprint(
                clone_plan(warm)
            )
        assert plan_fingerprint(renamed) == plan_fingerprint(plan)
        assert plan_fingerprint(replaced) != plan_fingerprint(plan)

    def test_clone_is_equal_but_distinct(self):
        plan = fig6_style_plan()
        copy = clone_plan(plan)
        assert plan_equal(plan, copy)
        assert copy is not plan

    def test_plan_equal_detects_difference(self):
        a = small_plan()
        b = Select(
            Condition.var_const("$C", "=", "y"),
            GetD("$1", Path.of("customer"), "$C", MkSrc("root1", "$1")),
        )
        assert not plan_equal(a, b)

    def test_replace_operator(self):
        plan = small_plan()
        target = plan.input  # the GetD
        replacement = MkSrc("other", "$C")
        new_plan = replace_operator(plan, target, replacement)
        assert isinstance(new_plan.input, MkSrc)
        assert isinstance(plan.input, GetD)  # original untouched


def codes(plan, catalog=None):
    return [d.code for d in verify_plan(plan, catalog=catalog)]


class TestValidation:
    # Well-formedness is the verifier's; malformed operator arguments
    # are refused at construction.
    def test_valid_plan(self):
        assert codes(fig6_style_plan()) == []

    def test_unbound_variable_rejected(self):
        plan = Select(
            Condition.var_const("$MISSING", "=", 1), MkSrc("d", "$X")
        )
        assert codes(plan) == ["MIX-E001"]

    def test_join_shared_vars_rejected(self):
        plan = Join((), MkSrc("a", "$A"), MkSrc("b", "$A"))
        assert codes(plan) == ["MIX-E002"]

    def test_unknown_source_rejected(self):
        catalog = SourceCatalog()
        catalog.register(make_paper_wrapper())
        assert codes(MkSrc("root1", "$X"), catalog) == []
        assert codes(MkSrc("nope", "$X"), catalog) == ["MIX-E009"]

    def test_semijoin_keep_validated(self):
        with pytest.raises(PlanError):
            SemiJoin((), MkSrc("a", "$A"), MkSrc("b", "$B"), keep="middle")

    def test_getd_requires_path(self):
        with pytest.raises(PlanError):
            GetD("$A", "not.a.path", "$B", MkSrc("d", "$A"))


class TestVarFactory:
    def test_avoids_taken(self):
        factory = VarFactory(small_plan())
        fresh = factory.fresh("$")
        assert fresh not in all_vars(small_plan())

    def test_reserve(self):
        factory = VarFactory()
        factory.reserve(["$v1"])
        assert factory.fresh("$v") == "$v2"


class TestRQVar:
    def test_kind_validation(self):
        with pytest.raises(PlanError):
            RQVar("$A", "x", [(0, "c")], (), kind="tuple")

    def test_repr_one_based(self):
        entry = RQVar("$C", "customer", [(0, "id"), (1, "name")], (0,))
        assert repr(entry) == "$C={1,2}"
