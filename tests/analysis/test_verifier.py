"""The static plan verifier: schema inference and the defect corpus.

The second half is the seeded-defect regression corpus the issue asks
for: the seed pipeline has no latent schema-flow violations (every
golden plan verifies at every stage — see ``test_pipeline.py``), so
each dataflow invariant is locked in by a hand-broken plan that must be
rejected with its expected stable code.
"""

from __future__ import annotations

import pytest

from tests.conftest import Q1, make_paper_wrapper

from repro import Mediator
from repro.algebra.conditions import Condition
from repro.algebra import operators as ops
from repro.algebra.plan import defined_vars
from repro.analysis import assert_plan_verifies, verify_plan
from repro.errors import PlanVerificationError
from repro.sources import SourceCatalog
from repro.xmltree.paths import Path


def customers(var="$C"):
    return ops.MkSrc("root1", var)


def orders(var="$O"):
    return ops.MkSrc("root2", var)


@pytest.fixture
def catalog():
    return SourceCatalog().register(make_paper_wrapper())


class TestSchemaInference:
    def test_mksrc_binds_its_variable(self):
        assert defined_vars(customers()) == frozenset(["$C"])

    def test_getd_adds_the_output_variable(self):
        plan = ops.GetD("$C", Path.of("customer", "id"), "$I", customers())
        assert defined_vars(plan) == frozenset(["$C", "$I"])

    def test_select_preserves_the_schema(self):
        plan = ops.Select(Condition.var_const("$C", "=", 1), customers())
        assert defined_vars(plan) == frozenset(["$C"])

    def test_project_narrows(self):
        plan = ops.Project(
            ("$C",),
            ops.GetD("$C", Path.of("customer", "id"), "$I", customers()),
        )
        assert defined_vars(plan) == frozenset(["$C"])

    def test_join_unions_disjoint_inputs(self):
        plan = ops.Join((), customers(), orders())
        assert defined_vars(plan) == frozenset(["$C", "$O"])

    def test_semijoin_keeps_one_side(self):
        left = ops.SemiJoin.right_semijoin((), customers(), orders())
        right = ops.SemiJoin.left_semijoin((), customers(), orders())
        assert defined_vars(left) == frozenset(["$C"])
        assert defined_vars(right) == frozenset(["$O"])

    def test_groupby_keeps_keys_plus_partition(self):
        plan = ops.GroupBy(("$C",), "$P", ops.Join((), customers(), orders()))
        assert defined_vars(plan) == frozenset(["$C", "$P"])

    def test_td_destroys_the_tuple_structure(self):
        assert defined_vars(ops.TD("$C", customers())) == frozenset()

    def test_empty_declares_its_variables(self):
        assert defined_vars(ops.Empty(("$A", "$B"))) == frozenset(
            ["$A", "$B"]
        )

    def test_rq_exports_its_varmap(self):
        plan = ops.RelQuery(
            "s", "SELECT id FROM customer",
            [ops.RQVar("$C", "customer", ((0, "id"),), (0,))],
        )
        assert defined_vars(plan) == frozenset(["$C"])

    def test_free_nestedsrc_is_unknown(self):
        # Standalone nested plans have no apply context: the schema is
        # unknown, never a false positive downstream.
        plan = ops.GetD(
            "$X", Path.of("customer", "id"), "$I", ops.NestedSrc("$X")
        )
        assert defined_vars(plan) is None


class TestCleanPlans:
    def test_translated_q1_verifies_against_the_catalog(self, catalog):
        mediator = Mediator().add_source(make_paper_wrapper())
        plan = mediator.translate(Q1, assign_root=False)
        assert verify_plan(plan, catalog=catalog) == []

    def test_optimized_q1_verifies_against_the_catalog(self, catalog):
        mediator = Mediator().add_source(make_paper_wrapper())
        exec_plan, __, __ = mediator.prepare(Q1)
        assert verify_plan(exec_plan, catalog=catalog) == []

    def test_assert_plan_verifies_returns_diagnostics_when_clean(self):
        assert assert_plan_verifies(customers()) == []

    def test_virtual_sources_need_no_catalog(self):
        # Pre-composition plans reference view roots the catalog has
        # never heard of; without a catalog that is not a finding.
        assert verify_plan(ops.MkSrc("view1", "$R")) == []


def _nested_apply(nested_var):
    """A Fig. 7-shaped apply whose nested plan reads ``nested_var``."""
    grouped = ops.GroupBy(
        ("$C",), "$X", ops.Join((), customers(), orders())
    )
    nested = ops.TD(
        "$V",
        ops.CrElt(
            "OrderInfo", "g", ("$O",), "$O", False, "$V",
            ops.NestedSrc(nested_var),
        ),
    )
    return ops.Apply(nested, "$X", "$Z", grouped)


def test_apply_threads_the_partition_schema():
    # The nested plan's nestedSrc sees the grouped input's schema: its
    # $O consumption resolves, so the whole plan is clean.
    assert verify_plan(_nested_apply("$X")) == []


#: The seeded-defect corpus: (name, broken plan factory, expected code).
#: One entry per invariant class; every plan must be *rejected* and the
#: rejection must cite the stable code — silently passing any of these
#: means the verifier lost a check.
BROKEN_PLANS = [
    ("getd-consumes-unbound-var",
     lambda: ops.GetD("$X", Path.of("customer", "id"), "$I", customers()),
     "MIX-E001"),
    ("select-condition-unbound-var",
     lambda: ops.Select(Condition.var_const("$Z", ">", 7), customers()),
     "MIX-E001"),
    ("apply-input-var-unbound",
     lambda: ops.Apply(ops.NestedSrc("$P"), "$P", "$Z", customers()),
     "MIX-E001"),
    ("getd-shadows-existing-binding",
     lambda: ops.GetD("$C", Path.of("customer", "id"), "$C", customers()),
     "MIX-E002"),
    ("join-inputs-overlap",
     lambda: ops.Join((), customers("$C"), orders("$C")),
     "MIX-E002"),
    ("project-lists-var-twice",
     lambda: ops.Project(("$C", "$C"), customers()),
     "MIX-E002"),
    ("groupby-output-collides-with-key",
     lambda: ops.GroupBy(("$C",), "$C", customers()),
     "MIX-E002"),
    ("crelt-skolem-arg-out-of-scope",
     lambda: ops.CrElt(
         "CustRec", "f", ("$GONE",), "$C", False, "$V", customers()
     ),
     "MIX-E003"),
    ("cat-arg-out-of-scope",
     lambda: ops.Cat("$C", True, "$GONE", False, "$Z", customers()),
     "MIX-E003"),
    ("groupby-key-not-in-schema",
     lambda: ops.GroupBy(("$O",), "$P", customers()),
     "MIX-E004"),
    ("nestedsrc-free-context-var",
     lambda: _nested_apply("$Y"),
     "MIX-E005"),
    ("td-exports-unbound-var",
     lambda: ops.TD("$Z", customers()),
     "MIX-E006"),
    ("project-outside-schema",
     lambda: ops.Project(("$C", "$Z"), customers()),
     "MIX-E007"),
    ("orderby-outside-schema",
     lambda: ops.OrderBy(("$Z",), customers()),
     "MIX-E007"),
    ("rq-orders-on-unexported-var",
     lambda: ops.RelQuery(
         "s", "SELECT id FROM customer",
         [ops.RQVar("$C", "customer", ((0, "id"),), (0,))],
         order_vars=("$Z",),
     ),
     "MIX-E007"),
    ("rq-exports-var-twice",
     lambda: ops.RelQuery(
         "s", "SELECT id, id FROM customer",
         [ops.RQVar("$C", "customer", ((0, "id"),), (0,)),
          ops.RQVar("$C", "customer", ((1, "id"),), (1,))],
     ),
     "MIX-E008"),
    ("join-condition-binds-nowhere",
     lambda: ops.Join(
         (Condition.var_var("$C", "=", "$GONE"),),
         customers(), orders(),
     ),
     "MIX-E010"),
]

_CATALOG_BROKEN_PLANS = [
    ("mksrc-unknown-document",
     lambda: ops.MkSrc("rootX", "$C"),
     "MIX-E009"),
    ("rq-unknown-server",
     lambda: ops.RelQuery(
         "nosuch", "SELECT id FROM customer",
         [ops.RQVar("$C", "customer", ((0, "id"),), (0,))],
     ),
     "MIX-E009"),
]


class TestSeededDefectCorpus:
    @pytest.mark.parametrize(
        "name,factory,code",
        BROKEN_PLANS,
        ids=[name for name, __, __ in BROKEN_PLANS],
    )
    def test_broken_plan_is_rejected_with_its_code(self, name, factory,
                                                   code):
        diagnostics = verify_plan(factory())
        assert code in {d.code for d in diagnostics}, (
            "expected {} for {}".format(code, name)
        )

    @pytest.mark.parametrize(
        "name,factory,code",
        _CATALOG_BROKEN_PLANS,
        ids=[name for name, __, __ in _CATALOG_BROKEN_PLANS],
    )
    def test_catalog_resolution_defects(self, catalog, name, factory,
                                        code):
        diagnostics = verify_plan(factory(), catalog=catalog)
        assert code in {d.code for d in diagnostics}

    def test_corpus_covers_at_least_ten_defect_classes(self):
        assert len(BROKEN_PLANS) + len(_CATALOG_BROKEN_PLANS) >= 10
        # ... spanning every verifier invariant:
        codes = {code for __, __, code in BROKEN_PLANS}
        codes |= {code for __, __, code in _CATALOG_BROKEN_PLANS}
        assert codes == {"MIX-E%03d" % i for i in range(1, 11)}

    @pytest.mark.parametrize(
        "name,factory,code",
        BROKEN_PLANS,
        ids=[name for name, __, __ in BROKEN_PLANS],
    )
    def test_assert_raises_and_carries_diagnostics(self, name, factory,
                                                   code):
        with pytest.raises(PlanVerificationError) as err:
            assert_plan_verifies(factory(), stage="rewrite[test]")
        assert err.value.stage == "rewrite[test]"
        assert "rewrite[test]" in str(err.value)
        assert code in {d.code for d in err.value.diagnostics}


class TestGenericFallback:
    def test_unknown_operator_subclass_uses_the_generic_contract(self):
        # Operators the dispatch table has never heard of (downstream
        # extensions) fall back to used/local_defined_vars.
        class Tag(ops.Operator):
            opname = "tag"

            def __init__(self, var, out_var, input_plan):
                self.var = var
                self.out_var = out_var
                self.input = input_plan

            @property
            def children(self):
                return (self.input,)

            def used_vars(self):
                return frozenset([self.var])

            def local_defined_vars(self):
                return frozenset([self.out_var])

        assert defined_vars(Tag("$C", "$T", customers())) == frozenset(
            ["$C", "$T"]
        )
        diags = verify_plan(Tag("$GONE", "$T", customers()))
        assert [d.code for d in diags] == ["MIX-E001"]

    def test_unknown_leaf_operator_has_unknown_schema(self):
        class Leaf(ops.Operator):
            opname = "leaf"

        assert defined_vars(Leaf()) is None


class TestRemainingDuplicateChecks:
    def test_groupby_duplicate_key(self):
        plan = ops.GroupBy(("$C", "$C"), "$P", customers())
        assert "MIX-E002" in {d.code for d in verify_plan(plan)}

    def test_empty_duplicate_variable(self):
        plan = ops.Empty(("$A", "$A"))
        assert [d.code for d in verify_plan(plan)] == ["MIX-E002"]

    def test_error_message_formats_the_empty_schema(self):
        # A select directly above tD sees the empty schema; the message
        # must render it readably rather than as an empty string.
        plan = ops.Select(
            Condition.var_const("$C", "=", 1),
            ops.Project((), customers()),
        )
        (diag,) = verify_plan(plan)
        assert diag.code == "MIX-E001"
        assert "<empty>" in diag.message


class TestPartitionSchemaTracing:
    def _grouped(self):
        return ops.GroupBy(("$C",), "$X", ops.Join((), customers(),
                                                   orders()))

    def _nested(self):
        return ops.GetD(
            "$O", Path.of("order", "value"), "$V", ops.NestedSrc("$X")
        )

    def test_traced_through_select(self):
        plan = ops.Apply(
            self._nested(), "$X", "$Z",
            ops.Select(Condition.var_const("$C", "=", 1), self._grouped()),
        )
        assert verify_plan(plan) == []

    def test_traced_through_join_sides(self):
        plan = ops.Apply(
            self._nested(), "$X", "$Z",
            ops.Join((), self._grouped(), ops.MkSrc("root1", "$D")),
        )
        assert verify_plan(plan) == []

    def test_traced_through_getd(self):
        plan = ops.Apply(
            self._nested(), "$X", "$Z",
            ops.GetD("$C", Path.of("customer", "id"), "$I",
                     self._grouped()),
        )
        assert verify_plan(plan) == []

    def test_untraceable_partition_is_unknown_not_wrong(self):
        # inp_var produced by an rQ: no groupBy to trace to, so the
        # nested plan's consumption must not be guessed either way.
        rq = ops.RelQuery(
            "s", "SELECT id FROM customer",
            [ops.RQVar("$X", "customer", ((0, "id"),), (0,))],
        )
        plan = ops.Apply(self._nested(), "$X", "$Z", rq)
        assert verify_plan(plan) == []

    def test_redefined_partition_var_is_unknown(self):
        # The apply's input variable is (re)defined by a getD, not a
        # groupBy: the partition cannot be traced, so the nested plan's
        # consumption is unknown — neither accepted wrongly nor flagged.
        nested = ops.GetD(
            "$O", Path.of("order", "value"), "$V", ops.NestedSrc("$I")
        )
        plan = ops.Apply(
            nested, "$I", "$Z",
            ops.GetD("$C", Path.of("customer", "id"), "$I",
                     self._grouped()),
        )
        assert verify_plan(plan) == []


class TestUnknownSchemasSuppressChecks:
    def test_consumption_over_unknown_schema_is_not_flagged(self):
        # A bare nestedSrc is itself a free context variable (MIX-E005),
        # but its unknown schema must not make the getD above *guess*
        # a second violation: exactly one finding.
        plan = ops.GetD(
            "$A", Path.of("customer", "id"), "$B", ops.NestedSrc("$A")
        )
        assert [d.code for d in verify_plan(plan)] == ["MIX-E005"]

    def test_duplicate_detection_still_works_below(self):
        # ...and errors in statically-known subtrees still surface next
        # to the unknown branch.
        plan = ops.Join(
            (),
            ops.NestedSrc("$A"),
            ops.GetD("$C", Path.of("customer", "id"), "$C", customers()),
        )
        assert sorted(d.code for d in verify_plan(plan)) == [
            "MIX-E002", "MIX-E005",
        ]
