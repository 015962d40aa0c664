"""Tests for first-class rule registration (repro.rewriter.rule)."""

import pytest

from repro.algebra import operators as ops
from repro.errors import RewriteError, RuleCertificationError
from repro.rewriter import Rewriter
from repro.rewriter.rule import (
    Rule,
    RuleResult,
    is_certifiable,
    validate_rule,
)
from repro.rewriter.rules import DEFAULT_RULES
from repro.xmltree.paths import Path
from tests.conftest import make_paper_wrapper


def getd_plan():
    return ops.GetD(
        "$K", Path.of("a"), "$A", ops.MkSrc("root1", "$K")
    )


class TagRule(Rule):
    """Fires once on the first select it sees, recording its name."""

    schema_contract = "preserve"

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def apply(self, node, ctx):
        if not isinstance(node, ops.Select):
            return None
        self.log.append(self.name)
        return RuleResult(node.input)


def select_plan():
    from repro.algebra.conditions import Condition

    return ops.Select(Condition.var_const("$A", ">", 1), getd_plan())


class TestValidation:
    def test_rejects_empty_name(self):
        class Nameless(Rule):
            schema_contract = "preserve"

            def apply(self, node, ctx):
                return None

        with pytest.raises(RewriteError, match="name"):
            validate_rule(Nameless())

    def test_rejects_unknown_contract(self):
        class BadContract(Rule):
            name = "bad-contract"
            schema_contract = "sideways"

            def apply(self, node, ctx):
                return None

        with pytest.raises(RewriteError, match="contract"):
            validate_rule(BadContract())

    def test_rejects_missing_apply(self):
        class NoApply:
            name = "no-apply"
            schema_contract = "preserve"

        with pytest.raises(RewriteError, match="apply"):
            validate_rule(NoApply())

    def test_accepts_duck_typed_rule(self):
        class Ducky:
            name = "ducky"

            def apply(self, node, ctx):
                return None

        validate_rule(Ducky())  # no explicit contract: fine non-strict
        assert not is_certifiable(Ducky())

    def test_invalid_rule_is_not_certifiable(self):
        class NoApply:
            name = "no-apply"
            schema_contract = "preserve"

        assert not is_certifiable(NoApply())

    def test_base_rule_apply_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Rule().apply(getd_plan(), None)

    def test_default_rules_are_certifiable(self):
        for rule in DEFAULT_RULES:
            assert is_certifiable(rule), rule


class TestRegistration:
    def test_duplicate_name_rejected(self):
        log = []
        rewriter = Rewriter(rules=[TagRule("twin", log)])
        with pytest.raises(RewriteError, match="duplicate rule name"):
            rewriter.register(TagRule("twin", log))

    def test_duplicate_of_default_rule_rejected(self):
        rewriter = Rewriter()

        class Imposter(Rule):
            name = "select-pushdown"
            schema_contract = "preserve"

            def apply(self, node, ctx):
                return None

        with pytest.raises(RewriteError, match="duplicate rule name"):
            rewriter.register(Imposter())

    def test_registration_order_is_priority(self):
        log = []
        first = TagRule("first", log)
        second = TagRule("second", log)
        Rewriter(rules=[first, second]).rewrite(select_plan())
        assert log[0] == "first"

        log2 = []
        Rewriter(
            rules=[TagRule("second", log2), TagRule("first", log2)]
        ).rewrite(select_plan())
        assert log2[0] == "second"

    def test_register_returns_self_for_chaining(self):
        log = []
        rewriter = Rewriter(rules=())
        assert rewriter.register(TagRule("chained", log)) is rewriter


class Probe:
    """A duck-typed rule that never fires and logs where it was asked."""

    schema_contract = "preserve"

    def __init__(self, name, matches=None):
        self.name = name
        self.seen = []
        if matches is not None:
            self.matches = matches

    def apply(self, node, ctx):
        self.seen.append(type(node))
        return None


class TestTypedDispatch:
    def test_undeclared_rule_is_probed_at_every_node(self):
        rule = Probe("everywhere")
        rewriter = Rewriter(rules=[rule])
        rewriter.rewrite(select_plan())
        assert rule.seen == [ops.Select, ops.GetD, ops.MkSrc]
        assert rewriter.last_probes == 3

    def test_declared_rule_is_probed_at_its_types_only(self):
        typed = Probe("typed", matches=(ops.GetD, ops.MkSrc))
        untyped = Probe("untyped")
        rewriter = Rewriter(rules=[typed, untyped])
        rewriter.rewrite(select_plan())
        assert typed.seen == [ops.GetD, ops.MkSrc]
        assert rewriter.last_probes == 5

    def test_priority_order_survives_dispatch(self):
        log = []

        class First(TagRule):
            matches = (ops.Select,)

        rewriter = Rewriter(
            rules=[TagRule("untyped", log), First("typed", log)]
        )
        rewriter.rewrite(select_plan())
        assert log == ["untyped"]

    def test_operator_class_defined_after_registration(self):
        rule = Probe("selects", matches=(ops.Select,))
        rewriter = Rewriter(rules=[rule, Probe("everywhere")])

        class LateSelect(ops.Select):
            pass

        from repro.algebra.conditions import Condition

        plan = LateSelect(Condition.var_const("$A", ">", 1), getd_plan())
        table = dict(rewriter._dispatch)
        rewriter.rewrite(plan)
        assert rule.seen == [LateSelect]
        # The table belongs to register(): a rewrite leaves it alone.
        assert rewriter._dispatch == table

    def test_default_rules_declare_where_they_match(self):
        undeclared = [
            r.name for r in DEFAULT_RULES
            if getattr(r, "matches", None) is None
        ]
        assert undeclared == ["empty-propagation"]


class TestMediatorExtensionRules:
    def _mediator(self, **kw):
        from repro import Mediator

        return Mediator(**kw).add_source(make_paper_wrapper())

    def test_extension_rule_registered_after_defaults(self):
        log = []
        mediator = self._mediator(extension_rules=[TagRule("ext", log)])
        names = [getattr(r, "name", "") for r in mediator._rewriter.rules]
        assert names[-1] == "ext"
        assert len(names) == len(DEFAULT_RULES) + 1

    def test_cross_mediator_rule_sets_are_isolated(self):
        log = []
        extended = self._mediator(extension_rules=[TagRule("ext", log)])
        plain = self._mediator()
        assert len(plain._rewriter.rules) == len(DEFAULT_RULES)
        assert len(extended._rewriter.rules) == len(DEFAULT_RULES) + 1
        # DEFAULT_RULES itself was not mutated by either construction.
        assert len(DEFAULT_RULES) == 10

    def test_duplicate_extension_name_rejected(self):
        log = []
        with pytest.raises(RewriteError, match="duplicate rule name"):
            self._mediator(
                extension_rules=[TagRule("twin", log), TagRule("twin", log)]
            )

    def test_strict_mediator_refuses_uncertifiable_rule(self):
        class Sloppy:
            name = "sloppy"

            def apply(self, node, ctx):
                return None

        with pytest.raises(RuleCertificationError, match="metadata"):
            self._mediator(strict=True, extension_rules=[Sloppy()])

    def test_strict_mediator_refuses_defective_rule(self):
        from tests.analysis.defect_rules import DropBindingRule

        with pytest.raises(RuleCertificationError) as info:
            self._mediator(strict=True, extension_rules=[DropBindingRule()])
        assert any(
            d.source == "defect-drop-binding" and d.code == "MIX-E012"
            for d in info.value.diagnostics
        )

    def test_strict_mediator_accepts_certified_rule(self):
        class Inert(Rule):
            name = "ext-inert"
            schema_contract = "preserve"

            def apply(self, node, ctx):
                return None

        # An inert rule is dead (W007) but warnings do not block
        # registration — only error-severity findings do.
        mediator = self._mediator(strict=True, extension_rules=[Inert()])
        names = [getattr(r, "name", "") for r in mediator._rewriter.rules]
        assert "ext-inert" in names
