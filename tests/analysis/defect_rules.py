"""Deliberately broken rewrite rules — the certifier's test dummies.

Each rule here trips exactly one class of ``check-rules`` finding, so
the CI lint job (and :mod:`tests.analysis.test_rulecheck`) can assert
that every diagnostic code actually fires with rule-name provenance:

================================  =================================
Rule                               Intended finding
================================  =================================
``defect-drop-binding``            MIX-E012 (schema contract): turns a
                                   ``getD`` into its input, silently
                                   dropping the output binding while
                                   declaring contract ``"preserve"``.
``defect-flip-flop``               MIX-E013 (single-rule cycle): swaps
                                   join operands, forever.
``defect-ping`` / ``defect-pong``  MIX-E013 (pair cycle): each
                                   terminates alone, together they
                                   bounce a select/orderBy pair.
``defect-never-fires``             MIX-W007: matches an operator shape
                                   no XMAS plan contains.
``defect-shadowed-empty``          MIX-W008: re-implements
                                   empty-propagation behind the real
                                   one, so it can never fire first.
``defect-drop-select``             MIX-E012 (differential): removes
                                   ``select`` filters — statically
                                   schema-transparent (contract
                                   ``"none"``), caught only by the
                                   answer-preservation workloads.
================================  =================================

``DEFECT_RULES`` is importable by the CLI, run from the repository
root, as ``--rules=tests.analysis.defect_rules:DEFECT_RULES``.  Never
register these on a production mediator.
"""

from __future__ import annotations

from repro.algebra import operators as ops
from repro.rewriter.rule import Rule, RuleResult


class DropBindingRule(Rule):
    """Claims to preserve the schema, actually drops ``getD`` output."""

    name = "defect-drop-binding"
    schema_contract = "preserve"

    def apply(self, node, ctx):
        if not isinstance(node, ops.GetD):
            return None
        return RuleResult(node.input)


class FlipFlopRule(Rule):
    """Swaps join operands; a single-rule two-step cycle."""

    name = "defect-flip-flop"
    schema_contract = "preserve"

    def apply(self, node, ctx):
        if not isinstance(node, ops.Join):
            return None
        return RuleResult(
            ops.Join(node.conditions, node.right, node.left)
        )


class PingRule(Rule):
    """Hoists an ``orderBy`` above a ``project`` (terminates alone).

    ``project`` is deliberately the pivot: no Table-2 rule matches it,
    so the pair's sites are not shadowed and the cycle is purely the
    pair's own doing.
    """

    name = "defect-ping"
    schema_contract = "preserve"

    def apply(self, node, ctx):
        if not isinstance(node, ops.Project):
            return None
        below = node.input
        if not isinstance(below, ops.OrderBy):
            return None
        pushed = node.with_children((below.input,))
        return RuleResult(below.with_children((pushed,)))


class PongRule(Rule):
    """Hoists a ``project`` above an ``orderBy`` (terminates alone);
    cycles when paired with ``defect-ping``."""

    name = "defect-pong"
    schema_contract = "preserve"

    def apply(self, node, ctx):
        if not isinstance(node, ops.OrderBy):
            return None
        below = node.input
        if not isinstance(below, ops.Project):
            return None
        pushed = node.with_children((below.input,))
        return RuleResult(below.with_children((pushed,)))


class NeverFiresRule(Rule):
    """Matches a ``project`` directly over a ``project`` — a shape the
    translator never emits and no corpus plan contains."""

    name = "defect-never-fires"
    schema_contract = "preserve"

    def apply(self, node, ctx):
        if not isinstance(node, ops.Project):
            return None
        if not isinstance(node.input, ops.Project):
            return None
        return RuleResult(node.input)


class ShadowedEmptyRule(Rule):
    """Re-implements empty-propagation; registered after the real one
    it can never win a site."""

    name = "defect-shadowed-empty"
    schema_contract = "preserve"

    def apply(self, node, ctx):
        if isinstance(node, (ops.Empty, ops.TD)):
            return None
        children = node.children
        if not children:
            return None
        if isinstance(node, ops.SemiJoin):
            kept = node.left if node.keep == "left" else node.right
            probe = node.right if node.keep == "left" else node.left
            if isinstance(kept, ops.Empty) or isinstance(probe, ops.Empty):
                from repro.algebra.plan import defined_vars

                return RuleResult(ops.Empty(defined_vars(node) or ()))
            return None
        if any(isinstance(c, ops.Empty) for c in children):
            from repro.algebra.plan import defined_vars

            return RuleResult(ops.Empty(defined_vars(node) or ()))
        return None


class DropSelectRule(Rule):
    """Removes ``select`` filters.  The root schema is untouched, so no
    static check can reject it — only the differential workloads do."""

    name = "defect-drop-select"
    schema_contract = "none"

    def apply(self, node, ctx):
        if not isinstance(node, ops.Select):
            return None
        return RuleResult(node.input)


#: The seeded-defect corpus, in registration order.
DEFECT_RULES = (
    DropBindingRule(),
    FlipFlopRule(),
    PingRule(),
    PongRule(),
    NeverFiresRule(),
    ShadowedEmptyRule(),
    DropSelectRule(),
)
