"""The rewrite rules (Table 2 of the paper, plus the supporting passes
the worked example of Figures 13-21 relies on).

Each rule is a callable object: ``rule.apply(node, ctx)`` either returns
a :class:`RuleResult` — the replacement subtree plus an optional *global*
variable renaming ("the only change made in the rest of the plan by a
rewriting rule application is the possible renaming of variables") — or
``None`` when the rule does not match at ``node``.

Correspondence with the paper's Table 2:

===========================  ==================================================
Rule object                   Table-2 rows / paper pass
===========================  ==================================================
``ComposeMkSrcTD``            row 11 (eliminate ``tD``/``mksrc`` of composition)
``GetDThroughCrElt``          rows 1-4 (path vs ``crElt``; row 2 identifies
                              variables, row 4 yields ``Empty``)
``GetDThroughCat``            rows 5-8 (path vs ``cat``; statically resolving
                              which operand can match)
``GetDIntoApply``             row 9 (join introduction over the group vars)
``GetDPushdown``              row 10-style commuting (push ``getD`` below
                              operators it does not interact with, and into
                              the join/semijoin branch that defines its input)
``SelectPushdown``            the "selection conditions are pushed down as far
                              as possible" pass (Fig. 19)
``JoinToSemiJoin``            the live-variable analysis of Fig. 20
``SemiJoinBelowGroupBy``      row 12 (push the semijoin below gBy, Fig. 21)
``EmptyPropagation``          consequence closure of row 4
``DeadOperatorElimination``   "all operators which create bindings which are
                              not used by the query can simply be removed"
===========================  ==================================================
"""

from __future__ import annotations

from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import all_vars, inline_nested, rename_vars
from repro.rewriter.rule import Rule, RuleResult
from repro.xmltree.paths import Path, Step

__all__ = [
    "ComposeMkSrcTD", "DEFAULT_RULES", "DeadOperatorElimination",
    "EmptyPropagation", "GetDIntoApply", "GetDPushdown", "GetDThroughCat",
    "GetDThroughCrElt", "JoinToSemiJoin", "Rule", "RuleResult",
    "SelectPushdown", "SemiJoinBelowGroupBy",
]

LIST_STEP = Step(Step.LABEL, "list")


def _starts_with_list(path):
    if not path.steps:
        return False
    head = path.steps[0]
    return head.kind == Step.WILD or (
        head.kind == Step.LABEL and head.label == "list"
    )


def _empty_for(node, ctx):
    return ops.Empty(ctx.defined_vars(node) or ())


class ComposeMkSrcTD(Rule):
    """Table 2, row 11: ``mksrc(viewid, $X)`` over ``tD($1, viewid)``
    collapses to the view body with ``$X`` identified with ``$1``."""

    name = "compose-mksrc-tD (rule 11)"
    schema_contract = "widen"  # the view body's variables surface
    matches = (ops.MkSrc,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.MkSrc) or node.input is None:
            return None
        if not isinstance(node.input, ops.TD):
            return None
        td = node.input
        rename = {node.var: td.var} if node.var != td.var else {}
        return RuleResult(td.input, rename)


class GetDThroughCrElt(Rule):
    """Table 2, rows 1-4: match a ``getD`` path against the ``crElt``
    that constructs its input variable's elements."""

    name = "getD-through-crElt (rules 1-4)"
    schema_contract = "preserve"
    matches = (ops.GetD,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.GetD):
            return None
        crelt = node.input
        if not isinstance(crelt, ops.CrElt) or crelt.out_var != node.in_var:
            return None
        path = node.path
        if not path.steps:
            return None
        head = path.steps[0]
        if head.kind == Step.DATA:
            return None  # atomization of a constructed element: leave
        if head.kind == Step.LABEL and head.label != crelt.label:
            # Row 4: the path provably matches nothing.
            return RuleResult(_empty_for(node, ctx))
        residual = path.residual()
        if residual.is_empty():
            # Row 2: the path addresses the constructed element itself;
            # identify the output variable with the crElt variable.
            return RuleResult(crelt, {node.out_var: crelt.out_var})
        if residual.steps[0].kind == Step.DATA:
            return None  # data() on the constructed element: leave
        if crelt.ch_is_list:
            # Rows 3/7 shape: the child is a single element; continue the
            # path directly from it.
            new_path = residual
        else:
            # Row 1: the children come from the list bound to $W;
            # re-root the path at the list.
            new_path = Path((LIST_STEP,) + residual.steps)
        pushed = ops.GetD(crelt.ch_var, new_path, node.out_var, crelt.input)
        return RuleResult(crelt.with_children((pushed,)))


class GetDThroughCat(Rule):
    """Table 2, rows 5-8: resolve a ``getD`` over a concatenation by
    deciding statically which operand's elements can match the path."""

    name = "getD-through-cat (rules 5-8)"
    schema_contract = "preserve"
    matches = (ops.GetD,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.GetD):
            return None
        cat = node.input
        if not isinstance(cat, ops.Cat) or cat.out_var != node.in_var:
            return None
        path = node.path
        if not _starts_with_list(path):
            return RuleResult(_empty_for(node, ctx))
        residual = path.residual()
        if residual.is_empty() or residual.steps[0].kind == Step.DATA:
            return RuleResult(_empty_for(node, ctx))

        def operand_labels(var, single):
            if single:
                return ctx.var_labels(var)
            return ctx.list_item_labels(var)

        can_x = ctx.labels_can_match(
            operand_labels(cat.x_var, cat.x_single), residual
        )
        can_y = ctx.labels_can_match(
            operand_labels(cat.y_var, cat.y_single), residual
        )
        if can_x and can_y:
            return None  # statically unresolvable: evaluate as-is
        if not can_x and not can_y:
            return RuleResult(_empty_for(node, ctx))
        var, single = (
            (cat.x_var, cat.x_single) if can_x else (cat.y_var, cat.y_single)
        )
        if single:
            new_path = residual
        else:
            new_path = Path((LIST_STEP,) + residual.steps)
        pushed = ops.GetD(var, new_path, node.out_var, cat.input)
        return RuleResult(cat.with_children((pushed,)))


class GetDIntoApply(Rule):
    """Table 2, row 9: push a ``getD`` over an ``apply``'d nested plan by
    joining a renamed copy of the group's input on the group variables.

    "This has the effect of creating an additional copy of the bindings
    of the variables appearing in the nested plan.  This allows us to
    push the selection conditions ... along one branch of the join
    without losing any of the bindings."
    """

    name = "getD-into-apply (rule 9)"
    schema_contract = "widen"  # adds the renamed copy branch
    matches = (ops.GetD,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.GetD):
            return None
        apply_op = node.input
        if (
            not isinstance(apply_op, ops.Apply)
            or apply_op.out_var != node.in_var
            or not isinstance(apply_op.plan, ops.TD)
            or apply_op.inp_var is None
        ):
            return None
        gby = apply_op.input
        if not isinstance(gby, ops.GroupBy) or gby.out_var != apply_op.inp_var:
            return None
        path = node.path
        if not _starts_with_list(path):
            return RuleResult(_empty_for(node, ctx))
        residual = path.residual()
        if residual.is_empty():
            return RuleResult(_empty_for(node, ctx))

        inner_td = apply_op.plan
        copy_body = inline_nested(inner_td.input, apply_op.inp_var, gby.input)
        # Rename every variable of the copy to a fresh primed name.
        rename = {
            var: ctx.vars.fresh(var + "_c")
            for var in sorted(all_vars(copy_body))
        }
        copy_body = rename_vars(copy_body, rename)
        inner_var = rename.get(inner_td.var, inner_td.var)
        left = ops.GetD(inner_var, residual, node.out_var, copy_body)
        conditions = tuple(
            Condition.key_equals(rename.get(g, g), g) for g in gby.group_vars
        )
        return RuleResult(ops.Join(conditions, left, apply_op))


class GetDPushdown(Rule):
    """Commute a ``getD`` below operators it does not interact with, and
    into the join/semijoin branch that defines its input variable."""

    name = "getD-pushdown"
    schema_contract = "preserve"
    matches = (ops.GetD,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.GetD):
            return None
        below = node.input
        if isinstance(below, (ops.CrElt, ops.Cat, ops.Apply, ops.GroupBy)):
            if below.out_var == node.in_var:
                return None  # interaction: other rules own this case
            if isinstance(below, ops.GroupBy):
                # Sound only when getD reads a group variable and the
                # result is regrouped — multiplicity changes otherwise.
                return None
            pushed = node.with_children((below.input,))
            return RuleResult(below.with_children((pushed,)))
        if isinstance(below, ops.OrderBy):
            pushed = node.with_children((below.input,))
            return RuleResult(below.with_children((pushed,)))
        if isinstance(below, ops.Join):
            left_def = ctx.defined_vars(below.left) or frozenset()
            right_def = ctx.defined_vars(below.right) or frozenset()
            if node.in_var in left_def:
                pushed = node.with_children((below.left,))
                return RuleResult(
                    below.with_children((pushed, below.right))
                )
            if node.in_var in right_def:
                pushed = node.with_children((below.right,))
                return RuleResult(
                    below.with_children((below.left, pushed))
                )
            return None
        if isinstance(below, ops.SemiJoin):
            kept = below.left if below.keep == "left" else below.right
            kept_def = ctx.defined_vars(kept) or frozenset()
            if node.in_var in kept_def:
                pushed = node.with_children((kept,))
                children = (
                    (pushed, below.right)
                    if below.keep == "left"
                    else (below.left, pushed)
                )
                return RuleResult(below.with_children(children))
            return None
        return None


class SelectPushdown(Rule):
    """Push selections down as far as possible (Fig. 19)."""

    name = "select-pushdown"
    schema_contract = "preserve"
    matches = (ops.Select,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.Select):
            return None
        below = node.input
        cond_vars = node.condition.variables()
        if isinstance(below, (ops.GetD, ops.CrElt, ops.Cat, ops.Apply)):
            if below.local_defined_vars() & cond_vars:
                return None
            pushed = node.with_children((below.input,))
            return RuleResult(below.with_children((pushed,)))
        if isinstance(below, ops.OrderBy):
            pushed = node.with_children((below.input,))
            return RuleResult(below.with_children((pushed,)))
        if isinstance(below, ops.GroupBy):
            if not cond_vars <= set(below.group_vars):
                return None
            pushed = node.with_children((below.input,))
            return RuleResult(below.with_children((pushed,)))
        if isinstance(below, ops.Join):
            left_def = ctx.defined_vars(below.left) or frozenset()
            right_def = ctx.defined_vars(below.right) or frozenset()
            if cond_vars <= left_def:
                pushed = node.with_children((below.left,))
                return RuleResult(below.with_children((pushed, below.right)))
            if cond_vars <= right_def:
                pushed = node.with_children((below.right,))
                return RuleResult(below.with_children((below.left, pushed)))
            if cond_vars <= (left_def | right_def):
                merged = ops.Join(
                    below.conditions + (node.condition,),
                    below.left,
                    below.right,
                )
                return RuleResult(merged)
            return None
        if isinstance(below, ops.SemiJoin):
            left_def = ctx.defined_vars(below.left) or frozenset()
            right_def = ctx.defined_vars(below.right) or frozenset()
            if cond_vars <= left_def:
                pushed = node.with_children((below.left,))
                return RuleResult(below.with_children((pushed, below.right)))
            if cond_vars <= right_def:
                pushed = node.with_children((below.right,))
                return RuleResult(below.with_children((below.left, pushed)))
            return None
        return None


class JoinToSemiJoin(Rule):
    """Live-variable analysis: a join whose one side's bindings feed
    nothing downstream becomes a semijoin (Fig. 20).

    Sound because the algebra is set-based: the semijoin keeps one
    record per kept-side binding where the join kept one per witness.
    """

    name = "join-to-semijoin (live variables)"
    schema_contract = "narrow"  # drops the probe side's bindings
    matches = (ops.Join,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.Join):
            return None
        used = ctx.used_above(node)
        left_def = ctx.defined_vars(node.left) or None
        right_def = ctx.defined_vars(node.right) or None
        if left_def is None or right_def is None:
            return None
        if not (left_def & used):
            return RuleResult(
                ops.SemiJoin(node.conditions, node.left, node.right,
                             keep="right")
            )
        if not (right_def & used):
            return RuleResult(
                ops.SemiJoin(node.conditions, node.left, node.right,
                             keep="left")
            )
        return None


class SemiJoinBelowGroupBy(Rule):
    """Table 2, row 12: push a semijoin on the group variables below the
    ``apply``/``gBy`` pair so it can reach the source (Fig. 21)."""

    name = "semijoin-below-gBy (rule 12)"
    schema_contract = "preserve"
    matches = (ops.SemiJoin,)

    def apply(self, node, ctx):
        if not isinstance(node, ops.SemiJoin):
            return None
        if node.keep == "right":
            probe, kept = node.left, node.right
        else:
            probe, kept = node.right, node.left
        if not isinstance(kept, ops.Apply):
            return None
        gby = kept.input
        if not isinstance(gby, ops.GroupBy) or gby.out_var != kept.inp_var:
            return None
        probe_def = ctx.defined_vars(probe) or frozenset()
        for c in node.conditions:
            if not c.variables() <= (set(gby.group_vars) | probe_def):
                return None
        inner_semijoin = ops.SemiJoin(
            node.conditions,
            probe if node.keep == "right" else gby.input,
            gby.input if node.keep == "right" else probe,
            keep=node.keep,
        )
        new_gby = gby.with_children((inner_semijoin,))
        return RuleResult(kept.with_children((new_gby,)))


class EmptyPropagation(Rule):
    """Propagate ``Empty`` upward (consequence of rule 4)."""

    name = "empty-propagation"
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
                return RuleResult(_empty_for(node, ctx))
            return None
        if any(isinstance(c, ops.Empty) for c in children):
            return RuleResult(_empty_for(node, ctx))
        return None


class DeadOperatorElimination(Rule):
    """Remove one-to-one operators whose output variable is dead."""

    name = "dead-operator-elimination"
    schema_contract = "narrow"  # removes the dead output binding

    matches = (ops.CrElt, ops.Cat, ops.Apply)  # the one-to-one operators

    def apply(self, node, ctx):
        if not isinstance(node, self.matches):
            return None
        used = ctx.used_above(node)
        if node.out_var in used:
            return None
        return RuleResult(node.input)


#: The default rule set, in application priority order.
DEFAULT_RULES = (
    EmptyPropagation(),
    ComposeMkSrcTD(),
    GetDThroughCrElt(),
    GetDThroughCat(),
    GetDIntoApply(),
    GetDPushdown(),
    SelectPushdown(),
    SemiJoinBelowGroupBy(),
    JoinToSemiJoin(),
    DeadOperatorElimination(),
)
