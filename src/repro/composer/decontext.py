"""Decontextualization: queries from nodes reached by navigation (§5).

Given a view plan ``pQ`` (tD-rooted), the provenance decoded from the
start node's id (the variable the node was bound to before ``tD`` plus
the group-key values of its enclosing elements), and the plan of the
in-place query, this module builds the composed, context-free plan of
Fig. 10:

1. drop the view's top ``tD`` — the query operates on binding tuples;
2. add one selection per decoded group value, pinning the context
   (``select($C = &XYZ123)``);
3. re-root the query: its ``mksrc(root, $M)`` bound ``$M`` to the
   *children* of the start node, so each ``getD($M.path, ...)`` becomes
   ``getD($ctx.label(ctx).path, ...)`` over the pinned view body (the
   path gains the context node's label, per the paper's
   include-the-start-label convention).  When ``$M`` is used by anything
   other than ``getD`` operators, a generic child-expansion
   ``getD($ctx.label.*, $M)`` is inserted instead.

The result "delivers a query that does not depend on the context set by
q and x, which makes the solution applicable to sources with no powerful
context mechanisms" — it is then optimized by the ordinary rewriter.
"""

from __future__ import annotations

from repro.errors import CompositionError
from repro.xmltree.paths import Path, Step, WILDCARD
from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import inline_nested, iter_operators, replace_operator
from repro.composer.compose import (
    compose_at_root,
    freshen_against,
    root_source_operators,
)


def decontextualize(view_plan, provenance, query_plan, view_id=None):
    """The composed, context-free plan for a query issued from a node.

    Args:
        view_plan: the tD-rooted plan of the query that produced the
            result being navigated.
        provenance: :class:`repro.engine.vtree.Provenance` decoded from
            the start node's id; ``var=None`` means the result root.
        query_plan: the tD-rooted plan of the in-place query (referring
            to the start node through ``mksrc(root, ...)``).
    """
    if provenance.var is None and not provenance.fixed:
        return compose_at_root(view_plan, query_plan, view_id)
    if provenance.var is None:
        raise CompositionError(
            "cannot decontextualize: the node id does not identify a "
            "plan variable"
        )
    if not isinstance(view_plan, ops.TD):
        raise CompositionError("the view plan must be tD-rooted")

    view_plan, defining_body = _view_defining(view_plan, provenance.var)
    context_label = _context_label(view_plan, provenance.var)
    body, mapping = freshen_against(defining_body, query_plan)
    ctx_var = mapping.get(provenance.var, provenance.var)
    pinned = body
    for var, key in sorted(provenance.fixed.items(), key=lambda kv: kv[0]):
        pinned = _pin(pinned, mapping.get(var, var), str(key))

    targets = root_source_operators(query_plan, view_id)
    if not targets:
        raise CompositionError(
            "the query plan references no root source to decontextualize"
        )
    if len(targets) > 1:
        # Several root references: give each its own pinned copy via the
        # generic child-expansion form.
        composed = query_plan
        for target in targets:
            copy, copy_map = freshen_against(defining_body, composed)
            copy_ctx = copy_map.get(provenance.var, provenance.var)
            copy_pinned = copy
            for var, key in sorted(provenance.fixed.items()):
                copy_pinned = _pin(
                    copy_pinned, copy_map.get(var, var), str(key)
                )
            composed = replace_operator(
                composed,
                target,
                _child_expansion(copy_ctx, context_label, target.var,
                                 copy_pinned),
            )
        return composed

    (target,) = targets
    if _only_used_by_getd(query_plan, target.var):
        composed = _fuse_getds(
            query_plan, target, ctx_var, context_label, pinned
        )
    else:
        composed = replace_operator(
            query_plan,
            target,
            _child_expansion(ctx_var, context_label, target.var, pinned),
        )
    return composed


def _pin(plan, var, key):
    """Insert ``select(var = key)`` at the highest point where ``var``
    is still bound.

    A group-by projects away the variables outside its group list (the
    outer ``$C`` disappears above an inner ``gBy($O)``), so a pin on a
    projected-away variable must sink below the grouping — it filters
    the partition contents exactly as the Section-5 construction needs.
    """
    from repro.algebra.plan import defined_vars

    out_vars = defined_vars(plan)
    if out_vars is not None and var in out_vars:
        return ops.Select(Condition.oid_equals(var, key), plan)
    children = plan.children
    for index, child in enumerate(children):
        if _binds_somewhere(child, var):
            new_children = list(children)
            new_children[index] = _pin(child, var, key)
            return plan.with_children(tuple(new_children))
    raise CompositionError(
        "cannot pin {}: not bound anywhere in the view body".format(var)
    )


def _binds_somewhere(plan, var):
    from repro.algebra.plan import defined_vars

    out_vars = defined_vars(plan)
    if out_vars is not None and var in out_vars:
        return True
    return any(_binds_somewhere(child, var) for child in plan.children)


def _view_defining(view_plan, var):
    """``(view plan, body)``: the tD-rooted plan whose body binds
    ``var``, and that body (see :func:`_body_defining`).

    It is ``view_plan`` itself unless ``var`` was created by a named
    view the plan reads: on a plan the rewriter has not run over, that
    view's plan is still the input of a ``mksrc`` (rule 11 folds the
    pair away), and a node it built keeps that view's provenance.
    """
    try:
        return view_plan, _body_defining(view_plan.input, var)
    except CompositionError:
        for node in iter_operators(view_plan.input):
            if isinstance(node, ops.MkSrc) and isinstance(node.input, ops.TD):
                try:
                    return node.input, _body_defining(node.input.input, var)
                except CompositionError:
                    continue
        raise


def _body_defining(view_body, var):
    """The tuple-producing plan in whose output ``var`` is bound.

    A variable created in the main operator spine is bound in the view
    body itself.  A variable created inside an ``apply``'s nested plan
    (the OrderInfo elements of Fig. 6) is only bound within the
    partition: the nested plan is *inlined* — its ``nestedSrc`` replaced
    by the group-by's input, its top ``tD`` dropped — yielding a flat
    plan whose tuples bind both the nested variable and the group
    variables, which the pinning selections then fix.
    """
    from repro.algebra.plan import defined_vars

    spine_vars = defined_vars(view_body)
    if spine_vars is not None and var in spine_vars:
        return view_body
    for node in iter_operators(view_body):
        if not isinstance(node, ops.Apply) or node.inp_var is None:
            continue
        nested = node.plan
        nested_body = nested.input if isinstance(nested, ops.TD) else nested
        gby = node.input
        if not isinstance(gby, ops.GroupBy) or gby.out_var != node.inp_var:
            continue
        inlined = inline_nested(nested_body, node.inp_var, gby.input)
        inlined_vars = defined_vars(inlined)
        if inlined_vars is not None and var in inlined_vars:
            return inlined
        deeper = _body_defining(inlined, var)
        if deeper is not inlined:
            return deeper
        deeper_vars = defined_vars(deeper)
        if deeper_vars is not None and var in deeper_vars:
            return deeper
    raise CompositionError(
        "variable {} is not produced by the view plan".format(var)
    )


def _context_label(view_plan, var):
    """The element label of the context variable's nodes in the view."""
    from repro.rewriter.context import RewriteContext

    labels = RewriteContext(view_plan).var_labels(var)
    if len(labels) == 1:
        (label,) = labels
        return label  # may be None -> wildcard
    return None


def _label_step(label):
    if label is None:
        return WILDCARD
    return Step(Step.LABEL, label)


def _child_expansion(ctx_var, label, out_var, input_plan):
    """``getD($ctx.label.*, $M)``: bind ``$M`` to the context's children."""
    path = Path((_label_step(label), WILDCARD))
    return ops.GetD(ctx_var, path, out_var, input_plan)


def _only_used_by_getd(query_plan, var):
    for node in iter_operators(query_plan):
        if isinstance(node, ops.GetD) and node.in_var == var:
            continue
        if var in node.used_vars():
            return False
        if isinstance(node, ops.TD) and node.var == var:
            return False
    return True


def _fuse_getds(query_plan, target, ctx_var, context_label, pinned):
    """Re-root every ``getD($M.path, ...)`` at the context variable.

    ``$M`` ranged over the start node's children; a path from a child
    becomes the same path prefixed with the start node's label, rooted
    at the context variable itself — exactly Fig. 10's
    ``getD(...orderInfo.order, $O)`` over ``select($C = &XYZ123)``.
    """
    composed = replace_operator(query_plan, target, pinned)
    while True:
        changed = False
        for node in iter_operators(composed):
            if isinstance(node, ops.GetD) and node.in_var == target.var:
                new_path = Path(
                    (_label_step(context_label),) + node.path.steps
                )
                replacement = ops.GetD(
                    ctx_var, new_path, node.out_var, node.input
                )
                composed = replace_operator(composed, node, replacement)
                changed = True
                break
        if not changed:
            return composed
