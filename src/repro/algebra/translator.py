"""XQuery (Fig. 4 subset) to XMAS plans — the Section 3 translation.

The three clauses translate separately and compose:

* **FOR** — each ``$v IN document(d)/path`` contributes
  ``getD($z.path, $v)(mksrc(d, $z))``; each ``$v IN $u/path`` extends the
  expression that defines ``$u`` with ``getD($u.label(u).path, $v)``
  (paths include the start node's label, so the defining label of ``$u``
  is prepended — compare Fig. 11's ``getD($R.custRec.orderInfo, $S)``).
* **WHERE** — operand paths are materialized into fresh variables with
  ``getD``; ``var op const`` becomes ``select``; ``var op var`` becomes
  ``select`` within one expression or ``join`` across two; leftover
  expressions combine by cartesian product.
* **RETURN** — element creation is ``crElt``, content concatenation is
  ``cat``, group-by lists become ``gBy`` + ``apply`` over a nested plan
  (ending in ``tD``) for the content that varies within a group, and the
  whole query ends in ``tD``.

Group-by fidelity note: when an element's group-by list covers all free
variables of its content (the inner ``<OrderInfo>$O</OrderInfo>{$O}`` of
Fig. 3), grouping is pure duplicate elimination.  The paper's Fig. 6 plan
omits it (keys make duplicates impossible there, and the algebra is
set-based); we do the same.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.xmltree.paths import Path, Step
from repro.algebra import operators as ops
from repro.algebra.conditions import Condition
from repro.algebra.plan import VarFactory
from repro.relational.types import FLIPPED
from repro.xquery import ast as q

_SKOLEM_NAMES = "fghijklmnopqrstuvwxyz"


class _Expr:
    """One entry of the translator's "current set": a plan plus the
    query variables it defines."""

    def __init__(self, plan, variables):
        self.plan = plan
        self.vars = set(variables)


class Translator:
    """Translates parsed queries into XMAS plans."""

    def translate(self, query, root_oid=None):
        """Translate ``query`` (a :class:`QueryExpr`) to a tD-rooted plan."""
        state = _TranslationState(query)
        exprs, var_label = self._translate_for(query, state)
        plan = self._translate_where(query, exprs, var_label, state)
        return self._translate_return(query, plan, var_label, state, root_oid)

    # -- FOR ---------------------------------------------------------------------

    def _translate_for(self, query, state):
        exprs = []
        var_label = {}
        for binding in query.for_bindings:
            operand = binding.operand
            if operand.path.is_empty():
                raise TranslationError(
                    "FOR binding {} needs a non-empty path".format(binding.var)
                )
            if isinstance(operand.root, q.DocRoot):
                src_var = state.vars.fresh("$")
                plan = ops.GetD(
                    src_var,
                    operand.path,
                    binding.var,
                    ops.MkSrc(operand.root.doc_id, src_var),
                )
                exprs.append(_Expr(plan, {src_var, binding.var}))
            else:
                root_var = operand.root.var
                expr = _expr_defining(exprs, root_var, binding.var)
                full_path = _prefix_with_label(
                    operand.path, var_label.get(root_var)
                )
                expr.plan = ops.GetD(
                    root_var, full_path, binding.var, expr.plan
                )
                expr.vars.add(binding.var)
            var_label[binding.var] = _binding_label(operand.path)
        return exprs, var_label

    # -- WHERE --------------------------------------------------------------------

    def _translate_where(self, query, exprs, var_label, state):
        for comparison in query.conditions:
            left = self._resolve_operand(
                comparison.left, exprs, var_label, state
            )
            right = self._resolve_operand(
                comparison.right, exprs, var_label, state
            )
            self._apply_condition(comparison.op, left, right, exprs)
        # Combine any remaining expressions by cartesian product.
        while len(exprs) > 1:
            left = exprs.pop(0)
            right = exprs.pop(0)
            exprs.insert(
                0, _Expr(
                    ops.Join((), left.plan, right.plan),
                    left.vars | right.vars,
                ),
            )
        if not exprs:
            raise TranslationError("query has no FOR bindings")
        return exprs[0].plan

    def _resolve_operand(self, operand, exprs, var_label, state):
        """Resolve a condition operand to ('const', v) or ('var', $v)."""
        if isinstance(operand, q.Literal):
            return ("const", operand.value)
        if operand.is_bare_var:
            var = operand.root.var
            _expr_defining(exprs, var, "<condition>")
            return ("var", var)
        if isinstance(operand.root, q.VarRoot):
            root_var = operand.root.var
            expr = _expr_defining(exprs, root_var, "<condition>")
            cond_var = state.vars.fresh("$")
            full_path = _prefix_with_label(
                operand.path, var_label.get(root_var)
            )
            expr.plan = ops.GetD(root_var, full_path, cond_var, expr.plan)
            expr.vars.add(cond_var)
            return ("var", cond_var)
        # Document-rooted condition operand: a new source expression.
        src_var = state.vars.fresh("$")
        cond_var = state.vars.fresh("$")
        plan = ops.GetD(
            src_var,
            operand.path,
            cond_var,
            ops.MkSrc(operand.root.doc_id, src_var),
        )
        exprs.append(_Expr(plan, {src_var, cond_var}))
        return ("var", cond_var)

    def _apply_condition(self, op, left, right, exprs):
        lkind, lval = left
        rkind, rval = right
        if lkind == "const" and rkind == "const":
            raise TranslationError("constant-only conditions are not useful")
        if lkind == "const":
            # Normalise to var-op-const.
            condition = Condition.var_const(rval, FLIPPED[op], lval)
            expr = _expr_defining(exprs, rval, "<condition>")
            expr.plan = ops.Select(condition, expr.plan)
            return
        if rkind == "const":
            condition = Condition.var_const(lval, op, rval)
            expr = _expr_defining(exprs, lval, "<condition>")
            expr.plan = ops.Select(condition, expr.plan)
            return
        left_expr = _expr_defining(exprs, lval, "<condition>")
        right_expr = _expr_defining(exprs, rval, "<condition>")
        condition = Condition.var_var(lval, op, rval)
        if left_expr is right_expr:
            left_expr.plan = ops.Select(condition, left_expr.plan)
            return
        exprs.remove(left_expr)
        exprs.remove(right_expr)
        exprs.append(
            _Expr(
                ops.Join((condition,), left_expr.plan, right_expr.plan),
                left_expr.vars | right_expr.vars,
            )
        )

    # -- RETURN --------------------------------------------------------------------

    def _translate_return(self, query, plan, var_label, state, root_oid):
        ret = query.ret
        if isinstance(ret, q.VarRef):
            return ops.TD(ret.var, plan, root_oid)
        out_plan, out_var, __ = self._build_element(ret, plan, state)
        return ops.TD(out_var, out_plan, root_oid)

    def _build_element(self, elem, plan, state):
        """Build one element per (group of) input tuple(s).

        Returns ``(plan, out_var, is_single)`` where ``out_var`` is bound
        to the constructed element in every output tuple.
        """
        fn = state.next_skolem()
        if elem.group_by:
            plan, out_var = self._build_grouped(elem, plan, state, fn)
        else:
            plan, out_var = self._build_ungrouped(elem, plan, state, fn)
        return plan, out_var, True

    def _build_ungrouped(self, elem, plan, state, fn):
        parts = []
        for content in elem.contents:
            plan, var, single = self._build_content(content, plan, state)
            parts.append((var, single))
        plan, ch_var, ch_is_list = self._fold_cat(parts, plan, state)
        skolem_args = sorted(elem.free_vars())
        out_var = state.vars.fresh("$V")
        plan = ops.CrElt(
            elem.label, fn, skolem_args, ch_var, ch_is_list, out_var, plan
        )
        return plan, out_var

    def _build_grouped(self, elem, plan, state, fn):
        group_vars = list(elem.group_by)
        runs = _split_contents(elem.contents, set(group_vars))
        has_varying = any(kind == "varying" for kind, __ in runs)
        part_var = None
        if has_varying:
            part_var = state.vars.fresh("$X")
            plan = ops.GroupBy(group_vars, part_var, plan)
        parts = []
        for kind, contents in runs:
            if kind == "const":
                for content in contents:
                    plan, var, single = self._build_content(
                        content, plan, state
                    )
                    parts.append((var, single))
            else:
                plan, list_var = self._build_varying_run(
                    contents, part_var, plan, state
                )
                parts.append((list_var, False))
        plan, ch_var, ch_is_list = self._fold_cat(parts, plan, state)
        out_var = state.vars.fresh("$V")
        plan = ops.CrElt(
            elem.label, fn, group_vars, ch_var, ch_is_list, out_var, plan
        )
        return plan, out_var

    def _build_varying_run(self, contents, part_var, plan, state):
        """One ``apply`` computing a maximal run of group-varying content."""
        nested_plan = ops.NestedSrc(part_var)
        nested_parts = []
        for content in contents:
            nested_plan, var, single = self._build_content(
                content, nested_plan, state
            )
            nested_parts.append((var, single))
        if len(nested_parts) == 1:
            td_var = nested_parts[0][0]
        else:
            nested_plan, td_var, __ = self._fold_cat(
                nested_parts, nested_plan, state
            )
        nested_plan = ops.TD(td_var, nested_plan)
        list_var = state.vars.fresh("$Z")
        plan = ops.Apply(nested_plan, part_var, list_var, plan)
        return plan, list_var

    def _build_content(self, content, plan, state):
        """Returns ``(plan, var, is_single)`` for one content item."""
        if isinstance(content, q.VarRef):
            return plan, content.var, True
        if isinstance(content, q.ElemExpr):
            plan, var, single = self._build_element(content, plan, state)
            return plan, var, single
        if isinstance(content, q.QueryExpr):
            free = content.free_vars()
            if free:
                raise TranslationError(
                    "correlated nested queries are not supported "
                    "(free variables {})".format(sorted(free))
                )
            nested_plan = self.translate(content)
            var = state.vars.fresh("$Q")
            plan = ops.Apply(nested_plan, None, var, plan)
            return plan, var, False
        raise TranslationError(
            "unsupported RETURN content {!r}".format(content)
        )

    def _fold_cat(self, parts, plan, state):
        """Concatenate content parts in document order with ``cat``."""
        if not parts:
            raise TranslationError("element has no content")
        if len(parts) == 1:
            var, single = parts[0]
            return plan, var, single
        acc_var, acc_single = parts[0]
        for var, single in parts[1:]:
            out = state.vars.fresh("$W")
            plan = ops.Cat(acc_var, acc_single, var, single, out, plan)
            acc_var, acc_single = out, False
        return plan, acc_var, acc_single


class _TranslationState:
    def __init__(self, query):
        self.vars = VarFactory()
        self.vars.reserve(_query_vars(query))
        self._skolem_index = 0

    def next_skolem(self):
        index = self._skolem_index
        self._skolem_index += 1
        if index < len(_SKOLEM_NAMES):
            return _SKOLEM_NAMES[index]
        return "f{}".format(index)


def _query_vars(query):
    out = set()
    for binding in query.for_bindings:
        out.add(binding.var)
        if isinstance(binding.operand.root, q.VarRoot):
            out.add(binding.operand.root.var)
    for comparison in query.conditions:
        for operand in (comparison.left, comparison.right):
            if isinstance(operand, q.PathOperand) and isinstance(
                operand.root, q.VarRoot
            ):
                out.add(operand.root.var)
    out |= _ret_vars(query.ret)
    return out


def _ret_vars(ret):
    if isinstance(ret, q.VarRef):
        return {ret.var}
    if isinstance(ret, q.ElemExpr):
        out = set(ret.group_by)
        for content in ret.contents:
            out |= _ret_vars(content)
        return out
    if isinstance(ret, q.QueryExpr):
        return _query_vars(ret)
    return set()


def _expr_defining(exprs, var, context):
    for expr in exprs:
        if var in expr.vars:
            return expr
    raise TranslationError(
        "variable {} used in {} is not bound by FOR".format(var, context)
    )


def _prefix_with_label(path, label):
    if label is None:
        # The defining path ended in a wildcard (or data()): fall back to
        # a wildcard start step so the path still includes the start node.
        return Path((Step(Step.WILD),) + path.steps)
    return path.prepend(label)


def _binding_label(path):
    """The label a FOR-bound variable's nodes carry (last label step)."""
    steps = path.without_data().steps
    if steps and steps[-1].kind == Step.LABEL:
        return steps[-1].label
    return None


def _split_contents(contents, group_vars):
    """Split content into maximal runs of const / group-varying items."""
    runs = []
    for content in contents:
        varying = bool(_content_free_vars(content) - group_vars)
        kind = "varying" if varying else "const"
        if runs and runs[-1][0] == kind == "varying":
            runs[-1][1].append(content)
        else:
            runs.append((kind, [content]))
    return runs


def _content_free_vars(content):
    if isinstance(content, q.QueryExpr):
        return content.free_vars()
    return content.free_vars()


def translate_query(query, root_oid=None):
    """Convenience: translate a parsed query (or query text) to a plan."""
    if isinstance(query, str):
        from repro.xquery.parser import parse_xquery

        query = parse_xquery(query)
    return Translator().translate(query, root_oid=root_oid)
