"""Rendering of XMAS plans in the paper's figure style.

``render_operator`` yields the one-line spelling the figures use
(``crElt(custRec, f($C), $W, $V)``, ``getD($C.customer.id, $1)``, ...);
``render_plan`` lays a whole plan out as an indented tree with nested
``apply`` plans shown inline, so the outputs are directly comparable with
Figures 6, 9-11 and 13-22.
"""

from __future__ import annotations

from repro.algebra import operators as ops


def render_operator(node):
    """The single-line, paper-style spelling of one operator."""
    if isinstance(node, ops.MkSrc):
        return "mksrc({}, {})".format(node.source, node.var)
    if isinstance(node, ops.GetD):
        return "getD({}.{}, {})".format(node.in_var, node.path, node.out_var)
    if isinstance(node, ops.Select):
        return "select({!r})".format(node.condition)
    if isinstance(node, ops.Project):
        return "project({})".format(", ".join(node.variables))
    if isinstance(node, ops.Join):
        return "join({})".format(_conds(node.conditions))
    if isinstance(node, ops.SemiJoin):
        name = "Lsemijoin" if node.keep == "right" else "Rsemijoin"
        return "{}({})".format(name, _conds(node.conditions))
    if isinstance(node, ops.CrElt):
        ch = "list({})".format(node.ch_var) if node.ch_is_list else node.ch_var
        return "crElt({}, {}({}), {}, {})".format(
            node.label, node.fn, ", ".join(node.skolem_args), ch, node.out_var
        )
    if isinstance(node, ops.Cat):
        x = "list({})".format(node.x_var) if node.x_single else node.x_var
        y = "list({})".format(node.y_var) if node.y_single else node.y_var
        return "cat({}, {}, {})".format(x, y, node.out_var)
    if isinstance(node, ops.TD):
        if node.root_oid is not None:
            return "tD({}, {})".format(node.var, node.root_oid)
        return "tD({})".format(node.var)
    if isinstance(node, ops.GroupBy):
        return "gBy({}, {})".format(", ".join(node.group_vars), node.out_var)
    if isinstance(node, ops.Apply):
        inp = node.inp_var if node.inp_var is not None else "null"
        return "apply(p, {}, {})".format(inp, node.out_var)
    if isinstance(node, ops.NestedSrc):
        return "nSrc({})".format(node.var)
    if isinstance(node, ops.RelQuery):
        varmap = "; ".join(repr(entry) for entry in node.varmap)
        return "rQ({}, <sql>, {{{}}})".format(node.server, varmap)
    if isinstance(node, ops.OrderBy):
        return "orderBy([{}])".format(", ".join(node.variables))
    if isinstance(node, ops.Empty):
        return "∅"
    return "{}(?)".format(type(node).__name__)


def _conds(conditions):
    if not conditions:
        return "true"
    return " and ".join(repr(c) for c in conditions)


def render_plan(plan, indent=0, show_sql=True):
    """A multi-line, indented rendering of a whole plan.

    Nested ``apply`` plans are printed under a ``p:`` header one level
    deeper, mirroring the paper's inline boxes.
    """
    lines = []
    _render(plan, indent, lines, show_sql)
    return "\n".join(lines)


def _render(node, depth, lines, show_sql):
    pad = "  " * depth
    lines.append(pad + render_operator(node))
    if isinstance(node, ops.Apply):
        lines.append(pad + "  p:")
        _render(node.plan, depth + 2, lines, show_sql)
    if isinstance(node, ops.RelQuery) and show_sql:
        for sql_line in node.display_sql.splitlines():
            lines.append(pad + "  | " + sql_line.strip())
    for child in node.children:
        _render(child, depth + 1, lines, show_sql)
