"""Plan splitting and SQL generation (the Fig. 22 step).

"The simplified algebraic plan can then be input to a module which splits
the plan into two components: one part consisting of restructuring and
grouping operators which is executed at the mediator.  The second part
... consists of the initial getD, select, and join operators and is
translated into a query in the appropriate query language for sending to
the sources, and is represented at the mediator by a source access
operator of the appropriate type."

This module finds, top-down, the maximal subtrees built from
``mksrc``/``getD``/``select``/``join``/``semijoin``/``orderBy`` over
relational wrapper documents of a single server, compiles each into one
SQL statement (aliases ``c1, o1, c2, ...`` in the paper's style; a
semijoin becomes a self-join with SELECT DISTINCT), and replaces it by a
``rQ`` operator whose map exports exactly the variables live above the
split point.  When a ``gBy`` consumes the subtree's output, the SQL gains
an ORDER BY on the group variables' key columns (then the other exported
tuples' keys) so the engine can run the presorted stateless gBy of
Table 1 — this is Fig. 22's ``ORDER BY c1.id, o1.orid``.

DISTINCT deviation from the paper: Fig. 22's published SQL encodes the
semijoin as a plain self-join, which duplicates rows when several ``o2``
orders match; we emit SELECT DISTINCT to preserve the set semantics of
the algebra (recorded in EXPERIMENTS.md).

Parameters: a condition whose constant is a
:class:`~repro.algebra.conditions.ParamOperand` (a literal left open by
the plan cache, see :mod:`repro.cache.shapes`) compiles to a ``?N``
placeholder in the statement.  Each statement numbers its placeholders
from ``?0`` and its ``rQ`` records the request slot of each
(``RelQuery.slots``), so a bound ``rQ`` hands its source the slotted
text and just the values it names;
:func:`~repro.relational.ast.bind_sql` spells them in for display.
The split itself never looks at a literal's value.

Cost-based refinements (``cost=True`` plus fresh ``ANALYZE`` statistics
on every referenced table — without both, the emitted SQL is
byte-identical to the seed's):

* the FROM clause lists tables smallest-first by analyzed row count, so
  sources with purely syntactic planners start from the cheapest scan;
* a semijoin's DISTINCT is dropped when the probe side provably cannot
  duplicate rows — a single probe table matched through a full
  primary-key equality (schema-provable, hence safe even for cached
  plans that outlive the statistics).
"""

from __future__ import annotations

from repro.errors import SourceError, UnknownSourceError
from repro.xmltree.paths import Step
from repro.algebra import operators as ops
from repro.algebra.conditions import KEY, OID, VALUE, ParamOperand
from repro.algebra.plan import with_subplans
from repro.relational.ast import replace_params, sql_literal
from repro.rewriter.context import RewriteContext


class _SqlModel:
    """An under-construction SQL statement for one source subtree."""

    def __init__(self, server):
        self.server = server
        self.tables = []       # (table_name, alias, element_label, schema)
        self.env = {}          # var -> ("tuple", alias_idx) | ("col", alias_idx, col, kind)
        self.where = []        # SQL text fragments
        self.order = []        # SQL column refs
        self.distinct = False
        #: True when some semijoin in this model can actually duplicate
        #: rows; DISTINCT then survives even under the cost optimizer.
        self.distinct_required = False
        self.internal_only = set()  # vars not exportable (semijoin probe side)

    def alias_of(self, index):
        return self.tables[index][1]

    def merge(self, other):
        offset = len(self.tables)
        self.tables.extend(other.tables)
        for var, binding in other.env.items():
            if binding[0] == "tuple":
                self.env[var] = ("tuple", binding[1] + offset)
            else:
                self.env[var] = (
                    "col", binding[1] + offset, binding[2], binding[3]
                )
        self.where.extend(other.where)
        self.order.extend(other.order)
        self.distinct = self.distinct or other.distinct
        self.distinct_required = (
            self.distinct_required or other.distinct_required
        )
        self.internal_only |= other.internal_only
        return offset


class _AliasCounter:
    def __init__(self):
        self._counts = {}

    def next_alias(self, table_name):
        count = self._counts.get(table_name, 0) + 1
        self._counts[table_name] = count
        return "{}{}".format(table_name[0], count)


def push_to_sources(plan, catalog, cost=False):
    """Replace maximal relational subtrees of ``plan`` by ``rQ`` leaves.

    ``cost`` enables the statistics-gated SQL refinements (FROM ordering,
    provably redundant DISTINCT elision); they only engage when every
    referenced table carries fresh ``ANALYZE`` statistics.
    """
    ctx = RewriteContext(plan)
    return _transform(plan, plan, ctx, catalog, (), cost)


def _transform(root, node, ctx, catalog, pending_groups, cost):
    if isinstance(node, ops.GroupBy):
        pending_groups = tuple(node.group_vars)
    compiled = _try_compile(node, catalog, _AliasCounter())
    if compiled is not None and _worth_pushing(node):
        return _build_relquery(
            root, node, compiled, ctx, pending_groups, catalog, cost
        )
    return with_subplans(
        node,
        lambda sub: _transform(root, sub, ctx, catalog, pending_groups, cost),
    )


def _worth_pushing(node):
    """A bare ``mksrc`` already streams; push only real query work."""
    return not (isinstance(node, ops.MkSrc) and node.input is None)


# -- compilation -----------------------------------------------------------------


def _try_compile(node, catalog, aliases):
    """A :class:`_SqlModel` for ``node``'s subtree, or ``None``."""
    if isinstance(node, ops.MkSrc):
        return _compile_mksrc(node, catalog, aliases)
    if isinstance(node, ops.GetD):
        return _compile_getd(node, catalog, aliases)
    if isinstance(node, ops.Select):
        return _compile_select(node, catalog, aliases)
    if isinstance(node, ops.Join):
        return _compile_join(node, catalog, aliases, semi=None)
    if isinstance(node, ops.SemiJoin):
        return _compile_join(node, catalog, aliases, semi=node.keep)
    if isinstance(node, ops.OrderBy):
        return _compile_orderby(node, catalog, aliases)
    return None


def _compile_mksrc(node, catalog, aliases):
    if node.input is not None:
        return None
    try:
        source = catalog.source_for(node.source)
    except UnknownSourceError:
        return None
    if not source.supports_sql():
        return None
    doc_id = str(node.source).lstrip("&")
    try:
        table_name = source.table_for_document(doc_id)
        label = source.label_for_document(doc_id)
    except (SourceError, AttributeError):
        return None
    schema = source.describe_table(table_name)
    model = _SqlModel(source.server_name)
    alias = aliases.next_alias(table_name)
    model.tables.append((table_name, alias, label, schema))
    model.env[node.var] = ("tuple", 0)
    return model


def _compile_getd(node, catalog, aliases):
    model = _try_compile(node.input, catalog, aliases)
    if model is None:
        return None
    binding = model.env.get(node.in_var)
    if binding is None:
        return None
    steps = list(node.path.steps)
    ends_with_data = steps and steps[-1].kind == Step.DATA
    if ends_with_data:
        steps = steps[:-1]
    if any(s.kind != Step.LABEL for s in steps):
        return None
    labels = [s.label for s in steps]

    if binding[0] == "tuple":
        alias_idx = binding[1]
        __, __, element_label, schema = model.tables[alias_idx]
        if not labels or labels[0] != element_label:
            return None
        if len(labels) == 1:
            # The tuple object itself (possibly atomized - not useful).
            if ends_with_data:
                return None
            model.env[node.out_var] = ("tuple", alias_idx)
            return model
        if len(labels) == 2 and schema.has_column(labels[1]):
            kind = "leaf" if ends_with_data else "field"
            model.env[node.out_var] = ("col", alias_idx, labels[1], kind)
            return model
        return None

    # binding is a column (field element): only path field[.data()]
    __, alias_idx, column, kind = binding
    if kind != "field":
        return None
    if len(labels) == 1 and labels[0] == column and ends_with_data:
        model.env[node.out_var] = ("col", alias_idx, column, "leaf")
        return model
    return None


def _compile_select(node, catalog, aliases):
    model = _try_compile(node.input, catalog, aliases)
    if model is None:
        return None
    fragment = _condition_sql(node.condition, model, catalog)
    if fragment is None:
        return None
    model.where.extend(fragment)
    return model


def _compile_join(node, catalog, aliases, semi):
    left = _try_compile(node.left, catalog, aliases)
    if left is None:
        return None
    right = _try_compile(node.right, catalog, aliases)
    if right is None:
        return None
    if left.server != right.server:
        return None
    probe_vars = set()
    probe_model = None
    if semi == "left":
        probe_vars = set(right.env)
        probe_model = right
    elif semi == "right":
        probe_vars = set(left.env)
        probe_model = left
    left.merge(right)
    for condition in node.conditions:
        fragment = _condition_sql(condition, left, catalog)
        if fragment is None:
            return None
        left.where.extend(fragment)
    if semi is not None:
        left.distinct = True
        if _semijoin_may_duplicate(node, probe_model):
            left.distinct_required = True
        left.internal_only |= probe_vars
    return left


def _semijoin_may_duplicate(node, probe_model):
    """Whether the semijoin's self-join encoding can duplicate rows.

    ``False`` only when provably not: the probe side is a *single*
    table with a primary key, matched through a full-primary-key
    (KEY-mode) equality — each kept row then joins at most one probe
    row.  This is schema-level reasoning, valid independent of data,
    so a cached plan without the DISTINCT stays correct after DML.
    """
    if len(probe_model.tables) != 1:
        return True
    schema = probe_model.tables[0][3]
    if not schema.primary_key:
        return True
    probe_vars = set(probe_model.env)
    for condition in node.conditions:
        if condition.mode != KEY or condition.op != "=":
            continue
        if not condition.is_var_var():
            continue
        left_probe = condition.left.var in probe_vars
        right_probe = condition.right.var in probe_vars
        if left_probe != right_probe:
            probe_binding = probe_model.env.get(
                condition.left.var if left_probe else condition.right.var
            )
            if probe_binding is not None and probe_binding[0] == "tuple":
                return False
    return True


def _compile_orderby(node, catalog, aliases):
    model = _try_compile(node.input, catalog, aliases)
    if model is None:
        return None
    for var in node.variables:
        refs = _order_refs_for(var, model)
        if refs is None:
            return None
        model.order.extend(refs)
    return model


def _order_refs_for(var, model):
    binding = model.env.get(var)
    if binding is None:
        return None
    if binding[0] == "col":
        return ["{}.{}".format(model.alias_of(binding[1]), binding[2])]
    __, alias, __, schema = model.tables[binding[1]]
    if not schema.primary_key:
        return None
    return ["{}.{}".format(alias, col) for col in schema.primary_key]


def _condition_sql(condition, model, catalog):
    """SQL WHERE fragments for one algebra condition, or ``None``."""

    def colref(var):
        binding = model.env.get(var)
        if binding is None or binding[0] != "col":
            return None
        return "{}.{}".format(model.alias_of(binding[1]), binding[2])

    if condition.mode == VALUE:
        if condition.is_var_const():
            ref = colref(condition.left.var)
            if ref is None:
                return None
            return ["{} {} {}".format(
                ref, _sql_op(condition.op), _sql_operand(condition.right)
            )]
        if condition.is_var_var():
            left = colref(condition.left.var)
            right = colref(condition.right.var)
            if left is None or right is None:
                return None
            return ["{} {} {}".format(left, _sql_op(condition.op), right)]
        return None

    if condition.mode == KEY:
        if not condition.is_var_var() or condition.op != "=":
            return None
        left_b = model.env.get(condition.left.var)
        right_b = model.env.get(condition.right.var)
        if (
            left_b is None or right_b is None
            or left_b[0] != "tuple" or right_b[0] != "tuple"
        ):
            return None
        __, l_alias, __, l_schema = model.tables[left_b[1]]
        __, r_alias, __, r_schema = model.tables[right_b[1]]
        if (
            not l_schema.primary_key
            or l_schema.primary_key != r_schema.primary_key
        ):
            return None
        return [
            "{}.{} = {}.{}".format(l_alias, col, r_alias, col)
            for col in l_schema.primary_key
        ]

    if condition.mode == OID:
        if not condition.is_var_const() or condition.op != "=":
            return None
        binding = model.env.get(condition.left.var)
        if binding is None or binding[0] != "tuple":
            return None
        table_name, alias, __, schema = model.tables[binding[1]]
        if not schema.primary_key:
            return None
        source = catalog.server(model.server)
        try:
            key_values = source.oid_to_key(
                table_name, condition.right.value
            )
        except SourceError:
            return None
        return [
            "{}.{} = {}".format(alias, col, sql_literal(value))
            for col, value in zip(schema.primary_key, key_values)
        ]

    return None


def _sql_op(op):
    return op


def _sql_operand(operand):
    """A constant as SQL text; a parameter as its ``?<slot>``
    placeholder (renumbered per statement by :func:`_local_slots`)."""
    if isinstance(operand, ParamOperand):
        return "?{}".format(operand.index)
    return sql_literal(operand.value)


def _local_slots(sql):
    """``(sql, slots)``: ``sql`` with its placeholders renumbered
    ``?0, ?1, ...`` in order of first appearance, and the request slot
    each stands for.  A pushed statement then takes exactly the values
    it names (see :meth:`~repro.algebra.operators.RelQuery.bound`)."""
    slots = []

    def renumber(slot):
        if slot not in slots:
            slots.append(slot)
        return "?{}".format(slots.index(slot))

    return replace_params(sql, renumber), tuple(slots)


# -- rQ construction --------------------------------------------------------------


def _build_relquery(root, node, model, ctx, pending_groups, catalog, cost):
    live = ctx.used_above(node)
    exported = [
        var
        for var in sorted(model.env)
        if var in live and var not in model.internal_only
    ]
    if not exported:
        # Export something so the operator has an output schema: prefer
        # the first tuple variable.
        tuple_vars = [
            v for v, b in sorted(model.env.items())
            if b[0] == "tuple" and v not in model.internal_only
        ]
        exported = tuple_vars[:1]
        if not exported:
            return node

    select_items = []       # SQL select list text
    varmap = []
    for var in exported:
        binding = model.env[var]
        if binding[0] == "tuple":
            table_name, alias, label, schema = model.tables[binding[1]]
            columns = []
            for col in schema.columns:
                columns.append(
                    (len(select_items), col.name)
                )
                select_items.append("{}.{}".format(alias, col.name))
            key_positions = [
                columns[schema.column_index(k)][0]
                for k in schema.primary_key
            ]
            varmap.append(
                ops.RQVar(var, label, columns, key_positions, kind="element")
            )
        else:
            __, alias_idx, column, kind = binding
            alias = model.alias_of(alias_idx)
            position = len(select_items)
            select_items.append("{}.{}".format(alias, column))
            varmap.append(
                ops.RQVar(
                    var, column, [(position, column)], (), kind=kind
                )
            )

    order_refs = list(model.order)
    order_vars = []
    group_vars_here = [v for v in pending_groups if v in model.env]
    if group_vars_here:
        for var in group_vars_here:
            refs = _order_refs_for(var, model)
            if refs is None:
                order_refs = None
                break
            order_refs.extend(r for r in refs if r not in order_refs)
        if order_refs is not None:
            order_vars = list(group_vars_here)
            # Order the remaining exported tuples too, for deterministic
            # nesting (the paper's "ORDER BY c1.id, o1.orid").
            for var in exported:
                if var in group_vars_here:
                    continue
                if model.env[var][0] != "tuple":
                    continue
                refs = _order_refs_for(var, model)
                if refs:
                    order_refs.extend(
                        r for r in refs if r not in order_refs
                    )
    if order_refs is None:
        order_refs = list(model.order)

    row_counts = _fresh_row_counts(model, catalog) if cost else None
    sql, slots = _local_slots(
        _render_sql(model, select_items, order_refs, row_counts)
    )
    return ops.RelQuery(
        model.server, sql, varmap, order_vars=order_vars, slots=slots
    )


def _fresh_row_counts(model, catalog):
    """``{alias: analyzed_row_count}`` for the model's tables, or
    ``None`` when any table lacks fresh statistics (the gate that keeps
    default SQL byte-identical to the seed's)."""
    try:
        source = catalog.server(model.server)
    except Exception:
        return None
    counts = {}
    for table_name, alias, __, __ in model.tables:
        stats = source.table_statistics(table_name)
        if stats is None:
            return None
        counts[alias] = stats.row_count
    return counts


def _render_sql(model, select_items, order_refs, row_counts=None):
    tables = model.tables
    distinct = model.distinct
    if row_counts is not None:
        # Fresh statistics on every table: list the FROM entries
        # smallest-first (helps syntactic source planners; harmless for
        # cost-based ones) and drop a DISTINCT no semijoin actually
        # needs.  Both are correctness-neutral rewrites of the SQL text.
        tables = sorted(
            tables, key=lambda entry: (row_counts[entry[1]], entry[1])
        )
        if distinct and not model.distinct_required:
            distinct = False
    parts = ["SELECT "]
    if distinct:
        parts.append("DISTINCT ")
    parts.append(", ".join(select_items))
    parts.append(" FROM ")
    parts.append(
        ", ".join(
            "{} {}".format(table, alias)
            for table, alias, __, __ in tables
        )
    )
    if model.where:
        parts.append(" WHERE ")
        parts.append(" AND ".join(model.where))
    if order_refs:
        parts.append(" ORDER BY ")
        parts.append(", ".join(order_refs))
    return "".join(parts)
