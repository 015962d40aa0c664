"""The schema-aware XQuery linter.

Relational wrappers export documents with a rigid two-level shape
(Fig. 2): ``document(d)`` is a root whose children are tuple elements
labeled with the table's element label, each with one field child per
column, each field holding one value leaf.  The linter derives that
schema from the wrapper catalog and walks the query AST against it:

* **MIX-W001** dead path: a step can never match (``$b/authr`` against
  a view exposing only ``author``) — the binding or condition is
  statically empty;
* **MIX-W002** type mismatch: comparing a typed column leaf with a
  literal of an incompatible type (``TEXT`` column vs ``42``);
* **MIX-W003** unsatisfiable predicate: conjunctions whose constant
  ranges on one path contradict each other, or a range comparison that
  falls outside the column's fresh ``ANALYZE`` min/max statistics
  (stale statistics are never used — freshness is the PR-4 contract);
* **MIX-W004** unused FOR variable;
* **MIX-W005** unknown document (neither a source nor a named view);
* **MIX-W006** comparing a field element (not its ``data()`` leaf)
  against a literal.

Every diagnostic carries the :class:`~repro.xquery.ast.Span` of the
offending expression, so output points at source line/column.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.diagnostics import Diagnostic
from repro.relational.types import FLIPPED
from repro.xmltree.paths import Step
from repro.xquery import ast
from repro.xquery.parser import parse_xquery


class DocumentSchema:
    """The exported shape of one wrapper document."""

    __slots__ = ("doc_id", "label", "columns", "wrapper", "table")

    def __init__(self, doc_id, label, columns, wrapper=None, table=None):
        self.doc_id = doc_id
        self.label = label          # tuple-element label
        self.columns = dict(columns)  # column name -> type name or None
        self.wrapper = wrapper
        self.table = table

    def column_stats(self, column):
        """Fresh :class:`ColumnStatistics` for ``column``, or ``None``."""
        if self.wrapper is None or self.table is None:
            return None
        stats = self.wrapper.table_statistics(self.table)
        if stats is None:
            return None
        return stats.column(column)


def catalog_schemas(catalog):
    """``{doc_id: DocumentSchema}`` for every relational document.

    Documents exported by non-relational sources are omitted (unknown
    shape — the linter then skips schema checks for them).
    """
    schemas = {}
    if catalog is None:
        return schemas
    for doc_id in catalog.document_ids():
        source = catalog.source_for(doc_id)
        table = source.table_for_document(doc_id)
        if table is None:
            continue
        schema = source.describe_table(table)
        columns = {}
        for column in schema.columns:
            type_name = getattr(
                getattr(column, "type", None), "name", None
            )
            columns[column.name] = type_name
        schemas[doc_id] = DocumentSchema(
            doc_id, source.label_for_document(doc_id), columns,
            wrapper=source, table=table,
        )
    return schemas


def lint_query(query_text, catalog=None, views=(), source=None):
    """Lint a query (text or parsed AST); returns diagnostics.

    ``catalog`` supplies wrapper schemas; ``views`` names documents that
    are known view roots (their shape is treated as unknown rather than
    flagged MIX-W005).  ``source`` tags the diagnostics with a logical
    input name for multi-file reports.
    """
    query = (
        parse_xquery(query_text)
        if isinstance(query_text, str)
        else query_text
    )
    linter = _Linter(catalog_schemas(catalog), set(views), source)
    linter.lint(query, scope={})
    return linter.diagnostics


class _Shape:
    """Where a path has navigated to inside the two-level document shape.

    ``kind`` is one of ``tuple`` (a whole tuple element — children are
    fields), ``field`` (one column's element — its only descendant is
    the value leaf), ``leaf`` (an atomized value), or ``unknown``.
    """

    __slots__ = ("kind", "schema", "column")

    def __init__(self, kind, schema=None, column=None):
        self.kind = kind
        self.schema = schema
        self.column = column


_UNKNOWN = _Shape("unknown")


class _Linter:
    def __init__(self, schemas, views, source):
        self.schemas = schemas
        self.views = views
        self.source = source
        self.diagnostics: List[Diagnostic] = []

    def report(self, code, message, span):
        self.diagnostics.append(
            Diagnostic(code, message, span=span, source=self.source)
        )

    # -- query traversal ---------------------------------------------------

    def lint(self, query: ast.QueryExpr, scope):
        """Lint one FOR/WHERE/RETURN block; ``scope`` maps outer
        variables to their :class:`_Shape` (nested queries see them)."""
        scope = dict(scope)
        for binding in query.for_bindings:
            # Bindings resolve left to right: a var-rooted operand sees
            # the bindings (outer and earlier) already in scope.
            scope[binding.var] = self._bind_shape(binding, scope)
        ranges = {}
        for condition in query.conditions:
            self._lint_condition(condition, scope, ranges)
        self._lint_return(query.ret, scope)
        self._check_unused(query)

    def _lint_return(self, ret, scope):
        if isinstance(ret, ast.ElemExpr):
            for content in ret.contents:
                self._lint_return(content, scope)
        elif isinstance(ret, ast.QueryExpr):
            self.lint(ret, scope)

    # -- FOR bindings ------------------------------------------------------

    def _bind_shape(self, binding, scope):
        operand = binding.operand
        root = operand.root
        if isinstance(root, ast.DocRoot):
            if root.is_query_root or root.doc_id in self.views:
                return _UNKNOWN
            schema = self.schemas.get(root.doc_id)
            if schema is None:
                if self.schemas or self.views:
                    # With no catalog at all, every document is equally
                    # unknown — stay silent rather than flag them all.
                    known = sorted(self.schemas) + sorted(self.views)
                    self.report(
                        "MIX-W005",
                        "unknown document {!r} (known: {})".format(
                            root.doc_id, ", ".join(known)
                        ),
                        operand.span,
                    )
                return _UNKNOWN
            return self._walk_path(_Shape("docroot", schema), operand)
        # Variable-rooted: resolve through the (outer or earlier) scope.
        return self._walk_path(
            scope.get(root.var, _UNKNOWN), operand
        )

    # -- path navigation ---------------------------------------------------

    def _resolve_operand(self, operand, scope):
        """The :class:`_Shape` a condition/binding path lands on."""
        root = operand.root
        if isinstance(root, ast.DocRoot):
            if root.is_query_root or root.doc_id in self.views:
                return _UNKNOWN
            schema = self.schemas.get(root.doc_id)
            if schema is None:
                return _UNKNOWN
            return self._walk_path(_Shape("docroot", schema), operand)
        start = scope.get(root.var, _UNKNOWN)
        return self._walk_path(start, operand)

    def _walk_path(self, start, operand):
        """Navigate ``operand.path`` from ``start``, reporting MIX-W001
        on the first impossible step."""
        shape = start
        for step in operand.path.steps:
            if shape.kind == "unknown":
                return _UNKNOWN
            if shape.kind == "docroot":
                if step.kind == Step.DATA:
                    return _UNKNOWN
                if (step.kind == Step.LABEL
                        and step.label != shape.schema.label):
                    self._dead_step(operand, step, shape)
                    return _UNKNOWN
                shape = _Shape("tuple", shape.schema)
            elif shape.kind == "tuple":
                if step.kind == Step.DATA:
                    return _UNKNOWN
                if step.kind == Step.WILD:
                    shape = _Shape("field", shape.schema, None)
                elif step.label not in shape.schema.columns:
                    self._dead_step(operand, step, shape)
                    return _UNKNOWN
                else:
                    shape = _Shape("field", shape.schema, step.label)
            elif shape.kind == "field":
                if step.kind == Step.DATA:
                    shape = _Shape("leaf", shape.schema, shape.column)
                elif step.kind == Step.LABEL:
                    self._dead_step(operand, step, shape)
                    return _UNKNOWN
                else:
                    return _UNKNOWN
            else:  # leaf: nothing below an atomized value
                self._dead_step(operand, step, shape)
                return _UNKNOWN
        return shape

    def _dead_step(self, operand, step, shape):
        if shape.kind == "docroot":
            exposes = [shape.schema.label]
        elif shape.kind == "tuple":
            exposes = sorted(shape.schema.columns)
        else:
            exposes = []
        detail = (
            " (view exposes: {})".format(", ".join(exposes))
            if exposes
            else " (an atomized value has no children)"
        )
        self.report(
            "MIX-W001",
            "dead path {}: step {} can never match{}".format(
                repr(operand), repr(step), detail
            ),
            operand.span,
        )

    # -- WHERE conditions --------------------------------------------------

    def _lint_condition(self, condition, scope, ranges):
        sides = []
        for operand in (condition.left, condition.right):
            if isinstance(operand, ast.PathOperand):
                sides.append(self._resolve_operand(operand, scope))
            else:
                sides.append(operand)
        for operand, shape in zip(
            (condition.left, condition.right), sides
        ):
            if isinstance(shape, _Shape) and shape.kind == "field":
                other = sides[1] if shape is sides[0] else sides[0]
                if isinstance(other, ast.Literal):
                    self.report(
                        "MIX-W006",
                        "{} names the {} field element, not its"
                        " value; append /data()".format(
                            repr(operand), shape.column or "matched"
                        ),
                        operand.span,
                    )
        self._lint_var_const(condition, sides, ranges)

    def _lint_var_const(self, condition, sides, ranges):
        """Type/range checks for path-vs-literal comparisons."""
        left, right = sides
        if isinstance(left, _Shape) and isinstance(right, ast.Literal):
            shape, literal, op = left, right, condition.op
            operand = condition.left
        elif isinstance(right, _Shape) and isinstance(left, ast.Literal):
            shape, literal, op = right, left, FLIPPED[condition.op]
            operand = condition.right
        else:
            return
        if shape.kind not in ("leaf", "field") or shape.column is None:
            return
        type_name = shape.schema.columns.get(shape.column)
        value = literal.value
        if type_name is not None:
            numeric_column = type_name in ("INTEGER", "REAL")
            numeric_literal = isinstance(value, (int, float))
            if numeric_column != numeric_literal:
                self.report(
                    "MIX-W002",
                    "comparing {} column {!r} with {!r} can never be"
                    " true".format(
                        type_name, shape.column, value
                    ),
                    condition.span,
                )
                return
        if not isinstance(value, (int, float)):
            return
        self._lint_range(condition, operand, shape, op, value, ranges)

    def _lint_range(self, condition, operand, shape, op, value, ranges):
        """Interval reasoning: contradictions within the conjunction,
        and emptiness against fresh ANALYZE min/max statistics."""
        interval = _interval(op, value)
        if interval is None:
            return
        key = repr(operand)
        prior = ranges.get(key, (float("-inf"), float("inf")))
        merged = (max(prior[0], interval[0]), min(prior[1], interval[1]))
        ranges[key] = merged
        if merged[0] > merged[1]:
            self.report(
                "MIX-W003",
                "contradictory constraints on {}: the WHERE clause"
                " admits no value".format(key),
                condition.span,
            )
            return
        stats = shape.schema.column_stats(shape.column)
        if stats is None or stats.min is None or stats.max is None:
            return
        if interval[0] > stats.max or interval[1] < stats.min:
            self.report(
                "MIX-W003",
                "predicate {} {} {} is outside the analyzed value"
                " range [{}, {}] of column {!r}".format(
                    key, op, value, stats.min, stats.max, shape.column
                ),
                condition.span,
            )

    # -- unused variables --------------------------------------------------

    def _check_unused(self, query):
        used = set()
        for binding in query.for_bindings:
            root = binding.operand.root
            if isinstance(root, ast.VarRoot):
                used.add(root.var)
        for condition in query.conditions:
            for operand in (condition.left, condition.right):
                if isinstance(operand, ast.PathOperand) and isinstance(
                    operand.root, ast.VarRoot
                ):
                    used.add(operand.root.var)
        used |= _return_uses(query.ret)
        for binding in query.for_bindings:
            if binding.var not in used:
                self.report(
                    "MIX-W004",
                    "FOR variable {} is bound but never used".format(
                        binding.var
                    ),
                    binding.span,
                )


def _return_uses(ret):
    """Every variable a RETURN element mentions, group-by lists included."""
    if isinstance(ret, ast.VarRef):
        return {ret.var}
    if isinstance(ret, ast.ElemExpr):
        out = set(ret.group_by)
        for content in ret.contents:
            out |= _return_uses(content)
        return out
    if isinstance(ret, ast.QueryExpr):
        return ret.free_vars()
    return set()


def _interval(op, value) -> Optional[tuple]:
    """The closed interval a ``path op value`` comparison admits.

    Strict bounds are modeled with an epsilon nudge, which is exact for
    the emptiness tests the linter performs on integer-valued stats.
    """
    if op == "=":
        return (value, value)
    if op == "<":
        return (float("-inf"), value - 1e-9)
    if op == "<=":
        return (float("-inf"), value)
    if op == ">":
        return (value + 1e-9, float("inf"))
    if op == ">=":
        return (value, float("inf"))
    return None  # != constrains nothing representable as one interval
