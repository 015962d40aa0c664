"""AST of the SQL subset.

Statements::

    SELECT item, ...  FROM table [alias], ...  [WHERE pred AND ...]
        [ORDER BY colref, ...]
    CREATE TABLE name (col TYPE, ..., [PRIMARY KEY (col, ...)])
    INSERT INTO name VALUES (lit, ...), ...
    DELETE FROM name [WHERE ...]
    UPDATE name SET col = lit, ... [WHERE ...]
    ANALYZE [name]

Predicates are conjunctions of ``operand op operand``; an operand is

    [alias.]column | literal | NULL | ?N

which matches exactly what the mediator's SQL generator emits (Fig. 22)
and what the paper's WHERE grammar allows.  ``?N`` is a
:class:`Param`: slot ``N`` (0-based) of the values a statement is
executed with (``Database.execute(sql, params)``).  A parsed statement
keeps its slots; :meth:`SelectStmt.bind` puts one request's values in a
copy, and :func:`bind_sql` spells them into the text for display.
"""

from __future__ import annotations

import re

from repro.errors import SqlError

#: Comparison operators, shared with the XMAS algebra conditions.
COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


class ColRef:
    """A (possibly qualified) column reference: ``alias.col`` or ``col``."""

    __slots__ = ("qualifier", "column")

    def __init__(self, column, qualifier=None):
        self.column = column
        self.qualifier = qualifier

    def __repr__(self):
        if self.qualifier:
            return "{}.{}".format(self.qualifier, self.column)
        return self.column

    def __eq__(self, other):
        return (
            isinstance(other, ColRef)
            and self.column == other.column
            and self.qualifier == other.qualifier
        )

    def __hash__(self):
        return hash((self.qualifier, self.column))


class Literal:
    """A constant operand (int, float, or str)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return sql_literal(self.value)

    def __eq__(self, other):
        return isinstance(other, Literal) and self.value == other.value

    def __hash__(self):
        return hash(("lit", self.value))


class Param:
    """``?N``: the value of slot ``index`` of the statement's parameters."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return "?{}".format(self.index)

    def __eq__(self, other):
        return isinstance(other, Param) and self.index == other.index

    def __hash__(self):
        return hash(("param", self.index))


def sql_literal(value):
    """``value`` as a SQL literal."""
    if isinstance(value, str):
        return "'{}'".format(value.replace("'", "''"))
    return repr(value)


#: A string literal (skipped: a ``?`` inside one is data) or a
#: parameter.  Outside its string literals a statement is names,
#: numbers and operators, so any other ``?`` is a parameter.
_PARAM_TEXT = re.compile(r"'(?:[^']|'')*'|\?(\d+)")


def replace_params(sql, replace):
    """``sql`` with every ``?N`` outside its string literals replaced
    by ``replace(N)``."""
    if "?" not in sql:
        return sql

    def fill(match):
        slot = match.group(1)
        return match.group(0) if slot is None else replace(int(slot))

    return _PARAM_TEXT.sub(fill, sql)


def bind_sql(sql, params):
    """``sql`` with every ``?N`` replaced by the SQL literal of
    ``params[N]``: the text a parametrised statement is shown as (in
    EXPLAIN, traces and errors).  Execution never needs it."""
    if not params:
        return sql
    return replace_params(sql, lambda slot: sql_literal(params[slot]))


def _bind_operand(operand, params):
    if type(operand) is not Param:
        return operand
    try:
        return Literal(params[operand.index])
    except IndexError:
        raise SqlError("no value for parameter {!r}".format(operand))


class Predicate:
    """``left op right`` with operands being :class:`ColRef`/:class:`Literal`."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        self.left = left
        self.op = "!=" if op == "<>" else op
        self.right = right

    def __repr__(self):
        return "{!r} {} {!r}".format(self.left, self.op, self.right)

    @property
    def slotted(self):
        return type(self.left) is Param or type(self.right) is Param

    def bind(self, params):
        """This predicate with its parameters replaced by ``params``."""
        return Predicate(
            _bind_operand(self.left, params), self.op,
            _bind_operand(self.right, params),
        )


class SelectItem:
    """One projection item: a column ref (or ``*``) with an optional alias."""

    __slots__ = ("ref", "alias")

    STAR = "*"

    def __init__(self, ref, alias=None):
        self.ref = ref  # ColRef or the STAR marker
        self.alias = alias

    @property
    def is_star(self):
        return self.ref == SelectItem.STAR

    def __repr__(self):
        base = "*" if self.is_star else repr(self.ref)
        return base + (" AS " + self.alias if self.alias else "")


class TableRef:
    """A FROM-clause entry: table name plus alias (alias defaults to name)."""

    __slots__ = ("table", "alias")

    def __init__(self, table, alias=None):
        self.table = table
        self.alias = alias or table

    def __repr__(self):
        if self.alias != self.table:
            return "{} {}".format(self.table, self.alias)
        return self.table


class SelectStmt:
    """A parsed SELECT query."""

    def __init__(self, items, tables, predicates=(), order_by=(),
                 distinct=False):
        self.items = list(items)
        self.tables = list(tables)
        self.predicates = list(predicates)
        self.order_by = list(order_by)  # ColRefs
        self.distinct = distinct
        #: Whether a predicate names a :class:`Param`.
        self.slotted = any(p.slotted for p in self.predicates)

    def bind(self, params):
        """A copy with ``params`` in place of its parameters; the
        statement itself when it has none.  Only the predicate list is
        new: the statement may be the parse memo's, shared by every
        request of its text."""
        if not self.slotted:
            return self
        return SelectStmt(
            self.items, self.tables,
            [p.bind(params) if p.slotted else p for p in self.predicates],
            self.order_by, self.distinct,
        )

    def __repr__(self):
        parts = [
            "SELECT "
            + ("DISTINCT " if self.distinct else "")
            + ", ".join(repr(i) for i in self.items),
            "FROM " + ", ".join(repr(t) for t in self.tables),
        ]
        if self.predicates:
            parts.append(
                "WHERE " + " AND ".join(repr(p) for p in self.predicates)
            )
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(repr(c) for c in self.order_by)
            )
        return " ".join(parts)


class CreateTableStmt:
    def __init__(self, name, columns, primary_key=()):
        self.name = name
        self.columns = list(columns)  # [(name, ColumnType)]
        self.primary_key = tuple(primary_key)


class CreateIndexStmt:
    def __init__(self, name, table, columns):
        self.name = name
        self.table = table
        self.columns = tuple(columns)


class InsertStmt:
    def __init__(self, table, rows):
        self.table = table
        self.rows = [list(r) for r in rows]


class DeleteStmt:
    def __init__(self, table, predicates=()):
        self.table = table
        self.predicates = list(predicates)


class AnalyzeStmt:
    """``ANALYZE [table]`` — collect optimizer statistics.

    ``table`` is ``None`` for the whole-database form.
    """

    def __init__(self, table=None):
        self.table = table

    def __repr__(self):
        return "ANALYZE" + (" " + self.table if self.table else "")


class UpdateStmt:
    def __init__(self, table, assignments, predicates=()):
        self.table = table
        self.assignments = list(assignments)  # [(col_name, Literal)]
        self.predicates = list(predicates)
