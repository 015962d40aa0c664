"""Recursive-descent parser for the SQL subset, behind a parse memo.

:func:`parse_sql` keeps the SELECT statements it parsed in a bounded
LRU keyed on the statement text.  A parse reads neither schema nor
data, so an entry is never stale and nothing invalidates it; a
parametrised statement (``?N`` slots) is parsed once per text however
many values it runs with.  Memoized statements are shared: callers
never modify them (:meth:`~repro.relational.ast.SelectStmt.bind` binds
into a copy).  DDL and DML are parsed every time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import SqlParseError
from repro.relational import ast
from repro.relational.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    PARAM,
    STRING,
    SYMBOL,
    tokenize,
)
from repro.relational.types import TYPE_NAMES


class _TokenStream:
    def __init__(self, sql):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok.kind != EOF:
            self.index += 1
        return tok

    def accept(self, kind, text=None):
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def expect(self, kind, text=None):
        tok = self.accept(kind, text)
        if tok is None:
            actual = self.peek()
            raise SqlParseError(
                "expected {} {!r}, got {!r}".format(
                    kind, text or "", actual.text
                ),
                self.sql,
                actual.pos,
            )
        return tok

    def at_keyword(self, word):
        tok = self.peek()
        return tok.kind == KEYWORD and tok.text == word

    def error(self, message):
        tok = self.peek()
        return SqlParseError(message, self.sql, tok.pos)


#: SELECT texts the parse memo holds.
MEMO_SIZE = 256

_memo = OrderedDict()
_memo_lock = threading.Lock()


def parse_sql(sql):
    """Parse one SQL statement; returns an AST node from :mod:`ast`.

    A SELECT is memoized on its text (see the module docstring)."""
    with _memo_lock:
        stmt = _memo.get(sql)
        if stmt is not None:
            _memo.move_to_end(sql)
            return stmt
    stmt = parse_statement(sql)
    if isinstance(stmt, ast.SelectStmt):
        with _memo_lock:
            _memo[sql] = stmt
            if len(_memo) > MEMO_SIZE:
                _memo.popitem(last=False)
    return stmt


def parse_statement(sql):
    """Parse one SQL statement, bypassing the memo."""
    stream = _TokenStream(sql)
    tok = stream.peek()
    if tok.kind != KEYWORD:
        raise stream.error("expected a SQL statement")
    dispatch = {
        "SELECT": _parse_select,
        "CREATE": _parse_create,
        "INSERT": _parse_insert,
        "DELETE": _parse_delete,
        "UPDATE": _parse_update,
        "ANALYZE": _parse_analyze,
    }
    handler = dispatch.get(tok.text)
    if handler is None:
        raise stream.error("unsupported statement {!r}".format(tok.text))
    node = handler(stream)
    stream.expect(EOF)
    return node


# -- SELECT -------------------------------------------------------------------


def _parse_select(stream):
    stream.expect(KEYWORD, "SELECT")
    distinct = stream.accept(KEYWORD, "DISTINCT") is not None
    items = [_parse_select_item(stream)]
    while stream.accept(SYMBOL, ","):
        items.append(_parse_select_item(stream))
    stream.expect(KEYWORD, "FROM")
    tables = [_parse_table_ref(stream)]
    while stream.accept(SYMBOL, ","):
        tables.append(_parse_table_ref(stream))
    predicates = []
    if stream.accept(KEYWORD, "WHERE"):
        predicates.append(_parse_predicate(stream))
        while stream.accept(KEYWORD, "AND"):
            predicates.append(_parse_predicate(stream))
    order_by = []
    if stream.accept(KEYWORD, "ORDER"):
        stream.expect(KEYWORD, "BY")
        order_by.append(_parse_colref(stream))
        stream.accept(KEYWORD, "ASC")
        while stream.accept(SYMBOL, ","):
            order_by.append(_parse_colref(stream))
            stream.accept(KEYWORD, "ASC")
    return ast.SelectStmt(items, tables, predicates, order_by, distinct)


def _parse_select_item(stream):
    if stream.accept(SYMBOL, "*"):
        return ast.SelectItem(ast.SelectItem.STAR)
    ref = _parse_colref(stream)
    alias = None
    if stream.accept(KEYWORD, "AS"):
        alias = stream.expect(IDENT).text
    return ast.SelectItem(ref, alias)


def _parse_table_ref(stream):
    table = stream.expect(IDENT).text
    alias_tok = stream.accept(IDENT)
    return ast.TableRef(table, alias_tok.text if alias_tok else None)


def _parse_colref(stream):
    first = stream.expect(IDENT).text
    if stream.accept(SYMBOL, "."):
        column = stream.expect(IDENT).text
        return ast.ColRef(column, qualifier=first)
    return ast.ColRef(first)


def _parse_operand(stream):
    tok = stream.peek()
    if tok.kind == NUMBER or tok.kind == STRING:
        stream.next()
        return ast.Literal(tok.value)
    if tok.kind == KEYWORD and tok.text == "NULL":
        stream.next()
        return ast.Literal(None)
    if tok.kind == PARAM:
        stream.next()
        return ast.Param(tok.value)
    if tok.kind == IDENT:
        return _parse_colref(stream)
    raise stream.error("expected a column, literal or parameter")


def _parse_predicate(stream):
    left = _parse_operand(stream)
    op_tok = stream.peek()
    if op_tok.kind != SYMBOL or op_tok.text not in ast.COMPARISON_OPS:
        raise stream.error("expected a comparison operator")
    stream.next()
    right = _parse_operand(stream)
    return ast.Predicate(left, op_tok.text, right)


# -- DDL / DML -----------------------------------------------------------------


def _parse_create(stream):
    stream.expect(KEYWORD, "CREATE")
    if stream.accept(KEYWORD, "INDEX"):
        index_name = stream.expect(IDENT).text
        stream.expect(KEYWORD, "ON")
        table = stream.expect(IDENT).text
        stream.expect(SYMBOL, "(")
        columns = [stream.expect(IDENT).text]
        while stream.accept(SYMBOL, ","):
            columns.append(stream.expect(IDENT).text)
        stream.expect(SYMBOL, ")")
        return ast.CreateIndexStmt(index_name, table, columns)
    stream.expect(KEYWORD, "TABLE")
    name = stream.expect(IDENT).text
    stream.expect(SYMBOL, "(")
    columns = []
    primary_key = ()
    while True:
        if stream.at_keyword("PRIMARY"):
            stream.next()
            stream.expect(KEYWORD, "KEY")
            stream.expect(SYMBOL, "(")
            key_cols = [stream.expect(IDENT).text]
            while stream.accept(SYMBOL, ","):
                key_cols.append(stream.expect(IDENT).text)
            stream.expect(SYMBOL, ")")
            primary_key = tuple(key_cols)
        else:
            col_name = stream.expect(IDENT).text
            type_tok = stream.peek()
            if type_tok.kind != IDENT or type_tok.text.upper() not in TYPE_NAMES:
                raise stream.error(
                    "unknown column type {!r}".format(type_tok.text)
                )
            stream.next()
            columns.append((col_name, TYPE_NAMES[type_tok.text.upper()]))
        if not stream.accept(SYMBOL, ","):
            break
    stream.expect(SYMBOL, ")")
    return ast.CreateTableStmt(name, columns, primary_key)


def _parse_insert(stream):
    stream.expect(KEYWORD, "INSERT")
    stream.expect(KEYWORD, "INTO")
    table = stream.expect(IDENT).text
    stream.expect(KEYWORD, "VALUES")
    rows = [_parse_value_tuple(stream)]
    while stream.accept(SYMBOL, ","):
        rows.append(_parse_value_tuple(stream))
    return ast.InsertStmt(table, rows)


def _parse_value_tuple(stream):
    stream.expect(SYMBOL, "(")
    values = [_parse_literal_value(stream)]
    while stream.accept(SYMBOL, ","):
        values.append(_parse_literal_value(stream))
    stream.expect(SYMBOL, ")")
    return values


def _parse_literal_value(stream):
    tok = stream.peek()
    if tok.kind in (NUMBER, STRING):
        stream.next()
        return tok.value
    if tok.kind == KEYWORD and tok.text == "NULL":
        stream.next()
        return None
    raise stream.error("expected a literal value")


def _parse_delete(stream):
    stream.expect(KEYWORD, "DELETE")
    stream.expect(KEYWORD, "FROM")
    table = stream.expect(IDENT).text
    predicates = []
    if stream.accept(KEYWORD, "WHERE"):
        predicates.append(_parse_predicate(stream))
        while stream.accept(KEYWORD, "AND"):
            predicates.append(_parse_predicate(stream))
    return ast.DeleteStmt(table, predicates)


def _parse_update(stream):
    stream.expect(KEYWORD, "UPDATE")
    table = stream.expect(IDENT).text
    stream.expect(KEYWORD, "SET")
    assignments = [_parse_assignment(stream)]
    while stream.accept(SYMBOL, ","):
        assignments.append(_parse_assignment(stream))
    predicates = []
    if stream.accept(KEYWORD, "WHERE"):
        predicates.append(_parse_predicate(stream))
        while stream.accept(KEYWORD, "AND"):
            predicates.append(_parse_predicate(stream))
    return ast.UpdateStmt(table, assignments, predicates)


def _parse_analyze(stream):
    stream.expect(KEYWORD, "ANALYZE")
    table_tok = stream.accept(IDENT)
    return ast.AnalyzeStmt(table_tok.text if table_tok else None)


def _parse_assignment(stream):
    col = stream.expect(IDENT).text
    stream.expect(SYMBOL, "=")
    value = _parse_literal_value(stream)
    return (col, ast.Literal(value))
